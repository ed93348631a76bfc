"""Programmable protocol stack: per-link message profiles and wire codecs.

A stack profile fixes how a message envelope is framed on a link (text JSON
or binary length-prefixed), the delivery reliability mode, and the payload
size bound. Profiles are negotiated per link from each side's ordered
preference list; the initiator's preference wins among the common subset.

Binary frame layout (all integers big-endian):

    u32 body_length
    body:
        u64 msg_id
        u16 src_length,  src bytes (utf-8, "kind#instance")
        u16 dst_length,  dst bytes (agent id or topic name)
        u8  kind        (ordinal in MessageKind declaration order)
        u8  has_correlation (0 or 1), u64 correlation_id (0 when absent)
        u64 sim_time
        u32 payload_length, payload bytes

The binary codec packs and unpacks the fixed-width parts of this layout with
precompiled struct.Struct objects; decoding checks every read against the
frame's length before it is made, so any byte string that is not a complete
frame raises MalformedFrame and nothing else. The text codec accepts only
the one JSON form encode writes for a message, so distinct frames never
decode to the same message.
"""

from __future__ import annotations

import base64
import json
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core import AgentId, MasdnError, Message, MessageKind, PayloadTooLarge


# one encoder for every canonical JSON form: json.dumps with non-default
# arguments would build a new encoder on every call
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class NoCommonProfile(MasdnError):
    """The two offered profile lists share no profile."""


class MalformedFrame(MasdnError):
    """Bytes on the wire do not form a complete, well-formed frame."""


class Codec(Enum):
    TEXT_STRUCTURED = "text-structured"
    BINARY_LENGTH_PREFIXED = "binary-length-prefixed"


class Reliability(Enum):
    AT_MOST_ONCE = "at-most-once"
    AT_LEAST_ONCE = "at-least-once"


@dataclass(frozen=True)
class StackProfile:
    profile_id: str
    codec: Codec
    reliability: Reliability
    max_payload: int

    def __post_init__(self) -> None:
        if self.max_payload <= 0:
            raise ValueError(f"max_payload must be > 0, got {self.max_payload}")


DEFAULT_PROFILES = (
    StackProfile("bin-alo-64k", Codec.BINARY_LENGTH_PREFIXED, Reliability.AT_LEAST_ONCE, 65536),
    StackProfile("bin-amo-64k", Codec.BINARY_LENGTH_PREFIXED, Reliability.AT_MOST_ONCE, 65536),
    StackProfile("txt-alo-64k", Codec.TEXT_STRUCTURED, Reliability.AT_LEAST_ONCE, 65536),
    StackProfile("txt-amo-64k", Codec.TEXT_STRUCTURED, Reliability.AT_MOST_ONCE, 65536),
)


def negotiate(
    offered_a: Sequence[StackProfile], offered_b: Sequence[StackProfile]
) -> StackProfile:
    """Pick the profile both sides support, preferring the initiator's order.

    Side a is the connection initiator by convention, so among the common
    profiles the one ranked highest in a's list wins.
    """
    if not offered_a or not offered_b:
        raise ValueError("both offer lists must be non-empty")
    supported_by_b = set(offered_b)
    for profile in offered_a:
        if profile in supported_by_b:
            return profile
    raise NoCommonProfile(
        f"no common profile between {[p.profile_id for p in offered_a]} "
        f"and {[p.profile_id for p in offered_b]}"
    )


_KIND_ORDINAL = {kind: i for i, kind in enumerate(MessageKind)}
_ORDINAL_KIND = {i: kind for kind, i in _KIND_ORDINAL.items()}

# binary frame pieces around the two variable-length ids (see the module doc)
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_HEAD = struct.Struct(">IQH")  # body_length, msg_id, src_length
_TAIL = struct.Struct(">BBQQI")  # kind, has_correlation, correlation_id, sim_time, payload_length
# body bytes other than the two ids and the payload
_FIXED_BODY = _HEAD.size - _U32.size + _U16.size + _TAIL.size


def _parse_dst(text: str) -> AgentId | str:
    if "#" in text:
        return AgentId.parse(text)
    return text


def encode(m: Message, p: StackProfile) -> bytes:
    """Encode a message envelope under the given profile."""
    if len(m.payload) > p.max_payload:
        raise PayloadTooLarge(
            f"payload of {len(m.payload)} bytes exceeds profile max_payload {p.max_payload}"
        )
    if p.codec is Codec.TEXT_STRUCTURED:
        doc = {
            "msg_id": m.msg_id,
            "src": str(m.src),
            "dst": str(m.dst),
            "kind": m.kind.value,
            "correlation_id": m.correlation_id,
            "sim_time": m.sim_time,
            "payload": base64.b64encode(m.payload).decode("ascii"),
        }
        return _CANONICAL_JSON.encode(doc).encode("utf-8")

    src_b = str(m.src).encode("utf-8")
    dst_b = str(m.dst).encode("utf-8")
    payload = m.payload
    corr = m.correlation_id
    head = _HEAD.pack(
        _FIXED_BODY + len(src_b) + len(dst_b) + len(payload), m.msg_id, len(src_b)
    )
    tail = _TAIL.pack(
        _KIND_ORDINAL[m.kind],
        0 if corr is None else 1,
        corr or 0,
        m.sim_time,
        len(payload),
    )
    return b"".join((head, src_b, _U16.pack(len(dst_b)), dst_b, tail, payload))


def decode(b: bytes, p: StackProfile) -> Message:
    """Decode bytes produced by encode under the same profile.

    Raises MalformedFrame on anything that is not a complete frame; a
    partial message is never returned.
    """
    if p.codec is Codec.TEXT_STRUCTURED:
        return _decode_text(b, p)
    return _decode_binary(b, p)


_TEXT_FIELDS = {"msg_id", "src", "dst", "kind", "correlation_id", "sim_time", "payload"}


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_text(b: bytes, p: StackProfile) -> Message:
    try:
        doc = json.loads(b.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrame(f"not a JSON frame: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != _TEXT_FIELDS:
        raise MalformedFrame("JSON frame does not carry exactly the envelope fields")
    corr = doc["correlation_id"]
    if not (_is_int(doc["msg_id"]) and _is_int(doc["sim_time"])) or not (
        corr is None or _is_int(corr)
    ):
        raise MalformedFrame("msg_id, sim_time and correlation_id must be integers")
    try:
        payload = base64.b64decode(doc["payload"], validate=True)
        msg = Message(
            msg_id=doc["msg_id"],
            src=AgentId.parse(doc["src"]),
            dst=_parse_dst(doc["dst"]),
            kind=MessageKind(doc["kind"]),
            payload=payload,
            sim_time=doc["sim_time"],
            correlation_id=doc["correlation_id"],
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise MalformedFrame(f"bad envelope field: {exc}") from exc
    if len(msg.payload) > p.max_payload:
        raise MalformedFrame("payload exceeds profile max_payload")
    if encode(msg, p) != b:
        # other spacing, key order or base64 padding bits than encode writes
        raise MalformedFrame("JSON frame is not in the encoder's canonical form")
    return msg


def _decode_binary(b: bytes, p: StackProfile) -> Message:
    size = len(b)
    if size < 4:
        raise MalformedFrame("frame shorter than length prefix")
    (body_len,) = _U32.unpack_from(b, 0)
    if size - 4 != body_len:
        raise MalformedFrame(
            f"length prefix says {body_len} bytes, frame carries {size - 4}"
        )
    if size < _HEAD.size:
        raise MalformedFrame("truncated frame")
    _, msg_id, src_len = _HEAD.unpack_from(b, 0)
    src_end = _HEAD.size + src_len
    if src_end + _U16.size > size:
        raise MalformedFrame("truncated frame")
    (dst_len,) = _U16.unpack_from(b, src_end)
    dst_start = src_end + _U16.size
    dst_end = dst_start + dst_len
    if dst_end + _TAIL.size > size:
        raise MalformedFrame("truncated frame")
    kind_ord, has_corr, corr, sim_time, payload_len = _TAIL.unpack_from(b, dst_end)
    payload_start = dst_end + _TAIL.size
    payload_end = payload_start + payload_len
    if payload_end != size:
        raise MalformedFrame(
            "truncated frame" if payload_end > size else "trailing bytes after envelope"
        )
    kind = _ORDINAL_KIND.get(kind_ord)
    if kind is None:
        raise MalformedFrame(f"unknown message kind ordinal {kind_ord}")
    if payload_len > p.max_payload:
        raise MalformedFrame("payload exceeds profile max_payload")
    if has_corr > 1 or (not has_corr and corr):
        raise MalformedFrame("correlation flag must be 0 (with a zero id) or 1")
    try:
        return Message(
            msg_id=msg_id,
            src=AgentId.parse(b[_HEAD.size : src_end].decode("utf-8")),
            dst=_parse_dst(b[dst_start:dst_end].decode("utf-8")),
            kind=kind,
            payload=b[payload_start:],
            sim_time=sim_time,
            correlation_id=corr if has_corr else None,
        )
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise MalformedFrame(f"bad envelope field: {exc}") from exc


def encode_body(obj: object) -> bytes:
    """Canonical JSON bytes for a structured message body."""
    return _CANONICAL_JSON.encode(obj).encode("utf-8")


def decode_body(payload: bytes) -> object:
    """Inverse of encode_body; empty payloads carry no body."""
    if not payload:
        return None
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrame(f"unparseable message body: {exc}") from exc
