"""Programmable protocol stack: message profiles and wire codecs.

A stack profile fixes how a message envelope is framed on the wire (text
JSON or binary length-prefixed), the delivery reliability mode, and the
payload size bound. A run uses one profile, named by the run config, for
every hop: every agent, endpoint and topic speaks the same stack, so there
is nothing to negotiate per link.

Binary frame layout:

    u32 body_length (big-endian)
    body:
        u8  head: bits 0-1 kind (ordinal in MessageKind declaration order),
                  bit 3 dst_is_agent, bit 2 and bits 4-7 zero
        src: u8 FunctionKind ordinal (declaration order), varint instance
        dst: an agent id like src when dst_is_agent, otherwise
             varint byte length, topic text (utf-8)
        varint msg_id
        varint payload_length, payload bytes

A varint is an unsigned LEB128 integer, as in Protocol Buffers: seven bits
per byte, low group first, the high bit set on every byte but the last.
Its range is 0..2**64-1, and only the shortest form is valid. encode raises
ValueError for an integer outside the range; decode checks every read
against the frame's length, so any byte string that is not a complete frame
in this form (a stray head bit, an unknown function kind, an over-long or
too-large varint, a payload length that disagrees with the frame) raises
MalformedFrame and nothing else. A frame that decodes is the one encode
writes for the message it gives. The payload length is explicit although
the outer prefix implies it, so a body is self-delimiting: no cut of it
decodes. Agent ids take two bytes while instances stay below 128, and the
ids a frame decodes to are memoised, so a hop builds no new AgentId. The
text codec accepts only the one JSON form encode writes for a message, so
distinct frames never decode to the same message.
"""

from __future__ import annotations

import base64
import json
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from .core import AgentId, FunctionKind, MasdnError, Message, MessageKind, PayloadTooLarge


# one encoder for every canonical JSON form: json.dumps with non-default
# arguments would build a new encoder on every call
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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


# -- binary frames (see the module doc) -------------------------------------

_U32 = struct.Struct(">I")
_U64_MAX = (1 << 64) - 1
_BYTE = tuple(bytes((i,)) for i in range(256))

# head byte
_KIND_MASK = 0x03
_DST_IS_AGENT = 0x08
_HEAD_BITS = _KIND_MASK | _DST_IS_AGENT

_MESSAGE_KINDS = tuple(MessageKind)
assert len(_MESSAGE_KINDS) == _KIND_MASK + 1, "a MessageKind ordinal takes two bits"
# keyed by the member's value: hashing an Enum member runs Python code
_KIND_ORDINAL = {kind.value: i for i, kind in enumerate(_MESSAGE_KINDS)}
_FUNCTION_KINDS = tuple(FunctionKind)
_FUNCTION_ORDINAL = {kind: i for i, kind in enumerate(_FUNCTION_KINDS)}


# every varint of one or two bytes, by value: most integers in a frame are
# below 2**14, and a lookup is several times faster than building the bytes
_VARINTS = (
    *_BYTE[:0x80],
    *(_BYTE[n & 0x7F | 0x80] + _BYTE[n >> 7] for n in range(0x80, 0x4000)),
)


def _uvarint(n: int) -> bytes:
    """The canonical unsigned LEB128 bytes of n, for 0 <= n < 2**64."""
    if 0 <= n < 0x4000:
        return _VARINTS[n]
    if not 0 <= n <= _U64_MAX:
        raise ValueError(f"{n} is outside the varint range 0..2**64-1")
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


class _Memo(dict):
    """make(key) for each key seen, the first 4096 kept: ids and topics are few."""

    def __init__(self, make: Callable[[Any], Any]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self.make(key)
        if len(self) < 4096:
            self[key] = value
        return value


def _agent_wire(text: str) -> bytes:
    aid = AgentId.parse(text)
    return _BYTE[_FUNCTION_ORDINAL[aid.kind]] + _uvarint(aid.instance)


def _topic_wire(topic: str) -> bytes:
    text = topic.encode("utf-8")
    return _uvarint(len(text)) + text


def _agent_id(key: int) -> AgentId:
    """The id for instance << 8 | kind ordinal: the very object AgentId.parse
    gives, so ids from frames and from text are one object."""
    ordinal = key & 0xFF
    if ordinal >= len(_FUNCTION_KINDS):
        raise MalformedFrame(f"unknown function kind ordinal {ordinal}")
    return AgentId.parse(f"{_FUNCTION_KINDS[ordinal].value}#{key >> 8}")


# keyed by text, which hashes and compares in C; an AgentId runs Python code
_AGENT_WIRE = _Memo(_agent_wire)
_TOPIC_WIRE = _Memo(_topic_wire)
_AGENT_IDS = _Memo(_agent_id)


def _varint_tail(b: bytes, i: int, first: int) -> tuple[int, int]:
    """Finish the varint whose first byte, read just before offset i, has
    its continuation bit set: its value and the offset after it."""
    value = first & 0x7F
    shift = 7
    while True:
        if shift > 63:
            raise MalformedFrame("varint above 2**64-1")
        byte = b[i]
        i += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            break
        shift += 7
    if byte == 0:
        raise MalformedFrame("over-long varint")
    if value > _U64_MAX:
        raise MalformedFrame("varint above 2**64-1")
    return value, i


def _read_agent(b: bytes, i: int) -> tuple[AgentId, int]:
    """The agent id at offset i and the offset after it."""
    ordinal = b[i]
    instance = b[i + 1]
    i += 2
    if instance > 0x7F:
        instance, i = _varint_tail(b, i, instance)
    return _AGENT_IDS[instance << 8 | ordinal], i


def encode(m: Message, p: StackProfile) -> bytes:
    """Encode a message envelope under the given profile."""
    payload = m.payload
    if len(payload) > p.max_payload:
        raise PayloadTooLarge(
            f"payload of {len(payload)} bytes exceeds profile max_payload {p.max_payload}"
        )
    if p.codec is Codec.TEXT_STRUCTURED:
        doc = {
            "msg_id": m.msg_id,
            "src": str(m.src),
            "dst": str(m.dst),
            "kind": m.kind.value,
            "payload": base64.b64encode(m.payload).decode("ascii"),
        }
        return _CANONICAL_JSON.encode(doc).encode("utf-8")

    head = _KIND_ORDINAL[m.kind._value_]
    dst = m.dst
    if isinstance(dst, AgentId):
        head |= _DST_IS_AGENT
        dst_b = _AGENT_WIRE[str(dst)]
    else:
        dst_b = _TOPIC_WIRE[dst]
    msg_id = m.msg_id
    payload_len = len(payload)
    # the table lookups are inline: a call would cost more than the lookup
    envelope = b"".join((
        _BYTE[head],
        _AGENT_WIRE[str(m.src)],
        dst_b,
        _VARINTS[msg_id] if 0 <= msg_id < 0x4000 else _uvarint(msg_id),
        _VARINTS[payload_len] if payload_len < 0x4000 else _uvarint(payload_len),
    ))
    return b"".join((_U32.pack(len(envelope) + payload_len), envelope, payload))


def decode(b: bytes, p: StackProfile) -> Message:
    """Decode bytes produced by encode under the same profile.

    Raises MalformedFrame on anything that is not a complete frame; a
    partial message is never returned.
    """
    if p.codec is Codec.TEXT_STRUCTURED:
        return _decode_text(b, p)
    return _decode_binary(b, p)


_TEXT_FIELDS = {"msg_id", "src", "dst", "kind", "payload"}


def _parse_dst(text: str) -> AgentId | str:
    if "#" in text:
        return AgentId.parse(text)
    return text


def _decode_text(b: bytes, p: StackProfile) -> Message:
    try:
        doc = json.loads(b.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrame(f"not a JSON frame: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != _TEXT_FIELDS:
        raise MalformedFrame("JSON frame does not carry exactly the envelope fields")
    msg_id = doc["msg_id"]
    if not isinstance(msg_id, int) or isinstance(msg_id, bool):
        raise MalformedFrame("msg_id must be an integer")
    try:
        payload = base64.b64decode(doc["payload"], validate=True)
        msg = Message(
            msg_id,
            AgentId.parse(doc["src"]),
            _parse_dst(doc["dst"]),
            MessageKind(doc["kind"]),
            payload,
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
    if size < 5:
        raise MalformedFrame("frame shorter than length prefix and head byte")
    (body_len,) = _U32.unpack_from(b, 0)
    if size - 4 != body_len:
        raise MalformedFrame(
            f"length prefix says {body_len} bytes, frame carries {size - 4}"
        )
    head = b[4]
    if head & ~_HEAD_BITS:
        raise MalformedFrame(f"head byte {head:#04x} sets undefined bits")
    # every read past the end raises IndexError, so each is bounds-checked
    try:
        src, i = _read_agent(b, 5)
        if head & _DST_IS_AGENT:
            dst, i = _read_agent(b, i)
        else:
            n = b[i]
            i += 1
            if n > 0x7F:
                n, i = _varint_tail(b, i, n)
            end = i + n
            if end > size:
                raise IndexError
            dst = b[i:end].decode("utf-8")
            i = end
        msg_id = b[i]
        i += 1
        if msg_id > 0x7F:
            msg_id, i = _varint_tail(b, i, msg_id)
        payload_len = b[i]
        i += 1
        if payload_len > 0x7F:
            payload_len, i = _varint_tail(b, i, payload_len)
    except IndexError:
        raise MalformedFrame("truncated frame") from None
    except UnicodeDecodeError as exc:
        raise MalformedFrame(f"topic is not utf-8: {exc}") from exc
    if i + payload_len != size:
        raise MalformedFrame(
            "truncated frame" if i + payload_len > size else "trailing bytes after envelope"
        )
    if payload_len > p.max_payload:
        raise MalformedFrame("payload exceeds profile max_payload")
    return Message(msg_id, src, dst, _MESSAGE_KINDS[head & _KIND_MASK], b[i:])


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
