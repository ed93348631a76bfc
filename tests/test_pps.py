"""Protocol stack profiles: codecs and framing."""
import dataclasses
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from masdn.core import AgentId, FunctionKind, Message, MessageKind
from masdn.pps import (
    DEFAULT_PROFILES,
    Codec,
    MalformedFrame,
    PayloadTooLarge,
    StackProfile,
    decode,
    decode_body,
    encode,
    encode_body,
)

KINDS = list(FunctionKind)


agent_ids = st.builds(
    AgentId, st.sampled_from(KINDS), st.integers(min_value=0, max_value=99)
)
destinations = st.one_of(
    agent_ids,
    st.from_regex(r"[a-z]+(\.[a-z]+){0,3}", fullmatch=True),
)
messages = st.builds(
    Message,
    msg_id=st.integers(min_value=0, max_value=2**63 - 1),
    src=agent_ids,
    dst=destinations,
    kind=st.sampled_from(MessageKind),
    payload=st.binary(max_size=512),
)


@settings(max_examples=300)
@given(m=messages, p=st.sampled_from(DEFAULT_PROFILES))
def test_round_trip_is_field_exact(m, p):
    assert decode(encode(m, p), p) == m


def test_empty_payload_round_trips_under_both_codecs():
    m = Message(
        msg_id=7,
        src=AgentId(FunctionKind.ROUTING, 0),
        dst="events.link",
        kind=MessageKind.EVENT,
        payload=b"",
    )
    for profile in DEFAULT_PROFILES:
        assert decode(encode(m, profile), profile) == m


def test_profile_rejects_oversized_payload():
    small = StackProfile("tiny", Codec.BINARY_LENGTH_PREFIXED, DEFAULT_PROFILES[0].reliability, 4)
    m = Message(
        msg_id=1,
        src=AgentId(FunctionKind.ROUTING, 0),
        dst="t",
        kind=MessageKind.EVENT,
        payload=b"12345",
    )
    with pytest.raises(PayloadTooLarge):
        encode(m, small)


@pytest.mark.parametrize("profile", DEFAULT_PROFILES)
def test_truncated_frames_are_rejected(profile):
    m = Message(
        msg_id=9,
        src=AgentId(FunctionKind.SESSION, 2),
        dst=AgentId(FunctionKind.ROUTING, 0),
        kind=MessageKind.REQUEST,
        payload=b'{"op":"path"}',
    )
    frame = encode(m, profile)
    for cut in (1, len(frame) // 2, len(frame) - 1):
        with pytest.raises(MalformedFrame):
            decode(frame[:cut], profile)


def test_binary_frames_reject_trailing_garbage():
    profile = next(p for p in DEFAULT_PROFILES if p.codec is Codec.BINARY_LENGTH_PREFIXED)
    m = Message(
        msg_id=9,
        src=AgentId(FunctionKind.SESSION, 2),
        dst="x",
        kind=MessageKind.REQUEST,
        payload=b"",
    )
    with pytest.raises(MalformedFrame):
        decode(encode(m, profile) + b"\x00", profile)


TEXT_PROFILES = [p for p in DEFAULT_PROFILES if p.codec is Codec.TEXT_STRUCTURED]


def _canonical(doc):
    """doc in the JSON form encode writes: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _text_frame(**fields):
    """A text frame with fields replaced, in the JSON form encode writes."""
    m = Message(msg_id=9, src=AgentId(FunctionKind.SESSION, 2), dst="x",
                kind=MessageKind.RESPONSE, payload=b"")
    doc = json.loads(encode(m, TEXT_PROFILES[0]))
    return _canonical({**doc, **fields})


@pytest.mark.parametrize("profile", TEXT_PROFILES)
@pytest.mark.parametrize("field", ["msg_id"])
@pytest.mark.parametrize("value", ["x", "7", [1], {"n": 1}, True, False, 1.0, 2.5])
def test_text_frame_integer_fields_must_be_integers(profile, field, value):
    with pytest.raises(MalformedFrame):
        decode(_text_frame(**{field: value}), profile)


# the keys an earlier envelope carried, with values its encoder wrote (the
# integers and null) and values it never did: the key alone refuses the frame
@pytest.mark.parametrize("profile", TEXT_PROFILES)
@pytest.mark.parametrize("field", ["sim_time", "correlation_id"])
@pytest.mark.parametrize("value", [0, 3, 2**40, None, "x", [1], True, 2.5])
def test_text_frame_carrying_a_retired_envelope_key_is_rejected(profile, field, value):
    with pytest.raises(MalformedFrame):
        decode(_text_frame(**{field: value}), profile)


@pytest.mark.parametrize("profile", TEXT_PROFILES)
def test_text_frame_integer_fields_accept_what_the_encoder_writes(profile):
    assert decode(_text_frame(msg_id=0), profile).msg_id == 0
    assert decode(_text_frame(msg_id=2**40), profile).msg_id == 2**40
    with pytest.raises(MalformedFrame):
        decode(_text_frame(msg_id=None), profile)


@pytest.mark.parametrize("profile", TEXT_PROFILES)
def test_text_frame_in_a_form_the_encoder_never_writes_is_rejected(profile):
    import json

    m = Message(msg_id=9, src=AgentId(FunctionKind.SESSION, 2), dst="x",
                kind=MessageKind.REQUEST, payload=b"ab")
    frame = encode(m, profile)
    assert decode(frame, profile) == m
    doc = json.loads(frame)
    assert doc["payload"] == "YWI="
    variants = {
        "spacing": json.dumps(doc, sort_keys=True).encode(),
        "indent": json.dumps(doc, sort_keys=True, indent=2).encode(),
        "key order": json.dumps(dict(reversed(list(doc.items()))),
                                separators=(",", ":")).encode(),
        "base64 padding bits": frame.replace(b'"YWI="', b'"YWJ="'),
        "escaped text": frame.replace(b'"x"', b'"\\u0078"'),
        # a key beside the five envelope fields
        "sim_time": _canonical({**doc, "sim_time": 3}),
        "correlation_id": _canonical({**doc, "correlation_id": None}),
    }
    for name, variant in variants.items():
        assert variant != frame, name
        with pytest.raises(MalformedFrame):
            decode(variant, profile)


@given(
    body=st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=20)),
        lambda child: st.one_of(
            st.lists(child, max_size=4), st.dictionaries(st.text(max_size=8), child, max_size=4)
        ),
        max_leaves=20,
    )
)
def test_body_codec_round_trips_json_values(body):
    assert decode_body(encode_body(body)) == body


@pytest.mark.parametrize(
    "body",
    [
        {"b": [1, {"z": None, "a": [True, False]}], "a": {"y": {"x": [[], {}]}}},
        {"name": "h\u00e9llo \u2603 \U0001f600", "\u00fc": "\u0000\n\"\\"},
        {"f": [0.1, -2.5e-08, 1e300, 3.0, -0.0], "i": [0, -1, 2**70]},
        [None, True, False, "", 0, 1.5],
        "plain",
        None,
    ],
)
def test_body_codec_writes_the_canonical_json_dumps_form(body):
    assert encode_body(body) == json.dumps(
        body, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


# -- binary decoder robustness: every inner bounds check is reached -----------------

BINARY_PROFILES = [p for p in DEFAULT_PROFILES if p.codec is Codec.BINARY_LENGTH_PREFIXED]


def _varint(n):
    """Canonical unsigned LEB128 bytes of n."""
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _varint_at(frame, at):
    """Value and width of the varint at offset at."""
    value = shift = 0
    for width, byte in enumerate(frame[at:], 1):
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, width
        shift += 7
    raise AssertionError("unterminated varint")


def _fields(frame):
    """Offset and width of the head byte, of each id's kind byte and of
    each varint in a binary frame, walked from its layout."""
    head = frame[4]
    fields = {"head": (4, 1)}
    at = 5
    for name in ("src", "dst") if head & 0x08 else ("src",):
        _, width = _varint_at(frame, at + 1)
        fields[f"{name}_kind"] = (at, 1)
        fields[f"{name}_instance"] = (at + 1, width)
        at += 1 + width
    if not head & 0x08:
        length, width = _varint_at(frame, at)
        fields["dst_len"] = (at, width)
        at += width + length
    for name in ("msg_id", "payload_len"):
        _, width = _varint_at(frame, at)
        fields[name] = (at, width)
        at += width
    return fields


VARINTS = ["src_instance", "dst_instance", "dst_len", "msg_id", "payload_len"]


def _with_prefix(body):
    """A frame around body whose outer length prefix matches it."""
    return len(body).to_bytes(4, "big") + body


def _replaced(frame, field, new):
    """frame with the bytes of one field replaced, under a matching prefix."""
    at, width = field
    return _with_prefix(frame[4:at] + new + frame[at + width :])


def _decode_or_malformed(frame, p):
    """The decoded message, or None for MalformedFrame; any other exception escapes."""
    try:
        return decode(frame, p)
    except MalformedFrame:
        return None


def _assert_whole(got, frame, p):
    """A frame that decodes is one the encoder writes for the message it gave."""
    assert encode(got, p) == frame


def test_fields_walks_the_layout():
    m = Message(msg_id=300, src=AgentId(FunctionKind.SESSION, 2), dst="events.tick",
                kind=MessageKind.RESPONSE, payload=b"ab")
    frame = encode(m, BINARY_PROFILES[0])
    assert frame == (
        bytes([0, 0, 0, 20, 0x01, KINDS.index(FunctionKind.SESSION), 2, 11])
        + b"events.tick" + bytes([0xAC, 0x02, 2]) + b"ab"
    )
    assert _fields(frame) == {
        "head": (4, 1), "src_kind": (5, 1), "src_instance": (6, 1), "dst_len": (7, 1),
        "msg_id": (19, 2), "payload_len": (21, 1),
    }


@settings(max_examples=150)
@given(m=messages, p=st.sampled_from(BINARY_PROFILES))
def test_every_cut_of_a_binary_frame_is_rejected(m, p):
    frame = encode(m, p)
    for cut in range(len(frame)):
        with pytest.raises(MalformedFrame):
            decode(frame[:cut], p)
        if cut >= 4:  # the prefix agrees, so an inner bounds check must catch it
            with pytest.raises(MalformedFrame):
                decode(_with_prefix(frame[4:cut]), p)


@settings(max_examples=300)
@given(m=messages, p=st.sampled_from(BINARY_PROFILES), data=st.data())
def test_corrupt_inner_lengths_are_rejected(m, p, data):
    frame = encode(m, p)
    fields = _fields(frame)
    name = data.draw(st.sampled_from([f for f in ("dst_len", "payload_len") if f in fields]))
    old, _ = _varint_at(frame, fields[name][0])
    new = data.draw(
        st.one_of(st.integers(0, 600), st.integers(0, 2**64 - 1)).filter(lambda v: v != old)
    )
    bad = _replaced(frame, fields[name], _varint(new))
    got = _decode_or_malformed(bad, p)
    if got is None:
        return
    # Only the length of a topic can still frame a whole message: a topic
    # takes any text and every byte is a whole varint or starts one, so the
    # integers and the payload length are then read from other bytes of the
    # same frame, and those can agree.
    assert name == "dst_len" and not isinstance(m.dst, AgentId)
    _assert_whole(got, bad, p)


@given(m=messages, p=st.sampled_from(BINARY_PROFILES))
def test_unknown_kind_ordinal_is_rejected(m, p):
    # two head bits hold exactly the four kinds, so every value of the kind
    # field names one; any bit above the defined ones is rejected
    # (test_stray_head_bits_are_rejected), so no wider ordinal gets through
    assert len(MessageKind) == 4
    frame = encode(m, p)
    for ordinal, kind in enumerate(MessageKind):
        head = frame[4] & ~0x03 | ordinal
        got = _decode_or_malformed(_replaced(frame, (4, 1), bytes([head])), p)
        assert got == dataclasses.replace(m, kind=kind)


# the head's defined bits: the kind (0-1) and dst_is_agent (3); bit 2 and
# bits 4-7 are zero in every frame the encoder writes
@given(
    m=messages,
    p=st.sampled_from(BINARY_PROFILES),
    bits=st.integers(1, 255).filter(lambda b: b & ~0x0B),
)
def test_stray_head_bits_are_rejected(m, p, bits):
    frame = encode(m, p)
    with pytest.raises(MalformedFrame):
        decode(_replaced(frame, (4, 1), bytes([frame[4] | bits])), p)


@settings(max_examples=200)
@given(m=messages, p=st.sampled_from(BINARY_PROFILES), data=st.data())
def test_over_long_varint_is_rejected(m, p, data):
    frame = encode(m, p)
    fields = _fields(frame)
    name = data.draw(st.sampled_from([f for f in VARINTS if f in fields]))
    at, width = fields[name]
    value, _ = _varint_at(frame, at)
    pad = data.draw(st.integers(1, 3))
    # the same value with zero groups appended: a form the encoder never writes
    longer = _varint(value)[:-1] + bytes([frame[at + width - 1] | 0x80]) + b"\x80" * (pad - 1) + b"\x00"
    with pytest.raises(MalformedFrame):
        decode(_replaced(frame, (at, width), longer), p)


@given(
    m=messages,
    p=st.sampled_from(BINARY_PROFILES),
    value=st.one_of(st.integers(2**64, 2**70 - 1), st.integers(2**70, 2**100)),
    data=st.data(),
)
def test_varint_above_u64_is_rejected(m, p, value, data):
    frame = encode(m, p)
    fields = _fields(frame)
    name = data.draw(st.sampled_from([f for f in VARINTS if f in fields]))
    with pytest.raises(MalformedFrame):
        decode(_replaced(frame, fields[name], _varint(value)), p)


def test_largest_u64_round_trips():
    m = Message(msg_id=2**64 - 1, src=AgentId(FunctionKind.SESSION, 2**64 - 1),
                dst=AgentId(FunctionKind.ROUTING, 0), kind=MessageKind.RESPONSE,
                payload=b"")
    frame = encode(m, BINARY_PROFILES[0])
    assert decode(frame, BINARY_PROFILES[0]) == m
    assert _fields(frame)["msg_id"][1] == 10


@given(
    m=messages,
    p=st.sampled_from(BINARY_PROFILES),
    ordinal=st.integers(min_value=len(FunctionKind), max_value=255),
    data=st.data(),
)
def test_unknown_function_kind_ordinal_is_rejected(m, p, ordinal, data):
    frame = encode(m, p)
    fields = _fields(frame)
    name = data.draw(st.sampled_from([f for f in ("src_kind", "dst_kind") if f in fields]))
    with pytest.raises(MalformedFrame):
        decode(_replaced(frame, fields[name], bytes([ordinal])), p)


# no integer outside u64 reaches the wire: encode refuses a msg_id or an
# instance above it, and AgentId refuses a negative instance when it is built
@pytest.mark.parametrize("field", ["msg_id", "src", "dst"])
@pytest.mark.parametrize("value", [-1, -2**63, 2**64, 2**70])
def test_encode_refuses_an_integer_outside_u64(field, value):
    m = Message(msg_id=9, src=AgentId(FunctionKind.SESSION, 2), dst="x",
                kind=MessageKind.REQUEST, payload=b"")
    with pytest.raises(ValueError):
        if field != "msg_id":
            value = AgentId(FunctionKind.SESSION, value)
        encode(dataclasses.replace(m, **{field: value}), BINARY_PROFILES[0])


# frames in the earlier binary layout, which carried a sim_time varint after
# msg_id and, under head bit 2, a correlation_id varint after that
@pytest.mark.parametrize("frame", [
    bytes([0, 0, 0, 23, 0x05, KINDS.index(FunctionKind.SESSION), 2, 11])
    + b"events.tick" + bytes([0xAC, 0x02, 5, 0xC8, 0x01, 2]) + b"ab",
    bytes([0, 0, 0, 21, 0x00, KINDS.index(FunctionKind.SESSION), 2, 11])
    + b"events.tick" + bytes([0xAC, 0x02, 5, 2]) + b"ab",
], ids=["response-with-correlation", "request-without"])
def test_a_frame_in_the_retired_layout_is_rejected(frame):
    with pytest.raises(MalformedFrame):
        decode(frame, BINARY_PROFILES[0])


# the envelope of an agent-to-agent frame: a u32 length prefix, a head byte,
# two ids of two bytes each (instances below 128), and the varints of msg_id
# and the payload length
@given(
    src=st.builds(AgentId, st.sampled_from(KINDS), st.integers(0, 127)),
    dst=st.builds(AgentId, st.sampled_from(KINDS), st.integers(0, 127)),
    kind=st.sampled_from(MessageKind),
    msg_id=st.integers(0, 2**14 - 1),
    payload=st.one_of(st.binary(max_size=127), st.binary(min_size=128, max_size=400)),
    p=st.sampled_from(BINARY_PROFILES),
)
def test_an_agent_to_agent_frame_carries_little_beyond_its_payload(
    src, dst, kind, msg_id, payload, p
):
    m = Message(msg_id=msg_id, src=src, dst=dst, kind=kind, payload=payload)
    overhead = len(encode(m, p)) - len(payload)
    assert overhead == 9 + sum(len(_varint(n)) for n in (msg_id, len(payload)))
    # the body, which the length prefix counts, stays within 10 B of its payload
    assert overhead - 4 <= 9
    if max(msg_id, len(payload)) < 128:
        assert overhead == 11


@settings(max_examples=300)
@given(
    m=messages,
    p=st.sampled_from(BINARY_PROFILES),
    edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=4),
    keep_prefix=st.booleans(),
)
def test_corrupt_binary_frames_raise_only_malformed_frame(m, p, edits, keep_prefix):
    bad = bytearray(encode(m, p))
    for pos, value in edits:
        bad[pos % len(bad)] = value
    if keep_prefix:
        bad = bytearray(_with_prefix(bytes(bad[4:])))
    got = _decode_or_malformed(bytes(bad), p)
    if got is not None:  # the edits happened to leave a well-formed frame
        _assert_whole(got, bytes(bad), p)


@given(m=messages, p=st.sampled_from(BINARY_PROFILES))
def test_binary_payload_over_the_profile_limit_is_rejected(m, p):
    import dataclasses

    assume(len(m.payload) >= 2)
    smaller = dataclasses.replace(p, max_payload=len(m.payload) - 1)
    with pytest.raises(MalformedFrame):
        decode(encode(m, p), smaller)
