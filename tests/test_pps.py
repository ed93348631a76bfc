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
    kind=st.sampled_from([MessageKind.REQUEST, MessageKind.EVENT, MessageKind.POLICY]),
    payload=st.binary(max_size=512),
    sim_time=st.integers(min_value=0, max_value=2**31),
)


@settings(max_examples=300)
@given(m=messages, p=st.sampled_from(DEFAULT_PROFILES))
def test_round_trip_is_field_exact(m, p):
    assert decode(encode(m, p), p) == m


@given(
    m=messages,
    corr=st.integers(min_value=1, max_value=2**31),
    p=st.sampled_from(DEFAULT_PROFILES),
)
def test_round_trip_preserves_correlation(m, corr, p):
    import dataclasses

    resp = dataclasses.replace(m, kind=MessageKind.RESPONSE, correlation_id=corr)
    assert decode(encode(resp, p), p) == resp


def test_empty_payload_round_trips_under_both_codecs():
    m = Message(
        msg_id=7,
        src=AgentId(FunctionKind.ROUTING, 0),
        dst="events.link",
        kind=MessageKind.EVENT,
        payload=b"",
        sim_time=0,
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
        sim_time=0,
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
        sim_time=3,
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
        sim_time=3,
    )
    with pytest.raises(MalformedFrame):
        decode(encode(m, profile) + b"\x00", profile)


TEXT_PROFILES = [p for p in DEFAULT_PROFILES if p.codec is Codec.TEXT_STRUCTURED]


def _text_frame(**fields):
    """A text frame with fields replaced, in the JSON form encode writes."""
    import json

    m = Message(msg_id=9, src=AgentId(FunctionKind.SESSION, 2), dst="x",
                kind=MessageKind.RESPONSE, payload=b"", sim_time=3, correlation_id=4)
    doc = json.loads(encode(m, TEXT_PROFILES[0]))
    return json.dumps({**doc, **fields}, sort_keys=True, separators=(",", ":")).encode("utf-8")


@pytest.mark.parametrize("profile", TEXT_PROFILES)
@pytest.mark.parametrize("field", ["msg_id", "sim_time", "correlation_id"])
@pytest.mark.parametrize("value", ["x", "7", [1], {"n": 1}, True, False, 1.0, 2.5])
def test_text_frame_integer_fields_must_be_integers(profile, field, value):
    with pytest.raises(MalformedFrame):
        decode(_text_frame(**{field: value}), profile)


@pytest.mark.parametrize("profile", TEXT_PROFILES)
def test_text_frame_integer_fields_accept_what_the_encoder_writes(profile):
    assert decode(_text_frame(msg_id=0, sim_time=2**40), profile).sim_time == 2**40
    req = _text_frame(kind="request", correlation_id=None)
    assert decode(req, profile).correlation_id is None
    with pytest.raises(MalformedFrame):
        decode(_text_frame(msg_id=None), profile)


@pytest.mark.parametrize("profile", TEXT_PROFILES)
def test_text_frame_in_a_form_the_encoder_never_writes_is_rejected(profile):
    import json

    m = Message(msg_id=9, src=AgentId(FunctionKind.SESSION, 2), dst="x",
                kind=MessageKind.REQUEST, payload=b"ab", sim_time=3)
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
any_messages = st.one_of(
    messages,
    st.builds(
        Message,
        msg_id=st.integers(min_value=0, max_value=2**63 - 1),
        src=agent_ids,
        dst=destinations,
        kind=st.just(MessageKind.RESPONSE),
        payload=st.binary(max_size=512),
        sim_time=st.integers(min_value=0, max_value=2**31),
        correlation_id=st.integers(min_value=0, max_value=2**63 - 1),
    ),
)


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
    for name in ("msg_id", "sim_time", "correlation_id", "payload_len"):
        if name == "correlation_id" and not head & 0x04:
            continue
        _, width = _varint_at(frame, at)
        fields[name] = (at, width)
        at += width
    return fields


VARINTS = ["src_instance", "dst_instance", "dst_len", "msg_id", "sim_time",
           "correlation_id", "payload_len"]


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
                kind=MessageKind.RESPONSE, payload=b"ab", sim_time=5, correlation_id=200)
    frame = encode(m, BINARY_PROFILES[0])
    assert frame == (
        bytes([0, 0, 0, 23, 0x05, KINDS.index(FunctionKind.SESSION), 2, 11])
        + b"events.tick" + bytes([0xAC, 0x02, 5, 0xC8, 0x01, 2]) + b"ab"
    )
    assert _fields(frame) == {
        "head": (4, 1), "src_kind": (5, 1), "src_instance": (6, 1), "dst_len": (7, 1),
        "msg_id": (19, 2), "sim_time": (21, 1), "correlation_id": (22, 2),
        "payload_len": (24, 1),
    }


@settings(max_examples=150)
@given(m=any_messages, p=st.sampled_from(BINARY_PROFILES))
def test_every_cut_of_a_binary_frame_is_rejected(m, p):
    frame = encode(m, p)
    for cut in range(len(frame)):
        with pytest.raises(MalformedFrame):
            decode(frame[:cut], p)
        if cut >= 4:  # the prefix agrees, so an inner bounds check must catch it
            with pytest.raises(MalformedFrame):
                decode(_with_prefix(frame[4:cut]), p)


@settings(max_examples=300)
@given(m=any_messages, p=st.sampled_from(BINARY_PROFILES), data=st.data())
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


@given(m=any_messages, p=st.sampled_from(BINARY_PROFILES))
def test_unknown_kind_ordinal_is_rejected(m, p):
    # two head bits hold exactly the four kinds, so every value of the kind
    # field names one; any bit above the defined ones is rejected
    # (test_stray_head_bits_are_rejected), so no wider ordinal gets through
    assert len(MessageKind) == 4
    frame = encode(m, p)
    for ordinal, kind in enumerate(MessageKind):
        head = frame[4] & ~0x03 | ordinal
        got = _decode_or_malformed(_replaced(frame, (4, 1), bytes([head])), p)
        if kind is MessageKind.RESPONSE and m.correlation_id is None:
            assert got is None  # a response must carry a correlation id
        else:
            assert got == dataclasses.replace(m, kind=kind)


@given(m=any_messages, p=st.sampled_from(BINARY_PROFILES), bits=st.integers(1, 15))
def test_stray_head_bits_are_rejected(m, p, bits):
    frame = encode(m, p)
    with pytest.raises(MalformedFrame):
        decode(_replaced(frame, (4, 1), bytes([frame[4] | bits << 4])), p)


def test_correlation_without_its_flag_is_rejected():
    profile = BINARY_PROFILES[0]
    base = Message(msg_id=9, src=AgentId(FunctionKind.SESSION, 2), dst="x",
                   kind=MessageKind.REQUEST, payload=b"", sim_time=3, correlation_id=4)
    for m in (base, dataclasses.replace(base, kind=MessageKind.RESPONSE)):
        frame = encode(m, profile)
        assert decode(frame, profile) == m
        assert frame[4] & 0x04
        # the value stays, its flag goes: bytes the encoder never writes
        with pytest.raises(MalformedFrame):
            decode(_replaced(frame, (4, 1), bytes([frame[4] & ~0x04])), profile)
    # and the flag without its value
    frame = encode(dataclasses.replace(base, correlation_id=None), profile)
    assert not frame[4] & 0x04
    with pytest.raises(MalformedFrame):
        decode(_replaced(frame, (4, 1), bytes([frame[4] | 0x04])), profile)
    resp = encode(dataclasses.replace(base, kind=MessageKind.RESPONSE, correlation_id=0), profile)
    assert decode(resp, profile).correlation_id == 0


@settings(max_examples=200)
@given(m=any_messages, p=st.sampled_from(BINARY_PROFILES))
def test_a_flipped_correlation_flag_never_yields_another_frame(m, p):
    frame = encode(m, p)
    bad = _replaced(frame, (4, 1), bytes([frame[4] ^ 0x04]))
    got = _decode_or_malformed(bad, p)
    if got is not None:  # other bytes happened to read as a whole frame
        _assert_whole(got, bad, p)
        assert (got.correlation_id is None) == (m.correlation_id is not None)


@settings(max_examples=200)
@given(m=any_messages, p=st.sampled_from(BINARY_PROFILES), data=st.data())
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
    m=any_messages,
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
                payload=b"", sim_time=2**64 - 1, correlation_id=2**64 - 1)
    frame = encode(m, BINARY_PROFILES[0])
    assert decode(frame, BINARY_PROFILES[0]) == m
    assert _fields(frame)["msg_id"][1] == 10


@given(
    m=any_messages,
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


@pytest.mark.parametrize("field", ["msg_id", "sim_time", "correlation_id"])
@pytest.mark.parametrize("value", [-1, -2**63, 2**64, 2**70])
def test_encode_refuses_an_integer_outside_u64(field, value):
    m = Message(msg_id=9, src=AgentId(FunctionKind.SESSION, 2), dst="x",
                kind=MessageKind.REQUEST, payload=b"", sim_time=3, correlation_id=4)
    with pytest.raises(ValueError):
        encode(dataclasses.replace(m, **{field: value}), BINARY_PROFILES[0])
    with pytest.raises(ValueError):
        encode(dataclasses.replace(m, src=AgentId(FunctionKind.SESSION, 2**64)),
               BINARY_PROFILES[0])


# the envelope of an agent-to-agent frame: a u32 length prefix, a head byte,
# two ids of two bytes each (instances below 128), and the varints of msg_id,
# sim_time and the payload length
@given(
    src=st.builds(AgentId, st.sampled_from(KINDS), st.integers(0, 127)),
    dst=st.builds(AgentId, st.sampled_from(KINDS), st.integers(0, 127)),
    kind=st.sampled_from([MessageKind.REQUEST, MessageKind.EVENT, MessageKind.POLICY]),
    msg_id=st.integers(0, 2**14 - 1),
    sim_time=st.integers(0, 2**14 - 1),
    payload=st.one_of(st.binary(max_size=127), st.binary(min_size=128, max_size=400)),
    p=st.sampled_from(BINARY_PROFILES),
)
def test_an_agent_to_agent_frame_carries_little_beyond_its_payload(
    src, dst, kind, msg_id, sim_time, payload, p
):
    m = Message(msg_id=msg_id, src=src, dst=dst, kind=kind, payload=payload, sim_time=sim_time)
    overhead = len(encode(m, p)) - len(payload)
    assert overhead == 9 + sum(len(_varint(n)) for n in (msg_id, sim_time, len(payload)))
    # the body, which the length prefix counts, stays within 12 B of its payload
    assert overhead - 4 <= 11
    if max(msg_id, sim_time, len(payload)) < 128:
        assert overhead == 12


@settings(max_examples=300)
@given(
    m=any_messages,
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


@given(m=any_messages, p=st.sampled_from(BINARY_PROFILES))
def test_binary_payload_over_the_profile_limit_is_rejected(m, p):
    import dataclasses

    assume(len(m.payload) >= 2)
    smaller = dataclasses.replace(p, max_payload=len(m.payload) - 1)
    with pytest.raises(MalformedFrame):
        decode(encode(m, p), smaller)
