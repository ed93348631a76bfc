"""Protocol stack profiles: codecs, framing, and negotiation."""
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from masdn.core import AgentId, FunctionKind, Message, MessageKind
from masdn.pps import (
    DEFAULT_PROFILES,
    Codec,
    MalformedFrame,
    NoCommonProfile,
    PayloadTooLarge,
    StackProfile,
    decode,
    decode_body,
    encode,
    encode_body,
    negotiate,
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


def test_negotiate_prefers_initiator_order():
    a = [DEFAULT_PROFILES[2], DEFAULT_PROFILES[0]]
    b = list(DEFAULT_PROFILES)
    assert negotiate(a, b) == DEFAULT_PROFILES[2]


def test_negotiate_disjoint_offers_fails():
    with pytest.raises(NoCommonProfile):
        negotiate([DEFAULT_PROFILES[0]], [DEFAULT_PROFILES[3]])


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


def _fields(frame):
    """Offset and width of each inner length field and of the kind byte."""
    src_len = int.from_bytes(frame[12:14], "big")
    dst_at = 14 + src_len
    dst_len = int.from_bytes(frame[dst_at : dst_at + 2], "big")
    kind_at = dst_at + 2 + dst_len
    return {"src": (12, 2), "dst": (dst_at, 2), "kind": (kind_at, 1), "payload": (kind_at + 18, 4)}


def _with_prefix(body):
    """A frame around body whose outer length prefix matches it."""
    return len(body).to_bytes(4, "big") + body


def _decode_or_malformed(frame, p):
    """The decoded message, or None for MalformedFrame; any other exception escapes."""
    try:
        return decode(frame, p)
    except MalformedFrame:
        return None


def _assert_whole(got, frame, p):
    """A frame that decodes is one the encoder writes for the message it gave."""
    assert encode(got, p) == frame


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
@given(
    m=any_messages,
    p=st.sampled_from(BINARY_PROFILES),
    name=st.sampled_from(["src", "dst", "payload"]),
    data=st.data(),
)
def test_corrupt_inner_lengths_are_rejected(m, p, name, data):
    frame = encode(m, p)
    at, width = _fields(frame)[name]
    old = int.from_bytes(frame[at : at + width], "big")
    new = data.draw(
        st.integers(min_value=0, max_value=256**width - 1).filter(lambda v: v != old)
    )
    bad = _with_prefix(frame[4:at] + new.to_bytes(width, "big") + frame[at + width :])
    got = _decode_or_malformed(bad, p)
    if got is None:
        return
    # Only a longer dst_len on a topic can still frame a whole message: a
    # topic takes any text, so the kind, correlation, time and payload length
    # are then read from later bytes of the same frame, and those can agree.
    assert name == "dst" and new > old and not isinstance(m.dst, AgentId)
    _assert_whole(got, bad, p)


@given(
    m=any_messages,
    p=st.sampled_from(BINARY_PROFILES),
    ordinal=st.integers(min_value=len(MessageKind), max_value=255),
)
def test_unknown_kind_ordinal_is_rejected(m, p, ordinal):
    frame = encode(m, p)
    at, _ = _fields(frame)["kind"]
    with pytest.raises(MalformedFrame):
        decode(frame[:at] + bytes([ordinal]) + frame[at + 1 :], p)


def test_binary_correlation_flag_is_zero_or_one():
    import dataclasses

    profile = next(p for p in DEFAULT_PROFILES if p.codec is Codec.BINARY_LENGTH_PREFIXED)
    m = Message(msg_id=9, src=AgentId(FunctionKind.SESSION, 2), dst="x",
                kind=MessageKind.REQUEST, payload=b"", sim_time=3)
    frame = encode(m, profile)
    flag = _fields(frame)["kind"][0] + 1
    assert frame[flag] == 0
    for value in (2, 255):
        with pytest.raises(MalformedFrame):
            decode(frame[:flag] + bytes([value]) + frame[flag + 1 :], profile)
    # flag 0 with a non-zero correlation id: bytes the encoder never writes
    with pytest.raises(MalformedFrame):
        decode(frame[:flag + 8] + b"\x01" + frame[flag + 9 :], profile)
    resp = encode(dataclasses.replace(m, kind=MessageKind.RESPONSE, correlation_id=0), profile)
    assert decode(resp, profile).correlation_id == 0


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
