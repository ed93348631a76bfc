"""Identity, hierarchy levels, and message envelope basics."""
import copy
import dataclasses
import pickle

import pytest

from masdn.core import (
    AgentId,
    FunctionKind,
    DecisionLevel,
    Message,
    MessageFactory,
    MessageKind,
    PayloadTooLarge,
    level_of,
)


def test_level_ordering_is_ascending_authority():
    assert DecisionLevel.PROTOCOL < DecisionLevel.FUNCTION < DecisionLevel.NODE < DecisionLevel.NETWORK


def test_every_kind_has_a_level():
    for kind in FunctionKind:
        assert isinstance(level_of(kind), DecisionLevel)


def test_controller_functions_sit_at_function_level():
    for kind in (
        FunctionKind.ROUTING,
        FunctionKind.FORWARDING,
        FunctionKind.QOS,
        FunctionKind.CLASSIFIER,
        FunctionKind.SESSION,
        FunctionKind.TOPOLOGY,
    ):
        assert level_of(kind) is DecisionLevel.FUNCTION


def test_system_plumbing_sits_at_network_level():
    for kind in (
        FunctionKind.ORCHESTRATION,
        FunctionKind.REGISTRY,
        FunctionKind.EVENT_DISTRIBUTION,
        FunctionKind.KNOWLEDGE_PLANE,
    ):
        assert level_of(kind) is DecisionLevel.NETWORK


def test_agent_id_round_trips_through_text():
    for kind in FunctionKind:
        for instance in (0, 3, 17):
            aid = AgentId(kind, instance)
            assert AgentId.parse(str(aid)) == aid


@pytest.mark.parametrize(
    "bad",
    ["", "routing", "routing#", "routing#x", "#1", "Routing#1",
     "routing#01", "routing#1\n", "routing#\u0661"],
)
def test_agent_id_rejects_malformed_text(bad):
    with pytest.raises((ValueError, KeyError)):
        AgentId.parse(bad)


def test_agent_id_text_is_kind_and_instance_after_any_copy():
    for kind in FunctionKind:
        aid = AgentId(kind, 4)
        copies = [
            aid,
            dataclasses.replace(aid, instance=11),
            dataclasses.replace(aid, kind=FunctionKind.QOS),
            copy.copy(aid),
            copy.deepcopy(aid),
            pickle.loads(pickle.dumps(aid)),
        ]
        for c in copies:
            assert str(c) == f"{c.kind.value}#{c.instance}"


def test_cached_agent_id_text_takes_no_part_in_equality_or_hash():
    aid = AgentId(FunctionKind.ROUTING, 2)
    twin = AgentId(FunctionKind.ROUTING, 2)
    object.__setattr__(twin, "_text", "something else")
    assert aid == twin and hash(aid) == hash(twin)
    assert hash(aid) == hash((FunctionKind.ROUTING, 2))
    assert repr(aid) == "AgentId(kind=<FunctionKind.ROUTING: 'routing'>, instance=2)"


def test_agent_id_parse_is_memoised_and_still_rejects_every_time():
    assert AgentId.parse("qos#3") is AgentId.parse("qos#3")
    for bad in ("qos#", "nope#1"):
        for _ in range(2):
            with pytest.raises(ValueError):
                AgentId.parse(bad)


def test_agent_ids_sort_stably():
    ids = [AgentId(FunctionKind.SESSION, 1), AgentId(FunctionKind.ROUTING, 0),
           AgentId(FunctionKind.SESSION, 0)]
    assert sorted(map(str, ids)) == [str(a) for a in sorted(ids)]


def test_response_requires_correlation_id():
    with pytest.raises(ValueError):
        Message(
            msg_id=1,
            src=AgentId(FunctionKind.ROUTING, 0),
            dst=AgentId(FunctionKind.SESSION, 0),
            kind=MessageKind.RESPONSE,
            payload=b"",
            sim_time=0,
        )


def test_factory_ids_strictly_increase():
    factory = MessageFactory()
    src = AgentId(FunctionKind.ROUTING, 0)
    ids = [
        factory.new_message(src, "topic.x", MessageKind.EVENT, b"{}", now=0).msg_id
        for _ in range(50)
    ]
    assert ids == sorted(set(ids))


def test_factory_enforces_payload_bound():
    factory = MessageFactory(max_payload=8)
    src = AgentId(FunctionKind.ROUTING, 0)
    with pytest.raises(PayloadTooLarge):
        factory.new_message(src, "topic.x", MessageKind.EVENT, b"123456789", now=0)
