"""Identity, hierarchy levels, and message envelope basics."""
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import masdn
from masdn.core import (
    AgentId,
    FunctionKind,
    DecisionLevel,
    Message,
    MessageFactory,
    MessageKind,
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


def _built_every_way(kind, instance):
    aid = AgentId(kind, instance)
    return [
        aid,
        AgentId.parse(f"{kind.value}#{instance}"),
        dataclasses.replace(AgentId(kind, instance + 1), instance=instance),
        copy.copy(aid),
        copy.deepcopy(aid),
        pickle.loads(pickle.dumps(aid)),
    ]


def test_agent_id_hash_and_order_agree_however_built():
    ids = [(FunctionKind.SESSION, 1), (FunctionKind.ROUTING, 0), (FunctionKind.SESSION, 0),
           (FunctionKind.ROUTING, 10)]
    for kind, instance in ids:
        same = _built_every_way(kind, instance)
        for a in same:
            assert a == same[0] and hash(a) == hash(same[0])
            assert not a < same[0] and not same[0] < a
            assert {same[0]: "x"}[a] == "x"
    everyone = [a for kind, instance in ids for a in _built_every_way(kind, instance)]
    assert [(a.kind.value, a.instance) for a in sorted(everyone)] == sorted(
        (a.kind.value, a.instance) for a in everyone
    )


def test_agent_id_unpickled_from_another_hash_seed_is_found_as_a_key():
    # enum and str hashes are salted per process, so a pickle that carried the
    # hash computed where it was made would miss every dict lookup here
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    src = str(Path(masdn.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c",
         "import pickle, sys; from masdn.core import AgentId, FunctionKind; "
         "aid = AgentId(FunctionKind.ROUTING, 3); print(hash(aid)); "
         "sys.stdout.write(pickle.dumps(aid).hex())"],
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    )
    their_hash, frame = child.stdout.split("\n")
    here = AgentId(FunctionKind.ROUTING, 3)
    assert int(their_hash) != hash(here)  # the two processes really hash apart
    aid = pickle.loads(bytes.fromhex(frame))
    assert hash(aid) == hash(here)
    assert {here: "found"}[aid] == "found"
    assert aid in {here}


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
