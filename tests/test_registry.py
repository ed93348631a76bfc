"""Lease-table semantics: registration, heartbeats, expiry, discovery.

Everything runs on the pure table functions the orchestrator applies to its
lease table, and descriptors are built the way the orchestrator builds the
lease of every agent it spawns (orchestrator.lease_descriptor).
"""
import random

import pytest

from masdn.core import AgentId, FunctionKind, Message, MessageKind
from masdn.orchestrator import lease_descriptor, orchestrator_decide
from masdn.registry import (
    UnknownLease,
    table_discover,
    table_expire,
    table_heartbeat,
    table_register,
)
from masdn.runtime import AgentInput


def desc(kind=FunctionKind.ROUTING, instance=0, caps=("route",), ttl=10):
    """The descriptor the orchestrator leases an agent with, from its spec.
    A run's TTL is fixed and an agent's one capability is its cognition;
    these tests vary both to probe the table."""
    me = str(AgentId(kind, instance))
    spec = {"agent": me, "cognition": kind.value, "initial_facts": {}}
    return {**lease_descriptor(spec), "capabilities": sorted(caps), "lease_ttl": ttl}


def agents(table, now, **filters):
    return [d["agent"] for d in table_discover(table, now, **filters)]


class TestDescriptorDocs:
    def test_round_trip(self):
        d = desc(caps=("route", "path"))
        orchestrator = AgentId(FunctionKind.ORCHESTRATION, 0)
        src = AgentId(FunctionKind.ROUTING, 0)
        msg = Message(2, src, orchestrator, MessageKind.REQUEST, b"", 5)
        leases = table_register({}, d, now=5)
        found = orchestrator_decide(
            {"leases": leases}, AgentInput(msg, {"op": "discover", "kind": "routing"})
        )
        assert found["responses"][0]["agents"] == [d]

    def test_a_spawned_agent_offers_its_cognition_as_its_capability(self):
        spec = {"agent": "routing#0", "cognition": "routing", "initial_facts": {}}
        assert lease_descriptor(spec)["capabilities"] == ["routing"]
        # no spec carries a capabilities fact, and one that did is not read
        spec["initial_facts"] = {"capabilities": ["zeta", "alpha"]}
        assert lease_descriptor(spec)["capabilities"] == ["routing"]


class TestLifecycle:
    def test_register_is_discoverable_same_tick(self):
        table = table_register({}, desc(), now=5)
        assert agents(table, 5) == ["routing#0"]

    def test_lease_dies_exactly_at_ttl(self):
        table = table_register({}, desc(ttl=10), now=0)
        assert agents(table, 9) == ["routing#0"]
        assert agents(table, 10) == []

    def test_heartbeat_extends_from_now(self):
        table = table_register({}, desc(ttl=10), now=0)
        table = table_heartbeat(table, "routing#0", now=7)
        assert table["routing#0"]["expires_at"] == 17
        assert agents(table, 16) == ["routing#0"]

    def test_heartbeat_after_expiry_raises(self):
        table = table_register({}, desc(ttl=10), now=0)
        with pytest.raises(UnknownLease):
            table_heartbeat(table, "routing#0", now=10)

    def test_heartbeat_for_unregistered_agent_raises(self):
        with pytest.raises(UnknownLease):
            table_heartbeat({}, "qos#3", now=0)

    def test_reregistration_replaces_the_descriptor(self):
        table = table_register({}, desc(caps=("route",)), now=0)
        table = table_register(table, desc(caps=("route", "segment")), now=3)
        (hit,) = table_discover(table, 3)
        assert hit["capabilities"] == ["route", "segment"]

    def test_expire_sweeps_only_dead_leases_sorted(self):
        table = table_register({}, desc(FunctionKind.ROUTING, 1, ttl=5), now=0)
        table = table_register(table, desc(FunctionKind.CLASSIFIER, 0, ttl=5), now=0)
        table = table_register(table, desc(FunctionKind.QOS, 0, ttl=50), now=0)
        table, dead = table_expire(table, now=5)
        assert dead == ["classifier#0", "routing#1"]
        assert sorted(table) == ["qos#0"]

    def test_expire_with_nothing_dead_is_a_no_op(self):
        table = table_register({}, desc(ttl=50), now=0)
        assert table_expire(table, now=5) == (table, [])


class TestDiscoveryFilters:
    def build(self):
        table = {}
        for kind, instance, caps in [(FunctionKind.ROUTING, 0, ("route",)),
                                     (FunctionKind.ROUTING, 1, ("route", "backup")),
                                     (FunctionKind.QOS, 0, ("admit",))]:
            table = table_register(table, desc(kind, instance, caps), now=0)
        return table

    def test_kind_filter(self):
        assert agents(self.build(), 0, kind=FunctionKind.ROUTING) == ["routing#0", "routing#1"]

    def test_capability_filter(self):
        assert agents(self.build(), 0, capability="backup") == ["routing#1"]

    def test_both_filters_and_no_match(self):
        assert agents(self.build(), 0, kind=FunctionKind.QOS, capability="backup") == []

    def test_empty_registry_discovers_nothing(self):
        assert table_discover({}, 0) == []


class TestRandomizedTraceAgainstBruteForce:
    """Replay a random op sequence on the table functions and on a dumb
    model that keeps full history and filters from scratch per discover."""

    AGENTS = [f"routing#{i}" for i in range(4)] + ["qos#0", "classifier#0"]

    def run_trace(self, seed, ops=400):
        rng = random.Random(seed)
        table = {}
        model = {}  # agent -> (ttl, last_refresh)
        for tick in range(ops):
            agent = rng.choice(self.AGENTS)
            op = rng.choice(["register", "heartbeat", "expire", "discover"])
            if op == "register":
                ttl = rng.randint(1, 12)
                doc = {
                    "agent": agent,
                    "capabilities": ["c"],
                    "endpoint": "inproc://x",
                    "lease_ttl": ttl,
                }
                table = table_register(table, doc, tick)
                model[agent] = (ttl, tick)
            elif op == "heartbeat":
                try:
                    table = table_heartbeat(table, agent, tick)
                    renewed = True
                except UnknownLease:
                    renewed = False
                alive = agent in model and model[agent][1] + model[agent][0] > tick
                assert renewed == alive, (seed, tick, agent)
                if alive:
                    model[agent] = (model[agent][0], tick)
            elif op == "expire":
                table, dead = table_expire(table, tick)
                expected = sorted(
                    a for a, (ttl, t0) in model.items() if t0 + ttl <= tick
                )
                assert dead == expected, (seed, tick)
                for a in dead:
                    del model[a]
            else:
                hits = [d["agent"] for d in table_discover(table, tick)]
                expected = sorted(
                    a for a, (ttl, t0) in model.items() if t0 + ttl > tick
                )
                assert hits == expected, (seed, tick)

    def test_ten_seeds(self):
        for seed in range(10):
            self.run_trace(seed)
