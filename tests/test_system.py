"""Whole-system differential checks: agents vs the single-loop reference."""
import itertools
import random
from collections import Counter

import pytest

from masdn import AgentSystem
from masdn.config import broker_ids, parse_config, plan_roster
from masdn.core import AgentId, FunctionKind, MessageKind
from masdn.oracle import MonolithicController, compare, normalize_tables
from masdn.logic import REFRESH_EVERY
from masdn.netsim import LinkDown, PacketIn, SchemaError
from masdn.orchestrator import broker_subs
from masdn.pps import decode_body, encode_body
from masdn.runtime import FactsStore, UnknownCognition, cognition, merge_digest

from helpers import (
    STRATEGIES,
    Fabric,
    build,
    diff_is_empty,
    gen_refresh_tick_scenario,
    gen_scenario,
    gen_topology,
    run_both,
)

TOPO = {
    "switches": ["sw1", "sw2", "sw3", "sw4"],
    "hosts": [
        {"id": "h1", "switch": "sw1"},
        {"id": "h2", "switch": "sw3"},
        {"id": "h3", "switch": "sw4"},
    ],
    "links": [
        {"a": "sw1", "b": "sw2", "capacity": 20, "latency": 1},
        {"a": "sw2", "b": "sw3", "capacity": 20, "latency": 1},
        {"a": "sw3", "b": "sw4", "capacity": 20, "latency": 1},
        {"a": "sw1", "b": "sw4", "capacity": 20, "latency": 4},
    ],
}

ORCH = "orchestration#0"

# the agents that keep the live link state: routing (paths) and session
# (reroute sweeps); qos, forwarding and, when a chain names it, topology
# follow no link event
VIEW_KEEPERS = [AgentId(FunctionKind.ROUTING, 0), AgentId(FunctionKind.SESSION, 0)]
NO_LINK_STATE = [AgentId(k, 0) for k in (FunctionKind.QOS, FunctionKind.FORWARDING,
                                         FunctionKind.TOPOLOGY)]

def _has_cognition(kind):
    try:
        cognition(kind.value)
    except UnknownCognition:
        return False
    return True


# every kind the orchestrator can spawn
SPAWNED_KINDS = sorted(k.value for k in FunctionKind
                       if _has_cognition(k) and k is not FunctionKind.ORCHESTRATION)

FLOWS = [
    {"src": "h1", "dst": "h2", "start_tick": 2, "size": 30, "gap": 1},
    {"src": "h2", "dst": "h3", "start_tick": 4, "size": 12, "gap": 3},
    {"src": "h1", "dst": "h3", "start_tick": 6, "size": 150, "gap": 4},
]


def sdoc(flows=FLOWS, failures=(), duration=40, seed=11):
    return {
        "seed": seed,
        "duration_ticks": duration,
        "flows": list(flows),
        "failures": list(failures),
    }


class TestEquivalence:
    def test_empty_scenario_leaves_empty_tables(self):
        agents, mono, diff, _ = run_both(TOPO, sdoc(flows=[]), {})
        assert diff == {}
        assert normalize_tables(agents["tables"]) == []
        assert normalize_tables(mono["tables"]) == []

    def test_plain_run_matches_reference(self):
        agents, mono, diff, _ = run_both(TOPO, sdoc(), {})
        assert diff == {}
        assert agents["ledger"]  # the run actually set up sessions
        assert len(normalize_tables(agents["tables"])) > 0

    def test_link_failure_reroutes_identically(self):
        agents, mono, diff, _ = run_both(
            TOPO, sdoc(failures=[{"a": "sw2", "b": "sw3", "at": 12}]), {}
        )
        assert diff == {}
        states = {r["state"] for r in agents["ledger"].values()}
        assert "active" in states

    @pytest.mark.parametrize("strategy", ["centralized", "distributed", "hybrid"])
    def test_every_event_strategy_agrees(self, strategy):
        agents, mono, diff, _ = run_both(
            TOPO,
            sdoc(failures=[{"a": "sw2", "b": "sw3", "at": 15}]),
            {"event_strategy": strategy},
        )
        assert diff == {}

    def test_randomized_scenarios_agree(self):
        rng = random.Random(4242)
        for _ in range(3):
            tdoc = gen_topology(rng, rng.randint(5, 9))
            scen = gen_scenario(rng, tdoc, rng.randint(3, 6), rng.randint(0, 1), 40)
            _, _, diff, _ = run_both(tdoc, scen, {})
            assert diff == {}, (tdoc, scen, diff)

    def test_same_seed_runs_are_identical(self):
        first, _, _, _ = run_both(TOPO, sdoc(), {})
        second, _, _, _ = run_both(TOPO, sdoc(), {})
        assert first == second


class TestOnePassGenesis:
    """The orchestrator composes and spawns the whole roster in one decision."""

    def test_genesis_writes_each_roster_fact_once(self):
        topo, scen = build(TOPO, sdoc())
        system = AgentSystem(topo, scen, {"event_strategy": "distributed"})
        system.genesis()
        facts = system.host.agents[AgentId.parse(ORCH)].facts
        written = {key: doc["version"] for key, doc in facts.export(facts.snapshot()).items()}
        assert written == {"config": 1, "topology": 1, "endpoints": 1, "specs": 1}

    def test_brokers_keep_their_spec_facts_and_have_no_mirror_slot(self):
        _, _, diff, system = run_both(TOPO, sdoc(), {"event_strategy": "distributed"})
        assert diff == {}
        mirror = system.host.agents[AgentId.parse(ORCH)].facts.get("mirror")
        specs = system.host.agents[AgentId.parse(ORCH)].facts.get("specs")
        for broker in broker_ids("distributed"):
            assert broker not in mirror
            facts = system.host.agents[AgentId.parse(broker)].facts
            for key, value in specs[broker]["initial_facts"].items():
                assert facts.get(key) == value
                assert facts.export([key])[key]["version"] == 1

    def test_the_orchestrators_id_is_the_memoised_one(self):
        # AgentId.parse gives this very object, so the fabric's and the
        # host's lookups of the orchestrator hit on identity
        system = AgentSystem(*build(TOPO, sdoc()), {})
        assert system.orch is AgentId.parse(ORCH)
        system.genesis()
        assert [a for a in system.host.agents if a == system.orch][0] is system.orch

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_genesis_hops_only_the_bootstrap_and_the_spawn_requests(self, strategy):
        # the brokers' specs hold every subscription, so a spawned agent is
        # sent nothing and subscribes nowhere
        topo, scen = build(TOPO, sdoc())
        system = AgentSystem(topo, scen, {"event_strategy": strategy})
        hops, hop = [], system.bus._hop

        def hop_spy(msg):
            hops.append((str(msg.src), str(msg.dst), decode_body(msg.payload)))
            return hop(msg)

        system.bus._hop = hop_spy
        system.genesis()
        assert hops[0] == (ORCH, ORCH, {"topic": "control.bootstrap", "body": None})
        roster = plan_roster(system.config)
        assert [(src, dst, body["op"], body["spec"]["agent"]) for src, dst, body in hops[1:]] == [
            (ORCH, "host.control", "spawn-agent", agent) for agent in roster
        ]


class TestCompareShape:
    def test_identical_outcomes_diff_empty(self):
        out = {"tables": {"sw1": []}, "ledger": {}}
        assert compare(out, out) == {}

    def test_extra_rule_shows_up_on_one_side(self):
        rule = {
            "rule_id": "r9", "match": {"src": "h1", "dst": "h2"},
            "priority": 20, "action": "deliver", "next_hop": None,
        }
        a = {"tables": {"sw1": [rule]}, "ledger": {}}
        b = {"tables": {"sw1": []}, "ledger": {}}
        diff = compare(a, b)
        assert diff["tables"]["agents_only"] == [["sw1", "h1", "h2", 20, "deliver", None]]
        assert diff["tables"]["monolithic_only"] == []
        assert not diff_is_empty(diff)

    def test_rule_ids_are_not_behavior(self):
        mk = lambda rid: {"tables": {"sw1": [{
            "rule_id": rid, "match": {"src": "h1", "dst": "h2"},
            "priority": 20, "action": "deliver", "next_hop": None,
        }]}, "ledger": {}}
        assert compare(mk("r1"), mk("r999")) == {}


def held_for(system, agent_id):
    """What the orchestrator holds of one live agent's digest keys: its mirror
    slot, over the agent's spec value at version 1 for each digest key the
    spec holds, which the pump never exports."""
    orch = system.host.get(system.orch).facts
    spec = orch.get("specs")[str(agent_id)]["initial_facts"]
    slot = orch.get("mirror", {}).get(str(agent_id), {})
    # the slot holds a spec key only once it has moved past the spec
    assert all(doc["version"] > 1 for key, doc in slot.items() if key in spec), str(agent_id)
    keys = system.host.get(agent_id).impl.digest_keys
    return {**{key: {"value": spec[key], "version": 1} for key in keys if key in spec}, **slot}


class TestDeltaDigests:
    """The digest pump ships deltas of dict-valued keys straight to the
    orchestrator, whose mirror folds them into an exact copy of what every
    agent exports, broker outages included."""

    @pytest.mark.parametrize("kill", ["none", "session", "last-broker"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_mirror_equals_every_live_agents_export_after_each_tick(self, strategy, kill):
        rng = random.Random(3)
        tdoc = gen_topology(rng, 8)
        topo, scen = build(tdoc, gen_scenario(rng, tdoc, 8, 2, 60, long_lived=True))
        brokers = [AgentId.parse(b) for b in broker_ids(strategy)]
        victim = {"none": None, "session": "session#0", "last-broker": str(brokers[-1])}[kill]
        config = {"event_strategy": strategy}
        if victim:
            config["kills"] = {"17": [victim]}
        system = AgentSystem(topo, scen, config)
        Fabric(system.bus, duplicate_every=7)
        system.genesis()
        for t in range(scen.duration):
            system.tick(t)
            for agent_id, agent in system.host.agents.items():
                if agent_id != system.orch:
                    exported = agent.facts.export(agent.impl.digest_keys)
                    assert held_for(system, agent_id) == exported, (t, str(agent_id))
        assert system.bus.duplicates_suppressed > 0
        # the victim is spawned at genesis and once more, after the kill
        spawned = [tick for agent, tick in system.spawn_log if agent == victim]
        assert len(spawned) == (2 if victim else 0)

    @staticmethod
    def spy_digests(system):
        """Record (tick, sender, what the orchestrator held of it, body) of
        each kp.digest the orchestrator is handed, as it is handed it."""
        orch = AgentId.parse(ORCH)
        digests = []
        process_input = system.host.process_input

        def spy(agent_id, msg):
            body = decode_body(msg.payload)
            if agent_id == orch and topic_of(body) == "kp.digest":
                held = held_for(system, msg.src)
                digests.append((system.host.now, str(msg.src), held, body["body"]))
            return process_input(agent_id, msg)

        system.host.process_input = spy
        return digests

    def test_a_replacements_first_digest_is_a_delta_on_its_restored_state(self):
        # the pump keeps what it last exported across a respawn, and that is
        # exactly the mirror slot the replacement is restored from
        rng = random.Random(3)
        tdoc = gen_topology(rng, 8)
        topo, scen = build(tdoc, gen_scenario(rng, tdoc, 8, 2, 60, long_lived=True))
        system = AgentSystem(topo, scen, {"kills": {"17": ["session#0"]}})
        digests = self.spy_digests(system)
        system.run()
        respawned = [t for agent, t in system.spawn_log if agent == "session#0"][1]
        tick, held, keys = next((t, held, keys) for t, src, held, keys in digests
                                if src == "session#0" and t >= respawned)
        deltas = {key: doc for key, doc in keys.items() if "base" in doc}
        assert "sessions" in deltas and held["sessions"]["value"], (tick, sorted(keys))
        for key, doc in deltas.items():
            was = held[key]
            assert doc["base"] == was["version"] != 0, key
            assert all(leaf_at(was["value"], path) != v for path, v in doc["set"]), key
            assert all(leaf_at(was["value"], path) is not MISSING for path in doc["drop"]), key
        assert len(deltas["sessions"]["set"]) < len(held["sessions"]["value"])

    def test_one_link_failure_ships_one_up_leaf_per_view_holder(self):
        rng = random.Random(3)
        tdoc = gen_topology(rng, 8)
        scenario = gen_scenario(rng, tdoc, 8, 1, 60, long_lived=True)
        (failure,) = scenario["failures"]
        system = AgentSystem(*build(tdoc, scenario), {})
        digests = self.spy_digests(system)
        system.run()
        links = system.sim.links_doc()
        (down,) = [i for i, link in enumerate(links) if not link["up"]]
        assert {links[down]["a"], links[down]["b"]} == {failure["a"], failure["b"]}
        views = {}  # tick -> {agent: the topology doc it shipped}
        for tick, src, _held, keys in digests:
            if "topology" in keys:
                views.setdefault(tick, {})[src] = keys["topology"]
        # the failure alone: the genesis view is the spec's, never exported
        assert sorted(views) == [failure["at"]]
        for tick in views:
            assert sorted(views[tick]) == sorted(map(str, VIEW_KEEPERS)), tick
        for agent, doc in views[failure["at"]].items():
            assert (doc["set"], doc["drop"]) == ([[["links", down, "up"], False]], []), agent

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_genesis_digest_carries_a_senders_spec_value(self, strategy):
        # the pump's record starts at the spec, so what an agent's spec gave
        # it, the genesis view of routing and session above all, is never
        # shipped back to the orchestrator, which built it
        rng = random.Random(3)
        tdoc = gen_topology(rng, 8)
        config = {"event_strategy": strategy}
        system = AgentSystem(*build(tdoc, gen_scenario(rng, tdoc, 8, 2, 30)), config)
        digests = self.spy_digests(system)
        system.genesis()
        system.tick(0)
        specs = system.host.get(system.orch).facts.get("specs")
        for _tick, src, _held, keys in digests:
            spec = specs[src]["initial_facts"]
            for key, doc in keys.items():
                if key in spec:
                    value = doc["value"] if "value" in doc else merge_digest(
                        {}, src, {key: doc}, spec)[src][key]["value"]
                    assert value != spec[key], (src, key)

    def test_a_digest_body_is_the_senders_keys_alone(self):
        # the frame's src names the agent, so the body does not
        rng = random.Random(3)
        tdoc = gen_topology(rng, 8)
        system = AgentSystem(*build(tdoc, gen_scenario(rng, tdoc, 8, 1, 30)), {})
        digests = self.spy_digests(system)
        system.run()
        assert digests
        for tick, src, _held, keys in digests:
            assert "agent" not in keys, (tick, src)
            assert set(keys) <= set(system.host.get(AgentId.parse(src)).impl.digest_keys)

    def test_four_hundred_sessions_fit_the_frame_bound(self):
        # Shipped whole, the session agent's tables outgrew max_payload on this
        # run (PayloadTooLarge on a 66,727-byte kp.digest at tick 57).
        rng = random.Random(0)
        tdoc = gen_topology(rng, 30, n_hosts=60)
        sdoc_ = gen_scenario(rng, tdoc, 400, 0, 120)
        agents, _mono, diff, _system = run_both(tdoc, sdoc_, {})
        assert diff == {}
        assert len(agents["ledger"]) > 300

    def test_sixteen_hundred_flows_fit_the_frame_bound(self):
        # With every changed switch slot shipped whole, forwarding#0's
        # switch-rules delta outgrew max_payload on this run (PayloadTooLarge
        # on a 66,177-byte kp.digest at tick 45); leaf deltas stay small.
        rng = random.Random(0)
        tdoc = gen_topology(rng, 30, n_hosts=60)
        topo, scen = build(tdoc, gen_scenario(rng, tdoc, 1600, 0, 100))
        outcome = AgentSystem(topo, scen, {}).run()
        assert len(outcome["ledger"]) > 1200


class TestPumpFollowsWrites:
    """The digest pump visits only the agents that wrote facts since it last
    ran, so a tick in which nothing is written costs it no facts read."""

    def test_a_tick_without_a_facts_write_reads_no_facts(self, monkeypatch):
        rng = random.Random(3)
        tdoc = gen_topology(rng, 8)
        topo, scen = build(tdoc, gen_scenario(rng, tdoc, 8, 2, 60, long_lived=True))
        counts = Counter()

        def spy(name, what):
            original = getattr(FactsStore, name)

            def spied(store, *args, **kwargs):
                counts[what] += 1
                return original(store, *args, **kwargs)

            monkeypatch.setattr(FactsStore, name, spied)

        for name in ("put", "restore"):
            spy(name, "write")
        for name in ("digest", "export"):
            spy(name, "read")
        pump = AgentSystem._pump_digests
        pumps = []  # per tick: facts writes since the last pump began, reads by this pump

        def spied_pump(system):
            wrote, counts["write"] = counts["write"], 0
            pump(system)  # what its own deliveries write counts for the next pump
            pumps.append((wrote, counts["read"]))
            counts["read"] = 0

        monkeypatch.setattr(AgentSystem, "_pump_digests", spied_pump)
        AgentSystem(topo, scen, {}).run()
        quiet = [reads for wrote, reads in pumps if not wrote]
        assert len(pumps) == scen.duration and len(quiet) > scen.duration // 2
        assert quiet == [0] * len(quiet)
        assert any(reads for wrote, reads in pumps if wrote)  # the spy sees the pump read


class TestFaultRecovery:
    def test_killed_agent_is_respawned_and_tables_converge(self):
        flows = [
            {"src": "h1", "dst": "h2", "start_tick": 3, "size": 60, "gap": 1},
            {"src": "h1", "dst": "h3", "start_tick": 5, "size": 60, "gap": 2},
        ]
        doc = sdoc(flows=flows, duration=60)
        baseline, _, diff0, _ = run_both(TOPO, doc, {})
        assert diff0 == {}

        kill_tick = 20
        topo, scen = build(TOPO, doc)
        system = AgentSystem(topo, scen, {"kills": {kill_tick: ["routing#0"]}})
        wounded = system.run()
        assert normalize_tables(wounded["tables"]) == normalize_tables(baseline["tables"])

        respawns = [t for a, t in system.spawn_log if a == "routing#0"]
        assert len(respawns) == 2  # bootstrap spawn + replacement
        assert respawns[1] <= kill_tick + 16

    def test_killed_broker_is_replaced_first(self):
        doc = sdoc(duration=60)
        topo, scen = build(TOPO, doc)
        system = AgentSystem(topo, scen, {"kills": {20: ["event-distribution#0"]}})
        system.run()
        respawns = [t for a, t in system.spawn_log if a == "event-distribution#0"]
        assert len(respawns) == 2
        assert AgentId(FunctionKind.EVENT_DISTRIBUTION, 0) in system.host.agents


class TestOneTopologyView:
    def test_every_view_holds_the_simulators_links_after_each_tick(self):
        # a failure with everyone live, and a second failure in the tick
        # routing#0 is dead at: its replacement, spawned in that tick, gets
        # that link event from the frames parked for it
        failures = [{"a": "sw3", "b": "sw4", "at": 5}, {"a": "sw2", "b": "sw3", "at": 14}]
        topo, scen = build(TOPO, sdoc(failures=failures, duration=40))
        system = AgentSystem(topo, scen, {"kills": {13: ["routing#0"]}})
        system.genesis()
        agents = system.host.agents
        for t in range(scen.duration):
            system.tick(t)
            links = system.sim.links_doc()
            for holder in VIEW_KEEPERS:
                if holder in agents:
                    assert agents[holder].facts.get("topology")["links"] == links, (t, str(holder))
        down = {(l["a"], l["b"]) for l in links if not l["up"]}
        assert down == {("sw2", "sw3"), ("sw3", "sw4")}
        ((_, respawned),) = [e for e in system.spawn_log if e[0] == "routing#0"][1:]
        assert respawned == 14

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_link_event_or_view_digest_reaches_or_leaves_the_other_agents(self, strategy):
        # qos reads only capacities, forwarding only the switch list and the
        # topology agent, composed here through the chain, nothing: no link
        # event changes what they read, so no broker lists them, and they
        # keep and export no view
        config = {"event_strategy": strategy, "chain": ["session", "topology"]}
        tables = broker_subs(strategy, plan_roster(parse_config(config, None)))
        listed = {agent for table in tables.values() for group in table.values()
                  for agent in group}
        assert not listed & set(map(str, NO_LINK_STATE)), strategy
        failures = [{"a": "sw2", "b": "sw3", "at": 12}]
        topo, scen = build(TOPO, sdoc(failures=failures, duration=30))
        system = AgentSystem(topo, scen, config)
        links, views = [], []  # which non-broker got events.link; who shipped a view
        process_input = system.host.process_input

        def spy(agent_id, msg):
            body = decode_body(msg.payload)
            topic = topic_of(body)
            if topic == "events.link" and agent_id.kind is not FunctionKind.EVENT_DISTRIBUTION:
                links.append(agent_id)
            elif topic == "kp.digest" and "topology" in body["body"]:
                views.append(msg.src)
            return process_input(agent_id, msg)

        system.host.process_input = spy
        system.run()
        assert sorted(set(links)) == sorted(VIEW_KEEPERS)
        assert sorted(set(views)) == sorted(VIEW_KEEPERS)
        specs = system.host.get(AgentId.parse(ORCH)).facts.get("specs")
        assert "topology" not in specs["topology#0"]["initial_facts"]
        for agent in NO_LINK_STATE:
            assert "topology" not in system.host.get(agent).impl.digest_keys, str(agent)

    @pytest.mark.parametrize("kill", ["none", "session", "last-broker-and-routing"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_live_view_holds_the_simulators_links_while_all_brokers_live(
        self, strategy, kill
    ):
        # Nothing is left for a full link-state refresh to repair: links only
        # go down, each events.link reaches every holder, and parking replays
        # it to a replacement. The orchestrator's genesis view is no holder.
        # Agents homed on a dead broker lag until its replacement replays
        # their frames, so ticks with a dead broker are not checked. The
        # kill falls the tick before the first link failure, whose link
        # event is parked for the victims and replayed.
        rng = random.Random(3)
        tdoc = gen_topology(rng, 8)
        topo, scen = build(tdoc, gen_scenario(rng, tdoc, 8, 2, 60, long_lived=True))
        brokers = [AgentId.parse(b) for b in broker_ids(strategy)]
        victims = {
            "none": [],
            "session": ["session#0"],
            "last-broker-and-routing": [str(brokers[-1]), "routing#0"],
        }[kill]
        assert scen.failures[0].at == 21
        system = AgentSystem(topo, scen, {"event_strategy": strategy, "kills": {"20": victims}})
        system.genesis()
        agents = system.host.agents
        holders = VIEW_KEEPERS
        missing = set()  # ticks that began with a victim dead
        for t in range(scen.duration):
            if any(AgentId.parse(v) not in agents for v in victims):
                missing.add(t)
            system.tick(t)
            links = system.sim.links_doc()
            if not all(b in agents for b in brokers):
                continue
            stale = [str(h) for h in holders
                     if h in agents and agents[h].facts.get("topology")["links"] != links]
            assert stale == [], t
        assert len([l for l in links if not l["up"]]) == 2
        # the victims were replaced, and a link went down while one was dead
        respawned = system.spawn_log[len(plan_roster(system.config)):]
        assert sorted(agent for agent, _t in respawned) == sorted(victims)
        assert bool(missing & {f.at for f in scen.failures}) is bool(victims)


def hybrid_run():
    """A steady 30-tick hybrid run, and (tick, src, dst, topic) of every frame
    an agent was handed in it: no kills, so every frame reaches a live agent."""
    topo, scen = build(TOPO, sdoc(duration=30))
    system = AgentSystem(topo, scen, {"event_strategy": "hybrid"})
    frames = []
    process_input = system.host.process_input

    def spy(agent_id, msg):
        topic = topic_of(decode_body(msg.payload))
        frames.append((system.host.now, str(msg.src), str(msg.dst), topic))
        return process_input(agent_id, msg)

    system.host.process_input = spy
    system.run()
    return system, frames


class TestEventPlaneTraffic:
    def test_brokers_ship_no_digest(self):
        # a broker's subs and peers come from its spec, and it keeps no
        # per-publisher state: it learns nothing to export
        _system, frames = hybrid_run()
        assert [f for f in frames if f[3] == "kp.digest"]
        assert not [f for f in frames
                    if f[3] == "kp.digest" and f[1].startswith("event-distribution#")]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_broker_delivers_the_publish_byte_for_byte(self, strategy):
        # the envelope is the publish itself: every frame a broker sends a
        # subscriber carries a payload that was published on its topic
        topo, scen = build(TOPO, sdoc(failures=[{"a": "sw2", "b": "sw3", "at": 12}],
                                      duration=30))
        config = {"event_strategy": strategy}
        system = AgentSystem(topo, scen, config)
        brokers = {AgentId.parse(b) for b in broker_ids(strategy)}
        subscribers = {AgentId.parse(agent)
                       for table in broker_subs(strategy, plan_roster(system.config)).values()
                       for group in table.values() for agent in group}
        published, delivered = {}, []
        hop = system.bus._hop

        def hop_spy(msg):
            if not isinstance(msg.dst, AgentId):
                published.setdefault(msg.dst, set()).add(msg.payload)
            elif msg.src in brokers and msg.dst in subscribers:
                delivered.append(msg.payload)
            return hop(msg)

        system.bus._hop = hop_spy
        system.run()
        topics = [topic_of(decode_body(payload)) for payload in delivered]
        # the tick comes to every agent straight from the bridge, never
        # through a broker
        assert {"events.packet_in", "events.link"} <= set(topics)
        assert "events.tick" not in topics
        assert [p for p, topic in zip(delivered, topics)
                if p not in published.get(topic, ())] == []

    def test_no_frame_carries_link_stats(self):
        # the simulator yields link stats on every tick; they stay with the system
        system, frames = hybrid_run()
        assert [stats.tick for stats in system.stats] == list(range(30))
        assert frames
        assert not [f for f in frames if f[2] == "events.stats"]


def spied_run(config, duration=30, flows=FLOWS):
    """A run of TOPO that records (src, dst, tick, body) of every frame
    the fabric hops and (agent, body) of every input an agent is handed."""
    topo, scen = build(TOPO, sdoc(flows=flows, duration=duration))
    system = AgentSystem(topo, scen, config)
    hops, inputs = [], []
    hop, process_input = system.bus._hop, system.host.process_input

    def hop_spy(msg):
        hops.append((str(msg.src), str(msg.dst), system.host.now, decode_body(msg.payload)))
        return hop(msg)

    def input_spy(agent_id, msg):
        inputs.append((str(agent_id), decode_body(msg.payload)))
        return process_input(agent_id, msg)

    system.bus._hop = hop_spy
    system.host.process_input = input_spy
    system.run()
    return system, hops, inputs


MISSING = object()


def leaf_at(value, path):
    """What a digest path reaches in a mirror value, or MISSING."""
    for sub in path:
        try:
            value = value[sub]
        except (KeyError, IndexError, TypeError):
            return MISSING
    return value


def topic_of(body):
    return body.get("topic") if isinstance(body, dict) else None


class TestExitNotices:
    """The host is the one failure detector. Each kill after tick t reaches
    the orchestrator as one body-less agent.down from the victim at tick
    t + 1, once that tick's data-plane batch has run to quiescence, and the
    victim is respawned in that tick. No agent beats, and nobody registers."""

    KILLS = {"0": ["qos#0"], "9": ["session#0"], "28": ["forwarding#0"]}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_each_kill_sends_one_notice_and_no_frame_is_a_beat(self, strategy):
        broker = broker_ids(strategy)[-1]
        kills = {**self.KILLS, "17": ["routing#0", broker]}
        system, hops, inputs = spied_run({"event_strategy": strategy, "kills": kills})
        notices = [(src, dst, at, body) for src, dst, at, body in hops
                   if topic_of(body) == "agent.down"]
        # from each victim straight to the orchestrator, in AgentId order
        assert [(src, dst, at) for src, dst, at, _body in notices] == [
            ("qos#0", ORCH, 1), ("session#0", ORCH, 10), (broker, ORCH, 18),
            ("routing#0", ORCH, 18), ("forwarding#0", ORCH, 29),
        ]
        assert {encode_body(body) for *_, body in notices} == {b'{"topic":"agent.down"}'}
        assert [a for a, body in inputs if topic_of(body) == "agent.down"] == [ORCH] * 5
        assert not [h for h in hops if topic_of(h[3]) == "hb"]
        assert not [b for _agent, b in inputs if isinstance(b, dict) and b.get("op")
                    in ("register", "discover")]
        # every digest goes there too, from the agent whose keys it carries
        digests = [(src, dst, b["body"]) for src, dst, _at, b in hops if topic_of(b) == "kp.digest"]
        assert {dst for _src, dst, _digest in digests} == {ORCH}
        assert {src for src, _dst, _digest in digests} <= set(plan_roster(system.config))
        assert [agent for agent, b in inputs if topic_of(b) == "kp.digest"] == [ORCH] * len(digests)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_kill_after_tick_t_is_respawned_at_t_plus_one_and_changes_no_outcome(self, strategy):
        broker = broker_ids(strategy)[-1]
        config = {"event_strategy": strategy, "kills": {**self.KILLS, "17": [broker, "routing#0"]}}
        topo, scen = build(TOPO, sdoc(duration=30))
        system = AgentSystem(topo, scen, config)
        agents = system.run()
        roster = plan_roster(system.config)
        assert system.spawn_log[len(roster):] == [
            ("qos#0", 1), ("session#0", 10), (broker, 18), ("routing#0", 18), ("forwarding#0", 29),
        ]
        assert compare(agents, MonolithicController(topo, scen, config).run()) == {}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_the_victims_frames_of_the_data_plane_batch_are_replayed_to_its_replacement_first(
        self, strategy
    ):
        # FLOWS[0] starts at tick 2, so its packet-in reaches the session
        # agent killed after tick 1 in tick 2's data-plane batch: the frame
        # is parked, made before the notice, and handed to the replacement
        # before anything else
        topo, scen = build(TOPO, sdoc(duration=10))
        system = AgentSystem(topo, scen, {"event_strategy": strategy, "kills": {"1": ["session#0"]}})
        inputs = []
        process_input = system.host.process_input

        def spy(agent_id, msg):
            inputs.append((system.host.now, str(agent_id), msg.msg_id, topic_of(decode_body(msg.payload))))
            return process_input(agent_id, msg)

        system.host.process_input = spy
        system.run()
        after = [i for i in inputs if i[0] == 2]
        (notice,) = [i for i in after if i[3] == "agent.down"]
        first = [i for i in after if i[1] == "session#0"][0]
        assert first[3] == "events.packet_in"
        assert first[2] < notice[2]  # sent before the notice, so it was parked
        assert after.index(notice) < after.index(first)
        assert [i for i in inputs if i[0] < 2 and i[1] == "session#0" and i[3] == "events.packet_in"] == []

    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_duplicated_notice_respawns_nobody_twice(self, strategy, every):
        broker = broker_ids(strategy)[-1]
        config = {"event_strategy": strategy, "kills": {**self.KILLS, "17": [broker, "routing#0"]}}
        topo, scen = build(TOPO, sdoc(duration=30))
        system = AgentSystem(topo, scen, config)
        Fabric(system.bus, duplicate_every=every)
        agents = system.run()
        assert system.bus.duplicates_suppressed > 0
        assert system.spawn_log[len(plan_roster(system.config)):] == [
            ("qos#0", 1), ("session#0", 10), (broker, 18), ("routing#0", 18), ("forwarding#0", 29),
        ]
        assert compare(agents, MonolithicController(topo, scen, config).run()) == {}

    @pytest.mark.parametrize("kind", SPAWNED_KINDS)
    def test_a_replacement_of_each_kind_holds_what_its_victim_held(self, kind):
        # a kill lands after the pump, so the victim's spec and mirror slot
        # are all it held: its replacement, spawned on the notice, holds the
        # same facts before it is handed anything, whatever its kind
        rng = random.Random(3)
        tdoc = gen_topology(rng, 8)
        topo, scen = build(tdoc, gen_scenario(rng, tdoc, 8, 2, 40, long_lived=True))
        victim = f"{kind}#0"
        chain = ["session"] if victim in plan_roster(parse_config({}, None)) else ["session", kind]
        config = {"event_strategy": "hybrid", "chain": chain, "kills": {"20": [victim]}}
        system = AgentSystem(topo, scen, config)
        held, restored = {}, {}
        kill, spawn = system.host.kill_agent, system._spawn

        def kill_spy(agent_id):
            held[str(agent_id)] = system.host.get(agent_id).facts.snapshot()
            return kill(agent_id)

        def spawn_spy(body):
            out = spawn(body)
            agent = body["spec"]["agent"]
            if agent in held:
                restored[agent] = system.host.get(AgentId.parse(agent)).facts.snapshot()
            return out

        system.host.kill_agent, system._spawn = kill_spy, spawn_spy
        agents = system.run()
        assert system.spawn_log[len(plan_roster(system.config)):] == [(victim, 21)]
        assert victim in restored
        # the session agent's pending table is not digested, and it is empty
        # at every kill, so an empty one counts as absent
        for facts in (*held.values(), *restored.values()):
            if facts.get("pending") == {}:
                del facts["pending"]
        assert restored == held
        assert compare(agents, MonolithicController(topo, scen, config).run()) == {}


class TestEveryKillTick:
    """Whichever tick an agent dies after, from the first to the run's
    second-to-last, it is back at the next tick, and the mirror stays an
    exact copy of every live agent's export after every tick."""

    @pytest.mark.parametrize("kill", ["forwarding", "routing", "broker-and-session"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_each_victim_is_back_on_the_tick_after_each_of_its_kills(self, strategy, kill):
        rng = random.Random(3)
        tdoc = gen_topology(rng, 8)
        topo, scen = build(tdoc, gen_scenario(rng, tdoc, 8, 2, 60, long_lived=True))
        victims = {
            "forwarding": ["forwarding#0"],
            "routing": ["routing#0"],
            "broker-and-session": [broker_ids(strategy)[-1], "session#0"],
        }[kill]
        at = [*range(0, scen.duration - 2, 7), scen.duration - 2]
        config = {"event_strategy": strategy, "kills": {str(t): victims for t in at}}
        system = AgentSystem(topo, scen, config)
        system.genesis()
        agents = system.host.agents
        orch = system.host.get(system.orch)
        for t in range(scen.duration):
            system.tick(t)
            for agent_id, agent in agents.items():
                if agent is not orch:
                    assert held_for(system, agent_id) == agent.facts.export(
                        agent.impl.digest_keys), (t, str(agent_id))
            dead = sorted(v for v in victims if AgentId.parse(v) not in agents)
            assert dead == (sorted(victims) if t in at else []), t
        order = [str(a) for a in sorted(map(AgentId.parse, victims))]
        assert system.spawn_log[len(plan_roster(system.config)):] == [
            (agent, t + 1) for t in at for agent in order
        ]
        assert compare(system.outcome(), MonolithicController(topo, scen, config).run()) == {}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_conversation_is_in_flight_at_a_pump_and_the_mirror_keeps_no_pending(self, strategy):
        # every conversation ends in the quiescence run that starts it, and a
        # kill lands after the pump, so the session agent's pending table is
        # empty at every pump: it is not a digest key, and no slot holds it
        rng = random.Random(3)
        tdoc = gen_topology(rng, 8)
        topo, scen = build(tdoc, gen_scenario(rng, tdoc, 8, 2, 60, long_lived=True))
        broker = broker_ids(strategy)[-1]
        kills = {"9": ["session#0"], "20": ["qos#0"], "31": [broker, "session#0"]}
        system = AgentSystem(topo, scen, {"event_strategy": strategy, "kills": kills})
        pump, pumped = system._pump_digests, []

        def pump_spy():
            pumped.append(system.host.get(system.session).facts.get("pending", {}))
            pump()

        system._pump_digests = pump_spy
        system.genesis()
        orch = system.host.get(system.orch).facts
        for t in range(scen.duration):
            system.tick(t)
            assert pumped[t] == {}, t
            assert "pending" not in orch.get("mirror", {}).get("session#0", {}), t
        assert [a for a, _t in system.spawn_log].count("session#0") == 3
        assert compare(system.outcome(), MonolithicController(topo, scen, system.config).run()) == {}


class TestTheOrchestratorsTraffic:
    """After genesis the orchestrator is handed digests and exit notices
    alone, each straight from the agent it speaks for, and it sends nothing
    but spawn requests: no liveness traffic reaches or leaves it."""

    KILLS = {"3": ["session#0"], "17": ["routing#0", "qos#0"]}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_the_orchestrator_sends_only_spawn_requests_and_nothing_to_itself(self, strategy):
        broker = broker_ids(strategy)[-1]
        kills = {**self.KILLS, "9": [broker]}
        system, hops, _inputs = spied_run({"event_strategy": strategy, "kills": kills})
        sent = [(dst, body) for src, dst, _at, body in hops if src == ORCH]
        # genesis hands the orchestrator its own bootstrap; nothing else it
        # sends comes back to it, directly or through a broker
        assert sent[0] == (ORCH, {"topic": "control.bootstrap", "body": None})
        assert {(dst, body["op"]) for dst, body in sent[1:]} == {("host.control", "spawn-agent")}
        roster = plan_roster(system.config)
        spawned = [body["spec"]["agent"] for _dst, body in sent[1:]]
        assert spawned == roster + ["session#0", broker, "qos#0", "routing#0"]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_the_orchestrator_is_handed_its_bootstrap_the_digests_and_the_notices_alone(
        self, strategy
    ):
        broker = broker_ids(strategy)[-1]
        kills = {**self.KILLS, "9": [broker]}
        system, hops, inputs = spied_run({"event_strategy": strategy, "kills": kills})
        handed = Counter(topic_of(body) for agent, body in inputs if agent == ORCH)
        assert handed["control.bootstrap"] == 1 and handed["kp.digest"] > 0
        assert handed["agent.down"] == 4
        assert set(handed) == {"control.bootstrap", "kp.digest", "agent.down"}
        to_orch = [(src, topic_of(body)) for src, dst, _at, body in hops if dst == ORCH]
        assert len(to_orch) == sum(handed.values())
        # a broker sends it only its own exit notice: nothing is relayed
        brokers = set(broker_ids(strategy))
        assert [(src, topic) for src, topic in to_orch if src in brokers] == [(broker, "agent.down")]
        assert {src for src, topic in to_orch if topic == "agent.down"} == {
            "session#0", broker, "routing#0", "qos#0"}


class TestTicksOnlyWhereRead:
    """The bridge hands events.tick to the session agent alone, straight from
    switch-adapter#0 and only on REFRESH_EVERY-th ticks, where it sweeps; in
    a proactive run too, as a declared flow is announced as its own event.
    No broker carries a tick, and no other agent reads one."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("proactive", [False, True])
    def test_only_the_session_agent_gets_a_tick_and_only_on_refresh_ticks(self, strategy, proactive):
        system, hops, inputs = spied_run({"event_strategy": strategy, "proactive": proactive})
        refresh = range(0, 30, REFRESH_EVERY)
        ticks = [(src, dst, at) for src, dst, at, body in hops if topic_of(body) == "events.tick"]
        assert ticks == [("switch-adapter#0", "session#0", t) for t in refresh]
        got = [agent for agent, body in inputs if topic_of(body) == "events.tick"]
        assert got == ["session#0"] * len(refresh)
        for broker in broker_ids(strategy):
            assert "events.tick" not in system.host.get(AgentId.parse(broker)).facts.get("subs")


class TestTheSessionsTick:
    """The session agent's tick follows the tick's data-plane batch and the
    exit notices, so a session agent killed the tick before a refresh tick
    is back in time for that tick's sweep, as the oracle sweeps."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_session_agent_killed_before_a_refresh_tick_sweeps_on_it(self, strategy):
        swept = 0
        for seed in range(6):
            tdoc, doc = gen_refresh_tick_scenario(seed)
            topo, scen = build(tdoc, doc)
            kills = {str(t - 1): ["session#0"] for t in range(REFRESH_EVERY, 50, REFRESH_EVERY)}
            # a tight cap denies realtime sessions, which each sweep retries
            config = {"event_strategy": strategy, "kills": kills, "qos_cap_permille": 200}
            system = AgentSystem(topo, scen, config)
            handed = []
            process_input = system.host.process_input

            def spy(agent_id, msg):
                out = process_input(agent_id, msg)
                if str(agent_id) == "session#0" and topic_of(decode_body(msg.payload)) == "events.tick":
                    handed.append((system.host.now, len(out)))
                return out

            system.host.process_input = spy
            agents = system.run()
            respawned = [t for a, t in system.spawn_log if a == "session#0"][1:]
            assert respawned == list(range(REFRESH_EVERY, 50, REFRESH_EVERY)), seed
            assert [t for t, _ in handed] == list(range(0, scen.duration, REFRESH_EVERY)), seed
            assert compare(agents, MonolithicController(topo, scen, config).run()) == {}, seed
            swept += sum(asks for t, asks in handed if t in respawned)
        assert swept  # some replacement's sweep asked for a repair

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_the_session_agents_tick_follows_the_ticks_link_events_and_packet_ins(
        self, strategy
    ):
        crowded = 0
        for seed in range(20):
            topo, scen = build(*gen_refresh_tick_scenario(seed))
            system = AgentSystem(topo, scen, {"event_strategy": strategy,
                                              "qos_cap_permille": 200})
            seen = {}
            process_input = system.host.process_input

            def input_spy(agent_id, msg):
                if str(agent_id) == "session#0":
                    seen.setdefault(system.host.now, []).append(
                        topic_of(decode_body(msg.payload)))
                return process_input(agent_id, msg)

            system.host.process_input = input_spy
            system.run()
            for t, topics in seen.items():
                if "events.tick" in topics:
                    tick_at = topics.index("events.tick")
                    events = [i for i, topic in enumerate(topics)
                              if topic in ("events.link", "events.packet_in")]
                    assert all(i < tick_at for i in events), (seed, t, topics)
                    crowded += bool(events)
        assert crowded  # refresh ticks with link events or packet-ins were checked


class TestDeclaredFlowsAreEvents:
    """In a proactive run the bridge announces each declared flow as one
    events.flow, on the tick before its (jittered) start; only the session
    agent reads it, and no spec carries the schedule."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", range(2))
    def test_each_declared_flow_reaches_the_session_agent_once_ahead_of_its_start(
        self, strategy, seed
    ):
        rng = random.Random(seed)
        tdoc = gen_topology(rng, 8)
        doc = {**gen_scenario(rng, tdoc, 8, 2, 60), "jitter": 2}
        topo, scen = build(tdoc, doc)
        system = AgentSystem(topo, scen, {"event_strategy": strategy, "proactive": True})
        got = Counter()
        process_input = system.host.process_input

        def input_spy(agent_id, msg):
            body = decode_body(msg.payload)
            if topic_of(body) == "events.flow" and (
                agent_id.kind is not FunctionKind.EVENT_DISTRIBUTION
            ):
                got[str(agent_id), system.host.now, *sorted(body["body"].items())] += 1
            return process_input(agent_id, msg)

        system.host.process_input = input_spy
        system.run()
        schedule = system.sim.schedule()
        declared = [f["start_tick"] for f in doc["flows"]]
        assert [f["start_tick"] for f in schedule] != declared  # jitter ran
        want = Counter()
        for f in schedule:
            at = f["start_tick"] - 1
            if at >= 0:
                body = {"src": f["src"], "dst": f["dst"], "at": at, "size": f["size"],
                        "gap": f["gap"], "hint": f["class"]}
                want["session#0", at, *sorted(body.items())] += 1
        assert want and got == want

    def test_a_long_schedule_leaves_genesis_and_the_session_spec_as_they_are(self):
        # With the schedule in the session spec, genesis raised PayloadTooLarge
        # on this run's 122,883-byte spawn-agent.
        def session_spec(n_flows):
            rng = random.Random(0)
            tdoc = gen_topology(rng, 30, n_hosts=60)
            topo, scen = build(tdoc, gen_scenario(rng, tdoc, n_flows, 0, 240))
            system = AgentSystem(topo, scen, {"proactive": True})
            system.genesis()
            return system.host.get(system.orch).facts.get("specs")["session#0"]

        assert len(encode_body(session_spec(1600))) == len(encode_body(session_spec(10)))


class TestQuietTicks:
    """A steady run costs nothing on a tick that has no link failure,
    packet-in, flow announce or refresh: no frame hops and no agent is handed
    an input, as no liveness traffic exists. A refresh tick with nothing to
    repair hops one frame, the session agent's tick. This is the run's hop
    budget, so that no per-tick traffic creeps back."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("proactive", [False, True])
    def test_a_quiet_tick_hops_no_frame_and_hands_no_input(self, strategy, proactive):
        topo, scen = build(TOPO, sdoc(duration=60))
        system = AgentSystem(topo, scen, {"event_strategy": strategy, "proactive": proactive})
        events, hops, inputs = {}, Counter(), Counter()
        step, hop, process_input = system.sim.step, system.bus._hop, system.host.process_input

        def step_spy(t):
            events[t] = step(t)
            return events[t]

        def hop_spy(msg):
            hops[system.host.now] += 1
            return hop(msg)

        def input_spy(agent_id, msg):
            inputs[system.host.now] += 1
            return process_input(agent_id, msg)

        system.sim.step, system.bus._hop, system.host.process_input = step_spy, hop_spy, input_spy
        system.run()
        # tick 0's pump ships the genesis exports
        busy = {0, *system._announced}
        busy |= {t for t, evs in events.items() if [e for e in evs if isinstance(e, (LinkDown, PacketIn))]}
        quiet = [t for t in events if t not in busy and t % REFRESH_EVERY]
        refresh = [t for t in events if t not in busy and not t % REFRESH_EVERY]
        assert len(quiet) > scen.duration // 2 and refresh
        assert {t: (hops[t], inputs[t]) for t in quiet if hops[t] or inputs[t]} == {}
        assert {t: (hops[t], inputs[t]) for t in refresh} == {t: (1, 1) for t in refresh}
        assert hops and inputs  # the spies see the ticks that do move frames


class TestPolicyEnforcement:
    CAP = 2

    def config(self):
        return {
            "policies": [{
                "policy_id": "rule-cap",
                "issuer_level": "network",
                "scope": ["forwarding"],
                "rules": [{
                    "action_kind": "install-rule",
                    "target_class": "switch",
                    "effect": "deny",
                    "max_per_target": self.CAP,
                }],
            }]
        }

    # four distinct host pairs whose shortest paths all cross sw1, so a
    # two-rule cap there must deny the later sessions
    PRESSURE = [
        {"src": "h1", "dst": "h2", "start_tick": 2, "size": 40, "gap": 1},
        {"src": "h1", "dst": "h3", "start_tick": 4, "size": 40, "gap": 1},
        {"src": "h2", "dst": "h1", "start_tick": 6, "size": 40, "gap": 1},
        {"src": "h3", "dst": "h1", "start_tick": 8, "size": 40, "gap": 1},
    ]

    def test_cap_is_never_exceeded_and_violations_are_logged(self):
        flows = self.PRESSURE
        entries = []
        topo, scen = build(TOPO, sdoc(flows=flows, duration=40))
        system = AgentSystem(topo, scen, self.config(), log_sink=entries.append)
        out = system.run()
        for switch, docs in out["tables"].items():
            assert len(docs) <= self.CAP, (switch, docs)
        violations = [
            e for e in entries
            if e.get("stage") == "output" and
            any(dst == "events.violation" for _, dst in e.get("emitted", []))
        ]
        assert violations, "cap pressure must surface as violation events"

    def test_policies_ride_in_the_spec_not_the_mirror(self):
        topo, scen = build(TOPO, sdoc(duration=3))
        system = AgentSystem(topo, scen, self.config())
        system.run()
        orch = system.host.get(system.orch).facts
        (policy,) = orch.get("specs")["forwarding#0"]["initial_facts"]["policies"]
        assert policy == self.config()["policies"][0]
        forwarding = system.host.get(AgentId(FunctionKind.FORWARDING, 0)).facts
        assert forwarding.get("policies") == [policy]
        mirror = orch.get("mirror")
        assert "session#0" in mirror
        assert all("policies" not in keys and "schedule" not in keys
                   for keys in mirror.values())

    def test_two_caps_bind_both_controllers_in_config_order(self):
        # a cap of 2 listed before a looser cap of 3, on criterion 6's hub:
        # every session crosses the hub, one new flow on each even tick
        def cap(policy_id, bound):
            doc = self.config()["policies"][0]
            rules = [dict(doc["rules"][0], max_per_target=bound)]
            return dict(doc, policy_id=policy_id, rules=rules)

        leaves = [f"leaf{i}" for i in range(1, 6)]
        tdoc = {
            "switches": ["hub", *leaves],
            "hosts": [{"id": f"h{i}", "switch": leaf} for i, leaf in enumerate(leaves, 1)],
            "links": [{"a": "hub", "b": leaf, "capacity": 50, "latency": 1} for leaf in leaves],
        }
        pairs = list(itertools.permutations([h["id"] for h in tdoc["hosts"]], 2))
        config = {"policies": [cap("b", 2), cap("a", 3)]}
        for seed in range(3):
            rng = random.Random(61_000 + seed)
            flows = [
                {"src": src, "dst": dst, "start_tick": 2 + 2 * k, "size": 200, "gap": 2}
                for k, (src, dst) in enumerate(rng.sample(pairs, 8))
            ]
            agents, _, diff, _ = run_both(tdoc, sdoc(flows=flows, seed=seed), config)
            assert diff == {}, seed
            assert max(len(docs) for docs in agents["tables"].values()) <= 2, seed

    def test_reference_controller_applies_the_same_policy(self):
        _, mono, diff, _ = run_both(
            TOPO, sdoc(flows=self.PRESSURE, duration=40), self.config()
        )
        assert diff == {}
        unroutable = [r for r in mono["ledger"].values() if r["state"] == "unroutable"]
        assert unroutable  # the denied sessions are visible in the ledger


class TestInstallCarriesThePath:
    """An install or remove names the path, its hosts and its class, not the
    rules: forwarding derives them as the monolith does. The session agent
    still numbers the rules, a policy-denied install's included, as the
    oracle numbers its own."""

    CAP = {
        "policy_id": "switch-rule-cap",
        "issuer_level": "network",
        "scope": ["forwarding"],
        "rules": [{"action_kind": "install-rule", "target_class": "switch",
                   "effect": "deny", "max_per_target": 3}],
    }

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_request_carries_rules_and_each_install_numbers_on_from_the_last(self, strategy):
        rng = random.Random(0)
        tdoc = gen_topology(rng, 6)
        sdoc = gen_scenario(rng, tdoc, 10, 2, 60, long_lived=True)
        config = {"event_strategy": strategy, "policies": [self.CAP]}
        topo, scen = build(tdoc, sdoc)
        system = AgentSystem(topo, scen, dict(config))
        requests = []
        hop = system.bus._hop

        def hop_spy(msg):
            if msg.kind is MessageKind.REQUEST:
                requests.append(decode_body(msg.payload))
            return hop(msg)

        system.bus._hop = hop_spy
        agents = system.run()
        assert compare(agents, MonolithicController(topo, scen, dict(config)).run()) == {}
        assert not any("rules" in body for body in requests)
        installs = [body for body in requests if body.get("op") == "install"]
        assert [body["first"] for body in installs] == list(
            itertools.accumulate([1] + [len(body["path"]) for body in installs[:-1]])
        )
        # the run holds a denied install and a reroute's remove
        denied = [sid for sid, rec in agents["ledger"].items() if rec["reason"] == "policy-denied"]
        assert denied and set(denied) <= {body["ctx"] for body in installs}
        assert any(body.get("op") == "remove" for body in requests)


class TestProactiveMode:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_proactive_setup_under_start_jitter_matches_reference(self, strategy, seed):
        # the published lead ticks follow the jittered schedule, which both
        # controllers read from the simulator
        rng = random.Random(seed)
        tdoc = gen_topology(rng, 8)
        doc = {**gen_scenario(rng, tdoc, 8, 2, 60), "jitter": 2}
        agents, _mono, diff, system = run_both(
            tdoc, doc, {"event_strategy": strategy, "proactive": True}
        )
        assert diff == {}
        assert agents["ledger"]
        declared = [f["start_tick"] for f in doc["flows"]]
        assert [f["start_tick"] for f in system.sim.schedule()] != declared  # jitter ran

    def test_declared_schedule_cuts_setup_latency(self):
        flows = [
            {"src": "h1", "dst": "h2", "start_tick": 6 + 2 * i, "size": 20, "gap": 2}
            for i in range(4)
        ]
        doc = sdoc(flows=flows, duration=40)
        reactive, _, diff_r, _ = run_both(TOPO, doc, {})
        proactive, _, diff_p, _ = run_both(TOPO, doc, {"proactive": True})
        assert diff_r == {} and diff_p == {}
        assert (
            proactive["metrics"]["mean_setup_latency"]
            < reactive["metrics"]["mean_setup_latency"]
        )

    def test_a_schedule_in_the_config_is_refused(self):
        # both controllers derive the schedule from the simulator's flows: a
        # config that names one, even an empty one, is refused by both
        # rather than run as if it said something
        topo, scen = build(TOPO, sdoc(duration=40))
        for schedule in ([], [{"src": "h2", "dst": "h1", "size": 5, "gap": 1,
                               "start_tick": 3, "class": None}]):
            for controller in (AgentSystem, MonolithicController):
                with pytest.raises(SchemaError, match="schedule"):
                    controller(topo, scen, {"proactive": True, "schedule": schedule})
