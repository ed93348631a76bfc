"""Orchestration agent: roster planning, the genesis bootstrap, recovery on exit notices."""
import dataclasses
import inspect
import random

import pytest

from masdn.config import broker_ids, parse_config, plan_roster
from masdn import functions, infra, runtime
from masdn.core import AgentId, FunctionKind, Message, MessageKind
from masdn.netsim import SchemaError
from masdn.orchestrator import broker_subs, build_specs, home_broker, orchestrator_decide
from masdn.runtime import AgentInput
from masdn.system import AgentSystem

from helpers import STRATEGIES, VIEW, build, gen_scenario, gen_topology

ME = "orchestration#0"
_IDS = iter(range(1, 100000))


def tell(body, kind=MessageKind.REQUEST, now=0, src="session#0"):
    return AgentInput(
        Message(
            msg_id=next(_IDS), src=AgentId.parse(src), dst=AgentId.parse(ME),
            kind=kind, payload=b"", sim_time=now,
        ),
        body,
    )


def fire(topic, body, now=0):
    return tell({"topic": topic, "body": body}, kind=MessageKind.EVENT, now=now)


def down(agent, now=0):
    """An exit notice as the orchestrator gets it from the host: no body,
    and the frame's src names the dead agent."""
    return tell({"topic": "agent.down"}, kind=MessageKind.EVENT, now=now, src=agent)


BASE_CONFIG = {"chain": ["session"], "event_strategy": "centralized"}


def _chainable(kind):
    """Whether a chain may name the kind: parse_config is the judge."""
    try:
        parse_config({"chain": ["session", kind.value]}, None)
    except SchemaError:
        return False
    return True

# the topics each kind reads; every other kind reads none, as no tick
# travels on the event plane
READS = {
    "routing": ["events.link"],
    "session": ["events.flow", "events.link", "events.packet_in", "events.violation"],
}


# the kinds that run the lifecycle only and join a roster only when the
# chain names them
LIFECYCLE_ONLY = ["autoconf-discovery", "fault", "monitoring", "topology"]


class TestRosterPlanning:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_the_default_roster_is_the_session_closure_the_registry_kp_and_the_brokers(
        self, strategy
    ):
        closure = ["classifier#0", "forwarding#0", "qos#0", "routing#0", "session#0"]
        want = sorted(closure + ["registry#0", "knowledge-plane#0", *broker_ids(strategy)])
        for doc in ({"event_strategy": strategy}, {"chain": ["session"], "event_strategy": strategy}):
            assert plan_roster(parse_config(doc, None)) == want

    @pytest.mark.parametrize("kind", LIFECYCLE_ONLY)
    def test_a_chain_that_names_a_lifecycle_only_kind_composes_it(self, kind):
        named = plan_roster(parse_config({"chain": ["session", kind]}, None))
        assert sorted(set(named) - set(plan_roster(parse_config({}, None)))) == [f"{kind}#0"]

    def test_a_system_refuses_a_chain_or_kill_its_roster_cannot_hold(self):
        # as the CLI does (test_cli), so a kill outside the roster fails a
        # test instead of leaving it a run with no kill
        rng = random.Random(0)
        tdoc = gen_topology(rng, 6)
        topo, scen = build(tdoc, gen_scenario(rng, tdoc, 6, 0, 60))
        for config in ({"chain": ["monitoring"]}, {"chain": ["session", "mobility"]},
                       {"kills": {"12": ["monitoring#0"]}}, {"kills": {"12": [ME]}}):
            with pytest.raises(SchemaError):
                AgentSystem(topo, scen, config)

    def test_a_system_refuses_a_kill_tick_no_respawn_can_follow(self):
        # a kill after tick t is reported and respawned at t + 1, so it falls
        # on ticks 0 to duration - 2
        rng = random.Random(0)
        tdoc = gen_topology(rng, 6)
        topo, scen = build(tdoc, gen_scenario(rng, tdoc, 6, 0, 60))
        for tick in ("-1", "59", "60", "500"):
            with pytest.raises(SchemaError, match=r"0 \.\. 58"):
                AgentSystem(topo, scen, {"kills": {tick: ["qos#0"]}})
        for tick in ("0", "58"):
            AgentSystem(topo, scen, {"kills": {tick: ["qos#0"]}})

    def test_broker_count_follows_strategy(self):
        assert broker_ids("centralized") == ["event-distribution#0"]
        assert len(broker_ids("distributed")) == 3
        assert len(broker_ids("hybrid")) == 5

    def test_home_broker_is_stable_and_in_range(self):
        for strategy in ("centralized", "distributed", "hybrid"):
            ids = set(broker_ids(strategy))
            for agent in ("routing#0", "session#0", "orchestration#0"):
                home = home_broker(strategy, agent)
                assert home in ids
                assert home == home_broker(strategy, agent)

    def test_hybrid_homes_split_by_decision_level(self):
        assert home_broker("hybrid", "routing#0") != home_broker("hybrid", "orchestration#0")


class TestBuildSpecs:
    def test_specs_carry_role_specific_facts(self):
        config = parse_config(dict(BASE_CONFIG, thresholds={"gap": 5}, qos_cap_permille=700), None)
        roster = plan_roster(config)
        view = {"links": [{"a": "s1", "b": "s2", "capacity": 20, "latency": 3, "up": True}],
                "hosts": {"h1": "s1"}, "switches": ["s1", "s2"]}
        specs = build_specs(config, roster, view)
        assert set(specs) == set(roster)
        facts = {agent: spec["initial_facts"] for agent, spec in specs.items()}
        assert facts["classifier#0"] == {"thresholds": {"size": 100, "gap": 5}}
        # routing and session keep the view current from link events; qos and
        # forwarding get only what no link event changes
        assert facts["routing#0"] == {"topology": view}
        assert facts["qos#0"] == {"capacities": {"s1|s2": 20}, "qos-cap-permille": 700}
        assert facts["forwarding#0"] == {"switches": ["s1", "s2"]}
        # the session agent is the one agent whose plans ask agents: its peers
        # are the kinds it asks
        assert facts["session#0"] == {
            "peers": ["classifier#0", "forwarding#0", "qos#0", "routing#0"], "topology": view,
        }
        assert facts["registry#0"] == facts["knowledge-plane#0"] == {}
        for agent, spec in specs.items():  # the spec names its agent once
            assert spec["agent"] == agent and spec["cognition"] == agent.split("#")[0]

    def test_broker_specs_encode_the_arrangement(self):
        # each broker relays only towards the neighbours a subscriber sits
        # behind, and its peers are its subscribers and those neighbours
        config = parse_config({"chain": ["session"], "event_strategy": "distributed"}, None)
        roster = plan_roster(config)
        specs = build_specs(config, roster, VIEW)
        tables = broker_subs("distributed", roster)
        for broker in broker_ids("distributed"):
            facts = specs[broker]["initial_facts"]
            assert facts["role"] == "mesh"
            want = {b: sorted(t) for b, t in tables.items() if b != broker and t}
            assert facts.get("relays", {}) == want
            subscribers = {a for group in tables[broker].values() for a in group}
            assert facts.get("peers", []) == sorted(subscribers | set(want))
        config = parse_config({"chain": ["session"], "event_strategy": "hybrid"}, None)
        specs = build_specs(config, plan_roster(config), VIEW)
        facts = {b: specs[b]["initial_facts"] for b in broker_ids("hybrid")}
        # routing and session are function-level, so broker #2 holds them all
        read = ["events.flow", "events.link", "events.packet_in", "events.violation"]
        assert facts["event-distribution#0"] == {
            "role": "root", "subs": {}, "relays": {"event-distribution#2": read},
            "peers": ["event-distribution#2"],
        }
        for level in ("event-distribution#1", "event-distribution#3", "event-distribution#4"):
            assert facts[level] == {
                "role": "level", "subs": {}, "relays": {"event-distribution#0": read},
                "peers": ["event-distribution#0"],
            }
        assert facts["event-distribution#2"]["role"] == "level"
        assert "relays" not in facts["event-distribution#2"]  # no other level reads a topic
        assert facts["event-distribution#2"]["peers"] == ["routing#0", "session#0"]
        config = parse_config({"chain": ["session"]}, None)
        (solo,) = [s["initial_facts"] for a, s in build_specs(config, plan_roster(config), VIEW).items()
                   if a.startswith("event-distribution")]
        assert set(solo) == {"role", "subs", "peers"} and solo["role"] == "solo"

    def test_specs_carry_scoped_policies_in_config_order(self):
        # the order the monolith filters the same config in, not id order; a
        # run's policies are scoped to forwarding alone (shared_policy)
        def cap(policy_id):
            return {"policy_id": policy_id, "issuer_level": "network", "scope": ["forwarding"],
                    "rules": [{"action_kind": "install-rule", "target_class": "switch",
                               "effect": "deny", "max_per_target": 4}]}

        b, a = cap("b"), cap("a")
        config = parse_config(dict(BASE_CONFIG, policies=[b, a]), None)
        specs = build_specs(config, plan_roster(config), VIEW)
        held = {agent: spec["initial_facts"].get("policies") for agent, spec in specs.items()}
        assert held.pop("forwarding#0") == [b, a]
        assert set(held.values()) == {None}


# Who reads each initial fact a kind's spec may carry: the kind's cognition
# (or a helper it calls), or the pipeline's validation, runtime.validate_plan,
# which the host hands the "policies" it reads. A kind absent here is handed
# nothing.
SPEC_READERS = {
    "classifier": {"thresholds": functions.classifier_decide},
    "qos": {"capacities": functions.qos_decide, "qos-cap-permille": functions.qos_decide},
    "forwarding": {"switches": runtime.validate_plan,
                   "policies": runtime.AgentHost.process_input},
    "routing": {"topology": functions.routing_decide},
    "session": {"topology": functions.session_decide, "peers": runtime.peer_of},
    "event-distribution": {"role": infra.broker_decide, "relays": infra.broker_decide,
                           "subs": infra._local_deliveries, "peers": runtime.validate_plan},
}

# a chain that names every kind a chain may name
EVERY_KIND = [k.value for k in FunctionKind if _chainable(k)]


class TestSpecFactsAreRead:
    """Each spec carries only what its agent reads, once: no fact that no
    reader of its kind reads, and no fact the spec says elsewhere."""

    def test_the_table_names_real_reads(self):
        for kind, readers in SPEC_READERS.items():
            for key, reader in readers.items():
                assert f'"{key}"' in inspect.getsource(reader), (kind, key, reader.__name__)

    def test_every_initial_fact_a_kind_receives_is_read_by_that_kind(self):
        cap = {"policy_id": "cap", "issuer_level": "network", "scope": ["forwarding"],
               "rules": [{"action_kind": "install-rule", "target_class": "switch",
                          "effect": "deny", "max_per_target": 4}]}
        given = set()  # (kind, key) of every initial fact, over the strategies
        for strategy in STRATEGIES:
            config = parse_config({"chain": EVERY_KIND, "event_strategy": strategy,
                                   "policies": [cap]}, None)
            roster = plan_roster(config)
            assert {a.split("#")[0] for a in roster} >= set(EVERY_KIND)
            specs = build_specs(config, roster, VIEW)
            unread = {
                (agent, key)
                for agent, spec in specs.items()
                for key in spec["initial_facts"]
                if key not in SPEC_READERS.get(spec["cognition"], {})
            }
            assert unread == set(), strategy
            given |= {(spec["cognition"], key) for spec in specs.values()
                      for key in spec["initial_facts"]}
        # and the table lists no fact that no spec carries
        assert given == {(kind, key) for kind, keys in SPEC_READERS.items() for key in keys}


class TestBootstrap:
    def test_one_decision_spawns_the_roster_in_order_and_writes_only_the_roster_facts(self):
        config = dict(BASE_CONFIG, event_strategy="distributed")
        out = orchestrator_decide({"config": config, "topology": VIEW},
                                  fire("control.bootstrap", None, now=3))
        assert set(out) == {"plan", "facts"}  # no events
        assert [key for key, _ in out["facts"]] == ["specs"]
        writes = dict(out["facts"])
        checked = parse_config(config, None)
        roster, specs = plan_roster(checked), writes["specs"]
        assert specs == build_specs(checked, roster, VIEW)
        assert [s["params"]["spec"]["agent"] for s in out["plan"]] == roster
        for s in out["plan"]:  # no placement node
            agent = s["params"]["spec"]["agent"]
            assert (s["action"], s["target"]) == ("spawn-agent", "host.control")
            assert s["params"] == {"spec": specs[agent], "restore": {}}

    def test_the_genesis_config_fact_is_the_checked_doc_form(self):
        # the run keys alone, defaults filled in: not the CLI's topology,
        # scenario, seed or mode, and not the caller's tick keys
        rng = random.Random(0)
        tdoc = gen_topology(rng, 6)
        sdoc = gen_scenario(rng, tdoc, 6, 0, 60)
        topo, scen = build(tdoc, sdoc)
        doc = {"topology": tdoc, "scenario": sdoc, "seed": 3, "mode": "agents",
               "thresholds": {"gap": 5}, "kills": {12: ["qos#0"]}}
        system = AgentSystem(topo, scen, doc)
        system.genesis()
        fact = system.host.agents[AgentId.parse(ME)].facts.get("config")
        assert fact == {
            "chain": ["session"], "event_strategy": "centralized", "proactive": False,
            "profile": "bin-alo-64k", "thresholds": {"size": 100, "gap": 5},
            "qos_cap_permille": 800, "policies": [], "kills": {"12": ["qos#0"]},
        }
        assert fact == system.config.doc
        rebuilt = parse_config(fact, None)
        assert rebuilt == dataclasses.replace(system.config, seed=None, mode="compare")

    def test_genesis_runs_one_orchestrator_pipeline(self):
        rng = random.Random(0)
        tdoc = gen_topology(rng, 6)
        topo, scen = build(tdoc, gen_scenario(rng, tdoc, 6, 0, 60))
        system = AgentSystem(topo, scen, {"event_strategy": "hybrid"})
        system.genesis()
        runs = [r for r in system.host.stage_log if r["stage"] == "input" and r["agent"] == ME]
        assert len(runs) == 1
        assert [a for a, _ in system.spawn_log] == plan_roster(system.config)

    def test_each_broker_spec_holds_its_subscription_table(self):
        # every roster agent but a broker, under each topic its kind reads,
        # at the broker it is homed on; no other spec says where it is homed
        # or what it reads
        for strategy in ("centralized", "distributed", "hybrid"):
            config = parse_config(dict(BASE_CONFIG, event_strategy=strategy), None)
            roster = plan_roster(config)
            specs = build_specs(config, roster, VIEW)
            want = {b: {} for b in broker_ids(strategy)}
            for agent in roster:
                table = want[home_broker(strategy, agent)]
                for flt in READS.get(agent.split("#")[0], []):
                    table[flt] = sorted([*table.get(flt, []), agent])
            for agent, spec in specs.items():
                facts = spec["initial_facts"]
                assert "home-broker" not in facts and "subscriptions" not in facts
                if agent in want:
                    assert facts["subs"] == want[agent], (strategy, agent)
                    assert not any("events.tick" in t for t in facts["subs"]), agent
                else:
                    assert "subs" not in facts, (strategy, agent)
            if strategy == "distributed":  # the table is split over the brokers
                assert sum(bool(t) for t in want.values()) > 1, strategy


class TestLiveness:
    """The host is the failure detector: an exit notice, sent by the system
    from the dead agent, respawns that agent from its spec and mirror slot."""

    def booted(self, config=BASE_CONFIG):
        # no broker's table lists the orchestrator: notices and digests come
        # to it directly
        facts = {"config": dict(config), "topology": VIEW}
        out = orchestrator_decide(facts, fire("control.bootstrap", None))
        return {**facts, **dict(out["facts"])}

    def test_a_dead_agent_is_respawned_with_mirror_state(self):
        facts = self.booted()
        facts["mirror"] = {"routing#0": {"topology": {"version": 4, "value": {}}}}
        out = orchestrator_decide(facts, down("routing#0", now=24))
        (spawn,) = [s for s in out["plan"] if s["action"] == "spawn-agent"]
        assert spawn["params"]["spec"]["agent"] == "routing#0"
        assert spawn["params"]["restore"] == facts["mirror"]["routing#0"]
        assert "events" not in out  # spawn_log and the planning record show it

    def test_a_respawn_step_carries_the_spec_and_its_restore_only(self):
        facts = self.booted()
        out = orchestrator_decide(facts, down("routing#0"))
        assert out["plan"] == [{
            "action": "spawn-agent",
            "target": "host.control",
            "params": {"spec": facts["specs"]["routing#0"], "restore": {}},
        }]

    def test_a_respawn_is_a_restore_and_pushes_no_policy(self):
        cap = {"policy_id": "cap", "issuer_level": "network", "scope": ["forwarding"],
               "rules": [{"action_kind": "install-rule", "target_class": "switch",
                          "effect": "deny", "max_per_target": 2}]}
        facts = self.booted(dict(BASE_CONFIG, policies=[cap]))
        facts["mirror"] = {"forwarding#0": {"switch-rules": {"version": 1, "value": {}}}}
        out = orchestrator_decide(facts, down("forwarding#0"))
        assert [s["action"] for s in out["plan"]] == ["spawn-agent"]
        params = out["plan"][0]["params"]
        assert params["restore"] == facts["mirror"]["forwarding#0"]
        assert params["spec"]["initial_facts"]["policies"] == [cap]  # from the spec

    def test_a_dead_broker_is_respawned_alone(self):
        # a broker is an agent like any other: its death says nothing of the
        # agents homed on it
        broker = "event-distribution#0"
        out = orchestrator_decide(self.booted(), down(broker))
        assert [s["params"]["spec"]["agent"] for s in out["plan"]] == [broker]

    def test_a_notice_writes_no_fact(self):
        # no liveness table: who is live only the host knows
        out = orchestrator_decide(self.booted(), down("qos#0"))
        assert set(out) == {"plan"}
