"""Agent runtime: facts store, plan validation, and the six-stage pipeline."""
import copy
import functools
import json
import operator
import random

import pytest

from masdn import AgentSystem, runtime
from masdn.config import broker_ids, parse_config
from masdn.core import AgentId, FunctionKind, MessageKind
from masdn.hierarchy import Policy
from masdn.orchestrator import build_specs, home_broker
from masdn.pps import encode_body
from masdn.runtime import (
    AgentHost,
    AgentNotLive,
    AgentSpec,
    DuplicateAgent,
    FactsStore,
    UnknownCognition,
    cognition,
    decision,
    freeze,
    register_cognition,
    step,
    validate_plan,
)

from helpers import VIEW, build, gen_scenario, gen_topology

STAGES = ("input", "facts", "cognition", "planning", "validation", "output")


@register_cognition("scripted")
def _scripted(facts, inp):
    """Obeys the request body: {"decision": {...}}. The body is JSON, so a
    step names an agent as its id string; a cognition plans on the AgentId."""
    body = inp.body if isinstance(inp.body, dict) else {}
    dec = body.get("decision", {})
    if "plan" not in dec:
        return dec
    plan = [
        {**s, "target": AgentId.parse(s["target"]) if "#" in s["target"] else s["target"]}
        for s in dec["plan"]
    ]
    return {**dec, "plan": plan}


def spawn(host, kind=FunctionKind.ROUTING, instance=0, facts=None):
    spec = AgentSpec(
        agent=AgentId(kind, instance),
        cognition="scripted",
        initial_facts=facts or {},
    )
    return host.spawn_agent(spec)


def tell(host, agent_id, body, kind=MessageKind.REQUEST, src=None, dst=None):
    msg = host.factory.new_message(
        src=src or AgentId(FunctionKind.SESSION, 9),
        dst=dst or agent_id,
        kind=kind,
        payload=encode_body(body),
    )
    return host.process_input(agent_id, msg)


class TestFactsStore:
    def test_versions_count_writes_per_key(self):
        store = FactsStore({})
        assert store.put("topology", {"links": []}) == 1
        assert store.put("topology", {"links": [1]}) == 2
        assert store.put("other", "x") == 1

    def test_an_equal_reput_keeps_the_entry_and_an_unequal_one_bumps_it(self):
        store = FactsStore({})
        assert store.put("view", {"links": [1, 2]}) == 1
        stored = store.get("view")
        assert store.put("view", {"links": [1, 2]}) == 1
        assert store.get("view") is stored
        assert store.put("view", {"links": [1, 3]}) == 2
        assert store.export(["view"])["view"] == {"value": {"links": [1, 3]}, "version": 2}

    def test_snapshot_key_set_is_isolated_from_the_store(self):
        store = FactsStore({})
        store.put("view", {"n": 1})
        snap = store.snapshot()
        snap["extra"] = "x"
        del snap["view"]
        assert store.get("view") == {"n": 1}
        assert store.get("extra") is None

    def test_put_copies_the_value(self):
        store = FactsStore({})
        doc = {"n": 1}
        store.put("view", doc)
        doc["n"] = 99
        assert store.get("view") == {"n": 1}

    def test_export_restore_round_trip_keeps_versions(self):
        store = FactsStore({})
        store.put("a", 1)
        store.put("a", 2)
        store.put("b", "x")
        digest = store.export(["a", "b"])
        fresh = FactsStore({})
        fresh.restore(digest)
        assert fresh.get("a") == 2
        assert fresh.get("b") == "x"
        # versions continue above the restored ones, they do not restart
        assert fresh.put("a", 3) == 3

    def test_an_exported_key_is_its_value_and_version_only(self):
        store = FactsStore({})
        store.put("a", {"n": 1})
        store.put("a", {"n": 2})
        digest = store.export(["a", "missing"])
        assert digest == {"a": {"value": {"n": 2}, "version": 2}}
        fresh = FactsStore({})
        fresh.restore(digest)
        assert fresh.export(["a"]) == digest

    def test_a_new_stores_digest_ships_nothing_of_its_initial_facts(self):
        # the mirror reads them from the agent's spec, at version 1
        store = FactsStore({"view": {"links": [1]}, "peers": ["a"]})
        assert store.export(["view", "peers"]) == {
            "view": {"value": {"links": [1]}, "version": 1},
            "peers": {"value": ["a"], "version": 1},
        }
        assert store.digest(["view", "peers"]) == {}

    def test_a_write_to_a_spec_key_ships_a_delta_on_version_one(self):
        store = FactsStore({"view": {"links": [1], "hosts": {}}})
        store.put("view", {"links": [1, 2], "hosts": {}})
        store.put("learnt", {"n": 1})
        assert store.digest(["view", "learnt"]) == {
            "view": {"version": 2, "base": 1, "set": [[["links"], [1, 2]]], "drop": []},
            "learnt": {"value": {"n": 1}, "version": 1},  # no spec or mirror holds it
        }
        # what it shipped is what the mirror holds now
        assert store.digest(["view", "learnt"]) == {}
        store.put("learnt", {"n": 2})
        assert store.digest(["view", "learnt"]) == {
            "learnt": {"version": 2, "base": 1, "set": [[["n"], 2]], "drop": []},
        }

    def test_a_restored_key_ships_nothing_until_its_next_write_then_a_delta_on_it(self):
        store = FactsStore({"view": {"n": 0}})
        store.restore({"view": {"value": {"n": 4}, "version": 5},
                       "learnt": {"value": {"m": 1}, "version": 3}})
        assert store.digest(["view", "learnt"]) == {}
        store.put("learnt", {"m": 1})  # an equal write moves nothing
        assert store.digest(["view", "learnt"]) == {}
        store.put("view", {"n": 5})
        store.put("learnt", {"m": 2})
        assert store.digest(["view", "learnt"]) == {
            "view": {"version": 6, "base": 5, "set": [[["n"], 5]], "drop": []},
            "learnt": {"version": 4, "base": 3, "set": [[["m"], 2]], "drop": []},
        }

    MUTATIONS = {
        "dict setitem": lambda v: v["d"].__setitem__("n", 2),
        "dict delitem": lambda v: v["d"].__delitem__("n"),
        "dict setdefault": lambda v: v["d"].setdefault("m", 0),
        "dict update": lambda v: v["d"].update(m=0),
        "dict pop": lambda v: v["d"].pop("n"),
        "dict popitem": lambda v: v["d"].popitem(),
        "dict clear": lambda v: v["d"].clear(),
        "dict |=": lambda v: operator.ior(v["d"], {"m": 0}),
        "list setitem": lambda v: v["l"].__setitem__(0, 9),
        "list delitem": lambda v: v["l"].__delitem__(0),
        "list append": lambda v: v["l"].append(3),
        "list extend": lambda v: v["l"].extend([3]),
        "list insert": lambda v: v["l"].insert(0, 3),
        "list pop": lambda v: v["l"].pop(),
        "list remove": lambda v: v["l"].remove(1),
        "list sort": lambda v: v["l"].sort(),
        "list reverse": lambda v: v["l"].reverse(),
        "list clear": lambda v: v["l"].clear(),
        "list +=": lambda v: operator.iadd(v["l"], [3]),
        "list *=": lambda v: operator.imul(v["l"], 2),
    }

    @pytest.mark.parametrize("read", ["get", "snapshot"])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_nested_mutation_of_stored_facts_raises(self, read, mutation):
        store = FactsStore({})
        store.put("doc", {"d": {"n": 1}, "l": [2, 1]})
        value = store.get("doc") if read == "get" else store.snapshot()["doc"]
        with pytest.raises(TypeError):
            self.MUTATIONS[mutation](value)
        assert store.get("doc") == {"d": {"n": 1}, "l": [2, 1]}

    def test_reput_keeps_stored_subtrees_by_identity(self):
        store = FactsStore({})
        store.put("table", {"a": {"n": 1, "path": ["s1"]}, "b": {"n": 2}})
        stored = store.get("table")
        store.put("table", {**stored, "b": {**stored["b"], "n": 3}})
        table = store.get("table")
        assert table["a"] is stored["a"]
        assert table == {"a": {"n": 1, "path": ["s1"]}, "b": {"n": 3}}
        assert stored["b"] == {"n": 2}

    def test_restore_is_isolated_from_the_digest_given(self):
        digest = {"k": {"value": {"l": [1], "d": {"n": 1}}, "version": 2}}
        store = FactsStore({})
        store.restore(digest)
        digest["k"]["value"]["l"].append(2)
        digest["k"]["value"]["d"]["n"] = 9
        assert store.get("k") == {"l": [1], "d": {"n": 1}}
        with pytest.raises(TypeError):
            store.get("k")["l"].append(3)

    def test_frozen_values_encode_compare_and_copy_like_plain_ones(self):
        plain = {"b": [1, {"c": (2, [3])}], "a": None, "s": "x", "f": 0.5}
        frozen = freeze(plain)
        assert type(frozen) is not dict
        assert frozen == plain
        assert encode_body(frozen) == encode_body(plain)
        assert json.dumps(frozen, sort_keys=True, indent=2) == json.dumps(
            plain, sort_keys=True, indent=2
        )
        assert copy.deepcopy(frozen) is frozen
        assert copy.copy(frozen["b"]) is frozen["b"]
        nested = copy.deepcopy({"x": frozen})
        assert nested["x"] is frozen
        assert freeze(frozen) is frozen


class TestHostLifecycle:
    def test_spawning_same_id_twice_is_rejected(self):
        host = AgentHost()
        spawn(host)
        with pytest.raises(DuplicateAgent):
            spawn(host)

    def test_unknown_cognition_is_rejected_at_spawn(self):
        host = AgentHost()
        spec = AgentSpec(agent=AgentId(FunctionKind.ROUTING, 0), cognition="nope")
        with pytest.raises(UnknownCognition):
            host.spawn_agent(spec)

    def test_facts_write_to_stopped_agent_fails(self):
        host = AgentHost()
        agent = spawn(host)
        host.kill_agent(agent.id)
        with pytest.raises(AgentNotLive):
            host.get(agent.id).facts.put("k", 1)

    def test_each_kill_is_kept_as_an_exit_and_no_other_way_out_is(self):
        host = AgentHost()
        first, second = spawn(host, instance=1), spawn(host, instance=0)
        assert host.exits == []
        host.kill_agent(first.id)
        host.kill_agent(second.id)
        assert host.exits == [first.id, second.id]  # in kill order
        with pytest.raises(AgentNotLive):
            host.kill_agent(first.id)  # a dead agent dies no second time
        assert host.exits == [first.id, second.id]


class TestValidatePlan:
    def test_empty_plan_has_nothing_to_violate(self):
        # the host and the oracle validate only plans that have steps
        assert validate_plan([], {}) == []

    def test_consistent_plan_passes_without_policies(self):
        plan = [step("install-rule", "sw1", rule={})]
        facts = {"switches": ["sw1"]}
        assert validate_plan(plan, facts) == []

    def test_switch_steps_need_topology_knowledge(self):
        plan = [step("install-rule", "sw1", rule={})]
        assert [c for c, _ in validate_plan(plan, {})] == ["missing-topology"]

    def test_unknown_switch_target_is_flagged(self):
        plan = [step("install-rule", "sw9", rule={})]
        facts = {"switches": ["sw1"]}
        assert [c for c, _ in validate_plan(plan, facts)] == ["unknown-target"]

    def test_agent_targets_must_be_known_peers(self):
        plan = [step("path", AgentId(FunctionKind.ROUTING, 0))]
        assert validate_plan(plan, {"peers": []}) == [
            ["unknown-target", "agent routing#0 is not a known peer"]
        ]
        assert validate_plan(plan, {"peers": ["routing#0"]}) == []

    def test_a_brokers_targets_are_its_subscribers_and_relays(self):
        # a broker's spec holds no peers list: its two tables name them
        facts = {"role": "mesh", "subs": {"events.link": ["routing#0"]},
                 "relays": {"event-distribution#1": ["events.link"]}}
        env = {"topic": "events.link", "body": None}
        plan = [step("deliver-event", AgentId(FunctionKind.ROUTING, 0), event=env),
                step("forward-event", AgentId(FunctionKind.EVENT_DISTRIBUTION, 1), event=env)]
        assert validate_plan(plan, facts) == []
        stray = [step("deliver-event", AgentId(FunctionKind.QOS, 0), event=env)]
        assert validate_plan(stray, facts) == [
            ["unknown-target", "agent qos#0 is not a known peer"]
        ]

    def test_a_target_is_an_agent_a_switch_or_an_endpoint(self):
        assert runtime.target_class(step("path", AgentId(FunctionKind.ROUTING, 0))) == "agent"
        assert runtime.target_class(step("remove-rule", "sw1")) == "switch"
        assert runtime.target_class(step("spawn-agent", "host.control")) == "endpoint"


def _rule_doc(src, dst, priority=10):
    return {
        "rule_id": "",
        "match": {"src": src, "dst": dst},
        "priority": priority,
        "action": "deliver",
        "next_hop": None,
    }


class TestPolicyCaps:
    doc = {
        "policy_id": "net-cap",
        "issuer_level": "network",
        "scope": ["forwarding"],
        "rules": [
            {
                "action_kind": "install-rule",
                "target_class": "switch",
                "effect": "deny",
                "max_per_target": 2,
            }
        ],
    }
    policy = Policy.from_dict(doc)
    facts = {"switches": ["sw1"]}

    def plan_installing(self, *pairs):
        return [step("install-rule", "sw1", rule=_rule_doc(s, d)) for s, d in pairs]

    def test_up_to_the_cap_passes(self):
        plan = self.plan_installing(("h1", "h2"), ("h1", "h3"))
        assert validate_plan(plan, self.facts, [self.policy]) == []

    def test_exceeding_the_cap_fails(self):
        plan = self.plan_installing(("h1", "h2"), ("h1", "h3"), ("h2", "h3"))
        assert validate_plan(plan, self.facts, [self.policy]) == [
            ["net-cap", "sw1: 3 rules would exceed bound 2"]
        ]

    def test_existing_occupancy_counts(self):
        facts = dict(self.facts)
        facts["switch-rules"] = {"sw1": {"h1|h2|10": "r1", "h1|h3|10": "r2"}}
        plan = self.plan_installing(("h2", "h3"))
        assert validate_plan(plan, facts, [self.policy])

    def test_replacing_an_existing_slot_is_free(self):
        facts = dict(self.facts)
        facts["switch-rules"] = {"sw1": {"h1|h2|10": "r1", "h1|h3|10": "r2"}}
        plan = self.plan_installing(("h1", "h2"))
        assert validate_plan(plan, facts, [self.policy]) == []

    def test_every_bounded_rule_checks_its_own_bound_in_either_order(self):
        # a looser cap listed first must not hide a tighter one: each rule
        # projects its own count from the switch-rules table
        def cap(policy_id, bound):
            rules = [dict(self.doc["rules"][0], max_per_target=bound)]
            return Policy.from_dict(dict(self.doc, policy_id=policy_id, rules=rules))

        facts = dict(self.facts)
        facts["switch-rules"] = {"sw1": {"h1|h2|10": "r1", "h1|h3|10": "r2"}}
        plan = self.plan_installing(("h2", "h3"))
        for policies in ([cap("a", 3), cap("b", 2)], [cap("b", 2), cap("a", 3)]):
            assert [c for c, _ in validate_plan(plan, facts, policies)] == ["b"], policies

    def test_wildcard_policy_credits_in_plan_removals(self):
        wildcard = Policy.from_dict(
            {
                "policy_id": "net-cap-any",
                "issuer_level": "network",
                "scope": ["forwarding"],
                "rules": [
                    {
                        "action_kind": "*",
                        "target_class": "switch",
                        "effect": "deny",
                        "max_per_target": 2,
                    }
                ],
            }
        )
        facts = dict(self.facts)
        facts["switch-rules"] = {"sw1": {"h1|h2|10": "r1", "h1|h3|10": "r2"}}
        plan = [
            step("remove-rule", "sw1", rule=_rule_doc("h1", "h2")),
            step("install-rule", "sw1", rule=_rule_doc("h2", "h3")),
        ]
        assert validate_plan(plan, facts, [wildcard]) == []

    def test_install_scoped_policy_ignores_removals_conservatively(self):
        # the cap only watches installs, so the in-plan removal earns no
        # credit and the whole plan is rejected: occupancy never overshoots
        facts = dict(self.facts)
        facts["switch-rules"] = {"sw1": {"h1|h2|10": "r1", "h1|h3|10": "r2"}}
        plan = [
            step("remove-rule", "sw1", rule=_rule_doc("h1", "h2")),
            step("install-rule", "sw1", rule=_rule_doc("h2", "h3")),
        ]
        assert validate_plan(plan, facts, [self.policy])


class TestPipeline:
    def test_six_stages_in_order_for_every_run(self):
        host = AgentHost()
        agent = spawn(host)
        tell(host, agent.id, {"decision": decision(responses=[{"ok": True}])})
        stages = [e["stage"] for e in host.stage_log if e["stage"] in STAGES]
        assert tuple(stages) == STAGES

    def test_failed_validation_yields_violation_event_and_nothing_else(self):
        host = AgentHost()
        agent = spawn(host, facts={"peers": []})
        bad = decision(
            plan=[step("classify", "classifier#0")],
            responses=[{"ok": True}],
        )
        out = tell(host, agent.id, {"decision": bad})
        assert [m.kind for m in out] == [MessageKind.EVENT]
        assert str(out[0].dst) == "events.violation"
        validation = [e for e in host.stage_log if e["stage"] == "validation"][-1]
        assert validation["passed"] is False

    def test_facts_are_not_written_when_validation_fails(self):
        host = AgentHost()
        agent = spawn(host, facts={"peers": []})
        bad = decision(
            plan=[step("classify", "classifier#0")],
            facts=[("note", "should not stick")],
        )
        tell(host, agent.id, {"decision": bad})
        assert agent.facts.get("note") is None

    def test_every_action_message_follows_a_passed_validation(self):
        host = AgentHost()
        agent = spawn(host, facts={"peers": ["classifier#0"]})
        tell(
            host,
            agent.id,
            {"decision": decision(plan=[step("classify", "classifier#0")])},
        )
        by_run = {}
        for entry in host.stage_log:
            if "run" in entry:
                by_run.setdefault(entry["run"], []).append(entry)
        for entries in by_run.values():
            stages = {e["stage"]: e for e in entries}
            emitted = stages["output"]["emitted"]
            if any(kind in ("request", "policy") for kind, _ in emitted):
                assert stages["validation"]["passed"] is True

    def test_the_planning_record_holds_the_steps_and_the_run_only(self):
        host = AgentHost()
        agent = spawn(host, facts={"peers": ["classifier#0"]})
        tell(host, agent.id, {"decision": decision(plan=[step("classify", "classifier#0")])})
        (record,) = [e for e in host.stage_log if e["stage"] == "planning"]
        assert record["steps"] == [["classify", "classifier#0"]]
        assert set(record) == {"steps", "stage", "agent", "run", "msg_id", "seq", "at"}


class TestEncodeOnce:
    def _counting_encode(self, monkeypatch):
        calls = []

        def counting(body):
            calls.append(body)
            return encode_body(body)

        monkeypatch.setattr(runtime, "encode_body", counting)
        return calls

    def test_broker_envelope_is_encoded_once_for_every_subscriber(self, monkeypatch):
        host = AgentHost()
        subscribers = [f"qos#{i}" for i in range(3)]
        broker = host.spawn_agent(AgentSpec(
            agent=AgentId(FunctionKind.EVENT_DISTRIBUTION, 0),
            cognition=FunctionKind.EVENT_DISTRIBUTION.value,
            initial_facts={"role": "solo", "subs": {"events.*": subscribers}},
        ))
        calls = self._counting_encode(monkeypatch)
        # a publish reaches the broker addressed to its topic, and every
        # subscriber gets the publish itself
        publish = {"topic": "events.link", "body": {"up": False}}
        out = tell(host, broker.id, publish, kind=MessageKind.EVENT, dst="events.link")
        assert [str(m.dst) for m in out] == subscribers
        assert [m.payload for m in out] == [encode_body(publish)] * 3
        assert calls == [publish]

    def test_distinct_request_steps_keep_their_own_payloads(self):
        # each {"op": ...} body is built for its step and dropped after it; a
        # cache keyed by a freed body's id would hand its bytes to the next
        host = AgentHost()
        peers = [f"classifier#{i}" for i in range(4)]
        agent = spawn(host, facts={"peers": peers})
        plan = [step("classify", peer, n=i) for i, peer in enumerate(peers)]
        out = tell(host, agent.id, {"decision": decision(plan=plan)})
        assert [m.payload for m in out] == [
            encode_body({"op": "classify", "n": i}) for i in range(4)
        ]


# -- what every registered cognition is -----------------------------------------

BROKER = FunctionKind.EVENT_DISTRIBUTION.value
# the cognitions masdn registers; tests register others under other names
_KINDS = sorted(name for name in runtime._COGNITIONS if name in {k.value for k in FunctionKind})


@functools.cache
def _genesis(strategy):
    """A system on a small generated network, right after genesis."""
    rng = random.Random(1)
    tdoc = gen_topology(rng, 4)
    topo, scen = build(tdoc, gen_scenario(rng, tdoc, 0, 0, 10))
    system = AgentSystem(topo, scen, {"event_strategy": strategy})
    system.genesis()
    return system


# the kinds that read a topic, and so sit in their home broker's table
_READERS = {"routing", "session"}

# the kinds spawned from a spec: every one but the orchestrator
_SPAWNED = [k for k in _KINDS if k != "orchestration"]


class TestLifecycle:
    @pytest.mark.parametrize("kind", _SPAWNED)
    def test_no_brokers_spec_lists_it_for_the_tick(self, kind):
        # subscriptions are composed at genesis, not asked for at spawn: the
        # agent's own spec names no broker and no topic, and of all brokers
        # only its home broker's table lists it, under the topics its kind
        # reads; the session agent's tick comes straight from the bridge, so
        # no table lists the tick, and a kind that reads no topic is in none
        agent = f"{kind}#0"
        for strategy in ("centralized", "distributed", "hybrid"):
            roster = sorted({agent, *broker_ids(strategy)})
            config = parse_config({"event_strategy": strategy}, None)
            specs = build_specs(config, roster, VIEW)
            assert not {"home-broker", "subscriptions"} & set(specs[agent]["initial_facts"])
            tables = {b: specs[b]["initial_facts"]["subs"] for b in broker_ids(strategy)}
            listed = {b for b, table in tables.items() for who in table.values() if agent in who}
            if kind in _READERS:
                assert listed == {home_broker(strategy, agent)}, strategy
            else:
                assert listed == set(), strategy
            assert not any("events.tick" in table for table in tables.values()), strategy

    def test_no_brokers_table_lists_the_orchestrator(self):
        # exit notices and digests come to it directly
        broker = _genesis("centralized").host.get(AgentId.parse(f"{BROKER}#0"))
        assert [f for f, who in broker.facts.get("subs").items() if "orchestration#0" in who] == []

    def test_a_cognition_is_registered_bare(self):
        # no lifecycle wrapper: what is registered is the decide function
        # itself, from the module that defines it
        from masdn import functions, infra, orchestrator

        for kind in _KINDS:
            decide = cognition(kind).decide
            assert not hasattr(decide, "__wrapped__"), kind
            module = {"masdn.functions": functions, "masdn.infra": infra,
                      "masdn.orchestrator": orchestrator}[decide.__module__]
            assert getattr(module, decide.__name__) is decide, kind
