"""Per-kind cognition behaviour, exercised as pure functions on (facts, input)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masdn.config import parse_config, plan_roster
from masdn.core import AgentId, FunctionKind, Message, MessageKind
from masdn.functions import (
    classifier_decide,
    forwarding_decide,
    qos_decide,
    routing_decide,
    session_decide,
    topology_ingest,
)
from masdn.infra import broker_decide
from masdn.logic import (
    ACTIVE,
    PENDING,
    PRIORITY_BY_CLASS,
    UNROUTABLE,
    UPDATING,
    clearing_rules,
    rules_for_path,
    session_record,
)
from masdn.orchestrator import build_specs, orchestrator_decide
from masdn.pps import decode_body, encode_body
from masdn.runtime import (
    AgentHost,
    AgentInput,
    AgentSpec,
    DigestGap,
    FactsStore,
    digest_delta,
    event_of,
    freeze,
    merge_digest,
    peer_of,
    step,
)

_IDS = iter(range(1, 100000))


def request(body, dst="routing#0", src="session#0"):
    return AgentInput(
        Message(
            msg_id=next(_IDS), src=AgentId.parse(src), dst=AgentId.parse(dst),
            kind=MessageKind.REQUEST, payload=b"",
        ),
        body,
    )


def event(topic, body, dst="routing#0", src="topology#0"):
    return AgentInput(
        Message(
            msg_id=next(_IDS), src=AgentId.parse(src), dst=AgentId.parse(dst),
            kind=MessageKind.EVENT, payload=b"",
        ),
        {"topic": topic, "body": body},
    )


def publish(topic, body, src="session#0"):
    """A publish as the bus hands it to the publisher's home broker: the
    destination is the topic itself."""
    return AgentInput(
        Message(next(_IDS), AgentId.parse(src), topic, MessageKind.EVENT, b""),
        {"topic": topic, "body": body},
    )


def forwarded(env, src):
    """An envelope another broker forwards to event-distribution#0."""
    return AgentInput(
        Message(next(_IDS), AgentId.parse(src), AgentId.parse("event-distribution#0"),
                MessageKind.EVENT, b""),
        env,
    )


TOPO = {
    "switches": ["s1", "s2", "s3"],
    "hosts": {"h1": "s1", "h2": "s3"},
    "links": [
        {"a": "s1", "b": "s2", "capacity": 10, "latency": 1, "up": True},
        {"a": "s2", "b": "s3", "capacity": 10, "latency": 1, "up": True},
        {"a": "s1", "b": "s3", "capacity": 10, "latency": 9, "up": True},
    ],
}


class TestHelpers:
    def test_event_of_requires_topic_key(self):
        inp = AgentInput(
            Message(1, AgentId.parse("qos#0"), AgentId.parse("routing#0"),
                    MessageKind.EVENT, b""),
            {"no": "topic"},
        )
        assert event_of(inp) is None
        assert event_of(event("events.link", {"x": 1})) == ("events.link", {"x": 1})

    def test_peer_of_picks_lowest_instance(self):
        facts = {"peers": ["registry#2", "registry#0", "qos#1"]}
        assert peer_of(facts, FunctionKind.REGISTRY) == "registry#0"
        assert peer_of(facts, FunctionKind.FAULT) is None


class TestTopologyAgent:
    def test_link_event_flips_one_link(self):
        writes = topology_ingest(
            {"topology": TOPO}, event("events.link", {"a": "s2", "b": "s1", "state": "down"})
        )
        [(key, view)] = writes
        assert key == "topology"
        flags = {(l["a"], l["b"]): l["up"] for l in view["links"]}
        assert flags[("s1", "s2")] is False
        assert flags[("s2", "s3")] is True


class TestRoutingAgent:
    def test_path_request_answers_with_ctx(self):
        out = routing_decide(
            {"topology": TOPO}, request({"op": "path", "src": "h1", "dst": "h2", "ctx": "f1"})
        )
        (resp,) = out["responses"]
        assert resp == {"path": ["s1", "s2", "s3"], "ctx": "f1"}

    def test_unknown_host_yields_none_path(self):
        out = routing_decide(
            {"topology": TOPO}, request({"op": "path", "src": "h1", "dst": "h9", "ctx": "f1"})
        )
        assert out["responses"][0]["path"] is None


def spec_facts(agent, **keys):
    """An agent's initial facts as the orchestrator issues them for a config
    of `keys`: the spec carries every default RunConfig fills in."""
    config = parse_config(keys, None)
    specs = build_specs(config, plan_roster(config), TOPO)
    return specs[agent]["initial_facts"]


class TestClassifierAgent:
    def test_defaults_and_fact_thresholds(self):
        fast = request({"op": "classify", "size": 10, "gap": 1, "ctx": "x"})
        plain = classifier_decide(spec_facts("classifier#0"), fast)
        assert plain["responses"][0]["class"] == "realtime"
        tuned = classifier_decide(spec_facts("classifier#0", thresholds={"gap": 1}), fast)
        assert tuned["responses"][0]["class"] == "interactive"


class TestQosAgent:
    ADMIT = {
        "op": "admit", "ctx": "s-1", "class": "realtime",
        "gap": 1, "path": ["s1", "s2", "s3"],
    }

    def test_realtime_reserves_on_every_path_link(self):
        out = qos_decide(spec_facts("qos#0"), request(self.ADMIT, dst="qos#0"))
        assert out["responses"][0]["admitted"] is True
        writes = dict(out["facts"])
        assert set(writes["reservations"]) == {"s1|s2", "s2|s3"}
        assert "s-1" in writes["admitted"]

    def test_denial_when_budget_is_full(self):
        # capacity 10 at the default 800 permille = 8000 milliunits; gap 1
        # wants 1000
        facts = {**spec_facts("qos#0"), "reservations": {"s1|s2": 7500, "s2|s3": 0}}
        out = qos_decide(facts, request(self.ADMIT, dst="qos#0"))
        assert out["responses"][0]["admitted"] is False
        assert "facts" not in out

    def test_non_realtime_is_waved_through(self):
        # by the session agent, which asks admit only for a realtime session:
        # any other class goes from its path straight to install
        conv = TestSessionConversation()
        for klass in ("interactive", "bulk"):
            facts = conv.facts([conv.session(klass=klass)],
                               [conv.pending("path")])
            _writes, asks = conv.decide(facts, conv.answer({"path": conv.PATH}, "routing#0"))
            assert [(action, target) for action, target, _ in asks] == [
                ("install", "forwarding#0")], klass

    def test_release_refunds_and_reports(self):
        # refunds the grant and answers nothing: the session agent reads no
        # answer to a release
        facts = {
            "topology": TOPO,
            "reservations": {"s1|s2": 1000, "s2|s3": 1000},
            "admitted": {"s-1": {"links": ["s1|s2", "s2|s3"], "rate": 1000}},
        }
        out = qos_decide(facts, request({"op": "release", "ctx": "s-1"}, dst="qos#0"))
        assert "responses" not in out
        assert out["facts"] == [("reservations", {}), ("admitted", {})]
        again = qos_decide({}, request({"op": "release", "ctx": "s-1"}, dst="qos#0"))
        assert again == {}


class TestForwardingAgent:
    # names a one-switch path from h1 to h2; interactive rules take priority 20
    BODY = {"ctx": "s-1", "path": ["s1"], "src": "h1", "dst": "h2", "class": "interactive"}

    def test_install_plans_one_step_per_switch(self):
        body = {"op": "install", **self.BODY, "first": 1}
        out = forwarding_decide({}, request(body, dst="forwarding#0"))
        (pstep,) = out["plan"]
        assert pstep["action"] == "install-rule"
        assert pstep["target"] == "s1"
        assert out["responses"][0]["installed"] == 1
        writes = dict(out["facts"])
        assert writes["switch-rules"] == {"s1": {"h1|h2|20": "r0001"}}

    def test_remove_mirrors_install_bookkeeping(self):
        occupied = {"s1": {"h1|h2|20": "r1"}}
        body = {"op": "remove", **self.BODY}
        out = forwarding_decide({"switch-rules": occupied}, request(body, dst="forwarding#0"))
        (pstep,) = out["plan"]
        assert pstep["action"] == "remove-rule"
        assert "responses" not in out  # the session agent reads no answer to a remove
        assert out["facts"] == [("switch-rules", {"s1": {}})]

    def test_a_write_shares_every_switch_it_does_not_touch(self):
        store = FactsStore({})
        store.put("switch-rules", {"s1": {"h3|h4|20": "r0"}, "s2": {"h1|h2|20": "r1"}, "s3": {}})
        before = store.get("switch-rules")
        install = {"op": "install", **self.BODY, "first": 1}
        remove = {"op": "remove", **self.BODY, "src": "h3", "dst": "h4"}
        for body in (install, remove):
            out = forwarding_decide(store.snapshot(), request(body, dst="forwarding#0"))
            store.put("switch-rules", dict(out["facts"])["switch-rules"])
            after = store.get("switch-rules")
            assert after["s2"] is before["s2"] and after["s3"] is before["s3"]
        assert after == {"s1": {"h1|h2|20": "r0001"}, "s2": {"h1|h2|20": "r1"}, "s3": {}}

    def test_remove_on_an_unknown_switch_creates_no_entry(self):
        occupied = {"s1": {"h1|h2|20": "r1"}}
        body = {"op": "remove", **self.BODY, "path": ["s9"]}
        out = forwarding_decide({"switch-rules": occupied}, request(body, dst="forwarding#0"))
        assert dict(out["facts"])["switch-rules"] == occupied

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        path=st.lists(st.sampled_from(["s1", "s2", "s3", "s4", "s5", "s6"]),
                      min_size=1, max_size=6, unique=True),
        hosts=st.lists(st.sampled_from(["h1", "h2", "h3"]), min_size=2, max_size=2, unique=True),
        klass=st.sampled_from(sorted(PRIORITY_BY_CLASS)),
        first=st.integers(1, 9990),
    )
    def test_forwarding_derives_the_rules_the_oracle_derives(self, path, hosts, klass, first):
        # the oracle's own calls, with the ids it allocates from its rule_seq
        src, dst = hosts
        priority = PRIORITY_BY_CLASS[klass]
        ids = [f"r{first + i:04d}" for i in range(len(path))]
        body = {"ctx": "s0007", "path": path, "src": src, "dst": dst, "class": klass}
        for op, rules, extra in (
            ("install", rules_for_path(path, src, dst, priority, ids), {"first": first}),
            ("remove", clearing_rules(path, src, dst, priority), {}),
        ):
            out = forwarding_decide({}, request({"op": op, **body, **extra}, dst="forwarding#0"))
            assert out["plan"] == [step(f"{op}-rule", sw, rule=doc, ctx="s0007")
                                   for sw, doc in rules]


class TestOrchestratorSupervision:
    """The orchestrator's answer to an exit notice from the host."""

    def booted(self):
        facts = {"config": {}, "topology": TOPO}
        out = orchestrator_decide(
            facts, event("control.bootstrap", None, dst="orchestration#0")
        )
        return {**facts, **dict(out["facts"])}

    def test_bootstrap_stores_the_specs_alone(self):
        assert sorted(self.booted()) == ["config", "specs", "topology"]

    def test_an_exit_notice_respawns_its_sender_from_spec_and_mirror_slot(self):
        facts = self.booted()
        slot = {"topology": {"version": 3, "value": {"links": []}}}
        facts["mirror"] = {"routing#0": slot, "qos#0": {"admitted": {"version": 1, "value": {}}}}
        out = orchestrator_decide(
            facts, event("agent.down", None, dst="orchestration#0", src="routing#0")
        )
        assert out == {"plan": [{
            "action": "spawn-agent", "target": "host.control",
            "params": {"spec": facts["specs"]["routing#0"], "restore": slot},
        }]}

    def test_an_exit_notice_for_an_agent_that_exported_nothing_restores_nothing(self):
        facts = self.booted()
        out = orchestrator_decide(
            facts, event("agent.down", None, dst="orchestration#0", src="registry#0")
        )
        assert [s["params"]["restore"] for s in out["plan"]] == [{}]


class TestKnowledgePlane:
    """The orchestrator's kp.digest fold: the one store of exported facts."""

    def test_digest_merge_keeps_newest_version(self):
        inp = event(
            "kp.digest",
            {"reservations": {"version": 2, "value": {"a": 1}}},
            dst="orchestration#0",
            src="qos#0",
        )
        facts = {"mirror": {"qos#0": {"reservations": {"version": 3, "value": {"b": 2}}}},
                 "specs": {"qos#0": {"initial_facts": {}}}}
        writes = orchestrator_decide(facts, inp)["facts"]
        kept = dict(writes)["mirror"]["qos#0"]["reservations"]
        assert kept["version"] == 3  # stale digest ignored

    def test_merge_copies_only_the_sending_agents_slot(self):
        digests = {
            "qos#0": {"reservations": {"version": 1, "value": {}}},
            "routing#0": {"topology": {"version": 4, "value": {"links": []}}},
        }
        keys = {"admitted": {"version": 1, "value": {}}}
        merged = merge_digest(digests, "qos#0", keys, {})
        assert merged["routing#0"] is digests["routing#0"]
        assert merged["qos#0"] == {**digests["qos#0"], **keys}
        assert "admitted" not in digests["qos#0"]

    def delta(self, version, base, set_=(), drop=()):
        doc = {"version": version, "base": base,
               "set": [[list(path), v] for path, v in set_], "drop": [list(p) for p in drop]}
        return {"sessions": doc}

    def held(self, value, version):
        return {"session#0": {"sessions": {"value": value, "version": version}}}

    def test_a_table_travels_as_a_delta_of_its_leaves_and_anything_else_whole(self):
        store = FactsStore({})
        store.put("sessions", {"s1": {"n": 1}, "s2": {"n": 2, "path": ["a", "b"]}})
        store.put("peers", ["a"])
        docs = store.export(["sessions", "peers"])
        # never exported before: whole, dict or not
        assert digest_delta(docs["peers"], None) == {"value": ["a"], "version": 1}
        assert digest_delta(docs["sessions"], None) == docs["sessions"]
        store.put("peers", ["a", "b"])
        assert digest_delta(store.export(["peers"])["peers"], (1, docs["peers"]["value"])) == {
            "value": ["a", "b"], "version": 2
        }
        store.put("sessions", {"s2": {"n": 2, "path": ["a", "c"]}, "s3": {"n": 3}})
        later = digest_delta(store.export(["sessions"])["sessions"], (1, docs["sessions"]["value"]))
        assert later == {
            "version": 2, "base": 1,
            "set": [[["s2", "path", 1], "c"], [["s3"], {"n": 3}]],
            "drop": [["s1"]],
        }

    def test_a_list_of_another_length_or_a_changed_type_travels_whole(self):
        old = {"s1": {"path": ["a", "b"], "n": 1}}
        new = {"s1": {"path": ["a", "b", "c"], "n": [1]}}
        assert digest_delta({"version": 3, "value": new}, (2, old))["set"] == [
            [["s1", "path"], ["a", "b", "c"]], [["s1", "n"], [1]]
        ]

    def test_delta_sets_and_drops_paths(self):
        mirror = self.held({"s1": {"n": 1}, "s2": {"n": 2, "path": ["a", "b"]}, "s3": {"n": 3}}, 4)
        body = self.delta(6, 4, set_=[(["s2", "n"], 20), (["s2", "path", 1], "c"),
                                      (["s4"], {"n": 4})], drop=[["s1"]])
        kept = merge_digest(mirror, "session#0", body, {})["session#0"]["sessions"]
        assert kept == {"value": {"s2": {"n": 20, "path": ["a", "c"]}, "s3": {"n": 3},
                                  "s4": {"n": 4}}, "version": 6}
        held = mirror["session#0"]["sessions"]["value"]
        assert held["s2"] == {"n": 2, "path": ["a", "b"]}  # folded into a copy
        assert kept["value"]["s3"] is held["s3"]  # and what no path reaches is shared

    def test_a_whole_value_replaces_the_key(self):
        mirror = self.held({"s1": {"n": 1}, "s2": {"n": 2}}, 9)
        whole = {"sessions": {"version": 10, "value": {"s5": {}}}}
        assert merge_digest(mirror, "session#0", whole, {})["session#0"]["sessions"]["value"] == {
            "s5": {}
        }
        assert merge_digest({}, "session#0", whole, {})["session#0"]["sessions"]["value"] == {
            "s5": {}
        }

    def test_stale_delta_is_ignored(self):
        mirror = self.held({"s1": {"n": 1}}, 7)
        kept = merge_digest(mirror, "session#0", self.delta(5, 4, set_=[(["s9"], {"n": 9})]), {})
        assert kept["session#0"] == mirror["session#0"]

    def test_a_delta_on_base_1_applies_to_the_agents_own_spec_value(self):
        # the pump never exports a spec value, so a key's first delta is
        # based on it; another agent's slot is never read
        spec = {"sessions": {"s1": {"n": 1}, "s2": {"n": 2}}}
        other = {"routing#0": {"sessions": {"value": {"s9": {}}, "version": 1}}}
        body = self.delta(2, 1, set_=[(["s2", "n"], 3)], drop=[["s1"]])
        merged = merge_digest(other, "session#0", body, spec)
        assert merged["session#0"] == {"sessions": {"value": {"s2": {"n": 3}}, "version": 2}}
        assert merged["routing#0"] is other["routing#0"]
        assert spec == {"sessions": {"s1": {"n": 1}, "s2": {"n": 2}}}  # folded into a copy

    def test_a_delta_for_a_key_neither_the_slot_nor_the_spec_holds_raises(self):
        # not even when another agent's slot or spec would hold it
        other = {"routing#0": {"sessions": {"value": {"s1": {"n": 1}}, "version": 1}}}
        with pytest.raises(DigestGap):
            merge_digest(other, "session#0", self.delta(2, 1, set_=[(["s1", "n"], 2)]),
                         {"topology": {"links": []}})

    @pytest.mark.parametrize("held_version, base", [(4, 3), (4, 5), (4, 0), (None, 2), (None, 0)])
    def test_delta_on_another_base_raises(self, held_version, base):
        mirror = {} if held_version is None else self.held({"s1": {"n": 1}}, held_version)
        with pytest.raises(DigestGap):
            merge_digest(mirror, "session#0", self.delta(6, base, set_=[(["s1", "n"], 2)]), {})

    def test_deltas_fold_back_into_what_the_agent_exports(self):
        store = FactsStore({})
        store.put("sessions", {"s1": {"n": 1}, "s2": {"n": 2}})
        store.put("peers", ["a", "b"])
        mirror = {}

        def pump():
            nonlocal mirror
            keys = store.digest(["sessions", "peers"])
            wire = decode_body(encode_body(keys))
            mirror = merge_digest(mirror, "session#0", wire, {})
            assert mirror["session#0"] == store.export(["sessions", "peers"])
            return keys

        first = pump()
        assert first == store.export(["sessions", "peers"])  # never exported: whole
        sessions = store.get("sessions")
        store.put("sessions", {**sessions, "s2": {"n": 3}})
        second = pump()["sessions"]
        assert (second["base"], second["set"], second["drop"]) == (1, [[["s2", "n"], 3]], [])
        store.put("sessions", {"s2": store.get("sessions")["s2"], "s4": {"n": 4}})
        third = pump()
        assert list(third) == ["sessions"]
        assert (third["sessions"]["set"], third["sessions"]["drop"]) == (
            [[["s4"], {"n": 4}]], [["s1"]]
        )

    def test_one_install_into_a_large_rule_table_ships_one_leaf(self):
        def install(facts, path, src, dst, klass, first):
            body = {"op": "install", "ctx": "x", "path": path, "src": src, "dst": dst,
                    "class": klass, "first": first}
            return forwarding_decide(facts, request(body, dst="forwarding#0"))["facts"][0]

        # sixty bulk sessions over s1 -> s2 fill the table in one write
        facts = {"switch-rules": {}}
        for n in range(60):
            facts.update([install(facts, ["s1", "s2"], "h1", f"h{n + 2}", "bulk", 2 * n + 1)])
        store = FactsStore({})
        store.put("switch-rules", {})
        store.put("switch-rules", facts["switch-rules"])
        last = (store.export(["switch-rules"])["switch-rules"]["version"], store.get("switch-rules"))
        store.put(*install(store.snapshot(), ["s1"], "h9", "h1", "interactive", 900))
        assert len(last[1]["s1"]) == 60
        doc = digest_delta(store.export(["switch-rules"])["switch-rules"], last)
        assert (doc["base"], doc["set"], doc["drop"]) == (2, [[["s1", "h9|h1|20"], "r0900"]], [])


# Nested values for the digest property: few keys and leaves, so that two
# draws share structure. Leaves are JSON-exact (no bool next to int, no
# float), so "exactly" can be checked on the canonical bytes too.
_SUBS = st.sampled_from(["a", "b", "c", "s1|s2"])
_LEAVES = st.one_of(st.none(), st.integers(-2, 2), st.sampled_from(["", "x", "y"]))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_SUBS, inner, max_size=3),
    max_leaves=12,
)
_TABLES = st.dictionaries(_SUBS, _VALUES, max_size=4)


@st.composite
def _edited(draw, value, top=False):
    """value with some subtrees kept by reference, some replaced and some
    edited in turn: a later export of the same fact (a table at the top)."""
    how = "edit" if top else draw(st.sampled_from(["keep", "replace", "edit"]))
    if how == "keep":
        return value
    if how == "replace" or not isinstance(value, (dict, list)):
        return draw(_VALUES)
    if isinstance(value, list):
        return [draw(_edited(v)) for v in value] + draw(st.lists(_VALUES, max_size=1))
    out = {sub: draw(_edited(v)) for sub, v in value.items() if draw(st.integers(0, 3))}
    return {**out, **draw(st.dictionaries(_SUBS, _VALUES, max_size=2))}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_property_a_delta_folds_its_base_into_exactly_the_new_value(data):
    old = freeze(data.draw(_TABLES))
    new = freeze(data.draw(_edited(old, top=True)))
    doc = digest_delta({"version": 5, "value": new}, (4, old))
    body = decode_body(encode_body({"k": doc}))
    mirror = {"a#0": {"k": {"value": old, "version": 4}}}
    merged = merge_digest(mirror, "a#0", body, {})["a#0"]["k"]
    assert merged == {"value": new, "version": 5}
    assert encode_body(merged["value"]) == encode_body(new)
    # any other base is a gap, 0 included: a delta never replaces the key
    other = data.draw(st.integers(0, 5).filter(lambda v: v != 4))
    with pytest.raises(DigestGap):
        merge_digest({"a#0": {"k": {"value": old, "version": other}}}, "a#0", body, {})


class TestSessionAgent:
    def test_decision_copies_only_the_records_it_changes(self):
        store = FactsStore({})
        store.put("peers", ["forwarding#0", "session#0"])
        store.put(
            "sessions",
            {
                "s0001": session_record("s0001", "h1", "h2", "bulk", 1, state=ACTIVE, path=["s1"]),
                "s0002": session_record("s0002", "h2", "h1", "bulk", 2, state=PENDING),
            },
        )
        store.put(
            "pending",
            {"s0002": {"stage": "install", "path": ["s3", "s2"]}},
        )
        stored = store.get("sessions")
        answer = AgentInput(
            Message(
                msg_id=next(_IDS), src=AgentId.parse("forwarding#0"),
                dst=AgentId.parse("session#0"), kind=MessageKind.RESPONSE,
                payload=b"",
            ),
            {"ok": True, "installed": 2, "ctx": "s0002"},
        )
        writes = dict(session_decide(store.snapshot(), answer)["facts"])
        assert writes["sessions"]["s0001"] is stored["s0001"]
        assert writes["sessions"]["s0002"]["state"] == ACTIVE
        assert writes["sessions"]["s0002"]["path"] == ["s3", "s2"]
        assert writes["pending"] == {}
        assert store.get("sessions") is stored
        assert stored["s0002"]["state"] == PENDING


class TestSessionConversation:
    """One session's classify -> path -> admit -> install conversation, one
    decision at a time: what each stage asks for and where it moves next."""

    PEERS = ["classifier#0", "forwarding#0", "qos#0", "routing#0", "session#0"]
    PATH = ["s1", "s2", "s3"]

    def facts(self, sessions=(), pending=(), rule_seq=0, **extra):
        return {
            "peers": self.PEERS,
            "topology": TOPO,
            "sessions": {r["session_id"]: r for r in sessions},
            # each pending record is the conversation of the session in
            # the same place
            "pending": {r["session_id"]: p for r, p in zip(sessions, pending)},
            "rule-seq": rule_seq,
            **extra,
        }

    def pending(self, stage, **fields):
        # only what the conversation adds to the session's record
        return {"stage": stage, **fields}

    def session(self, state=PENDING, klass="", **fields):
        return {**session_record("s0001", "h1", "h2", klass, 4, state=state, gap=1, size=5),
                **fields}

    def decide(self, facts, inp):
        dec = session_decide(facts, inp)
        writes = dict(dec.get("facts", []))
        asks = [(s["action"], str(s["target"]), s["params"]) for s in dec.get("plan", [])]
        return writes, asks

    def answer(self, body, src):
        return AgentInput(
            Message(msg_id=next(_IDS), src=AgentId.parse(src), dst=AgentId.parse("session#0"),
                    kind=MessageKind.RESPONSE, payload=b""),
            {**body, "ctx": "s0001"},
        )

    def install(self, first, klass="realtime"):
        # the install body: the path and the number of its first rule
        return {"path": self.PATH, "src": "h1", "dst": "h2", "class": klass,
                "first": first, "ctx": "s0001"}

    def remove(self, path, klass="realtime"):
        return {"path": path, "src": "h1", "dst": "h2", "class": klass, "ctx": "s0001"}

    def with_down(self, *links):
        return {**TOPO, "links": [{**l, "up": (l["a"], l["b"]) not in links}
                                  for l in TOPO["links"]]}

    # -- stage requests and transitions --------------------------------------------

    def test_packet_in_opens_a_session_and_asks_to_classify(self):
        # delivered late, as after a broker respawn: the session dates from
        # the tick the packet-in happened at, as in the monolith
        inp = event("events.packet_in", {"switch": "s1", "src": "h1", "dst": "h2", "at": 4,
                                          "size": 5, "gap": 1, "hint": None},
                    dst="session#0")
        writes, asks = self.decide(self.facts(), inp)
        # the sessions table is the agent's one record of what it opened
        assert sorted(writes) == ["pending", "rule-seq", "sessions"]
        assert writes["sessions"]["s0001"] == self.session()
        assert writes["pending"]["s0001"] == self.pending("classify", hint=None)
        assert asks == [("classify", "classifier#0",
                         {"size": 5, "gap": 1, "hint": None, "ctx": "s0001"})]

    def test_a_new_session_is_numbered_after_the_sessions_held(self):
        # sessions are never dropped, so the table's size numbers the next
        inp = event("events.packet_in", {"switch": "s3", "src": "h2", "dst": "h1", "at": 9,
                                          "size": 5, "gap": 1}, dst="session#0")
        facts = self.facts([self.session(ACTIVE, "interactive", path=self.PATH)], rule_seq=3)
        writes, asks = self.decide(facts, inp)
        assert sorted(writes["sessions"]) == ["s0001", "s0002"]
        assert sorted(writes["pending"]) == ["s0002"]
        assert [params["ctx"] for _action, _target, params in asks] == ["s0002"]

    def test_packet_in_for_a_known_session_in_flight_asks_nothing(self):
        inp = event("events.packet_in", {"switch": "s1", "src": "h1", "dst": "h2", "at": 5,
                                          "size": 5, "gap": 1}, dst="session#0")
        in_flight = self.facts([self.session()], [self.pending("classify")])
        # an active session's rules leave a switch only with a reroute, which
        # takes the session out of ACTIVE, so nothing is installed again
        active = self.facts([self.session(ACTIVE, "interactive", path=self.PATH)], rule_seq=3)
        for facts in (in_flight, active):
            writes, asks = self.decide(facts, inp)
            assert asks == []
            assert writes["pending"] == facts["pending"]
            assert writes["sessions"] == facts["sessions"]
            assert writes["rule-seq"] == facts["rule-seq"]

    def test_class_answer_asks_for_a_path(self):
        facts = self.facts([self.session()], [self.pending("classify")])
        writes, asks = self.decide(facts, self.answer({"class": "realtime"}, "classifier#0"))
        assert writes["sessions"]["s0001"]["class"] == "realtime"
        assert writes["pending"]["s0001"] == self.pending("path")
        assert asks == [("path", "routing#0", {"src": "h1", "dst": "h2", "ctx": "s0001"})]

    def test_realtime_path_answer_asks_for_admission(self):
        facts = self.facts([self.session(klass="realtime")],
                           [self.pending("path")])
        writes, asks = self.decide(facts, self.answer({"path": self.PATH}, "routing#0"))
        assert writes["pending"]["s0001"] == self.pending(
            "admit", path=self.PATH)
        assert asks == [("admit", "qos#0", {"path": self.PATH, "gap": 1, "ctx": "s0001",
                                            "class": "realtime"})]
        assert writes["rule-seq"] == 0

    def test_other_path_answer_installs_with_fresh_rule_ids(self):
        facts = self.facts([self.session(klass="bulk")],
                           [self.pending("path")], rule_seq=7)
        writes, asks = self.decide(facts, self.answer({"path": self.PATH}, "routing#0"))
        # rule ids r0008, r0009 and r0010: forwarding numbers them from first
        assert writes["rule-seq"] == 10
        assert writes["pending"]["s0001"] == self.pending(
            "install", path=self.PATH)
        assert asks == [("install", "forwarding#0", self.install(8, "bulk"))]

    def test_admission_marks_the_reservation_and_installs(self):
        facts = self.facts([self.session(klass="realtime")],
                           [self.pending("admit", path=self.PATH)])
        writes, asks = self.decide(facts, self.answer({"admitted": True}, "qos#0"))
        assert writes["pending"]["s0001"] == self.pending(
            "install", path=self.PATH, reserved=True)
        assert asks == [("install", "forwarding#0", self.install(1))]

    def test_install_answer_activates_the_session(self):
        facts = self.facts(
            [self.session(klass="realtime")],
            [self.pending("install", path=self.PATH, reserved=True)],
            rule_seq=3,
        )
        writes, asks = self.decide(facts, self.answer({"ok": True, "installed": 3},
                                                      "forwarding#0"))
        assert asks == []
        assert writes["pending"] == {}
        assert writes["sessions"]["s0001"] == self.session(
            ACTIVE, "realtime", path=self.PATH, reserved=True)

    def test_answer_for_another_stage_or_session_is_ignored(self):
        facts = self.facts([self.session()], [self.pending("classify")])
        writes, asks = self.decide(facts, self.answer({"path": self.PATH}, "routing#0"))
        assert asks == [] and writes["pending"] == facts["pending"]
        stray = AgentInput(self.answer({}, "routing#0").message, {"class": "bulk", "ctx": "s9"})
        writes, asks = self.decide(facts, stray)
        assert asks == [] and writes["pending"] == facts["pending"]

    # -- endings ---------------------------------------------------------------------

    def test_no_path_answer_ends_unroutable_without_a_release(self):
        facts = self.facts([self.session(klass="bulk")],
                           [self.pending("path")])
        writes, asks = self.decide(facts, self.answer({"path": None}, "routing#0"))
        assert asks == []
        assert writes["pending"] == {}
        rec = writes["sessions"]["s0001"]
        assert (rec["state"], rec["reason"]) == (UNROUTABLE, "no-path")

    def test_qos_denial_ends_unroutable_without_a_release(self):
        facts = self.facts([self.session(klass="realtime")],
                           [self.pending("admit", path=self.PATH)])
        writes, asks = self.decide(facts, self.answer({"admitted": False}, "qos#0"))
        assert asks == []
        assert writes["pending"] == {}
        rec = writes["sessions"]["s0001"]
        assert (rec["state"], rec["reason"]) == (UNROUTABLE, "qos-denied")

    def test_violation_denies_the_install_and_releases_the_reservation(self):
        facts = self.facts(
            [self.session(klass="realtime")],
            [self.pending("install", path=self.PATH, reserved=True)],
        )
        body = {"agent": "forwarding#0", "violations": [["rule-cap", "s1: 4 rules"]],
                "steps": [{"action": "install-rule", "target": "s1",
                           "params": {"rule": {}, "ctx": "s0001"}},
                          {"action": "install-rule", "target": "s2",
                           "params": {"rule": {}, "ctx": "s0404"}}]}
        writes, asks = self.decide(facts, event("events.violation", body, dst="session#0"))
        assert asks == [("release", "qos#0", {"ctx": "s0001"})]
        assert writes["pending"] == {}
        rec = writes["sessions"]["s0001"]
        assert (rec["state"], rec["reason"], rec["reserved"]) == (
            UNROUTABLE, "policy-denied", False)

    def test_a_capped_install_is_a_violation_the_session_agent_denies(self):
        # the host validates forwarding's derived plan against the cap: s1
        # already holds its one rule, so the install becomes a violation
        # event, and its steps carry the ctx the session agent denies
        cap = {"policy_id": "cap", "issuer_level": "network", "scope": ["forwarding"],
               "rules": [{"action_kind": "install-rule", "target_class": "switch",
                          "effect": "deny", "max_per_target": 1}]}
        host = AgentHost()
        fwd = AgentId(FunctionKind.FORWARDING, 0)
        host.spawn_agent(AgentSpec(fwd, "forwarding", {
            "topology": TOPO, "policies": [cap], "switch-rules": {"s1": {"h3|h1|10": "r0001"}},
        }))
        path = self.PATH
        body = {"op": "install", "ctx": "s0001", "path": path, "src": "h1", "dst": "h2",
                "class": "realtime", "first": 2}
        msg = host.factory.new_message(src=AgentId.parse("session#0"), dst=fwd,
                                       kind=MessageKind.REQUEST, payload=encode_body(body))
        (out,) = host.process_input(fwd, msg)
        assert str(out.dst) == "events.violation"
        violation = decode_body(out.payload)["body"]
        assert [s["params"]["ctx"] for s in violation["steps"]] == ["s0001"] * len(path)
        assert host.agents[fwd].facts.get("switch-rules") == {"s1": {"h3|h1|10": "r0001"}}
        facts = self.facts([self.session(klass="realtime")],
                           [self.pending("install", path=path)],
                           rule_seq=4)
        writes, asks = self.decide(facts, event("events.violation", violation, dst="session#0"))
        assert asks == [] and writes["pending"] == {}
        assert writes["sessions"]["s0001"]["reason"] == "policy-denied"
        assert writes["rule-seq"] == 4  # the ids the denied install took stay taken

    # -- topology sweeps -------------------------------------------------------------------

    def test_sweep_reroutes_a_broken_reserved_session(self):
        old = ["s1", "s3"]
        view = self.with_down(("s1", "s3"))
        facts = self.facts([self.session(ACTIVE, "realtime", path=old, reserved=True)],
                           topology=view)
        inp = event("events.link", {"a": "s1", "b": "s3", "state": "down"},
                    dst="session#0")
        writes, asks = self.decide(facts, inp)
        assert asks == [
            ("remove", "forwarding#0", self.remove(old)),
            ("release", "qos#0", {"ctx": "s0001"}),
            ("admit", "qos#0", {"path": self.PATH, "gap": 1, "ctx": "s0001",
                                "class": "realtime"}),
        ]
        rec = writes["sessions"]["s0001"]
        assert (rec["state"], rec["reason"], rec["reserved"]) == (UPDATING, None, False)
        assert writes["pending"]["s0001"] == {"stage": "admit", "path": self.PATH}

    def test_reroute_denied_by_qos_ends_unroutable_after_one_release(self):
        facts = self.facts([self.session(ACTIVE, "realtime", path=["s1", "s3"], reserved=True)],
                           topology=self.with_down(("s1", "s3")))
        inp = event("events.link", {"a": "s1", "b": "s3", "state": "down"},
                    dst="session#0")
        writes, asks = self.decide(facts, inp)
        assert [a[0] for a in asks] == ["remove", "release", "admit"]
        writes, asks = self.decide({**facts, **writes},
                                   self.answer({"admitted": False}, "qos#0"))
        assert asks == []  # the reservation went back before the re-admission
        assert writes["pending"] == {}
        rec = writes["sessions"]["s0001"]
        assert (rec["state"], rec["reason"], rec["reserved"]) == (
            UNROUTABLE, "qos-denied", False)

    def test_sweep_reroutes_a_broken_bulk_session_straight_to_install(self):
        old = ["s1", "s3"]
        view = self.with_down(("s1", "s3"))
        facts = self.facts([self.session(ACTIVE, "bulk", path=old)], topology=view)
        inp = event("events.tick", None, dst="session#0")
        writes, asks = self.decide(facts, inp)
        assert asks == [
            ("remove", "forwarding#0", self.remove(old, "bulk")),
            ("install", "forwarding#0", self.install(1, "bulk")),
        ]
        assert writes["pending"]["s0001"]["stage"] == "install"
        assert writes["rule-seq"] == 3

    def test_each_tick_it_is_handed_sweeps(self):
        # the bridge hands the session agent a tick, with no body, on refresh
        # ticks alone, so the agent sweeps on every tick it is handed
        tick = event("events.tick", None, dst="session#0")
        broken = self.facts([self.session(ACTIVE, "bulk", path=["s1", "s3"])],
                            topology=self.with_down(("s1", "s3")))
        assert [a[0] for a in self.decide(broken, tick)[1]] == ["remove", "install"]
        intact = self.facts([self.session(ACTIVE, "bulk", path=["s1", "s3"])])
        assert self.decide(intact, tick)[1] == []

    def test_sweep_leaves_a_cut_off_session_unroutable_and_releases(self):
        old = ["s1", "s2", "s3"]
        view = self.with_down(("s1", "s3"), ("s2", "s3"))
        facts = self.facts([self.session(ACTIVE, "realtime", path=old, reserved=True)],
                           topology=view)
        inp = event("events.link", {"a": "s2", "b": "s3", "state": "down"},
                    dst="session#0")
        writes, asks = self.decide(facts, inp)
        assert asks == [
            ("remove", "forwarding#0", self.remove(old)),
            ("release", "qos#0", {"ctx": "s0001"}),
        ]
        assert writes["pending"] == {}
        rec = writes["sessions"]["s0001"]
        assert (rec["state"], rec["reason"], rec["path"], rec["reserved"]) == (
            UNROUTABLE, "no-path", None, False)

    def test_declared_flow_opens_a_session_dated_by_its_announcement(self):
        # announced the tick before its start and delivered late, as after a
        # respawn: the session dates from the tick the event carries
        flow = {"src": "h1", "dst": "h2", "at": 4, "size": 5, "gap": 1, "hint": "bulk"}
        writes, asks = self.decide(self.facts(), event("events.flow", flow, dst="session#0"))
        assert writes["sessions"] == {"s0001": self.session()}
        assert writes["pending"]["s0001"] == self.pending("classify", hint="bulk")
        assert asks == [("classify", "classifier#0",
                         {"size": 5, "gap": 1, "hint": "bulk", "ctx": "s0001"})]
        # the packet-in's find_session check: a known flow opens nothing
        known = self.facts([self.session()], [self.pending("classify")])
        again = event("events.flow", {**flow, "at": 9}, dst="session#0")
        writes, asks = self.decide(known, again)
        assert asks == []
        assert writes["sessions"] == known["sessions"]


class TestBrokerAgent:
    def sub_facts(self):
        # the subscription table a broker's spec carries
        return {"role": "solo", "subs": {"events.*": ["monitoring#0"]}}

    def test_publish_delivers_to_matching_subscribers(self):
        facts = self.sub_facts()
        out = broker_decide(facts, publish("events.flow", {"n": 1}))
        (pstep,) = out["plan"]
        assert pstep["action"] == "deliver-event"
        assert str(pstep["target"]) == "monitoring#0"
        # the envelope is the publish itself, with no stamp added
        assert pstep["params"]["event"] == {"topic": "events.flow", "body": {"n": 1}}

    def test_mesh_role_forwards_to_peer_brokers(self):
        facts = self.sub_facts()
        facts.update({"role": "mesh", "relays": {"event-distribution#1": ["events.*"]}})
        out = broker_decide(facts, publish("events.flow", {"n": 2}))
        actions = [(s["action"], str(s["target"])) for s in out["plan"]]
        assert ("forward-event", "event-distribution#1") in actions

    def test_forwarded_envelope_is_not_reforwarded(self):
        facts = self.sub_facts()
        facts.update({"role": "mesh", "relays": {"event-distribution#1": ["events.*"]}})
        env = {"topic": "events.flow", "body": {"n": 3}}
        out = broker_decide(facts, forwarded(env, src="event-distribution#1"))
        actions = [s["action"] for s in out["plan"]]
        assert actions == ["deliver-event"]

    def test_root_relays_a_forwarded_envelope_to_every_level_broker_but_its_sender(self):
        relays = {f"event-distribution#{i}": ["events.flow"] for i in (1, 2, 3, 4)}
        facts = {"role": "root", "subs": {}, "relays": relays}
        env = {"topic": "events.flow", "body": {"n": 4}}
        out = broker_decide(facts, forwarded(env, src="event-distribution#2"))
        targets = [str(s["target"]) for s in out["plan"] if s["action"] == "forward-event"]
        assert targets == ["event-distribution#1", "event-distribution#3", "event-distribution#4"]
        assert "facts" not in out

    @pytest.mark.parametrize("role", ["mesh", "level", "root"])
    def test_a_relay_goes_only_towards_a_matching_subscriber(self, role):
        # each neighbour is listed with the filters a subscriber behind it
        # reads; a topic none of them matches stays where it was published
        relays = {"event-distribution#1": ["events.link"],
                  "event-distribution#2": ["events.*"],
                  "event-distribution#3": ["events.flow", "events.packet_in"]}
        facts = {"role": role, "subs": {}, "relays": relays}
        env_in = forwarded if role == "root" else (lambda env, src: publish(env["topic"], env["body"]))
        for topic, want in [("events.link", ["event-distribution#1", "event-distribution#2"]),
                            ("events.flow", ["event-distribution#2", "event-distribution#3"]),
                            ("audit.trace", [])]:
            env = {"topic": topic, "body": {"n": 5}}
            out = broker_decide(facts, env_in(env, src="event-distribution#4"))
            assert [str(s["target"]) for s in out.get("plan", [])] == want, (role, topic)
