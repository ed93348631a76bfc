"""Per-kind cognition behaviour, exercised as pure functions on (facts, input)."""
import pytest

from masdn.core import AgentId, FunctionKind, Message, MessageKind
from masdn.functions import (
    classifier_decide,
    forwarding_decide,
    monitoring_ingest,
    qos_decide,
    routing_decide,
    session_decide,
    topology_decide,
    topology_ingest,
)
from masdn.infra import (
    _autoconf_ingest,
    _kp_ingest,
    autoconf_decide,
    broker_decide,
    fault_decide,
    knowledge_decide,
    registry_decide,
)
from masdn.logic import ACTIVE, PENDING, session_record
from masdn.runtime import AgentInput, FactsStore, bootstrap_steps, event_of, merge_digest, peer_of

_IDS = iter(range(1, 100000))


def request(body, dst="routing#0", src="session#0", now=0):
    return AgentInput(
        Message(
            msg_id=next(_IDS), src=AgentId.parse(src), dst=AgentId.parse(dst),
            kind=MessageKind.REQUEST, payload=b"", sim_time=now,
        ),
        body,
    )


def event(topic, body, dst="routing#0", src="topology#0", now=0):
    return AgentInput(
        Message(
            msg_id=next(_IDS), src=AgentId.parse(src), dst=AgentId.parse(dst),
            kind=MessageKind.EVENT, payload=b"", sim_time=now,
        ),
        {"topic": topic, "body": body},
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
                    MessageKind.EVENT, b"", 0),
            {"no": "topic"},
        )
        assert event_of(inp) is None
        assert event_of(event("events.link", {"x": 1})) == ("events.link", {"x": 1})

    def test_peer_of_picks_lowest_instance(self):
        facts = {"peers": ["registry#2", "registry#0", "qos#1"]}
        assert peer_of(facts, FunctionKind.REGISTRY) == "registry#0"
        assert peer_of(facts, FunctionKind.FAULT) is None

    def test_bootstrap_registers_then_subscribes(self):
        facts = {
            "registry": "registry#0",
            "home-broker": "event-distribution#0",
            "subscriptions": ["events.tick", "facts.topology"],
        }
        steps = bootstrap_steps(facts, request({}, dst="routing#0"))
        assert [s["action"] for s in steps] == ["register", "subscribe", "subscribe"]
        assert steps[0]["params"]["descriptor"]["agent"] == "routing#0"


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

    def test_ingest_without_a_view_is_inert(self):
        assert topology_ingest({}, event("events.link", {"a": "s1", "b": "s2", "state": "down"})) == []

    def test_view_refresh_replaces_wholesale(self):
        writes = topology_ingest(
            {"topology": TOPO}, event("facts.topology", {"view": {"links": [], "hosts": {}}})
        )
        assert writes == [("topology", {"links": [], "hosts": {}})]

    def test_change_is_rebroadcast(self):
        out = topology_decide(
            {"topology": TOPO},
            event("events.link", {"a": "s1", "b": "s2", "state": "down"}, dst="topology#0"),
        )
        topics = [e["topic"] for e in out.decision.get("events", [])]
        assert topics == ["facts.topology"]


class TestRoutingAgent:
    def test_path_request_answers_with_ctx(self):
        out = routing_decide(
            {"topology": TOPO}, request({"op": "path", "src": "h1", "dst": "h2", "ctx": "f1"})
        )
        (resp,) = out.decision["responses"]
        assert resp == {"path": ["s1", "s2", "s3"], "ctx": "f1"}

    def test_unknown_host_yields_none_path(self):
        out = routing_decide(
            {"topology": TOPO}, request({"op": "path", "src": "h1", "dst": "h9", "ctx": "f1"})
        )
        assert out.decision["responses"][0]["path"] is None

    def test_missing_topology_escalates(self):
        out = routing_decide({}, request({"op": "path", "src": "h1", "dst": "h2"}))
        assert out.decision["escalate"]["reason"] == "no-topology"


class TestClassifierAgent:
    def test_defaults_and_fact_thresholds(self):
        fast = request({"op": "classify", "size": 10, "gap": 1, "ctx": "x"})
        assert classifier_decide({}, fast).decision["responses"][0]["class"] == "realtime"
        tuned = classifier_decide({"thresholds": {"gap": 1}}, fast)
        assert tuned.decision["responses"][0]["class"] == "interactive"


class TestQosAgent:
    ADMIT = {
        "op": "admit", "ctx": "s-1", "class": "realtime",
        "gap": 1, "path": ["s1", "s2", "s3"],
    }

    def test_realtime_reserves_on_every_path_link(self):
        out = qos_decide({"topology": TOPO}, request(self.ADMIT, dst="qos#0"))
        assert out.decision["responses"][0]["admitted"] is True
        writes = dict(out.decision["facts"])
        assert set(writes["reservations"]) == {"s1|s2", "s2|s3"}
        assert "s-1" in writes["admitted"]

    def test_readmission_by_ctx_is_idempotent(self):
        granted = {"s-1": {"links": ["s1|s2"], "rate": 1000}}
        out = qos_decide(
            {"topology": TOPO, "admitted": granted}, request(self.ADMIT, dst="qos#0")
        )
        assert out.decision["responses"][0]["admitted"] is True
        assert "facts" not in out.decision  # nothing double-reserved

    def test_denial_when_budget_is_full(self):
        # capacity 10 at 800 permille = 8000 milliunits; gap 1 wants 1000
        facts = {
            "topology": TOPO,
            "reservations": {"s1|s2": 7500, "s2|s3": 0},
        }
        out = qos_decide(facts, request(self.ADMIT, dst="qos#0"))
        assert out.decision["responses"][0]["admitted"] is False
        assert "facts" not in out.decision

    def test_non_realtime_is_waved_through(self):
        body = dict(self.ADMIT, **{"class": "bulk"})
        out = qos_decide({}, request(body, dst="qos#0"))
        assert out.decision["responses"][0]["admitted"] is True
        assert "facts" not in out.decision

    def test_release_refunds_and_reports(self):
        facts = {
            "topology": TOPO,
            "reservations": {"s1|s2": 1000, "s2|s3": 1000},
            "admitted": {"s-1": {"links": ["s1|s2", "s2|s3"], "rate": 1000}},
        }
        out = qos_decide(facts, request({"op": "release", "ctx": "s-1"}, dst="qos#0"))
        assert out.decision["responses"][0]["released"] is True
        writes = dict(out.decision["facts"])
        assert writes["reservations"] == {}
        assert writes["admitted"] == {}
        again = qos_decide({}, request({"op": "release", "ctx": "s-1"}, dst="qos#0"))
        assert again.decision["responses"][0]["released"] is False


class TestForwardingAgent:
    RULE = {
        "rule_id": "r1", "match": {"src": "h1", "dst": "h2"},
        "priority": 20, "action": "forward", "next_hop": "s2",
    }

    def test_install_plans_one_step_per_switch(self):
        body = {"op": "install", "ctx": "s-1", "rules": [["s1", self.RULE]]}
        out = forwarding_decide({}, request(body, dst="forwarding#0"))
        (pstep,) = out.decision["plan"]
        assert pstep["action"] == "install-rule"
        assert pstep["target"] == "s1"
        assert out.decision["responses"][0]["installed"] == 1
        writes = dict(out.decision["facts"])
        assert writes["switch-rules"] == {"s1": {"h1|h2|20": "r1"}}

    def test_remove_mirrors_install_bookkeeping(self):
        occupied = {"s1": {"h1|h2|20": "r1"}}
        body = {"op": "remove", "ctx": "s-1", "rules": [["s1", self.RULE]]}
        out = forwarding_decide({"switch-rules": occupied}, request(body, dst="forwarding#0"))
        (pstep,) = out.decision["plan"]
        assert pstep["action"] == "remove-rule"
        assert out.decision["responses"][0]["removed"] == 1
        assert dict(out.decision["facts"])["switch-rules"] == {"s1": {}}


class TestMonitoringAgent:
    def test_stats_accumulate_per_link(self):
        first = monitoring_ingest(
            {}, event("events.stats", {"links": [["s1", "s2", 7, 1]]}, dst="monitoring#0")
        )
        facts = {"load": dict(first)["load"]}
        second = monitoring_ingest(
            facts, event("events.stats", {"links": [["s1", "s2", 3, 0]]}, dst="monitoring#0")
        )
        assert dict(second)["load"] == {"s1|s2": [10, 1]}


class TestRegistryAgent:
    DESC = {
        "agent": "routing#0", "capabilities": ["routing"],
        "endpoint": "routing#0", "lease_ttl": 10,
    }

    def test_register_then_discover(self):
        out = registry_decide({}, request({"op": "register", "descriptor": self.DESC},
                                          dst="registry#0", now=5))
        assert out.decision["responses"][0] == {"ok": True, "expires_at": 15}
        leases = dict(out.decision["facts"])["leases"]
        found = registry_decide(
            {"leases": leases},
            request({"op": "discover", "kind": "routing"}, dst="registry#0", now=5),
        )
        assert [d["agent"] for d in found.decision["responses"][0]["agents"]] == ["routing#0"]

    def test_heartbeat_event_renews(self):
        leases = dict(
            registry_decide({}, request({"op": "register", "descriptor": self.DESC},
                                        dst="registry#0", now=0)).decision["facts"]
        )["leases"]
        out = registry_decide(
            {"leases": leases},
            event("hb", {"agent": "routing#0", "tick": 5}, dst="registry#0", now=5),
        )
        assert dict(out.decision["facts"])["leases"]["routing#0"]["expires_at"] == 15

    def test_expiry_on_tick_announces_change(self):
        leases = dict(
            registry_decide({}, request({"op": "register", "descriptor": self.DESC},
                                        dst="registry#0", now=0)).decision["facts"]
        )["leases"]
        out = registry_decide(
            {"leases": leases}, event("events.tick", {"tick": 11}, dst="registry#0", now=11)
        )
        changed = [e for e in out.decision["events"] if e["topic"] == "registry.changed"]
        assert changed[0]["body"]["live"] == []
        assert dict(out.decision["facts"])["leases"] == {}


class TestAutoconfAgent:
    def test_directory_tracks_registry_changes(self):
        writes = _autoconf_ingest(
            {}, event("registry.changed", {"live": ["routing#0", "routing#2", "qos#0"]},
                      dst="autoconf-discovery#0"),
        )
        assert dict(writes)["directory"] == {"routing": ["routing#0", "routing#2"], "qos": ["qos#0"]}

    def test_lookup_answers_from_directory(self):
        facts = {"directory": {"routing": ["routing#0"]}}
        out = autoconf_decide(facts, request({"op": "lookup", "kind": "routing", "ctx": 3},
                                             dst="autoconf-discovery#0"))
        assert out.decision["responses"][0] == {"agents": ["routing#0"], "ctx": 3}
        miss = autoconf_decide(facts, request({"op": "lookup", "kind": "qos"},
                                              dst="autoconf-discovery#0"))
        assert miss.decision["responses"][0]["agents"] == []


class TestFaultAgent:
    def test_escalation_becomes_incident_and_event(self):
        out = fault_decide(
            {}, request({"op": "escalate", "source": "routing#0", "issue": {"reason": "x"}},
                        dst="fault#0", now=9),
        )
        incidents = dict(out.decision["facts"])["incidents"]
        assert incidents == [{"source": "routing#0", "issue": {"reason": "x"}, "at": 9}]
        assert out.decision["events"][0]["topic"] == "events.incident"


class TestKnowledgePlane:
    def test_digest_merge_keeps_newest_version(self):
        inp = event(
            "kp.digest",
            {"agent": "qos#0", "keys": {"reservations": {"version": 2, "value": {"a": 1}}}},
            dst="knowledge-plane#0",
        )
        facts = {"digests": {"qos#0": {"reservations": {"version": 3, "value": {"b": 2}}}}}
        writes = _kp_ingest(facts, inp)
        kept = dict(writes)["digests"]["qos#0"]["reservations"]
        assert kept["version"] == 3  # stale digest ignored

    def test_restore_for_returns_one_agents_keys(self):
        digests = {"qos#0": {"reservations": {"version": 1, "value": {}}}}
        out = knowledge_decide(
            {"digests": digests},
            request({"op": "restore-for", "agent": "qos#0", "ctx": 1}, dst="knowledge-plane#0"),
        )
        assert out.decision["responses"][0]["keys"] == digests["qos#0"]
        empty = knowledge_decide(
            {"digests": digests},
            request({"op": "restore-for", "agent": "routing#0"}, dst="knowledge-plane#0"),
        )
        assert empty.decision["responses"][0]["keys"] == {}


    def test_merge_copies_only_the_sending_agents_slot(self):
        digests = {
            "qos#0": {"reservations": {"version": 1, "value": {}}},
            "routing#0": {"topology": {"version": 4, "value": {"links": []}}},
        }
        body = {"agent": "qos#0", "keys": {"admitted": {"version": 1, "value": {}}}}
        merged = merge_digest(digests, body)
        assert merged["routing#0"] is digests["routing#0"]
        assert merged["qos#0"] == {**digests["qos#0"], **body["keys"]}
        assert "admitted" not in digests["qos#0"]


class TestSessionAgent:
    def test_decision_copies_only_the_records_it_changes(self):
        store = FactsStore()
        store.put("peers", ["forwarding#0", "session#0"], now=0)
        store.put(
            "sessions",
            {
                "s0001": session_record("s0001", "h1", "h2", "bulk", 1, state=ACTIVE, path=["s1"]),
                "s0002": session_record("s0002", "h2", "h1", "bulk", 2, state=PENDING),
            },
            now=0,
        )
        store.put(
            "pending",
            {"s0002": {"sid": "s0002", "stage": "install", "src": "h2", "dst": "h1",
                       "class": "bulk", "path": ["s3", "s2"], "asked_at": 2}},
            now=0,
        )
        stored = store.get("sessions")
        answer = AgentInput(
            Message(
                msg_id=next(_IDS), src=AgentId.parse("forwarding#0"),
                dst=AgentId.parse("session#0"), kind=MessageKind.RESPONSE,
                payload=b"", sim_time=3, correlation_id=1,
            ),
            {"ok": True, "installed": 2, "ctx": "s0002"},
        )
        writes = dict(session_decide(store.snapshot(), answer).decision["facts"])
        assert writes["sessions"]["s0001"] is stored["s0001"]
        assert writes["sessions"]["s0002"]["state"] == ACTIVE
        assert writes["sessions"]["s0002"]["path"] == ["s3", "s2"]
        assert writes["pending"] == {}
        assert store.get("sessions") is stored
        assert stored["s0002"]["state"] == PENDING


class TestBrokerAgent:
    def sub_facts(self):
        out = broker_decide(
            {}, request({"op": "subscribe", "filter": "events.*"},
                        dst="event-distribution#0", src="monitoring#0"),
        )
        return dict(out.decision["facts"])

    def test_subscribe_records_filter_and_peer(self):
        facts = self.sub_facts()
        assert facts["subs"] == {"events.*": ["monitoring#0"]}
        assert facts["peers"] == ["monitoring#0"]

    def test_publish_delivers_to_matching_subscribers(self):
        facts = self.sub_facts()
        out = broker_decide(
            facts, event("events.flow", {"n": 1}, dst="event-distribution#0", src="session#0"),
        )
        (pstep,) = out.decision["plan"]
        assert pstep["action"] == "deliver-event"
        assert str(pstep["target"]) == "monitoring#0"
        env = pstep["params"]["event"]
        assert env["publisher"] == "session#0"
        assert env["topic"] == "events.flow"

    def test_high_water_drops_duplicate_publishes(self):
        facts = self.sub_facts()
        inp = event("events.flow", {"n": 1}, dst="event-distribution#0", src="session#0")
        first = broker_decide(facts, inp)
        facts.update(dict(first.decision["facts"]))
        replay = broker_decide(facts, inp)  # same msg_id arrives again
        assert "plan" not in replay.decision

    def test_mesh_role_forwards_to_peer_brokers(self):
        facts = self.sub_facts()
        facts.update({"role": "mesh", "brokers": ["event-distribution#1"]})
        out = broker_decide(
            facts, event("events.flow", {"n": 2}, dst="event-distribution#0", src="session#0"),
        )
        actions = [(s["action"], str(s["target"])) for s in out.decision["plan"]]
        assert ("forward-event", "event-distribution#1") in actions

    def test_forwarded_envelope_is_not_reforwarded(self):
        facts = self.sub_facts()
        facts.update({"role": "mesh", "brokers": ["event-distribution#1"]})
        env = {"topic": "events.flow", "body": {"n": 3}, "publisher": "session#9",
               "pub_msg_id": 77}
        out = broker_decide(
            facts,
            AgentInput(
                Message(next(_IDS), AgentId.parse("event-distribution#1"),
                        AgentId.parse("event-distribution#0"), MessageKind.EVENT, b"", 0),
                env,
            ),
        )
        actions = [s["action"] for s in out.decision["plan"]]
        assert actions == ["deliver-event"]
