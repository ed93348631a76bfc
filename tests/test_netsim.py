"""Deterministic data plane: topology parsing, stepping, rules, suppression."""
import pytest

from masdn.netsim import (
    DanglingReference,
    LinkDown,
    PacketIn,
    Rule,
    SchemaError,
    Scenario,
    SelfLoop,
    Simulator,
    TickStats,
    Topology,
    UnknownSwitch,
    link_key,
)

TRIANGLE = {
    "switches": ["s1", "s2", "s3"],
    "hosts": [{"id": "h1", "switch": "s1"}, {"id": "h2", "switch": "s3"}],
    "links": [
        {"a": "s1", "b": "s2", "capacity": 10, "latency": 1},
        {"a": "s2", "b": "s3", "capacity": 10, "latency": 1},
        {"a": "s1", "b": "s3", "capacity": 10, "latency": 3},
    ],
}


def scenario(flows=(), failures=(), seed=1, duration=20, **extra):
    return Scenario.from_doc(
        {
            "seed": seed,
            "duration_ticks": duration,
            "flows": list(flows),
            "failures": list(failures),
            **extra,
        },
        Topology.from_doc(TRIANGLE),
    )


def drain(sim, ticks):
    events = []
    for t in range(ticks):
        events.extend(sim.step(t))
    return events


class TestTopologyParsing:
    def test_triangle_document_parses(self):
        topo = Topology.from_doc(TRIANGLE)
        assert len(topo.links) == 3
        assert topo.hosts == {"h1": "s1", "h2": "s3"}

    def test_link_to_unknown_switch_is_rejected(self):
        doc = dict(TRIANGLE, links=[{"a": "s1", "b": "s9", "capacity": 1, "latency": 1}])
        with pytest.raises(DanglingReference):
            Topology.from_doc(doc)

    def test_duplicate_link_is_rejected_regardless_of_orientation(self):
        doc = dict(
            TRIANGLE,
            links=TRIANGLE["links"] + [{"a": "s2", "b": "s1", "capacity": 1, "latency": 1}],
        )
        with pytest.raises(SchemaError):
            Topology.from_doc(doc)

    def test_self_loop_is_rejected(self):
        doc = dict(TRIANGLE, links=[{"a": "s1", "b": "s1", "capacity": 1, "latency": 1}])
        with pytest.raises(SelfLoop):
            Topology.from_doc(doc)

    def test_host_on_unknown_switch_is_rejected(self):
        doc = dict(TRIANGLE, hosts=[{"id": "h1", "switch": "s9"}])
        with pytest.raises(DanglingReference):
            Topology.from_doc(doc)

    @pytest.mark.parametrize("key", ["switches", "hosts", "links"])
    @pytest.mark.parametrize("value", ["s1s2s3", {"s1": "s2"}, None])
    def test_a_part_that_is_not_a_list_is_refused(self, key, value):
        # a string was once read as its characters: "ab" ran switches a and b
        with pytest.raises(SchemaError):
            Topology.from_doc({**TRIANGLE, key: value})

    @pytest.mark.parametrize("key", ["capacity", "latency"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", True])
    def test_a_link_number_that_is_not_a_json_integer_is_refused(self, key, value):
        doc = dict(TRIANGLE, links=[{**TRIANGLE["links"][0], key: value}])
        with pytest.raises(SchemaError):
            Topology.from_doc(doc)


    # each was once used as it came: a list as a switch id ended in
    # TypeError: unhashable type, a number ran as an id
    @pytest.mark.parametrize("value", [["x"], 7, None])
    @pytest.mark.parametrize("where", ["switch", "host-id", "host-switch", "link-a", "link-b"])
    def test_an_id_that_is_not_a_string_is_refused(self, where, value):
        link = TRIANGLE["links"][0]
        doc = {
            "switch": {**TRIANGLE, "switches": [*TRIANGLE["switches"], value]},
            "host-id": {**TRIANGLE, "hosts": [{"id": value, "switch": "s1"}]},
            "host-switch": {**TRIANGLE, "hosts": [{"id": "h1", "switch": value}]},
            "link-a": {**TRIANGLE, "links": [{**link, "a": value}]},
            "link-b": {**TRIANGLE, "links": [{**link, "b": value}]},
        }[where]
        with pytest.raises(SchemaError):
            Topology.from_doc(doc)


class TestScenarioParsing:
    def test_flow_with_unknown_host_is_rejected(self):
        with pytest.raises(DanglingReference):
            scenario(flows=[{"src": "h1", "dst": "h9", "start_tick": 0, "size": 1}])

    def test_failure_of_unknown_link_is_rejected(self):
        with pytest.raises(DanglingReference):
            scenario(failures=[{"a": "s1", "b": "s9", "at": 3}])

    def test_non_positive_duration_is_rejected(self):
        with pytest.raises(SchemaError):
            scenario(duration=0)

    @pytest.mark.parametrize("jitter", [-3, "x", None])
    def test_bad_jitter_is_rejected(self, jitter):
        with pytest.raises(SchemaError):
            scenario(jitter=jitter)

    # each was once coerced through int(): 40.9 ran 40 ticks, true ran seed
    # 1 and "2" ran jitter 2
    @pytest.mark.parametrize("key", ["seed", "duration_ticks", "jitter"])
    @pytest.mark.parametrize("value", [40.9, 3.0, "2", True])
    def test_a_header_number_that_is_not_a_json_integer_is_refused(self, key, value):
        with pytest.raises(SchemaError):
            Scenario.from_doc({"seed": 1, "duration_ticks": 20, key: value})

    @pytest.mark.parametrize("key", ["start_tick", "size", "gap"])
    @pytest.mark.parametrize("value", [4.5, 4.0, "4", True])
    def test_a_flow_number_that_is_not_a_json_integer_is_refused(self, key, value):
        flow = {"src": "h1", "dst": "h2", "start_tick": 1, "size": 4, "gap": 1, key: value}
        with pytest.raises(SchemaError):
            scenario(flows=[flow])

    @pytest.mark.parametrize("value", [3.5, 3.0, "3", True])
    def test_a_failure_tick_that_is_not_a_json_integer_is_refused(self, value):
        with pytest.raises(SchemaError):
            scenario(failures=[{"a": "s1", "b": "s2", "at": value}])

    @pytest.mark.parametrize("value", [["h1"], 1, None])
    @pytest.mark.parametrize("key", ["src", "dst"])
    def test_a_flow_end_that_is_not_a_string_is_refused(self, key, value):
        flow = {"src": "h1", "dst": "h2", "start_tick": 1, "size": 4, key: value}
        for topo in (Topology.from_doc(TRIANGLE), None):
            with pytest.raises(SchemaError):
                Scenario.from_doc({"seed": 1, "duration_ticks": 20, "flows": [flow]}, topo)

    @pytest.mark.parametrize("value", [["s1"], 1, None])
    @pytest.mark.parametrize("key", ["a", "b"])
    def test_a_failure_end_that_is_not_a_string_is_refused(self, key, value):
        failure = {"a": "s1", "b": "s2", "at": 3, key: value}
        for topo in (Topology.from_doc(TRIANGLE), None):
            with pytest.raises(SchemaError):
                Scenario.from_doc({"seed": 1, "duration_ticks": 20, "failures": [failure]}, topo)


class TestStepping:
    def test_no_flows_gives_only_stats_ticks(self):
        sim = Simulator(Topology.from_doc(TRIANGLE), scenario())
        events = drain(sim, 20)
        assert all(isinstance(e, TickStats) for e in events)
        assert len(events) == 20

    def test_same_seed_same_event_stream(self):
        flows = [{"src": "h1", "dst": "h2", "start_tick": 2, "size": 8, "gap": 2}]

        def stream():
            sim = Simulator(Topology.from_doc(TRIANGLE), scenario(flows=flows, jitter=3))
            return drain(sim, 20)

        assert stream() == stream()

    def test_jitter_shifts_starts_within_bound(self):
        flows = [{"src": "h1", "dst": "h2", "start_tick": 5, "size": 1} for _ in range(8)]
        sim = Simulator(Topology.from_doc(TRIANGLE), scenario(flows=flows, jitter=4))
        starts = [p.flow.start for p in sim.flows]
        assert all(5 <= s <= 9 for s in starts)
        assert len(set(starts)) > 1  # the realization actually spreads

    def test_ticks_must_be_consumed_in_order(self):
        sim = Simulator(Topology.from_doc(TRIANGLE), scenario())
        sim.step(0)
        with pytest.raises(ValueError):
            sim.step(2)

    def test_link_failure_fires_once_and_is_idempotent(self):
        sim = Simulator(
            Topology.from_doc(TRIANGLE),
            scenario(failures=[{"a": "s1", "b": "s2", "at": 3}, {"a": "s2", "b": "s1", "at": 5}]),
        )
        downs = [e for e in drain(sim, 10) if isinstance(e, LinkDown)]
        assert len(downs) == 1
        assert downs[0].at == 3
        assert link_key(downs[0].a, downs[0].b) == ("s1", "s2")


class TestRules:
    def rule_doc(self, action="deliver", next_hop=None, priority=10):
        return {
            "rule_id": "r1",
            "match": {"src": "h1", "dst": "h2"},
            "priority": priority,
            "action": action,
            "next_hop": next_hop,
        }

    def test_forward_rule_requires_next_hop(self):
        with pytest.raises(SchemaError):
            Rule.from_doc(self.rule_doc(action="forward", next_hop=None), effective_from=0)

    def test_installs_take_effect_next_tick(self):
        flows = [{"src": "h1", "dst": "h2", "start_tick": 1, "size": 10, "gap": 1}]
        sim = Simulator(Topology.from_doc(TRIANGLE), scenario(flows=flows), suppress_ticks=0)
        sim.step(0)
        events = sim.step(1)
        assert any(isinstance(e, PacketIn) for e in events)  # no rule yet
        sim.install_rule("s1", self.rule_doc(action="forward", next_hop="s3"), now=1)
        sim.install_rule("s3", self.rule_doc(), now=1)
        # effective from tick 2: packets stop punting to the controller
        events = sim.step(2)
        assert not any(isinstance(e, PacketIn) for e in events)

    def test_install_on_unknown_switch_is_rejected(self):
        sim = Simulator(Topology.from_doc(TRIANGLE), scenario())
        with pytest.raises(UnknownSwitch):
            sim.install_rule("s9", self.rule_doc(), now=0)

    def test_remove_rule_reports_presence(self):
        sim = Simulator(Topology.from_doc(TRIANGLE), scenario())
        sim.install_rule("s1", self.rule_doc(), now=0)
        assert sim.remove_rule("s1", "h1", "h2", 10) is True
        assert sim.remove_rule("s1", "h1", "h2", 10) is False

    def test_same_slot_reinstall_replaces(self):
        sim = Simulator(Topology.from_doc(TRIANGLE), scenario())
        sim.install_rule("s1", self.rule_doc(action="forward", next_hop="s2"), now=0)
        sim.install_rule("s1", self.rule_doc(action="forward", next_hop="s3"), now=0)
        docs = sim.table_docs(now=5)["s1"]
        assert len(docs) == 1
        assert docs[0]["next_hop"] == "s3"

    def test_higher_priority_wins_lookup(self):
        sim = Simulator(Topology.from_doc(TRIANGLE), scenario())
        sim.install_rule("s1", self.rule_doc(action="forward", next_hop="s2", priority=10), now=0)
        sim.install_rule("s1", self.rule_doc(action="forward", next_hop="s3", priority=30), now=0)
        rule = sim.tables["s1"].lookup("h1", "h2", now=5)
        assert rule.next_hop == "s3"


class TestPacketIn:
    flows = [{"src": "h1", "dst": "h2", "start_tick": 0, "size": 30, "gap": 1}]

    def test_suppression_spaces_out_repeat_packet_ins(self):
        sim = Simulator(
            Topology.from_doc(TRIANGLE), scenario(flows=self.flows), suppress_ticks=4
        )
        hits = [t for t in range(10) for e in sim.step(t) if isinstance(e, PacketIn)]
        assert hits == [0, 4, 8]  # window covers the 3 ticks after each raise

    def test_zero_suppression_fires_every_emission(self):
        sim = Simulator(
            Topology.from_doc(TRIANGLE), scenario(flows=self.flows), suppress_ticks=0
        )
        hits = [t for t in range(4) for e in sim.step(t) if isinstance(e, PacketIn)]
        assert hits == [0, 1, 2, 3]

    def test_a_rule_that_took_effect_and_went_does_not_reopen_the_window(self):
        # raised at 0; a deliver rule at s1 (h2's switch here is s3, so the
        # unit counts as dropped, but it matches and raises nothing) is in
        # effect for ticks 2 and 3, then removed: the miss at 4 is still in
        # the window the packet-in at 0 opened
        sim = Simulator(
            Topology.from_doc(TRIANGLE), scenario(flows=self.flows), suppress_ticks=6
        )
        rule = {"rule_id": "r1", "match": {"src": "h1", "dst": "h2"}, "priority": 10,
                "action": "deliver", "next_hop": None}
        hits = [t for t in range(2) for e in sim.step(t) if isinstance(e, PacketIn)]
        sim.install_rule("s1", rule, now=1)
        hits += [t for t in range(2, 4) for e in sim.step(t) if isinstance(e, PacketIn)]
        assert sim.remove_rule("s1", "h1", "h2", 10)
        hits += [t for t in range(4, 10) for e in sim.step(t) if isinstance(e, PacketIn)]
        assert hits == [0, 6]

    def test_packet_in_carries_flow_attributes(self):
        sim = Simulator(Topology.from_doc(TRIANGLE), scenario(flows=self.flows))
        ev = next(e for e in sim.step(0) if isinstance(e, PacketIn))
        doc = ev.to_doc()
        assert doc["switch"] == "s1"
        assert doc["src"] == "h1"
        assert doc["dst"] == "h2"
        assert doc["size"] == 30
        assert doc["gap"] == 1


class TestDeliveryAndDrops:
    def route(self, sim):
        sim.install_rule(
            "s1",
            {"rule_id": "r1", "match": {"src": "h1", "dst": "h2"}, "priority": 10,
             "action": "forward", "next_hop": "s3"},
            now=0,
        )
        sim.install_rule(
            "s3",
            {"rule_id": "r2", "match": {"src": "h1", "dst": "h2"}, "priority": 10,
             "action": "deliver", "next_hop": None},
            now=0,
        )

    def test_routed_flow_completes_and_records_latency(self):
        flows = [{"src": "h1", "dst": "h2", "start_tick": 3, "size": 5, "gap": 1}]
        sim = Simulator(Topology.from_doc(TRIANGLE), scenario(flows=flows))
        self.route(sim)
        drain(sim, 12)
        m = sim.metrics()
        assert m["flows_completed"] == 1
        assert m["mean_setup_latency"] == 0.0  # rules were ready before the start

    def test_capacity_overflow_counts_drops(self):
        # five unit-per-tick flows over a capacity-2 link
        doc = {
            "switches": ["s1", "s2"],
            "hosts": [{"id": "h1", "switch": "s1"}, {"id": "h2", "switch": "s2"}],
            "links": [{"a": "s1", "b": "s2", "capacity": 2, "latency": 1}],
        }
        topo = Topology.from_doc(doc)
        flows = [
            {"src": "h1", "dst": "h2", "start_tick": 0, "size": 10, "gap": 1}
            for _ in range(5)
        ]
        scen = Scenario.from_doc(
            {"seed": 3, "duration_ticks": 10, "flows": flows}, topo
        )
        sim = Simulator(topo, scen)
        sim.install_rule(
            "s1",
            {"rule_id": "r1", "match": {"src": "h1", "dst": "h2"}, "priority": 10,
             "action": "forward", "next_hop": "s2"},
            now=-1,
        )
        sim.install_rule(
            "s2",
            {"rule_id": "r2", "match": {"src": "h1", "dst": "h2"}, "priority": 10,
             "action": "deliver", "next_hop": None},
            now=-1,
        )
        drain(sim, 10)
        assert sim.total_drops > 0
        stats = sim.metrics()
        assert stats["packets_dropped"] == sim.total_drops

    def test_table_docs_are_sorted_and_complete(self):
        sim = Simulator(Topology.from_doc(TRIANGLE), scenario())
        self.route(sim)
        docs = sim.table_docs(now=5)
        assert set(docs) == {"s1", "s2", "s3"}
        assert docs["s2"] == []
        assert [d["rule_id"] for d in docs["s1"]] == ["r1"]
