"""Decision logic shared by both controller modes.

The routing checks are differential: shortest_path is compared against an
exhaustive simple-path enumeration on small graphs and against networkx on
larger ones. The acceptance suite repeats both at full scale.
"""
import itertools
import random

import networkx as nx

from masdn.core import FunctionKind
from masdn.logic import (
    ACTIVE,
    BULK,
    INTERACTIVE,
    PENDING,
    REALTIME,
    UNROUTABLE,
    admit_realtime,
    build_graph,
    chain_closure,
    classify,
    clearing_rules,
    flow_rate_milli,
    link_capacities,
    path_link_keys,
    plan_reroutes,
    release_reservation,
    rules_for_path,
    session_record,
    shortest_path,
)


def random_graph_doc(rng, n, extra_edges=None, max_latency=9):
    """Connected undirected weighted graph as a links document."""
    nodes = [f"n{i}" for i in range(n)]
    links, seen = [], set()

    def add(a, b):
        key = (a, b) if a < b else (b, a)
        if a == b or key in seen:
            return
        seen.add(key)
        links.append({"a": key[0], "b": key[1], "capacity": 10,
                      "latency": rng.randint(1, max_latency)})

    for i in range(1, n):
        add(nodes[rng.randrange(i)], nodes[i])
    for _ in range(extra_edges if extra_edges is not None else rng.randint(0, 2 * n)):
        add(*rng.sample(nodes, 2))
    return nodes, links


def path_cost(graph, path):
    return sum(graph[a][b] for a, b in zip(path, path[1:]))


def brute_force_min_cost(graph, src, dst):
    """Minimum cost over every simple path, by exhaustive enumeration."""
    best = None
    nodes = list(graph)
    other = [n for n in nodes if n not in (src, dst)]
    for k in range(len(other) + 1):
        for middle in itertools.permutations(other, k):
            path = [src, *middle, dst]
            cost = 0
            ok = True
            for a, b in zip(path, path[1:]):
                w = graph.get(a, {}).get(b)
                if w is None:
                    ok = False
                    break
                cost += w
            if ok and (best is None or cost < best):
                best = cost
    return best


class TestShortestPath:
    def test_matches_exhaustive_minimum_on_small_graphs(self):
        rng = random.Random(42)
        for _ in range(150):
            nodes, links = random_graph_doc(rng, rng.randint(2, 7))
            graph = build_graph(links)
            src, dst = rng.sample(nodes, 2)
            path = shortest_path(graph, src, dst)
            assert path is not None
            assert path_cost(graph, path) == brute_force_min_cost(graph, src, dst)

    def test_matches_networkx_on_a_larger_graph(self):
        rng = random.Random(7)
        nodes, links = random_graph_doc(rng, 120, extra_edges=240)
        graph = build_graph(links)
        g = nx.Graph()
        for l in links:
            g.add_edge(l["a"], l["b"], weight=l["latency"])
        for _ in range(40):
            src, dst = rng.sample(nodes, 2)
            path = shortest_path(graph, src, dst)
            assert path_cost(graph, path) == nx.dijkstra_path_length(g, src, dst)

    def test_unreachable_destination_gives_none(self):
        graph = build_graph(
            [
                {"a": "a", "b": "b", "capacity": 1, "latency": 1},
                {"a": "c", "b": "d", "capacity": 1, "latency": 1},
            ]
        )
        assert shortest_path(graph, "a", "c") is None

    def test_downed_links_drop_out_of_the_graph(self):
        links = [
            {"a": "a", "b": "b", "capacity": 1, "latency": 1, "up": False},
            {"a": "a", "b": "c", "capacity": 1, "latency": 5, "up": True},
            {"a": "c", "b": "b", "capacity": 1, "latency": 5},
        ]
        graph = build_graph(links)
        assert shortest_path(graph, "a", "b") == ["a", "c", "b"]

    def test_same_node_is_a_single_hop_path(self):
        graph = build_graph([{"a": "a", "b": "b", "capacity": 1, "latency": 1}])
        assert shortest_path(graph, "a", "a") == ["a"]

    def test_tie_break_is_name_stable(self):
        # two equal-cost routes: via "b" and via "c"; the smaller name wins
        links = [
            {"a": "s", "b": "b", "capacity": 1, "latency": 1},
            {"a": "s", "b": "c", "capacity": 1, "latency": 1},
            {"a": "b", "b": "t", "capacity": 1, "latency": 1},
            {"a": "c", "b": "t", "capacity": 1, "latency": 1},
        ]
        assert shortest_path(build_graph(links), "s", "t") == ["s", "b", "t"]


class TestClassify:
    def test_tight_small_flows_are_realtime(self):
        assert classify(size=50, gap=1) == REALTIME

    def test_large_flows_are_bulk_even_when_tight(self):
        assert classify(size=500, gap=1) == BULK

    def test_loose_small_flows_are_interactive(self):
        assert classify(size=50, gap=5) == INTERACTIVE

    def test_declared_class_wins(self):
        assert classify(size=500, gap=1, hint=INTERACTIVE) == INTERACTIVE

    def test_unknown_hint_falls_back_to_thresholds(self):
        assert classify(size=50, gap=1, hint="weird") == REALTIME


class TestRules:
    def test_path_rules_chain_switches_and_deliver_last(self):
        rules = rules_for_path(["s1", "s2", "s3"], "h1", "h2", 20, ["r1", "r2", "r3"])
        assert [sw for sw, _ in rules] == ["s1", "s2", "s3"]
        assert [doc["action"] for _, doc in rules] == ["forward", "forward", "deliver"]
        assert [doc["next_hop"] for _, doc in rules] == ["s2", "s3", None]

    def test_single_switch_path_is_one_deliver_rule(self):
        rules = rules_for_path(["s1"], "h1", "h2", 20, ["r1"])
        assert len(rules) == 1
        assert rules[0][1]["action"] == "deliver"

    def test_clearing_rules_name_the_same_slots(self):
        installed = rules_for_path(["s1", "s2"], "h1", "h2", 20, ["r1", "r2"])
        cleared = clearing_rules(["s1", "s2"], "h1", "h2", 20)
        assert [
            (sw, doc["match"]["src"], doc["match"]["dst"], doc["priority"])
            for sw, doc in installed
        ] == [
            (sw, doc["match"]["src"], doc["match"]["dst"], doc["priority"])
            for sw, doc in cleared
        ]


class TestAdmission:
    capacities = {"a|b": 10, "b|c": 10}

    def test_admits_until_the_cap_then_denies(self):
        reservations = {}
        rate = flow_rate_milli(1)  # 1000 per tick
        admitted = 0
        for _ in range(12):
            ok, reservations = admit_realtime(
                reservations, ["a|b"], rate, self.capacities, cap_permille=500
            )
            if ok:
                admitted += 1
        # budget is 10 * 500 = 5000 milli-units; each flow takes 1000
        assert admitted == 5

    def test_denial_leaves_reservations_unchanged(self):
        ok, reservations = admit_realtime({}, ["a|b"], 500, self.capacities)
        assert ok
        before = dict(reservations)
        ok, after = admit_realtime(reservations, ["a|b"], 10**9, self.capacities)
        assert not ok
        assert after == before

    def test_release_undoes_admission_exactly(self):
        ok, reservations = admit_realtime({}, ["a|b", "b|c"], 700, self.capacities)
        assert ok
        assert release_reservation(reservations, ["a|b", "b|c"], 700) == {}

    def test_rate_is_inverse_in_gap(self):
        assert flow_rate_milli(1) > flow_rate_milli(2) > flow_rate_milli(4)


class TestReroutes:
    links = [
        {"a": "s1", "b": "s2", "capacity": 10, "latency": 1},
        {"a": "s2", "b": "s3", "capacity": 10, "latency": 1},
        {"a": "s1", "b": "s3", "capacity": 10, "latency": 5},
    ]
    hosts = {"h1": "s1", "h2": "s3"}

    def up_graph(self, down=()):
        docs = []
        for l in self.links:
            key = (l["a"], l["b"])
            docs.append({**l, "up": key not in down})
        return build_graph(docs)

    def rec(self, state, path):
        rec = session_record("s0001", "h1", "h2", REALTIME, 0, state, gap=1, size=5)
        rec["path"] = path
        return rec

    def test_intact_paths_are_left_alone(self):
        sessions = {"s0001": self.rec(ACTIVE, ["s1", "s2", "s3"])}
        graph = self.up_graph(down=(("s1", "s3"),))  # failure off the active path
        assert plan_reroutes(sessions, graph, self.hosts) == []

    def test_broken_active_path_gets_a_replacement(self):
        sessions = {"s0001": self.rec(ACTIVE, ["s1", "s2", "s3"])}
        graph = self.up_graph(down=(("s2", "s3"),))
        assert plan_reroutes(sessions, graph, self.hosts) == [("s0001", ["s1", "s3"])]

    def test_disconnected_session_maps_to_none(self):
        sessions = {"s0001": self.rec(ACTIVE, ["s1", "s2", "s3"])}
        graph = self.up_graph(down=(("s2", "s3"), ("s1", "s3")))
        assert plan_reroutes(sessions, graph, self.hosts) == [("s0001", None)]

    def test_unroutable_sessions_are_retried_when_a_path_appears(self):
        rec = self.rec(UNROUTABLE, None)
        assert plan_reroutes({"s0001": rec}, self.up_graph(), self.hosts) == [
            ("s0001", ["s1", "s2", "s3"])
        ]

    def test_pending_sessions_are_not_swept(self):
        sessions = {"s0001": self.rec(PENDING, None)}
        assert plan_reroutes(sessions, self.up_graph(), self.hosts) == []

    def test_moves_come_out_in_session_id_order(self):
        sessions = {
            "s0002": self.rec(ACTIVE, ["s1", "s2", "s3"]),
            "s0001": self.rec(ACTIVE, ["s1", "s2", "s3"]),
        }
        graph = self.up_graph(down=(("s2", "s3"),))
        assert [sid for sid, _ in plan_reroutes(sessions, graph, self.hosts)] == [
            "s0001",
            "s0002",
        ]


class TestComposition:
    def test_empty_request_gives_empty_chain(self):
        assert chain_closure([]) == []

    def test_session_pulls_in_its_whole_support_chain(self):
        # the kinds the session agent asks, and nothing they do not ask
        closed = chain_closure([FunctionKind.SESSION])
        assert closed == [
            FunctionKind.CLASSIFIER,
            FunctionKind.FORWARDING,
            FunctionKind.QOS,
            FunctionKind.ROUTING,
            FunctionKind.SESSION,
        ]
        assert chain_closure([FunctionKind.ROUTING]) == [FunctionKind.ROUTING]

    def test_closure_output_is_sorted_and_duplicate_free(self):
        closed = chain_closure([FunctionKind.SESSION, FunctionKind.ROUTING])
        assert closed == sorted(set(closed), key=lambda k: k.value)


def test_path_link_keys_are_orientation_free():
    assert path_link_keys(["b", "a", "c"]) == ["a|b", "a|c"]


def test_link_capacities_index_by_sorted_key():
    caps = link_capacities([{"a": "z", "b": "a", "capacity": 9, "latency": 1}])
    assert caps == {"a|z": 9}
