"""Acceptance gate: nine end-to-end guarantees, one test per criterion.

Criterion 8, discovery against a brute-force lease model, is retired: no
agent sends discover and no lease exists, as the host reports every exit to
the orchestrator. The other criteria keep their numbers.

Each test is self-contained and asserts its stated tolerance exactly; the
heavyweight differential corpus (criterion 1) is computed once in a session
fixture and reused by the stage-discipline and determinism criteria that
are defined over the same runs.
"""
import hashlib
import itertools
import json
import random
import time
from collections import Counter

import networkx as nx
import pytest

from masdn import AgentSystem
from masdn.cli import main
from masdn.config import broker_ids, parse_config, plan_roster
from masdn.core import AgentId, FunctionKind, Message, MessageKind
from masdn.events import match_topic
from masdn.logic import HEARTBEAT_INTERVAL, build_graph, shortest_path
from masdn.oracle import MonolithicController, compare, normalize_tables
from masdn.pps import DEFAULT_PROFILES, decode, encode, encode_body
from masdn.orchestrator import home_broker
from masdn.runtime import AgentHost, AgentSpec, register_cognition

from helpers import (
    STRATEGIES, Fabric, build, gen_scenario, gen_topology, run_trace, trace_agents,
)

STAGES = ["input", "facts", "cognition", "planning", "validation", "output"]
ACTION_KINDS = {MessageKind.REQUEST.value, MessageKind.POLICY.value}


# -- criterion 1/5/10 corpus ----------------------------------------------------


class StageAudit:
    """Streaming checker for pipeline discipline over one run's stage log."""

    def __init__(self):
        self.bad_order = []
        self.ungated = []
        self._runs = {}

    def feed(self, entry):
        stage = entry.get("stage")
        if stage not in STAGES:
            return  # spawn/kill lifecycle markers
        rec = self._runs.setdefault(
            (entry["agent"], entry["run"]), {"stages": [], "passed": None, "actions": 0}
        )
        rec["stages"].append(stage)
        if stage == "validation":
            rec["passed"] = entry["passed"]
        elif stage == "output":
            rec["actions"] += sum(
                1 for kind, _dst in entry["emitted"] if kind in ACTION_KINDS
            )

    def close(self):
        for key, rec in self._runs.items():
            if rec["stages"] != STAGES:
                self.bad_order.append((key, rec["stages"]))
            if rec["actions"] and rec["passed"] is not True:
                self.ungated.append(key)
        self._runs.clear()


def _outcome_digest(outcome):
    text = json.dumps(outcome, sort_keys=True, indent=2) + "\n"  # the CLI framing
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="session")
def corpus():
    """100 seeded scenarios run differentially, with stage logs audited."""
    audit = StageAudit()
    runs = []
    mismatches = []
    started = time.monotonic()
    for seed in range(100):
        rng = random.Random(seed)
        tdoc = gen_topology(rng, rng.randint(5, 20))
        sdoc = gen_scenario(rng, tdoc, rng.randint(3, 15), rng.randint(0, 2), 40)
        config = {"event_strategy": STRATEGIES[seed % len(STRATEGIES)]}
        topo, scen = build(tdoc, sdoc)
        system = AgentSystem(topo, scen, dict(config), log_sink=audit.feed)
        agents_out = system.run()
        mono_out = MonolithicController(topo, scen, dict(config)).run()
        diff = compare(agents_out, mono_out)
        if diff:
            mismatches.append((seed, diff))
        audit.close()
        runs.append(
            {"seed": seed, "tdoc": tdoc, "sdoc": sdoc, "config": config,
             "digest": _outcome_digest(agents_out)}
        )
    return {
        "elapsed": time.monotonic() - started,
        "mismatches": mismatches,
        "runs": runs,
        "audit": audit,
    }


def test_criterion_01_differential_equivalence_on_100_scenarios(corpus, capsys):
    assert corpus["mismatches"] == [], corpus["mismatches"][:3]
    with capsys.disabled():
        print(f"\n[criterion 1] 100 scenarios equivalent in {corpus['elapsed']:.1f}s")
    assert corpus["elapsed"] < 180.0


def test_criterion_05_stage_order_and_validation_gating(corpus):
    audit = corpus["audit"]
    assert audit.bad_order == [], audit.bad_order[:3]
    assert audit.ungated == [], audit.ungated[:3]


def test_criterion_10_identical_seeds_reproduce_byte_identical_outcomes(corpus, tmp_path):
    for run in corpus["runs"]:
        topo, scen = build(run["tdoc"], run["sdoc"])
        again = AgentSystem(topo, scen, dict(run["config"])).run()
        assert _outcome_digest(again) == run["digest"], run["seed"]
    # and through the CLI, including the on-disk artifact byte-for-byte
    for run in corpus["runs"][:3]:
        config_path = tmp_path / f"c{run['seed']}.json"
        config_path.write_text(json.dumps(
            {"topology": run["tdoc"], "scenario": run["sdoc"], **run["config"],
             "mode": "agents"}
        ))
        dirs = (tmp_path / f"r{run['seed']}a", tmp_path / f"r{run['seed']}b")
        for out_dir in dirs:
            assert main(["run", str(config_path), "--out-dir", str(out_dir)]) == 0
        first, second = (d / "outcome.json" for d in dirs)
        assert first.read_bytes() == second.read_bytes()


# -- criterion 2: routing against independent oracles -------------------------------


def _exhaustive_min_cost(links, src, dst):
    """Minimum total latency over every simple path, by brute enumeration."""
    adjacent = {}
    for l in links:
        if not l.get("up", True):
            continue
        adjacent.setdefault(l["a"], []).append((l["b"], l["latency"]))
        adjacent.setdefault(l["b"], []).append((l["a"], l["latency"]))
    best = None
    stack = [(src, 0, {src})]
    while stack:
        node, cost, seen = stack.pop()
        if node == dst:
            best = cost if best is None else min(best, cost)
            continue
        for nxt, w in adjacent.get(node, []):
            if nxt not in seen:
                stack.append((nxt, cost + w, seen | {nxt}))
    return best


def _path_cost(links, path):
    weight = {}
    for l in links:
        key = (l["a"], l["b"]) if l["a"] < l["b"] else (l["b"], l["a"])
        weight[key] = l["latency"]
    return sum(
        weight[(a, b) if a < b else (b, a)] for a, b in zip(path, path[1:])
    )


def _random_links(rng, nodes, extra):
    links = []
    seen = set()

    def add(a, b):
        key = (a, b) if a < b else (b, a)
        if a == b or key in seen:
            return
        seen.add(key)
        links.append({"a": key[0], "b": key[1], "capacity": 10,
                      "latency": rng.randint(1, 9), "up": True})

    for i in range(1, len(nodes)):
        if rng.random() < 0.85:  # leave some graphs disconnected on purpose
            add(nodes[rng.randrange(i)], nodes[i])
    for _ in range(extra):
        add(*rng.sample(nodes, 2))
    return links


def test_criterion_02_shortest_path_matches_both_oracles():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(2, 10)
        nodes = [f"n{i}" for i in range(n)]
        links = _random_links(rng, nodes, rng.randint(0, n))
        src, dst = rng.sample(nodes, 2)
        got = shortest_path(build_graph(links), src, dst)
        want = _exhaustive_min_cost(links, src, dst)
        if want is None:
            assert got is None
        else:
            assert got is not None and got[0] == src and got[-1] == dst
            assert _path_cost(links, got) == want

    for seed in range(50):
        rng = random.Random(10_000 + seed)
        nodes = [f"n{i}" for i in range(200)]
        links = []
        seen = set()
        for i in range(1, 200):
            a, b = nodes[rng.randrange(i)], nodes[i]
            seen.add((a, b) if a < b else (b, a))
            links.append({"a": a, "b": b, "capacity": 10,
                          "latency": rng.randint(1, 9), "up": True})
        while len(links) < 400:
            a, b = rng.sample(nodes, 2)
            key = (a, b) if a < b else (b, a)
            if key in seen:
                continue
            seen.add(key)
            links.append({"a": key[0], "b": key[1], "capacity": 10,
                          "latency": rng.randint(1, 9), "up": True})
        graph = build_graph(links)
        G = nx.Graph()
        for l in links:
            G.add_edge(l["a"], l["b"], weight=l["latency"])
        for _ in range(4):
            src, dst = rng.sample(nodes, 2)
            got = shortest_path(graph, src, dst)
            assert got is not None
            assert _path_cost(links, got) == nx.dijkstra_path_length(G, src, dst)


# -- criterion 3: broker arrangement equivalence -------------------------------------


def test_criterion_03_event_plane_arrangements_are_observationally_equal():
    """The broker agents a system run uses, on a Bus, under every strategy."""
    topics = ["events.link", "events.link.down", "events.flow", "kp.digest",
              "audit.trace", "events.tick"]
    filters = ["events.*", "events.link", "events.link.*", "kp.digest", "*",
               "audit.trace"]
    for trace_seed in range(50):
        rng = random.Random(31_000 + trace_seed)
        publishers = trace_agents(0, rng.randint(2, 6))
        subs = [(sub, rng.choice(filters)) for sub in trace_agents(100, rng.randint(2, 6))]
        events = []
        for i in range(1000):
            events.append((rng.choice(publishers), rng.choice(topics), {"n": i, "tick": i}))
        fabrics = {s: run_trace(s, subs, events) for s in STRATEGIES}
        # a delivery is the publish itself; the fabric names its publisher
        # and its place in publish order from its own record of the publish
        for sub, flt in subs:
            multisets = {
                s: Counter((d.publisher, d.envelope["topic"], d.envelope["body"]["n"])
                           for d in fabrics[s].delivered_to(sub, publishers))
                for s in STRATEGIES
            }
            assert multisets["centralized"] == multisets["distributed"], (trace_seed, sub)
            assert multisets["centralized"] == multisets["hybrid"], (trace_seed, sub)
            wanted = Counter((pub, topic, body["n"]) for pub, topic, body in events
                             if match_topic(flt, topic))
            assert multisets["centralized"] == wanted, (trace_seed, sub)
        for strategy, fabric in fabrics.items():
            for sub, _flt in subs:
                last = {}
                for d in fabric.delivered_to(sub, publishers):
                    assert d.order > last.get(d.publisher, -1), (trace_seed, strategy, sub)
                    last[d.publisher] = d.order
            # a broker handled a publisher's traffic exactly when some publish
            # of it had to cross the broker: at the publisher's home broker,
            # at a broker a matching subscriber is homed on, and (hybrid) at
            # the root when that broker is another level's
            root = broker_ids(strategy)[0]
            crossed = {b: set() for b in broker_ids(strategy)}
            for pub, topic in {(pub, topic) for pub, topic, _body in events}:
                home = home_broker(strategy, pub)
                wanted = {home_broker(strategy, sub) for sub, flt in subs if match_topic(flt, topic)}
                route = {home} | wanted
                if strategy == "hybrid" and wanted - {home}:
                    route.add(root)
                for broker in route:
                    crossed[broker].add(pub)
            for broker in broker_ids(strategy):
                assert fabric.handled[broker] == crossed[broker], (trace_seed, strategy, broker)


# -- criterion 4: single-agent failure transparency ----------------------------------


def test_criterion_04_killing_any_agent_is_transparent_and_recovery_is_timely(capsys):
    # every agent of a centralized roster whose chain also names the four
    # lifecycle-only kinds, so that each kind a chain can compose is killed
    config = {"chain": ["session", "autoconf-discovery", "fault", "monitoring", "topology"]}
    victims = plan_roster(parse_config(config, None))
    deadline = 3 * HEARTBEAT_INTERVAL + 1
    kill_tick = 23
    checked = 0
    for i in range(20):
        rng = random.Random(51_000 + i)
        tdoc = gen_topology(rng, rng.randint(5, 7))
        sdoc = gen_scenario(rng, tdoc, 3, 0, 60, long_lived=True)
        topo, scen = build(tdoc, sdoc)
        baseline = normalize_tables(AgentSystem(topo, scen, config).run()["tables"])
        for victim in victims:
            topo, scen = build(tdoc, sdoc)
            system = AgentSystem(topo, scen, {**config, "kills": {kill_tick: [victim]}})
            wounded = system.run()
            assert normalize_tables(wounded["tables"]) == baseline, (i, victim)
            respawns = [t for a, t in system.spawn_log if a == victim]
            assert len(respawns) == 2, (i, victim, respawns)
            assert respawns[1] - kill_tick <= deadline, (i, victim, respawns)
            checked += 1
    assert checked >= 240
    with capsys.disabled():
        print(f"\n[criterion 4] {checked} kill runs transparent, "
              f"respawn within {deadline} ticks")


# -- criterion 6: policy caps under adversarial load ----------------------------------


def test_criterion_06_rule_cap_holds_and_violations_are_events():
    K = 4
    policy = {
        "policy_id": "switch-rule-cap",
        "issuer_level": "network",
        "scope": ["forwarding"],
        "rules": [{"action_kind": "install-rule", "target_class": "switch",
                   "effect": "deny", "max_per_target": K}],
    }
    leaves = 5
    tdoc = {
        "switches": ["hub"] + [f"leaf{i}" for i in range(1, leaves + 1)],
        "hosts": [{"id": f"h{i}", "switch": f"leaf{i}"} for i in range(1, leaves + 1)],
        "links": [{"a": "hub", "b": f"leaf{i}", "capacity": 50, "latency": 1}
                  for i in range(1, leaves + 1)],
    }
    hosts = [h["id"] for h in tdoc["hosts"]]
    pairs = [p for p in itertools.permutations(hosts, 2)]
    for seed in range(10):
        rng = random.Random(61_000 + seed)
        chosen = rng.sample(pairs, 8)  # 8 distinct sessions through the hub
        flows = [
            {"src": src, "dst": dst, "start_tick": 2 + 2 * k, "size": 200, "gap": 2}
            for k, (src, dst) in enumerate(chosen)
        ]
        sdoc = {"seed": rng.randrange(10**6), "duration_ticks": 40,
                "flows": flows, "failures": []}
        entries = []
        topo, scen = build(tdoc, sdoc)
        out = AgentSystem(topo, scen, {"policies": [policy]},
                          log_sink=entries.append).run()
        # installs are monotone here (no failures, no reroutes), so the final
        # table is the high-water occupancy
        for switch, docs in out["tables"].items():
            assert len(docs) <= K, (seed, switch)
        violation_events = [
            e for e in entries
            if e.get("stage") == "output"
            and any(dst == "events.violation" for _k, dst in e["emitted"])
        ]
        assert violation_events, seed
        denied = [r for r in out["ledger"].values() if r["state"] == "unroutable"]
        assert denied, seed


# -- criterion 7: wire fidelity and duplicate suppression ------------------------------


@register_cognition("acceptance-counter")
def _counting(facts, inp):
    return {"facts": [["count", facts.get("count", 0) + 1]]}


def test_criterion_07_round_trip_fidelity_and_at_least_once_dedup():
    rng = random.Random(71_000)
    kinds = list(MessageKind)
    agents = [AgentId(k, i) for k in (FunctionKind.ROUTING, FunctionKind.SESSION,
                                      FunctionKind.QOS) for i in range(3)]
    for n in range(1000):
        kind = rng.choice(kinds)
        body = {"n": n, "blob": "x" * rng.randint(0, 200),
                "nested": {"list": [rng.random(), None, True], "text": "κλμ"}}
        msg = Message(
            msg_id=n + 1,
            src=rng.choice(agents),
            dst=rng.choice(agents + ["events.flow", "switch.s1"]),
            kind=kind,
            payload=encode_body(body),
        )
        for profile in DEFAULT_PROFILES:
            assert decode(encode(msg, profile), profile) == msg

    from masdn.bus import Bus

    alo = [p for p in DEFAULT_PROFILES if p.reliability.value == "at-least-once"]
    assert len(alo) == 2
    for profile in alo:
        host = AgentHost()
        target = AgentId(FunctionKind.MONITORING, 0)
        host.spawn_agent(AgentSpec(agent=target, cognition="acceptance-counter"))
        bus = Bus(host, profile)
        fabric = Fabric(bus, duplicate_every=1)
        bus.send(
            host.factory.new_message(
                src=AgentId(FunctionKind.SESSION, 0), dst=target,
                kind=MessageKind.REQUEST, payload=encode_body({"n": i}),
            )
            for i in range(100)
        )
        bus.run_to_quiescence()
        assert fabric.duplicates_injected == 100
        assert bus.duplicates_suppressed == 100
        inputs = Counter(
            (e["agent"], e["msg_id"]) for e in host.stage_log if e.get("stage") == "input"
        )
        assert all(count == 1 for count in inputs.values())
        assert host.agents[target].facts.get("count") == 100


# -- criterion 9: proactive provisioning beats reactive --------------------------------


def test_criterion_09_proactive_setup_latency_beats_reactive(capsys):
    reactive_means = []
    proactive_means = []
    for i in range(20):
        rng = random.Random(91_000 + i)
        tdoc = gen_topology(rng, rng.randint(5, 10))
        sdoc = gen_scenario(rng, tdoc, rng.randint(3, 6), 0, 40)
        for flow in sdoc["flows"]:
            flow["start_tick"] += 3  # leave room to pre-install
        topo, scen = build(tdoc, sdoc)
        reactive = AgentSystem(topo, scen, {}).run()["metrics"]
        topo, scen = build(tdoc, sdoc)
        proactive = AgentSystem(topo, scen, {"proactive": True}).run()["metrics"]
        assert proactive["mean_setup_latency"] < reactive["mean_setup_latency"], i
        reactive_means.append(reactive["mean_setup_latency"])
        proactive_means.append(proactive["mean_setup_latency"])
    r = sum(reactive_means) / len(reactive_means)
    p = sum(proactive_means) / len(proactive_means)
    with capsys.disabled():
        print(f"\n[criterion 9] mean setup latency: proactive {p:.3f} "
              f"< reactive {r:.3f} (ticks)")
    assert p < r
