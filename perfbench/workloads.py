"""Seeded workload generator for the benchmark.

Each workload is a function of the seed alone: the same seed gives the same
topology document, scenario document and controller config, and only those
documents reach the program. The documents have the shape of the test
suite's randomized differential scenarios, but sizes are fixed per workload
and the topology and flows are drawn so that different seeds load the
controllers about equally: the benchmark compares runs across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

#: seed the first baseline (BASELINE.md) was measured with
BASELINE_SEED = 1234
#: seed kept out of tuning, for checking a claimed gain
HELD_OUT_SEED = 4321


@dataclass(frozen=True)
class Workload:
    """One generated input: the documents and config both controllers get."""

    name: str
    seed: int
    topology: dict[str, Any]
    scenario: dict[str, Any]
    config: dict[str, Any]
    # agent -> tick it is killed after; empty when nothing is killed
    kills: dict[str, int] = field(default_factory=dict)


def gen_topology(rng: random.Random, n_switches: int, n_hosts: int, n_chords: int) -> dict[str, Any]:
    """Connected topology: a ring over the switches in random order plus
    n_chords distinct random chords, with hosts spread evenly over switches.

    Degrees stay close to uniform, so no seed yields a hub whose flow table
    (and linear rule lookup) carries most of the traffic.
    """
    switches = [f"sw{i + 1}" for i in range(n_switches)]
    links: list[dict[str, Any]] = []
    seen: set[tuple[str, str]] = set()

    def add(a: str, b: str) -> bool:
        key = (a, b) if a < b else (b, a)
        if key in seen or a == b:
            return False
        seen.add(key)
        links.append(
            {"a": key[0], "b": key[1], "capacity": rng.choice([10, 20, 50]), "latency": rng.randint(1, 5)}
        )
        return True

    ring = rng.sample(switches, n_switches)
    for i, sw in enumerate(ring):
        add(sw, ring[(i + 1) % n_switches])
    added = 0
    while added < n_chords:
        added += add(*rng.sample(switches, 2))
    slots = rng.sample(switches, n_switches)
    hosts = [{"id": f"h{i + 1}", "switch": slots[i % n_switches]} for i in range(n_hosts)]
    return {"switches": switches, "hosts": hosts, "links": links}


def _strata(rng: random.Random, n: int, lo: int, hi: int, shuffle: bool = True) -> list[int]:
    """n integers in [lo, hi], one drawn from each of n equal slices."""
    width = (hi - lo + 1) / n
    out = [lo + int(i * width + rng.random() * width) for i in range(n)]
    if shuffle:
        rng.shuffle(out)
    return out


def hop_counts(tdoc: dict[str, Any]) -> dict[tuple[str, str], int]:
    """Switch hops between every pair of hosts, by breadth-first search."""
    adjacent: dict[str, list[str]] = {sw: [] for sw in tdoc["switches"]}
    for link in tdoc["links"]:
        adjacent[link["a"]].append(link["b"])
        adjacent[link["b"]].append(link["a"])
    hops_from: dict[str, dict[str, int]] = {}
    for root in adjacent:
        seen = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for sw in frontier:
                for peer in adjacent[sw]:
                    if peer not in seen:
                        seen[peer] = seen[sw] + 1
                        nxt.append(peer)
            frontier = nxt
        hops_from[root] = seen
    at = {h["id"]: h["switch"] for h in tdoc["hosts"]}
    return {(a, b): hops_from[at[a]][at[b]] for a in at for b in at if a != b}


def gen_flows(
    rng: random.Random,
    tdoc: dict[str, Any],
    n_flows: int,
    duration: int,
    long_lived: bool,
    hop_profile: tuple[int, ...],
) -> list[dict[str, Any]]:
    """Flows between distinct host pairs, so every flow opens its own session.

    Short flows start in the first half of the run, send a unit every 1-4
    ticks and carry 5-60 units; long-lived flows start in the first third
    and send every 1-2 ticks until the run ends. Flow i joins a random host
    pair that is hop_profile[i % len(hop_profile)] switch hops apart (or as
    close to that as the topology has left). Starts, gaps and sizes are
    stratified, and gaps ascend with i so that every hop count gets fast and
    slow flows alike; 30% of the flows carry a class hint. So every seed
    offers about the same load, while which hosts, links and ticks carry it
    changes with the seed.
    """
    hops = hop_counts(tdoc)
    by_hops: dict[int, list[tuple[str, str]]] = {}
    for pair in sorted(hops):
        by_hops.setdefault(hops[pair], []).append(pair)
    for pool in by_hops.values():
        rng.shuffle(pool)
    chosen = []
    for i in range(n_flows):
        target = hop_profile[i % len(hop_profile)]
        level = min((h for h in by_hops if by_hops[h]), key=lambda h: (abs(h - target), h))
        chosen.append(by_hops[level].pop())
    starts = _strata(rng, n_flows, 1, duration // 3 if long_lived else duration // 2)
    gaps = _strata(rng, n_flows, 1, 2 if long_lived else 4, shuffle=False)
    sizes = [duration] * n_flows if long_lived else _strata(rng, n_flows, 5, 60)
    hinted = set(rng.sample(range(n_flows), round(0.3 * n_flows)))
    flows = []
    for i, (src, dst) in enumerate(chosen):
        flow = {"src": src, "dst": dst, "start_tick": starts[i], "size": sizes[i], "gap": gaps[i]}
        if i in hinted:
            flow["class"] = rng.choice(["realtime", "interactive", "bulk"])
        flows.append(flow)
    rng.shuffle(flows)
    return flows


def gen_failures(rng: random.Random, tdoc: dict[str, Any], n_failures: int, duration: int) -> list[dict[str, Any]]:
    """Distinct links failing at distinct random ticks in the middle third.

    Two failures in one tick make the controllers diverge: a known
    correctness defect, which the differential tests are the place to pin
    down and which would fail this benchmark's gate on a share of seeds.
    """
    candidates = list(tdoc["links"])
    rng.shuffle(candidates)
    ticks = rng.sample(range(duration // 3, 2 * duration // 3), n_failures)
    return [{"a": link["a"], "b": link["b"], "at": at} for link, at in zip(candidates, ticks)]


def _build(
    name: str,
    seed: int,
    *,
    switches: int,
    hosts: int,
    chords: int,
    flows: int,
    failures: int,
    ticks: int,
    long_lived: bool,
    hop_profile: tuple[int, ...],
    strategy: str,
    kills: dict[str, int] | None = None,
) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    tdoc = gen_topology(rng, switches, hosts, chords)
    sdoc = {
        "seed": rng.randrange(10**6),
        "duration_ticks": ticks,
        "flows": gen_flows(rng, tdoc, flows, ticks, long_lived, hop_profile),
        "failures": gen_failures(rng, tdoc, failures, ticks),
    }
    config: dict[str, Any] = {"event_strategy": strategy}
    kills = dict(kills or {})
    if kills:
        by_tick: dict[str, list[str]] = {}
        for agent, tick in kills.items():
            by_tick.setdefault(str(tick), []).append(agent)
        config["kills"] = by_tick
    return Workload(name, seed, tdoc, sdoc, config, kills)


def session_churn(seed: int) -> Workload:
    return _build(
        "session-churn", seed, switches=30, hosts=60, chords=15, flows=120,
        failures=4, ticks=120, long_lived=False, hop_profile=(1, 2, 3, 4, 5), strategy="centralized",
    )


def event_fanout(seed: int) -> Workload:
    return _build(
        "event-fanout", seed, switches=8, hosts=6, chords=4, flows=6,
        failures=0, ticks=240, long_lived=True, hop_profile=(1, 2, 3), strategy="hybrid",
    )


RECOVERY_KILLS = {
    "session#0": 40,
    "knowledge-plane#0": 80,
    "event-distribution#1": 120,
    "forwarding#0": 160,
    "registry#0": 200,
}


def agent_recovery(seed: int) -> Workload:
    return _build(
        "agent-recovery", seed, switches=12, hosts=12, chords=6, flows=24,
        failures=0, ticks=240, long_lived=True, hop_profile=(1, 2, 3), strategy="distributed",
        kills=RECOVERY_KILLS,
    )


WORKLOADS = {
    "session-churn": session_churn,
    "event-fanout": event_fanout,
    "agent-recovery": agent_recovery,
}
