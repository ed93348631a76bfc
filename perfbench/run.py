"""Benchmark: the agent controller's cost next to the monolith's.

    python3 perfbench/run.py --workload session-churn --seed 1234 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1234 --seconds 30

Run from the root of a source checkout: the program is imported from its
`src/` directory, never from an installed copy. Each workload is generated
from --seed (see workloads.py). Traffic is a closed loop: the benchmark
steps the simulator one tick at a time, and the next tick starts only after
the bus is quiescent and the digest pump has run. One process, one thread.

With --trace 0 the end-to-end metrics are measured untraced. With --trace 1
the same workload is also run with span wrappers installed (spans.py) and
the per-layer metrics are reported. Every controller run is checked for
correctness; the last line of output is one JSON object, and the exit code
is 1 when any check failed. README.md in this directory defines every
metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

# Set-up and the monolith are timed at PAUSES_PER_RUN points spread over
# each agent run (the monolith back to back for at least MONO_GROUP_S), so
# all three are sampled over the same stretch of the host's time: the
# host's speed drifts by tens of percent within seconds.
PAUSES_PER_RUN = 24
MONO_GROUP_S = 0.02
MIN_AGENT_REPS = 2

FUNCTION_KINDS = ("classifier", "forwarding", "monitoring", "qos", "routing", "session", "topology")
INFRA_KINDS = ("autoconf-discovery", "event-distribution", "fault", "knowledge-plane", "registry")
ALL_KINDS = FUNCTION_KINDS + INFRA_KINDS + ("orchestration",)

END_TO_END_UNITS = {
    "agents_s": "s",
    "mono_s": "s",
    "agents_over_mono": "ratio",
    "tick_ms_p50": "ms",
    "tick_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "control_kb_per_tick": "kB",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "runtime.facts_put_s": "s",
        "runtime.facts_puts": "count",
        "system.pump_s": "s",
        "system.digest_msgs": "count",
        "bus.bytes.kp.digest": "B",
        "bus.digest_byte_share": "ratio",
        "pps.frame_codec_s": "s",
        "pps.body_codec_s": "s",
        "pps.frames": "count",
        "bus.self_s": "s",
        "bus.hops": "count",
        "runtime.pipeline_s": "s",
        "runtime.stage_records": "count",
        "runtime.facts_restore_s": "s",
        "orchestrator.respawns": "count",
        "orchestrator.respawn_ticks_max": "tick",
        "bus.dead_letters": "count",
        "bus.duplicates_suppressed": "count",
        "runtime.snapshot_s": "s",
        "runtime.validate_s": "s",
        "netsim.step_s": "s",
        "logic.path_s": "s",
        "logic.path_calls": "count",
        "oracle.path_s": "s",
        "oracle.compare_s": "s",
        "system.genesis_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
        "trace.spans": "count",
    }
    for kind in ALL_KINDS:
        units[f"runtime.agent_s.{kind}"] = "s"
        units[f"runtime.runs.{kind}"] = "count"
    for kind in FUNCTION_KINDS:
        units[f"functions.cognition_s.{kind}"] = "s"
    for kind in INFRA_KINDS:
        units[f"infra.cognition_s.{kind}"] = "s"
    units["orchestrator.cognition_s"] = "s"
    return units


def import_program() -> None:
    """Put the checkout's sources first on the path; refuse to run without them."""
    if not (SRC / "masdn" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'masdn'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import masdn

    if Path(masdn.__file__).resolve().parent != (SRC / "masdn").resolve():
        raise SystemExit(f"error: masdn imported from {masdn.__file__}, not from {SRC}")


# -- controller runs ------------------------------------------------------------


def outcome_digest(outcome: dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode("utf-8")).hexdigest()


def build(w: Any) -> tuple[Any, Any]:
    from masdn import Scenario, Topology

    topo = Topology.from_doc(w.topology)
    return topo, Scenario.from_doc(w.scenario, topo)


@dataclass
class AgentRun:
    seconds: float
    setup_s: float
    tick_s: list[float]
    outcome: dict[str, Any]
    system: Any


def run_agents(w: Any, tracer: Any = None, pause: Callable[[], None] | None = None) -> AgentRun:
    """One agent-controller run, driven tick by tick from here.

    pause, when given, is called PAUSES_PER_RUN times, spread evenly over
    the ticks and outside the timed segments; the run's seconds are the sum
    of those segments.
    """
    from masdn import AgentSystem

    topo, scen = build(w)
    clock = time.perf_counter
    every = -(-scen.duration // PAUSES_PER_RUN)
    tick_s: list[float] = []
    with tracer.span("agents.run") if tracer else nullcontext():
        start = clock()
        system = AgentSystem(topo, scen, dict(w.config))
        system.genesis()
        setup_s = clock() - start
        for t in range(scen.duration):
            if tracer:
                tracer.tick = t
            before = clock()
            system.tick(t)
            tick_s.append(clock() - before)
            if pause and (t + 1) % every == 0:
                pause()
        before = clock()
        outcome = system.outcome()
        outcome_s = clock() - before
    return AgentRun(setup_s + sum(tick_s) + outcome_s, setup_s, tick_s, outcome, system)


def run_mono(w: Any, tracer: Any = None) -> tuple[float, dict[str, Any]]:
    from masdn import MonolithicController

    topo, scen = build(w)
    with tracer.span("mono.run") if tracer else nullcontext():
        start = time.perf_counter()
        mono = MonolithicController(topo, scen, dict(w.config))
        for t in range(scen.duration):
            if tracer:
                tracer.tick = t
            mono.tick(t)
        outcome = mono.outcome()
        end = time.perf_counter()
    return end - start, outcome


def time_setup(w: Any) -> float:
    from masdn import AgentSystem

    topo, scen = build(w)
    start = time.perf_counter()
    system = AgentSystem(topo, scen, dict(w.config))
    system.genesis()
    return time.perf_counter() - start


def count_wire(w: Any) -> tuple[AgentRun, dict[str, list[int]]]:
    """An untimed agent run that records frames and bytes per topic.

    A frame's topic is its destination when that is a topic or endpoint,
    the topic inside the body for an event delivered to an agent, and the
    message kind otherwise. Frames addressed to a topic itself, which is
    how a publisher hands an event to its broker, are also counted under
    "published:<topic>"; those keys are left out of byte totals.
    """
    from masdn import bus
    from masdn.core import AgentId, MessageKind
    from masdn.pps import decode_body

    per_topic: dict[str, list[int]] = {}
    encode = bus.encode

    def counting_encode(msg: Any, profile: Any) -> bytes:
        frame = encode(msg, profile)
        if isinstance(msg.dst, AgentId):
            body = decode_body(msg.payload) if msg.kind is MessageKind.EVENT else None
            topic = body["topic"] if isinstance(body, dict) and "topic" in body else msg.kind.value
        else:
            topic = "switch.*" if msg.dst.startswith("switch.") else msg.dst
            published = per_topic.setdefault(f"published:{topic}", [0, 0])
            published[0] += 1
            published[1] += len(frame)
        slot = per_topic.setdefault(topic, [0, 0])
        slot[0] += 1
        slot[1] += len(frame)
        return frame

    bus.encode = counting_encode
    try:
        run = run_agents(w)
    finally:
        bus.encode = encode
    return run, per_topic


def wire_bytes(per_topic: dict[str, list[int]]) -> int:
    return sum(b for topic, (_, b) in per_topic.items() if not topic.startswith("published:"))


# -- correctness ------------------------------------------------------------------


def check(w: Any, agents: AgentRun, mono_outcome: dict[str, Any], tracer: Any = None) -> list[str]:
    """Problems with one agent run judged against the monolith; empty when correct.

    Without kills the two outcomes must compare equal. With kills the
    ledger's created_at may legitimately shift for sessions opened during an
    outage, so the check is the recovery criterion instead: equal normalized
    tables, and every victim respawned within 3 heartbeat intervals + 1 tick.
    """
    from masdn.logic import HEARTBEAT_INTERVAL
    from masdn.oracle import compare, normalize_tables

    problems = []
    with tracer.span("oracle.compare") if tracer else nullcontext():
        if not w.kills:
            diff = compare(agents.outcome, mono_outcome)
            if diff:
                problems.append(f"outcomes differ in {sorted(diff)}")
        elif normalize_tables(agents.outcome["tables"]) != normalize_tables(mono_outcome["tables"]):
            problems.append("normalized tables differ")
    deadline = 3 * HEARTBEAT_INTERVAL + 1
    for victim, killed in sorted(w.kills.items()):
        respawns = [t for agent, t in agents.system.spawn_log if agent == victim and t > killed]
        if not respawns or respawns[0] - killed > deadline:
            problems.append(f"{victim} killed at {killed} not respawned within {deadline} ticks: {respawns}")
    return problems


@dataclass
class Gate:
    """Counts checked controller runs and keeps the problems they had."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def same_bytes(self, side: str, outcome: dict[str, Any]) -> list[str]:
        digest = outcome_digest(outcome)
        first = self.digests.setdefault(side, digest)
        return [] if digest == first else [f"{side} outcome bytes differ from the first run"]


# -- measurement --------------------------------------------------------------------


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean without the lowest and highest tenth of the values.

    Unlike the median it follows the share of time the host spent fast or
    slow, as an agent run's total does; the trim drops the rare monolith run
    that paid for a full collection of the agent system's heap.
    """
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.mean(ordered[k : len(ordered) - k])


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile, so p90 is a measured sample."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))]


def pause_sample(w: Any, gate: Gate, mono: list[float], setup: list[float]) -> None:
    """One set-up, then monolith runs back to back for at least MONO_GROUP_S."""
    setup.append(time_setup(w))
    spent = 0.0
    while spent < MONO_GROUP_S:
        seconds, outcome = run_mono(w)
        gate.record("mono", gate.same_bytes("mono", outcome))
        mono.append(seconds)
        spent += seconds


def warm_up(w: Any, gate: Gate) -> tuple[dict[str, Any], dict[str, list[int]], int]:
    """First, untimed runs: count wire bytes and fix the reference outcomes."""
    _, mono_outcome = run_mono(w)
    gate.record("mono", gate.same_bytes("mono", mono_outcome))
    run, per_topic = count_wire(w)
    gate.record("agents (counting)", check(w, run, mono_outcome) + gate.same_bytes("agents", run.outcome))
    ticks = len(run.tick_s)
    del run
    gc.collect()  # free the run's cyclic garbage outside any timed region
    return mono_outcome, per_topic, ticks


def measure_end_to_end(w: Any, seconds: float, gate: Gate) -> tuple[dict[str, float], dict[str, str]]:
    mono_outcome, per_topic, ticks = warm_up(w, gate)

    setup: list[float] = []
    agents_s: list[float] = []
    ratios: list[float] = []
    mono_s: list[float] = []
    tick_s: list[float] = []
    start = time.perf_counter()
    while len(agents_s) < MIN_AGENT_REPS or (
        time.perf_counter() - start + statistics.median(agents_s) <= seconds
    ):
        interleaved: list[float] = []
        run = run_agents(w, pause=lambda: pause_sample(w, gate, interleaved, setup))
        gate.record("agents", check(w, run, mono_outcome) + gate.same_bytes("agents", run.outcome))
        agents_s.append(run.seconds)
        ratios.append(run.seconds / trimmed_mean(interleaved))
        mono_s.extend(interleaved)
        tick_s.extend(run.tick_s)
        setup.append(run.setup_s)
        del run
        gc.collect()

    total_bytes = wire_bytes(per_topic)
    return {
        "agents_s": statistics.median(agents_s),
        "mono_s": trimmed_mean(mono_s),
        "agents_over_mono": statistics.median(ratios),
        "tick_ms_p50": 1000 * quantile(tick_s, 0.50),
        "tick_ms_p90": 1000 * quantile(tick_s, 0.90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "control_kb_per_tick": total_bytes / 1000 / ticks,
    }, {
        "agents_s": f"median of {len(agents_s)} runs",
        "mono_s": f"trimmed mean of {len(mono_s)} runs",
        "agents_over_mono": f"median of {len(ratios)} runs, each over its interleaved monolith trimmed mean",
        "tick_ms_p50": f"of {len(tick_s)} ticks",
        "tick_ms_p90": f"of {len(tick_s)} ticks",
        "setup_s": f"median of {len(setup)} set-ups",
    }


def layer_metrics(tracer: Any, run: AgentRun, w: Any) -> dict[str, float]:
    self_s, total_s, calls = tracer.self_s, tracer.total_s, tracer.calls

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    m: dict[str, float] = {
        "runtime.facts_put_s": s("runtime.facts_put"),
        "runtime.facts_puts": calls.get("runtime.facts_put", 0),
        "system.pump_s": s("system.pump"),
        "pps.frame_codec_s": s("pps.frame_encode") + s("pps.frame_decode"),
        "pps.body_codec_s": s("pps.body_encode") + s("pps.body_decode"),
        "pps.frames": calls.get("pps.frame_encode", 0),
        "bus.self_s": s("bus.run"),
        "bus.hops": run.system.bus.frames,
        "runtime.pipeline_s": sum(s(f"runtime.pipeline.{k}") for k in ALL_KINDS),
        "runtime.stage_records": len(run.system.host.stage_log),
        "runtime.facts_restore_s": s("runtime.facts_restore"),
        "bus.dead_letters": len(run.system.bus.dead_letters),
        "bus.duplicates_suppressed": run.system.bus.duplicates_suppressed,
        "runtime.snapshot_s": s("runtime.snapshot"),
        "runtime.validate_s": s("runtime.validate"),
        "netsim.step_s": s("netsim.step"),
        "logic.path_s": s("logic.path"),
        "logic.path_calls": calls.get("logic.path", 0),
        "oracle.path_s": s("oracle.path"),
        "oracle.compare_s": s("oracle.compare"),
        "system.genesis_s": total_s.get("system.genesis", 0.0),
        "trace.unattributed_s": s("agents.run"),
        "trace.spans": len(tracer.spans),
    }
    for kind in ALL_KINDS:
        m[f"runtime.agent_s.{kind}"] = total_s.get(f"runtime.pipeline.{kind}", 0.0)
        m[f"runtime.runs.{kind}"] = calls.get(f"runtime.pipeline.{kind}", 0)
    for kind in FUNCTION_KINDS:
        m[f"functions.cognition_s.{kind}"] = s(f"functions.cognition.{kind}")
    for kind in INFRA_KINDS:
        m[f"infra.cognition_s.{kind}"] = s(f"infra.cognition.{kind}")
    m["orchestrator.cognition_s"] = s("orchestrator.cognition.orchestration")

    spawned: set[str] = set()
    respawns = 0
    for agent, _ in run.system.spawn_log:
        respawns += agent in spawned
        spawned.add(agent)
    m["orchestrator.respawns"] = respawns
    delays = [0]
    for victim, killed in w.kills.items():
        after = [t for agent, t in run.system.spawn_log if agent == victim and t > killed]
        if after:
            delays.append(after[0] - killed)
    m["orchestrator.respawn_ticks_max"] = max(delays)
    return m


def restored(patches: list[tuple[Any, str, Any, bool]]) -> list[str]:
    """Patched attributes that are not the original object again."""
    wrong = []
    for owner, attr, original, is_item in patches:
        current = owner.get(attr) if is_item else (
            owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        )
        if current is not original:
            wrong.append(f"{getattr(owner, '__name__', 'registry')}.{attr}")
    return wrong


def measure_layers(w: Any, seconds: float, gate: Gate, spans_path: Path) -> tuple[dict[str, float], dict[str, str]]:
    import spans

    mono_outcome, per_topic, _ = warm_up(w, gate)
    mono_digest = gate.digests["mono"]
    untraced: list[float] = []
    traced: list[float] = []
    samples: list[dict[str, float]] = []
    tracer = spans.Tracer()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + untraced[-1] + traced[-1] <= seconds:
        run = run_agents(w)
        gate.record("agents", check(w, run, mono_outcome) + gate.same_bytes("agents", run.outcome))
        untraced.append(run.seconds)
        del run
        gc.collect()

        tracer.reset()
        spans.install(tracer)
        patches = tracer.patched()
        try:
            run = run_agents(w, tracer)
            _, traced_mono = run_mono(w, tracer)
            problems = check(w, run, traced_mono, tracer)
        finally:
            tracer.uninstall()
        problems += gate.same_bytes("agents", run.outcome)
        if outcome_digest(traced_mono) != mono_digest:
            problems.append("traced monolith outcome bytes differ from the untraced run")
        problems += [f"{name} not restored after tracing" for name in restored(patches)]
        gate.record("agents (traced)", problems)
        traced.append(run.seconds)
        samples.append(layer_metrics(tracer, run, w))
        del run
        gc.collect()

    metrics = {name: statistics.median(sample[name] for sample in samples) for name in samples[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    total_bytes = wire_bytes(per_topic)
    digest = per_topic.get("kp.digest", [0, 0])
    metrics["bus.bytes.kp.digest"] = digest[1]
    metrics["bus.digest_byte_share"] = digest[1] / total_bytes
    metrics["system.digest_msgs"] = per_topic.get("published:kp.digest", [0, 0])[0]
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(str(spans_path))
    print(f"# spans of the last traced run: {spans_path.relative_to(ROOT)}")
    note = f"median of {len(traced)} traced runs"
    return metrics, {"trace.overhead_s": f"traced median of {len(traced)} minus untraced median of {len(untraced)}"} | {
        name: note for name in metrics if name.endswith("_s") and name != "trace.overhead_s"
    }


# -- entry points -------------------------------------------------------------------


def report(name: str, seed: int, metrics: dict[str, float], units: dict[str, str], notes: dict[str, str]) -> None:
    print(f"# workload {name}, seed {seed}")
    for key, value in metrics.items():
        print(f"{key:40s} {value:>16.6f} {units[key]:6s} {notes.get(key, '')}".rstrip())


def run_one(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    import_program()
    w = WORKLOADS[args.workload](args.seed)
    gate = Gate()
    if args.trace:
        units = per_layer_units()
        spans_path = SPAN_DIR / f"{w.name}-seed{w.seed}.spans.tsv"
        metrics, notes = measure_layers(w, args.seconds, gate, spans_path)
    else:
        units = END_TO_END_UNITS
        metrics, notes = measure_end_to_end(w, args.seconds, gate)
    fail_rate = gate.failed / gate.attempted
    report(w.name, w.seed, metrics, units, notes)
    print(f"{'fail_rate':40s} {fail_rate:>16.6f} ratio  {gate.failed} of {gate.attempted} runs failed")
    for problem in gate.problems[:20]:
        print(f"FAILED {problem}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, so peak memory is per workload."""
    from workloads import WORKLOADS

    import_program()
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import BASELINE_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
