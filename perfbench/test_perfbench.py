"""Self-tests of the benchmark: python3 -m pytest -q perfbench

They run small generated scenarios, not the benchmark's workloads, so they
take seconds.
"""

from __future__ import annotations

import copy

import pytest

import run
import spans
import workloads

run.import_program()


def small(name: str = "small", seed: int = 5, **overrides):
    shape = dict(switches=6, hosts=6, chords=3, flows=6, failures=1, ticks=40, long_lived=False,
                 hop_profile=(1, 2, 3), strategy="hybrid")
    shape.update(overrides)
    return workloads._build(name, seed, **shape)


@pytest.mark.parametrize("make", list(workloads.WORKLOADS.values()))
def test_generator_is_a_function_of_the_seed(make):
    a, b, c = make(7), make(7), make(8)
    assert (a.topology, a.scenario, a.config) == (b.topology, b.scenario, b.config)
    assert a.scenario != c.scenario
    pairs = [(f["src"], f["dst"]) for f in a.scenario["flows"]]
    assert len(set(pairs)) == len(pairs)
    run.build(a)  # the documents parse


def test_traced_run_leaves_outcomes_and_modules_as_they_were():
    from masdn import bus, functions, oracle, pps, runtime, system

    w = small()
    registry_before = dict(runtime._COGNITIONS)
    bound_before = {
        (mod.__name__, attr): getattr(mod, attr)
        for mod in (bus, functions, oracle, pps, runtime, system)
        for attr in ("encode", "decode", "encode_body", "decode_body", "shortest_path", "validate_plan")
        if hasattr(mod, attr)
    }
    plain = run.run_agents(w)
    _, plain_mono = run.run_mono(w)

    tracer = spans.Tracer()
    spans.install(tracer)
    patches = tracer.patched()
    try:
        traced = run.run_agents(w, tracer)
        _, traced_mono = run.run_mono(w, tracer)
    finally:
        tracer.uninstall()

    assert run.outcome_digest(traced.outcome) == run.outcome_digest(plain.outcome)
    assert run.outcome_digest(traced_mono) == run.outcome_digest(plain_mono)
    assert run.restored(patches) == []
    assert runtime._COGNITIONS == registry_before
    for (modname, attr), original in bound_before.items():
        assert getattr(__import__(modname, fromlist=[attr]), attr) is original, (modname, attr)
    for layer in ("pps.frame_encode", "pps.body_encode", "bus.run", "runtime.facts_put", "netsim.step",
                  "system.pump", "system.genesis", "logic.path", "oracle.path",
                  "runtime.pipeline.session", "functions.cognition.session", "infra.cognition.event-distribution",
                  "orchestrator.cognition.orchestration"):
        assert tracer.calls[layer] > 0, layer
    metrics = run.layer_metrics(tracer, traced, w)
    assert set(run.per_layer_units()) - set(metrics) == {
        "trace.overhead_s", "bus.bytes.kp.digest", "bus.digest_byte_share", "system.digest_msgs"
    }


def test_restored_reports_an_attribute_left_patched():
    from masdn import bus

    tracer = spans.Tracer()
    tracer.patch(bus, "encode", "pps.frame_encode")
    patches = tracer.patched()
    try:
        assert run.restored(patches) == ["masdn.bus.encode"]
    finally:
        tracer.uninstall()
    assert run.restored(patches) == []


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.total_s["outer"] >= tracer.total_s["inner"]
    assert tracer.self_s["outer"] == pytest.approx(tracer.total_s["outer"] - tracer.total_s["inner"])
    inner, outer = tracer.spans
    assert inner[4] == outer[0] and outer[4] == 0


def test_gate_rejects_a_diverging_outcome():
    w = small()
    agents = run.run_agents(w)
    _, mono = run.run_mono(w)
    assert run.check(w, agents, mono) == []
    wrong = copy.deepcopy(mono)
    switch = next(sw for sw, rules in wrong["tables"].items() if rules)
    wrong["tables"][switch].pop()
    assert run.check(w, agents, wrong)


def test_recovery_gate_requires_a_timely_respawn():
    # long enough for a flow first seen during the outage to be set up after it
    w = small(kills={"session#0": 20}, long_lived=True, failures=0, ticks=80)
    agents = run.run_agents(w)
    _, mono = run.run_mono(w)
    assert run.check(w, agents, mono) == []
    late = [(a, t + 30 if a == "session#0" and t > 20 else t) for a, t in agents.system.spawn_log]
    agents.system.spawn_log[:] = late
    assert any("session#0" in p for p in run.check(w, agents, mono))
