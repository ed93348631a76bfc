"""Golden artifacts: three small `masdn run` compare-mode configs must keep
writing the same bytes.

Each config is built from the tests/helpers.py generators with a fixed seed,
and the sha256 of every artifact (outcome.json, run.log, stats.csv,
diff.json) is pinned, so a speed-up that changes any outcome, log record or
wire byte fails here, naming the artifacts that moved. The outcome.json,
stats.csv and diff.json constants were recorded before facts were frozen on
write instead of deep-copied. The run.log constants were last re-recorded
when the default roster shrank to what the chain names: the topology,
monitoring, fault and discovery agents are no longer composed, so their
spawns, leases, beat ticks and beats are gone, and the session agent's
digests no longer carry a "session-seq" counter (the sessions table
numbers the next session). The records and message ids move from genesis
on. The decisions are unchanged, so the other three artifacts keep their
bytes.
The hashes do not depend on PYTHONHASHSEED.
When a change is meant to alter the artifacts, re-record the constants and
say why in the change's notes.
"""
import hashlib
import json
import random

import pytest

from masdn.cli import main

from helpers import gen_scenario, gen_topology

ARTIFACTS = ("outcome.json", "run.log", "stats.csv", "diff.json")


def _config(seed, n_switches, n_flows, n_failures, duration, long_lived=False, **extra):
    rng = random.Random(seed)
    tdoc = gen_topology(rng, n_switches)
    sdoc = gen_scenario(rng, tdoc, n_flows, n_failures, duration, long_lived=long_lived)
    return {"topology": tdoc, "scenario": sdoc, **extra}


CONFIGS = {
    "centralized": _config(11, 6, 8, 2, 40, event_strategy="centralized"),
    "distributed-kill-session": _config(
        12, 6, 6, 1, 40, long_lived=True,
        event_strategy="distributed", kills={"14": ["session#0"]},
    ),
    "hybrid-proactive": _config(13, 6, 8, 2, 40, event_strategy="hybrid", proactive=True),
}

# name -> (exit status, {artifact: sha256})
GOLDEN = {
    "centralized": (
        0,
        {
            "outcome.json": "9d7df6e08f605236441792fc445708a8bee2ca7bee232834eb24da6bc7505ac6",
            "run.log": "eace0bb1aafe4d3b316b68994b89715171f31b345e54548e4cf56ec8906e35cd",
            "stats.csv": "afc834dc4a6d33e7aa3e3c9055b241c4b86e34f7697c8468cac1df6550b57694",
            "diff.json": "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
        },
    ),
    "distributed-kill-session": (
        0,
        {
            "outcome.json": "57d7ab073da0ee5cbfe058ac2d154482e900e529fb1b7c930584c324f87f1ae7",
            "run.log": "9e49d33a97745eb23b559fcbdfd9d6d8631d1b71cf03cdd16c8c220b8c1d35c9",
            "stats.csv": "38bfaab0d91b62a7424a4bb39febbb5006c74786e52f257514557351f534eaf9",
            "diff.json": "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
        },
    ),
    "hybrid-proactive": (
        0,
        {
            "outcome.json": "ab0cebde5c16702d9eef7ce0269a6e7f830dd862db93f8b9b7fc203f63721b2a",
            "run.log": "0245f2eabacee332c87a3fc345fb6661ecfa17c14357da7295c948380d0cd38a",
            "stats.csv": "3edfab2026d98f54c995eb9605010f2a20ab518ed0480c9fd0c05f42b4ad9aa6",
            "diff.json": "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_hashes(tmp_path, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIGS[name]))
    out = tmp_path / "out"
    status = main(["run", str(path), "--out-dir", str(out)])
    expected_status, expected = GOLDEN[name]
    assert status == expected_status
    moved = [
        artifact
        for artifact in ARTIFACTS
        if hashlib.sha256((out / artifact).read_bytes()).hexdigest() != expected[artifact]
    ]
    assert moved == []
