"""Golden artifacts: three small `masdn run` compare-mode configs must keep
writing the same bytes.

Each config is built from the tests/helpers.py generators with a fixed seed,
and the sha256 of every artifact (outcome.json, run.log, stats.csv,
diff.json) is pinned, so a speed-up that changes any outcome, log record or
wire byte fails here, naming the artifacts that moved. The outcome.json,
stats.csv and diff.json constants were recorded before facts were frozen on
write instead of deep-copied. The run.log constants were last re-recorded
when each spec came to carry only what its agent reads and digests came to
start from the spec: every spawn-agent input record at host.control logs
fewer payload bytes; routing and session no longer send the genesis view
back at tick 0, so those digest frames and their pipeline records are gone;
and a broker relays a publish only towards a matching subscriber, so the
forwards to brokers with none, and their records, are gone too. Fewer
frames move the message ids and sequence numbers of every later record.
The deliveries, decisions and tables are unchanged, so the other three
artifacts keep their bytes.
hybrid-proactive's run.log was re-recorded once more when QoS stopped
answering a release and forwarding a remove, answers the session agent
never read: its reroutes' three remove and two release answers, and the
six pipeline records of each, are gone (703 records to 673).
All three run.log constants were re-recorded again when the session
agent's pending table left its digest keys: the table is empty at every
pump, so each of its digests was an empty delta. Only the "bytes" of the
orchestrator's input records for the session agent's digests move (7, 5
and 5 records, 354, 248 and 248 bytes fewer in all); every record keeps
its place, ids and sequence numbers.
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
            "run.log": "d3f3153f496614ceb0812836012449d8c31ad4c157c395461d1b95c2ff944b84",
            "stats.csv": "afc834dc4a6d33e7aa3e3c9055b241c4b86e34f7697c8468cac1df6550b57694",
            "diff.json": "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
        },
    ),
    "distributed-kill-session": (
        0,
        {
            "outcome.json": "57d7ab073da0ee5cbfe058ac2d154482e900e529fb1b7c930584c324f87f1ae7",
            "run.log": "520eb60aa65ed97eb499d403f0697a7e44438b751d1042c5df0482a6a9a4e354",
            "stats.csv": "38bfaab0d91b62a7424a4bb39febbb5006c74786e52f257514557351f534eaf9",
            "diff.json": "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
        },
    ),
    "hybrid-proactive": (
        0,
        {
            "outcome.json": "ab0cebde5c16702d9eef7ce0269a6e7f830dd862db93f8b9b7fc203f63721b2a",
            "run.log": "66670822f86b3bd8a5db217a84d3e21cd03d7284754a5233b49709364632ee9a",
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
