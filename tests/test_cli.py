"""CLI surface: artifacts, exit codes, seed handling, rerun determinism."""
import json
from unittest.mock import patch

import pytest

from masdn import AgentSystem, MonolithicController, Scenario, Topology
from masdn.cli import main
from masdn.core import PayloadTooLarge
from masdn.netsim import SchemaError
from masdn.pps import DEFAULT_PROFILES, encode

TOPO = {
    "switches": ["sw1", "sw2", "sw3"],
    "hosts": [{"id": "h1", "switch": "sw1"}, {"id": "h2", "switch": "sw3"}],
    "links": [
        {"a": "sw1", "b": "sw2", "capacity": 20, "latency": 1},
        {"a": "sw2", "b": "sw3", "capacity": 20, "latency": 1},
    ],
}

SCENARIO = {
    "seed": 5,
    "duration_ticks": 30,
    "flows": [
        {"src": "h1", "dst": "h2", "start_tick": 2, "size": 20, "gap": 1},
        {"src": "h2", "dst": "h1", "start_tick": 5, "size": 120, "gap": 4},
    ],
    "failures": [],
}


# run configs refused alike by `masdn run` (exit 2, given a topology and a
# scenario) and by both controllers (SchemaError)
BAD_CONFIGS = [
    ("top-level-not-object", [{}]),
    ("seed-not-integer", {"seed": "x"}),
    ("unknown-event-strategy", {"event_strategy": "mesh"}),
    ("kills-malformed-agent-id", {"kills": {"3": ["nosuch#0"]}}),
    ("chain-unknown-kind", {"chain": ["session", "teleport"]}),
    ("chain-a-string", {"chain": "session"}),
    # chains and kills the orchestrator cannot compose: each once ran
    # to a framework error at tick 0 (exit 3), to a compare that
    # always diverges (exit 1), or as a run that killed no one
    ("chain-kind-without-cognition", {"chain": ["session", "mobility"]}),
    ("chain-switch-adapter", {"chain": ["switch-adapter"]}),
    ("chain-orchestration", {"chain": ["session", "orchestration"]}),
    ("chain-event-distribution", {"chain": ["session", "event-distribution"]}),
    ("chain-without-session", {"chain": ["monitoring"]}),
    ("chain-empty", {"chain": []}),
    ("kill-outside-the-roster", {"kills": {"12": ["mobility#0", "routing#7"]}}),
    ("kill-uncomposed-kind", {"kills": {"12": ["monitoring#0"]}}),
    ("kill-the-orchestrator", {"kills": {"12": ["orchestration#0"]}}),
    ("kill-a-broker-of-another-strategy", {"kills": {"12": ["event-distribution#1"]}}),
    ("profiles-unknown-profile", {"profiles": ["pps-carrier-pigeon"]}),
    ("profile-unknown-id", {"profile": "pps-carrier-pigeon"}),
    ("profiles-leftover-list", {"profiles": ["bin-alo-64k", "txt-amo-64k"]}),
    ("policy-without-policy-id", {"policies": [
        {"issuer_level": "network", "scope": ["forwarding"],
         "rules": [{"effect": "deny", "action_kind": "install-rule"}]}
    ]}),
    ("thresholds-not-object", {"thresholds": [100, 3]}),
    ("qos-cap-not-integer", {"qos_cap_permille": "700"}),
    ("threshold-not-a-number", {"thresholds": {"size": "x"}}),
    ("rule-cap-not-integer", {"policies": [
        {"policy_id": "cap", "issuer_level": "network", "scope": ["forwarding"],
         "rules": [{"effect": "deny", "action_kind": "install-rule", "max_per_target": "2"}]}
    ]}),
    ("policy-scoped-beyond-forwarding", {"policies": [
        {"policy_id": "no-classify", "issuer_level": "network", "scope": ["session"],
         "rules": [{"effect": "deny", "action_kind": "classify"}]}
    ]}),
    ("policy-denies-remove-rule", {"policies": [
        {"policy_id": "no-remove", "issuer_level": "network", "scope": ["forwarding"],
         "rules": [{"effect": "deny", "action_kind": "remove-rule"}]}
    ]}),
    # each of these once ran with a meaning other than the config's (a key
    # ignored, a string read as true, a kill lost to another key naming its
    # tick) or stopped the CLI with a traceback (an unhashable strategy)
    ("unknown-key", {"inventory": {"n1": 1}}),
    ("proactive-not-boolean", {"proactive": "no"}),
    ("threshold-unknown-name", {"thresholds": {"sise": 5}}),
    ("threshold-a-boolean", {"thresholds": {"gap": True}}),
    ("event-strategy-a-list", {"event_strategy": ["centralized"]}),
    ("kills-tick-leading-zero", {"kills": {"017": ["qos#0"]}}),
    ("kills-tick-padded", {"kills": {" 17": ["qos#0"]}}),
    ("kills-tick-plus-sign", {"kills": {"+17": ["qos#0"]}}),
    ("kills-tick-underscore", {"kills": {"1_7": ["qos#0"]}}),
    # int("017") == 17: one key overwrote the other, and one kill of the two ran
    ("kills-ticks-colliding", {"kills": {"17": ["qos#0"], "017": ["routing#0"]}}),
]

def write_config(tmp_path, inline=True, **overrides):
    config = {"topology": TOPO, "scenario": SCENARIO, **overrides}
    if not inline:
        (tmp_path / "topo.json").write_text(json.dumps(TOPO))
        (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
        config["topology"] = "topo.json"
        config["scenario"] = "scenario.json"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestRunArtifacts:
    def test_compare_mode_writes_all_artifacts(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "--out-dir", str(out)]) == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["mode"] == "compare"
        assert outcome["equivalent"] is True
        assert json.loads((out / "diff.json").read_text()) == {}
        header = (out / "stats.csv").read_text().splitlines()[0]
        assert header == "tick,link_a,link_b,bytes,drops"
        stages = {json.loads(line).get("stage")
                  for line in (out / "run.log").read_text().splitlines()}
        assert {"input", "facts", "cognition", "planning", "validation",
                "output"} <= stages

    def test_agents_mode_outcome_carries_tables_and_ledger(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "--mode", "agents", "--out-dir", str(out)]) == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["mode"] == "agents"
        assert set(outcome["tables"]) == {"sw1", "sw2", "sw3"}
        assert outcome["ledger"]
        assert not (out / "diff.json").exists()

    def test_monolithic_mode_runs_without_agents(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "--mode", "monolithic", "--out-dir", str(out)]) == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["mode"] == "monolithic"
        assert (out / "run.log").read_text() == ""

    def test_file_referenced_documents_resolve_relative_to_config(self, tmp_path):
        config = write_config(tmp_path, inline=False)
        out = tmp_path / "out"
        assert main(["run", str(config), "--out-dir", str(out)]) == 0


class TestStackProfile:
    def test_every_profile_runs_the_same_compare(self, tmp_path):
        # the text codec and the at-most-once profiles on the live path: the
        # profile changes the frames, never what either controller decides
        default = tmp_path / "default"
        assert main(["run", str(write_config(tmp_path)), "--out-dir", str(default)]) == 0
        for profile in DEFAULT_PROFILES:
            out = tmp_path / profile.profile_id
            config = write_config(tmp_path, profile=profile.profile_id)
            with patch("masdn.bus.encode", wraps=encode) as encoded:
                assert main(["run", str(config), "--out-dir", str(out)]) == 0
            assert {c.args[1] for c in encoded.call_args_list} == {profile}
            assert (out / "outcome.json").read_bytes() == (default / "outcome.json").read_bytes()


class TestErrorPaths:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_missing_topology_file_exits_2_naming_the_path(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"topology": "gone.json", "scenario": SCENARIO}))
        assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert "gone.json" in capsys.readouterr().err

    def test_malformed_scenario_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "topology": TOPO,
            "scenario": {"seed": 1, "duration_ticks": 0, "flows": []},
        }))
        assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("jitter", [-3, "x"])
    def test_bad_jitter_exits_2(self, tmp_path, capsys, jitter):
        # exit 1 means the controllers diverged, so a bad config must not reach it
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"topology": TOPO, "scenario": dict(SCENARIO, jitter=jitter)}))
        assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    # a topology part that is not a list, and a number that is not a JSON
    # integer: each once ran, read as characters or coerced through int();
    # a dangling host, a self-loop and an id that is not a string once ended
    # in a traceback and exit 1
    @pytest.mark.parametrize("topology, scenario", [
        ({"switches": "ab", "hosts": [], "links": []}, {**SCENARIO, "flows": []}),
        ({**TOPO, "links": {"sw1": "sw2"}}, SCENARIO),
        ({**TOPO, "hosts": [*TOPO["hosts"], {"id": "h3", "switch": "sw9"}]}, SCENARIO),
        ({**TOPO, "links": [{"a": "sw1", "b": "sw1", "capacity": 20, "latency": 1}]}, SCENARIO),
        (TOPO, {**SCENARIO, "duration_ticks": 30.9}),
        (TOPO, {**SCENARIO, "seed": True}),
        (TOPO, {**SCENARIO, "jitter": "2"}),
        (TOPO, {**SCENARIO, "flows": [{**SCENARIO["flows"][0], "size": 20.0}]}),
        ({"switches": [["x"]], "hosts": [], "links": []}, {**SCENARIO, "flows": []}),
        ({**TOPO, "hosts": [{"id": 1, "switch": "sw1"}]}, {**SCENARIO, "flows": []}),
        ({**TOPO, "hosts": [*TOPO["hosts"], {"id": "h3", "switch": ["sw1"]}]}, SCENARIO),
        ({**TOPO, "links": [{**TOPO["links"][0], "b": ["sw2"]}]}, SCENARIO),
        (TOPO, {**SCENARIO, "flows": [{**SCENARIO["flows"][0], "src": ["h1"]}]}),
        (TOPO, {**SCENARIO, "failures": [{"a": "sw1", "b": ["sw2"], "at": 3}]}),
    ], ids=["switches-a-string", "links-an-object", "host-on-an-unknown-switch",
            "link-to-itself", "duration-a-float", "seed-a-boolean",
            "jitter-a-string", "flow-size-a-float", "switch-id-a-list",
            "host-id-a-number", "host-switch-a-list", "link-end-a-list",
            "flow-src-a-list", "failure-end-a-list"])
    def test_a_malformed_topology_or_scenario_exits_2(
        self, tmp_path, capsys, topology, scenario
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"topology": topology, "scenario": scenario}))
        assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", [doc for _id, doc in BAD_CONFIGS],
                             ids=[name for name, _doc in BAD_CONFIGS])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, doc):
        # most of these once ended in a traceback and exit 1, the divergence code
        if isinstance(doc, dict):
            doc = {"topology": TOPO, "scenario": SCENARIO, **doc}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", [doc for _id, doc in BAD_CONFIGS],
                             ids=[name for name, _doc in BAD_CONFIGS])
    def test_both_controllers_refuse_what_the_cli_refuses(self, doc):
        # one parse for all three entry points: the monolith once ran an
        # unknown event_strategy, which the agents died on with a KeyError
        topo = Topology.from_doc(TOPO)
        scenario = Scenario.from_doc(SCENARIO, topo)
        for controller in (AgentSystem, MonolithicController):
            with pytest.raises(SchemaError):
                controller(topo, scenario, doc)

    @pytest.mark.parametrize("tick", ["500", "-3", "29", "30"])
    def test_a_kill_tick_no_run_can_honour_exits_2(self, tmp_path, capsys, tick):
        # a kill after tick t is respawned at t + 1, so on a 30-tick run a
        # kill falls on ticks 0 to 28; each of these once ran to exit 0 with
        # no respawn checked
        config = write_config(tmp_path, kills={tick: ["qos#0"]})
        assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "0 .. 28" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tick", ["0", "28"])
    def test_a_kill_on_the_first_or_second_to_last_tick_is_respawned(self, tmp_path, tick):
        config = write_config(tmp_path, kills={tick: ["qos#0"]})
        out = tmp_path / "out"
        assert main(["run", str(config), "--out-dir", str(out)]) == 0
        spawns = [r["at"] for r in map(json.loads, (out / "run.log").read_text().splitlines())
                  if r.get("stage") == "spawn" and r["agent"] == "qos#0"]
        assert spawns == [0, int(tick) + 1]

    def test_a_kill_of_an_agent_its_chain_composes_runs(self, tmp_path):
        config = write_config(tmp_path, chain=["session", "monitoring"],
                              kills={"12": ["monitoring#0"]})
        out = tmp_path / "out"
        assert main(["run", str(config), "--out-dir", str(out)]) == 0
        kills = [r for r in map(json.loads, (out / "run.log").read_text().splitlines())
                 if r.get("stage") == "kill"]
        assert [r["agent"] for r in kills] == ["monitoring#0"]

    def test_a_leftover_profiles_list_names_its_replacement(self, tmp_path, capsys):
        # an old config must not run silently under the default profile
        config = write_config(tmp_path, profiles=["txt-amo-64k"])
        assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert "'profile'" in capsys.readouterr().err

    def test_a_framework_error_mid_run_exits_3_keeping_only_the_log(
        self, tmp_path, capsys, monkeypatch
    ):
        # exit 1 means the controllers diverged; a run that dies is not that
        pump = AgentSystem._pump_digests

        def failing_pump(system):
            if system.host.now == 7:
                raise PayloadTooLarge("payload of 70000 bytes exceeds profile max_payload 65536")
            pump(system)

        monkeypatch.setattr(AgentSystem, "_pump_digests", failing_pump)
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "error: run stopped at tick 7: PayloadTooLarge: payload of 70000 bytes" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["run.log"]
        assert (out / "run.log").read_text()

    def test_unknown_mode_in_config_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, mode="turbo")
        assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert "turbo" in capsys.readouterr().err


class TestSeedHandling:
    def test_cli_seed_overrides_scenario(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(config), "--mode", "agents", "--seed", "99",
              "--out-dir", str(out)])
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["seed"] == 99

    def test_config_seed_wins_over_scenario_doc(self, tmp_path):
        config = write_config(tmp_path, seed=77)
        out = tmp_path / "out"
        main(["run", str(config), "--mode", "agents", "--out-dir", str(out)])
        assert json.loads((out / "outcome.json").read_text())["seed"] == 77

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        first, second = tmp_path / "a", tmp_path / "b"
        main(["run", str(config), "--out-dir", str(first)])
        main(["run", str(config), "--out-dir", str(second)])
        for name in ("outcome.json", "stats.csv", "run.log", "diff.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
