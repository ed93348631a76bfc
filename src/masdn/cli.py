"""Command line runner.

    masdn run config.json [--mode agents|monolithic|compare] [--seed N] [--out-dir PATH]

Writes outcome.json, stats.csv and run.log to the output directory, plus
diff.json in compare mode. Exit status is 0 only when the run completed
and, in compare mode, the two controllers were behaviorally identical;
1 when they diverged, 2 for a config rejected before the run (no
artifact), and 3 for a run stopped by a framework error (run.log only).
All outputs are a pure function of the config and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable

from .core import AgentId, FunctionKind, MasdnError
from .hierarchy import shared_policy
from .netsim import Scenario, SchemaError, Topology
from .oracle import MonolithicController, compare
from .orchestrator import BROKER_COUNT, check_kill_ticks, check_roster
from .system import AgentSystem, resolve_profile

MODES = ("agents", "monolithic", "compare")


def _load_doc(value: Any, base: Path, what: str) -> dict[str, Any]:
    """A config entry may be an inline object or a path to a JSON file."""
    if isinstance(value, dict):
        return value
    if isinstance(value, str):
        path = Path(value)
        if not path.is_absolute():
            path = base / path
        if not path.exists():
            raise FileNotFoundError(f"{what} file not found: {path}")
        return json.loads(path.read_text())
    raise SchemaError(f"config {what!r} must be an object or a path string")


def _check_config(config: Any) -> None:
    """Reject the run-config values that would otherwise fail mid-run."""
    if not isinstance(config, dict):
        raise SchemaError("config must be a JSON object")
    seed = config.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise SchemaError(f"config seed must be an integer, got {seed!r}")
    strategy = config.get("event_strategy", "centralized")
    if strategy not in BROKER_COUNT:
        raise SchemaError(
            f"unknown event_strategy {strategy!r}; expected one of {sorted(BROKER_COUNT)}"
        )
    kills = config.get("kills", {})
    if not isinstance(kills, dict):
        raise SchemaError("config kills must be an object: tick -> agent ids")
    for tick, agents in kills.items():
        try:
            int(tick)
            if not isinstance(agents, list):
                raise TypeError(f"{agents!r} is not a list")
            for agent in agents:
                AgentId.parse(agent)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad kills entry {tick!r}: {exc}") from exc
    _check_each(config, "chain", FunctionKind)
    check_roster(config)
    resolve_profile(config)
    _check_each(config, "policies", shared_policy)
    thresholds = config.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise SchemaError("config thresholds must be an object: name -> value")
    for name, value in thresholds.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"config threshold {name!r} must be a number, got {value!r}")
    cap = config.get("qos_cap_permille", 0)
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise SchemaError(f"config qos_cap_permille must be an integer, got {cap!r}")


def _check_each(config: dict[str, Any], key: str, build: Callable[[Any], Any]) -> None:
    """A config list must be a list, and build must accept each entry."""
    entries = config.get(key, [])
    if not isinstance(entries, list):
        raise SchemaError(f"config {key} must be a list, got {entries!r}")
    for entry in entries:
        try:
            build(entry)
        except (AttributeError, KeyError, TypeError, ValueError, MasdnError) as exc:
            raise SchemaError(f"bad config {key} entry {entry!r}: {exc!r}") from exc


def _dump_json(path: Path, doc: Any) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_stats(path: Path, stats: list[Any]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "link_a", "link_b", "bytes", "drops"])
        for row in stats:
            for a, b, nbytes, drops in row.links:
                writer.writerow([row.tick, a, b, nbytes, drops])


def run_command(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    if not config_path.exists():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    base = config_path.parent
    try:
        config = json.loads(config_path.read_text())
        _check_config(config)
        topo = Topology.from_doc(_load_doc(config.get("topology"), base, "topology"))
        scenario = Scenario.from_doc(
            _load_doc(config.get("scenario"), base, "scenario"), topo
        )
        check_kill_ticks(config, scenario.duration)
    except (FileNotFoundError, SchemaError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    elif config.get("seed") is not None:
        scenario = dataclasses.replace(scenario, seed=config["seed"])
    mode = args.mode or config.get("mode", "compare")
    if mode not in MODES:
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "run.log"

    exit_code = 0
    running: AgentSystem | MonolithicController | None = None
    with log_path.open("w") as log_fh:

        def sink(record: dict[str, Any]) -> None:
            log_fh.write(json.dumps(record, sort_keys=True) + "\n")

        try:
            if mode == "monolithic":
                running = controller = MonolithicController(topo, scenario, config)
                outcome = controller.run()
                stats = controller.stats
            else:
                running = system = AgentSystem(topo, scenario, config, log_sink=sink)
                agents_outcome = system.run()
                stats = system.stats
                if mode == "agents":
                    outcome = agents_outcome
                else:
                    running = controller = MonolithicController(topo, scenario, config)
                    mono_outcome = controller.run()
                    diff = compare(agents_outcome, mono_outcome)
                    _dump_json(out_dir / "diff.json", diff)
                    outcome = {
                        "mode": "compare",
                        "seed": scenario.seed,
                        "equivalent": not diff,
                        "agents": agents_outcome,
                        "monolithic": mono_outcome,
                    }
                    if diff:
                        exit_code = 1
        except MasdnError as exc:
            # the tick the running controller was stepping; genesis is tick 0
            tick = max(running.sim.next_tick - 1, 0) if running else 0
            print(f"error: run stopped at tick {tick}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 3

    _dump_json(out_dir / "outcome.json", outcome)
    _write_stats(out_dir / "stats.csv", stats)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="masdn",
        description="Multi-agent SDN controller with a monolithic reference oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute one configured run")
    run.add_argument("config", help="path to the run config JSON")
    run.add_argument("--mode", choices=MODES, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out-dir", default="out")
    run.set_defaults(func=run_command)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
