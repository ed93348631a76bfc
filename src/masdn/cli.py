"""Command line runner.

    masdn run config.json [--mode agents|monolithic|compare] [--seed N] [--out-dir PATH]

Writes outcome.json, stats.csv and run.log to the output directory, plus
diff.json in compare mode. Exit status is 0 only when the run completed
and, in compare mode, the two controllers were behaviorally identical;
1 when they diverged, 2 for a config rejected before the run (no
artifact), and 3 for a run stopped by a framework error (run.log only).
A config is rejected for a missing file, a malformed topology or scenario,
or whatever config.parse_config refuses: an unknown key, a value of the
wrong type, or one no run of the scenario's length can honour.
All outputs are a pure function of the config and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any

from .config import MODES, cli_documents, parse_config
from .core import MasdnError
from .netsim import Scenario, SchemaError, Topology
from .oracle import MonolithicController, compare
from .system import AgentSystem


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
        doc = json.loads(config_path.read_text())
        topo_entry, scenario_entry = cli_documents(doc)
        topo = Topology.from_doc(_load_doc(topo_entry, base, "topology"))
        scenario = Scenario.from_doc(_load_doc(scenario_entry, base, "scenario"), topo)
        config = parse_config(doc, scenario.duration)
    except (FileNotFoundError, SchemaError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else config.seed
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    mode = args.mode or config.mode

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
