"""Every statement in src/masdn runs in some run of a small fixed corpus.

A statement that no run reaches is code only tests exercise, which
test_no_test_only_code cannot see below the level of names. This test runs
a fixed corpus of whole runs under sys.settrace, in a fresh interpreter so
that import-time code is traced too, and fails on any statement inside a
function of src/masdn that the corpus never executes, apart from `raise`
statements and the entries of ALLOWED.

The corpus: the three event strategies, each plain, proactive with start
jitter, under a rule cap, with kills (the first broker, the session agent,
forwarding) and with duplicate frames injected; one run with
a tight QoS cap, bulk traffic and a partitioning link failure; one run
under an unbounded install deny; the three non-default stack profiles; and
one CLI compare run.

ALLOWED is keyed by function and statement text, not line number, so an
edit elsewhere in a file does not move it. A statement is reached when any
line it owns runs: a simple statement's lines, a compound statement's header.
"""
import ast
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "masdn"

# (function, first line of the statement) -> why no run reaches it
ALLOWED = {
    ("match_topic", "prefix = fparts[:-1]"):
        "wildcard filters: every subscription is an exact topic; criterion 3 certifies them",
    ("match_topic", "return len(tparts) > len(prefix) and tparts[: len(prefix)] == prefix"):
        "wildcard filters, as above",
    ("orchestrator_decide", "return decision()"):
        "totality: an input that is no event, or an event on another topic",
    ("broker_decide", "return decision()"): "totality: an input that is neither publish nor forward",
    ("lifecycle_only_decide", "return decision()"):
        "totality: these agents are spawned, restored and respawned, and are handed nothing",
    ("classifier_decide", "return decision()"): "totality: a classifier is sent only classify",
    ("qos_decide", "return decision()"): "totality: a QoS agent is sent only admit and release",
    ("forwarding_decide", "return decision()"):
        "totality: a forwarding agent is sent only install and remove",
    ("_SessionState.on_response", "return"):
        "totality: an answer for no conversation in flight, or not the one its stage waits for;"
        " release and remove get no answer, so every answer sent is the awaited one",
    ("event_of", "return None"): "totality: a request or response handed to an event reader",
    ("AgentSystem._control", "return []"): "totality: a host-control body that is no spawn request",
    ("AgentSystem._switch", "return []"): "totality: a southbound body that is not a dict",
    ("decode_body", "return None"): "totality: every frame the program sends carries a body",
    ("merge_digest", "continue"): "a stale digest: the pump's versions only grow, so none arrives",
    ("_check_policies", "existing = {}"): "totality: switch-rules that is not a table",
    ("validate_plan", "violations.append("):
        "a step on an unknown peer, switch or endpoint: no correct cognition plans one",
    **{("Bus._deliver", text): "dead letters: no composed run loses a destination; test_bus checks each"
       for text in ("dst = msg.dst", "if isinstance(dst, AgentId):", 'reason = f"agent {dst} not live"',
                    "elif self.topic_router is not None:",
                    'reason = f"no live broker for topic {dst!r}"',
                    'reason = f"unresolvable destination {dst!r}"',
                    "self.dead_letters.append(DeadLetter(msg, reason))")},
    **{("_uvarint", text): "integers of 2**14 and up: no corpus run sends 16,384 messages"
       for text in ("if not 0 <= n <= _U64_MAX:", "out = bytearray()", "while n > 0x7F:",
                    "out.append(n & 0x7F | 0x80)", "n >>= 7", "out.append(n)", "return bytes(out)")},
    ("_varint_tail", "shift += 7"): "as above: a varint of three bytes or more",
    ("_read_agent", "instance, i = _varint_tail(b, i, instance)"): "agent instances stay below 128",
    ("_decode_binary", "n, i = _varint_tail(b, i, n)"): "topics are shorter than 128 bytes",
    ("freeze", "if cls is tuple:"): "facts hold JSON values, which have no tuple",
    ("freeze", "return tuple([v if type(v) in _KEPT else freeze(v) for v in value])"): "as above",
    ("freeze", "return copy.deepcopy(value)"): "as above: a facts value of another type",
    ("_Shared.__copy__", "return self"): "copy protocol: no run copies a frozen value",
    ("_Shared.__deepcopy__", "return self"): "as above",
    ("AgentId.__lt__", "return NotImplemented"): "comparison protocol: ids are compared with ids",
    ("AgentId.__reduce__", "return AgentId, (self.kind, self.instance)"): "pickle protocol",
    ("Simulator._route_unit", "self.total_drops += 1"):
        "a deliver rule away from the host's switch, or a forwarding loop: no controller makes one",
    ("Simulator._route_unit", "return []"): "as above",
    ("Simulator._route_unit", "self.total_drops += 1  # hop budget exhausted: forwarding loop"):
        "as above",
    ("run_command", "exit_code = 1"): "no corpus CLI run diverges",
    ("compare", 'diff["tables"] = {'): "the one diverging corpus run differs in its ledger alone",
    ("_check_policies", "continue  # replaces an existing entry, count unchanged"):
        "an install into a slot its switch holds: a reroute clears the old path first",
    ("run_command", "tick = max(running.sim.next_tick - 1, 0) if running else 0"):
        "no corpus run stops on a framework error; test_cli injects one",
    ("run_command", 'print(f"error: run stopped at tick {tick}: {type(exc).__name__}: {exc}",'):
        "as above",
    ("run_command", "return 3"): "as above",
}

CAP = {"policy_id": "cap", "issuer_level": "network", "scope": ["forwarding"], "rules": [
    {"effect": "allow", "action_kind": "*"},
    {"effect": "deny", "action_kind": "install-rule", "target_class": "endpoint"},
    {"effect": "deny", "action_kind": "*", "target_class": "switch", "max_per_target": 2},
]}
DENY = {"policy_id": "deny", "issuer_level": "network", "scope": ["forwarding"],
        "rules": [{"effect": "deny", "action_kind": "install-rule"}]}

# a ring of four switches and a stub switch behind a one-unit link, which
# two bulk flows overload and which fails at tick 15
EDGE_TOPO = {
    "switches": ["sw1", "sw2", "sw3", "sw4", "sw5"],
    "hosts": [{"id": "h1", "switch": "sw1"}, {"id": "h2", "switch": "sw3"},
              {"id": "h3", "switch": "sw5"}, {"id": "h4", "switch": "sw2"}],
    "links": [{"a": a, "b": b, "capacity": 1 if b == "sw5" else 20, "latency": 1}
              for a, b in (("sw1", "sw2"), ("sw2", "sw3"), ("sw3", "sw4"), ("sw1", "sw4"),
                           ("sw4", "sw5"))],
}
EDGE_SCENARIO = {
    "seed": 3, "duration_ticks": 140,
    "flows": [
        {"src": "h1", "dst": "h2", "start_tick": 2, "size": 40, "gap": 1},
        {"src": "h4", "dst": "h2", "start_tick": 3, "size": 40, "gap": 1},
        {"src": "h1", "dst": "h3", "start_tick": 4, "size": 300, "gap": 1},
        {"src": "h4", "dst": "h3", "start_tick": 5, "size": 120, "gap": 1},
        {"src": "h2", "dst": "h3", "start_tick": 30, "size": 10, "gap": 4},
    ],
    "failures": [{"a": "sw1", "b": "sw2", "at": 10}, {"a": "sw4", "b": "sw5", "at": 15}],
}


def corpus():
    """Run every corpus case. The corpus measures reach, not equivalence:
    the rule cap on EDGE_TOPO diverges (ROADMAP item 1(b)), which is also
    the one run that reaches compare's diff."""
    from masdn import AgentSystem, MonolithicController
    from masdn.cli import main
    from masdn.oracle import compare

    from helpers import Fabric, build, gen_scenario, gen_topology

    def run(tdoc, sdoc, config, duplicate_every=0):
        topo, scen = build(tdoc, sdoc)
        system = AgentSystem(topo, scen, config)
        Fabric(system.bus, duplicate_every=duplicate_every)
        compare(system.run(), MonolithicController(topo, scen, config).run())

    kills = {"7": ["event-distribution#0"], "13": ["session#0"], "22": ["forwarding#0"]}
    for strategy in ("centralized", "distributed", "hybrid"):
        for i, (extra, config, duplicate_every) in enumerate((
            ({}, {}, 0),
            ({"jitter": 2}, {"proactive": True}, 0),
            ({}, {"policies": [CAP]}, 0),
            ({}, {"kills": kills}, 0),
            ({}, {}, 7),
        )):
            rng = random.Random(i)
            tdoc = gen_topology(rng, 7)
            sdoc = dict(gen_scenario(rng, tdoc, 8, 2, 40), **extra)
            run(tdoc, sdoc, dict(config, event_strategy=strategy), duplicate_every)
    short = dict(EDGE_SCENARIO, duration_ticks=40)
    run(EDGE_TOPO, EDGE_SCENARIO, {"qos_cap_permille": 60})
    run(EDGE_TOPO, short, {"policies": [CAP]})
    run(EDGE_TOPO, short, {"policies": [DENY]})
    for profile in ("bin-amo-64k", "txt-alo-64k", "txt-amo-64k"):
        run(EDGE_TOPO, short, {"profile": profile, "qos_cap_permille": 60})
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        (Path(tmp) / "scenario.json").write_text(json.dumps(dict(EDGE_SCENARIO, duration_ticks=30)))

        def cli(doc, *args):
            config.write_text(json.dumps(doc))
            return main(["run", str(config), "--out-dir", tmp, *args])

        doc = {"topology": EDGE_TOPO, "scenario": "scenario.json", "seed": 4, "chain": ["session"],
               "kills": {"12": ["qos#0"]}, "thresholds": {"size": 90}}
        assert cli(doc) == 0
        assert cli(doc, "--mode", "agents", "--seed", "5") == 0
        assert cli(doc, "--mode", "monolithic") == 0
        assert cli(dict(doc, profile="pps-carrier-pigeon")) == 2
        assert cli(dict(doc, mode="turbo")) == 2
        assert main(["run", str(Path(tmp) / "missing.json")]) == 2


def statements(path):
    """(function qualname, statement) for every statement inside a function,
    docstrings and raise statements left out."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if func is not None:
                    found.append((func, child))
                visit(child, child.name if func is None else f"{func}.{child.name}")
                continue
            if isinstance(child, ast.stmt) and func is not None and not (
                isinstance(child, (ast.Raise, ast.Try))
                or isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
            ):
                found.append((func, child))
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def own_lines(node):
    """The lines whose execution shows that node ran."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        return range(start, max(body[0].lineno, start + 1))
    return range(node.lineno, node.end_lineno + 1)


def traced_lines():
    """{file name: lines run}, from the corpus in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return {name: set(lines) for name, lines in json.loads(proc.stdout).items()}


def unreached(ran):
    """'file:line function: text' of each statement no run reached and
    ALLOWED does not list, and the ALLOWED keys that match no statement."""
    missed, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for func, node in statements(path):
            if any(line in ran.get(path.name, ()) for line in own_lines(node)):
                continue
            key = (func, lines[node.lineno - 1].strip())
            if key in ALLOWED:
                used.add(key)
                continue
            missed.append(f"{path.name}:{node.lineno} {func}: {key[1]}")
    return missed, sorted(set(ALLOWED) - used)


def test_every_statement_runs_in_the_corpus():
    missed, stale = unreached(traced_lines())
    assert missed == [], "statements no corpus run reaches:\n" + "\n".join(missed)
    assert stale == [], "ALLOWED entries that match no unreached statement"


if __name__ == "__main__":
    files = {str(p): p.name for p in SRC.glob("*.py")}
    ran = {name: set() for name in files.values()}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in files else None

    sys.settrace(trace_calls)
    try:
        corpus()
    finally:
        sys.settrace(None)
    json.dump({name: sorted(lines) for name, lines in ran.items()}, sys.stdout)
