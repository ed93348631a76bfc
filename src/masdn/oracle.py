"""Monolithic reference controller and the equivalence comparison.

This controller does everything the agent society does — classification,
routing, admission, rule installation, reroute sweeps, proactive setup —
as plain sequential calls into the very same decision library (logic.py)
and the very same plan validator, over its own simulator instance. No
messages, no registry, no brokers. A divergence between the two modes
therefore isolates a defect in the distributed choreography, never in the
decision logic, which is shared by construction.

Event processing order per tick matches the bridge exactly: link failures
(reroute sweep each), then packet-ins (session conversations), then on
every REFRESH_EVERY-th tick the periodic reroute sweep, which the session
agent runs on that tick's events.tick, then in a proactive run the
declared flows that start next tick (the session agent's events.flow).
Equality is judged on normalized final flow tables (rule ids are
allocation order, not behavior, so they are dropped) and normalized
session ledgers (session ids relabeled by creation order).
"""

from __future__ import annotations

from typing import Any

from .config import RunConfig, parse_config
from .logic import (
    ACTIVE,
    PENDING,
    PRIORITY_BY_CLASS,
    REALTIME,
    REFRESH_EVERY,
    UNROUTABLE,
    UPDATING,
    admit_realtime,
    build_graph,
    classify,
    clearing_rules,
    find_session,
    flow_rate_milli,
    link_capacities,
    path_link_keys,
    plan_reroutes,
    release_reservation,
    rule_slot,
    rules_for_path,
    session_record,
    shortest_path,
    topology_view,
)
from .netsim import LinkDown, PacketIn, Scenario, Simulator, TickStats, Topology
from .runtime import step, validate_plan


class MonolithicController:
    """The one-process controller the agent roster is measured against. The
    config is a RunConfig, or a doc (None for no keys) parsed here."""

    def __init__(
        self, topo: Topology, scenario: Scenario, config: RunConfig | dict[str, Any] | None = None
    ) -> None:
        if not isinstance(config, RunConfig):
            config = parse_config({} if config is None else config, scenario.duration)
        self.config = config
        self.sim = Simulator(topo, scenario)
        self.scenario = scenario
        self.view = topology_view(topo, self.sim.links_doc())
        self.policies = [policy for _doc, policy in config.policies]
        self.sessions: dict[str, dict[str, Any]] = {}
        self.session_seq = 0
        self.rule_seq = 0
        self.reservations: dict[str, int] = {}
        self.admitted: dict[str, dict[str, Any]] = {}
        self.switch_rules: dict[str, dict[str, str]] = {}
        self.violations: list[dict[str, Any]] = []
        self.stats: list[TickStats] = []
        self.schedule = self.sim.schedule()

    # -- session pipeline ----------------------------------------------------

    def _release(self, sid: str) -> None:
        grant = self.admitted.pop(sid, None)
        if grant is not None:
            self.reservations = release_reservation(
                self.reservations, grant["links"], grant["rate"]
            )
        self.sessions[sid]["reserved"] = False

    def _clear(self, sid: str, path: list[str]) -> None:
        """Drop a superseded path's rules before installing the replacement."""
        rec = self.sessions[sid]
        priority = PRIORITY_BY_CLASS[rec["class"]]
        for sw, doc in clearing_rules(path, rec["src"], rec["dst"], priority):
            self.sim.remove_rule(sw, doc["match"]["src"], doc["match"]["dst"], doc["priority"])
            self.switch_rules.get(sw, {}).pop(rule_slot(doc), None)

    def _install(self, sid: str, path: list[str], klass: str, now: int) -> bool:
        """Validate-then-install for one session path; all or nothing."""
        ids = [f"r{self.rule_seq + i + 1:04d}" for i in range(len(path))]
        self.rule_seq += len(ids)
        rec = self.sessions[sid]
        rules = rules_for_path(path, rec["src"], rec["dst"], PRIORITY_BY_CLASS[klass], ids)
        plan = [step("install-rule", sw, rule=doc, ctx=sid) for sw, doc in rules]
        facts = {"switches": self.view["switches"], "switch-rules": self.switch_rules}
        violations = validate_plan(plan, facts, self.policies)
        if violations:
            self.violations.append({"ctx": sid, "violations": violations, "at": now})
            return False
        for sw, doc in rules:
            self.sim.install_rule(sw, doc, now=now)
            self.switch_rules.setdefault(sw, {})[rule_slot(doc)] = doc["rule_id"]
        return True

    def _finish_setup(self, sid: str, path: list[str], klass: str, now: int) -> None:
        """Admission (realtime) plus installation; mirrors the message legs."""
        rec = self.sessions[sid]
        if klass == REALTIME:
            ok, reservations = admit_realtime(
                self.reservations,
                path_link_keys(path),
                flow_rate_milli(rec["gap"]),
                link_capacities(self.view["links"]),
                self.config.qos_cap_permille,
            )
            if not ok:
                rec["state"] = UNROUTABLE
                rec["reason"] = "qos-denied"
                return
            self.reservations = reservations
            self.admitted[sid] = {
                "links": path_link_keys(path),
                "rate": flow_rate_milli(rec["gap"]),
            }
            rec["reserved"] = True
        if not self._install(sid, path, klass, now):
            if rec.get("reserved"):
                self._release(sid)
            rec["state"] = UNROUTABLE
            rec["reason"] = "policy-denied"
            return
        rec["state"] = ACTIVE
        rec["path"] = path
        rec["reason"] = None

    def open_session(
        self, src: str, dst: str, size: int, gap: int, hint: str | None, now: int
    ) -> None:
        self.session_seq += 1
        sid = f"s{self.session_seq:04d}"
        rec = session_record(
            sid, src, dst, klass="", created_at=now, state=PENDING, gap=gap, size=size
        )
        self.sessions[sid] = rec
        thresholds = self.config.thresholds
        klass = classify(size, gap, hint, thresholds["size"], thresholds["gap"])
        rec["class"] = klass
        graph = build_graph(self.view["links"])
        src_sw = self.view["hosts"].get(src)
        dst_sw = self.view["hosts"].get(dst)
        path = (
            shortest_path(graph, src_sw, dst_sw)
            if src_sw is not None and dst_sw is not None
            else None
        )
        if path is None:
            rec["state"] = UNROUTABLE
            rec["reason"] = "no-path"
            return
        self._finish_setup(sid, path, klass, now)

    def packet_in(self, ev: PacketIn, now: int) -> None:
        """A packet-in opens a session for a new flow; for a known flow it
        asks nothing, as a switch loses a session's rules only to a reroute."""
        if find_session(self.sessions, ev.src, ev.dst) is None:
            self.open_session(ev.src, ev.dst, ev.size, ev.gap, ev.hint, now)

    def sweep(self, now: int) -> None:
        graph = build_graph(self.view["links"])
        for sid, path in plan_reroutes(self.sessions, graph, self.view["hosts"]):
            rec = self.sessions[sid]
            old = rec.get("path")
            if old:
                self._clear(sid, old)
            if rec.get("reserved"):
                self._release(sid)
            if path is None:
                rec["state"] = UNROUTABLE
                rec["reason"] = "no-path"
                rec["path"] = None
                continue
            rec["state"] = UPDATING
            rec["reason"] = None
            self._finish_setup(sid, path, rec["class"], now)

    def proactive_scan(self, now: int) -> None:
        for flow in self.schedule:
            if flow["start_tick"] != now + 1:
                continue
            if find_session(self.sessions, flow["src"], flow["dst"]) is not None:
                continue
            self.open_session(
                flow["src"], flow["dst"], flow["size"], flow.get("gap", 1), flow.get("class"), now
            )

    # -- stepping -------------------------------------------------------------

    def tick(self, t: int) -> None:
        for ev in self.sim.step(t):
            if isinstance(ev, LinkDown):
                self.view = {**self.view, "links": self.sim.links_doc()}
                self.sweep(t)
            elif isinstance(ev, PacketIn):
                self.packet_in(ev, t)
            else:
                self.stats.append(ev)
        if t % REFRESH_EVERY == 0:
            self.view = {**self.view, "links": self.sim.links_doc()}
            self.sweep(t)
        if self.config.proactive:
            self.proactive_scan(t)

    def run(self) -> dict[str, Any]:
        for t in range(self.scenario.duration):
            self.tick(t)
        return self.outcome()

    def outcome(self) -> dict[str, Any]:
        return {
            "mode": "monolithic",
            "seed": self.scenario.seed,
            "tables": self.sim.table_docs(self.scenario.duration),
            "ledger": self.sessions,
            "metrics": self.sim.metrics(),
        }


# -- equivalence ----------------------------------------------------------------


def normalize_tables(tables: dict[str, list[dict[str, Any]]]) -> list[list[Any]]:
    """Behavioral content of the flow tables: rule ids are allocation
    artifacts and are dropped; rows are sorted."""
    rows = []
    for switch in sorted(tables):
        for doc in tables[switch]:
            rows.append(
                [
                    switch,
                    doc["match"]["src"],
                    doc["match"]["dst"],
                    doc["priority"],
                    doc["action"],
                    doc["next_hop"],
                ]
            )
    rows.sort(key=lambda r: [str(x) for x in r])
    return rows

_LEDGER_FIELDS = ("src", "dst", "class", "state", "path", "reason", "created_at")


def normalize_ledger(ledger: dict[str, dict[str, Any]]) -> list[dict[str, Any]]:
    """Session records without their ids, in creation order."""
    recs = sorted(
        ledger.values(), key=lambda r: (r["created_at"], r["src"], r["dst"])
    )
    return [{k: rec.get(k) for k in _LEDGER_FIELDS} for rec in recs]


def compare(agents: dict[str, Any], monolithic: dict[str, Any]) -> dict[str, Any]:
    """Empty dict iff the two outcomes are behaviorally identical."""
    diff: dict[str, Any] = {}
    at, mt = normalize_tables(agents["tables"]), normalize_tables(monolithic["tables"])
    if at != mt:
        diff["tables"] = {
            "agents_only": [r for r in at if r not in mt],
            "monolithic_only": [r for r in mt if r not in at],
        }
    al, ml = normalize_ledger(agents["ledger"]), normalize_ledger(monolithic["ledger"])
    if al != ml:
        diff["ledger"] = {"agents": al, "monolithic": ml}
    return diff
