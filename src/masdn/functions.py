"""Cognition implementations for the SDN function agents.

Each agent wraps one pure decide function registered under its kind's name.
The decision logic itself (paths, classification, admission, rule building,
reroute planning) lives in logic.py and is shared verbatim with the
monolithic reference controller; what this module adds is the message
choreography: who asks whom, in which order, and what lands in facts.

Link state lives only where it is read. Routing (paths) and session (reroute
sweeps) keep the live view, each with one ingest hook, topology_ingest, fed
by the link events they subscribe to. Links only go down and every link
event reaches both copies, so they stay current from link events alone,
with no periodic refresh and without any agent broadcasting its view; a
respawned agent is restored from its last digest and gets the link events
it missed from the frames the fabric parked for it. QoS reads only link
capacities and forwarding only the switch list its plans are validated
against, and no link event changes either: their specs carry just those
("capacities", "switches"), and they follow no link event and export no
view. The genesis view itself is never exported: the digest pump ships a
view only once a link event has moved it past the spec.

Some agents have nothing to decide, and share one empty decide function
(lifecycle_only_decide): the topology agent; the monitoring agent, whose
per-tick link stats go to stats.csv and which no agent reads; and the
lifecycle-only infrastructure agents (infra.py). Topology and monitoring
join a run only when its chain names them: no agent asks them.

The session agent is the conductor, and its conversation is one stage
machine. A session's conversation is one record in the "pending" facts,
keyed by the session id, which is also the ctx token echoed through every
request and response. The record's "stage" names the request in flight:

    classify -> path -> admit (realtime only) -> install -> done

One helper (converse) writes the record at its first stage and sends that
stage's request; one sender (ask_stage) sends the request of whatever stage
a record is at. A new flow starts at classify, opened by one branch from
either of the two data-plane events that announce it: a packet-in, or in a
proactive run a declared flow (events.flow, the tick before its start). A
reroute sweep starts at admit or install, with the new path and the
superseded one to clear. Either event for a session the agent already
knows asks nothing: a switch loses a session's rules only to a reroute,
which takes the session out of ACTIVE in the same decision, and the switch
suppresses a flow's packet-ins for longer than a respawn can hold a
conversation up. Each answer either advances the stage and asks again, or
ends the conversation: an install answer activates the session, while no
path, a QoS denial or a policy violation leave it unroutable and give back
any reservation.
An install or a remove names the path, its hosts and its class, not the
rules: forwarding derives them with the logic.py calls the oracle makes.
The session agent keeps the rule numbering (rule-seq) and names an
install's first rule number, so a policy-denied install takes its ids as
the oracle's does.
Conversations complete within the tick they start because the fabric runs
to quiescence. Each request is sent once: when a counterpart (or the
session agent itself) dies mid-conversation, the fabric parks the frames
for it and replays them to its restored replacement, so nothing here
re-asks. A replayed packet-in or declared flow reaches the session agent
later than it happened, so a session is stamped with the tick the event
carries, not with the tick it is delivered at.

Ordering contract (mirrored by the oracle): link events precede packet-in
events within a tick, so reroute sweeps always run before new-flow
conversations, and requests reach the shared-state agents (QoS, forwarding)
in the same order in both controller modes. The tick comes last, handed to
the session agent alone and only every REFRESH_EVERY ticks, and on it the
session agent runs the periodic sweep before the flow announcements, as the
oracle does.
"""

from __future__ import annotations

from typing import Any

from .core import AgentId, FunctionKind, MessageKind
from .logic import (
    ACTIVE,
    PENDING,
    PRIORITY_BY_CLASS,
    REALTIME,
    UNROUTABLE,
    UPDATING,
    admit_realtime,
    build_graph,
    classify,
    clearing_rules,
    find_session,
    flow_rate_milli,
    path_link_keys,
    plan_reroutes,
    release_reservation,
    rule_slot,
    rules_for_path,
    session_record,
    shortest_path,
)
from .netsim import link_key
from .runtime import (
    AgentInput,
    decision,
    event_of,
    peer_of,
    register_cognition,
    step,
)

# -- small shared helpers ------------------------------------------------------


def request_op(inp: AgentInput) -> str | None:
    if inp.message.kind is MessageKind.REQUEST and isinstance(inp.body, dict):
        return inp.body.get("op")
    return None


def is_response(inp: AgentInput) -> bool:
    return inp.message.kind is MessageKind.RESPONSE and isinstance(inp.body, dict)


def _set_link_state(links: list[dict[str, Any]], a: str, b: str, up: bool) -> list[dict[str, Any]]:
    key = link_key(a, b)
    return [
        {**l, "up": up} if link_key(l["a"], l["b"]) == key else l for l in links
    ]


def topology_ingest(facts: dict[str, Any], inp: AgentInput) -> list[tuple[str, Any]]:
    """Keep a local topology view current from link events."""
    ev = event_of(inp)
    if ev is None:
        return []
    topic, body = ev
    view = facts["topology"]  # genesis puts it in every spec that reads it
    if topic == "events.link":
        links = _set_link_state(view["links"], body["a"], body["b"], body["state"] == "up")
        return [("topology", {**view, "links": links})]
    return []


# -- agents with nothing to decide ------------------------------------------------


@register_cognition(FunctionKind.TOPOLOGY.value)
@register_cognition(FunctionKind.MONITORING.value)
def lifecycle_only_decide(facts: dict[str, Any], inp: AgentInput) -> dict[str, Any]:
    """Nothing to decide: these agents are spawned, restored and respawned,
    and are handed nothing."""
    return decision()


# -- routing agent ----------------------------------------------------------------


@register_cognition(
    FunctionKind.ROUTING.value, ingest=topology_ingest, digest_keys=("topology",)
)
def routing_decide(facts: dict[str, Any], inp: AgentInput) -> dict[str, Any]:
    op = request_op(inp)
    if op == "path":
        view = facts["topology"]
        graph = build_graph(view["links"])
        src_sw = view["hosts"].get(inp.body["src"])
        dst_sw = view["hosts"].get(inp.body["dst"])
        path = (
            shortest_path(graph, src_sw, dst_sw)
            if src_sw is not None and dst_sw is not None
            else None
        )
        return decision(responses=[{"path": path, "ctx": inp.body.get("ctx")}])
    return decision()


# -- classifier agent ----------------------------------------------------------------


@register_cognition(FunctionKind.CLASSIFIER.value)
def classifier_decide(facts: dict[str, Any], inp: AgentInput) -> dict[str, Any]:
    op = request_op(inp)
    if op == "classify":
        body, thresholds = inp.body, facts["thresholds"]
        klass = classify(body["size"], body["gap"], body.get("hint"),
                         thresholds["size"], thresholds["gap"])
        return decision(responses=[{"class": klass, "ctx": body.get("ctx")}])
    return decision()


# -- QoS agent -----------------------------------------------------------------------


@register_cognition(FunctionKind.QOS.value, digest_keys=("reservations", "admitted"))
def qos_decide(facts: dict[str, Any], inp: AgentInput) -> dict[str, Any]:
    """Admission control: realtime sessions reserve bandwidth on every path
    link, denied when any link would exceed the configured share. The
    session agent asks admit for realtime sessions only; any other class
    goes from its path straight to install."""
    op = request_op(inp)
    if op == "admit":
        ctx = inp.body.get("ctx")
        admitted = facts.get("admitted", {})
        rate = flow_rate_milli(inp.body["gap"])
        keys = path_link_keys(inp.body["path"])
        ok, reservations = admit_realtime(
            facts.get("reservations", {}),
            keys,
            rate,
            facts["capacities"],
            facts["qos-cap-permille"],
        )
        writes: list[tuple[str, Any]] = []
        if ok:
            writes = [
                ("reservations", reservations),
                ("admitted", {**admitted, ctx: {"links": keys, "rate": rate}}),
            ]
        return decision(responses=[{"admitted": ok, "ctx": ctx}], facts=writes)
    if op == "release":
        ctx = inp.body.get("ctx")
        admitted = dict(facts.get("admitted", {}))
        grant = admitted.pop(ctx, None)
        writes = []
        if grant is not None:
            writes = [
                (
                    "reservations",
                    release_reservation(
                        facts.get("reservations", {}), grant["links"], grant["rate"]
                    ),
                ),
                ("admitted", admitted),
            ]
        return decision(responses=[{"released": grant is not None, "ctx": ctx}], facts=writes)
    return decision()


# -- forwarding agent -----------------------------------------------------------------


_RULE_COUNT_KEY = {"install": "installed", "remove": "removed"}  # per op, in the answer


@register_cognition(FunctionKind.FORWARDING.value, digest_keys=("switch-rules",))
def forwarding_decide(facts: dict[str, Any], inp: AgentInput) -> dict[str, Any]:
    """Derives the rules of the path an install or remove names, with the
    oracle's logic.py calls, and turns them into per-switch plans. The plan
    is where policy caps bite: a failed validation emits a violation event
    instead of touching any switch, and the ok response never goes out."""
    op = request_op(inp)
    if op not in ("install", "remove"):
        return decision()
    body = inp.body
    ctx = body.get("ctx")
    path, src, dst = body["path"], body["src"], body["dst"]
    priority = PRIORITY_BY_CLASS[body["class"]]
    if op == "install":
        ids = [f"r{body['first'] + i:04d}" for i in range(len(path))]
        rules = rules_for_path(path, src, dst, priority, ids)
    else:
        rules = clearing_rules(path, src, dst, priority)
    # copy-on-write: only the switches this op touches get a new slot dict,
    # so every other switch goes back to the store as the same frozen object
    stored = facts.get("switch-rules", {})
    table = dict(stored)
    for switch, doc in rules:
        slot = rule_slot(doc)
        if op == "install":
            table.setdefault(switch, {})
            _edit(table, stored, switch)[slot] = doc["rule_id"]
        elif slot in table.get(switch, ()):
            del _edit(table, stored, switch)[slot]
    return decision(
        plan=[step(f"{op}-rule", switch, rule=doc, ctx=ctx) for switch, doc in rules],
        responses=[{"ok": True, _RULE_COUNT_KEY[op]: len(rules), "ctx": ctx}],
        facts=[("switch-rules", table)],
    )


# -- session agent --------------------------------------------------------------------

_SESSION_DIGEST = ("topology", "sessions", "pending", "rule-seq")

# the request each stage sends (the op is named after the stage): the peer
# kind asked and the pending-record fields the request carries
_STAGE_REQUESTS = {
    "classify": (FunctionKind.CLASSIFIER, ("size", "gap", "hint")),
    "path": (FunctionKind.ROUTING, ("src", "dst")),
    "admit": (FunctionKind.QOS, ("path", "gap", "class")),
    "install": (FunctionKind.FORWARDING, ("path", "src", "dst", "class")),
}


class _SessionState:
    """Working copy of the session agent's facts for one decision.

    The sessions and pending tables are shallow copies; a record is copied
    out of the stored facts only when the decision first changes it, so the
    records it leaves alone go back to the store as the same read-only
    objects and cost nothing to write.
    """

    def __init__(self, facts: dict[str, Any]):
        self.facts = facts
        self.sessions = dict(facts.get("sessions", {}))
        self.pending = dict(facts.get("pending", {}))
        self.rule_seq = facts.get("rule-seq", 0)
        self.steps: list[dict[str, Any]] = []

    def _edit_session(self, sid: str) -> dict[str, Any]:
        return _edit(self.sessions, self.facts.get("sessions", {}), sid)

    def writes(self) -> list[tuple[str, Any]]:
        return [("sessions", self.sessions), ("pending", self.pending), ("rule-seq", self.rule_seq)]

    # -- conversation steps --------------------------------------------------

    def _ask(self, kind: FunctionKind, op: str, **body: Any) -> None:
        target = peer_of(self.facts, kind)
        if target is not None:
            self.steps.append(step(op, AgentId.parse(target), **body))

    def _release(self, sid: str, rec: dict[str, Any]) -> None:
        self._ask(FunctionKind.QOS, "release", ctx=sid)
        rec["reserved"] = False

    def converse(self, sid: str, stage: str, **fields: Any) -> None:
        """Start sid's conversation at stage and send that stage's request."""
        rec = self.sessions[sid]
        self.pending[sid] = {
            "stage": stage,
            "src": rec["src"],
            "dst": rec["dst"],
            "size": rec["size"],
            "gap": rec["gap"],
            "hint": None,
            **fields,
        }
        self.ask_stage(sid)

    def ask_stage(self, sid: str) -> None:
        """Send the request for the stage sid's conversation is at; the
        install stage takes fresh rule numbers, whose first it names."""
        p = self.pending[sid]
        stage = p["stage"]
        kind, fields = _STAGE_REQUESTS[stage]
        body = {f: p[f] for f in fields}
        if stage == "install":
            body["first"] = self.rule_seq + 1
            self.rule_seq += len(p["path"])
        self._ask(kind, stage, ctx=sid, **body)

    def open_session(
        self, src: str, dst: str, size: int, gap: int, hint: str | None, at: int
    ) -> None:
        """Open a session created at tick at, the tick of the event that
        opened it: a replayed event is delivered later than it happened.
        Sessions are never dropped, so the table's size numbers the next."""
        sid = f"s{len(self.sessions) + 1:04d}"
        self.sessions[sid] = session_record(
            sid, src, dst, klass="", created_at=at, state=PENDING, gap=gap, size=size
        )
        self.converse(sid, "classify", hint=hint)

    def on_response(self, body: dict[str, Any]) -> None:
        ctx = body.get("ctx")
        if ctx not in self.pending:
            return
        p = _edit(self.pending, self.facts.get("pending", {}), ctx)
        stage = p["stage"]
        if stage == "classify" and "class" in body:
            p["class"] = self._edit_session(ctx)["class"] = body["class"]
            p["stage"] = "path"
        elif stage == "path" and "path" in body:
            if body["path"] is None:
                self.deny(ctx, "no-path")
                return
            p["path"] = body["path"]
            p["stage"] = "admit" if p["class"] == REALTIME else "install"
        elif stage == "admit" and "admitted" in body:
            if not body["admitted"]:
                self.deny(ctx, "qos-denied")
                return
            p["reserved"] = True
            p["stage"] = "install"
        elif stage == "install" and "installed" in body:
            rec = self._edit_session(ctx)
            rec["state"] = ACTIVE
            rec["path"] = p["path"]
            rec["reserved"] = p.get("reserved", False)
            del self.pending[ctx]
            return
        else:
            return
        self.ask_stage(ctx)

    def deny(self, sid: str, reason: str) -> None:
        """End sid's conversation unroutable, giving back its reservation."""
        rec = self._edit_session(sid)
        rec["state"] = UNROUTABLE
        rec["reason"] = reason
        p = self.pending.pop(sid, None)
        if p and p.get("reserved"):
            self._release(sid, rec)

    # -- topology reactions -----------------------------------------------------

    def sweep(self, view: dict[str, Any]) -> None:
        """Repair sessions after a topology change; order is sid order, the
        same order the oracle applies."""
        graph = build_graph(view["links"])
        for sid, path in plan_reroutes(self.sessions, graph, view["hosts"]):
            rec = self._edit_session(sid)
            old = rec.get("path")
            if old:
                self._ask(FunctionKind.FORWARDING, "remove", ctx=sid, path=old,
                          src=rec["src"], dst=rec["dst"], **{"class": rec["class"]})
            if rec.get("reserved"):
                self._release(sid, rec)
            if path is None:
                rec["state"] = UNROUTABLE
                rec["reason"] = "no-path"
                rec["path"] = None
                continue
            rec["state"] = UPDATING
            rec["reason"] = None
            stage = "admit" if rec["class"] == REALTIME else "install"
            self.converse(sid, stage, path=path, **{"class": rec["class"]})

    def on_violation(self, body: dict[str, Any]) -> None:
        ctxs = sorted(
            {
                s["params"]["ctx"]
                for s in body.get("steps", [])
                if isinstance(s.get("params"), dict) and "ctx" in s["params"]
            }
        )
        for ctx in ctxs:
            if ctx in self.pending:
                self.deny(ctx, "policy-denied")


def _edit(table: dict[str, Any], stored: dict[str, Any], key: str) -> dict[str, Any]:
    """table[key], first copied if it is still the stored record."""
    rec = table[key]
    if rec is stored.get(key):
        rec = table[key] = dict(rec)
    return rec


@register_cognition(
    FunctionKind.SESSION.value, ingest=topology_ingest, digest_keys=_SESSION_DIGEST
)
def session_decide(facts: dict[str, Any], inp: AgentInput) -> dict[str, Any]:
    st = _SessionState(facts)
    if is_response(inp):
        st.on_response(inp.body)
        return decision(plan=st.steps, facts=st.writes())

    ev = event_of(inp)
    if ev is not None:
        topic, body = ev
        if topic in ("events.packet_in", "events.flow"):
            if find_session(st.sessions, body["src"], body["dst"]) is None:
                st.open_session(
                    body["src"], body["dst"], body["size"], body["gap"], body.get("hint"),
                    body["at"],
                )
        elif topic == "events.link":
            st.sweep(facts["topology"])  # ingest already applied the change
        elif topic == "events.violation":
            st.on_violation(body)
        elif topic == "events.tick":  # handed on REFRESH_EVERY-th ticks alone
            st.sweep(facts["topology"])
    return decision(plan=st.steps, facts=st.writes())
