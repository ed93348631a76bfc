"""Agent execution engine.

Every agent is an atomic unit around one pure cognition function. The host
drives each delivered message through the same six stages —

    input -> facts -> cognition -> planning -> validation -> output

— and appends one record per stage to the run log. Cognition functions are
pure: they see a facts snapshot plus the decoded input and return a
decision; all side effects (facts writes, outgoing messages) happen in the
host, and only after validation passes. Action requests that fail
validation are replaced by a single violation event, so a later audit of
the run log can prove that no request was ever emitted without a passing
validation record in the same pipeline run.

Facts are read-only once stored. FactsStore.put freezes a value into
FrozenDict/FrozenList trees instead of deep-copying it, and keeps every
subtree that is already frozen by reference (structural sharing, as in
persistent data structures): a cognition that rebuilds a table from its
snapshot and changes one record pays for that record and the table's top
level, not for the whole value. A cognition that mutates its snapshot gets a
TypeError at once instead of silently changing the store.

An agent's facts have two sources: its spec's initial facts (configuration,
only what the agent reads: the peers and switches its plans may target,
thresholds, capacities, a broker's subscription and relay tables, the
genesis view of an agent that keeps it current, and the "policies" its
plans are validated against) and what it learns, whose digest keys the
digest pump exports to the orchestrator's mirror once they move past the
spec. A respawned agent gets the first from its spec again and the second
from the mirror.

A decision is a plain dict with optional keys:

    plan       list of {"action","target","params"} step dicts
    responses  list of bodies answered to the input's sender
    facts      list of [key, value] writes applied after validation

A cognition is registered bare: liveness is not its business. An agent
dies only through AgentHost.kill_agent, which records the exit; the system
reports each exit to the orchestrator at the next tick as one agent.down
event whose frame's src is the dead agent, and the orchestrator respawns
it. Nobody registers or subscribes: the orchestrator composes every agent
from a spec it keeps, and each broker's spec carries its subscription
table.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol

from .core import (
    AgentId,
    Destination,
    FunctionKind,
    MasdnError,
    Message,
    MessageFactory,
    MessageKind,
)
from .hierarchy import Policy
from .logic import rule_slot
from .pps import MalformedFrame, decode_body, encode_body

VIOLATION_TOPIC = "events.violation"

_KIND_TEXT = {kind: kind.value for kind in MessageKind}  # as stage records write it

SUPERVISOR = str(AgentId(FunctionKind.ORCHESTRATION, 0))  # told of every exit


class DuplicateAgent(MasdnError):
    pass


class UnknownCognition(MasdnError):
    pass


class AgentNotLive(MasdnError):
    pass


class DecodeError(MasdnError):
    """Input payload could not be parsed into a structured body."""


class DigestGap(MasdnError):
    """A digest delta does not apply to the version the mirror holds."""


# ---------------------------------------------------------------------------
# facts


def _read_only(self: Any, *args: Any, **kwargs: Any) -> None:
    raise TypeError(
        f"stored facts are read-only: copy the {type(self).__name__} "
        "(dict(...), list(...)) before changing it"
    )


class _Shared:
    """Copies of a read-only value are the value itself."""

    __slots__ = ()

    def __copy__(self) -> Any:
        return self

    def __deepcopy__(self, memo: dict[int, Any]) -> Any:
        return self


class FrozenDict(_Shared, dict):
    """A dict stored in a FactsStore: every mutating method raises TypeError.
    dict(...) and {**...} give a plain, writable copy of the top level."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


class FrozenList(_Shared, list):
    """A list stored in a FactsStore: every mutating method raises TypeError.
    list(...) gives a plain, writable copy."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only


_KEPT = frozenset({str, int, float, bool, type(None), FrozenDict, FrozenList})


def freeze(value: Any) -> Any:
    """A read-only version of a facts value that shares every frozen subtree.

    Plain dicts and lists become FrozenDict/FrozenList, tuples are rebuilt
    element-wise, and a subtree that is already frozen is kept by reference,
    so writing a value built from stored facts costs only what changed.
    Scalars are immutable and kept; any other type is deep-copied. Scalars
    and frozen subtrees are kept without a call per element.
    """
    cls = type(value)
    if cls in _KEPT:
        return value
    if cls is dict:
        return FrozenDict(
            {k: v if type(v) in _KEPT else freeze(v) for k, v in value.items()}
        )
    if cls is list:
        return FrozenList([v if type(v) in _KEPT else freeze(v) for v in value])
    if cls is tuple:
        return tuple([v if type(v) in _KEPT else freeze(v) for v in value])
    return copy.deepcopy(value)


@dataclass
class _FactEntry:
    value: Any
    version: int


class FactsStore:
    """Versioned key/value state local to one agent.

    Values are frozen on write (see freeze): the store holds read-only
    FrozenDict/FrozenList trees, so neither the writer nor a cognition
    reading a snapshot can change stored state; an attempt raises TypeError.
    A value built from stored facts shares their unchanged subtrees, so a
    write costs what changed, not the whole value. A write equal to the
    stored value keeps the entry, version included, so digest does not ship
    it again. Snapshots are cheap map copies over the same read-only values.

    The store also keeps, per key, the entry the orchestrator's mirror holds
    of it, the one base digest ships deltas against: the spec's initial
    facts, stored at version 1 (the mirror reads them from the agent's spec,
    see merge_digest), what a restore brings back from the mirror slot, and
    what digest last shipped. So a replacement's first digest is an ordinary
    delta against the slot it was restored from.
    """

    def __init__(self, initial_facts: dict[str, Any]) -> None:
        self._entries: dict[str, _FactEntry] = {}
        for key, value in initial_facts.items():
            self.put(key, value)
        self._mirrored = dict(self._entries)

    def put(self, key: str, value: Any) -> int:
        frozen = freeze(value)
        prev = self._entries.get(key)
        if prev is not None and prev.value == frozen:
            return prev.version  # nothing changed, so neither does the entry
        version = 1 if prev is None else prev.version + 1
        self._entries[key] = _FactEntry(frozen, version)
        return version

    def get(self, key: str, default: Any = None) -> Any:
        entry = self._entries.get(key)
        return default if entry is None else entry.value

    def snapshot(self) -> dict[str, Any]:
        return {k: e.value for k, e in self._entries.items()}

    def export(self, keys: Iterable[str]) -> dict[str, dict[str, Any]]:
        """Versioned digest of selected keys, for the orchestrator's mirror."""
        out: dict[str, dict[str, Any]] = {}
        for key in keys:
            entry = self._entries.get(key)
            if entry is not None:
                out[key] = {"value": entry.value, "version": entry.version}
        return out

    def restore(self, digest: dict[str, dict[str, Any]]) -> None:
        """Seed entries from an exported digest, keeping versions: the mirror
        holds them."""
        for key, doc in digest.items():
            self._entries[key] = self._mirrored[key] = _FactEntry(
                freeze(doc["value"]), doc["version"]
            )

    def digest(self, keys: Iterable[str]) -> dict[str, dict[str, Any]]:
        """The kp.digest body of those of keys that moved past what the
        mirror holds, each against it (digest_delta); what it ships is what
        the mirror holds next. Only a write that changes a value makes a new
        entry, so the entry the mirror holds is the one stored until the
        key moves."""
        out: dict[str, dict[str, Any]] = {}
        for key in keys:
            entry = self._entries.get(key)
            held = self._mirrored.get(key)
            if entry is None or entry is held:
                continue
            last = None if held is None else (held.version, held.value)
            out[key] = digest_delta(self.export([key])[key], last)
            self._mirrored[key] = entry
        return out


_ABSENT = object()


def _nested(was: Any, new: Any) -> bool:
    """Whether a changed leaf is diffed further: two dicts, or two lists of
    one length."""
    if isinstance(new, dict):
        return isinstance(was, dict)
    return isinstance(new, list) and isinstance(was, list) and len(was) == len(new)


def _diff(old: Any, new: Any, path: list[Any], sets: list[Any], drops: list[Any]) -> None:
    """Append to sets the [path, value] of every leaf at which new differs
    from old (two dicts, or two lists of one length), and to drops the path
    of every dict key that went."""
    is_dict = isinstance(new, dict)
    for sub, v in new.items() if is_dict else enumerate(new):
        was = old.get(sub, _ABSENT) if is_dict else old[sub]
        if was is v or was == v:
            continue
        if _nested(was, v):
            _diff(was, v, [*path, sub], sets, drops)
        else:
            sets.append([[*path, sub], v])
    if is_dict:
        drops.extend([*path, sub] for sub in old if sub not in new)


def digest_delta(doc: dict[str, Any], last: tuple[int, Any] | None) -> dict[str, Any]:
    """The kp.digest form of one exported key (a FactsStore.export doc), given
    the (version, value) last exported for it, or None.

    A dict value exported before travels as a delta against that version,
    down to the leaves: "set" holds [path, value] for each leaf that is new
    or changed, "drop" the path of each dict key that went. A path is the
    list of keys from the value's top, a list index included: below the
    top, a list of unchanged length is diffed per index, so a failed link
    travels as [["links", i, "up"], false]. Stored facts are frozen and
    unchanged records are shared, so an identity test settles almost every
    sub-key before any equality test runs. Any other value, and a key never
    exported before, travels whole, as "value".
    """
    value = doc["value"]
    if last is None or not isinstance(value, dict) or not isinstance(last[1], dict):
        return doc
    sets: list[Any] = []
    drops: list[Any] = []
    _diff(last[1], value, [], sets, drops)
    return {"version": doc["version"], "base": last[0], "set": sets, "drop": drops}


def _patch(value: dict[str, Any], sets: list[Any], drops: list[Any]) -> dict[str, Any]:
    """value with the delta's paths applied, copy-on-write: each container on
    a path is copied once, and every other subtree is shared."""
    root = dict(value)
    copied = {id(root)}

    def parent(path: list[Any]) -> Any:
        node = root
        for sub in path[:-1]:
            child = node[sub]
            if id(child) not in copied:
                child = node[sub] = dict(child) if isinstance(child, dict) else list(child)
                copied.add(id(child))
            node = child
        return node

    for path, leaf in sets:
        parent(path)[path[-1]] = leaf
    for path in drops:
        del parent(path)[path[-1]]
    return root


def merge_digest(
    digests: dict[str, dict[str, Any]],
    agent: str,
    keys: dict[str, Any],
    spec: dict[str, Any],
) -> dict[str, dict[str, Any]]:
    """Fold one kp.digest body, the {key: doc} map of what `agent` (the
    frame's src) exported, into a per-agent table of exported keys, each
    stored as {value, version}: the newest version of each key wins, and a
    stale one is ignored. A whole "value" replaces the key; a delta (see
    digest_delta) applies its paths to the version held, and one whose base
    is not that version raises DigestGap.
    A key the slot does not hold yet is held at its value in `spec`, the
    agent's own initial facts, as version 1: FactsStore.digest never ships
    a spec value, so its first delta is based on it. No other slot is read.
    Only the sending agent's slot is copied; every other slot is shared with
    the table given, and so is every subtree of the value that no path
    reaches."""
    slot = dict(digests.get(agent, {}))
    for key, doc in keys.items():
        held = slot.get(key)
        if held is None and key in spec:
            held = {"value": spec[key], "version": 1}
        if held is not None and doc["version"] < held["version"]:
            continue
        if "value" in doc:
            slot[key] = doc
            continue
        if held is None or doc["base"] != held["version"]:
            raise DigestGap(
                f"{agent} {key}: delta on version {doc['base']}, mirror holds "
                f"{held and held['version']}"
            )
        value = _patch(held["value"], doc["set"], doc["drop"])
        slot[key] = {"value": value, "version": doc["version"]}
    return {**digests, agent: slot}


# ---------------------------------------------------------------------------
# plans and validation


def target_class(step: dict[str, Any]) -> str:
    """What a plan step acts on: an agent, a switch or an endpoint."""
    if isinstance(step["target"], AgentId):
        return "agent"
    if step["action"] in ("install-rule", "remove-rule"):
        return "switch"
    return "endpoint"


def _check_policies(
    steps: list[dict[str, Any]], facts: dict[str, Any], policies: list[Policy]
) -> list[list[str]]:
    """Deny rules win over allow rules; bounded deny rules reject only the
    steps that would push the projected per-target count past the bound.
    Each bounded rule projects its own per-target rule keys (the existing
    table plus the in-plan changes it matches), so one rule's installs never
    hide another rule's bound."""
    violations: list[list[str]] = []
    existing = facts.get("switch-rules", {})
    if not isinstance(existing, dict):
        existing = {}
    for policy in policies:
        for rule in policy.rules:
            if rule.effect != "deny":
                continue
            projected: dict[str, set[str]] = {}
            for s in steps:
                action, target = s["action"], s["target"]
                if not rule.matches(action, target_class(s)):
                    continue
                if rule.max_per_target is None:
                    violations.append(
                        [policy.policy_id, f"action {action!r} on {target} is denied"]
                    )
                    continue
                name = str(target)
                slot = projected.get(name)
                if slot is None:
                    slot = projected[name] = set(existing.get(name, ()))
                doc = s["params"].get("rule")
                key = rule_slot(doc) if isinstance(doc, dict) else None
                if action == "remove-rule":
                    slot.discard(key or "")
                    continue
                if key is not None and key in slot:
                    continue  # replaces an existing entry, count unchanged
                if len(slot) + 1 > rule.max_per_target:
                    violations.append(
                        [
                            policy.policy_id,
                            f"{target}: {len(slot) + 1} rules would exceed "
                            f"bound {rule.max_per_target}",
                        ]
                    )
                else:
                    slot.add(key or f"anon-{len(slot)}")
    return violations


def validate_plan(
    steps: list[dict[str, Any]], facts: dict[str, Any], policies: Iterable[Policy] = ()
) -> list[list[str]]:
    """Check a plan's step dicts against the agent's current facts and active
    policies: [[constraint, detail], ...], empty when the plan passes.

    An agent target must be among the "peers", in a group of a broker's
    "subs" or a key of its "relays", a switch among the "switches" and an
    endpoint among the "endpoints" the facts hold.
    Constraints are stable ids: "missing-topology" / "unknown-target" for
    steps that reference state the agent does not know about, and the policy
    id for policy hits.
    """
    violations: list[list[str]] = []
    switches = facts.get("switches")
    peers = set(facts.get("peers", ()))
    peers.update(facts.get("relays", ()))
    for group in facts.get("subs", {}).values():
        peers.update(group)
    endpoints = set(facts.get("endpoints", ()))
    for s in steps:
        cls, target = target_class(s), s["target"]
        if cls == "agent":
            if str(target) not in peers:
                violations.append(
                    ["unknown-target", f"agent {target} is not a known peer"]
                )
        elif cls == "switch":
            if switches is None:
                violations.append(
                    [
                        "missing-topology",
                        f"no switch list to justify acting on switch {target!r}",
                    ]
                )
            elif target not in switches:
                violations.append(
                    ["unknown-target", f"switch {target!r} not in known topology"]
                )
        elif target not in endpoints:
            violations.append(
                ["unknown-target", f"endpoint {target!r} is not known"]
            )
    violations.extend(_check_policies(steps, facts, list(policies)))
    return violations


# ---------------------------------------------------------------------------
# cognition


@dataclass(frozen=True)
class AgentInput:
    message: Message
    body: Any


def decision(
    plan: list[dict[str, Any]] | None = None,
    responses: list[Any] | None = None,
    facts: list[tuple[str, Any]] | None = None,
) -> dict[str, Any]:
    """Convenience builder for the decision dict shape. A cognition emits no
    events: the one event the host sends, a violation, it makes itself."""
    out: dict[str, Any] = {}
    if plan:
        out["plan"] = plan
    if responses:
        out["responses"] = responses
    if facts:
        out["facts"] = facts
    return out


def step(action: str, target: Destination, **params: Any) -> dict[str, Any]:
    """Convenience builder for one plan step dict."""
    return {"action": action, "target": target, "params": params}


class CognitionFn(Protocol):
    def __call__(self, facts: dict[str, Any], inp: AgentInput) -> dict[str, Any]: ...


class IngestFn(Protocol):
    def __call__(self, facts: dict[str, Any], inp: AgentInput) -> list[tuple[str, Any]]: ...


@dataclass(frozen=True)
class CognitionImpl:
    """A named cognition: the pure decide function, an optional facts-stage
    ingest hook, and the fact keys the digest pump exports to the
    orchestrator's mirror, which restores them into a respawned agent."""

    name: str
    decide: CognitionFn
    ingest: IngestFn | None = None
    digest_keys: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# helpers every cognition shares


def event_of(inp: AgentInput) -> tuple[str, Any] | None:
    """(topic, body) when the input is an event, direct or relayed by a broker."""
    if inp.message.kind is not MessageKind.EVENT or not isinstance(inp.body, dict):
        return None
    if "topic" not in inp.body:
        return None
    return inp.body["topic"], inp.body.get("body")


def peer_of(facts: dict[str, Any], kind: FunctionKind) -> str | None:
    """Lowest-numbered known peer of a kind, as an id string."""
    prefix = kind.value + "#"
    hits = sorted(p for p in facts.get("peers", []) if p.startswith(prefix))
    return hits[0] if hits else None


_COGNITIONS: dict[str, CognitionImpl] = {}


def register_cognition(
    name: str,
    *,
    ingest: IngestFn | None = None,
    digest_keys: tuple[str, ...] = (),
) -> Callable[[CognitionFn], CognitionFn]:
    """Register a decide function under a name; the decorated name stays the
    function."""

    def deco(fn: CognitionFn) -> CognitionFn:
        _COGNITIONS[name] = CognitionImpl(name, fn, ingest, digest_keys)
        return fn

    return deco


def cognition(name: str) -> CognitionImpl:
    impl = _COGNITIONS.get(name)
    if impl is None:
        raise UnknownCognition(name)
    return impl


# ---------------------------------------------------------------------------
# agents and the host


@dataclass(frozen=True)
class AgentSpec:
    agent: AgentId
    cognition: str
    initial_facts: dict[str, Any] = field(default_factory=dict)


@dataclass
class Agent:
    spec: AgentSpec
    facts: FactsStore

    @property
    def id(self) -> AgentId:
        return self.spec.agent

    @property
    def impl(self) -> CognitionImpl:
        return cognition(self.spec.cognition)


class AgentHost:
    """Owns a set of live agents and runs the six-stage pipeline for them.

    The host records in facts_written every agent whose facts were written
    since the digest pump last took the set: an ingest write and a
    decision's facts. A spawn is not one: a new agent holds its spec and
    what a restore brings back, which is what the mirror holds already. The
    pump visits only those agents, so a tick in which nothing is written
    costs it nothing.

    kill_agent is the one way an agent dies, and it records the victim in
    exits, in kill order, until the system reports it to the orchestrator:
    the host is the failure detector, and a perfect one.
    """

    def __init__(
        self,
        factory: MessageFactory | None = None,
        log_sink: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        self.now = 0
        self.factory = factory or MessageFactory()
        self.log_sink = log_sink
        self.stage_log: list[dict[str, Any]] = []
        self.agents: dict[AgentId, Agent] = {}
        self.on_spawn: list[Callable[[Agent], None]] = []  # called after each spawn
        self.facts_written: set[AgentId] = set()
        self.exits: list[AgentId] = []  # killed, not yet reported
        self._runs = 0
        self._seq = 0

    # -- lifecycle ---------------------------------------------------------

    def spawn_agent(self, spec: AgentSpec) -> Agent:
        if spec.agent in self.agents:
            raise DuplicateAgent(str(spec.agent))
        cognition(spec.cognition)  # raises UnknownCognition up front
        agent = Agent(spec=spec, facts=FactsStore(spec.initial_facts))
        self.agents[spec.agent] = agent
        self._emit(
            {"stage": "spawn", "agent": str(spec.agent), "cognition": spec.cognition}
        )
        for hook in self.on_spawn:
            hook(agent)
        return agent

    def kill_agent(self, agent_id: AgentId) -> None:
        agent = self.agents.pop(agent_id, None)
        if agent is None:
            raise AgentNotLive(str(agent_id))
        self.exits.append(agent_id)
        self._emit({"stage": "kill", "agent": str(agent_id)})

    def get(self, agent_id: AgentId) -> Agent:
        agent = self.agents.get(agent_id)
        if agent is None:
            raise AgentNotLive(str(agent_id))
        return agent

    # -- pipeline ----------------------------------------------------------

    def process_input(self, agent_id: AgentId, msg: Message) -> list[Message]:
        agent = self.get(agent_id)
        self._runs += 1
        run = self._runs
        agent_text = str(agent_id)
        msg_id = msg.msg_id
        emit = self._emit

        emit(
            {
                "kind": _KIND_TEXT[msg.kind],
                "src": str(msg.src),
                "bytes": len(msg.payload),
                "stage": "input",
                "agent": agent_text,
                "run": run,
                "msg_id": msg_id,
            }
        )
        try:
            body = decode_body(msg.payload)
        except MalformedFrame as exc:
            raise DecodeError(str(exc)) from exc
        inp = AgentInput(message=msg, body=body)

        written: list[str] = []
        impl = agent.impl
        if impl.ingest is not None:
            for key, value in impl.ingest(agent.facts.snapshot(), inp) or []:
                agent.facts.put(key, value)
                written.append(key)
            if written:
                self.facts_written.add(agent_id)
        snapshot = agent.facts.snapshot()
        emit(
            {
                "written": written,
                "stage": "facts",
                "agent": agent_text,
                "run": run,
                "msg_id": msg_id,
            }
        )

        dec = impl.decide(snapshot, inp)
        emit(
            {
                "decided": sorted(dec),
                "stage": "cognition",
                "agent": agent_text,
                "run": run,
                "msg_id": msg_id,
            }
        )

        steps = dec.get("plan", [])
        emit(
            {
                "steps": [[s["action"], str(s["target"])] for s in steps],
                "stage": "planning",
                "agent": agent_text,
                "run": run,
                "msg_id": msg_id,
            }
        )

        violations: list[list[str]] = []
        if steps:
            policies = [Policy.from_dict(p) for p in snapshot.get("policies", [])]
            violations = validate_plan(steps, snapshot, policies)
        emit(
            {
                "passed": not violations,
                "violations": violations,
                "note": "" if steps else "no-plan",
                "stage": "validation",
                "agent": agent_text,
                "run": run,
                "msg_id": msg_id,
            }
        )

        outputs = self._materialize(agent, msg, dec, steps, violations)
        emit(
            {
                "emitted": [[_KIND_TEXT[m.kind], str(m.dst)] for m in outputs],
                "stage": "output",
                "agent": agent_text,
                "run": run,
                "msg_id": msg_id,
            }
        )
        return outputs

    # -- internals ---------------------------------------------------------

    def _materialize(
        self,
        agent: Agent,
        msg: Message,
        dec: dict[str, Any],
        steps: list[dict[str, Any]],
        violations: list[list[str]],
    ) -> list[Message]:
        if violations:
            body = {
                "agent": str(agent.id),
                "violations": violations,
                "steps": [{**s, "target": str(s["target"])} for s in steps],
            }
            return [self._event(agent, VIOLATION_TOPIC, body)]

        # A broker hands one envelope, the publish itself, to every subscriber
        # and peer, so each distinct body is encoded once. The cache keys on
        # id() and keeps the body alive, so a body freed mid-loop cannot lend
        # its id to the next.
        encoded: dict[int, tuple[Any, bytes]] = {}

        def encode_once(body: Any) -> bytes:
            hit = encoded.get(id(body))
            if hit is None:
                hit = encoded[id(body)] = (body, encode_body(body))
            return hit[1]

        outputs: list[Message] = []
        for pstep in steps:
            outputs.append(self._step_message(agent, pstep, encode_once))
        for body in dec.get("responses", []):
            outputs.append(
                self.factory.new_message(
                    src=agent.id,
                    dst=msg.src,
                    kind=MessageKind.RESPONSE,
                    payload=encode_once(body),
                )
            )
        facts = dec.get("facts")
        if facts:
            for key, value in facts:
                agent.facts.put(key, value)
            self.facts_written.add(agent.id)
        return outputs

    def _step_message(
        self, agent: Agent, pstep: dict[str, Any], encode: Callable[[Any], bytes]
    ) -> Message:
        action = pstep["action"]
        if action in ("deliver-event", "forward-event"):
            kind, body = MessageKind.EVENT, pstep["params"]["event"]
        else:
            kind, body = MessageKind.REQUEST, {"op": action, **pstep["params"]}
        dst: Destination = pstep["target"]
        if action in ("install-rule", "remove-rule") and isinstance(dst, str):
            dst = f"switch.{dst}"
        return self.factory.new_message(
            src=agent.id,
            dst=dst,
            kind=kind,
            payload=encode(body),
        )

    def _event(self, agent: Agent, topic: str, body: Any) -> Message:
        """An event the agent publishes."""
        return self.factory.new_message(
            src=agent.id,
            dst=topic,
            kind=MessageKind.EVENT,
            payload=encode_body({"topic": topic, "body": body}),
        )

    def _emit(self, record: dict[str, Any]) -> None:
        """Stamp a new stage record with its sequence number and sim time, in
        place, and keep it. Sinks that write records sort their keys."""
        self._seq += 1
        record["seq"] = self._seq
        record["at"] = self.now
        self.stage_log.append(record)
        if self.log_sink:
            self.log_sink(record)

