"""Deterministic simulated data plane.

Time is an integer tick counter. Each tick the simulator applies scheduled
link failures, then lets every flow (in scenario order) emit at most one
traffic unit, which traverses its whole path within the tick by following
the per-switch flow tables. Rules installed during tick t become matchable
at t+1.

A unit is dropped when a switch has no matching rule (which raises a
packet-in event, at most one per SUPPRESS_TICKS per (switch, src, dst)),
when the next-hop link is down or missing, when a link's per-tick capacity
is exhausted, or when the hop count exceeds the switch count (a forwarding
loop). Flows retry: a unit is only counted delivered when it reaches its
destination host's switch, and emission continues every `gap` ticks until
`size` units have arrived.

Per-link byte/drop counters feed the per-tick stats (stats.csv); miss and
loop drops have no link to charge and appear only in the global metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import MasdnError

SUPPRESS_TICKS = 50

_MASK64 = (1 << 64) - 1


class SchemaError(MasdnError):
    pass


class DanglingReference(SchemaError):
    pass


class SelfLoop(SchemaError):
    pass


class UnknownSwitch(MasdnError):
    pass


class XorShift64Star:
    """xorshift64* generator; tiny, fast, and identical on every platform."""

    def __init__(self, seed: int):
        self.state = (seed & _MASK64) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u64() % n


def _integer(doc: dict[str, Any], key: str, default: int | None = None) -> int:
    """doc[key] (or default when absent) as a JSON integer: a float, a string
    or a boolean is refused with ValueError rather than coerced."""
    value = doc[key] if default is None else doc.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return value


def _text(doc: dict[str, Any], key: str) -> str:
    """doc[key] as a JSON string: an id of any other type is refused with
    ValueError rather than used as a key."""
    value = doc[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, not {value!r}")
    return value


def link_key(a: str, b: str) -> tuple[str, str]:
    """Canonical undirected link identity."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    capacity: int
    latency: int


@dataclass(frozen=True)
class Topology:
    switches: tuple[str, ...]
    hosts: dict[str, str]  # host id -> attached switch
    links: tuple[Link, ...]

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> Topology:
        if not isinstance(doc, dict):
            raise SchemaError("topology document must be an object")
        for key in ("switches", "hosts", "links"):
            if key not in doc:
                raise SchemaError(f"topology is missing {key!r}")
            if not isinstance(doc[key], list):
                raise SchemaError(f"topology {key!r} must be a list")
        switches = list(doc["switches"])
        for sw in switches:
            if not isinstance(sw, str):
                raise SchemaError(f"switch id {sw!r} must be a string")
        if len(set(switches)) != len(switches):
            raise SchemaError("duplicate switch ids")
        swset = set(switches)
        hosts: dict[str, str] = {}
        for h in doc["hosts"]:
            try:
                hid, at = _text(h, "id"), _text(h, "switch")
            except (TypeError, KeyError, ValueError) as exc:
                raise SchemaError(f"bad host entry {h!r}") from exc
            if hid in hosts or hid in swset:
                raise SchemaError(f"duplicate id {hid!r}")
            if at not in swset:
                raise DanglingReference(f"host {hid!r} attaches to unknown switch {at!r}")
            hosts[hid] = at
        links: list[Link] = []
        seen: set[tuple[str, str]] = set()
        for entry in doc["links"]:
            try:
                link = Link(
                    a=_text(entry, "a"),
                    b=_text(entry, "b"),
                    capacity=_integer(entry, "capacity"),
                    latency=_integer(entry, "latency"),
                )
            except (TypeError, KeyError, ValueError) as exc:
                raise SchemaError(f"bad link entry {entry!r}") from exc
            if link.a == link.b:
                raise SelfLoop(f"link {link.a!r} to itself")
            if link.a not in swset or link.b not in swset:
                raise DanglingReference(f"link {link.a!r}-{link.b!r} references unknown switch")
            if link.capacity <= 0 or link.latency <= 0:
                raise SchemaError("link capacity and latency must be positive")
            key = link_key(link.a, link.b)
            if key in seen:
                raise SchemaError(f"duplicate link {key}")
            seen.add(key)
            links.append(link)
        return cls(switches=tuple(switches), hosts=hosts, links=tuple(links))


@dataclass(frozen=True)
class Flow:
    index: int
    src: str
    dst: str
    start: int
    size: int
    gap: int = 1
    hint: str | None = None  # traffic class stated by the scenario, if any


@dataclass(frozen=True)
class Failure:
    a: str
    b: str
    at: int


@dataclass(frozen=True)
class Scenario:
    seed: int
    duration: int
    flows: tuple[Flow, ...]
    failures: tuple[Failure, ...]
    jitter: int = 0

    @classmethod
    def from_doc(cls, doc: dict[str, Any], topo: Topology | None = None) -> Scenario:
        if not isinstance(doc, dict):
            raise SchemaError("scenario document must be an object")
        try:
            seed = _integer(doc, "seed")
            duration = _integer(doc, "duration_ticks")
            jitter = _integer(doc, "jitter", 0)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad scenario header: {exc}") from exc
        if duration <= 0:
            raise SchemaError("duration_ticks must be positive")
        if jitter < 0:
            raise SchemaError("jitter must be non-negative")
        flows = []
        for i, f in enumerate(doc.get("flows", [])):
            try:
                flow = Flow(
                    index=i,
                    src=_text(f, "src"),
                    dst=_text(f, "dst"),
                    start=_integer(f, "start_tick"),
                    size=_integer(f, "size"),
                    gap=_integer(f, "gap", 1),
                    hint=f.get("class"),
                )
            except (TypeError, KeyError, ValueError) as exc:
                raise SchemaError(f"bad flow entry {f!r}") from exc
            if flow.size <= 0 or flow.gap <= 0 or flow.start < 0:
                raise SchemaError(f"flow {i}: size and gap must be positive, start non-negative")
            if topo is not None:
                for host in (flow.src, flow.dst):
                    if host not in topo.hosts:
                        raise DanglingReference(f"flow {i} references unknown host {host!r}")
            flows.append(flow)
        failures = []
        for f in doc.get("failures", []):
            try:
                failure = Failure(a=_text(f, "a"), b=_text(f, "b"), at=_integer(f, "at"))
            except (TypeError, KeyError, ValueError) as exc:
                raise SchemaError(f"bad failure entry {f!r}") from exc
            if topo is not None and link_key(failure.a, failure.b) not in {
                link_key(l.a, l.b) for l in topo.links
            }:
                raise DanglingReference(f"failure references unknown link {f!r}")
            failures.append(failure)
        return cls(
            seed=seed,
            duration=duration,
            flows=tuple(flows),
            failures=tuple(failures),
            jitter=jitter,
        )


# -- events the data plane raises -------------------------------------------


@dataclass(frozen=True)
class LinkDown:
    a: str
    b: str
    at: int

    def to_doc(self) -> dict[str, Any]:
        return {"a": self.a, "b": self.b, "state": "down", "at": self.at}


@dataclass(frozen=True)
class PacketIn:
    switch: str
    src: str
    dst: str
    at: int
    size: int
    gap: int
    hint: str | None

    def to_doc(self) -> dict[str, Any]:
        return {
            "switch": self.switch,
            "src": self.src,
            "dst": self.dst,
            "at": self.at,
            "size": self.size,
            "gap": self.gap,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class TickStats:
    tick: int
    links: tuple[tuple[str, str, int, int], ...]  # (a, b, bytes, drops)


SimEvent = LinkDown | PacketIn | TickStats


# -- flow tables --------------------------------------------------------------


@dataclass
class Rule:
    rule_id: str
    src: str
    dst: str
    priority: int
    action: str  # "forward" | "deliver"
    next_hop: str | None
    effective_from: int

    @classmethod
    def from_doc(cls, doc: dict[str, Any], effective_from: int) -> Rule:
        try:
            match = doc["match"]
            rule = cls(
                rule_id=str(doc["rule_id"]),
                src=match["src"],
                dst=match["dst"],
                priority=int(doc["priority"]),
                action=doc["action"],
                next_hop=doc.get("next_hop"),
                effective_from=effective_from,
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise SchemaError(f"bad rule document {doc!r}") from exc
        if rule.action not in ("forward", "deliver"):
            raise SchemaError(f"unknown rule action {rule.action!r}")
        if rule.action == "forward" and not rule.next_hop:
            raise SchemaError("forward rule needs a next_hop")
        return rule

    def slot(self) -> tuple[str, str, int]:
        return (self.src, self.dst, self.priority)

    def to_doc(self) -> dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "match": {"src": self.src, "dst": self.dst},
            "priority": self.priority,
            "action": self.action,
            "next_hop": self.next_hop,
        }


class FlowTable:
    """Rules of one switch, keyed by (src, dst, priority) slot."""

    def __init__(self) -> None:
        self.rules: dict[tuple[str, str, int], Rule] = {}

    def install(self, rule: Rule) -> None:
        self.rules[rule.slot()] = rule

    def remove(self, src: str, dst: str, priority: int) -> bool:
        return self.rules.pop((src, dst, priority), None) is not None

    def lookup(self, src: str, dst: str, now: int) -> Rule | None:
        best: Rule | None = None
        for rule in self.rules.values():
            if rule.src != src or rule.dst != dst or rule.effective_from > now:
                continue
            if best is None or (rule.priority, rule.rule_id) > (best.priority, best.rule_id):
                best = rule
        return best

    def effective_rules(self, now: int) -> list[Rule]:
        return sorted(
            (r for r in self.rules.values() if r.effective_from <= now),
            key=lambda r: (r.src, r.dst, -r.priority, r.rule_id),
        )


# -- the simulator -------------------------------------------------------------


@dataclass
class FlowProgress:
    flow: Flow
    delivered: int = 0
    first_delivered: int | None = None
    emitted: int = 0
    dropped: int = 0


class Simulator:
    def __init__(self, topo: Topology, scenario: Scenario, suppress_ticks: int = SUPPRESS_TICKS):
        self.topo = topo
        self.scenario = scenario
        self.suppress_ticks = suppress_ticks
        self.prng = XorShift64Star(scenario.seed)
        self.tables: dict[str, FlowTable] = {s: FlowTable() for s in topo.switches}
        self.link_up: dict[tuple[str, str], bool] = {
            link_key(l.a, l.b): True for l in topo.links
        }
        self._link_by_key = {link_key(l.a, l.b): l for l in topo.links}
        self._adjacent: dict[str, set[str]] = {s: set() for s in topo.switches}
        for l in topo.links:
            self._adjacent[l.a].add(l.b)
            self._adjacent[l.b].add(l.a)
        # scenario start jitter is part of flow realization, fixed up front
        self.flows = [
            FlowProgress(
                flow=Flow(
                    index=f.index,
                    src=f.src,
                    dst=f.dst,
                    start=f.start
                    + (self.prng.randrange(scenario.jitter + 1) if scenario.jitter else 0),
                    size=f.size,
                    gap=f.gap,
                    hint=f.hint,
                )
            )
            for f in scenario.flows
        ]
        self._suppress: dict[tuple[str, str, str], int] = {}
        self.next_tick = 0
        self.total_drops = 0

    # -- control-plane facing ------------------------------------------------

    def schedule(self) -> list[dict[str, Any]]:
        """The declared flow arrivals, start jitter applied: what proactive
        mode sets up ahead of time, the same list for both controllers."""
        return [
            {
                "src": p.flow.src,
                "dst": p.flow.dst,
                "size": p.flow.size,
                "gap": p.flow.gap,
                "start_tick": p.flow.start,
                "class": p.flow.hint,
            }
            for p in self.flows
        ]

    def install_rule(self, switch: str, doc: dict[str, Any], now: int) -> Rule:
        table = self.tables.get(switch)
        if table is None:
            raise UnknownSwitch(switch)
        rule = Rule.from_doc(doc, effective_from=now + 1)
        table.install(rule)
        return rule

    def remove_rule(self, switch: str, src: str, dst: str, priority: int) -> bool:
        table = self.tables.get(switch)
        if table is None:
            raise UnknownSwitch(switch)
        return table.remove(src, dst, priority)

    def links_doc(self) -> list[dict[str, Any]]:
        """Current link state: every view's links at genesis, and what the
        reference controller re-reads on each periodic sweep."""
        return [
            {
                "a": l.a,
                "b": l.b,
                "capacity": l.capacity,
                "latency": l.latency,
                "up": self.link_up[link_key(l.a, l.b)],
            }
            for l in self.topo.links
        ]

    # -- stepping --------------------------------------------------------------

    def step(self, tick: int) -> list[SimEvent]:
        if tick != self.next_tick:
            raise ValueError(f"expected tick {self.next_tick}, got {tick}")
        self.next_tick += 1

        events: list[SimEvent] = []
        bytes_on: dict[tuple[str, str], int] = {k: 0 for k in self.link_up}
        drops_on: dict[tuple[str, str], int] = {k: 0 for k in self.link_up}

        for failure in self.scenario.failures:
            if failure.at == tick:
                key = link_key(failure.a, failure.b)
                if self.link_up.get(key, False):
                    self.link_up[key] = False
                    events.append(LinkDown(a=key[0], b=key[1], at=tick))

        for progress in self.flows:
            flow = progress.flow
            if flow.start > tick or progress.delivered >= flow.size:
                continue
            if (tick - flow.start) % flow.gap != 0:
                continue
            progress.emitted += 1
            events.extend(self._route_unit(progress, tick, bytes_on, drops_on))

        events.append(
            TickStats(
                tick=tick,
                links=tuple(
                    (a, b, bytes_on[(a, b)], drops_on[(a, b)])
                    for a, b in sorted(self.link_up)
                ),
            )
        )
        return events

    def _route_unit(
        self,
        progress: FlowProgress,
        tick: int,
        bytes_on: dict[tuple[str, str], int],
        drops_on: dict[tuple[str, str], int],
    ) -> list[SimEvent]:
        flow = progress.flow
        here = self.topo.hosts[flow.src]
        goal = self.topo.hosts[flow.dst]
        for _ in range(len(self.topo.switches) + 1):
            rule = self.tables[here].lookup(flow.src, flow.dst, tick)
            if rule is None:
                progress.dropped += 1
                self.total_drops += 1
                if self._suppressed(here, flow, tick):
                    return []
                self._suppress[(here, flow.src, flow.dst)] = tick
                return [
                    PacketIn(
                        switch=here,
                        src=flow.src,
                        dst=flow.dst,
                        at=tick,
                        size=flow.size,
                        gap=flow.gap,
                        hint=flow.hint,
                    )
                ]
            if rule.action == "deliver":
                if here != goal:  # misdelivery counts as a drop
                    progress.dropped += 1
                    self.total_drops += 1
                else:
                    progress.delivered += 1
                    if progress.first_delivered is None:
                        progress.first_delivered = tick
                return []
            nxt = rule.next_hop
            key = link_key(here, nxt)  # type: ignore[arg-type]
            if nxt not in self._adjacent[here] or not self.link_up.get(key, False):
                progress.dropped += 1
                self.total_drops += 1
                if key in drops_on:
                    drops_on[key] += 1
                return []
            if bytes_on[key] + 1 > self._link_by_key[key].capacity:
                progress.dropped += 1
                self.total_drops += 1
                drops_on[key] += 1
                return []
            bytes_on[key] += 1
            here = nxt  # type: ignore[assignment]
        progress.dropped += 1  # hop budget exhausted: forwarding loop
        self.total_drops += 1
        return []

    def _suppressed(self, switch: str, flow: Flow, tick: int) -> bool:
        """A miss within SUPPRESS_TICKS of the last packet-in raised for the
        same (switch, src, dst) raises none: a rule that took effect in
        between and was removed again does not reopen the window."""
        raised = self._suppress.get((switch, flow.src, flow.dst))
        return raised is not None and tick - raised < self.suppress_ticks

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        latencies = [
            p.first_delivered - p.flow.start
            for p in self.flows
            if p.first_delivered is not None
        ]
        return {
            "flows_total": len(self.flows),
            "flows_completed": sum(1 for p in self.flows if p.delivered >= p.flow.size),
            "flows_served": len(latencies),
            "packets_dropped": self.total_drops,
            "mean_setup_latency": (sum(latencies) / len(latencies)) if latencies else None,
        }

    def table_docs(self, now: int) -> dict[str, list[dict[str, Any]]]:
        """Effective rules per switch, for equivalence comparison."""
        return {
            s: [r.to_doc() for r in t.effective_rules(now)] for s, t in self.tables.items()
        }
