"""Shared builders for randomized differential scenarios, and a harness that
runs the real event-distribution agents.

The scenario builders are pure construction: given a seeded random.Random
they produce topology/scenario documents the way an operator's config would
look. Link keys are always stored sorted so the duplicate-link check in
Topology.from_doc cannot be tripped by orientation.

Fabric is the test fabric. It installs onto any Bus, a bare one or the one
inside a BrokerFabric or an AgentSystem, and gives it what a real fabric may
do and the Bus never does: it can deliver every Nth hop twice, and it can
hand frames out in a seeded order that keeps FIFO only per (sender,
destination) pair.

BrokerFabric runs the broker agents of one event strategy on a Bus, so the
event-plane tests check the brokers a system run uses, and records which
publishers' traffic each broker's pipeline handled and what each subscriber
received. A broker relays the publish itself, with no stamp, and only
towards a matching subscriber, so the fabric names the publish behind each
delivery from its own record of what it published.
"""
from __future__ import annotations

import random
from collections import deque
from typing import Any, Iterable, NamedTuple

from masdn import AgentSystem, Scenario, Topology
from masdn.bus import Bus
from masdn.config import broker_ids, parse_config
from masdn.core import AgentId, Message, MessageKind
from masdn.oracle import MonolithicController, compare
from masdn.orchestrator import broker_facts, build_specs, home_broker
from masdn.pps import decode_body, encode_body
from masdn.runtime import AgentHost, AgentSpec, register_cognition

STRATEGIES = ("centralized", "distributed", "hybrid")

# a genesis view with nothing in it, for specs whose view is not looked at
VIEW: dict[str, Any] = {"switches": [], "hosts": {}, "links": []}


def gen_topology(
    rng: random.Random, n_switches: int, n_hosts: int | None = None
) -> dict[str, Any]:
    """Random connected topology document: a spanning tree plus extra links,
    with n_hosts hosts (by default half as many as switches, at least 3)."""
    switches = [f"sw{i + 1}" for i in range(n_switches)]
    links: list[dict[str, Any]] = []
    seen: set[tuple[str, str]] = set()

    def add(a: str, b: str) -> bool:
        key = (a, b) if a < b else (b, a)
        if key in seen or a == b:
            return False
        seen.add(key)
        links.append(
            {
                "a": key[0],
                "b": key[1],
                "capacity": rng.choice([10, 20, 50]),
                "latency": rng.randint(1, 5),
            }
        )
        return True

    for i in range(1, n_switches):
        add(switches[rng.randrange(i)], switches[i])
    for _ in range(rng.randint(0, n_switches)):
        add(*rng.sample(switches, 2))

    hosts = [
        {"id": f"h{i + 1}", "switch": rng.choice(switches)}
        for i in range(n_hosts or max(3, n_switches // 2))
    ]
    return {"switches": switches, "hosts": hosts, "links": links}


def gen_scenario(
    rng: random.Random,
    tdoc: dict[str, Any],
    n_flows: int,
    n_failures: int,
    duration: int,
    long_lived: bool = False,
) -> dict[str, Any]:
    """Random scenario over a topology document.

    With long_lived=True every flow keeps emitting units until the end of
    the run, which the recovery tests rely on: a reactive controller can
    only notice a flow while it still sends packets.
    """
    hosts = [h["id"] for h in tdoc["hosts"]]
    flows = []
    for _ in range(n_flows):
        src, dst = rng.sample(hosts, 2)
        start = rng.randint(1, duration // 3 if long_lived else duration // 2)
        gap = rng.randint(1, 2 if long_lived else 4)
        size = duration if long_lived else rng.randint(5, 60)
        flow = {"src": src, "dst": dst, "start_tick": start, "size": size, "gap": gap}
        if rng.random() < 0.3:
            flow["class"] = rng.choice(["realtime", "interactive", "bulk"])
        flows.append(flow)
    failures = []
    candidates = list(tdoc["links"])
    rng.shuffle(candidates)
    for link in candidates[:n_failures]:
        failures.append(
            {
                "a": link["a"],
                "b": link["b"],
                "at": rng.randrange(duration // 3, 2 * duration // 3),
            }
        )
    return {
        "seed": rng.randrange(10**6),
        "duration_ticks": duration,
        "flows": flows,
        "failures": failures,
    }


def gen_refresh_tick_scenario(seed: int) -> tuple[dict[str, Any], dict[str, Any]]:
    """A scenario that crowds the REFRESH_EVERY-th ticks: failure i falls at
    tick 10 * (i + 1) + (10 if i else 0), so 10, 30, 40, and each flow, in
    turn, is made realtime with gap 1 with probability 0.6 and then starts
    at 10, 20, 30 or 40, or keeps its drawn start. Link failures, packet-ins,
    reroute sweeps and the session agent's refresh tick then share ticks."""
    rng = random.Random(7000 + seed)
    tdoc = gen_topology(rng, rng.randint(4, 8))
    sdoc = gen_scenario(rng, tdoc, rng.randint(6, 14), rng.randint(1, 3), 60)
    for i, failure in enumerate(sdoc["failures"]):
        failure["at"] = 10 * (i + 1) + (10 if i else 0)
    for flow in sdoc["flows"]:
        if rng.random() < 0.6:
            flow["class"], flow["gap"] = "realtime", 1
        flow["start_tick"] = rng.choice([10, 20, 30, 40, flow["start_tick"]])
    return tdoc, sdoc


def build(tdoc: dict[str, Any], sdoc: dict[str, Any]) -> tuple[Topology, Scenario]:
    topo = Topology.from_doc(tdoc)
    return topo, Scenario.from_doc(sdoc, topo)


def run_both(
    tdoc: dict[str, Any], sdoc: dict[str, Any], config: dict[str, Any]
) -> tuple[dict[str, Any], dict[str, Any], dict[str, Any], AgentSystem]:
    """Run the agent system and the monolith on one scenario; return the diff too."""
    topo, scen = build(tdoc, sdoc)
    system = AgentSystem(topo, scen, dict(config))
    agents_out = system.run()
    mono_out = MonolithicController(topo, scen, dict(config)).run()
    return agents_out, mono_out, compare(agents_out, mono_out), system


def diff_is_empty(diff: dict[str, Any]) -> bool:
    return not any(diff[section][side] for section in diff for side in diff[section])


# -- the test fabric ---------------------------------------------------------------


class PairHeadQueue(deque):
    """A bus queue whose popleft hands out a seeded choice among the oldest
    queued frame of each (src, dst) pair. Frames of one pair leave in the
    order they joined, and parked frames a respawn puts at the front
    (extendleft) are their pair's oldest, so they still go first."""

    def __init__(self, frames: Iterable[Message], rng: random.Random) -> None:
        super().__init__(frames)
        self.rng = rng

    def popleft(self) -> Message:
        heads: dict[tuple[str, str], int] = {}
        for i, msg in enumerate(self):
            heads.setdefault((str(msg.src), str(msg.dst)), i)
        i = self.rng.choice(list(heads.values()))
        msg = self[i]
        del self[i]
        return msg


class Fabric:
    """The test fabric, installed onto a Bus. With duplicate_every=N every
    Nth hop (counted by bus.frames) is delivered twice, and
    duplicates_injected counts the copies. With a schedule seed the bus
    delivers in that schedule's pair-head order (PairHeadQueue) instead of
    its global FIFO."""

    def __init__(self, bus: Bus, duplicate_every: int = 0, schedule: int | None = None) -> None:
        self.duplicates_injected = 0
        if duplicate_every:
            deliver = bus._deliver

            def twice(msg: Message, pair: tuple[str, str], target: Any) -> None:
                copies = 1
                if bus.frames % duplicate_every == 0:
                    copies = 2
                    self.duplicates_injected += 1
                for _ in range(copies):
                    deliver(msg, pair, target)

            bus._deliver = twice
        if schedule is not None:
            bus.queue = PairHeadQueue(bus.queue, random.Random(schedule))


# -- real broker agents on a fabric ----------------------------------------------


@register_cognition("test-subscriber")
def _subscriber(facts, inp):
    """Decide nothing: the fabric records what a subscriber is handed."""
    return {}


class Delivery(NamedTuple):
    """An event a subscriber received, named by the publish it relays."""

    publisher: str
    order: int  # the publish's place in the fabric's publish order
    envelope: dict[str, Any]


class BrokerFabric:
    """The event-distribution agents of one strategy, built the way the
    orchestrator builds them, running on a Bus with recording subscribers.

    Publishers need not be agents: a publish is an event message from the
    publisher's id to the topic, which the bus hands to the publisher's home
    broker exactly as it does in a full system run.

    The fabric keeps each publish as the Delivery it makes, keyed by its
    payload. Brokers relay that payload unchanged, and no two
    publishes on one fabric may carry the same one (a trace's bodies each
    carry their own n), so a delivered event names its publish: one a broker
    altered names none and fails the lookup.
    """

    def __init__(self, strategy: str) -> None:
        self.strategy = strategy
        self.host = AgentHost()
        config = parse_config({"event_strategy": strategy}, None)
        self.bus = Bus(self.host, config.profile)
        self.bus.topic_router = lambda msg: AgentId.parse(home_broker(strategy, str(msg.src)))
        # broker -> its subscription table, as orchestrator.broker_subs builds it
        self.tables: dict[str, dict[str, list[str]]] = {b: {} for b in broker_ids(strategy)}
        for doc in build_specs(config, broker_ids(strategy), VIEW).values():
            self.host.spawn_agent(
                AgentSpec(AgentId.parse(doc["agent"]), doc["cognition"], doc["initial_facts"])
            )
        # payload -> the Delivery of that publish
        self.publishes: dict[bytes, Delivery] = {}
        # broker -> publishers whose publishes or forwards the broker's
        # pipeline was handed
        self.handled: dict[str, set[str]] = {b: set() for b in broker_ids(strategy)}
        # subscriber -> payloads its pipeline was handed, in arrival order
        self.received: dict[str, list[bytes]] = {}
        process_input = self.host.process_input

        def spy(agent_id: AgentId, msg: Message) -> list[Message]:
            got = self.received.get(str(agent_id))
            if got is not None:
                got.append(msg.payload)
            seen = self.handled.get(str(agent_id))
            if seen is not None and msg.kind is MessageKind.EVENT:
                seen.add(self.publishes[msg.payload].publisher)
            return process_input(agent_id, msg)

        self.host.process_input = spy

    def subscribe(self, sub: str, flt: str) -> None:
        """Put the subscriber in its home broker's subscription table, where
        a run's spec would have it (orchestrator.broker_subs), and give every
        broker the facts the orchestrator derives from the tables
        (orchestrator.broker_facts): the relays' filters."""
        agent = AgentId.parse(sub)
        if agent not in self.host.agents:
            self.host.spawn_agent(AgentSpec(agent, "test-subscriber"))
            self.received[sub] = []
        table = self.tables[home_broker(self.strategy, sub)]
        table[flt] = sorted({*table.get(flt, ()), sub})
        for broker in self.tables:
            facts = self.host.agents[AgentId.parse(broker)].facts
            for key, value in broker_facts(self.strategy, broker, self.tables).items():
                facts.put(key, value)

    def publish(self, pub: str, topic: str, body: Any) -> int:
        """Queue one publish and record it; returns its place in publish order."""
        payload = encode_body({"topic": topic, "body": body})
        assert payload not in self.publishes, f"{payload!r} would not name one publish"
        order = len(self.publishes)
        self.publishes[payload] = Delivery(pub, order, decode_body(payload))
        self.bus.send(self.host.factory.new_message(
            src=AgentId.parse(pub),
            dst=topic,
            kind=MessageKind.EVENT,
            payload=payload,
        ))
        return order

    def run(self) -> "BrokerFabric":
        self.bus.run_to_quiescence()
        return self

    def delivered_to(self, sub: str, publishers: Iterable[str] | None = None) -> list[Delivery]:
        """Events the subscriber received, in arrival order, each named by
        the publish it relays; pass publishers to keep only a trace's."""
        got = [self.publishes[p] for p in self.received[sub]]
        if publishers is None:
            return got
        keep = set(publishers)
        return [d for d in got if d.publisher in keep]


# publishers and subscribers spread over the function, node and network levels
_TRACE_KINDS = ("routing", "fault", "registry", "qos", "security", "knowledge-plane")


def trace_agents(first_instance: int, n: int) -> list[str]:
    """n agent ids cycling through kinds at three decision levels."""
    return [f"{_TRACE_KINDS[i % len(_TRACE_KINDS)]}#{first_instance + i}" for i in range(n)]


def run_trace(strategy: str, subs, events) -> BrokerFabric:
    """Subscribe, then publish a whole trace, through one strategy's brokers."""
    fabric = BrokerFabric(strategy)
    for sub, flt in subs:
        fabric.subscribe(sub, flt)
    fabric.run()
    for pub, topic, body in events:
        fabric.publish(pub, topic, body)
    return fabric.run()
