"""Deterministic in-process message fabric.

One global FIFO carries every control-plane message, and each hop is
delivered exactly once. Each hop is really encoded and decoded with the
run's one stack profile, so the wire codecs are always on the path, not just
in codec tests; every agent, endpoint and topic speaks that profile, so no
link negotiates one. Under an at-least-once profile the fabric suppresses a
delivery whose msg_id is not above the highest one already delivered from
the same sender to the same destination. That per-pair mark is the one
duplicate filter of the event plane: a repeated publish shares its
publisher-to-topic pair with the original, and a repeated forward its
broker-to-broker pair, so brokers keep none. Duplicated frames, and the
other orders a real fabric may give (FIFO only per sender-destination
pair), come from the test fabric in tests/helpers.py, which installs onto
any Bus.

Destinations resolve once per frame, in order: an agent, an exact endpoint,
a prefix endpoint (e.g. "switch." for the data-plane bridge), and otherwise
a topic handed to the configured topic router (which names the broker agent
that owns the event). A frame for an agent that was spawned before and is
dead now, addressed to it or routed to it as a broker, is parked unencoded
and unmarked; when the host spawns that agent again, its parked frames go to
the front of the queue in their original order, ahead of any later frame of
the same pair (message logging, replayed onto the restored replacement).
Frames for an agent never spawned, and unresolvable ones, land in
dead_letters rather than raising: losing a destination is a legal state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import AgentId, Message
from .pps import Reliability, StackProfile, decode, encode
from .runtime import Agent, AgentHost

EndpointHandler = Callable[[Message], list[Message]]
Target = AgentId | EndpointHandler | None  # an agent (maybe dead), an endpoint, nowhere


@dataclass(frozen=True)
class DeadLetter:
    message: Message
    reason: str


class Bus:
    def __init__(self, host: AgentHost, profile: StackProfile) -> None:
        self.host = host
        self.profile = profile
        self.queue: deque[Message] = deque()
        self.endpoints: dict[str, EndpointHandler] = {}
        self.prefix_endpoints: dict[str, EndpointHandler] = {}
        self.topic_router: Callable[[Message], AgentId | None] | None = None
        self.dead_letters: list[DeadLetter] = []
        self.frames = 0
        self.duplicates_suppressed = 0
        # Highest msg_id delivered per (src, dst) pair under at-least-once.
        # One mark per pair catches every duplicate: msg ids grow, messages
        # join the FIFO in the order they were made and parked ones rejoin it
        # at the front, so the frames of one pair arrive in increasing msg_id
        # order and a repeat is never above the mark. Memory grows with the
        # number of pairs, not of frames.
        self._delivered: dict[tuple[str, str], int] = {}
        # frames held while dead, keyed by every agent ever spawned
        self._parked: dict[AgentId, list[Message]] = {a: [] for a in host.agents}
        host.on_spawn.append(self._unpark)

    # -- wiring -------------------------------------------------------------

    def bind_endpoint(self, name: str, handler: EndpointHandler) -> None:
        self.endpoints[name] = handler

    def bind_prefix(self, prefix: str, handler: EndpointHandler) -> None:
        self.prefix_endpoints[prefix] = handler

    # -- sending ------------------------------------------------------------

    def send(self, messages: Message | Iterable[Message]) -> None:
        if isinstance(messages, Message):
            self.queue.append(messages)
        else:
            self.queue.extend(messages)

    def run_to_quiescence(self, max_steps: int = 500_000) -> int:
        """Deliver until nothing is in flight; returns hops taken."""
        start = self.frames
        while self.queue:
            if self.frames - start >= max_steps:
                raise RuntimeError(f"no quiescence after {max_steps} hops")
            msg = self.queue.popleft()
            target = self._resolve(msg)
            if isinstance(target, AgentId) and target not in self.host.agents:
                parked = self._parked.get(target)
                if parked is not None:
                    parked.append(msg)
                    continue
            self._deliver(self._hop(msg), (str(msg.src), str(msg.dst)), target)
        return self.frames - start

    # -- internals ------------------------------------------------------------

    def _unpark(self, agent: Agent) -> None:
        self.queue.extendleft(reversed(self._parked.get(agent.id, [])))
        self._parked[agent.id] = []

    def _resolve(self, msg: Message) -> Target:
        dst = msg.dst
        if isinstance(dst, AgentId):
            return dst
        handler = self.endpoints.get(dst) or next(
            (h for prefix, h in self.prefix_endpoints.items() if dst.startswith(prefix)), None
        )
        if handler is None and self.topic_router is not None:
            return self.topic_router(msg)
        return handler

    def _hop(self, msg: Message) -> Message:
        self.frames += 1
        return decode(encode(msg, self.profile), self.profile)

    def _deliver(self, msg: Message, pair: tuple[str, str], target: Target) -> None:
        if self.profile.reliability is Reliability.AT_LEAST_ONCE:
            if msg.msg_id <= self._delivered.get(pair, -1):
                self.duplicates_suppressed += 1
                return
            self._delivered[pair] = msg.msg_id
        if isinstance(target, AgentId):
            if target in self.host.agents:
                self.queue.extend(self.host.process_input(target, msg))
                return
        elif target is not None:
            self.queue.extend(target(msg))
            return
        dst = msg.dst
        if isinstance(dst, AgentId):
            reason = f"agent {dst} not live"
        elif self.topic_router is not None:
            reason = f"no live broker for topic {dst!r}"
        else:
            reason = f"unresolvable destination {dst!r}"
        self.dead_letters.append(DeadLetter(msg, reason))
