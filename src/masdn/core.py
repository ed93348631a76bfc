"""Shared vocabulary for the whole framework.

Everything that moves between modules is defined here: the four-level
decision hierarchy, the catalog of function kinds, agent identity, and the
message envelope. All types are immutable values;
the only shared mutable state is the message-id counter, which is guarded
by a lock.
"""

from __future__ import annotations

import functools
import re
import threading
from dataclasses import dataclass, field
from enum import Enum, IntEnum


class MasdnError(Exception):
    """Base class for all framework errors."""


class PayloadTooLarge(MasdnError):
    """Message payload exceeds the active stack profile's max_payload."""


class DecisionLevel(IntEnum):
    """Decision-hierarchy levels, ascending authority."""

    PROTOCOL = 0
    FUNCTION = 1
    NODE = 2
    NETWORK = 3


class FunctionKind(Enum):
    """Catalog of atomic function kinds an agent can embody.

    Function-level kinds cover the decomposed controller functions,
    node-level kinds cover per-element management, and network-level kinds
    are system plumbing (orchestration, registry, event brokers).
    """

    # function level
    ROUTING = "routing"
    FORWARDING = "forwarding"
    QOS = "qos"
    MOBILITY = "mobility"
    MONITORING = "monitoring"
    SERVICE_APP = "service-app"
    TOPOLOGY = "topology"
    CLASSIFIER = "classifier"
    SESSION = "session"
    # node level
    SECURITY = "security"
    FAULT = "fault"
    AUTOCONF_DISCOVERY = "autoconf-discovery"
    RESILIENCE = "resilience"
    SWITCH_ADAPTER = "switch-adapter"
    # network level
    ORCHESTRATION = "orchestration"
    EVENT_DISTRIBUTION = "event-distribution"
    REGISTRY = "registry"
    KNOWLEDGE_PLANE = "knowledge-plane"


_KIND_LEVEL: dict[FunctionKind, DecisionLevel] = {
    FunctionKind.ROUTING: DecisionLevel.FUNCTION,
    FunctionKind.FORWARDING: DecisionLevel.FUNCTION,
    FunctionKind.QOS: DecisionLevel.FUNCTION,
    FunctionKind.MOBILITY: DecisionLevel.FUNCTION,
    FunctionKind.MONITORING: DecisionLevel.FUNCTION,
    FunctionKind.SERVICE_APP: DecisionLevel.FUNCTION,
    FunctionKind.TOPOLOGY: DecisionLevel.FUNCTION,
    FunctionKind.CLASSIFIER: DecisionLevel.FUNCTION,
    FunctionKind.SESSION: DecisionLevel.FUNCTION,
    FunctionKind.SECURITY: DecisionLevel.NODE,
    FunctionKind.FAULT: DecisionLevel.NODE,
    FunctionKind.AUTOCONF_DISCOVERY: DecisionLevel.NODE,
    FunctionKind.RESILIENCE: DecisionLevel.NODE,
    FunctionKind.SWITCH_ADAPTER: DecisionLevel.NODE,
    FunctionKind.ORCHESTRATION: DecisionLevel.NETWORK,
    FunctionKind.EVENT_DISTRIBUTION: DecisionLevel.NETWORK,
    FunctionKind.REGISTRY: DecisionLevel.NETWORK,
    FunctionKind.KNOWLEDGE_PLANE: DecisionLevel.NETWORK,
}


def level_of(kind: FunctionKind) -> DecisionLevel:
    """Canonical hierarchy level of a function kind. Total and pure."""
    return _KIND_LEVEL[kind]


# exactly the text str(AgentId) writes: no leading zeros, ASCII digits only
_AGENT_ID_RE = re.compile(r"([a-z-]+)#(0|[1-9][0-9]*)")


@dataclass(frozen=True)
class AgentId:
    """Identity of one agent instance: what it does plus an instance number.

    The text form "kind#instance" names the agent in text frames, stage
    records and facts keys (a binary frame carries the kind's ordinal and
    the instance instead), and ids key dicts and are sorted on every tick,
    so the text, the hash and the sort key are computed once, at
    construction.
    They take no part in equality or repr, which use kind and instance only.
    The hash is salted per process (it hashes the enum member and so its
    name), so it never travels in pickle state: unpickling, copy and
    deepcopy rebuild the id from kind and instance. AgentId.parse is
    memoised: equal text gives the same frozen value, and malformed text
    raises ValueError on every call.
    """

    kind: FunctionKind
    instance: int
    _text: str = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _order: tuple[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.instance < 0:
            raise ValueError(f"instance must be non-negative, got {self.instance}")
        object.__setattr__(self, "_text", f"{self.kind.value}#{self.instance}")
        object.__setattr__(self, "_hash", hash((self.kind, self.instance)))
        object.__setattr__(self, "_order", (self.kind.value, self.instance))

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: AgentId) -> bool:
        if not isinstance(other, AgentId):
            return NotImplemented
        return self._order < other._order

    def __reduce__(self) -> tuple[type[AgentId], tuple[FunctionKind, int]]:
        return AgentId, (self.kind, self.instance)

    def __str__(self) -> str:
        return self._text

    @staticmethod
    @functools.lru_cache(maxsize=4096)
    def parse(text: str) -> AgentId:
        m = _AGENT_ID_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"not an agent id: {text!r}")
        return AgentId(FunctionKind(m.group(1)), int(m.group(2)))


class MessageKind(Enum):
    REQUEST = "request"
    RESPONSE = "response"
    EVENT = "event"
    POLICY = "policy"


# dst is either an AgentId or a dot-separated topic / endpoint name
Destination = AgentId | str


@dataclass(frozen=True)
class Message:
    """The sole inter-agent interaction unit.

    The payload is an opaque byte sequence produced by the active stack
    profile's codec; the envelope itself is what the wire codecs frame.
    """

    msg_id: int
    src: AgentId
    dst: AgentId | str
    kind: MessageKind
    payload: bytes
    sim_time: int
    correlation_id: int | None = None

    def __post_init__(self) -> None:
        if self.kind is MessageKind.RESPONSE and self.correlation_id is None:
            raise ValueError("Response messages must carry a correlation_id")


class MessageFactory:
    """Allocates strictly increasing message ids.

    One factory per running system keeps run logs reproducible. The
    counter is the only shared mutable state in this module and is
    lock-protected.
    """

    def __init__(self) -> None:
        self._next = 1
        self._lock = threading.Lock()

    def new_message(
        self,
        src: AgentId,
        dst: AgentId | str,
        kind: MessageKind,
        payload: bytes,
        now: int,
        correlation_id: int | None = None,
    ) -> Message:
        with self._lock:
            msg_id = self._next
            self._next += 1
        # positional, as keywords cost more and every hop builds a Message
        return Message(msg_id, src, dst, kind, payload, now, correlation_id)
