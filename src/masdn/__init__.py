"""masdn: an SDN controller recomposed from atomic autonomous agents.

Every control function (topology, routing, classification, QoS admission,
rule installation, session management) runs as an independent agent with a
six-stage decision pipeline; an orchestration agent composes them into a
working controller over a deterministic simulated data plane. A monolithic
controller built from the same decision library serves as the equivalence
oracle: both modes must produce identical flow tables and session ledgers.
"""

from . import functions, infra, orchestrator  # noqa: F401  (register cognitions)
from .core import AgentId, FunctionKind, DecisionLevel, Message, MessageKind
from .netsim import Scenario, Simulator, Topology
from .oracle import MonolithicController, compare
from .runtime import AgentHost, AgentSpec
from .system import AgentSystem

__version__ = "0.1.0"

__all__ = [
    "AgentHost",
    "AgentId",
    "AgentSpec",
    "AgentSystem",
    "FunctionKind",
    "DecisionLevel",
    "Message",
    "MessageKind",
    "MonolithicController",
    "Scenario",
    "Simulator",
    "Topology",
    "compare",
]
