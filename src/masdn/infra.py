"""Cognition implementations for the infrastructure agents: the
event-distribution brokers, and the agents that run the lifecycle only (the
registry, the knowledge plane, the discovery agent and the fault handler).

The lifecycle-only agents keep no state of their own: what agents export
lives in the orchestrator's mirror, and who is live only the host knows.
They run the shared empty decide (functions.lifecycle_only_decide), are
handed nothing, and are respawned like everyone else. The registry and the
knowledge plane are in every roster; discovery and the fault handler only
in one whose chain names them.

Brokers carry the event plane at run time. A published event (a message
whose destination is a topic) reaches one broker, which delivers the
publish itself, {"topic", "body"} as it arrived, to local subscribers, and
forwards it unchanged according to the configured arrangement (solo, full
mesh, or per-level with a root relay). A broker tells a forward from a
publish by the frame's destination: a publish is addressed to its topic, a
forward to the broker's id. It forwards nothing addressed to it, bar the
root, which relays what a level broker forwarded. Who published an event
is the publish frame's src, which the receiving broker's input stage
record keeps. Its local subscribers are the "subs" table in its spec
(orchestrator.broker_subs), fixed when the controller is composed, and its
neighbours are the "relays" table, each neighbouring broker with the
filters a subscriber behind it reads (orchestrator.broker_facts): a mesh
broker's are its peers, the root's the level brokers, and a level broker's
the root, standing for the other level brokers. A publish goes only to the
neighbours one of whose filters matches its topic (subscription forwarding,
as in Siena), so it never crosses to a broker where nobody waits for it.
A delivery or forward is validated against those two tables, which name
exactly its subscribers and neighbours. A broker learns nothing, so it
exports no digest and a respawn rebuilds it from its spec alone, and it
keeps no per-publisher state: no arrangement hands a broker an event twice
(a mesh broker never re-forwards, and the root relays to no level broker
twice and never back to the sender), and the fabric's per-pair mark drops a
repeated frame on the publisher-to-topic and broker-to-broker hops.
"""

from __future__ import annotations

from typing import Any

from .core import AgentId, FunctionKind, MessageKind
from .events import match_topic
from .functions import lifecycle_only_decide
from .runtime import AgentInput, decision, register_cognition, step


# -- agents that run the lifecycle only ----------------------------------------------


register_cognition(FunctionKind.REGISTRY.value)(lifecycle_only_decide)
register_cognition(FunctionKind.KNOWLEDGE_PLANE.value)(lifecycle_only_decide)
register_cognition(FunctionKind.AUTOCONF_DISCOVERY.value)(lifecycle_only_decide)
register_cognition(FunctionKind.FAULT.value)(lifecycle_only_decide)


# -- event-distribution broker ------------------------------------------------------------


def _local_deliveries(facts: dict[str, Any], env: dict[str, Any]) -> list[dict[str, Any]]:
    """One deliver-event step per local subscriber whose filter matches."""
    targets: set[str] = set()
    for flt, group in facts.get("subs", {}).items():
        if match_topic(flt, env["topic"]):
            targets.update(group)
    return [step("deliver-event", AgentId.parse(t), event=env) for t in sorted(targets)]


@register_cognition(FunctionKind.EVENT_DISTRIBUTION.value)
def broker_decide(facts: dict[str, Any], inp: AgentInput) -> dict[str, Any]:
    if inp.message.kind is MessageKind.EVENT and isinstance(inp.body, dict):
        # a publish is addressed to its topic; a forward to this broker
        forwarded = isinstance(inp.message.dst, AgentId)
        env = inp.body
        steps = _local_deliveries(facts, env)
        # a mesh or level broker relays what was published here, the root
        # what a level broker forwarded (not back to that one, which has
        # delivered it already); each only to the neighbours a matching
        # subscriber sits behind
        if forwarded == (facts["role"] == "root"):
            sender = str(inp.message.src) if forwarded else None
            topic = env["topic"]
            for peer, filters in facts.get("relays", {}).items():
                if peer != sender and any(match_topic(f, topic) for f in filters):
                    steps.append(step("forward-event", AgentId.parse(peer), event=env))
        return decision(plan=steps)
    return decision()
