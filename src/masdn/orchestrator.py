"""The network-level orchestration agent.

Given a run configuration it recomposes the controller out of atomic
function agents: the chain's closure (the kinds it names and those they
ask), the registry and knowledge-plane agents and the brokers, and no
other; topology, monitoring, fault and discovery join only when the chain
names them. check_roster refuses, before a run, a chain it cannot compose
and a kill of an agent outside the roster. The event plane is composed
here too: each broker's spec carries its subscription table, every
roster agent homed on it (home_broker) under each topic its kind reads
(_SUBSCRIPTIONS), so no agent subscribes at run time. Only routing and
session read events.link: they keep the live view. Qos and forwarding get
the genesis view in their spec, as configuration no link event changes.
The network-level policies go down in the specs: each agent's initial
facts carry the configured policies whose scope holds its kind, in config
order.

Bootstrap is one decision, on the one control.bootstrap, which genesis sends
here: it stores the per-agent specs and spawns every agent in roster order.
Its plan targets only the host.control endpoint, so it is validated against
the genesis "endpoints" fact alone.

After bootstrap the orchestrator is the supervisor. It keeps no liveness
table: the host is the failure detector, and the system sends one
agent.down event here for each agent killed, at the next tick, with the
dead agent as the frame's src (system.py). Each notice respawns that agent,
a broker like any other, from its spec with its mirror slot restored, in
one spawn-agent step: that is the whole recovery, as the fabric replays what
the agent missed. A respawn is announced on no topic, as no agent would
read it.

kp.digest events, sent straight here by the digest pump, feed the state
mirror, the one copy of what agents learn and the only one a restore reads;
a digest's body is the {key: doc} map alone, filed under the frame's src.
A spawn-agent step carries the spec, which names the agent, and the
restore. No broker's table lists the orchestrator, and it answers no
request: everything it does starts from an event.
"""

from __future__ import annotations

import zlib
from typing import Any

from .core import AgentId, FunctionKind, level_of
from .hierarchy import Policy
from .logic import (
    DEFAULT_GAP_THRESHOLD,
    DEFAULT_QOS_CAP_PERMILLE,
    DEFAULT_SIZE_THRESHOLD,
    chain_closure,
)
from .netsim import SchemaError
from .runtime import (
    AgentInput,
    UnknownCognition,
    cognition,
    decision,
    event_of,
    merge_digest,
    register_cognition,
    step,
)

BROKER_COUNT = {"centralized": 1, "distributed": 3, "hybrid": 5}

# The topics each kind reads, under which its home broker's table lists it.
# Every other kind reads no topic.
_SUBSCRIPTIONS: dict[FunctionKind, list[str]] = {
    FunctionKind.ROUTING: ["events.link"],
    FunctionKind.SESSION: ["events.packet_in", "events.flow", "events.link", "events.violation"],
}

# the kinds whose spec holds the genesis view: routing and session keep it
# current from link events; qos and forwarding read only what no link event
# changes (capacities, the switch list)
_NEEDS_VIEW = (
    FunctionKind.ROUTING,
    FunctionKind.QOS,
    FunctionKind.FORWARDING,
    FunctionKind.SESSION,
)


def broker_ids(strategy: str) -> list[str]:
    return [
        str(AgentId(FunctionKind.EVENT_DISTRIBUTION, i))
        for i in range(BROKER_COUNT[strategy])
    ]


def home_broker(strategy: str, agent: str) -> str:
    """The broker an agent publishes through, and whose subscription table
    holds it."""
    brokers = broker_ids(strategy)
    if strategy == "centralized":
        return brokers[0]
    if strategy == "distributed":
        return brokers[zlib.crc32(agent.encode("utf-8")) % len(brokers)]
    # hybrid: one broker per decision level, broker 0 is the relay root
    return brokers[1 + level_of(AgentId.parse(agent).kind).value]


def plan_roster(config: dict[str, Any]) -> list[str]:
    """Every agent the run needs, as sorted id strings (orchestrator
    excluded): the chain's closure, registry, knowledge plane and brokers."""
    chain = [FunctionKind(k) for k in config.get("chain", ["session"])]
    kinds = {*chain_closure(chain), FunctionKind.REGISTRY, FunctionKind.KNOWLEDGE_PLANE}
    roster = [str(AgentId(kind, 0)) for kind in kinds]
    roster.extend(broker_ids(config.get("event_strategy", "centralized")))
    return sorted(roster)


def check_roster(config: dict[str, Any]) -> None:
    """Refuse, with SchemaError, a chain the orchestrator cannot compose, and a
    kill of an agent outside the roster. A chain holds session, whose ledger
    the monolith keeps, and only kinds with a cognition, bar the orchestrator
    and the brokers, which are composed apart."""
    chain = config.get("chain", ["session"])
    if FunctionKind.SESSION.value not in chain:
        raise SchemaError(f"config chain {chain} does not hold 'session'")
    for name in chain:
        try:
            cognition(name)
        except UnknownCognition:
            raise SchemaError(f"config chain names {name!r}, which has no cognition") from None
        if name in (FunctionKind.ORCHESTRATION.value, FunctionKind.EVENT_DISTRIBUTION.value):
            raise SchemaError(f"config chain names {name!r}, which is composed apart")
    roster = plan_roster(config)
    for tick, agents in config.get("kills", {}).items():
        outside = [a for a in agents if a not in roster]
        if outside:
            raise SchemaError(f"config kills at tick {tick}: {outside} not in the roster")


def check_kill_ticks(config: dict[str, Any], duration: int) -> None:
    """Refuse, with SchemaError, a kill no run of `duration` ticks can honour:
    a kill after tick t is reported, and its agent respawned, at tick t + 1,
    so t runs from 0 to duration - 2."""
    for tick in config.get("kills", {}):
        if not 0 <= int(tick) <= duration - 2:
            raise SchemaError(
                f"config kills at tick {tick}: outside 0 .. {duration - 2}, "
                f"the ticks a {duration}-tick run can respawn after"
            )


def broker_subs(strategy: str, roster: list[str]) -> dict[str, dict[str, list[str]]]:
    """Per broker, its subscription table: {filter: sorted roster agents homed
    on the broker whose kind reads the filter}."""
    tables: dict[str, dict[str, list[str]]] = {b: {} for b in broker_ids(strategy)}
    for agent in sorted(roster):
        for flt in _SUBSCRIPTIONS.get(AgentId.parse(agent).kind, []):
            tables[home_broker(strategy, agent)].setdefault(flt, []).append(agent)
    return tables


def _broker_facts(strategy: str, broker: str, brokers: list[str]) -> dict[str, Any]:
    if strategy == "centralized":
        return {"role": "solo"}
    if strategy == "distributed":
        return {"role": "mesh", "brokers": [b for b in brokers if b != broker]}
    if broker == brokers[0]:
        return {"role": "root", "downstream": brokers[1:]}
    return {"role": "level", "root": brokers[0]}


def build_specs(
    config: dict[str, Any],
    roster: list[str],
    view: dict[str, Any],
    me: str,
) -> dict[str, dict[str, Any]]:
    """Initial facts for every roster agent, as spec docs consumable by the
    host-control endpoint; a broker's hold its subscription table (see
    broker_subs). Every agent gets the configured policies whose scope holds
    its kind, in config order. Policy.from_dict raises InvalidDirection for a
    policy whose issuer is not above its scope."""
    strategy = config.get("event_strategy", "centralized")
    brokers = broker_ids(strategy)
    peers = sorted(roster + [me])
    thresholds = config.get("thresholds", {})
    policies = [(doc, Policy.from_dict(doc).scope) for doc in config.get("policies", [])]
    subs = broker_subs(strategy, roster)
    specs: dict[str, dict[str, Any]] = {}
    for agent in roster:
        kind = AgentId.parse(agent).kind
        facts: dict[str, Any] = {"self": agent, "peers": peers}
        if kind in _NEEDS_VIEW:
            facts["topology"] = view
        scoped = [doc for doc, scope in policies if kind in scope]
        if scoped:
            facts["policies"] = scoped
        if kind is FunctionKind.CLASSIFIER:
            facts["thresholds"] = {
                "size": thresholds.get("size", DEFAULT_SIZE_THRESHOLD),
                "gap": thresholds.get("gap", DEFAULT_GAP_THRESHOLD),
            }
        if kind is FunctionKind.QOS:
            facts["qos-cap-permille"] = config.get("qos_cap_permille", DEFAULT_QOS_CAP_PERMILLE)
        if kind is FunctionKind.EVENT_DISTRIBUTION:
            facts["subs"] = subs[agent]
            facts.update(_broker_facts(strategy, agent, brokers))
        specs[agent] = {
            "agent": agent,
            "cognition": kind.value,
            "initial_facts": facts,
        }
    return specs


def _spawns(
    specs: dict[str, Any], agents: list[str], mirror: dict[str, Any]
) -> list[dict[str, Any]]:
    """One spawn-agent step per agent, in order, restoring its mirror slot;
    the spec names the agent."""
    return [
        step("spawn-agent", "host.control", spec=specs[a], restore=mirror.get(a, {}))
        for a in agents
    ]


@register_cognition(FunctionKind.ORCHESTRATION.value)
def orchestrator_decide(facts: dict[str, Any], inp: AgentInput) -> dict[str, Any]:
    ev = event_of(inp)
    if ev is None:
        return decision()
    topic, body = ev
    if topic == "control.bootstrap":
        return _bootstrap(facts, inp)
    if topic == "kp.digest":
        mirror = merge_digest(facts.get("mirror", {}), str(inp.message.src), body)
        return decision(facts=[("mirror", mirror)])
    if topic == "agent.down":
        # the frame's src is the dead agent
        plan = _spawns(facts.get("specs", {}), [str(inp.message.src)], facts.get("mirror", {}))
        return decision(plan=plan)
    return decision()


def _bootstrap(facts: dict[str, Any], inp: AgentInput) -> dict[str, Any]:
    """Compose the controller: the roster and its specs, and one spawn per
    agent in roster order."""
    config = facts.get("config", {})
    roster = plan_roster(config)
    specs = build_specs(config, roster, facts.get("topology") or {}, str(inp.message.dst))
    return decision(plan=_spawns(specs, roster, {}), facts=[("specs", specs)])
