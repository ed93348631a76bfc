"""The network-level orchestration agent.

Given a run configuration it recomposes the controller out of atomic
function agents: the chain's closure (the kinds it names and those they
ask), the registry and knowledge-plane agents and the brokers, and no
other (config.plan_roster); topology, monitoring, fault and discovery join
only when the chain names them. Its genesis config fact is the RunConfig's
doc form, which it rebuilds at bootstrap; a chain it cannot compose and a
kill outside the roster were refused before the run. The event plane is
composed here too: each broker's spec carries its subscription table, every
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

from .config import RunConfig, broker_ids, parse_config, plan_roster
from .core import AgentId, FunctionKind, level_of
from .runtime import (
    AgentInput,
    decision,
    event_of,
    merge_digest,
    register_cognition,
    step,
)

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
    config: RunConfig,
    roster: list[str],
    view: dict[str, Any],
    me: str,
) -> dict[str, dict[str, Any]]:
    """Initial facts for every roster agent, as spec docs consumable by the
    host-control endpoint; a broker's hold its subscription table (see
    broker_subs). Every agent gets the configured policies whose scope holds
    its kind, in config order."""
    strategy = config.event_strategy
    brokers = broker_ids(strategy)
    peers = sorted(roster + [me])
    subs = broker_subs(strategy, roster)
    specs: dict[str, dict[str, Any]] = {}
    for agent in roster:
        kind = AgentId.parse(agent).kind
        facts: dict[str, Any] = {"self": agent, "peers": peers}
        if kind in _NEEDS_VIEW:
            facts["topology"] = view
        scoped = [doc for doc, policy in config.policies if kind in policy.scope]
        if scoped:
            facts["policies"] = scoped
        if kind is FunctionKind.CLASSIFIER:
            facts["thresholds"] = config.thresholds
        if kind is FunctionKind.QOS:
            facts["qos-cap-permille"] = config.qos_cap_permille
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
    agent in roster order. The config fact was checked against the run."""
    config = parse_config(facts.get("config", {}), None)
    roster = plan_roster(config)
    specs = build_specs(config, roster, facts.get("topology") or {}, str(inp.message.dst))
    return decision(plan=_spawns(specs, roster, {}), facts=[("specs", specs)])
