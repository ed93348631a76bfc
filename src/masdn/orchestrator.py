"""The network-level orchestration agent.

Given a run configuration it recomposes the controller out of atomic
function agents: the chain's closure (the kinds it names and those they
ask), the registry and knowledge-plane agents and the brokers, and no
other (config.plan_roster); topology, monitoring, fault and discovery join
only when the chain names them. Its genesis config fact is the RunConfig's
doc form, which it rebuilds at bootstrap; a chain it cannot compose and a
kill outside the roster were refused before the run.

Each spec carries what its agent reads and nothing else (build_specs), and
says each fact once: the spec's "agent" field names the agent, "peers" goes
only to an agent whose plans address agents (the session agent, a broker),
and only routing and session, which read events.link and keep the live
view, get the genesis view. Qos gets the link capacities and forwarding the
switch list, which no link event changes. The network-level policies go
down in the specs: each agent's initial facts carry the configured policies
whose scope holds its kind, in config order. The event plane is composed
here too: each broker's spec carries its subscription table, every roster
agent homed on it (home_broker) under each topic its kind reads
(_SUBSCRIPTIONS), so no agent subscribes at run time, and the filters read
behind each neighbouring broker, so it relays a publish only where a
subscriber waits for it (broker_facts).

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
The pump never ships a spec value, so a slot holds a key only once it has
moved past the spec, and a key's first delta is based on the sender's own
spec (merge_digest): a restore carries only what moved.
A spawn-agent step carries the spec, which names the agent, and the
restore. No broker's table lists the orchestrator, and it answers no
request: everything it does starts from an event.
"""

from __future__ import annotations

import zlib
from typing import Any

from .config import RunConfig, broker_ids, parse_config, plan_roster
from .core import AgentId, FunctionKind, level_of
from .logic import CHAIN_DEPENDENCIES, link_capacities
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

# the kinds whose spec holds the genesis view, which they keep current from
# link events
_NEEDS_VIEW = (FunctionKind.ROUTING, FunctionKind.SESSION)


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


def broker_facts(
    strategy: str, broker: str, tables: dict[str, dict[str, list[str]]]
) -> dict[str, Any]:
    """A broker's spec facts, given every broker's subscription table: its
    role, its own table ("subs"), and the neighbouring brokers it relays to,
    each with the filters a subscriber behind it reads ("relays"). The two
    tables name every agent its steps may target (runtime.validate_plan), so
    no "peers" list repeats them. A mesh broker's neighbours are the other
    brokers; the root's are the level brokers; a level broker's one
    neighbour is the root, which stands for the other level brokers. A
    neighbour with no subscriber behind it is left out."""
    brokers = broker_ids(strategy)
    # role, and each neighbour with the brokers behind it
    if strategy == "centralized":
        role, behind = "solo", {}
    elif strategy == "distributed":
        role, behind = "mesh", {b: [b] for b in brokers if b != broker}
    elif broker == brokers[0]:
        role, behind = "root", {b: [b] for b in brokers[1:]}
    else:
        role, behind = "level", {brokers[0]: [b for b in brokers[1:] if b != broker]}
    relays: dict[str, list[str]] = {}
    for neighbour, far in behind.items():
        read = sorted({flt for b in far for flt in tables[b]})
        if read:
            relays[neighbour] = read
    facts: dict[str, Any] = {"role": role, "subs": tables[broker]}
    if relays:
        facts["relays"] = relays
    return facts


def build_specs(
    config: RunConfig, roster: list[str], view: dict[str, Any]
) -> dict[str, dict[str, Any]]:
    """Initial facts for every roster agent, as spec docs consumable by the
    host-control endpoint. Each agent gets only what it reads:

    - "peers", the agents its steps may target, only to the session agent:
      the roster agents of the kinds it asks (logic.CHAIN_DEPENDENCIES); a
      broker's targets are its "subs" and "relays" (broker_facts);
    - the genesis view ("topology") only routing and session, which keep it
      current; qos the link capacities ("capacities") and forwarding the
      switch list ("switches"), which no link event changes;
    - the classifier its thresholds and qos its cap;
    - the configured policies whose scope holds its kind, in config order.

    The spec's "agent" field names the agent, so no fact repeats it."""
    strategy = config.event_strategy
    subs = broker_subs(strategy, roster)
    specs: dict[str, dict[str, Any]] = {}
    for agent in roster:
        kind = AgentId.parse(agent).kind
        facts: dict[str, Any] = {}
        asked = CHAIN_DEPENDENCIES.get(kind, frozenset())
        peers = [a for a in roster if AgentId.parse(a).kind in asked]
        if peers:
            facts["peers"] = peers
        if kind in _NEEDS_VIEW:
            facts["topology"] = view
        scoped = [doc for doc, policy in config.policies if kind in policy.scope]
        if scoped:
            facts["policies"] = scoped
        if kind is FunctionKind.CLASSIFIER:
            facts["thresholds"] = config.thresholds
        if kind is FunctionKind.QOS:
            facts["capacities"] = link_capacities(view["links"])
            facts["qos-cap-permille"] = config.qos_cap_permille
        if kind is FunctionKind.FORWARDING:
            facts["switches"] = view["switches"]
        if kind is FunctionKind.EVENT_DISTRIBUTION:
            facts.update(broker_facts(strategy, agent, subs))
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
        return _bootstrap(facts)
    if topic == "kp.digest":
        # a key the slot does not hold yet is based on the sender's own spec
        src = str(inp.message.src)
        spec = facts["specs"][src]["initial_facts"]
        mirror = merge_digest(facts.get("mirror", {}), src, body, spec)
        return decision(facts=[("mirror", mirror)])
    if topic == "agent.down":
        # the frame's src is the dead agent
        plan = _spawns(facts.get("specs", {}), [str(inp.message.src)], facts.get("mirror", {}))
        return decision(plan=plan)
    return decision()


def _bootstrap(facts: dict[str, Any]) -> dict[str, Any]:
    """Compose the controller: the roster and its specs, and one spawn per
    agent in roster order. The config fact was checked against the run."""
    config = parse_config(facts.get("config", {}), None)
    roster = plan_roster(config)
    specs = build_specs(config, roster, facts["topology"])
    return decision(plan=_spawns(specs, roster, {}), facts=[("specs", specs)])
