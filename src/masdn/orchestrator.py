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
here: it stores the per-agent specs, spawns every agent in roster order and
registers a lease for each. Its plan targets only the host.control
endpoint, so it is validated against the genesis "endpoints" fact alone.

After bootstrap the orchestrator is the failure detector. Its lease table
(registry.py's pure functions over the "leases" fact) is the one record of
which agents are live. Every spawn registers a lease built from the agent's
spec, with a TTL of MISSED_HEARTBEATS heartbeat intervals; each heartbeat,
sent straight here by its agent, renews the lease of its frame's src at the
frame's sim_time, which is delivery time, so a replayed (old) beat can
renew a lease but never shorten it (a beat has no body, so it can renew no
lease but its sender's); and each beat tick, handed here directly by the
system, sweeps the expired leases. Beat ticks suffice: leases are
registered (at genesis and by a sweep) and renewed (by beats) only on beat
ticks, and LEASE_TTL is a whole number of beat intervals, so every lease
expires on a beat tick. Every expired agent, a broker too, is respawned
from its spec with its mirror state restored and leased again: that is the
whole recovery, as the fabric replays what the agent missed; it is
announced on no topic, as no agent would read it. No agent's silence
stands for another's: the system hands every live agent its beat tick
straight, so a dead broker silences no one.

kp.digest events, sent straight here by the digest pump, feed the state
mirror, the one copy of what agents learn and the only one a restore reads;
a digest's body is the {key: doc} map alone, filed under the frame's src.
A spawn-agent step carries the spec, which names the agent, and the
restore.
No broker's table lists the orchestrator. It answers only discover, from
its lease table; everything else it does starts from an event. It holds no
lease of its own and, spawned by genesis with no "self" fact, sends no beat.
"""

from __future__ import annotations

import zlib
from typing import Any

from .core import AgentId, FunctionKind, level_of
from .functions import request_op
from .hierarchy import Policy
from .logic import (
    DEFAULT_GAP_THRESHOLD,
    DEFAULT_QOS_CAP_PERMILLE,
    DEFAULT_SIZE_THRESHOLD,
    HEARTBEAT_INTERVAL,
    MISSED_HEARTBEATS,
    chain_closure,
)
from .netsim import SchemaError
from .registry import (
    UnknownLease,
    table_discover,
    table_expire,
    table_heartbeat,
    table_register,
)
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

# a lease lapses MISSED_HEARTBEATS heartbeat intervals after its last renewal
LEASE_TTL = HEARTBEAT_INTERVAL * MISSED_HEARTBEATS

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


def lease_descriptor(spec: dict[str, Any]) -> dict[str, Any]:
    """The descriptor a spawned agent's lease holds and discover answers with."""
    return {
        "agent": spec["agent"],
        "capabilities": [spec["cognition"]],
        "endpoint": spec["agent"],
        "lease_ttl": LEASE_TTL,
    }


def _register(
    leases: dict[str, Any], specs: dict[str, Any], agents: list[str], now: int
) -> dict[str, Any]:
    for agent in agents:
        leases = table_register(leases, lease_descriptor(specs[agent]), now)
    return leases


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
    if request_op(inp) == "discover":
        kind = FunctionKind(inp.body["kind"]) if inp.body.get("kind") else None
        hits = table_discover(
            facts.get("leases", {}),
            inp.message.sim_time,
            kind=kind,
            capability=inp.body.get("capability"),
        )
        return decision(responses=[{"agents": hits, "ctx": inp.body.get("ctx")}])
    ev = event_of(inp)
    if ev is None:
        return decision()
    topic, body = ev
    if topic == "control.bootstrap":
        return _bootstrap(facts, inp)
    if topic == "hb":
        # the sender's own lease, renewed at delivery, so a replayed beat
        # never moves an expiry back
        msg = inp.message
        try:
            leases = table_heartbeat(facts.get("leases", {}), str(msg.src), msg.sim_time)
        except UnknownLease:
            return decision()
        return decision(facts=[("leases", leases)])
    if topic == "kp.digest":
        mirror = merge_digest(facts.get("mirror", {}), str(inp.message.src), body)
        return decision(facts=[("mirror", mirror)])
    if topic == "events.tick":
        return _scan(facts, body["tick"])
    return decision()


def _bootstrap(facts: dict[str, Any], inp: AgentInput) -> dict[str, Any]:
    """Compose the controller: the roster and its specs, one spawn per agent
    in roster order, and a lease for each."""
    config = facts.get("config", {})
    roster = plan_roster(config)
    specs = build_specs(config, roster, facts.get("topology") or {}, str(inp.message.dst))
    leases = _register(facts.get("leases", {}), specs, roster, inp.message.sim_time)
    return decision(
        plan=_spawns(specs, roster, {}),
        facts=[("specs", specs), ("leases", leases)],
    )


def _scan(facts: dict[str, Any], tick: int) -> dict[str, Any]:
    """Respawn every expired agent, its mirror slot restored, and lease it
    again."""
    leases, dead = table_expire(facts.get("leases", {}), tick)
    if not dead:
        return decision()
    specs = facts.get("specs", {})
    return decision(
        plan=_spawns(specs, dead, facts.get("mirror", {})),
        facts=[("leases", _register(leases, specs, dead, tick))],
    )
