"""Single-agent kills are transparent under every event strategy.

Criterion 4 kills every agent under the centralized strategy only. These
runs kill the agents whose frames are in flight when a flow starts, the
session agent, the forwarding agent and every broker, under all three
strategies, and hold the agents to the monolith's whole outcome: tables and
session ledger. Before the fabric parked frames for a dead agent, a frame
sent to it was dropped, and the switch then suppressed the lost packet-in
for netsim.SUPPRESS_TICKS: 42 of these 75 runs ended with tables that
differ from the monolith's. The ledger is compared too because a session
must be dated by the tick its packet-in happened at: while the session
agent dated it by delivery, 24 of the 75 runs, all broker kills whose
replacement replayed a parked packet-in, ended with other created_at values.

Every run also checks that no live agent is respawned after the kill.
While agents got their beat ticks through their home broker, a dead broker
silenced the agents homed on it, and the orchestrator replaced the live
brokers too whose leases lapsed meanwhile. The same-tick runs kill the
session agent together with its home broker: then, the broker's expiry
re-registered every lease, and the session agent was respawned only after
a second detection window, past the deadline.

The rule-cap runs check that a respawned forwarding agent gets its rule cap
back from its spec: the requests replayed to it are validated against the
cap like any other.

The lifecycle-only runs compose topology, monitoring, fault and discovery
through the chain, which alone puts them in a roster, and kill each.

The spec-base runs kill the two agents that keep the live view, routing
and session, whose genesis view the digest pump never ships: after a link
failure their view reaches the mirror as a delta on the spec's and comes
back in the restore; before any failure the restore holds no view and the
replacement keeps its spec's.
"""
import random

import pytest

from masdn import AgentSystem, MonolithicController
from masdn.config import broker_ids
from masdn.logic import HEARTBEAT_INTERVAL
from masdn.oracle import compare
from masdn.orchestrator import home_broker

from helpers import STRATEGIES, build, gen_scenario, gen_topology

KILL_TICK = 17
DEADLINE = 3 * HEARTBEAT_INTERVAL + 1

# the kinds that run the lifecycle only, composed when the chain names them
LIFECYCLE_ONLY = ("autoconf-discovery", "fault", "monitoring", "topology")

RULE_CAP = {
    "policy_id": "switch-rule-cap",
    "issuer_level": "network",
    "scope": ["forwarding"],
    "rules": [{"action_kind": "install-rule", "target_class": "switch",
               "effect": "deny", "max_per_target": 3}],
}


def _check_kill(tdoc, sdoc, config, *victims, restores=None):
    """Problems of one run with the victims killed at KILL_TICK; empty when
    none. A restores dict, when given, gets each respawn's restore, by agent."""
    topo, scen = build(tdoc, sdoc)
    mono = MonolithicController(topo, scen, dict(config)).run()
    topo, scen = build(tdoc, sdoc)
    system = AgentSystem(topo, scen, {**config, "kills": {KILL_TICK: list(victims)}})
    if restores is not None:
        spawn = system._spawn

        def spy(body):
            if system.host.now > KILL_TICK:
                restores[body["spec"]["agent"]] = body["restore"]
            return spawn(body)

        system._spawn = spy
    agents = system.run()
    problems = []
    diff = compare(agents, mono)
    if diff:
        problems.append(f"{' and '.join(sorted(diff))} differ from the monolith's")
    for victim in victims:
        respawns = [t for a, t in system.spawn_log if a == victim and t > KILL_TICK]
        if not respawns or respawns[0] - KILL_TICK > DEADLINE:
            problems.append(f"{victim} respawned at {respawns}")
    # a live agent is never declared lost: its ticks come straight from the
    # bridge, so no dead broker silences it
    bystanders = [(a, t) for a, t in system.spawn_log if t > KILL_TICK and a not in victims]
    if bystanders:
        problems.append(f"live agents respawned: {bystanders}")
    if system.bus.dead_letters:
        problems.append(f"{len(system.bus.dead_letters)} dead letters")
    return problems


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_killing_a_broker_or_a_conversation_agent_is_transparent(strategy):
    victims = ["session#0", "forwarding#0", *broker_ids(strategy)]
    failures = {}
    for seed in (1, 4, 7, 8, 10):
        rng = random.Random(seed)
        tdoc = gen_topology(rng, 8)
        sdoc = gen_scenario(rng, tdoc, 8, 2, 60, long_lived=True)
        for victim in victims:
            problems = _check_kill(tdoc, sdoc, {"event_strategy": strategy}, victim)
            if problems:
                failures[(seed, victim)] = problems
    assert failures == {}


@pytest.mark.parametrize("strategy", ["distributed", "hybrid"])
def test_a_broker_and_the_session_agent_killed_on_one_tick_are_both_respawned_in_time(strategy):
    # the session agent's home broker dies with it; the session agent is
    # still detected within the deadline, as its silence is its own
    broker = home_broker(strategy, "session#0")
    failures = {}
    for seed in (1, 4, 7):
        rng = random.Random(seed)
        tdoc = gen_topology(rng, 8)
        sdoc = gen_scenario(rng, tdoc, 8, 2, 60, long_lived=True)
        problems = _check_kill(tdoc, sdoc, {"event_strategy": strategy}, broker, "session#0")
        if problems:
            failures[seed] = problems
    assert failures == {}


@pytest.mark.parametrize("strategy", ["centralized", "hybrid"])
def test_a_respawned_forwarding_agent_keeps_its_rule_cap(strategy):
    config = {"event_strategy": strategy, "policies": [RULE_CAP]}
    failures = {}
    for seed in range(5):
        rng = random.Random(seed)
        tdoc = gen_topology(rng, 6)
        sdoc = gen_scenario(rng, tdoc, 10, 0, 60, long_lived=True)
        problems = _check_kill(tdoc, sdoc, config, "forwarding#0")
        if problems:
            failures[seed] = problems
    assert failures == {}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_qos_and_forwarding_killed_after_a_link_failure_are_transparent(strategy):
    # neither keeps the live view: a replacement starts from the genesis view
    # in its spec although a link is down, and decides as before, since
    # capacities and the switch list are all the two read of it
    failures = {}
    for seed in (1, 4, 7):
        rng = random.Random(seed)
        tdoc = gen_topology(rng, 8)
        sdoc = gen_scenario(rng, tdoc, 8, 2, 60, long_lived=True)
        sdoc["failures"][0]["at"] = KILL_TICK - 5
        problems = _check_kill(tdoc, sdoc, {"event_strategy": strategy}, "qos#0", "forwarding#0")
        if problems:
            failures[seed] = problems
    assert failures == {}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_view_keepers_are_restored_across_the_spec_base(strategy):
    # routing and session hold the genesis view from their spec, and the
    # pump ships it only once it moves: killed after a link failure, the
    # victim's view comes back from the mirror, where it arrived as a delta
    # on the spec's; killed before any failure, its restore holds no view
    # and the spec's is the one it keeps
    failures = {}
    for seed in (1, 4, 7, 8, 10):
        rng = random.Random(seed)
        tdoc = gen_topology(rng, 8)
        sdoc = gen_scenario(rng, tdoc, 8, 2, 60, long_lived=True)
        for when in ("after-a-failure", "before-any-failure"):
            for i, failure in enumerate(sdoc["failures"]):
                failure["at"] = (KILL_TICK - 5 + 2 * i if when == "after-a-failure"
                                 else KILL_TICK + 5 + 3 * i)
            for victim in ("routing#0", "session#0"):
                restores = {}
                problems = _check_kill(tdoc, sdoc, {"event_strategy": strategy}, victim,
                                       restores=restores)
                view = restores.get(victim, {}).get("topology")
                if when == "after-a-failure" and not (view and view["version"] > 1):
                    problems.append(f"restore holds no moved view: {view}")
                if when == "before-any-failure" and view is not None:
                    problems.append(f"restore holds the spec's view: {view['version']}")
                if problems:
                    failures[(seed, when, victim)] = problems
    assert failures == {}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_lifecycle_only_agents_a_chain_names_are_composed_and_respawned_in_time(strategy):
    # topology, monitoring, fault and discovery join a roster only when the
    # chain names them (a kill outside the roster is refused); composed,
    # they change no decision, and each is replaced like any other agent
    config = {"event_strategy": strategy, "chain": ["session", *LIFECYCLE_ONLY]}
    failures = {}
    for seed in (1, 4):
        rng = random.Random(seed)
        tdoc = gen_topology(rng, 8)
        sdoc = gen_scenario(rng, tdoc, 8, 2, 60, long_lived=True)
        for victims in ([], *([f"{kind}#0"] for kind in LIFECYCLE_ONLY)):
            problems = _check_kill(tdoc, sdoc, config, *victims)
            if problems:
                failures[(seed, *victims)] = problems
    assert failures == {}
