"""The paper's claim under every delivery order a real fabric may give.

The Bus delivers in one global FIFO order, but a deployed fabric promises
FIFO only per (sender, destination) pair. The schedule corpus runs the
agents on the test fabric (helpers.Fabric), which hands out a seeded choice
among the oldest queued frame of each pair, and holds them to the monolith's
decisions exactly, as seeded schedule exploration does in NICE (Canini et
al., NSDI 2012) and PCT (Burckhardt et al., ASPLOS 2010).

The xfail tests pin the divergences that ROADMAP item 1 describes, under
FIFO and under the fabric's schedules. All share one cause: the session
agent runs conversations concurrently and in arrival order, while the oracle
runs them one at a time, in simulator order. They are strict, so the fix
flips them to XPASS and they must then become plain tests.
"""
import random

import pytest

from masdn import AgentSystem
from masdn.oracle import MonolithicController, compare

from helpers import (
    STRATEGIES,
    Fabric,
    build,
    gen_refresh_tick_scenario,
    gen_scenario,
    gen_topology,
)

SCHEDULES = (0, 1, 2)

# the README's rule cap, at 3 rules per switch
CAP = {"policy_id": "cap", "issuer_level": "network", "scope": ["forwarding"], "rules": [
    {"effect": "deny", "action_kind": "install-rule", "target_class": "switch",
     "max_per_target": 3},
]}


def default_corner(seed):
    rng = random.Random(seed)
    tdoc = gen_topology(rng, rng.randint(4, 8))
    return tdoc, gen_scenario(rng, tdoc, rng.randint(3, 10), rng.randint(0, 2), 40)


def two_failures_in_a_tick(seed):
    """Item 1(a): every flow realtime with gap 1, two to four link failures."""
    rng = random.Random(seed)
    tdoc = gen_topology(rng, rng.randint(4, 8))
    sdoc = gen_scenario(rng, tdoc, rng.randint(6, 14), rng.randint(2, 4), 40)
    for flow in sdoc["flows"]:
        flow["class"], flow["gap"] = "realtime", 1
    return tdoc, sdoc


def capped(seed):
    """Item 1(b): eight flows and two link failures on eight switches."""
    rng = random.Random(seed)
    tdoc = gen_topology(rng, 8)
    return tdoc, gen_scenario(rng, tdoc, 8, 2, 60)


def agents_run(topo, scen, config, schedule=None):
    system = AgentSystem(topo, scen, dict(config))
    if schedule is not None:
        Fabric(system.bus, schedule=schedule)
    return system.run()


def assert_decides_as_the_monolith(docs, config, schedule=None):
    topo, scen = build(*docs)
    mono = MonolithicController(topo, scen, dict(config)).run()
    assert compare(agents_run(topo, scen, config, schedule), mono) == {}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_default_corner_decides_as_the_monolith_under_every_schedule(strategy):
    config = {"event_strategy": strategy}
    diverged = []
    for seed in range(60):
        topo, scen = build(*default_corner(seed))
        mono = MonolithicController(topo, scen, dict(config)).run()
        for schedule in SCHEDULES:
            if compare(agents_run(topo, scen, config, schedule), mono) != {}:
                diverged.append((seed, schedule))
    assert diverged == [], f"{strategy}: (scenario seed, schedule seed) diverged: {diverged}"


# -- ROADMAP item 1's open divergences --------------------------------------------------

ITEM_1 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the session agent runs conversations concurrently, "
           "in arrival order; the oracle runs them one at a time",
)


@ITEM_1
def test_two_link_failures_in_one_tick_under_a_tight_qos_cap():
    assert_decides_as_the_monolith(two_failures_in_a_tick(0), {"qos_cap_permille": 150})


@ITEM_1
def test_a_rule_cap_fills_in_the_oracles_order():
    assert_decides_as_the_monolith(capped(9), {"policies": [CAP]})


@ITEM_1
def test_same_tick_packet_ins_are_admitted_in_simulator_order_under_distributed():
    assert_decides_as_the_monolith(
        gen_refresh_tick_scenario(24), {"event_strategy": "distributed", "qos_cap_permille": 200}
    )


@ITEM_1
def test_same_tick_packet_ins_are_admitted_in_simulator_order_under_any_schedule():
    # seed 17 agrees under FIFO; schedule 1 reorders it into a divergence
    assert_decides_as_the_monolith(
        gen_refresh_tick_scenario(17), {"event_strategy": "centralized", "qos_cap_permille": 200},
        schedule=1,
    )


@ITEM_1
def test_a_rule_cap_fills_in_the_oracles_order_under_any_schedule():
    # seed 17 agrees under FIFO; schedule 1 reorders it into a divergence
    assert_decides_as_the_monolith(capped(17), {"policies": [CAP]}, schedule=1)
