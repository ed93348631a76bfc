"""Decision hierarchy mechanics: policies flow down, nothing flows up, and
every agent's digests merge into one view.

Policy issue and the merge are checked where the running system does them:
the specs the orchestrator builds and the orchestrator's kp.digest fold into
its mirror.
"""
from random import Random

import pytest

from masdn import AgentSystem, MonolithicController
from masdn.config import parse_config
from masdn.core import AgentId, FunctionKind, DecisionLevel, Message, MessageKind
from masdn.hierarchy import InvalidDirection, Policy, PolicyRule, UnsharedPolicy, shared_policy
from masdn.netsim import SchemaError
from masdn.orchestrator import build_specs, orchestrator_decide
from masdn.runtime import AgentInput

from helpers import VIEW, build, gen_scenario, gen_topology

CAP_DOC = {
    "policy_id": "p-cap",
    "issuer_level": "network",
    "scope": ["forwarding"],
    "rules": [
        {
            "action_kind": "install-rule",
            "target_class": "switch",
            "effect": "deny",
            "max_per_target": 4,
        }
    ],
}


class TestPolicy:
    def test_round_trips_through_dict(self):
        assert Policy.from_dict(CAP_DOC) == Policy(
            policy_id="p-cap",
            issuer_level=DecisionLevel.NETWORK,
            scope=frozenset({FunctionKind.FORWARDING}),
            rules=(PolicyRule("deny", "install-rule", "switch", 4),),
        )

    def test_rejects_sideways_or_upward_issue(self):
        with pytest.raises(InvalidDirection):
            Policy(
                policy_id="bad",
                issuer_level=DecisionLevel.FUNCTION,
                scope=frozenset({FunctionKind.FORWARDING}),
                rules=(),
            )

    def test_push_reaches_only_scoped_kinds(self):
        specs = spec_facts([CAP_DOC], ["forwarding#0", "forwarding#1", "routing#0"])
        assert {a: f.get("policies") for a, f in specs.items()} == {
            "forwarding#0": [CAP_DOC],
            "forwarding#1": [CAP_DOC],
            "routing#0": None,
        }

    def test_a_config_refuses_a_policy_with_an_empty_scope(self):
        # it would reach nobody, and a run's policy is scoped to forwarding
        doc = {"policy_id": "noop", "issuer_level": "network", "scope": [], "rules": []}
        with pytest.raises(SchemaError) as refused:
            spec_facts([doc], ["forwarding#0"])
        assert isinstance(refused.value.__cause__, UnsharedPolicy)

    def test_a_config_refuses_a_policy_issued_sideways(self):
        doc = dict(CAP_DOC, issuer_level="function")
        with pytest.raises(SchemaError) as refused:
            spec_facts([doc], ["forwarding#0"])
        assert isinstance(refused.value.__cause__, InvalidDirection)

    def test_wildcard_rule_matches_everything(self):
        rule = PolicyRule(action_kind="*", target_class="*", effect="deny")
        assert rule.matches("install-rule", "switch")
        assert rule.matches("deliver-event", "agent")


class TestOnePolicyLanguage:
    """A run takes only the policies that both controllers enforce alike:
    scoped to forwarding alone, with every unbounded deny on install-rule."""

    # the monolith applied no policy outside forwarding: the session agent's
    # plans all became violations while the monolith set the sessions up
    DENY_CLASSIFY = {"policy_id": "no-classify", "issuer_level": "network",
                     "scope": ["session"], "rules": [{"effect": "deny", "action_kind": "classify"}]}
    # the monolith clears a superseded path without validating the removals
    DENY_REMOVE = {"policy_id": "no-remove", "issuer_level": "network",
                   "scope": ["forwarding"], "rules": [{"effect": "deny", "action_kind": "remove-rule"}]}

    @staticmethod
    def refused_by_both(doc, topo, scen):
        for controller in (AgentSystem, MonolithicController):
            with pytest.raises(SchemaError) as refused:
                controller(topo, scen, {"policies": [doc]})
            assert isinstance(refused.value.__cause__, UnsharedPolicy)

    def test_a_policy_scoped_beyond_forwarding_is_refused(self):
        # diverged on seeds 0-4 of this build
        rng = Random(0)
        tdoc = gen_topology(rng, 6)
        self.refused_by_both(self.DENY_CLASSIFY, *build(tdoc, gen_scenario(rng, tdoc, 10, 0, 40)))

    def test_an_unbounded_deny_of_anything_but_install_rule_is_refused(self):
        # diverged on seeds 2, 4 and 5 of this build
        rng = Random(2)
        tdoc = gen_topology(rng, 8)
        scen = gen_scenario(rng, tdoc, 8, 2, 60)
        self.refused_by_both(self.DENY_REMOVE, *build(tdoc, scen))
        wildcard = dict(self.DENY_REMOVE, rules=[{"effect": "deny", "action_kind": "*"}])
        self.refused_by_both(wildcard, *build(tdoc, scen))

    def test_install_denies_and_rule_caps_are_shared(self):
        deny = dict(CAP_DOC, rules=[{"effect": "deny", "action_kind": "install-rule"}])
        capped_all = dict(CAP_DOC, rules=[dict(CAP_DOC["rules"][0], action_kind="*")])
        for doc in (CAP_DOC, deny, capped_all):
            assert shared_policy(doc) == Policy.from_dict(doc)


def spec_facts(policies, roster):
    """Each roster agent's initial facts, as the orchestrator issues them."""
    specs = build_specs(parse_config({"policies": policies}, None), roster, VIEW)
    return {agent: spec["initial_facts"] for agent, spec in specs.items()}


def digest(agent, **keys):
    """A kp.digest event as the orchestrator receives it."""
    msg = Message(1, AgentId.parse(agent), AgentId(FunctionKind.ORCHESTRATION, 0),
                  MessageKind.EVENT, b"")
    body = {k: {"value": v, "version": n} for k, (v, n) in keys.items()}
    return AgentInput(msg, {"topic": "kp.digest", "body": body})


def merge(*digests):
    # each sender's spec holds none of its digest keys
    facts = {"specs": {str(inp.message.src): {"initial_facts": {}} for inp in digests}}
    for inp in digests:
        facts.update(orchestrator_decide(facts, inp)["facts"])
    return facts.get("mirror", {})


class TestKnowledgeView:
    def test_empty_contributions_give_empty_view(self):
        assert merge() == {}
        assert merge(digest("qos#0")) == {"qos#0": {}}

    def test_disjoint_views_union(self):
        merged = merge(digest("qos#0", load=(0.5, 10)), digest("routing#0", load=(0.9, 11)))
        assert set(merged) == {"qos#0", "routing#0"}

    def test_latest_update_wins_conflicts(self):
        merged = merge(digest("qos#0", load=("new", 8)), digest("qos#0", load=("old", 5)))
        assert merged["qos#0"]["load"]["value"] == "new"

    def test_aggregation_is_idempotent(self):
        a = digest("qos#0", load=(1, 2), temp=(3, 4))
        assert merge(a, a) == merge(a)
