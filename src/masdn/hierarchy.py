"""Four-level decision structure: policies flow down.

Policies are declarative allow/deny rules with optional numeric bounds,
never executable code, so they can be serialized into agent specs, stored
in agent facts, and evaluated inside plan validation. The orchestrator
writes them, in config order, into the spec of every agent in their scope
(orchestrator.build_specs); the runtime's validation stage enforces them.
A run takes only the policies that the monolithic reference enforces the
same way (shared_policy).

Nothing flows up: no agent hands a problem to the level above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import FunctionKind, DecisionLevel, MasdnError, level_of


class InvalidDirection(MasdnError):
    """Policy issuer is not strictly above every kind in its scope."""


class UnsharedPolicy(MasdnError):
    """A policy the agents and the monolith would not enforce alike."""


@dataclass(frozen=True)
class PolicyRule:
    """One allow/deny clause over plan steps.

    action_kind and target_class accept "*" as a wildcard. A deny rule with
    max_per_target denies only the steps that would push the per-target
    count beyond the bound; a deny rule without a bound denies every
    matching step.
    """

    effect: str  # "allow" | "deny"
    action_kind: str = "*"
    target_class: str = "*"  # "switch" | "agent" | "endpoint" | "*"
    max_per_target: int | None = None

    def __post_init__(self) -> None:
        if self.effect not in ("allow", "deny"):
            raise ValueError(f"effect must be allow or deny, got {self.effect!r}")
        cap = self.max_per_target
        if cap is not None and (not isinstance(cap, int) or isinstance(cap, bool)):
            raise ValueError(f"max_per_target must be an integer, got {cap!r}")

    def matches(self, action_kind: str, target_class: str) -> bool:
        return self.action_kind in ("*", action_kind) and self.target_class in (
            "*",
            target_class,
        )

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> PolicyRule:
        return cls(
            effect=d["effect"],
            action_kind=d.get("action_kind", "*"),
            target_class=d.get("target_class", "*"),
            max_per_target=d.get("max_per_target"),
        )


@dataclass(frozen=True)
class Policy:
    """A constraint issued from above onto a set of function kinds."""

    policy_id: str
    issuer_level: DecisionLevel
    scope: frozenset[FunctionKind]
    rules: tuple[PolicyRule, ...]

    def __post_init__(self) -> None:
        for kind in self.scope:
            if self.issuer_level <= level_of(kind):
                raise InvalidDirection(
                    f"policy {self.policy_id!r}: issuer level {self.issuer_level.name} "
                    f"is not above scoped kind {kind.value} ({level_of(kind).name})"
                )

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> Policy:
        return cls(
            policy_id=d["policy_id"],
            issuer_level=DecisionLevel[d["issuer_level"].upper()],
            scope=frozenset(FunctionKind(k) for k in d["scope"]),
            rules=tuple(PolicyRule.from_dict(r) for r in d.get("rules", [])),
        )


def shared_policy(doc: dict[str, Any]) -> Policy:
    """The policy a run config declares, if both controllers mean it alike.

    The monolith validates only the plans that install a session's rules,
    which forwarding makes, and never the removals that clear a superseded
    path. So a run's policy is scoped to forwarding alone, and a deny rule
    without a bound names install-rule. A bounded deny rule (a rule cap)
    never denies a removal, only counts it, and both controllers count
    removals alike. Raises UnsharedPolicy otherwise.
    """
    policy = Policy.from_dict(doc)
    if policy.scope != {FunctionKind.FORWARDING}:
        raise UnsharedPolicy(f"policy {policy.policy_id!r}: scope must be exactly ['forwarding']")
    for rule in policy.rules:
        if rule.effect == "deny" and rule.max_per_target is None and rule.action_kind != "install-rule":
            raise UnsharedPolicy(
                f"policy {policy.policy_id!r}: a deny rule without max_per_target must name "
                f"action_kind 'install-rule', not {rule.action_kind!r}"
            )
    return policy
