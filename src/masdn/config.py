"""The run config: every key, default and refusal, in one place.

parse_config checks a config doc once, against the length of its run, and
gives a frozen RunConfig with every default filled in, which the CLI,
AgentSystem and MonolithicController each take, or build where they are
entered: all three refuse the same configs, with SchemaError. No other
module reads a config key or knows a default. An unknown key is refused, so
a misspelt or retired key never runs under a default (README lists them).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from .core import AgentId, FunctionKind, MasdnError
from .hierarchy import Policy, shared_policy
from .logic import DEFAULT_GAP_THRESHOLD, DEFAULT_QOS_CAP_PERMILLE, DEFAULT_SIZE_THRESHOLD
from .logic import chain_closure
from .netsim import SchemaError
from .pps import DEFAULT_PROFILES, StackProfile
from .runtime import UnknownCognition, cognition

BROKER_COUNT = {"centralized": 1, "distributed": 3, "hybrid": 5}
MODES = ("agents", "monolithic", "compare")
_PROFILE_IDS = [p.profile_id for p in DEFAULT_PROFILES]
_THRESHOLDS = {"size": DEFAULT_SIZE_THRESHOLD, "gap": DEFAULT_GAP_THRESHOLD}
# each key's default and JSON type: the run keys, which the doc form holds
_RUN_KEYS: dict[str, tuple[Any, type]] = {
    "chain": ([FunctionKind.SESSION.value], list),
    "event_strategy": ("centralized", str),
    "proactive": (False, bool),
    "profile": (_PROFILE_IDS[0], str),
    "thresholds": (_THRESHOLDS, dict),
    "qos_cap_permille": (DEFAULT_QOS_CAP_PERMILLE, int),
    "policies": ([], list),
    "kills": ({}, dict),
}
# the CLI's keys: its seed and mode, and the documents it loads
_CLI_KEYS: dict[str, tuple[Any, type]] = {"seed": (None, int), "mode": ("compare", str)}
KEYS = (*_RUN_KEYS, *_CLI_KEYS, "topology", "scenario")
_JSON = {bool: "a boolean", int: "an integer", str: "a string", list: "a list", dict: "an object"}
# a kill tick as JSON writes an integer: no sign but a minus, no leading zero
_TICK = re.compile(r"0|-?[1-9][0-9]*")


@dataclass(frozen=True)
class RunConfig:
    """A run's config, checked and parsed, and its doc form (run keys only, defaults in)."""

    doc: dict[str, Any]
    chain: tuple[FunctionKind, ...]
    event_strategy: str
    proactive: bool
    profile: StackProfile
    thresholds: dict[str, int | float]  # "size" and "gap"
    qos_cap_permille: int
    policies: tuple[tuple[dict[str, Any], Policy], ...]  # each doc and its parse
    kills: dict[int, tuple[str, ...]]  # tick -> the agents killed after it
    seed: int | None
    mode: str


def broker_ids(strategy: str) -> list[str]:
    kind = FunctionKind.EVENT_DISTRIBUTION
    return [str(AgentId(kind, i)) for i in range(BROKER_COUNT[strategy])]


def plan_roster(config: RunConfig) -> list[str]:
    """Every agent the run needs, as sorted id strings (orchestrator
    excluded): the chain's closure, registry, knowledge plane and brokers."""
    kinds = {*chain_closure(config.chain), FunctionKind.REGISTRY, FunctionKind.KNOWLEDGE_PLANE}
    roster = [str(AgentId(kind, 0)) for kind in kinds]
    roster.extend(broker_ids(config.event_strategy))
    return sorted(roster)


def cli_documents(config: Any) -> tuple[Any, Any]:
    """A CLI config's topology and scenario entries: each an object or a path."""
    if not isinstance(config, dict):
        raise SchemaError("config must be a JSON object")
    return config.get("topology"), config.get("scenario")


def parse_config(config: Any, duration: int | None) -> RunConfig:
    """Check a config doc and fill in its defaults. A kill after tick t is
    respawned at t + 1, so t runs 0 .. duration - 2. duration is None only at
    bootstrap, which rebuilds a doc whose kills were checked against its run."""
    if not isinstance(config, dict):
        raise SchemaError("config must be a JSON object")
    if "profiles" in config:
        raise SchemaError("config key 'profiles' is gone: name the one stack profile with 'profile'")
    unknown = sorted(set(config) - set(KEYS))
    if unknown:
        raise SchemaError(f"unknown config keys {unknown}; expected some of {sorted(KEYS)}")
    got: dict[str, Any] = {}
    for key, (default, kind) in {**_RUN_KEYS, **_CLI_KEYS}.items():
        value = got[key] = config.get(key, default)
        wrong = not isinstance(value, kind) or kind is not bool and isinstance(value, bool)
        if wrong and value is not default:  # a default is of its type, bar the seed's None
            raise SchemaError(f"config {key} must be {_JSON[kind]}, got {value!r}")
    if FunctionKind.SESSION.value not in got["chain"]:
        raise SchemaError(f"config chain {got['chain']} does not hold 'session'")
    for name in got["chain"]:
        try:
            cognition(name)
        except (TypeError, UnknownCognition):
            raise SchemaError(f"config chain names {name!r}, which has no cognition") from None
        if name in (FunctionKind.ORCHESTRATION.value, FunctionKind.EVENT_DISTRIBUTION.value):
            raise SchemaError(f"config chain names {name!r}, which is composed apart")
    for key, known in (("event_strategy", list(BROKER_COUNT)), ("profile", _PROFILE_IDS),
                       ("mode", list(MODES))):
        if got[key] not in known:
            raise SchemaError(f"unknown {key} {got[key]!r}; expected one of {known}")
    thresholds = {**_THRESHOLDS, **got["thresholds"]}
    for name, value in thresholds.items():
        if name not in _THRESHOLDS:
            raise SchemaError(f"config thresholds names {name!r}; expected 'size' or 'gap'")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"config threshold {name!r} must be a number, got {value!r}")
    policies = []
    for entry in got["policies"]:
        try:
            policies.append((entry, shared_policy(entry)))
        except (AttributeError, KeyError, TypeError, ValueError, MasdnError) as exc:
            raise SchemaError(f"bad config policies entry {entry!r}: {exc!r}") from exc
    kills: dict[int, tuple[str, ...]] = {}
    for tick, agents in got["kills"].items():
        if not (isinstance(tick, str) and _TICK.fullmatch(tick) or type(tick) is int):
            raise SchemaError(f"config kills tick {tick!r} is not an integer in decimal")
        if int(tick) in kills:
            raise SchemaError(f"config kills names tick {tick} twice")
        if not isinstance(agents, list):
            raise SchemaError(f"config kills at tick {tick}: {agents!r} is not a list")
        if duration is not None and not 0 <= int(tick) <= duration - 2:
            raise SchemaError(f"config kills at tick {tick}: outside 0 .. {duration - 2}, "
                              f"the ticks a {duration}-tick run can respawn after")
        kills[int(tick)] = tuple(agents)
    doc = {key: got[key] for key in _RUN_KEYS}  # fresh containers, no default shared
    doc.update(chain=list(doc["chain"]), thresholds=thresholds, policies=list(doc["policies"]),
               kills={str(t): list(a) for t, a in kills.items()})
    parsed = RunConfig(doc=doc, **{
        **got, "chain": tuple(map(FunctionKind, got["chain"])), "thresholds": thresholds,
        "profile": DEFAULT_PROFILES[_PROFILE_IDS.index(got["profile"])],
        "policies": tuple(policies), "kills": kills,
    })
    if kills and duration is not None:  # a rebuilt doc's kills were checked before
        roster = plan_roster(parsed)
        for tick, agents in kills.items():
            outside = [a for a in agents if a not in roster]
            if outside:
                raise SchemaError(f"config kills at tick {tick}: {outside} not in the roster")
    return parsed
