"""Service registry: leases with TTL, heartbeat renewal, discovery.

The lease table is plain JSON-shaped data manipulated by pure functions, so
the orchestrator can keep the whole table in its facts. It is the one record
of which agents are live: the orchestrator registers a lease for every agent
it spawns, renews it on each heartbeat, respawns the agents whose leases
expire, and answers discover (table_discover, the one query over it). A
lease's descriptor is the dict orchestrator.lease_descriptor builds from the
agent's spec: agent id, sorted capabilities, endpoint and lease_ttl.

A lease registered or renewed at time t with ttl T is live while
`now < t + T`; at exactly t + T it is expired. Discovery never returns
expired leases, whether or not they have been swept.
"""

from __future__ import annotations

from typing import Any

from .core import FunctionKind, MasdnError

LeaseTable = dict[str, dict[str, Any]]


class UnknownLease(MasdnError):
    pass


# -- pure table operations ---------------------------------------------------


def table_register(table: LeaseTable, doc: dict[str, Any], now: int) -> LeaseTable:
    """Insert or refresh a lease; re-registration replaces the descriptor."""
    out = dict(table)
    out[doc["agent"]] = {
        "descriptor": doc,
        "registered_at": now,
        "expires_at": now + doc["lease_ttl"],
    }
    return out

def table_heartbeat(table: LeaseTable, agent: str, now: int) -> LeaseTable:
    """Extend a live lease by its TTL from now; dead or absent leases raise."""
    entry = table.get(agent)
    if entry is None or entry["expires_at"] <= now:
        raise UnknownLease(agent)
    out = dict(table)
    out[agent] = {**entry, "expires_at": now + entry["descriptor"]["lease_ttl"]}
    return out

def table_expire(table: LeaseTable, now: int) -> tuple[LeaseTable, list[str]]:
    """Sweep dead leases; returns the surviving table and who was dropped."""
    dead = sorted(a for a, e in table.items() if e["expires_at"] <= now)
    if not dead:
        return table, []
    return {a: e for a, e in table.items() if e["expires_at"] > now}, dead

def table_discover(
    table: LeaseTable,
    now: int,
    kind: FunctionKind | None = None,
    capability: str | None = None,
) -> list[dict[str, Any]]:
    """Descriptors of live leases matching every given filter, sorted by
    agent id for reproducible output."""
    hits = []
    for agent, entry in table.items():
        if entry["expires_at"] <= now:
            continue
        doc = entry["descriptor"]
        if kind is not None and not agent.startswith(kind.value + "#"):
            continue
        if capability is not None and capability not in doc["capabilities"]:
            continue
        hits.append(doc)
    hits.sort(key=lambda d: d["agent"])
    return hits
