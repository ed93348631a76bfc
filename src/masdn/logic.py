"""Control-plane decision logic shared by the agent swarm and the
monolithic reference controller.

Both controllers import these functions rather than reimplementing them, so
a divergence between the two modes points at orchestration or messaging,
never at drifted decision code.

Paths are chosen by latency-weighted shortest path with a lexicographic
tie-break: from the destination's distance field, the next hop from u is
the smallest-named neighbor v with w(u, v) + dist(v) == dist(u). That makes
the chosen path a pure function of the topology, independent of dict
ordering or exploration order.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Mapping

from .core import FunctionKind
from .netsim import Topology, link_key

# traffic classes, checked in this order
BULK = "bulk"
REALTIME = "realtime"
INTERACTIVE = "interactive"

DEFAULT_SIZE_THRESHOLD = 100  # units; larger flows are bulk
DEFAULT_GAP_THRESHOLD = 3  # ticks; tighter spacing is realtime

PRIORITY_BY_CLASS = {REALTIME: 30, INTERACTIVE: 20, BULK: 10}

DEFAULT_QOS_CAP_PERMILLE = 800  # reserve at most 80% of a link for realtime

# the supervision time unit: the acceptance and benchmark respawn deadlines
# are counted in it, and the refresh period is a multiple of it
HEARTBEAT_INTERVAL = 5
# ticks between periodic reroute sweeps, each on the tick the session agent
# is handed
REFRESH_EVERY = 2 * HEARTBEAT_INTERVAL


# -- graphs and paths ---------------------------------------------------------

Graph = dict[str, dict[str, int]]


def build_graph(links: Iterable[Mapping[str, Any]]) -> Graph:
    """Adjacency over up links only; weight is link latency."""
    adj: Graph = {}
    for link in links:
        if not link.get("up", True):
            continue
        a, b, w = link["a"], link["b"], int(link["latency"])
        adj.setdefault(a, {})[b] = w
        adj.setdefault(b, {})[a] = w
    return adj


def topology_view(topo: Topology, links_doc: list[dict[str, Any]]) -> dict[str, Any]:
    """The controller-side picture of the network: switches, host homes,
    and live link state. This is what travels in facts and events."""
    return {
        "switches": list(topo.switches),
        "hosts": dict(topo.hosts),
        "links": links_doc,
    }


def distances_to(graph: Graph, dst: str) -> dict[str, int]:
    dist = {dst: 0}
    heap: list[tuple[int, str]] = [(0, dst)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, d):
            continue
        for nbr, w in graph.get(node, {}).items():
            nd = d + w
            if nd < dist.get(nbr, nd + 1):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return dist


def shortest_path(graph: Graph, src: str, dst: str) -> list[str] | None:
    """Minimum-latency switch path, smallest-name tie-break at every hop."""
    if src == dst:
        return [src]
    dist = distances_to(graph, dst)
    if src not in dist:
        return None
    path = [src]
    here = src
    while here != dst:
        candidates = [
            nbr
            for nbr, w in graph.get(here, {}).items()
            if nbr in dist and w + dist[nbr] == dist[here]
        ]
        here = min(candidates)
        path.append(here)
    return path


def path_link_keys(path: list[str]) -> list[str]:
    return ["|".join(link_key(a, b)) for a, b in zip(path, path[1:])]


# -- traffic classification ----------------------------------------------------


def classify(
    size: int,
    gap: int,
    hint: str | None = None,
    size_threshold: int = DEFAULT_SIZE_THRESHOLD,
    gap_threshold: int = DEFAULT_GAP_THRESHOLD,
) -> str:
    """Threshold classification; an explicit declared class wins. The rules
    apply in order: big flows are bulk even when tightly spaced."""
    if hint in (BULK, REALTIME, INTERACTIVE):
        return hint
    if size > size_threshold:
        return BULK
    if gap < gap_threshold:
        return REALTIME
    return INTERACTIVE


# -- forwarding rules ------------------------------------------------------------


def rules_for_path(
    path: list[str],
    src_host: str,
    dst_host: str,
    priority: int,
    rule_ids: Iterable[str],
) -> list[tuple[str, dict[str, Any]]]:
    """(switch, rule doc) pairs implementing a host-to-host path: every
    switch forwards to its successor, the last one delivers to the host."""
    ids = iter(rule_ids)
    out: list[tuple[str, dict[str, Any]]] = []
    for i, switch in enumerate(path):
        last = i == len(path) - 1
        out.append(
            (
                switch,
                {
                    "rule_id": next(ids),
                    "match": {"src": src_host, "dst": dst_host},
                    "priority": priority,
                    "action": "deliver" if last else "forward",
                    "next_hop": None if last else path[i + 1],
                },
            )
        )
    return out


def rule_slot(rule: Mapping[str, Any]) -> str:
    """The flow-table slot a rule occupies, "src|dst|priority": a switch
    holds one rule per slot, and removal matches on the slot alone."""
    match = rule.get("match", {})
    return f"{match.get('src')}|{match.get('dst')}|{rule.get('priority')}"


def clearing_rules(
    path: list[str], src_host: str, dst_host: str, priority: int
) -> list[tuple[str, dict[str, Any]]]:
    """(switch, rule doc) pairs naming the slots a superseded path occupied.

    Removal matches on (src, dst, priority) only, so the rule ids are blank;
    both controller modes must clear these before installing a replacement
    path or the abandoned rules would linger in the flow tables.
    """
    return rules_for_path(path, src_host, dst_host, priority, [""] * len(path))


# -- QoS admission ----------------------------------------------------------------


def flow_rate_milli(gap: int) -> int:
    """Average demand of a one-unit-per-gap flow, in thousandths of a unit
    per tick (integer so admission arithmetic is exact)."""
    return 1000 // gap


def admit_realtime(
    reservations: Mapping[str, int],
    path_links: list[str],
    rate_milli: int,
    capacities: Mapping[str, int],
    cap_permille: int = DEFAULT_QOS_CAP_PERMILLE,
) -> tuple[bool, dict[str, int]]:
    """Reserve rate on every path link unless any link would exceed the cap.

    Returns (admitted, new reservations); on denial the reservations come
    back unchanged.
    """
    for key in path_links:
        budget = capacities[key] * cap_permille
        if reservations.get(key, 0) + rate_milli > budget:
            return False, dict(reservations)
    out = dict(reservations)
    for key in path_links:
        out[key] = out.get(key, 0) + rate_milli
    return True, out


def release_reservation(
    reservations: Mapping[str, int], path_links: list[str], rate_milli: int
) -> dict[str, int]:
    out = dict(reservations)
    for key in path_links:
        left = out.get(key, 0) - rate_milli
        if left > 0:
            out[key] = left
        else:
            out.pop(key, None)
    return out


def link_capacities(links_doc: Iterable[Mapping[str, Any]]) -> dict[str, int]:
    return {
        "|".join(link_key(l["a"], l["b"])): int(l["capacity"]) for l in links_doc
    }


# -- session bookkeeping -----------------------------------------------------------

# session states
PENDING = "pending"
ACTIVE = "active"
UPDATING = "updating"
UNROUTABLE = "unroutable"


def session_record(
    session_id: str,
    src: str,
    dst: str,
    klass: str,
    created_at: int,
    state: str = PENDING,
    path: list[str] | None = None,
    reason: str | None = None,
    gap: int = 1,
    size: int = 0,
) -> dict[str, Any]:
    return {
        "session_id": session_id,
        "src": src,
        "dst": dst,
        "class": klass,
        "state": state,
        "path": path,
        "reason": reason,
        "created_at": created_at,
        "gap": gap,
        "size": size,
    }


def find_session(sessions: Mapping[str, dict[str, Any]], src: str, dst: str) -> str | None:
    """The session of a host pair: the lowest session id with that src and dst."""
    return min(
        (sid for sid, rec in sessions.items() if rec["src"] == src and rec["dst"] == dst),
        default=None,
    )


def plan_reroutes(
    sessions: Mapping[str, dict[str, Any]], graph: Graph, hosts: Mapping[str, str]
) -> list[tuple[str, list[str] | None]]:
    """Which sessions need new paths after a topology change.

    Returns (session_id, new path or None) in session-id order — the order
    both controller modes must apply them in. Active sessions whose path no
    longer exists get a replacement (or None when disconnected); unroutable
    sessions are retried.
    """
    out: list[tuple[str, list[str] | None]] = []
    for sid in sorted(sessions):
        rec = sessions[sid]
        if rec["state"] == ACTIVE and rec["path"]:
            if _path_intact(rec["path"], graph):
                continue
            out.append((sid, shortest_path(graph, hosts[rec["src"]], hosts[rec["dst"]])))
        elif rec["state"] == UNROUTABLE:
            path = shortest_path(graph, hosts[rec["src"]], hosts[rec["dst"]])
            if path is not None:
                out.append((sid, path))
    return out


def _path_intact(path: list[str], graph: Graph) -> bool:
    return all(b in graph.get(a, {}) for a, b in zip(path, path[1:]))


# -- orchestration helpers ------------------------------------------------------------

# the kinds each kind sends requests to: the session agent asks the others
# and none of them asks anyone
CHAIN_DEPENDENCIES: dict[FunctionKind, frozenset[FunctionKind]] = {
    FunctionKind.SESSION: frozenset(
        {FunctionKind.CLASSIFIER, FunctionKind.ROUTING, FunctionKind.FORWARDING, FunctionKind.QOS}
    ),
}


def chain_closure(requested: Iterable[FunctionKind]) -> list[FunctionKind]:
    """A chain request and the kinds it sends requests to, in stable (name)
    order. No kind asked sends a request itself, so one step closes it."""
    closed = set(requested)
    closed.update(*[CHAIN_DEPENDENCIES.get(kind, ()) for kind in closed])
    return sorted(closed, key=lambda k: k.value)
