"""Whole-system assembly: simulator + fabric + agents, stepped in lockstep.

The control plane is instantaneous relative to the data plane: within a
tick the fabric runs to quiescence, so every conversation triggered by an
event finishes before the next tick's packets move. Per tick the bridge
sends three batches, each run to quiescence. The first publishes the
tick's link failures and packet-ins. The second reports the agents that
died since the last tick (below). The third hands, on every
REFRESH_EVERY-th tick, one events.tick straight to the session agent, which
runs the periodic reroute sweep on it as the reference controller does,
and then in a proactive run publishes the declared flows that start next
tick (events.flow, one per flow in schedule order). So what a link failure
or packet-in starts is over before the sweep, and reroute sweeps run before
new-flow setups, mirroring the reference controller's processing order. A
declared flow is a data-plane event like a packet-in: the session agent
alone subscribes to it, and no spec carries the schedule. No other agent
reads a tick, so no other is handed one, and no view needs a refresh, as
links only go down and every link event reaches every view. The per-tick
link stats go to stats.csv, not onto the bus: no agent reads them.

The host is the failure detector, and inside one process a perfect one. An
agent dies only through AgentHost.kill_agent, after a tick's pump. At the
next tick the bridge sends the orchestrator one agent.down event per
victim, in AgentId order: it has no body, and its frame's src is the dead
agent, as a digest's src names whose it is. The orchestrator respawns the
agent from its spec and mirror slot. The notices go out after the tick's
data-plane batch, so the frames that batch sends a victim are parked and
replayed to its replacement, and before the session's tick, so a replaced
session agent sweeps on time. A kill after tick t is thus respawned at tick
t + 1, and a kill is scheduled only up to the run's second-to-last tick
(config.parse_config).

The host-control endpoint gives the orchestrator its lifecycle lever: a
spawn-agent request (re)creates an agent from its spec and seeds it with
restored knowledge. The spawned agent is sent nothing: the brokers' specs
list it. An agent leaves only when a scheduled kill removes it; a spawn of
a live agent raises DuplicateAgent, as only an exit leads to a respawn.
The switch.* prefix endpoint is the southbound interface; rules installed
through it take effect next tick.

One small service runs outside any agent because something must survive
when agents die: the digest pump, which sends the changed digest facts of
every live agent straight to the orchestrator's mirror after each tick, in
one hop that crosses no broker, so the mirror stays exact through a broker
outage and a kill (which lands after the pump) leaves an exact restore (the
rest of a replacement's facts, its policies included, come from its spec).
The pump visits only the agents the host saw write facts since it last ran
(a spawn, an ingest write or a decision's facts), so a tick in which
nothing is written costs it nothing. It visits them in AgentId order, so
digest message ids do not depend on the order in which agents wrote. A
digest goes out from the agent itself, so its body is the {key: doc} map
alone and the frame's src says whose it is. A dict-valued key (a session or
rule table, the topology view) exported before travels as a delta against
the version last exported for it, down to the leaves,

    {"version", "base", "set": [[path, value], ...], "drop": [path, ...]}

carrying only the leaves that changed and the paths of the dict keys that
went; a path is the list of keys from the value's top, list indices
included (runtime.digest_delta). A key's first export, and any value
that is not a dict, travels whole, as {"version", "value"}. The pump
keeps, per agent, the version and value it last exported of each key,
across respawns: a kill lands after the pump and a dead agent writes
nothing, so what the pump last exported is exactly the mirror slot a
replacement is restored from, and the replacement's first digest is an
ordinary delta against it.

The spec is the base: at a spawn the pump's record of the agent starts
with the spec value, as version 1, of every digest key the spec holds
(the genesis view of routing and session), so it ships that key only once
it moves, and then as a delta on the spec, which the orchestrator reads
from the agent's own spec entry (runtime.merge_digest). No spec fact comes
back over the wire, a mirror slot holds only keys that moved past the
spec, and so does a restore.
"""

from __future__ import annotations

from typing import Any, Callable

from .config import RunConfig, parse_config
from .core import AgentId, FunctionKind, Message, MessageKind
from .logic import REFRESH_EVERY, topology_view
from .netsim import LinkDown, PacketIn, Scenario, Simulator, TickStats, Topology
from .orchestrator import home_broker
from .pps import decode_body, encode_body
from .runtime import SUPERVISOR, AgentHost, AgentSpec, digest_delta
from .bus import Bus

_ADAPTER = FunctionKind.SWITCH_ADAPTER.value


class AgentSystem:
    """One multi-agent controller run over one simulated network. The config
    is a RunConfig, or a doc (None for no keys) parsed here."""

    def __init__(
        self,
        topo: Topology,
        scenario: Scenario,
        config: RunConfig | dict[str, Any] | None = None,
        log_sink: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        if not isinstance(config, RunConfig):
            config = parse_config({} if config is None else config, scenario.duration)
        self.topo = topo
        self.scenario = scenario
        self.config = config
        self.host = AgentHost(log_sink=log_sink)
        self.bus = Bus(self.host, config.profile)
        self.sim = Simulator(topo, scenario)
        # AgentId.parse's memoised id, so the bus's and the host's lookups of
        # the orchestrator hit on identity
        self.orch = AgentId.parse(SUPERVISOR)
        self.session = AgentId(FunctionKind.SESSION, 0)  # handed the refresh tick
        self.stats: list[TickStats] = []
        # per agent, the (version, value) of each digest key last exported;
        # kept across a respawn, as it equals the mirror slot restored
        self._exported: dict[str, dict[str, tuple[int, Any]]] = {}
        # every spawn the control endpoint performs, (agent, tick); replacements
        # show up as a second entry for the same agent
        self.spawn_log: list[tuple[str, int]] = []
        # in a proactive run, tick -> the declared flows announced on it, the
        # tick before each (jittered) start, as packet-in shaped bodies
        self._announced: dict[int, list[dict[str, Any]]] = {}
        if config.proactive:
            for f in self.sim.schedule():
                at = f["start_tick"] - 1
                self._announced.setdefault(at, []).append(
                    {"src": f["src"], "dst": f["dst"], "at": at, "size": f["size"],
                     "gap": f["gap"], "hint": f["class"]}
                )

        self.bus.bind_endpoint("host.control", self._control)
        self.bus.bind_prefix("switch.", self._switch)
        self.bus.topic_router = self._route_topic

    # -- endpoints ------------------------------------------------------------

    def _route_topic(self, msg: Message) -> AgentId | None:
        return AgentId.parse(home_broker(self.config.event_strategy, str(msg.src)))

    def _control(self, msg: Message) -> list[Message]:
        body = decode_body(msg.payload)
        if not isinstance(body, dict):
            return []
        if body.get("op") == "spawn-agent":
            return self._spawn(body)
        return []

    def _spawn(self, body: dict[str, Any]) -> list[Message]:
        doc = body["spec"]
        agent = AgentId.parse(doc["agent"])
        self.spawn_log.append((str(agent), self.host.now))
        spec = AgentSpec(
            agent=agent,
            cognition=doc["cognition"],
            initial_facts=doc.get("initial_facts", {}),
        )
        spawned = self.host.spawn_agent(spec)
        # the pump's record starts at the spec: a digest key the spec holds
        # is exported only once it moves past version 1, as a delta on it;
        # a replacement's record already holds what the restore brings back
        exported = self._exported.setdefault(str(agent), {})
        for key in spawned.impl.digest_keys:
            if key in spec.initial_facts:
                exported.setdefault(key, (1, spawned.facts.get(key)))
        restore = body.get("restore") or {}
        if restore:
            spawned.facts.restore(restore)
        return []

    def _switch(self, msg: Message) -> list[Message]:
        body = decode_body(msg.payload)
        if not isinstance(body, dict):
            return []
        switch = str(msg.dst)[len("switch.") :]
        rule = body.get("rule", {})
        if body.get("op") == "install-rule":
            self.sim.install_rule(switch, rule, now=self.host.now)
        elif body.get("op") == "remove-rule":
            match = rule.get("match", {})
            self.sim.remove_rule(switch, match.get("src"), match.get("dst"), rule.get("priority"))
        return []

    # -- lifecycle ------------------------------------------------------------

    def genesis(self) -> None:
        """Spawn the orchestrator and hand it the genesis bootstrap, whose one
        decision composes and spawns the whole controller."""
        facts = {
            "config": self.config.doc,
            "topology": topology_view(self.topo, self.sim.links_doc()),
            "endpoints": ["host.control"],
        }
        self.host.spawn_agent(
            AgentSpec(
                agent=self.orch,
                cognition=FunctionKind.ORCHESTRATION.value,
                initial_facts=facts,
            )
        )
        self.bus.send(
            self.host.factory.new_message(
                src=self.orch,
                dst=self.orch,
                kind=MessageKind.EVENT,
                payload=encode_body({"topic": "control.bootstrap", "body": None}),
            )
        )
        self.bus.run_to_quiescence()

    # -- stepping ------------------------------------------------------------

    def tick(self, t: int) -> None:
        self.host.now = t
        events = self.sim.step(t)
        pubs: list[Message] = []
        for ev in events:
            if isinstance(ev, LinkDown):
                pubs.append(self._publish(0, "events.link", ev.to_doc()))
            elif isinstance(ev, PacketIn):
                idx = self.topo.switches.index(ev.switch)
                pubs.append(self._publish(idx, "events.packet_in", ev.to_doc()))
            else:
                self.stats.append(ev)
        self.bus.send(pubs)
        self.bus.run_to_quiescence()
        self._report_exits()
        if t % REFRESH_EVERY == 0:
            self.bus.send(self._publish(0, "events.tick", None, to=self.session))
        self.bus.send([self._publish(0, "events.flow", f) for f in self._announced.get(t, ())])
        self.bus.run_to_quiescence()
        self._pump_digests()
        # fault injection: the agents killed after this tick completes
        for target in self.config.kills.get(t, ()):
            aid = AgentId.parse(target)
            if aid in self.host.agents:
                self.host.kill_agent(aid)

    def _publish(self, adapter: int, topic: str, body: Any, to: AgentId | None = None) -> Message:
        """An event from a switch adapter: published, or sent straight to `to`."""
        return self.host.factory.new_message(
            src=AgentId.parse(f"{_ADAPTER}#{adapter}"),
            dst=topic if to is None else to,
            kind=MessageKind.EVENT,
            payload=encode_body({"topic": topic, "body": body}),
        )

    def _report_exits(self) -> None:
        """Tell the orchestrator of every agent killed since the last report:
        one body-less agent.down from each victim, in AgentId order."""
        down = sorted(self.host.exits)
        if not down:
            return
        self.host.exits.clear()
        self.bus.send(
            self.host.factory.new_message(
                src=victim,
                dst=self.orch,
                kind=MessageKind.EVENT,
                payload=encode_body({"topic": "agent.down"}),
            )
            for victim in down
        )
        self.bus.run_to_quiescence()

    def _pump_digests(self) -> None:
        """Send the changed digest facts of every live agent that had a facts
        write since the last pump (AgentHost.facts_written) straight to the
        orchestrator, in AgentId order, each as the {key: doc} map alone from
        the agent itself (the frame's src names it): a dict-valued key as a
        delta of the leaves that changed since the version last exported
        for it, or since its spec value (runtime.digest_delta), a first
        export of a key no spec holds or any other value whole.
        The set is taken before the digests go out, so what their delivery
        writes is shipped by the next pump. Every agent in it is live: a
        kill lands after the pump, and a dead agent writes nothing."""
        written = sorted(self.host.facts_written)
        self.host.facts_written.clear()
        pubs: list[Message] = []
        for agent_id in written:
            agent = self.host.agents[agent_id]
            exported = self._exported.setdefault(str(agent_id), {})
            changed: dict[str, Any] = {}
            for key in agent.impl.digest_keys:
                last = exported.get(key)
                if agent.facts.version(key) > (last[0] if last else 0):
                    doc = agent.facts.export([key])[key]
                    changed[key] = digest_delta(doc, last)
                    exported[key] = (doc["version"], doc["value"])
            if changed:
                pubs.append(
                    self.host.factory.new_message(
                        src=agent_id,
                        dst=self.orch,
                        kind=MessageKind.EVENT,
                        payload=encode_body({"topic": "kp.digest", "body": changed}),
                    )
                )
        if pubs:
            self.bus.send(pubs)
            self.bus.run_to_quiescence()

    # -- whole runs ------------------------------------------------------------

    def run(self) -> dict[str, Any]:
        self.genesis()
        for t in range(self.scenario.duration):
            self.tick(t)
        return self.outcome()

    def outcome(self) -> dict[str, Any]:
        session = self.host.agents.get(self.session)
        ledger = session.facts.get("sessions", {}) if session else {}
        return {
            "mode": "agents",
            "seed": self.scenario.seed,
            "tables": self.sim.table_docs(self.scenario.duration),
            "ledger": ledger,
            "metrics": self.sim.metrics(),
        }
