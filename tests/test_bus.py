"""Message fabric: ordering, resolution, dedup, and the run's one stack profile."""
import unittest
from unittest.mock import patch

from masdn.core import AgentId, FunctionKind, MessageKind, PayloadTooLarge
from masdn.bus import Bus
from masdn.pps import DEFAULT_PROFILES, Codec, Reliability, StackProfile, decode, encode, encode_body
from masdn.runtime import AgentHost, AgentSpec, register_cognition

ROUTING = AgentId(FunctionKind.ROUTING, 0)
SESSION = AgentId(FunctionKind.SESSION, 0)

ALO = [p for p in DEFAULT_PROFILES if p.reliability is Reliability.AT_LEAST_ONCE]
AMO = [p for p in DEFAULT_PROFILES if p.reliability is Reliability.AT_MOST_ONCE]


@register_cognition("bus-sink")
def _sink(facts, inp):
    """Record every request body under the "seen" fact; emit nothing."""
    seen = list(facts.get("seen", []))
    if inp.message.kind is MessageKind.REQUEST and isinstance(inp.body, dict):
        seen.append(inp.body.get("n"))
    return {"facts": [["seen", seen]]}


def make_host():
    return AgentHost()


def sink_spec(agent):
    return AgentSpec(agent=agent, cognition="bus-sink")


def request(host, src, dst, body):
    return host.factory.new_message(
        src=src, dst=dst, kind=MessageKind.REQUEST,
        payload=encode_body(body), now=host.now,
    )


class BusTest(unittest.TestCase):
    def setUp(self):
        self.host = make_host()
        self.bus = Bus(self.host, DEFAULT_PROFILES[0])

    def test_an_oversized_frame_is_stopped_at_its_hop(self):
        # the message factory builds a message of any size; the bound is the
        # bus profile's, checked when the hop encodes the frame
        tiny = StackProfile("tiny", Codec.BINARY_LENGTH_PREFIXED, Reliability.AT_LEAST_ONCE, 8)
        host = make_host()
        bus = Bus(host, tiny)
        host.spawn_agent(sink_spec(ROUTING))
        bus.send(request(host, SESSION, ROUTING, {"n": 123456789}))
        with self.assertRaises(PayloadTooLarge):
            bus.run_to_quiescence()
        self.assertIsNone(host.agents[ROUTING].facts.get("seen"))

    def test_fifo_order_is_preserved_per_pair(self):
        self.host.spawn_agent(sink_spec(ROUTING))
        self.bus.send(request(self.host, SESSION, ROUTING, {"n": i}) for i in range(20))
        self.bus.run_to_quiescence()
        agent = self.host.agents[ROUTING]
        self.assertEqual(agent.facts.get("seen"), list(range(20)))

    def test_unknown_agent_goes_to_dead_letters(self):
        self.bus.send(request(self.host, SESSION, ROUTING, {"n": 1}))
        self.bus.run_to_quiescence()
        self.assertEqual(len(self.bus.dead_letters), 1)
        self.assertIn("not live", self.bus.dead_letters[0].reason)

    def test_topic_without_router_is_dead_lettered(self):
        self.bus.send(request(self.host, SESSION, "events.flow", {"n": 1}))
        self.bus.run_to_quiescence()
        self.assertEqual(len(self.bus.dead_letters), 1)
        self.assertIn("unresolvable", self.bus.dead_letters[0].reason)

    def test_topic_router_names_the_broker(self):
        self.host.spawn_agent(sink_spec(ROUTING))
        self.bus.topic_router = lambda msg: ROUTING
        self.bus.send(request(self.host, SESSION, "events.flow", {"n": 7}))
        self.bus.run_to_quiescence()
        self.assertEqual(self.host.agents[ROUTING].facts.get("seen"), [7])

    def test_topic_router_to_dead_broker_is_dead_lettered(self):
        self.bus.topic_router = lambda msg: ROUTING
        self.bus.send(request(self.host, SESSION, "events.flow", {"n": 7}))
        self.bus.run_to_quiescence()
        self.assertEqual(len(self.bus.dead_letters), 1)
        self.assertIn("no live broker", self.bus.dead_letters[0].reason)

    def test_exact_endpoint_beats_prefix(self):
        hits = []
        self.bus.bind_prefix("switch.", lambda m: hits.append(("prefix", m.dst)) or [])
        self.bus.bind_endpoint("switch.s1", lambda m: hits.append(("exact", m.dst)) or [])
        self.bus.send(request(self.host, SESSION, "switch.s1", {}))
        self.bus.send(request(self.host, SESSION, "switch.s2", {}))
        self.bus.run_to_quiescence()
        self.assertEqual(hits, [("exact", "switch.s1"), ("prefix", "switch.s2")])

    def test_endpoint_replies_keep_flowing(self):
        self.host.spawn_agent(sink_spec(ROUTING))
        self.bus.bind_endpoint(
            "echo", lambda m: [request(self.host, SESSION, ROUTING, {"n": 42})]
        )
        self.bus.send(request(self.host, SESSION, "echo", {}))
        hops = self.bus.run_to_quiescence()
        self.assertEqual(self.host.agents[ROUTING].facts.get("seen"), [42])
        self.assertEqual(hops, 2)

    def test_quiescence_guard_trips_on_livelock(self):
        self.bus.bind_endpoint(
            "loop", lambda m: [request(self.host, SESSION, "loop", {})]
        )
        self.bus.send(request(self.host, SESSION, "loop", {}))
        with self.assertRaises(RuntimeError):
            self.bus.run_to_quiescence(max_steps=50)


class ProfileOnTheWire(unittest.TestCase):
    def test_every_hop_uses_the_bus_profile(self):
        # agents, an endpoint and a topic alike: nothing is negotiated per pair
        for profile in DEFAULT_PROFILES:
            with self.subTest(profile=profile.profile_id), \
                    patch("masdn.bus.encode", wraps=encode) as encoded, \
                    patch("masdn.bus.decode", wraps=decode) as decoded:
                host = make_host()
                bus = Bus(host, profile)
                host.spawn_agent(sink_spec(ROUTING))
                bus.bind_endpoint("echo", lambda m: [request(host, ROUTING, SESSION, {"n": 2})])
                bus.topic_router = lambda msg: ROUTING
                bus.send([request(host, SESSION, ROUTING, {"n": 1}),
                          request(host, SESSION, "echo", {}),
                          request(host, SESSION, "events.flow", {"n": 3})])
                bus.run_to_quiescence()
                self.assertEqual(host.agents[ROUTING].facts.get("seen"), [1, 3])
                self.assertEqual(bus.frames, 4)
                self.assertEqual([c.args[1] for c in encoded.call_args_list], [profile] * 4)
                self.assertEqual([c.args[1] for c in decoded.call_args_list], [profile] * 4)

    def test_injected_duplicates_are_suppressed_under_alo(self):
        for profile in ALO:
            with self.subTest(profile=profile.profile_id):
                host = make_host()
                bus = Bus(host, profile)
                host.spawn_agent(sink_spec(ROUTING))
                bus.duplicate_every = 1  # duplicate every single frame
                bus.send(request(host, SESSION, ROUTING, {"n": i}) for i in range(10))
                bus.run_to_quiescence()
                self.assertEqual(host.agents[ROUTING].facts.get("seen"), list(range(10)))
                self.assertEqual(bus.duplicates_injected, 10)
                self.assertEqual(bus.duplicates_suppressed, 10)

    def test_amo_profile_does_not_deduplicate(self):
        for profile in AMO:
            with self.subTest(profile=profile.profile_id):
                host = make_host()
                bus = Bus(host, profile)
                host.spawn_agent(sink_spec(ROUTING))
                bus.duplicate_every = 1
                bus.send(request(host, SESSION, ROUTING, {"n": 1}))
                bus.run_to_quiescence()
                self.assertEqual(host.agents[ROUTING].facts.get("seen"), [1, 1])
                self.assertEqual(bus.duplicates_suppressed, 0)

    def test_every_hop_round_trips_through_the_codec(self):
        host = make_host()
        bus = Bus(host, DEFAULT_PROFILES[0])
        host.spawn_agent(sink_spec(ROUTING))
        payload = {"n": 5, "nested": {"deep": [1, 2, {"x": "y"}]}}
        bus.send(request(host, SESSION, ROUTING, payload))
        bus.run_to_quiescence()
        self.assertEqual(bus.frames, 1)
        self.assertEqual(host.agents[ROUTING].facts.get("seen"), [5])

    def test_duplicate_filter_keeps_one_mark_per_pair_over_a_long_run(self):
        host = make_host()
        bus = Bus(host, DEFAULT_PROFILES[0])
        receivers = [AgentId(FunctionKind.ROUTING, i) for i in range(2)]
        senders = [AgentId(FunctionKind.SESSION, i) for i in range(3)]
        for agent in receivers:
            host.spawn_agent(sink_spec(agent))
        bus.duplicate_every = 3
        last = {}
        for n in range(500):
            for src in senders:
                for dst in receivers:
                    msg = request(host, src, dst, {"n": n})
                    last[(str(src), str(dst))] = msg.msg_id
                    bus.send(msg)
            bus.run_to_quiescence()
        self.assertEqual(bus._delivered, last)  # 6 pairs after 3,000 frames
        self.assertEqual(bus.duplicates_suppressed, bus.duplicates_injected)
        self.assertEqual(bus.duplicates_injected, 1000)
        every_request = [n for n in range(500) for _ in senders]
        for agent in receivers:
            self.assertEqual(host.agents[agent].facts.get("seen"), every_request)


class ParkingForAReplacement(unittest.TestCase):
    """Frames for an agent that was spawned before and is dead now wait at the
    bus and reach its replacement."""

    def setUp(self):
        self.host = make_host()
        self.bus = Bus(self.host, DEFAULT_PROFILES[0])
        self.host.spawn_agent(sink_spec(ROUTING))
        self.bus.send(request(self.host, SESSION, ROUTING, {"n": 0}))
        self.bus.run_to_quiescence()
        self.host.kill_agent(ROUTING)

    def respawn(self):
        self.host.spawn_agent(sink_spec(ROUTING))

    def seen(self):
        return self.host.agents[ROUTING].facts.get("seen")

    def test_parked_frames_arrive_once_and_in_order(self):
        for every in (0, 1, 3):
            with self.subTest(duplicate_every=every):
                self.setUp()
                self.bus.duplicate_every = every
                self.bus.send(request(self.host, SESSION, ROUTING, {"n": n}) for n in range(1, 11))
                self.bus.run_to_quiescence()
                self.assertEqual(self.bus.dead_letters, [])
                self.respawn()
                self.bus.run_to_quiescence()
                self.assertEqual(self.seen(), list(range(1, 11)))
                self.assertEqual(self.bus.duplicates_suppressed, self.bus.duplicates_injected)

    def test_parked_frames_go_ahead_of_frames_sent_after_the_respawn(self):
        self.bus.send(request(self.host, SESSION, ROUTING, {"n": n}) for n in (1, 2))
        self.bus.run_to_quiescence()
        self.respawn()
        self.bus.send(request(self.host, SESSION, ROUTING, {"n": 3}))
        self.bus.run_to_quiescence()
        self.assertEqual(self.seen(), [1, 2, 3])

    def test_a_respawn_mid_run_replays_ahead_of_frames_already_queued(self):
        def respawn(msg):
            self.respawn()
            return [request(self.host, SESSION, ROUTING, {"n": 4})]

        self.bus.bind_endpoint("respawn", respawn)
        self.bus.send(request(self.host, SESSION, ROUTING, {"n": n}) for n in (1, 2))
        self.bus.run_to_quiescence()
        self.bus.send(request(self.host, SESSION, "respawn", {}))
        self.bus.send(request(self.host, SESSION, ROUTING, {"n": 3}))  # queued, not parked
        self.bus.run_to_quiescence()
        self.assertEqual(self.seen(), [1, 2, 3, 4])
        self.assertEqual(self.bus.duplicates_suppressed, 0)

    def test_parked_frames_are_encoded_once(self):
        with patch("masdn.bus.encode", wraps=encode) as encoded:
            self.bus.send(request(self.host, SESSION, ROUTING, {"n": n}) for n in range(1, 6))
            self.bus.run_to_quiescence()
            self.assertEqual(encoded.call_count, 0)
            self.respawn()
            self.bus.run_to_quiescence()
            self.assertEqual(encoded.call_count, 5)
        self.assertEqual(self.seen(), [1, 2, 3, 4, 5])

    def test_frames_for_a_topic_wait_for_its_dead_broker(self):
        self.bus.topic_router = lambda msg: ROUTING
        self.bus.send(request(self.host, SESSION, "events.flow", {"n": n}) for n in (1, 2))
        self.bus.run_to_quiescence()
        self.assertEqual(self.bus.dead_letters, [])
        self.respawn()
        self.bus.run_to_quiescence()
        self.assertEqual(self.seen(), [1, 2])

    def test_an_agent_never_spawned_still_gets_dead_letters(self):
        other = AgentId(FunctionKind.ROUTING, 1)
        self.bus.send(request(self.host, SESSION, other, {"n": 1}))
        self.bus.run_to_quiescence()
        self.assertEqual([d.message.dst for d in self.bus.dead_letters], [other])


if __name__ == "__main__":
    unittest.main()
