"""Topic matching, and the broker agents' arrangement equivalence on a Bus."""
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masdn.events import TopicError, check_filter, check_topic, match_topic
from masdn.config import broker_ids

from helpers import STRATEGIES, BrokerFabric, Fabric, run_trace, trace_agents


class TestTopicGrammar:
    @pytest.mark.parametrize(
        "flt,topic,want",
        [
            ("events.link", "events.link", True),
            ("events.link", "events.link.down", False),
            ("events.*", "events.link", True),
            ("events.*", "events.link.down", True),
            ("events.*", "events", False),
            ("events.*", "kp.digest", False),
            ("*", "anything", True),
            ("*", "a.b.c", True),
        ],
    )
    def test_match_cases(self, flt, topic, want):
        assert match_topic(flt, topic) is want

    def test_empty_topic_rejected(self):
        with pytest.raises(TopicError):
            check_topic("")

    def test_empty_segment_rejected(self):
        with pytest.raises(TopicError):
            check_topic("events..link")

    def test_wildcard_inside_topic_rejected(self):
        with pytest.raises(TopicError):
            check_topic("events.*")

    def test_wildcard_must_be_last_segment(self):
        with pytest.raises(TopicError):
            check_filter("events.*.down")

    def test_partial_wildcard_segment_rejected(self):
        with pytest.raises(TopicError):
            check_filter("events.li*")

    @pytest.mark.parametrize(
        "flt,topic", [("events.*.down", "events.link"), ("events.link", "events..x"), ("", "a")]
    )
    def test_memoised_match_rejects_bad_input_every_time(self, flt, topic):
        for _ in range(2):
            with pytest.raises(TopicError):
                match_topic(flt, topic)


class TestEnvelope:
    def test_doc_round_trip(self):
        # a subscriber gets the publish itself: the published topic and body
        # unchanged, with no stamp added
        fabric = BrokerFabric("hybrid")
        fabric.subscribe("qos#1", "events.*")
        fabric.run()
        order = fabric.publish("routing#0", "events.link", {"x": 1})
        fabric.run()
        (got,) = fabric.delivered_to("qos#1")
        assert got == ("routing#0", order, {"topic": "events.link", "body": {"x": 1}})

    def test_seq_counts_per_publisher(self):
        fabric = BrokerFabric("centralized")
        fabric.subscribe("qos#1", "t.*")
        fabric.run()
        orders = [fabric.publish(pub, "t.x", n)
                  for n, pub in enumerate(["routing#0", "fault#0", "routing#0"])]
        fabric.run()
        got = [(d.publisher, d.order) for d in fabric.delivered_to("qos#1")]
        assert got == [("routing#0", orders[0]), ("fault#0", orders[1]), ("routing#0", orders[2])]
        assert orders == [0, 1, 2]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_brokers_publish_reaches_every_subscriber(self, strategy):
        # a broker may publish too: "forwarded" is the frame's destination,
        # never the sender's kind, so every matching subscriber gets it
        subs = trace_agents(100, 6)
        fabric = BrokerFabric(strategy)
        for sub in subs:
            fabric.subscribe(sub, "events.*")
        fabric.run()
        brokers = broker_ids(strategy)
        for n, broker in enumerate(brokers):
            fabric.publish(broker, "events.flow", {"n": n})
        fabric.run()
        for sub in subs:
            got = [(d.publisher, d.envelope["body"]["n"]) for d in fabric.delivered_to(sub)]
            assert sorted(got) == [(b, n) for n, b in enumerate(brokers)], (strategy, sub)


def random_trace(rng, n_events=120, n_pubs=3, n_subs=4):
    topics = ["events.link", "events.flow", "events.link.down", "kp.digest", "audit"]
    filters = ["events.*", "events.link", "kp.digest", "*", "events.link.*"]
    publishers = trace_agents(0, n_pubs)
    subs = [(sub, rng.choice(filters)) for sub in trace_agents(100, n_subs)]
    events = [
        (rng.choice(publishers), rng.choice(topics), {"n": i}) for i in range(n_events)
    ]
    return publishers, subs, events


def delivered_keys(fabric, sub, publishers):
    return Counter(
        (d.publisher, d.envelope["topic"], d.envelope["body"]["n"])
        for d in fabric.delivered_to(sub, publishers)
    )


def wanted_keys(events, flt):
    return Counter((pub, topic, body["n"]) for pub, topic, body in events
                   if match_topic(flt, topic))


def assert_fifo_per_publisher(fabric, sub, publishers, *where):
    last: dict[str, int] = {}
    for d in fabric.delivered_to(sub, publishers):
        assert d.order > last.get(d.publisher, -1), (*where, sub)
        last[d.publisher] = d.order


class TestArrangementEquivalence:
    def test_zero_subscriber_publish_is_fine_everywhere(self):
        for strategy in STRATEGIES:
            fabric = BrokerFabric(strategy)
            fabric.publish("routing#0", "events.link", {"n": 1})
            fabric.run()
            assert fabric.bus.dead_letters == []
            inputs = {e["agent"] for e in fabric.host.stage_log if e["stage"] == "input"}
            assert inputs <= set(broker_ids(strategy))

    def test_empty_trace_everywhere(self):
        for strategy in STRATEGIES:
            fabric = run_trace(strategy, [("qos#1", "events.*")], [])
            assert fabric.delivered_to("qos#1") == []

    def test_same_multiset_per_subscriber_across_strategies(self):
        rng = random.Random(7)
        publishers, subs, events = random_trace(rng)
        fabrics = {s: run_trace(s, subs, events) for s in STRATEGIES}
        for sub, flt in subs:
            records = {s: delivered_keys(f, sub, publishers) for s, f in fabrics.items()}
            assert records["centralized"] == records["distributed"] == records["hybrid"]
            assert records["centralized"] == wanted_keys(events, flt)
            assert records["centralized"]

    def test_per_publisher_fifo_in_every_strategy(self):
        rng = random.Random(11)
        publishers, subs, events = random_trace(rng)
        for strategy in STRATEGIES:
            fabric = run_trace(strategy, subs, events)
            for sub, _ in subs:
                assert_fifo_per_publisher(fabric, sub, publishers, strategy)

    def test_no_duplicate_deliveries_on_flooded_paths(self):
        # distributed forwards to every broker a subscriber waits behind and
        # hybrid's root relays to each such level broker; no broker is handed
        # an envelope twice
        publishers = trace_agents(0, 3)
        for strategy in ("distributed", "hybrid"):
            fabric = BrokerFabric(strategy)
            fabric.subscribe("qos#1", "events.*")
            fabric.run()
            for i in range(30):
                fabric.publish(publishers[i % 3], "events.flow", i)
            fabric.run()
            keys = Counter((d.publisher, d.order) for d in fabric.delivered_to("qos#1"))
            assert keys == Counter((publishers[i % 3], i) for i in range(30))

    @pytest.mark.parametrize("every", [0, 1, 3])
    def test_injected_duplicates_reach_no_subscriber_twice(self, every):
        # the fabric's per-pair mark is the one duplicate filter: a repeated
        # publish or forward is dropped before any broker sees it
        publishers, subs, events = random_trace(random.Random(5))
        for strategy in STRATEGIES:
            fabric = BrokerFabric(strategy)
            Fabric(fabric.bus, duplicate_every=every)
            for sub, flt in subs:
                fabric.subscribe(sub, flt)
            fabric.run()
            for pub, topic, body in events:
                fabric.publish(pub, topic, body)
            fabric.run()
            for sub, flt in subs:
                assert delivered_keys(fabric, sub, publishers) == wanted_keys(events, flt), (
                    strategy, every, sub)
            if every:
                assert fabric.bus.duplicates_suppressed > 0

    def test_hybrid_routes_between_levels(self):
        fabric = BrokerFabric("hybrid")
        # a function agent and the orchestrator subscribe at different level
        # brokers; the publisher's level broker reaches the other via the root
        fabric.subscribe("routing#0", "events.*")
        fabric.subscribe("orchestration#0", "events.*")
        fabric.publish("routing#1", "events.flow", {"n": 1})
        fabric.run()
        assert len(fabric.delivered_to("routing#0")) == 1
        assert len(fabric.delivered_to("orchestration#0")) == 1
        assert "routing#1" in fabric.handled[broker_ids("hybrid")[0]]  # the root


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_random_traces_agree(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    publishers, subs, events = random_trace(rng, n_events=40)
    fabrics = {s: run_trace(s, subs, events) for s in STRATEGIES}
    for sub, flt in subs:
        multisets = [delivered_keys(fabrics[s], sub, publishers) for s in STRATEGIES]
        assert multisets[0] == multisets[1] == multisets[2]
        assert multisets[0] == wanted_keys(events, flt)
        for strategy in STRATEGIES:
            assert_fifo_per_publisher(fabrics[strategy], sub, publishers, strategy)
