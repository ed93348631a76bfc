"""Event plane topic grammar: the filter matching the broker agents apply.

Topics are dot-separated segments ("events.link", "kp.digest"). A filter is
either an exact topic or a prefix plus a single trailing "*" that matches
any strictly deeper topic ("events.*" matches "events.link.down" but not
"events"); "*" alone matches every topic.

The brokers themselves are agents: see infra.broker_decide for how they
deliver and forward events under each arrangement, and
orchestrator.home_broker and broker_subs for where each agent publishes
and which broker delivers to it.
"""

from __future__ import annotations

import functools

from .core import MasdnError


class TopicError(MasdnError):
    pass


def _segments(text: str) -> list[str]:
    if not text:
        raise TopicError("empty topic")
    parts = text.split(".")
    if any(not p for p in parts):
        raise TopicError(f"empty segment in {text!r}")
    return parts


def check_topic(topic: str) -> str:
    for seg in _segments(topic):
        if "*" in seg:
            raise TopicError(f"wildcard not allowed in a topic: {topic!r}")
    return topic


def check_filter(flt: str) -> str:
    parts = _segments(flt)
    for seg in parts[:-1]:
        if "*" in seg:
            raise TopicError(f"wildcard only allowed as the last segment: {flt!r}")
    if "*" in parts[-1] and parts[-1] != "*":
        raise TopicError(f"bad wildcard segment in {flt!r}")
    return flt


@functools.lru_cache(maxsize=4096)
def match_topic(flt: str, topic: str) -> bool:
    """True when the filter selects the topic. A pure function of two
    strings, so it is memoised; invalid input raises TopicError every time."""
    fparts = _segments(check_filter(flt))
    tparts = _segments(check_topic(topic))
    if fparts[-1] == "*":
        prefix = fparts[:-1]
        return len(tparts) > len(prefix) and tparts[: len(prefix)] == prefix
    return fparts == tparts
