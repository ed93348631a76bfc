"""The run config's parse, beyond the refusals test_cli's corpus covers."""
import pytest

from masdn.config import parse_config
from masdn.netsim import SchemaError


def test_an_int_tick_and_its_decimal_text_name_one_tick():
    # a Python caller may key kills by int; the two keys once collided
    # silently, and one of the two kills was lost
    assert parse_config({"kills": {17: ["qos#0"]}}, 40).kills == {17: ("qos#0",)}
    with pytest.raises(SchemaError, match="twice"):
        parse_config({"kills": {17: ["qos#0"], "17": ["routing#0"]}}, 40)


def test_the_doc_form_shares_no_container_with_the_defaults():
    doc = parse_config({}, None).doc
    doc["chain"].append("monitoring")
    doc["policies"].append({"policy_id": "stray"})
    doc["thresholds"]["size"] = 1
    assert parse_config({}, None).doc == {
        "chain": ["session"], "event_strategy": "centralized", "proactive": False,
        "profile": "bin-alo-64k", "thresholds": {"size": 100, "gap": 3},
        "qos_cap_permille": 800, "policies": [], "kills": {},
    }
