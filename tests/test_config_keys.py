"""One module reads the run config, and README documents every key it knows.

The reads are found in the source, not listed by hand: each `config.get("k")`
or `config["k"]` (on a name or attribute called `config`) in any module of
src/masdn. Only config.py may hold one, and only of a key it knows
(config.KEYS, the keys its tables list); each of those must appear in
README as `k`, in backticks. The defaults are held to the same rule: only
config.py names a DEFAULT_* constant, besides logic.py and pps.py, which
define them.
"""
import ast
from pathlib import Path

from masdn.config import KEYS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "masdn"


def _is_config(node):
    return (isinstance(node, ast.Name) and node.id == "config") or (
        isinstance(node, ast.Attribute) and node.attr == "config"
    )


def _key(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def config_keys(source):
    """Keys read from a config mapping in one module's source."""
    keys = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and _is_config(node.func.value)
            and node.args
        ):
            keys.add(_key(node.args[0]))
        elif isinstance(node, ast.Subscript) and _is_config(node.value):
            keys.add(_key(node.slice))
    keys.discard(None)
    return keys


def names_used(source):
    return {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}


def test_only_the_config_module_reads_a_config_key():
    readers = {path.name: config_keys(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: keys for name, keys in readers.items() if keys and name != "config.py"} == {}
    assert readers["config.py"] and readers["config.py"] <= set(KEYS)


def test_every_config_key_is_in_readme():
    readme = (ROOT / "README.md").read_text()
    assert sorted(k for k in KEYS if f"`{k}`" not in readme) == []


def test_only_the_config_module_names_a_default():
    naming = sorted(
        path.name
        for path in SRC.glob("*.py")
        if any(name.startswith("DEFAULT_") for name in names_used(path.read_text()))
    )
    assert naming == ["config.py", "logic.py", "pps.py"]


def test_the_scan_sees_both_read_forms():
    source = (
        "def f(config, self):\n"
        "    a = config.get('alpha', 1)\n"
        "    b = self.config['beta']\n"
        "    c = other.get('gamma')\n"
        "    d = config.get(name)\n"
    )
    assert config_keys(source) == {"alpha", "beta"}
