"""Every key the program reads from a run config is documented in README.

The keys are found in the source, not listed by hand: each `config.get("k")`
or `config["k"]` (on a name or attribute called `config`) in the modules that
read the run config must appear in README as `k`, in backticks.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READERS = ("system.py", "oracle.py", "orchestrator.py")


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


def test_every_config_key_the_program_reads_is_in_readme():
    readme = (ROOT / "README.md").read_text()
    keys = set()
    for module in READERS:
        keys |= config_keys((ROOT / "src" / "masdn" / module).read_text())
    assert keys, "the scan found no config reads"
    assert sorted(k for k in keys if f"`{k}`" not in readme) == []


def test_the_scan_sees_both_read_forms():
    source = (
        "def f(config, self):\n"
        "    a = config.get('alpha', 1)\n"
        "    b = self.config['beta']\n"
        "    c = other.get('gamma')\n"
        "    d = config.get(name)\n"
    )
    assert config_keys(source) == {"alpha", "beta"}
