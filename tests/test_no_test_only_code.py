"""Every public name in src/masdn is used by the program itself.

A public module-level function, class or UPPER_CASE constant that nothing
in src/masdn refers to, apart from its own definition, is code only tests
reach. Such code certifies a model instead of the running system, so it is
not allowed back. Cognitions registered with @register_cognition are used
through the registry, and names listed in a module's __all__ are the
package's interface; both count as used.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "masdn"


def _is_registered_cognition(node):
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "register_cognition"
        for d in node.decorator_list
    )


def _public_definitions(tree):
    """(name, node) for each public top-level definition; plus __all__."""
    defs, exported = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _is_registered_cognition(node):
                defs.append((node.name, node))
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "__all__":
                exported |= {elt.value for elt in node.value.elts}
            elif target.id.isupper():
                defs.append((target.id, node))
    return [(n, node) for n, node in defs if not n.startswith("_")], exported


def _references(tree):
    """(name, line) for every name loaded. An attribute read such as
    obj.name is not a use of a module-level name: it reaches a method or
    field that may merely share the name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno


def unused_public_names(src=SRC):
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((module, line))
    unused = []
    for module, tree in trees.items():
        defs, exported = _public_definitions(tree)
        for name, node in defs:
            outside = [
                (m, line) for m, line in refs.get(name, [])
                if not (m == module and node.lineno <= line <= node.end_lineno)
            ]
            if not outside and name not in exported:
                unused.append(f"{module}:{name}")
    return unused


def test_every_public_name_is_used_by_the_program():
    assert unused_public_names() == []


def test_the_guard_sees_an_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "SPARE = 4\n"
        "def used():\n    return LIMIT\n"
        "def orphan():\n    return orphan\n"
        "@register_cognition('x')\ndef decide(facts, inp):\n    return None\n"
        "__all__ = ['exported']\n"
        "def exported():\n    return None\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\nused()\n")
    assert unused_public_names(tmp_path) == ["a.py:SPARE", "a.py:orphan"]


def test_a_method_of_the_same_name_does_not_hide_an_unused_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Factory:\n    def build(self):\n        return 1\n"
        "def build():\n    return Factory().build()\n"
    )
    (tmp_path / "b.py").write_text("from .a import Factory\nFactory().build()\n")
    assert unused_public_names(tmp_path) == ["a.py:build"]
