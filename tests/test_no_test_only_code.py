"""Every public name in src/masdn is used by the program itself.

A public module-level function, class or UPPER_CASE constant that nothing
in src/masdn refers to, apart from its own definition, is code only tests
reach. Such code certifies a model instead of the running system, so it is
not allowed back. Cognitions registered with @register_cognition are used
through the registry, and names listed in a module's __all__ are the
package's interface; both count as used.

The same holds for the public methods of src/masdn classes: a method counts
as used only if some src/masdn code outside its own body reads an attribute
of that name. Dunder methods are called by Python itself and are exempt.

And for state: every attribute a src/masdn class declares in its body or
assigns on self must be read as an attribute somewhere in src/masdn. An
augmented assignment (self.count += 1) is a write, not a read, so a counter
that only counts is write-only state. EXEMPT lists the few that are kept on
purpose, each with its reason.
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


def _attribute_reads(tree):
    """(name, line) for every attribute read, such as obj.name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def _parse(src):
    return {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def _index(trees, uses):
    found = {}
    for module, tree in trees.items():
        for name, line in uses(tree):
            found.setdefault(name, []).append((module, line))
    return found


def _used_outside(found, name, module, node):
    return any(
        not (m == module and node.lineno <= line <= node.end_lineno)
        for m, line in found.get(name, [])
    )


def unused_public_names(src=SRC):
    trees = _parse(src)
    refs = _index(trees, _references)
    unused = []
    for module, tree in trees.items():
        defs, exported = _public_definitions(tree)
        for name, node in defs:
            if not _used_outside(refs, name, module, node) and name not in exported:
                unused.append(f"{module}:{name}")
    return unused


def unused_public_methods(src=SRC):
    trees = _parse(src)
    reads = _index(trees, _attribute_reads)
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("_"):
                    continue
                if not _used_outside(reads, node.name, module, node):
                    unused.append(f"{module}:{cls.name}.{node.name}")
    return unused


# "module:Class.attribute" -> why it stays although src/masdn never reads it
EXEMPT = {
    "bus.py:Bus.duplicates_suppressed":
        "perfbench reports it: how many duplicated frames the fabric's mark dropped",
    "bus.py:DeadLetter.reason": "a dead letter explains itself to whoever inspects the fabric",
}


def _self_writes(cls):
    """The attribute names assigned on self anywhere in a class body."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    yield sub.attr


def write_only_attributes(src=SRC):
    trees = _parse(src)
    reads = _index(trees, _attribute_reads)
    unread = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            declared = {
                node.target.id for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            }
            for name in sorted(declared | set(_self_writes(cls))):
                if name not in reads:
                    unread.append(f"{module}:{cls.name}.{name}")
    return unread


def test_every_public_name_is_used_by_the_program():
    assert unused_public_names() == []


def test_every_public_method_is_used_by_the_program():
    assert unused_public_methods() == []


def test_every_attribute_is_read_by_the_program():
    found = write_only_attributes()
    assert [a for a in found if a not in EXEMPT] == []
    assert sorted(set(EXEMPT) - set(found)) == [], "stale EXEMPT entries"


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


def test_the_guard_sees_an_unused_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Doc:\n"
        "    def __repr__(self):\n        return 'Doc'\n"
        "    def _private(self):\n        return 0\n"
        "    def read(self):\n        return self.parts()\n"
        "    def parts(self):\n        return []\n"
        "    def to_dict(self):\n        return {'parts': self.to_dict}\n"
        "    def spare(self):\n        return None\n"
    )
    (tmp_path / "b.py").write_text("from .a import Doc\nDoc().read()\n")
    assert unused_public_methods(tmp_path) == ["a.py:Doc.to_dict", "a.py:Doc.spare"]


def test_the_guard_sees_write_only_state(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Progress:\n"
        "    done: int = 0\n"
        "    tries: int = 0\n"
        "    def step(self):\n"
        "        self.tries += 1\n"
        "        self.last = self.done\n"
        "        self._seen = True\n"
        "        return self._seen\n"
    )
    (tmp_path / "b.py").write_text("from .a import Progress\nProgress().step()\n")
    assert write_only_attributes(tmp_path) == ["a.py:Progress.last", "a.py:Progress.tries"]
