"""Every function and method defined in src/wsh is used in src/wsh.

A definition counts as used when its name occurs in src/wsh outside its
own body, in a way that can reach it.  A method (a function defined in a
class body) is reached through an attribute or a whole string constant
(``FREE_RELATIONS`` names methods that are reached through ``getattr``).
Any other function is reached through those, a name or an import.  Names
are matched without regard to scope otherwise, so the check is coarse: a
method is kept alive by any attribute of its name.  Dunder methods are
called by Python itself and are exempt, as are the names in ``ALLOWED``.
Code that only the tests use belongs in tests/conftest.py.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wsh"

# names used only from outside src/wsh, each with its caller
ALLOWED = set()

# the kinds of reference that can reach each kind of definition
REACHED_BY = {
    "function": {"name", "attribute", "string"},
    "method": {"attribute", "string"},
}


def _scan(tree, where, defs, uses):
    """Add the definitions in tree to defs ((kind, name) -> places) and
    its references, outside the body of a definition of that name, to
    uses as (kind of reference, name)."""

    def visit(node, enclosing, in_class):
        ref = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kind = "method" if in_class else "function"
            defs.setdefault((kind, node.name), []).append((where, node.lineno))
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name):
            ref = ("name", node.id)
        elif isinstance(node, ast.alias):
            ref = ("name", node.name)
        elif isinstance(node, ast.Attribute):
            ref = ("attribute", node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            ref = ("string", node.value)
        if ref is not None and ref[1] not in enclosing:
            uses.add(ref)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, isinstance(node, ast.ClassDef))

    visit(tree, frozenset(), False)


def unused_definitions(root):
    """(file, line, name) of the functions and methods under root that
    nothing under root can reach, dunders and ALLOWED names excepted."""
    defs, uses = {}, set()
    for path in sorted(root.rglob("*.py")):
        where = str(path.relative_to(root))
        _scan(ast.parse(path.read_text(), where), where, defs, uses)
    return sorted(
        (where, line, name)
        for (kind, name), places in defs.items()
        if not any((ref, name) in uses for ref in REACHED_BY[kind])
        and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
        for where, line in places
    )


def test_every_definition_is_used():
    assert unused_definitions(SRC) == []


def test_an_unused_definition_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class C:\n    def __init__(self):\n        self.x = 'by_name'\n\n"
        "    def by_name(self):\n        pass\n\n"
        "    def dead(self):\n        pass\n"
    )
    (tmp_path / "b.py").write_text("from a import C\n\nC().x\n")
    assert unused_definitions(tmp_path) == [
        ("a.py", 7, "recursive"),
        ("a.py", 17, "dead"),
    ]


def test_a_name_keeps_no_method_alive(tmp_path):
    # operator.add, imported and passed by name, is not the method
    # Span.add; an imported function is reached through its import
    (tmp_path / "a.py").write_text(
        "from functools import reduce\nfrom operator import add\n\n"
        "def total(xs):\n    return reduce(add, xs)\n\n"
        "def imported():\n    return 0\n\n"
        "class Span:\n    def add(self, x):\n        pass\n"
    )
    (tmp_path / "b.py").write_text("from a import imported, total\n\ntotal([1])\n")
    assert unused_definitions(tmp_path) == [("a.py", 11, "add")]
