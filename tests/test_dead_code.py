"""Every function and method defined in src/wsh is used in src/wsh.

A definition counts as used when its name occurs in src/wsh outside its
own body: as a name, as an attribute, or as a whole string constant
(``FREE_RELATIONS`` names methods that are reached through ``getattr``).
Names are matched without regard to scope, so the check is coarse: a
method is kept alive by any use of its name.  Dunder methods are called
by Python itself and are exempt, as are the names in ``ALLOWED``.
Code that only the tests use belongs in tests/conftest.py.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wsh"

# names used only from outside src/wsh, each with its caller
ALLOWED = set()


def _scan(tree, where, defs, uses):
    """Add the functions defined in tree to defs (name -> places) and the
    names it refers to, outside the body of a function of that name, to
    uses."""

    def visit(node, enclosing):
        name = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append((where, node.lineno))
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in enclosing:
            uses.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())


def unused_definitions(root):
    """(file, line, name) of the functions and methods under root that
    nothing under root refers to, dunders and ALLOWED names excepted."""
    defs, uses = {}, set()
    for path in sorted(root.rglob("*.py")):
        where = str(path.relative_to(root))
        _scan(ast.parse(path.read_text(), where), where, defs, uses)
    return sorted(
        (where, line, name)
        for name, places in defs.items()
        if name not in uses
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
