"""Every definition in the package is used somewhere.

A top-level ``def``, ``class`` or assigned name in ``src/lexforge/``, a
method of a top-level class and a field of a top-level dataclass must be
mentioned by name in some ``.py`` file under ``src/`` or ``perfbench/``:
read as a name or an attribute, imported, or spelled as a string literal
(the benchmark wraps functions by their names). A keyword argument's name
is a parameter, not a mention: a field set in ``src/`` and read only by
tests is reported. Neither the definition itself nor the re-export in
``lexforge/__init__.py`` counts, and neither does a mention in ``tests/``:
a definition only tests reach is code no stage consumes. Dunder names are
read by Python and tools, not by name, and are left out.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lexforge"
SEARCHED = ("src", "perfbench")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _assigned(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _definitions(tree: ast.Module) -> list[str]:
    """Top-level names, then ``Class.member`` for each method of a class
    and each field of a dataclass."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        names.extend(_assigned(node))
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(f"{node.name}.{member.name}")
            elif isinstance(member, ast.AnnAssign) and _is_dataclass(node):
                names.extend(f"{node.name}.{name}" for name in _assigned(member))
    return [n for n in names
            if not (n.rpartition(".")[2].startswith("__") and n.endswith("__"))]


def _mentions(tree: ast.Module, skip_imports: bool) -> Counter:
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias) and not skip_imports:
            found[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def unreferenced() -> list[str]:
    mentions: Counter = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            mentions += _mentions(tree, skip_imports=path == PACKAGE / "__init__.py")
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dead += [f"{path.stem}.{name}" for name in _definitions(tree)
                 if not mentions[name.rpartition(".")[2]]]
    return dead


def test_every_definition_is_mentioned():
    assert unreferenced() == []


def test_members_are_definitions():
    """The guard sees methods and dataclass fields, not only top-level names."""
    tree = ast.parse("@dataclass\nclass A:\n    x: int\n    def f(self): pass\n"
                     "    def __str__(self): pass\nclass B:\n    y: int\n")
    assert _definitions(tree) == ["A", "A.x", "A.f", "B"]
