"""Every top-level definition in the package is used somewhere.

A top-level ``def``, ``class`` or assigned name in ``src/lexforge/`` must be
mentioned by name in some ``.py`` file under ``src/`` or ``perfbench/``: read
as a name or an attribute, imported, or spelled as a string literal (the
benchmark wraps functions by their names). Neither the definition itself nor
the re-export in ``lexforge/__init__.py`` counts, and neither does a mention
in ``tests/``: a definition only tests reach is code no stage consumes.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lexforge"
SEARCHED = ("src", "perfbench")


def _definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    # dunders such as __version__ are read by tools, not by name
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


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
        dead += [f"{path.stem}.{name}" for name in _definitions(tree) if not mentions[name]]
    return dead


def test_every_top_level_definition_is_mentioned():
    assert unreferenced() == []
