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

A defaulted parameter of a top-level function or method must be set by
some call under ``src/`` or ``perfbench/``: a call of a callee of that name
(the class, for ``__init__``) that passes it by keyword or position or
splats ``*`` or ``**``, a ``functools.partial`` of the callee that passes
it, or a ``cli._flags`` call that names it as a string (the flag then sets
the parameter). A default nothing overrides is a constant, not a knob. The
check cannot see a value reached through a splat or a dataclass field.
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


def _searched() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))}


def _package() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def unreferenced() -> list[str]:
    mentions: Counter = Counter()
    for path, tree in _searched().items():
        mentions += _mentions(tree, skip_imports=path == PACKAGE / "__init__.py")
    return [f"{module}.{name}" for module, tree in _package().items()
            for name in _definitions(tree) if not mentions[name.rpartition(".")[2]]]


#: Defaulted parameters no call sets on purpose, each with why.
SEAMS = {
    "config.load_config.env": "tests read a mapping in place of os.environ",
    "querygen.RemoteGenerationClient.session": "tests pass a fake HTTP session",
    "querygen.RemoteGenerationClient.sleep": "tests skip the backoff waits",
}

#: The key under which a call that sets every parameter of a callee is kept.
_SPLAT = "*"


def _parameters(tree: ast.Module) -> list[tuple[str, str, str, int | None]]:
    """(callee, label, name, position) for each defaulted parameter of a
    top-level function or method. ``callee`` is the name a call spells (the
    class, for ``__init__``); ``position`` counts the positional arguments a
    call passes, without ``self`` or ``cls``, and is None for a keyword-only
    parameter."""
    found = []

    def add(fn: ast.FunctionDef, callee: str, label: str, skip: int) -> None:
        a = fn.args
        positional = a.posonlyargs + a.args
        for i, arg in enumerate(positional[len(positional) - len(a.defaults):],
                                start=len(positional) - len(a.defaults)):
            found.append((callee, f"{label}.{arg.arg}", arg.arg, i - skip))
        found.extend((callee, f"{label}.{arg.arg}", arg.arg, None)
                     for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                     if default is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            add(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", "") == "staticmethod"
                             for d in member.decorator_list)
                if member.name == "__init__":
                    add(member, node.name, node.name, 1)
                else:
                    add(member, member.name, f"{node.name}.{member.name}", 0 if static else 1)
    return found


def _callee(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _settings(tree: ast.Module) -> set[tuple[str | None, str | int]]:
    """What the calls in ``tree`` set: (callee, keyword), (callee, position)
    and (callee, _SPLAT); a ``_flags`` call's names as (None, name)."""
    found: set[tuple[str | None, str | int]] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee, args = _callee(node.func), node.args
        if callee == "_flags":
            found.update((None, a.value) for a in args
                         if isinstance(a, ast.Constant) and isinstance(a.value, str))
            found.update((None, k.arg) for k in node.keywords)
            continue
        if callee == "partial" and args:
            callee, args = _callee(args[0]), args[1:]
        found.update((callee, i) for i in range(len(args)))
        found.update((callee, k.arg) for k in node.keywords if k.arg is not None)
        if any(isinstance(a, ast.Starred) for a in args) or any(
                k.arg is None for k in node.keywords):
            found.add((callee, _SPLAT))
    return found


def unset_parameters(package: dict[str, ast.Module], searched, seams=SEAMS) -> list[str]:
    """``module.label`` of each defaulted parameter of ``package`` that no
    call in the ``searched`` trees sets, leaving out the ``seams``."""
    settings = set().union(*(_settings(tree) for tree in searched))
    return [f"{module}.{label}" for module, tree in package.items()
            for callee, label, name, position in _parameters(tree)
            if f"{module}.{label}" not in seams
            and not {(callee, name), (callee, position), (callee, _SPLAT),
                     (None, name)} & settings]


def test_every_definition_is_mentioned():
    assert unreferenced() == []


def test_members_are_definitions():
    """The guard sees methods and dataclass fields, not only top-level names."""
    tree = ast.parse("@dataclass\nclass A:\n    x: int\n    def f(self): pass\n"
                     "    def __str__(self): pass\nclass B:\n    y: int\n")
    assert _definitions(tree) == ["A", "A.x", "A.f", "B"]


def test_every_defaulted_parameter_is_set():
    package, searched = _package(), list(_searched().values())
    assert unset_parameters(package, searched) == []
    # each seam still names a default that no call sets
    assert sorted(unset_parameters(package, searched, seams={})) == sorted(SEAMS)


def test_parameter_settings():
    """Each form of call sets a parameter; a default nothing sets is reported."""
    package = {"m": ast.parse(
        "def f(a, b=1, *, c=2): pass\ndef g(x=0): pass\ndef h(y=0): pass\n"
        "def k(z=0): pass\ndef unset(w=0): pass\n"
        "class C:\n    def __init__(self, seam=None, s=0): pass\n"
        "    def run(self, t=0): pass\n")}
    searched = [ast.parse("f(0, 1)\ng(**kw)\nfunctools.partial(h, y=1)\n"
                          "cli._flags(args, 'z')\nunset()\nC(s=1)\nc.run(2)\n")]
    assert unset_parameters(package, searched, {"m.C.seam": ""}) == ["m.f.c", "m.unset.w"]
