"""Every definition in the package is used somewhere.

A top-level ``def``, ``class`` or assigned name in ``src/lexforge/``, a
method of a top-level class and a field of a top-level dataclass must be
mentioned by name in some ``.py`` file under ``src/`` or ``perfbench/``:
read as a name or an attribute, imported, or spelled as a string literal
(the benchmark wraps functions by their names). A class mentioned only
inside annotations is reported: under ``from __future__ import
annotations`` an annotation is never evaluated, so such a class is never
made. A type alias counts its annotations, which are what it is for. A
field counts as read only when read as an attribute (``x.name``, not
``x.name = ...``) or spelled as a string literal: a local variable of the
same name is not a read of it. A keyword argument's name is a parameter,
not a mention: a field set in ``src/`` and read only by tests is reported.
Neither the definition itself nor the re-export in ``lexforge/__init__.py``
counts, and neither does a mention in ``tests/``: a definition only tests
reach is code no stage consumes. Dunder names are read by Python and
tools, not by name, and are left out.

A defaulted parameter of a top-level function or method must be set by
some call under ``src/`` or ``perfbench/``. So must a dataclass field with
a default, which is a defaulted parameter of its class. These set one:

- a call of a callee of that name (the class, for ``__init__`` and for a
  field) that passes it by keyword or by position (a field's position is
  its place among the fields ``__init__`` takes);
- a ``functools.partial`` of the callee that passes it;
- a ``dataclasses.replace`` that passes a field by keyword (it sets the
  field of that name in every dataclass: the guard cannot tell the class
  of the instance copied);
- ``config.with_values(callee, _flags(args, ...), **fixed)``, which sets the
  names the ``_flags`` call lists and the ``fixed`` keywords;
- a ``**`` splat of a mapping ``config.parse(f, _flags(args, ...))``, inline
  or bound to a name, which sets only the names its ``_flags`` call lists.

Any other ``*`` or ``**`` splat sets every parameter of its callee. The
fields of ``PipelineConfig``'s sections are left out, since
``config.config_keys()`` makes each of them an INI key. A default nothing
overrides is a constant, not a knob.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

from lexforge.config import config_keys

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


def _annotations(tree: ast.Module) -> set[int]:
    """The ids of the nodes inside the annotations of ``tree``: of
    parameters, of return values and of annotated assignments."""
    roots = [node.annotation for node in ast.walk(tree)
             if isinstance(node, (ast.arg, ast.AnnAssign))]
    roots += [node.returns for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return {id(node) for root in roots if root is not None for node in ast.walk(root)}


def _mentions(tree: ast.Module, skip_imports: bool) -> tuple[Counter, Counter, Counter]:
    """Every mention of a name outside annotations, every one inside them,
    and the reads among all of them that can be of a field: attributes
    read and string literals."""
    found: Counter = Counter()
    annotated: Counter = Counter()
    reads: Counter = Counter()
    inside = _annotations(tree)
    for node in ast.walk(tree):
        counts = annotated if id(node) in inside else found
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
            if not isinstance(node.ctx, ast.Store):
                reads[node.attr] += 1
        elif isinstance(node, ast.alias) and not skip_imports:
            counts[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts[node.value] += 1
            reads[node.value] += 1
    return found, annotated, reads


def _searched() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))}


def _package() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _fields(tree: ast.Module) -> set[str]:
    """``Class.field`` for each field of a top-level dataclass."""
    return {f"{node.name}.{name}" for node in tree.body
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for member in node.body for name in _assigned(member)
            if isinstance(member, ast.AnnAssign)}


def unreferenced(package: dict[str, ast.Module], searched: dict[Path, ast.Module]) -> list[str]:
    """``module.name`` of each definition of ``package`` that no tree of
    ``searched`` mentions, that no tree mentions outside annotations, for a
    class, or that no tree reads, for a field."""
    mentions: Counter = Counter()
    annotated: Counter = Counter()
    reads: Counter = Counter()
    for path, tree in searched.items():
        found, typed, read = _mentions(tree, skip_imports=path == PACKAGE / "__init__.py")
        mentions += found
        annotated += typed
        reads += read
    named = mentions + annotated
    found = []
    for module, tree in package.items():
        field_names = _fields(tree)
        classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
        found.extend(f"{module}.{name}" for name in _definitions(tree) if not (
            reads if name in field_names else mentions if name in classes else named
        )[name.rpartition(".")[2]])
    return found


#: Defaulted parameters no call sets on purpose, each with why.
SEAMS = {
    "config.load_config.env": "tests read a mapping in place of os.environ",
    "querygen.RemoteGenerationClient.session": "tests pass a fake HTTP session",
    "querygen.RemoteGenerationClient.sleep": "tests skip the backoff waits",
    "testkit.SyntheticSpec.n_unextractable":
        "tests plant unextractable judgments, and no fixtures flag does",
}

#: Every field of each section of ``PipelineConfig``, ``[run]`` included:
#: an INI key sets it.
SECTION_FIELDS = {f"config.{cls.__name__}.{f.name}"
                  for cls, _ in config_keys().values() for f in fields(cls)}

#: The key under which a call that sets every parameter of a callee is kept.
_SPLAT = "*"


def _init_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, whether it has a default) for each field a dataclass's
    ``__init__`` takes, in order."""
    found = []
    for member in node.body:
        if not (isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)):
            continue
        value = member.value
        if isinstance(value, ast.Call) and _callee(value.func) == "field":
            options = {k.arg: k.value for k in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            found.append((member.target.id, bool({"default", "default_factory"} & set(options))))
        else:
            found.append((member.target.id, value is not None))
    return found


def _parameters(tree: ast.Module) -> list[tuple[str, set[tuple[str, str | int]]]]:
    """(label, the settings that set it) for each defaulted parameter of a
    top-level function or method and each defaulted field of a top-level
    dataclass. A setting is (callee, name), (callee, position) or (callee,
    _SPLAT), as :func:`_settings` gives them. The callee is the name a call
    spells (the class, for ``__init__`` and fields); a position counts the
    positional arguments a call passes, without ``self`` or ``cls``."""
    found = []

    def add(fn: ast.FunctionDef, callee: str, label: str, skip: int) -> None:
        a = fn.args
        positional = a.posonlyargs + a.args
        for i, arg in enumerate(positional[len(positional) - len(a.defaults):],
                                start=len(positional) - len(a.defaults)):
            found.append((f"{label}.{arg.arg}",
                          {(callee, arg.arg), (callee, i - skip), (callee, _SPLAT)}))
        found.extend((f"{label}.{arg.arg}", {(callee, arg.arg), (callee, _SPLAT)})
                     for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                     if default is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            add(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                found.extend((f"{node.name}.{name}", {(node.name, name), (node.name, i),
                                                      (node.name, _SPLAT), ("replace", name)})
                             for i, (name, default) in enumerate(_init_fields(node)) if default)
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


def _flag_names(node: ast.expr) -> set[str] | None:
    """The names a ``_flags(args, *names, **dests)`` call sets, or None
    for any other expression."""
    if not (isinstance(node, ast.Call) and _callee(node.func) == "_flags"):
        return None
    return ({a.value for a in node.args if isinstance(a, ast.Constant)
             and isinstance(a.value, str)} | {k.arg for k in node.keywords})


def _parsed_flags(node: ast.expr) -> set[str] | None:
    """The names of a ``config.parse(f, _flags(...))`` mapping, or None for
    any other expression."""
    if isinstance(node, ast.Call) and _callee(node.func) == "parse" and len(node.args) == 2:
        return _flag_names(node.args[1])
    return None


def _settings(tree: ast.Module) -> set[tuple[str, str | int]]:
    """What the calls in ``tree`` set: (callee, keyword), (callee, position)
    and (callee, _SPLAT)."""
    bound = {target.id: names for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and (names := _parsed_flags(node.value)) is not None
             for target in node.targets if isinstance(target, ast.Name)}
    found: set[tuple[str, str | int]] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee, args = _callee(node.func), node.args
        if callee == "partial" and args:
            callee, args = _callee(args[0]), args[1:]
        elif callee == "with_values" and len(args) == 2:
            # with_values(target, _flags(...), **fixed) calls the target
            callee, names, args = _callee(args[0]), _flag_names(args[1]), []
            found.update((callee, name) for name in names or ())
        found.update((callee, i) for i in range(len(args)))
        if any(isinstance(a, ast.Starred) for a in args):
            found.add((callee, _SPLAT))
        for k in node.keywords:
            if k.arg is not None:
                found.add((callee, k.arg))
                continue
            names = (bound.get(k.value.id) if isinstance(k.value, ast.Name)
                     else _parsed_flags(k.value))
            found.update((callee, name) for name in ((_SPLAT,) if names is None else names))
    return found


def unset_parameters(package: dict[str, ast.Module], searched, seams=SEAMS) -> list[str]:
    """``module.label`` of each defaulted parameter of ``package`` that no
    call in the ``searched`` trees sets, leaving out the ``seams`` and the
    section fields."""
    settings = set().union(*(_settings(tree) for tree in searched))
    found = [f"{module}.{label}" for module, tree in package.items()
             for label, setters in _parameters(tree) if not setters & settings]
    return [label for label in found if label not in seams and label not in SECTION_FIELDS]


def test_every_definition_is_mentioned():
    assert unreferenced(_package(), _searched()) == []


def test_members_are_definitions():
    """The guard sees methods and dataclass fields, not only top-level
    names, and a field is read only as an attribute or a string."""
    tree = ast.parse("@dataclass\nclass A:\n    x: int\n    def f(self): pass\n"
                     "    def __str__(self): pass\nclass B:\n    y: int\n")
    assert _definitions(tree) == ["A", "A.x", "A.f", "B"]
    package = {"m": ast.parse("@dataclass\nclass A:\n    w: int\n    x: int\n"
                              "    y: int\n    z: int\n")}
    searched = {Path("s.py"): ast.parse("x = A(w=0, x=1, y=2, z=3)\nx.w = 4\n"
                                        "print(x, x.y, 'z')\n")}
    assert unreferenced(package, searched) == ["m.A.w", "m.A.x"]
    # a class named only in annotations is unreferenced; a type alias is not
    package = {"m": ast.parse("class P: pass\nclass Q: pass\nAlias = int\n")}
    searched = {Path("s.py"): ast.parse("def f(p: P, a: Alias) -> 'P':\n"
                                        "    r: list[P] = [Q()]\n")}
    assert unreferenced(package, searched) == ["m.P"]


def test_every_defaulted_parameter_is_set():
    package, searched = _package(), list(_searched().values())
    assert unset_parameters(package, searched) == []
    # each seam still names a default that no call sets
    assert sorted(unset_parameters(package, searched, seams={})) == sorted(SEAMS)


def test_parameter_settings():
    """Each form of call sets a parameter; a default nothing sets is reported."""
    package = {"m": ast.parse(
        "def f(a, b=1, *, c=2): pass\ndef g(x=0): pass\ndef h(y=0): pass\n"
        "def k(z=0, hidden=0): pass\ndef n(v=0, other=0): pass\ndef unset(w=0): pass\n"
        "class C:\n    def __init__(self, seam=None, s=0): pass\n"
        "    def run(self, t=0): pass\n"
        "@dataclass\nclass D:\n    p: int\n    q: int = 0\n    r: int = 0\n"
        "    e: int = field(default=0)\n    u: list = field(default_factory=list)\n"
        "    i: int = field(init=False)\n    fixed: int = 0\n")}
    searched = [ast.parse(
        "f(0, 1)\ng(**kw)\nfunctools.partial(h, y=1)\n"
        "params = config.parse(k, cli._flags(args, 'z'))\nk(**params)\n"
        "n(**config.parse(n, cli._flags(args, v='flag')))\nunset()\nC(s=1)\nc.run(2)\n"
        "D(0, 1)\ndataclasses.replace(d, r=1)\n"
        "config.with_values(D, cli._flags(args, 'e'), fixed=1)\n")]
    assert unset_parameters(package, searched, {"m.C.seam": ""}) == [
        "m.f.c", "m.k.hidden", "m.n.other", "m.unset.w", "m.D.u"]
