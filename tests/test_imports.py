"""Every name a library module imports is used in that module; every
function and class it defines has a caller outside the unit tests; and
every option it offers is set by one such caller and left at its default
by another; and no module but models.py names a model kind."""

import ast
from pathlib import Path

import pytest

import charlierbd

SRC = Path(charlierbd.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]

# Imported for a reader outside the module: perfbench/tracer.py wraps
# solve.project_density at every name a caller could look it up by.
ALLOWED = {("solve", "project_density")}


def unused_imports(source: str) -> set:
    """Names bound by an import statement anywhere in `source` that no
    expression reads (attribute chains count through their first name)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return bound - read


def test_the_check_sees_an_unused_import():
    src = "import math\nfrom x import a, b as c\nfrom y import d\nc(d.e)\n"
    assert unused_imports(src) == {"math", "a"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    allowed = {name for mod, name in ALLOWED if mod == path.stem}
    assert unused_imports(path.read_text()) - allowed == set()


def referenced_names(source: str, strings: bool = False) -> set:
    """Names that `source` reads, as bare names or attributes; with
    `strings`, every string constant counts as a name too."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_definition_has_a_caller():
    # callers: the library itself, the acceptance criteria, and the
    # benchmark, whose tracer names the functions it wraps in strings
    used = set()
    for path in SRC.glob("*.py"):
        used |= referenced_names(path.read_text())
    used |= referenced_names((REPO / "tests" / "test_acceptance.py")
                             .read_text())
    for path in (REPO / "perfbench").glob("*.py"):
        used |= referenced_names(path.read_text(), strings=True)
    defined = {(path.stem, node.name) for path in SRC.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {f"{mod}.{name}" for mod, name in defined
            if name not in used} == set()


# ExperimentConfig's fields are set by JSON keys, through from_dict's
# cls(**d), which no call site names.
OPTION_ALLOWED = {"harness.ExperimentConfig"}


def defaulted_options(source: str) -> dict:
    """{(label, callee, param): position} for every parameter with a
    default of a top-level function or method, and every annotated class
    attribute with a default (a dataclass or NamedTuple field). The label
    names the option in a report; the callee is the name a call of it
    uses, the class's for a field. position is the index among the
    positional parameters after self or cls (among the fields, a base
    class's first), None for a keyword-only one."""
    out = {}
    fields = {}
    for node in ast.parse(source).body:
        funcs = [("", node)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            names = [f for b in node.bases if isinstance(b, ast.Name)
                     for f in fields.get(b.id, [])]
            for s in node.body:
                if isinstance(s, ast.AnnAssign):
                    names.append(s.target.id)
                    if s.value is not None:
                        out[(node.name, node.name, s.target.id)] = \
                            len(names) - 1
                elif isinstance(s, ast.FunctionDef):
                    funcs.append((node.name + ".", s))
            fields[node.name] = names
        for owner, fn in funcs:
            a = fn.args
            pos = a.posonlyargs + a.args
            skip = 1 if owner and pos and pos[0].arg in ("self", "cls") else 0
            first = len(pos) - len(a.defaults)
            for i, arg in enumerate(pos[first:], start=first - skip):
                out[(owner + fn.name, fn.name, arg.arg)] = i
            for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                if d is not None:
                    out[(owner + fn.name, fn.name, arg.arg)] = None
    return out


def calls(source: str) -> list:
    """(callee, set of keywords or positions passed) for every call in
    `source`, a call keyed by the name it calls, bare or as an attribute;
    "*" and "**" stand for unpacked positionals and keywords."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, (ast.Name, ast.Attribute)):
            name = getattr(node.func, "id", None) or node.func.attr
            out.append((name, {"*" if isinstance(arg, ast.Starred) else i
                               for i, arg in enumerate(node.args)}
                        | {k.arg or "**" for k in node.keywords}))
    return out


def passed_options(source: str) -> set:
    """(callee, keyword or position) pairs that the calls in `source`
    pass."""
    return {(name, w) for name, passed in calls(source) for w in passed}


def unset_options(sources: dict, callers: list) -> set:
    """`module.label.param` for each option of `sources` ({module: text})
    that no call in `callers` passes, by keyword, by position or by
    unpacking."""
    passed = set().union(*map(passed_options, callers))
    return {f"{mod}.{label}.{param}"
            for mod, text in sources.items()
            for (label, callee, param), pos in defaulted_options(text).items()
            if f"{mod}.{callee}" not in OPTION_ALLOWED
            and not passed & {(callee, w) for w in (param, pos, "*", "**")}}


def unused_defaults(sources: dict, callers: list) -> set:
    """`module.label.param` for each option of `sources` whose default no
    call in `callers` relies on: every call of its callee passes it by
    keyword, by position or by unpacking."""
    made = [c for text in callers for c in calls(text)]
    return {f"{mod}.{label}.{param}"
            for mod, text in sources.items()
            for (label, callee, param), pos in defaulted_options(text).items()
            if f"{mod}.{callee}" not in OPTION_ALLOWED
            and not any(name == callee
                        and not passed & {param, pos, "*", "**"}
                        for name, passed in made)}


def test_the_check_sees_an_unset_option():
    src = ("from dataclasses import dataclass\n"
           "def f(x, y=1, *, z=2):\n    pass\n"
           "def g(x, y=1):\n    pass\n"
           "@dataclass\nclass S:\n    a: int\n    b: int = 0\n"
           "    def m(self, u=3):\n        pass\n")
    caller = "f(0, z=1)\ng(*xs)\nS(1, 2)\nobj.m()\n"
    assert unset_options({"mod": src}, [src, caller]) == {"mod.f.y",
                                                          "mod.S.m.u"}


def test_the_check_sees_an_unused_default():
    src = ("from dataclasses import dataclass\n"
           "def f(x, y=1, *, z=2):\n    pass\n"
           "def g(x, y=1):\n    pass\n"
           "@dataclass\nclass S:\n    a: int\n    b: int = 0\n"
           "    def m(self, u=3):\n        pass\n")
    caller = "f(0, 2, z=1)\nf(0, y=3, z=1)\ng(0)\nS(*xs)\nobj.m(u=4)\n"
    assert unused_defaults({"mod": src}, [src, caller]) == {
        "mod.f.y", "mod.f.z", "mod.S.b", "mod.S.m.u"}


def library_and_callers() -> tuple[dict, list]:
    """({module: text} of the library, texts of the calls that count):
    the library itself, the acceptance criteria, and the benchmark; unit
    tests do not count."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    callers = [*sources.values(),
               (REPO / "tests" / "test_acceptance.py").read_text(),
               *(p.read_text() for p in (REPO / "perfbench").glob("*.py"))]
    return sources, callers


def test_every_option_is_set_by_a_caller():
    assert unset_options(*library_and_callers()) == set()


def test_every_default_is_relied_on():
    # the reverse check: a default that every caller overrides is a
    # required argument in disguise
    assert unused_defaults(*library_and_callers()) == set()


def test_kind_names_are_data_of_models_only():
    # the solvers and the harness read what differs between model kinds
    # from the params records; no other module names a kind
    from charlierbd.models import KINDS
    for path in SRC.glob("*.py"):
        if path.stem != "models":
            strings = {n.value for n in ast.walk(ast.parse(path.read_text()))
                       if isinstance(n, ast.Constant)}
            assert strings & set(KINDS) == set(), path.stem



def library_imports(source: str) -> list:
    """The charlierbd modules that `source` imports, relative or by name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "charlierbd"):
            out.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            out += [a.name for a in node.names
                    if a.name.split(".")[0] == "charlierbd"]
    return out


def test_the_check_sees_a_library_import():
    src = ("import numpy as np\nfrom . import basis\nfrom .closure import x\n"
           "import charlierbd.special\nfrom charlierbd import solve\n")
    assert library_imports(src) == [".", ".closure", "charlierbd.special",
                                    "charlierbd"]


def test_models_imports_no_other_library_module():
    # the params records are data: the closure's surrogate algebra lives
    # in closure.py, which reads the records' g_terms and d_terms
    assert library_imports((SRC / "models.py").read_text()) == []
