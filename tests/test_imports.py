"""Every name a library module imports is used in that module, and every
function and class it defines has a caller outside the unit tests."""

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
