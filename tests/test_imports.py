"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import charlierbd

SRC = Path(charlierbd.__file__).resolve().parent

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
