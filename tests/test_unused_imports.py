"""Every name that a module of the library, its tests, its tools or its
benchmark harness imports is used in it, listed in its ``__all__``, or
imported on a line marked ``# noqa: F401``. The files are only read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src/regulate", "tests", "tools", "perfbench") for path in (ROOT / top).rglob("*.py"))


def unused_imports(path: Path) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path) == []
