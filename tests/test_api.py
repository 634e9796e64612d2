"""Every public module-level function and class of the package is used by
the package itself or by the benchmark harness; helpers only tests need
live in tests/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bowfree"


def _names(node) -> set[str]:
    """Identifiers a node refers to: names, attributes, imported names and
    the dotted parts of strings such as the benchmark tracer's targets."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def _unused_public_definitions() -> list[str]:
    defs = {}  # public name -> the names its own definition refers to
    roots = set()  # names referred to outside those definitions
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            public = isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
            if public and path.parent == PACKAGE:
                defs[stmt.name] = _names(stmt) - {stmt.name}
            else:
                roots |= _names(stmt)
    # A definition is used when a root or another used definition names it,
    # so helpers that only unused helpers call are unused too.
    used, frontier = set(), roots & defs.keys()
    while frontier:
        used |= frontier
        frontier = set().union(*(defs[name] for name in frontier)) & defs.keys() - used
    return sorted(defs.keys() - used)


def test_every_public_definition_is_used_outside_tests():
    assert _unused_public_definitions() == []
