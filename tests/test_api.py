"""Every public module-level function and class of the package, and every
public method and property of its classes, is used by the package itself
or by the benchmark harness; helpers only tests need live in tests/. A
module's private names are its own, apart from the shared helpers of the
base modules graphs and lsem."""

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


def _public(stmt) -> bool:
    return isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")


def _unused_public_definitions() -> list[str]:
    defs = {}  # public definition -> (the name that refers to it, the names its own body refers to)
    roots = set()  # names referred to outside those definitions
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (_public(stmt) and path.parent == PACKAGE):
                roots |= _names(stmt)
                continue
            methods = [m for m in stmt.body if isinstance(stmt, ast.ClassDef) and _public(m)]
            for m in methods:  # a method or property is named by attribute, as Class.method
                defs[f"{stmt.name}.{m.name}"] = (m.name, _names(m))
            stmt.body = [m for m in stmt.body if m not in methods]  # the class's own body, dunders included
            defs[stmt.name] = (stmt.name, _names(stmt) - {stmt.name})
    # A definition is used when a root or another used definition names it,
    # so helpers that only unused helpers call are unused too.
    used, named = set(), set(roots)
    while frontier := {d for d, (name, _) in defs.items() if name in named} - used:
        used |= frontier
        named |= set().union(*(defs[d][1] for d in frontier))
    return sorted(defs.keys() - used)


def test_every_public_definition_is_used_outside_tests():
    assert _unused_public_definitions() == []


def test_package_modules_import_private_names_only_from_graphs_and_lsem():
    shared = {"graphs", "lsem"}
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module not in shared:
                found += [f"{path.stem}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.attr.startswith("_"):
                if node.value.id in modules - shared:  # a module imported whole, as in ``from . import recovery``
                    found.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert found == []
