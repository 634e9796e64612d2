"""Every public module-level function and class of the package, and every
public method and property of its classes, is used by the package itself
or by the benchmark harness; helpers only tests need live in tests/.
Importing or re-exporting a name is not using it. A
module's private names are its own, apart from the shared helpers of the
base modules graphs and lsem. Only the command line writes files."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bowfree"


def _names(node) -> set[str]:
    """Identifiers a node refers to: names, attributes and the dotted parts
    of strings such as the benchmark tracer's targets. An import is not a
    use, so neither a re-export nor an import that nothing reads keeps a
    definition alive."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def _public(stmt) -> bool:
    return isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")


def _unused_public_definitions(package=PACKAGE, users=ROOT / "perfbench") -> list[str]:
    defs = {}  # public definition -> (the name that refers to it, the names its own body refers to)
    roots = set()  # names referred to outside those definitions
    files = sorted(package.glob("*.py")) + sorted(users.glob("*.py"))
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (_public(stmt) and path.parent == package):
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


def test_a_re_exported_or_imported_definition_is_unused_until_something_reads_it(tmp_path):
    package, users = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    users.mkdir()
    (package / "__init__.py").write_text("from .a import exported, read, read_by_bench\n")
    (package / "a.py").write_text("def exported():\n    pass\n\n\ndef read():\n    pass\n\n\n"
                                  "def read_by_bench():\n    pass\n")
    (package / "b.py").write_text("from .a import exported, read\n\nVALUE = read()\n")
    (users / "run.py").write_text("import pkg\nfrom pkg.a import exported\n\npkg.read_by_bench()\n")
    assert _unused_public_definitions(package, users) == ["exported"]


@pytest.mark.parametrize("source, used", [
    ("import numpy as np", set()),
    ("from .recovery import recover_all as ra", set()),
    ("recover_all(g, sigma)", {"recover_all", "g", "sigma"}),
    ("recovery.recover_all", {"recovery", "recover_all"}),
    ("TARGET = 'bowfree.recovery.recover_all'", {"TARGET", "bowfree", "recovery", "recover_all"}),
], ids=["import", "from-import", "call", "attribute", "dotted-string"])
def test_names_counts_reads_and_not_imports(source, used):
    assert _names(ast.parse(source)) == used


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


def test_only_the_command_line_writes_files():
    writes = {"mkdir", "write_bytes", "write_text"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            # A mode is the first or second argument, as in open(path, "w") and path.open("w"), or ``mode=``.
            modes = [m.value for m in node.args[:2] + [k.value for k in node.keywords if k.arg == "mode"]
                     if isinstance(m, ast.Constant) and isinstance(m.value, str) and set(m.value) <= set("rwxabt+")]
            if name in writes or name == "open" and any(set(m) & set("wax+") for m in modes):
                found.append(f"{path.stem}:{node.lineno}: {name}")
    assert found == []


def test_only_recovery_imports_numpy_private_linalg():
    # _solve calls the gufuncs behind np.linalg.svd and np.linalg.solve; the
    # module is private to numpy, so one module of the package leans on it.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = [node.attr] if isinstance(node, ast.Attribute) else []
            if any("_umath_linalg" in name.split(".") for name in names):
                found.append(path.stem)
    assert sorted(set(found)) == ["recovery"]
