"""Package surface: no private names cross module boundaries, and the
top-level `__all__` lists each exported name once and every one resolves."""

import ast
from pathlib import Path

import pgroups

SRC = Path(__file__).resolve().parents[1] / "src" / "pgroups"


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        offenders.append(f"{path.name}: from .{node.module or ''} import {alias.name}")
    assert offenders == []


def test_all_names_resolve_and_are_listed_once():
    names = pgroups.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(pgroups, name), name
    # the top level stays what the CLI, the demos and the README examples use
    assert len(names) <= 30


def test_every_public_function_or_class_has_a_caller_or_is_exported():
    # code that no path needs is deleted, not kept alive by its tests
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    reads = [(getattr(n, "id", None) or getattr(n, "attr", None), n) for n in nodes]
    orphans = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own = set(map(id, ast.walk(node)))
                if node.name not in pgroups.__all__ and not any(
                    name == node.name and id(n) not in own for name, n in reads
                ):
                    orphans.append(f"{module}.{node.name}")
    assert orphans == []


def test_no_module_imports_a_name_it_never_reads():
    # a name left imported after its last reader goes is dead code too; the
    # package's `__all__` re-exports are read by its users
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if path.name == "__init__.py":
            read |= set(pgroups.__all__)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}: {name}")
    assert unread == []
