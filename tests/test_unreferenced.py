"""Every function of the program is called, read or exported.

A top-level function or public method in ``src/fedtrust`` that no other
program code names runs only under tests, or never. This test fails on such
a name unless ``fedtrust/__init__.py`` imports it or the benchmark's tracer
(``perfbench/tracer.py``) wraps it.
"""

import ast
from collections import Counter
from pathlib import Path

from test_tracer_targets import load_tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "fedtrust"


def names(node):
    """How often each identifier is read under ``node``: bare names and
    attributes."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def definitions(tree):
    """Each top-level function and public method under a module's tree."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )


def test_every_function_is_referenced_exported_or_traced():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = sum((names(tree) for tree in trees.values()), Counter())
    exported = {
        alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    traced = {attr.split(".")[-1] for _, attr, _ in load_tracer().SPAN_TARGETS}
    unreferenced = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in definitions(tree)
        # a function's reads of its own name (recursion) do not count
        if reads[node.name] == names(node)[node.name]
        and node.name not in exported | traced
    ]
    assert unreferenced == []
