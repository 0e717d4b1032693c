"""Every function of the program is called, read or exported.

A top-level function or public method in ``src/fedtrust`` that no other
program code names runs only under tests, or never. This test fails on such
a name unless the package exports it (``fedtrust._EXPORTS``) or the
benchmark's tracer (``perfbench/tracer.py``) wraps it. The package's module
hooks ``__getattr__`` and ``__dir__`` are called by the interpreter.
"""

import ast
from collections import Counter
from pathlib import Path

import fedtrust
from test_tracer_targets import load_tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "fedtrust"
MODULE_HOOKS = {"__getattr__", "__dir__"}


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
    exported = set(fedtrust._EXPORTS)
    traced = {attr.split(".")[-1] for _, attr, _ in load_tracer().SPAN_TARGETS}
    unreferenced = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in definitions(tree)
        # a function's reads of its own name (recursion) do not count
        if reads[node.name] == names(node)[node.name]
        and node.name not in exported | traced | MODULE_HOOKS
    ]
    assert unreferenced == []
