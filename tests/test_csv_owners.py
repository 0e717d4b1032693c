"""The program's CSV files have one writer and one reader.

``csv.writer`` is named only in ``atomic.write_csv`` and ``csv.reader`` only
in ``data.read_csv``, and no other module imports ``csv``. So the format,
the atomic replace of a written file and the errors of a read one
(``file:line``) each live in one place.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fedtrust"


def trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_csv_reader_and_writer_are_named_once():
    named = set()
    for module, tree in trees().items():
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and node.attr in ("reader", "writer"):
                    if isinstance(node.value, ast.Name) and node.value.id == "csv":
                        named.add((module, owner, node.attr))
    assert named == {("atomic", "write_csv", "writer"), ("data", "read_csv", "reader")}


def test_only_atomic_and_data_import_csv():
    importers = {
        module
        for module, tree in trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "csv"
    }
    assert importers == {"atomic", "data"}
