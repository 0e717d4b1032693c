"""Output files and directories. Checkpoint, score, report and dataset files
are replaced whole: a reader sees either the previous file or the complete
new one, never a partial write. A write, a directory creation or a stale-file
removal that the operating system refuses raises an ``OutputError`` that
names the path. :func:`write_csv` is the one writer of the program's CSVs."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from .errors import OutputError


@contextmanager
def output_errors(path) -> Iterator[None]:
    """Turns an ``OSError`` raised in the block into an ``OutputError``
    naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def make_dirs(path) -> None:
    """Creates the directory ``path`` and its parents, if missing."""
    with output_errors(path):
        Path(path).mkdir(parents=True, exist_ok=True)


@contextmanager
def atomic_open(path, newline: str | None = None) -> Iterator[IO[str]]:
    """UTF-8 text handle on a temp file next to ``path``; the file replaces
    ``path`` when the block exits cleanly and is removed if it raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    with output_errors(path):
        try:
            with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def write_csv(path, header, rows) -> None:
    """Writes ``header`` and then each of ``rows`` as a line of the CSV file
    ``path`` (``csv``'s default dialect), replacing it whole; its directory
    is made first if missing."""
    path = Path(path)
    make_dirs(path.parent)
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
