"""Whole-file replacement for checkpoint, score, report and dataset files:
a reader sees either the previous file or the complete new one, never a
partial write."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_open(path, newline: str | None = None) -> Iterator[IO[str]]:
    """UTF-8 text handle on a temp file next to ``path``; the file replaces
    ``path`` when the block exits cleanly and is removed if it raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
