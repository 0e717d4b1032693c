#!/usr/bin/env python3
"""Peak resident memory of one fold, stage by stage.

    python3 scripts/memory_stages.py CONFIG

Runs fold 0 of CONFIG in this process, writing its files to a temporary
directory in place of the config's output directory, and prints one JSON
line: the process's peak resident set size (``ru_maxrss``, in MB of 10^6
bytes as the benchmark reports ``peak_rss_mb``) right after
``data.fold_split`` and after ``score_rounds``. A fold streams its rounds
(``score_rounds`` pulls each round from the ``run_training`` generator), so
the second figure covers training and scoring together. The peak never
falls, so a second figure above the first says that the rounds raised
it. The program is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the names run_fold calls, in the order they return; score_rounds returns
# once it has drawn, and so trained, every round
STAGES = ("fold_split", "score_rounds")


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def fold_stages(config_path) -> dict[str, float]:
    """The peak RSS in MB after each stage of fold 0 of the config, keyed
    ``after_<stage>_mb`` in stage order."""
    from fedtrust import experiment
    from fedtrust.config import parse_config_file
    from fedtrust.data import load_csv

    cfg = parse_config_file(config_path)
    source = load_csv(cfg.csv_path, cfg.csv_schema()) if cfg.data_source == "csv" else None
    figures: dict[str, float] = {}

    def measured(stage, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            figures[f"after_{stage}_mb"] = peak_mb()
            return result

        return wrapper

    originals = {stage: getattr(experiment, stage) for stage in STAGES}
    try:
        for stage, fn in originals.items():
            setattr(experiment, stage, measured(stage, fn))
        with tempfile.TemporaryDirectory() as out_dir:
            experiment.run_fold(cfg, 0, Path(out_dir) / "fold_0", source)
    finally:
        for stage, fn in originals.items():
            setattr(experiment, stage, fn)
    return figures


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 scripts/memory_stages.py CONFIG", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(fold_stages(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
