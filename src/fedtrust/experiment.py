"""End-to-end experiment driver: folds of train -> score -> accumulate.

Each fold is an independent repetition with seeds derived from
(master_seed, fold). A fold streams its rounds: ``run_training`` hands each
round's record to ``score_rounds`` once the round is checkpointed, and the
next round is trained only after that record is scored, so a fold holds one
round's models and coalition state at a time. Each fold writes its own run
directory:

    <output_dir>/fold_<f>/round_<t>/...   training checkpoints
    <output_dir>/fold_<f>/scores.csv      per-round scores, all schemes
    <output_dir>/fold_<f>/scores_total.csv accumulated scores (rounds 2..T)
    <output_dir>/fold_<f>/valuation_meta.json utility counts, requests per scheme

A failing fold is recorded in <output_dir>/failures.json and does not stop
the remaining folds; if every fold fails, the run raises the first fold's
error class, so it exits with that fold's code. An ``OutputError`` (a file
or directory the run cannot write or remove) is not a failed fold: it stops
the run at once, before any report is written. A rerun into the same
directory first removes the score files of every fold_<f> there, including
folds past this run's count, and the run's report files, and drops a stale
failures.json, so neither ``analyze`` nor a reader of a failed rerun finds
scores or a report an earlier run left. Each fold this run trains first
drops all of its round_<t> checkpoints, so a fold that fails keeps only the
rounds it reached: a round that fails in training or in scoring is the last
one it keeps. The checkpoints of folds past this run's count stay.
"""

from __future__ import annotations

import json
import logging
import re
import shutil
from pathlib import Path

from . import nn
from .analysis import AnalysisReport, build_report, remove_report, write_report
from .atomic import atomic_open, make_dirs, output_errors
from .config import ExperimentConfig, check_model_size, check_target_class
from .data import Dataset, fold_split, load_csv
from .errors import ConfigError, DataError, FedTrustError, InputError, OutputError
from .federation import RunWriter, run_training
from .metrics import EvalContext, FairnessSpec, Metric, NoiseSpec
from .seeding import derive_seed
from .valuation import (
    CoalitionCache,
    ScoreTable,
    read_scores_csv,
    score_rounds,
    write_scores_csv,
    write_totals_csv,
)

logger = logging.getLogger(__name__)


def _architecture(cfg: ExperimentConfig, feature_dim: int, class_count: int) -> nn.Architecture:
    check_target_class(cfg.target_class, class_count)
    if cfg.output_activation == "sigmoid":
        if class_count != 2:
            raise ConfigError("sigmoid output needs a binary dataset")
        out_dim = 1
    else:
        out_dim = class_count
    sizes = (feature_dim, *cfg.hidden_sizes, out_dim)
    check_model_size(sizes)
    return nn.Architecture(sizes, nn.OutputActivation(cfg.output_activation))


def run_fold(
    cfg: ExperimentConfig, fold: int, fold_dir, source: Dataset | None = None
) -> ScoreTable:
    """Run one repetition and persist every stage into ``fold_dir``: the
    fold's data (``data.fold_split``), then training and scoring a round at
    a time (``run_training`` feeds ``score_rounds``), then the score files.
    A CSV ``source`` stays with the caller, shared by every fold.
    """
    fold_dir = Path(fold_dir)
    for stale in fold_dir.glob("round_*"):
        if re.fullmatch(r"round_\d+", stale.name):
            with output_errors(stale):
                shutil.rmtree(stale)
    fold_seed = cfg.fold_seed(fold)
    parts, test = fold_split(cfg, fold_seed, source)
    arch = _architecture(cfg, test.feature_dim, test.class_count)
    ctx = EvalContext(
        test=test,
        fairness=FairnessSpec(cfg.target_class),
        noise=NoiseSpec(cfg.sigma, derive_seed(fold_seed, "noise")),
        attack=cfg.attack_spec(),
    )
    vcfg = cfg.valuation_config(perm_seed=derive_seed(fold_seed, "perm"))
    cache = CoalitionCache(ctx)
    tcfg = cfg.training_config(seed=derive_seed(fold_seed, "train"))
    rounds = run_training(
        nn.init_params(arch, derive_seed(fold_seed, "init")), parts, tcfg, writer=RunWriter(fold_dir)
    )
    table = score_rounds(rounds, cfg.schemes, tuple(Metric), vcfg, cache)
    write_scores_csv(table, fold_dir / "scores.csv")
    write_totals_csv(table, fold_dir / "scores_total.csv")
    with atomic_open(fold_dir / "valuation_meta.json") as fh:
        json.dump(
            {
                "coalition_evaluations": cache.evaluations,
                "cache_hits": cache.hits,
                "distinct_coalitions": cache.evaluations,
                "metric_undefined_fallbacks": cache.undefined,
                "requested_coalitions": {s.value: cache.requested.get(s.value, 0) for s in cfg.schemes},
                "schemes": [s.value for s in cfg.schemes],
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    return table


def run_experiment(cfg: ExperimentConfig) -> AnalysisReport:
    """Run all folds, build the cross-fold report, persist everything. A CSV
    the model cannot serve fails before the output directory is made."""
    source: Dataset | None = None
    if cfg.data_source == "csv":
        source = load_csv(cfg.csv_path, cfg.csv_schema())
        _architecture(cfg, source.feature_dim, source.class_count)
    out_dir = Path(cfg.output_dir)
    make_dirs(out_dir)

    for name in ("scores.csv", "scores_total.csv", "valuation_meta.json"):
        for stale in out_dir.glob(f"fold_*/{name}"):
            with output_errors(stale):
                stale.unlink()
    remove_report(out_dir)
    tables: dict[int, ScoreTable] = {}
    failures: list[dict] = []
    first_error: FedTrustError | None = None
    for fold in range(cfg.folds):
        try:
            tables[fold] = run_fold(cfg, fold, out_dir / f"fold_{fold}", source)
        except OutputError:
            raise  # a disk that refuses writes is not a failed fold
        except FedTrustError as exc:
            failures.append({"fold": fold, "error": str(exc)})
            first_error = first_error or exc

    failures_path = out_dir / "failures.json"
    if failures:
        with atomic_open(failures_path) as fh:
            json.dump(failures, fh, indent=2, sort_keys=True)
        for failure in failures:
            logger.error("fold %(fold)s failed: %(error)s", failure)
    else:
        with output_errors(failures_path):
            failures_path.unlink(missing_ok=True)
    if not tables:
        # The first fold's error class keeps its exit code: a run whose
        # every fold diverged is a numeric error, not a data error.
        raise type(first_error)(
            f"every fold failed; no scores to analyze (fold 0: {first_error})"
        ) from first_error

    report = build_report(list(tables.values()))
    write_report(report, out_dir)
    return report


def analyze_run_dir(run_dir) -> AnalysisReport:
    """Rebuild the report from persisted scores only.

    Folds are read in fold order, as ``run_experiment`` builds its report.
    The earlier report files go before any score file is read. A table that
    ``last_round`` rejects is then a ``DataError`` naming its file, and
    folds that ``build_report`` rejects are one naming the run directory;
    either leaves no report.
    """
    run_dir = Path(run_dir)
    folds = {
        int(match[1]): path
        for path in run_dir.glob("fold_*/scores.csv")
        if (match := re.fullmatch(r"fold_(\d+)", path.parent.name))
    }
    score_files = [folds[f] for f in sorted(folds)]
    if not score_files and (run_dir / "scores.csv").exists():
        score_files = [run_dir / "scores.csv"]
    if not score_files:
        raise DataError(f"no scores.csv found under {run_dir}")
    remove_report(run_dir)
    tables = [read_scores_csv(p) for p in score_files]
    for path, table in zip(score_files, tables):
        try:
            table.last_round()
        except InputError as exc:
            raise DataError(f"{path}: {exc}") from exc
    try:
        report = build_report(tables)
    except InputError as exc:
        raise DataError(f"{run_dir}: {exc}") from exc
    write_report(report, run_dir)
    return report
