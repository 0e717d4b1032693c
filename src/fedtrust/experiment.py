"""End-to-end experiment driver: folds of train -> score -> accumulate.

Each fold is an independent repetition with seeds derived from
(master_seed, fold) and writes its own run directory:

    <output_dir>/fold_<f>/round_<t>/...   training checkpoints
    <output_dir>/fold_<f>/scores.csv      per-round scores, all schemes
    <output_dir>/fold_<f>/scores_total.csv accumulated scores (rounds 2..T)
    <output_dir>/fold_<f>/valuation_meta.json utility counts, requests per scheme

A failing fold is recorded in <output_dir>/failures.json and does not stop
the remaining folds. Fold parallelism is capped by the FEDTRUST_THREADS
environment variable (unset/1 = serial, 0 = one worker per CPU).
"""

from __future__ import annotations

import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import nn
from .analysis import AnalysisReport, build_report, write_report
from .config import ExperimentConfig
from .data import Dataset, PartitionSpec, generate_synthetic, load_csv, partition, train_test_split
from .errors import ConfigError, DataError, FedTrustError
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

ALL_METRICS = (Metric.PERF, Metric.FAIR, Metric.REL, Metric.RES)


def worker_count() -> int:
    raw = os.environ.get("FEDTRUST_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"FEDTRUST_THREADS must be an integer, got {raw!r}") from exc
    if n < 0:
        raise ConfigError("FEDTRUST_THREADS must be non-negative")
    return n if n > 0 else (os.cpu_count() or 1)


def _fold_dataset(cfg: ExperimentConfig, fold_seed: int, source: Dataset | None) -> Dataset:
    if source is not None:
        return source
    return generate_synthetic(
        cfg.synthetic_n, cfg.synthetic_d, cfg.group_imbalance, derive_seed(fold_seed, "data")
    )


def _architecture(cfg: ExperimentConfig, feature_dim: int, class_count: int) -> nn.Architecture:
    if cfg.output_activation == "sigmoid":
        if class_count != 2:
            raise ConfigError("sigmoid output needs a binary dataset")
        out_dim = 1
    else:
        out_dim = class_count
    return nn.Architecture(
        (feature_dim, *cfg.hidden_sizes, out_dim),
        nn.OutputActivation(cfg.output_activation),
    )


def run_fold(
    cfg: ExperimentConfig, fold: int, fold_dir, source: Dataset | None = None
) -> ScoreTable:
    """Run one repetition and persist every stage into ``fold_dir``."""
    fold_dir = Path(fold_dir)
    fold_seed = cfg.fold_seed(fold)
    data = _fold_dataset(cfg, fold_seed, source)
    train, test = train_test_split(data, cfg.test_fraction, derive_seed(fold_seed, "split"))
    parts = partition(
        train,
        PartitionSpec(
            cfg.partition_mode,
            cfg.clients,
            cfg.dirichlet_alpha,
            seed=derive_seed(fold_seed, "partition"),
        ),
    )
    arch = _architecture(cfg, train.feature_dim, train.class_count)
    init = nn.init_params(arch, derive_seed(fold_seed, "init"))
    tcfg = cfg.training_config(seed=derive_seed(fold_seed, "train"))
    records = run_training(init, parts, tcfg, writer=RunWriter(fold_dir))

    ctx = EvalContext(
        test=test,
        fairness=FairnessSpec(cfg.target_class),
        noise=NoiseSpec(cfg.sigma, derive_seed(fold_seed, "noise")),
        attack=cfg.attack_spec(),
    )
    vcfg = cfg.valuation_config(perm_seed=derive_seed(fold_seed, "perm"))
    cache = CoalitionCache()
    table = score_rounds(records, cfg.schemes, ALL_METRICS, ctx, vcfg, cache)
    write_scores_csv(table, fold_dir / "scores.csv")
    write_totals_csv(table, cfg.rounds, fold_dir / "scores_total.csv")
    with open(fold_dir / "valuation_meta.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "coalition_evaluations": cache.evaluations,
                "cache_hits": cache.hits,
                "distinct_coalitions": len(cache),
                "metric_undefined_fallbacks": cache.undefined,
                "requested_coalitions": {
                    s.value: len(cache.requested.get(s.value, ())) for s in cfg.schemes
                },
                "schemes": [s.value for s in cfg.schemes],
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    return table


def run_experiment(cfg: ExperimentConfig) -> AnalysisReport:
    """Run all folds, build the cross-fold report, persist everything."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    source: Dataset | None = None
    if cfg.data_source == "csv":
        source = load_csv(cfg.csv_path, cfg.csv_schema())

    def one_fold(fold: int) -> ScoreTable:
        return run_fold(cfg, fold, out_dir / f"fold_{fold}", source)

    tables: dict[int, ScoreTable] = {}
    failures: list[dict] = []
    workers = min(worker_count(), cfg.folds)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {fold: pool.submit(one_fold, fold) for fold in range(cfg.folds)}
            for fold, future in futures.items():
                try:
                    tables[fold] = future.result()
                except FedTrustError as exc:
                    failures.append({"fold": fold, "error": str(exc)})
    else:
        for fold in range(cfg.folds):
            try:
                tables[fold] = one_fold(fold)
            except FedTrustError as exc:
                failures.append({"fold": fold, "error": str(exc)})

    if failures:
        with open(out_dir / "failures.json", "w", encoding="utf-8") as fh:
            json.dump(failures, fh, indent=2, sort_keys=True)
        for failure in failures:
            logger.error("fold %(fold)s failed: %(error)s", failure)
    if not tables:
        raise DataError("every fold failed; no scores to analyze")

    report = build_report([tables[f] for f in sorted(tables)], cfg.rounds)
    write_report(report, out_dir)
    return report


def analyze_run_dir(run_dir) -> AnalysisReport:
    """Rebuild the report from persisted scores only.

    Every fold must cover the same rounds, clients, schemes and metrics.
    """
    run_dir = Path(run_dir)
    score_files = sorted(run_dir.glob("fold_*/scores.csv"))
    if not score_files and (run_dir / "scores.csv").exists():
        score_files = [run_dir / "scores.csv"]
    if not score_files:
        raise DataError(f"no scores.csv found under {run_dir}")
    tables = [read_scores_csv(p) for p in score_files]
    first = tables[0]
    for path, table in zip(score_files[1:], tables[1:]):
        for axis in ("rounds", "clients", "schemes", "metrics"):
            mine, theirs = getattr(table, axis)(), getattr(first, axis)()
            if mine != theirs:
                raise DataError(
                    f"{path}: {axis} {mine} differ from {score_files[0]}: {theirs}"
                )
    last_round = max(first.rounds())
    report = build_report(tables, last_round)
    write_report(report, run_dir)
    return report
