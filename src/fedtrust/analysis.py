"""Cross-metric score comparison: rank correlation, RMSE, round variance.

Spearman correlation is computed over average ranks (ties share the mean of
the positions they occupy). A constant input vector makes rank correlation
undefined; those cases return 0.0 together with a degeneracy flag, and the
CSV renderer prints an em-dash for them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .atomic import atomic_open, make_dirs, output_errors, write_csv
from .errors import InputError
from .metrics import Metric
from .valuation import ScoreTable, score_vectors

DASH = "—"


class SpearmanResult(NamedTuple):
    phi: float
    degenerate: bool


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks, 1-based; equal values share the mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_flagged(a: Sequence[float], b: Sequence[float]) -> SpearmanResult:
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError(f"score vectors must share a 1-d shape: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise InputError("rank correlation needs at least two entries")
    if np.all(x == x[0]) or np.all(y == y[0]):
        return SpearmanResult(0.0, True)
    rx = _ranks(x) - (len(x) + 1) / 2.0
    ry = _ranks(y) - (len(y) + 1) / 2.0
    phi = float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))
    return SpearmanResult(phi, False)


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Rank correlation in [-1, 1]; 0.0 when either vector is constant."""
    return spearman_flagged(a, b).phi


def rmse(a: Sequence[float], b: Sequence[float]) -> float:
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise InputError(f"length mismatch: {x.shape} vs {y.shape}")
    return float(np.sqrt(np.mean((x - y) ** 2)))


def per_round_variance(table: ScoreTable) -> dict[tuple[str, str], float]:
    """Mean over clients of the population variance across rounds 2..T of
    ``table.grid()``.

    A table holding a single round, or missing a score, is an
    ``InputError``; with exactly one scored round (T=2) the per-client
    variance is zero.
    """
    variances = table.grid()[..., 1:].var(axis=-1).mean(axis=-1).ravel().tolist()
    return dict(zip(itertools.product(table.schemes(), table.metrics()), variances))


@dataclass(frozen=True)
class PairStats:
    phi_mean: float
    phi_std: float
    l2_mean: float
    l2_std: float
    degenerate_folds: int


@dataclass
class AnalysisReport:
    """Fold-aggregated comparison of every trust metric against perf, in
    the shape ``report.json`` holds it.

    ``vs_perf`` maps scheme -> metric -> PairStats; ``heatmap`` holds the
    full pairwise Spearman matrix per scheme (fold means); ``round_variance``
    maps scheme -> metric -> ``{"mean": ..., "std": ...}`` over folds of the
    mean-over-clients population variance across rounds. Correlations are
    averaged per fold (never pooled across folds).

    The heatmap matrix is symmetric with a unit diagonal but is NOT
    guaranteed positive semi-definite (fold-averaged rank correlations need
    not be), so no such check exists or should be added.
    """

    folds: int
    schemes: list[str]
    metrics: list[str]
    vs_perf: dict[str, dict[str, PairStats]]
    heatmap: dict[str, dict[str, dict[str, float]]]
    round_variance: dict[str, dict[str, dict[str, float]]]
    metadata: dict[str, str]


def build_report(tables: Sequence[ScoreTable]) -> AnalysisReport:
    """Aggregate fold score tables, complete to their ``last_round()``,
    into one report. Folds must hold the same rounds, clients, schemes and
    metrics, perf among them, or an ``InputError`` names the fold's
    position and the axis. Each unordered pair of distinct metrics is
    correlated once per scheme and fold; φ and the degeneracy flag are
    symmetric, so the vs-perf entry and both heatmap cells read that result.
    """
    if not tables:
        raise InputError("report needs at least one fold table")
    first = tables[0]
    for fold, table in enumerate(tables[1:], start=1):
        for axis in ("rounds", "clients", "schemes", "metrics"):
            mine, theirs = getattr(table, axis)(), getattr(first, axis)()
            if mine != theirs:
                raise InputError(f"fold {fold}: {axis} {mine} differ from fold 0: {theirs}")
    schemes, metrics = first.schemes(), first.metrics()
    perf = Metric.PERF.value
    if perf not in metrics:
        raise InputError(f"fold 0: metrics {metrics} hold no perf scores to compare them with")

    vs_perf: dict[str, dict[str, PairStats]] = {}
    heatmap: dict[str, dict[str, dict[str, float]]] = {}
    round_variance: dict[str, dict[str, dict[str, float]]] = {}
    fold_vectors = [score_vectors(table) for table in tables]
    fold_variances = [per_round_variance(table) for table in tables]

    for scheme in schemes:
        # (metric_a, metric_b) -> (per-fold phis, degenerate folds), both orders
        pairs: dict[tuple[str, str], tuple[np.ndarray, int]] = {}
        for ma, mb in itertools.combinations(metrics, 2):
            folds = [spearman_flagged(v[(scheme, ma)], v[(scheme, mb)]) for v in fold_vectors]
            pairs[ma, mb] = pairs[mb, ma] = (
                np.array([r.phi for r in folds]),
                sum(r.degenerate for r in folds),
            )
        vs_perf[scheme] = {}
        for metric in metrics:
            if metric == perf:
                continue
            phis, degenerate = pairs[metric, perf]
            l2s = np.array([rmse(v[(scheme, metric)], v[(scheme, perf)]) for v in fold_vectors])
            vs_perf[scheme][metric] = PairStats(
                float(phis.mean()), float(phis.std()), float(l2s.mean()), float(l2s.std()),
                degenerate,
            )
        heatmap[scheme] = {
            ma: {mb: 1.0 if ma == mb else float(pairs[ma, mb][0].mean()) for mb in metrics}
            for ma in metrics
        }
        variances = {m: np.array([fv[(scheme, m)] for fv in fold_variances]) for m in metrics}
        round_variance[scheme] = {
            m: {"mean": float(v.mean()), "std": float(v.std())} for m, v in variances.items()
        }

    return AnalysisReport(
        folds=len(tables),
        schemes=schemes,
        metrics=metrics,
        vs_perf=vs_perf,
        heatmap=heatmap,
        round_variance=round_variance,
        metadata={
            "round_variance_kind": "population",
            "fold_aggregation": "mean of per-fold correlations",
        },
    )


# The files write_report writes into the run directory.
REPORT_FILES = ("report.json", "report.csv", "heatmap.csv")


def remove_report(out_dir) -> None:
    """Deletes the files ``write_report`` writes, so that a run or analysis
    that fails before its report leaves no earlier one behind."""
    for name in REPORT_FILES:
        path = Path(out_dir) / name
        with output_errors(path):
            path.unlink(missing_ok=True)


def write_report(report: AnalysisReport, out_dir) -> None:
    """Emit report.json, report.csv (vs-perf table) and heatmap.csv."""
    out_dir = Path(out_dir)
    make_dirs(out_dir)
    with atomic_open(out_dir / "report.json") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True, allow_nan=False)
    vs_perf = []
    for scheme in report.schemes:
        for metric, stats in report.vs_perf[scheme].items():
            degenerate = stats.degenerate_folds == report.folds
            vs_perf.append(
                [
                    scheme,
                    metric,
                    DASH if degenerate else repr(stats.phi_mean),
                    DASH if degenerate else repr(stats.phi_std),
                    repr(stats.l2_mean),
                    repr(stats.l2_std),
                ]
            )
    header = ["scheme", "metric", "phi", "phi_std", "l2", "l2_std"]
    write_csv(out_dir / "report.csv", header, vs_perf)
    write_csv(
        out_dir / "heatmap.csv",
        ["scheme", "metric_a", "metric_b", "phi"],
        (
            [scheme, ma, mb, repr(report.heatmap[scheme][ma][mb])]
            for scheme in report.schemes
            for ma in report.metrics
            for mb in report.metrics
        ),
    )
