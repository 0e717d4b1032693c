"""Cross-metric score comparison: rank correlation, RMSE, round variance.

Spearman correlation is computed over average ranks (ties share the mean of
the positions they occupy). A constant input vector makes rank correlation
undefined; those cases return 0.0 together with a degeneracy flag, and the
CSV renderer prints an em-dash for them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .atomic import atomic_open, make_dirs
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


def per_round_variance(table: ScoreTable, last_round: int) -> dict[tuple[str, str], float]:
    """Mean over clients of the population variance across rounds 2..T.

    A table holding a single round has no fluctuation view at all; with
    exactly one scored round (T=2) the per-client variance is zero.
    """
    if last_round < 2:
        raise InputError("round variance needs a table spanning at least two rounds")
    rounds = [t for t in range(2, last_round + 1)]
    out: dict[tuple[str, str], float] = {}
    for scheme in table.schemes():
        for metric in table.metrics():
            per_client = []
            for client in table.clients():
                series = np.array([table.value(scheme, metric, client, t) for t in rounds])
                per_client.append(float(series.var()))
            out[(scheme, metric)] = float(np.mean(per_client))
    return out


@dataclass(frozen=True)
class PairStats:
    phi_mean: float
    phi_std: float
    l2_mean: float
    l2_std: float
    degenerate_folds: int


@dataclass
class AnalysisReport:
    """Fold-aggregated comparison of every trust metric against perf.

    ``vs_perf`` maps scheme -> metric -> PairStats; ``heatmap`` holds the
    full pairwise Spearman matrix per scheme (fold means); round variance is
    mean-over-clients population variance across rounds, mean +- std over
    folds. Correlations are averaged per fold (never pooled across folds).

    The heatmap matrix is symmetric with a unit diagonal but is NOT
    guaranteed positive semi-definite (fold-averaged rank correlations need
    not be), so no such check exists or should be added.
    """

    folds: int
    schemes: list[str]
    metrics: list[str]
    vs_perf: dict[str, dict[str, PairStats]]
    heatmap: dict[str, dict[str, dict[str, float]]]
    round_variance: dict[str, dict[str, tuple[float, float]]]
    metadata: dict[str, str]

    def to_json_dict(self) -> dict:
        return {
            "folds": self.folds,
            "schemes": self.schemes,
            "metrics": self.metrics,
            "vs_perf": {
                s: {
                    m: {
                        "phi_mean": st.phi_mean,
                        "phi_std": st.phi_std,
                        "l2_mean": st.l2_mean,
                        "l2_std": st.l2_std,
                        "degenerate_folds": st.degenerate_folds,
                    }
                    for m, st in by_metric.items()
                }
                for s, by_metric in self.vs_perf.items()
            },
            "heatmap": self.heatmap,
            "round_variance": {
                s: {m: {"mean": mv[0], "std": mv[1]} for m, mv in by_metric.items()}
                for s, by_metric in self.round_variance.items()
            },
            "metadata": self.metadata,
        }


def build_report(tables: Sequence[ScoreTable], last_round: int) -> AnalysisReport:
    """Aggregate fold score tables into one report."""
    if not tables:
        raise InputError("report needs at least one fold table")
    schemes = tables[0].schemes()
    metrics = tables[0].metrics()
    for t in tables[1:]:
        if t.schemes() != schemes or t.metrics() != metrics:
            raise InputError("fold tables disagree on schemes/metrics")

    vs_perf: dict[str, dict[str, PairStats]] = {}
    heatmap: dict[str, dict[str, dict[str, float]]] = {}
    round_variance: dict[str, dict[str, tuple[float, float]]] = {}
    fold_vectors = [score_vectors(table, last_round) for table in tables]
    fold_variances = [per_round_variance(table, last_round) for table in tables]

    for scheme in schemes:
        vs_perf[scheme] = {}
        for metric in metrics:
            if metric == Metric.PERF.value:
                continue
            results = [
                spearman_flagged(vecs[(scheme, metric)], vecs[(scheme, Metric.PERF.value)])
                for vecs in fold_vectors
            ]
            l2s = [
                rmse(vecs[(scheme, metric)], vecs[(scheme, Metric.PERF.value)])
                for vecs in fold_vectors
            ]
            phis = np.array([r.phi for r in results])
            vs_perf[scheme][metric] = PairStats(
                phi_mean=float(phis.mean()),
                phi_std=float(phis.std()),
                l2_mean=float(np.mean(l2s)),
                l2_std=float(np.std(l2s)),
                degenerate_folds=sum(r.degenerate for r in results),
            )
        heatmap[scheme] = {}
        for ma in metrics:
            heatmap[scheme][ma] = {}
            for mb in metrics:
                phis = np.array(
                    [
                        spearman_flagged(vecs[(scheme, ma)], vecs[(scheme, mb)]).phi
                        if ma != mb
                        else 1.0
                        for vecs in fold_vectors
                    ]
                )
                heatmap[scheme][ma][mb] = float(phis.mean())
        round_variance[scheme] = {}
        for metric in metrics:
            values = np.array([fv[(scheme, metric)] for fv in fold_variances])
            round_variance[scheme][metric] = (float(values.mean()), float(values.std()))

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


def write_report(report: AnalysisReport, out_dir) -> None:
    """Emit report.json, report.csv (vs-perf table) and heatmap.csv."""
    out_dir = Path(out_dir)
    make_dirs(out_dir)
    with atomic_open(out_dir / "report.json") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
    with atomic_open(out_dir / "report.csv", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "metric", "phi", "phi_std", "l2", "l2_std"])
        for scheme in report.schemes:
            for metric, stats in report.vs_perf[scheme].items():
                degenerate = stats.degenerate_folds == report.folds
                writer.writerow(
                    [
                        scheme,
                        metric,
                        DASH if degenerate else repr(stats.phi_mean),
                        DASH if degenerate else repr(stats.phi_std),
                        repr(stats.l2_mean),
                        repr(stats.l2_std),
                    ]
                )
    with atomic_open(out_dir / "heatmap.csv", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "metric_a", "metric_b", "phi"])
        for scheme in report.schemes:
            for ma in report.metrics:
                for mb in report.metrics:
                    writer.writerow([scheme, ma, mb, repr(report.heatmap[scheme][ma][mb])])
