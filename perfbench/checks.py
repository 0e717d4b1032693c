"""Output checks for one `fedtrust run` output directory.

Every check either recomputes a value apart from the program (the forward
pass and test split in ``reference``, rank correlations with scipy) or tests
a property the method must have (Shapley efficiency, GTG's truncated
telescoping sums). A check that fails raises ``CheckError``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

import reference

EFFICIENCY_TOL = 1e-9
SUM_TOL = 1e-9
REPORT_TOL = 1e-9
# GTG averages a couple of thousand telescoped permutation sums; this is the
# floating-point slack on top of eps3, far below any eps3 a config uses.
GTG_FLOAT_SLACK = 1e-9


class CheckError(Exception):
    pass


def read_config(path: Path) -> dict[str, str]:
    cfg = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            cfg[key] = value
    return cfg


def schemes_of(cfg: dict[str, str]) -> list[str]:
    return [s.strip() for s in cfg["valuation.schemes"].split(",")]


def read_scores(path: Path) -> dict[tuple[str, str, int, int], float]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["scheme", "metric", "client", "round", "value"]:
        raise CheckError(f"{path}: unexpected header {rows[0]}")
    return {(s, m, int(c), int(t)): float(v) for s, m, c, t, v in rows[1:]}


def read_totals(path: Path) -> dict[tuple[str, str, int], float]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["scheme", "metric", "client", "value"]:
        raise CheckError(f"{path}: unexpected header {rows[0]}")
    return {(s, m, int(c)): float(v) for s, m, c, v in rows[1:]}


def check_complete(run_dir: Path, cfg: dict[str, str], folds: list[int]) -> None:
    """Each fold has every (scheme, metric, client, round) score and checkpoint."""
    rounds = int(cfg["training.rounds"])
    clients = int(cfg["partition.clients"])
    schemes = schemes_of(cfg)
    want = {
        (s, m, c, t)
        for s in schemes
        for m in ("perf", "fair", "rel", "res")
        for c in range(clients)
        for t in range(1, rounds + 1)
    }
    present = sorted(int(p.name.split("_")[1]) for p in Path(run_dir).glob("fold_*"))
    if present != sorted(folds):
        raise CheckError(f"fold directories {present}, expected {sorted(folds)}")
    for fold in folds:
        fold_dir = Path(run_dir) / f"fold_{fold}"
        got = set(read_scores(fold_dir / "scores.csv"))
        if got != want:
            raise CheckError(
                f"fold {fold}: scores.csv has {len(got)} keys, expected {len(want)} "
                f"({len(want - got)} missing, {len(got - want)} unexpected)"
            )
        for t in range(1, rounds + 1):
            for name in ("global_before.txt", "global_after.txt"):
                if not (fold_dir / f"round_{t}" / name).is_file():
                    raise CheckError(f"fold {fold}: round_{t}/{name} is missing")


def check_totals(run_dir: Path, cfg: dict[str, str], folds: list[int]) -> None:
    """scores_total.csv is the sum of rounds 2..T; round 1 is excluded."""
    rounds = int(cfg["training.rounds"])
    for fold in folds:
        fold_dir = Path(run_dir) / f"fold_{fold}"
        scores = read_scores(fold_dir / "scores.csv")
        totals = read_totals(fold_dir / "scores_total.csv")
        want = {}
        for s, m, c, t in scores:
            if t == 1:
                continue
            want[(s, m, c)] = want.get((s, m, c), 0.0) + scores[(s, m, c, t)]
        if set(totals) != set(want):
            raise CheckError(f"fold {fold}: scores_total.csv keys differ from scores.csv")
        for key, value in want.items():
            if abs(totals[key] - value) > SUM_TOL:
                raise CheckError(
                    f"fold {fold}: total {key} = {totals[key]!r}, rounds 2..{rounds} sum to {value!r}"
                )


def _gain(fold_dir: Path, t: int, test: reference.TestSet, metric: str, target: int) -> float:
    """u(N) - u(empty) for round t: the saved global model after and before."""
    after = reference.load_model(fold_dir / f"round_{t}" / "global_after.txt")
    before = reference.load_model(fold_dir / f"round_{t}" / "global_before.txt")
    if metric == "perf":
        return reference.perf(after, test) - reference.perf(before, test)
    return reference.fair(after, test, target) - reference.fair(before, test, target)


def _round_sum(scores: dict, scheme: str, metric: str, t: int, clients: int) -> float:
    return sum(scores[(scheme, metric, c, t)] for c in range(clients))


def independent_gains(run_dir: Path, cfg: dict[str, str], folds: list[int]) -> dict:
    """(fold, round, metric) -> u(N) - u(empty) for perf and fair, from checkpoints."""
    target = int(cfg["metrics.target_class"])
    gains = {}
    for fold in folds:
        test = reference.fold_test_set(cfg, fold)
        for t in range(1, int(cfg["training.rounds"]) + 1):
            for metric in ("perf", "fair"):
                gains[(fold, t, metric)] = _gain(Path(run_dir) / f"fold_{fold}", t, test, metric, target)
    return gains


def check_exact_efficiency(run_dir: Path, cfg: dict[str, str], folds: list[int], gains: dict) -> float:
    """Exact Shapley scores of a round sum to u(N) - u(empty); returns the largest gap."""
    clients = int(cfg["partition.clients"])
    scores_of = {fold: read_scores(Path(run_dir) / f"fold_{fold}" / "scores.csv") for fold in folds}
    worst = 0.0
    for (fold, t, metric), gain in gains.items():
        scores = scores_of[fold]
        gap = abs(_round_sum(scores, "exact_shapley", metric, t, clients) - gain)
        if not gap <= EFFICIENCY_TOL:
            raise CheckError(
                f"fold {fold} round {t} {metric}: exact Shapley scores sum to "
                f"{_round_sum(scores, 'exact_shapley', metric, t, clients)!r}, u(N) - u(empty) = {gain!r}"
            )
        worst = max(worst, gap)
    return worst


def check_gtg_gain(run_dir: Path, cfg: dict[str, str], folds: list[int], gains: dict) -> tuple[int, int]:
    """GTG's round scores are all 0 on a skipped round, else sum to within eps3 of the gain.

    The gain is the independent one for perf and fair; for rel and res it is
    the sum of exact Shapley scores when that scheme ran, and the pair is not
    checked otherwise. Returns (pairs checked, pairs skipped by eps1).
    """
    clients = int(cfg["partition.clients"])
    eps1 = float(cfg["valuation.eps1"])
    eps3 = float(cfg["valuation.eps3"])
    with_exact = "exact_shapley" in schemes_of(cfg)
    checked = skipped = 0
    for fold in folds:
        scores = read_scores(Path(run_dir) / f"fold_{fold}" / "scores.csv")
        for t in range(1, int(cfg["training.rounds"]) + 1):
            for metric in ("perf", "fair", "rel", "res"):
                if (fold, t, metric) in gains:
                    gain = gains[(fold, t, metric)]
                elif with_exact:
                    gain = _round_sum(scores, "exact_shapley", metric, t, clients)
                else:
                    continue
                values = [scores[("gtg", metric, c, t)] for c in range(clients)]
                checked += 1
                if all(v == 0.0 for v in values) and abs(gain) < eps1:
                    skipped += 1
                    continue
                gap = abs(sum(values) - gain)
                if not gap <= eps3 + GTG_FLOAT_SLACK:
                    raise CheckError(
                        f"fold {fold} round {t} {metric}: GTG scores sum to {sum(values)!r}, "
                        f"{gap:.3g} away from u(N) - u(empty) = {gain!r} (eps3 {eps3})"
                    )
    return checked, skipped


def _spearman(a: np.ndarray, b: np.ndarray) -> tuple[float, bool]:
    if np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0, True
    return float(spearmanr(a, b).statistic), False


def check_report(run_dir: Path, cfg: dict[str, str], folds: list[int]) -> None:
    """report.json and heatmap.csv against scipy rank correlations of scores_total.csv."""
    clients = int(cfg["partition.clients"])
    metrics = ["fair", "perf", "rel", "res"]
    vectors = []
    for fold in folds:
        totals = read_totals(Path(run_dir) / f"fold_{fold}" / "scores_total.csv")
        vectors.append(
            {(s, m): np.array([totals[(s, m, c)] for c in range(clients)]) for s, m, _ in totals}
        )
    report = json.loads((Path(run_dir) / "report.json").read_text(encoding="utf-8"))
    if report["folds"] != len(folds):
        raise CheckError(f"report.json covers {report['folds']} folds, expected {len(folds)}")
    with open(Path(run_dir) / "heatmap.csv", encoding="utf-8", newline="") as fh:
        heat_rows = list(csv.reader(fh))[1:]
    heatmap = {(s, a, b): float(v) for s, a, b, v in heat_rows}
    for scheme in sorted(schemes_of(cfg)):
        for metric in ("fair", "rel", "res"):
            pairs = [_spearman(v[(scheme, metric)], v[(scheme, "perf")]) for v in vectors]
            got = report["vs_perf"][scheme][metric]
            phi = float(np.mean([p for p, _ in pairs]))
            degenerate = sum(d for _, d in pairs)
            l2 = float(np.mean([math.sqrt(np.mean((v[(scheme, metric)] - v[(scheme, "perf")]) ** 2)) for v in vectors]))
            if abs(got["phi_mean"] - phi) > REPORT_TOL or got["degenerate_folds"] != degenerate:
                raise CheckError(
                    f"report.json {scheme}/{metric}: phi {got['phi_mean']!r} "
                    f"({got['degenerate_folds']} degenerate), scipy gives {phi!r} ({degenerate})"
                )
            if abs(got["l2_mean"] - l2) > REPORT_TOL:
                raise CheckError(f"report.json {scheme}/{metric}: l2 {got['l2_mean']!r}, expected {l2!r}")
        for a in metrics:
            if heatmap.get((scheme, a, a)) != 1.0:
                raise CheckError(f"heatmap.csv {scheme}: diagonal entry {a} is not 1")
            for b in metrics:
                if a == b:
                    continue
                value = heatmap[(scheme, a, b)]
                if value != heatmap[(scheme, b, a)]:
                    raise CheckError(f"heatmap.csv {scheme}: ({a}, {b}) and ({b}, {a}) differ")
                want = float(np.mean([_spearman(v[(scheme, a)], v[(scheme, b)])[0] for v in vectors]))
                if abs(value - want) > REPORT_TOL:
                    raise CheckError(f"heatmap.csv {scheme} ({a}, {b}) = {value!r}, scipy gives {want!r}")


def check_accuracy(run_dir: Path, cfg: dict[str, str], folds: list[int], margin: float) -> float:
    """The final global model beats the majority-class rate by ``margin``; returns the worst lead."""
    rounds = int(cfg["training.rounds"])
    worst = math.inf
    for fold in folds:
        test = reference.fold_test_set(cfg, fold)
        model = reference.load_model(Path(run_dir) / f"fold_{fold}" / f"round_{rounds}" / "global_after.txt")
        accuracy = reference.perf(model, test)
        majority = max(float(np.mean(test.labels == c)) for c in (0, 1))
        if accuracy < majority + margin:
            raise CheckError(
                f"fold {fold}: final test accuracy {accuracy:.4f} is not {margin} above "
                f"the majority-class rate {majority:.4f}"
            )
        worst = min(worst, accuracy - majority)
    return worst


def check_same_scores(run_dirs: list[Path], folds: list[int]) -> None:
    """Every run of one workload and seed writes byte-identical scores.csv."""
    for fold in folds:
        first = (Path(run_dirs[0]) / f"fold_{fold}" / "scores.csv").read_bytes()
        for other in run_dirs[1:]:
            if (Path(other) / f"fold_{fold}" / "scores.csv").read_bytes() != first:
                raise CheckError(f"fold {fold}: scores.csv differs between {run_dirs[0]} and {other}")
