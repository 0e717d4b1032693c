"""Each output check accepts a real fedtrust output and rejects a corrupted copy.

    python3 -m pytest perfbench/tests -q

The fixture runs the CLI once on a small variant of the default workload
(2 folds, 3 rounds, 400 samples, 5 PGD steps; fold 0's final
model classifies the test set perfectly), the same way the benchmark
does, and every test corrupts its own copy of that output.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import tracer

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SMALL = """
data.n = 400
training.rounds = 3
training.learning_rate = 0.01
training.local_epochs = 5
training.batch_size = 8
attack.steps = 5
experiment.folds = 2
experiment.master_seed = 7
"""


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FEDTRUST_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """(config dict, output dir, spans file, counts file) of one traced small run."""
    base = tmp_path_factory.mktemp("small")
    cfg_path = base / "small.txt"
    out = base / "out"
    template = (BENCH_DIR / "workloads" / "default.txt").read_text(encoding="utf-8")
    cfg_path.write_text(f"{template}\n{SMALL}\nexperiment.output_dir = {out}\n", encoding="utf-8")
    spans, counts = base / "spans.csv", base / "counts.json"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), str(counts), "run", str(cfg_path)],
        cwd=ROOT, env=_env(), check=True, capture_output=True, timeout=300,
    )
    return checks.read_config(cfg_path), out, spans, counts


@pytest.fixture
def run_copy(small_run, tmp_path):
    cfg, out, _, _ = small_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return cfg, copy


def _rewrite_score(path: Path, scheme: str, metric: str, client: int, round_idx: int, delta: float) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if row[:4] == [scheme, metric, str(client), str(round_idx)]:
            row[4] = repr(float(row[4]) + delta)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_real_output_passes_every_check(small_run):
    cfg, out, _, _ = small_run
    folds = [0, 1]
    checks.check_complete(out, cfg, folds)
    checks.check_totals(out, cfg, folds)
    checks.check_report(out, cfg, folds)
    gains = checks.independent_gains(out, cfg, folds)
    assert checks.check_exact_efficiency(out, cfg, folds, gains) <= checks.EFFICIENCY_TOL
    checked, skipped = checks.check_gtg_gain(out, cfg, folds, gains)
    assert checked == 2 * 3 * 4 and skipped < checked
    checks.check_accuracy(out, cfg, [0], 0.25)
    checks.check_same_scores([out, out], folds)


def test_reference_test_set_matches_the_program(small_run):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from fedtrust.config import parse_config_text
        from fedtrust.data import generate_synthetic, train_test_split
        from fedtrust.seeding import derive_seed
    finally:
        sys.path.remove(str(ROOT / "src"))
    cfg, _, _, _ = small_run
    program_cfg = parse_config_text("\n".join(f"{k} = {v}" for k, v in cfg.items()))
    for fold in (0, 1):
        fold_seed = program_cfg.fold_seed(fold)
        assert fold_seed == reference.derive_seed(int(cfg["experiment.master_seed"]), "fold", fold)
        data = generate_synthetic(400, 8, 0.3, derive_seed(fold_seed, "data"))
        _, test = train_test_split(data, 0.2, derive_seed(fold_seed, "split"))
        ours = reference.fold_test_set(cfg, fold)
        assert np.array_equal(ours.features, test.features)
        assert np.array_equal(ours.labels, test.labels)
        assert np.array_equal(ours.sensitive, test.sensitive)


def test_perturbed_exact_score_is_rejected(run_copy, small_run):
    cfg, out = run_copy
    _rewrite_score(out / "fold_1" / "scores.csv", "exact_shapley", "perf", 2, 3, 1e-3)
    gains = checks.independent_gains(out, cfg, [0, 1])
    with pytest.raises(checks.CheckError, match="exact Shapley"):
        checks.check_exact_efficiency(out, cfg, [0, 1], gains)
    with pytest.raises(checks.CheckError, match="total"):
        checks.check_totals(out, cfg, [0, 1])
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_same_scores([small_run[1], out], [0, 1])


def test_perturbed_gtg_score_is_rejected(run_copy):
    cfg, out = run_copy
    gains = checks.independent_gains(out, cfg, [0, 1])
    _rewrite_score(out / "fold_0" / "scores.csv", "gtg", "rel", 0, 2, 0.01)
    with pytest.raises(checks.CheckError, match="GTG"):
        checks.check_gtg_gain(out, cfg, [0, 1], gains)


def test_dropped_fold_is_rejected(run_copy):
    cfg, out = run_copy
    shutil.rmtree(out / "fold_1")
    with pytest.raises(checks.CheckError, match="fold directories"):
        checks.check_complete(out, cfg, [0, 1])


def test_shuffled_report_phi_is_rejected(run_copy):
    cfg, out = run_copy
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    metrics = ("fair", "rel", "res")
    by_metric = next(
        by_metric
        for by_metric in report["vs_perf"].values()
        if max(v["phi_mean"] for v in by_metric.values()) - min(v["phi_mean"] for v in by_metric.values()) > 0.1
    )
    phis = [by_metric[m]["phi_mean"] for m in metrics]
    for m, phi in zip(metrics, phis[1:] + phis[:1]):
        by_metric[m]["phi_mean"] = phi
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="phi"):
        checks.check_report(out, cfg, [0, 1])


def test_asymmetric_heatmap_is_rejected(run_copy):
    cfg, out = run_copy
    path = out / "heatmap.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if row[:3] == ["loo", "perf", "res"]:
            row[3] = repr(float(row[3]) + 0.5)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(checks.CheckError, match="heatmap"):
        checks.check_report(out, cfg, [0, 1])


def test_untrained_final_model_is_rejected(run_copy):
    cfg, out = run_copy
    path = out / "fold_0" / "round_3" / "global_after.txt"
    lines = path.read_text(encoding="ascii").splitlines()
    path.write_text("\n".join([lines[0]] + ["0"] * (len(lines) - 1)) + "\n", encoding="ascii")
    with pytest.raises(checks.CheckError, match="majority"):
        checks.check_accuracy(out, cfg, [0], 0.25)


def test_trace_self_times_add_up_to_wall_time(small_run):
    _, _, spans, counts = small_run
    layer = tracer.summarize(spans, counts)
    self_total = sum(v for k, v in layer.items() if k.endswith("_s") and not k.startswith("trace."))
    assert self_total + layer["trace.outside_s"] == pytest.approx(layer["trace.wall_s"], abs=1e-6)
    assert layer["valuation.exact_coalitions"] == 2 * 3 * 4 * 2**4
    assert 0 < layer["valuation.gtg_coalitions"] <= layer["valuation.exact_coalitions"]
    assert layer["attacks.pgd_calls"] > 0 and layer["federation.train_steps"] > 0


def test_span_outside_its_parent_is_rejected(small_run, tmp_path):
    _, _, spans, counts = small_run
    with open(spans, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    child = next(row for row in rows[1:] if int(row[1]) >= 0)
    parent = rows[1 + int(child[1])]
    child[4] = repr(float(parent[4]) + 1.0)
    bad = tmp_path / "spans.csv"
    with open(bad, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(ValueError, match="nest"):
        tracer.summarize(bad, counts)
