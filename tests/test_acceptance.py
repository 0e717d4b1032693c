"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The full-scale experiment criteria (8, 9) share one
default-configuration run via module fixtures.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fedtrust.analysis import build_report, per_round_variance, rmse, spearman
from fedtrust.attacks import AttackSpec, pgd_batch
from fedtrust.cli import main
from fedtrust.config import ExperimentConfig
from fedtrust.data import (
    PartitionMode,
    PartitionSpec,
    generate_synthetic,
    partition,
    train_test_split,
)
from fedtrust.experiment import run_experiment
from fedtrust.federation import ClientUpdate, RoundRecord, TrainingConfig, run_training
from fedtrust.metrics import EvalContext, FairnessSpec, Metric, NoiseSpec, evaluate
from fedtrust.nn import (
    Architecture,
    ModelParams,
    OutputActivation,
    as_group,
    init_params,
    input_gradient_batch,
    loss_and_param_grads,
    predict_batch,
    unpack_layers,
)
from fedtrust.valuation import (
    CoalitionCache,
    Scheme,
    ScoreTable,
    ValuationConfig,
    coalition_utility,
    exact_shapley_round,
    gtg_shapley_round,
    score_rounds,
    score_vectors,
)
from helpers import cross_entropy


class criterion:
    """Prints the required one-line PASS/FAIL verdict per criterion."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[ACCEPTANCE {self.number}] {status}: {self.description}")
        return False


def trained_setup(seed, n=600, rounds=10, alpha=0.5, imbalance=0.3, attack=None):
    data = generate_synthetic(n, 8, imbalance, seed=seed)
    train, test = train_test_split(data, 0.2, seed=seed)
    parts = partition(
        train, PartitionSpec(PartitionMode.DIRICHLET, 4, alpha, seed=seed)
    )
    init = init_params(Architecture((8, 16, 1), OutputActivation.SIGMOID), seed)
    records = run_training(init, parts, TrainingConfig(rounds=rounds, seed=seed))
    ctx = EvalContext(
        test, FairnessSpec(1), NoiseSpec(0.1, seed), attack or AttackSpec()
    )
    return records, ctx


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """One full default-config experiment, shared by criteria 8 and 9."""
    out_dir = tmp_path_factory.mktemp("default_run")
    cfg = ExperimentConfig(output_dir=str(out_dir))
    start = time.perf_counter()
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return cfg, report, out_dir, elapsed


def test_criterion_1_fig1_golden(capsys):
    with criterion(1, "demo-fig1 toy values, each within 1e-9, < 1 s"):
        start = time.perf_counter()
        exit_code = main(["demo-fig1"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert exit_code == 0  # nonzero means a printed value deviated > 1e-9
        assert "perf = 0.6667" in out
        assert "demographic parity gap = 0.3333" in out
        assert "fair = 0.6667" in out
        assert "attack success = 0.25" in out
        assert "res = 0.75" in out
        assert elapsed < 1.0


def test_criterion_2_gradient_oracle():
    with criterion(2, "param+input gradients vs central differences on 100 instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        step = 1e-4
        checked = 0
        while checked < 100:
            d = int(rng.integers(2, 7))
            hidden = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(0, 3)))]
            softmax = bool(rng.integers(0, 2)) or hidden == []
            out = int(rng.integers(2, 4)) if softmax else 1
            arch = Architecture(
                (d, *hidden, out),
                OutputActivation.SOFTMAX if softmax else OutputActivation.SIGMOID,
            )
            params = ModelParams(arch, rng.normal(scale=0.7, size=arch.param_count))
            x = rng.random((3, d))
            y = rng.integers(0, arch.class_count, size=3)
            if _min_hidden_margin(params, x) < 1e-2:
                continue  # keep clear of ReLU kinks, where FD is invalid
            grad = np.empty(arch.param_count)
            loss_and_param_grads(as_group(params, len(x)), x, y, unpack_layers(arch, grad))
            fd = np.empty_like(grad)
            for i in range(len(grad)):
                plus, minus = params.values.copy(), params.values.copy()
                plus[i] += step
                minus[i] -= step
                lp = cross_entropy(ModelParams(arch, plus), x, y)
                lm = cross_entropy(ModelParams(arch, minus), x, y)
                fd[i] = (lp - lm) / (2 * step)
            assert _rel_err(grad, fd) < 1e-4
            gin = input_gradient_batch(params, x[:1], y[:1])[0]
            fd_in = np.empty(d)
            for i in range(d):
                plus, minus = x[0].copy(), x[0].copy()
                plus[i] += step
                minus[i] -= step
                lp = cross_entropy(params, plus[None], y[:1])
                lm = cross_entropy(params, minus[None], y[:1])
                fd_in[i] = (lp - lm) / (2 * step)
            assert _rel_err(gin, fd_in) < 1e-4
            checked += 1
        assert time.perf_counter() - start < 30.0


def _min_hidden_margin(params, x):
    from fedtrust import nn

    margin = np.inf
    a = x
    for w, b in nn.unpack_layers(params.architecture, params.values)[:-1]:
        z = a @ w + b
        margin = min(margin, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return margin


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def test_criterion_3_shapley_axioms():
    with criterion(3, "exact-scheme efficiency and symmetry within 1e-12"):
        records, ctx = trained_setup(seed=3, n=400, rounds=4)
        cache = CoalitionCache(ctx)
        for record in records:
            for metric in Metric:
                sv = exact_shapley_round(record, metric, cache)
                v_full = coalition_utility(record, record.client_ids, metric, cache)
                v_empty = coalition_utility(record, (), metric, cache)
                assert abs(sum(sv.values()) - (v_full - v_empty)) < 1e-12
        # duplicated clients: bitwise-identical updates and sample counts
        from fedtrust.federation import fedavg

        base = records[1]
        twin = base.updates[0].params
        updates = tuple(
            ClientUpdate(k, twin if k in (1, 2) else base.updates[k].params, 60)
            for k in range(4)
        )
        record = RoundRecord(
            base.round, base.global_before, updates, fedavg(base.global_before, updates)
        )
        for metric in Metric:
            sv = exact_shapley_round(record, metric, CoalitionCache(ctx))
            assert abs(sv[1] - sv[2]) < 1e-12


def test_criterion_4_gtg_oracle_equivalence():
    with criterion(4, "GTG(eps1=0, eps2=1, eps3=0) equals exact within 1e-12"):
        start = time.perf_counter()
        records, ctx = trained_setup(seed=4, n=600, rounds=10)
        vcfg = ValuationConfig(eps1=0.0, eps2=1.0, eps3=0.0, perm_seed=7)
        cache = CoalitionCache(ctx)
        for record in records[1:]:
            for metric in Metric:
                sv = exact_shapley_round(record, metric, cache)
                gtg = gtg_shapley_round(record, metric, vcfg, cache)
                for client in sv:
                    assert abs(sv[client] - gtg[client]) < 1e-12
        assert time.perf_counter() - start < 600.0


def test_criterion_5_gtg_truncation_efficiency():
    with criterion(5, "GTG defaults: fewer utility evaluations, median phi >= 0.8"):
        phis = []
        for seed in range(5):
            records, ctx = trained_setup(seed=100 + seed, n=800, rounds=10)
            cache_exact, cache_gtg = CoalitionCache(ctx), CoalitionCache(ctx)
            exact_table = score_rounds(
                records, [Scheme.EXACT], [Metric.PERF], ValuationConfig(), cache_exact
            )
            gtg_table = score_rounds(
                records,
                [Scheme.GTG],
                [Metric.PERF],
                ValuationConfig(perm_seed=seed),
                cache_gtg,
            )
            assert cache_gtg.evaluations < cache_exact.evaluations
            phis.append(
                spearman(
                    score_vectors(gtg_table)[("gtg", "perf")],
                    score_vectors(exact_table)[("exact_shapley", "perf")],
                )
            )
        assert np.median(phis) >= 0.8


def test_criterion_6_pgd_containment_and_closed_form():
    with criterion(6, "10k-instance ball/box containment; linear closed form 1e-9"):
        rng = np.random.default_rng(6)
        total = 0
        while total < 10_000:
            d = int(rng.integers(2, 6))
            arch = Architecture((d, int(rng.integers(2, 6)), int(rng.integers(2, 4))))
            model = ModelParams(arch, rng.normal(scale=0.8, size=arch.param_count))
            xs = rng.random((100, d))
            ys = predict_batch(model, xs)
            eps = float(rng.uniform(0.0, 0.4))
            spec = AttackSpec(epsilon=eps, step_size=0.05, steps=5)
            adv = pgd_batch(model, xs, ys, spec)
            assert np.max(np.abs(adv - xs)) <= eps + 1e-12
            assert adv.min() >= 0.0 and adv.max() <= 1.0
            total += len(xs)
        # linear models with an unflippable margin reach the FGSM corner
        for trial in range(50):
            d = int(rng.integers(2, 7))
            w = rng.normal(size=d)
            x = rng.uniform(0.3, 0.7, size=d)
            side = 1.0 if rng.random() < 0.5 else -1.0
            margin = 0.2 * np.abs(w).sum() + 0.5
            b = float(side * margin - w @ x)
            model = ModelParams(
                Architecture((d, 1), OutputActivation.SIGMOID), np.array([*w, b])
            )
            y = predict_batch(model, x[None])
            adv = pgd_batch(model, x[None], y, AttackSpec(epsilon=0.2, step_size=0.05, steps=10))[0]
            direction = np.sign(w) * (1.0 if y[0] == 0 else -1.0)
            expected = np.clip(x + 0.2 * direction, 0.0, 1.0)
            assert np.max(np.abs(adv - expected)) <= 1e-9


def test_criterion_7_metric_monotonicity():
    with criterion(7, "rel non-increasing in sigma, res non-increasing in epsilon"):
        records, ctx = trained_setup(seed=7, n=500, rounds=3)
        model = records[-1].global_after
        clean = predict_batch(model, ctx.test.features)
        rel_means = []
        for sigma in (0.05, 0.1, 0.2):
            values = [
                evaluate(model, Metric.REL, replace(ctx, noise=NoiseSpec(sigma, s)), clean)
                for s in range(30)
            ]
            rel_means.append(np.mean(values))
        assert rel_means[0] >= rel_means[1] >= rel_means[2]
        # PGD has no random component: one call per epsilon
        res_values = [
            evaluate(model, Metric.RES, replace(ctx, attack=AttackSpec(eps, 0.007, 40)), clean)
            for eps in (0.05, 0.15, 0.3)
        ]
        assert res_values[0] >= res_values[1] >= res_values[2]


def test_criterion_8_desk_scale_reproduction(default_run):
    with criterion(8, "default run emits all nine phi cells, finite, < 15 min"):
        cfg, report, out_dir, elapsed = default_run
        assert elapsed < 900.0
        for scheme in ("exact_shapley", "gtg", "loo"):
            for metric in ("fair", "rel", "res"):
                stats = report.vs_perf[scheme][metric]
                assert np.isfinite(stats.phi_mean) and np.isfinite(stats.l2_mean)
        # recorded, not asserted: correlation magnitudes are dataset-specific
        for metric in ("fair", "rel", "res"):
            stats = report.vs_perf["gtg"][metric]
            print(f"  |phi(perf, {metric})| for gtg = {abs(stats.phi_mean):.3f}")
        assert (out_dir / "report.json").exists()
        assert (out_dir / "report.csv").exists()
        # 4 clients x 4 metrics x 3 schemes accumulated rows per fold
        totals = (out_dir / "fold_0" / "scores_total.csv").read_text().splitlines()
        assert len(totals) - 1 == 4 * 4 * 3


def test_criterion_9_byte_identical_reruns(default_run, tmp_path):
    with criterion(9, "two default-config runs give byte-identical scores.csv"):
        cfg, _, out_dir, _ = default_run
        rerun_cfg = ExperimentConfig(output_dir=str(tmp_path / "rerun"))
        run_experiment(rerun_cfg)
        for fold in range(cfg.folds):
            first = (out_dir / f"fold_{fold}" / "scores.csv").read_bytes()
            second = (tmp_path / "rerun" / f"fold_{fold}" / "scores.csv").read_bytes()
            assert first == second


def test_criterion_10_analysis_unit_oracles():
    with criterion(10, "spearman/rmse/variance/report example oracles"):
        # spearman
        assert spearman([1, 2, 3], [1, 2, 100]) == pytest.approx(1.0, abs=1e-15)
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)
        assert spearman([1, 2, 2, 4], [1, 3, 3, 4]) == pytest.approx(1.0, abs=1e-15)
        # rmse
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rmse([0, 0], [3, 4]) == pytest.approx(np.sqrt(12.5), abs=1e-12)
        assert rmse([2, 4], [6, 8]) == pytest.approx(2 * rmse([1, 2], [3, 4]), rel=1e-12)
        # per-round variance
        table = ScoreTable()
        for t, (a, b) in enumerate(zip([0, 0, 0, 0], [1, -1, 1, -1]), start=2):
            table.entries[("gtg", "perf", 0, t)] = float(a)
            table.entries[("gtg", "perf", 1, t)] = float(b)
            table.entries[("gtg", "perf", 0, 1)] = 0.0
            table.entries[("gtg", "perf", 1, 1)] = 0.0
        assert per_round_variance(table)[("gtg", "perf")] == pytest.approx(0.5)
        constant = ScoreTable()
        for t in (1, 2, 3):
            constant.entries[("gtg", "perf", 0, t)] = 0.25
        assert per_round_variance(constant)[("gtg", "perf")] == pytest.approx(
            0.0, abs=1e-30
        )
        # build_report
        fold = ScoreTable()
        for metric in ("perf", "fair", "rel", "res"):
            for client, value in enumerate([0.1, 0.4, 0.2]):
                fold.entries[("gtg", metric, client, 1)] = 0.0
                fold.entries[("gtg", metric, client, 2)] = value
        report = build_report([fold])
        assert report.vs_perf["gtg"]["fair"].phi_mean == pytest.approx(1.0, abs=1e-12)
        assert report.vs_perf["gtg"]["fair"].l2_mean == 0.0
        hm = report.heatmap["gtg"]
        for ma in report.metrics:
            assert hm[ma][ma] == 1.0
            for mb in report.metrics:
                assert hm[ma][mb] == pytest.approx(hm[mb][ma], abs=1e-12)
