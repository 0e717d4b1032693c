import numpy as np
import pytest

from fedtrust.attacks import AttackSpec, pgd_batch
from fedtrust.data import Dataset, generate_synthetic
from fedtrust.errors import InputError, MetricUndefinedError
from fedtrust.metrics import (
    EvalContext,
    FairnessSpec,
    Metric,
    NoiseSpec,
    demographic_parity_gap,
    evaluate,
    fair,
    perf,
    rel,
    res,
)
from fedtrust.nn import Architecture, ModelParams, OutputActivation, init_params, predict_batch


def toy_test_set():
    """Six samples, labels [G,R,G,R,R,G] with G=0/R=1, protected {1,2,4}."""
    features = np.array([[i / 10] for i in range(1, 7)])
    labels = np.array([0, 1, 0, 1, 1, 0])
    protected = np.array([True, True, False, True, False, False])
    return Dataset(features, labels, protected, 2)


TOY_PREDS = np.array([0, 1, 1, 0, 1, 0])  # predictions [G,R,R,G,R,G]


def run_metric(model, metric, test, noise=NoiseSpec(), attack=AttackSpec()):
    """``metric`` of ``model`` on ``test``, from its own clean prediction."""
    ctx = EvalContext(test, FairnessSpec(1), noise, attack)
    return evaluate(model, metric, ctx, predict_batch(model, test.features))


def always_wrong():
    """A constant class-1 model and the toy samples whose label is 0."""
    test = toy_test_set()
    test = test.subset(np.flatnonzero(test.labels == 0))
    model = ModelParams(Architecture((1, 1), OutputActivation.SIGMOID), np.array([0.0, 10.0]))
    assert not (predict_batch(model, test.features) == test.labels).any()
    return model, test


class TestPerf:
    def test_toy_example_two_thirds(self):
        assert perf(TOY_PREDS, toy_test_set()) == pytest.approx(4 / 6, abs=1e-12)

    def test_perfect_model(self):
        test = toy_test_set()
        assert perf(test.labels.copy(), test) == 1.0

    def test_constant_model_on_balanced_set(self):
        test = toy_test_set()
        assert perf(np.ones(6, dtype=np.int64), test) == 0.5

    def test_empty_test_rejected(self):
        empty = Dataset(np.empty((0, 1)), np.empty(0, int), np.empty(0, bool), 2)
        with pytest.raises(InputError):
            EvalContext(empty, FairnessSpec(1), NoiseSpec(), AttackSpec())

    def test_perf_plus_error_is_one(self):
        test = toy_test_set()
        assert perf(TOY_PREDS, test) + np.mean(TOY_PREDS != test.labels) == 1.0


class TestFair:
    def test_toy_gap_one_third(self):
        gap = demographic_parity_gap(TOY_PREDS, toy_test_set(), FairnessSpec(1))
        assert gap == pytest.approx(1 / 3, abs=1e-12)

    def test_toy_fair_two_thirds(self):
        value = fair(TOY_PREDS, toy_test_set(), FairnessSpec(1))
        assert value == pytest.approx(2 / 3, abs=1e-12)

    def test_constant_model_is_fair(self):
        assert fair(np.ones(6, dtype=np.int64), toy_test_set(), FairnessSpec(1)) == 1.0

    def test_maximal_gap(self):
        # one protected sample predicted target, all others not
        features = np.array([[0.1], [0.2], [0.3]])
        test = Dataset(features, np.array([1, 0, 0]), np.array([True, False, False]), 2)
        assert fair(np.array([1, 0, 0]), test, FairnessSpec(1)) == 0.0

    def test_one_sided_group_undefined(self):
        features = np.array([[0.1], [0.2]])
        test = Dataset(features, np.array([0, 1]), np.array([True, True]), 2)
        with pytest.raises(MetricUndefinedError):
            demographic_parity_gap(np.array([0, 1]), test, FairnessSpec(1))


class TestRel:
    def test_zero_sigma_is_one(self):
        model = init_params(Architecture((3, 4, 2)), 0)
        test = generate_synthetic(50, 3, 0.0, seed=1)
        assert run_metric(model, Metric.REL, test, NoiseSpec(sigma=0.0, noise_seed=5)) == 1.0

    def test_seeded_rerun_identical(self):
        model = init_params(Architecture((3, 4, 2)), 0)
        test = generate_synthetic(50, 3, 0.0, seed=1)
        spec = NoiseSpec(sigma=0.2, noise_seed=9)
        assert run_metric(model, Metric.REL, test, spec) == run_metric(model, Metric.REL, test, spec)

    def test_large_margin_linear_model_is_reliable(self):
        # w separates the classes with margin far beyond 5*sigma*sqrt(d)
        d, sigma = 4, 0.01
        arch = Architecture((d, 1), OutputActivation.SIGMOID)
        model = ModelParams(arch, np.array([100.0] * d + [-200.0]))
        rng = np.random.default_rng(2)
        features = np.clip(np.where(rng.random((200, 1)) < 0.5, 0.1, 0.9) + rng.normal(scale=0.01, size=(200, d)), 0, 1)
        labels = (features[:, 0] > 0.5).astype(int)
        test = Dataset(features, labels, np.zeros(200, bool), 2)
        values = [run_metric(model, Metric.REL, test, NoiseSpec(sigma, seed)) for seed in range(10)]
        assert np.mean(values) >= 0.99

    def test_rel_ignores_labels(self):
        # an always-wrong model still has well-defined reliability
        model, test = always_wrong()
        assert 0.0 <= run_metric(model, Metric.REL, test, NoiseSpec(0.05, 3)) <= 1.0

    def test_monotone_in_sigma_on_average(self):
        model = init_params(Architecture((4, 6, 2)), 3)
        test = generate_synthetic(150, 4, 0.0, seed=7)
        means = []
        for sigma in (0.05, 0.1, 0.2):
            vals = [run_metric(model, Metric.REL, test, NoiseSpec(sigma, s)) for s in range(30)]
            means.append(np.mean(vals))
        assert means[0] >= means[1] >= means[2]


class TestRes:
    def test_toy_res_three_quarters(self):
        # the toy model's correct samples 1, 2, 5, 6; the attack flips sample 1
        test = toy_test_set()
        labels = test.labels[TOY_PREDS == test.labels]
        value = res(labels, np.array([1, 1, 1, 0]))
        assert value == pytest.approx(3 / 4, abs=1e-12)

    def test_zero_epsilon_perfect_resilience(self):
        model = init_params(Architecture((3, 4, 2)), 1)
        test = generate_synthetic(60, 3, 0.0, seed=2)
        assert run_metric(model, Metric.RES, test, attack=AttackSpec(epsilon=0.0)) == 1.0

    def test_attack_flipping_everything(self):
        labels = toy_test_set().labels
        assert res(labels, 1 - labels) == 0.0

    def test_accuracy_zero_model_undefined(self):
        model, test = always_wrong()
        with pytest.raises(MetricUndefinedError):
            run_metric(model, Metric.RES, test, attack=AttackSpec(epsilon=0.1))

    def test_monotone_in_epsilon_on_average(self):
        # fixed trained-ish model; PGD has no random component, so one
        # call per epsilon is the whole average
        train = generate_synthetic(400, 4, 0.0, seed=11)
        model = init_params(Architecture((4, 6, 2)), 4)
        from fedtrust.federation import TrainingConfig, local_train

        cfg = TrainingConfig(rounds=2, local_epochs=3, seed=0)
        model = local_train(model, [(0, train)], cfg, 1)[0].params
        test = generate_synthetic(120, 4, 0.0, seed=12)
        values = [
            run_metric(model, Metric.RES, test, attack=AttackSpec(eps, 0.007, 40))
            for eps in (0.05, 0.15, 0.3)
        ]
        assert values[0] >= values[1] >= values[2]


class TestEvaluate:
    def test_dispatch_matches_direct_calls(self):
        test = generate_synthetic(80, 3, 0.2, seed=5)
        model = init_params(Architecture((3, 5, 2)), 2)
        ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, 7), AttackSpec(0.1, 0.02, 5))
        clean = predict_batch(model, test.features)
        assert evaluate(model, Metric.PERF, ctx, clean) == perf(clean, test)
        assert evaluate(model, Metric.FAIR, ctx, clean) == fair(clean, test, ctx.fairness)
        noisy = predict_batch(model, ctx.noisy_features)
        assert evaluate(model, Metric.REL, ctx, clean) == rel(clean, noisy)
        correct = clean == test.labels
        labels = test.labels[correct]
        adversarial = pgd_batch(model, test.features[correct], labels, ctx.attack)
        assert evaluate(model, Metric.RES, ctx, clean) == res(labels, predict_batch(model, adversarial))

    def test_all_metrics_in_unit_interval(self):
        test = generate_synthetic(80, 3, 0.2, seed=6)
        ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, 7), AttackSpec(0.1, 0.02, 5))
        for seed in range(5):
            model = init_params(Architecture((3, 5, 2)), seed)
            clean = predict_batch(model, test.features)
            for metric in Metric:
                value = evaluate(model, metric, ctx, clean)
                assert 0.0 <= value <= 1.0
