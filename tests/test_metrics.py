import numpy as np
import pytest

from fedtrust.attacks import AttackSpec
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
from fedtrust.nn import Architecture, ModelParams, OutputActivation, init_params


class FixedModel:
    """Predicts by position lookup on the first feature (toy test sets)."""

    def __init__(self, preds):
        self.preds = list(preds)

    def predict(self, x):
        return self.preds[int(round(float(x[0]) * 10)) - 1]


def toy_test_set():
    """Six samples, labels [G,R,G,R,R,G] with G=0/R=1, protected {1,2,4}."""
    features = np.array([[i / 10] for i in range(1, 7)])
    labels = np.array([0, 1, 0, 1, 1, 0])
    protected = np.array([True, True, False, True, False, False])
    return Dataset(features, labels, protected, 2)


TOY_MODEL = FixedModel([0, 1, 1, 0, 1, 0])  # predictions [G,R,R,G,R,G]


class TestPerf:
    def test_toy_example_two_thirds(self):
        assert perf(TOY_MODEL, toy_test_set()) == pytest.approx(4 / 6, abs=1e-12)

    def test_perfect_model(self):
        test = toy_test_set()
        assert perf(FixedModel(list(test.labels)), test) == 1.0

    def test_constant_model_on_balanced_set(self):
        test = toy_test_set()
        assert perf(FixedModel([1] * 6), test) == 0.5

    def test_empty_test_rejected(self):
        empty = Dataset(np.empty((0, 1)), np.empty(0, int), np.empty(0, bool), 2)
        with pytest.raises(InputError):
            perf(TOY_MODEL, empty)

    def test_perf_plus_error_is_one(self):
        test = toy_test_set()
        preds = np.array([TOY_MODEL.predict(x) for x in test.features])
        assert perf(TOY_MODEL, test) + np.mean(preds != test.labels) == 1.0


class TestFair:
    def test_toy_gap_one_third(self):
        gap = demographic_parity_gap(TOY_MODEL, toy_test_set(), FairnessSpec(1))
        assert gap == pytest.approx(1 / 3, abs=1e-12)

    def test_toy_fair_two_thirds(self):
        value = fair(TOY_MODEL, toy_test_set(), FairnessSpec(1))
        assert value == pytest.approx(2 / 3, abs=1e-12)

    def test_constant_model_is_fair(self):
        assert fair(FixedModel([1] * 6), toy_test_set(), FairnessSpec(1)) == 1.0

    def test_maximal_gap(self):
        # one protected sample predicted target, all others not
        features = np.array([[0.1], [0.2], [0.3]])
        test = Dataset(features, np.array([1, 0, 0]), np.array([True, False, False]), 2)
        assert fair(FixedModel([1, 0, 0]), test, FairnessSpec(1)) == 0.0

    def test_one_sided_group_undefined(self):
        features = np.array([[0.1], [0.2]])
        test = Dataset(features, np.array([0, 1]), np.array([True, True]), 2)
        with pytest.raises(MetricUndefinedError):
            demographic_parity_gap(FixedModel([0, 1]), test, FairnessSpec(1))


class TestRel:
    def test_zero_sigma_is_one(self):
        model = init_params(Architecture((3, 4, 2)), 0)
        test = generate_synthetic(50, 3, 0.0, seed=1)
        assert rel(model, test, NoiseSpec(sigma=0.0, noise_seed=5)) == 1.0

    def test_seeded_rerun_identical(self):
        model = init_params(Architecture((3, 4, 2)), 0)
        test = generate_synthetic(50, 3, 0.0, seed=1)
        spec = NoiseSpec(sigma=0.2, noise_seed=9)
        assert rel(model, test, spec) == rel(model, test, spec)

    def test_large_margin_linear_model_is_reliable(self):
        # w separates the classes with margin far beyond 5*sigma*sqrt(d)
        d, sigma = 4, 0.01
        arch = Architecture((d, 1), OutputActivation.SIGMOID)
        model = ModelParams(arch, np.array([100.0] * d + [-200.0]))
        rng = np.random.default_rng(2)
        features = np.clip(np.where(rng.random((200, 1)) < 0.5, 0.1, 0.9) + rng.normal(scale=0.01, size=(200, d)), 0, 1)
        labels = (features[:, 0] > 0.5).astype(int)
        test = Dataset(features, labels, np.zeros(200, bool), 2)
        values = [rel(model, test, NoiseSpec(sigma, seed)) for seed in range(10)]
        assert np.mean(values) >= 0.99

    def test_rel_ignores_labels(self):
        # an always-wrong model still has well-defined reliability
        test = toy_test_set()
        wrong = FixedModel(list(1 - toy_test_set().labels))
        assert 0.0 <= rel(wrong, test, NoiseSpec(0.05, 3)) <= 1.0

    def test_monotone_in_sigma_on_average(self):
        model = init_params(Architecture((4, 6, 2)), 3)
        test = generate_synthetic(150, 4, 0.0, seed=7)
        means = []
        for sigma in (0.05, 0.1, 0.2):
            vals = [rel(model, test, NoiseSpec(sigma, s)) for s in range(30)]
            means.append(np.mean(vals))
        assert means[0] >= means[1] >= means[2]


class TestRes:
    def test_toy_res_three_quarters(self):
        def attack_fn(model, x, y):
            return np.array([0.7]) if int(round(float(x[0]) * 10)) == 1 else x

        model = FixedModel([0, 1, 1, 0, 1, 0, 1])  # position 7 -> R
        value = res(model, toy_test_set(), AttackSpec(epsilon=0.3), attack_fn=attack_fn)
        assert value == pytest.approx(3 / 4, abs=1e-12)

    def test_zero_epsilon_perfect_resilience(self):
        model = init_params(Architecture((3, 4, 2)), 1)
        test = generate_synthetic(60, 3, 0.0, seed=2)
        assert res(model, test, AttackSpec(epsilon=0.0)) == 1.0

    def test_attack_flipping_everything(self):
        test = toy_test_set()

        def flip_all(model, x, y):
            return np.array([0.7]) if y == 0 else np.array([0.8])

        model = FixedModel([0, 1, 0, 1, 1, 0, 1, 0])  # positions 7,8 flip labels
        assert res(model, test, AttackSpec(epsilon=1.0), attack_fn=flip_all) == 0.0

    def test_accuracy_zero_model_undefined(self):
        test = toy_test_set()
        wrong = FixedModel(list(1 - test.labels))
        with pytest.raises(MetricUndefinedError):
            res(wrong, test, AttackSpec(epsilon=0.1))

    def test_monotone_in_epsilon_on_average(self):
        # fixed trained-ish model; PGD has no random component, so one
        # call per epsilon is the whole average
        train = generate_synthetic(400, 4, 0.0, seed=11)
        model = init_params(Architecture((4, 6, 2)), 4)
        from fedtrust.federation import TrainingConfig, local_train

        cfg = TrainingConfig(rounds=2, local_epochs=3, seed=0)
        model = local_train(model, train, cfg, 1, 0).params
        test = generate_synthetic(120, 4, 0.0, seed=12)
        values = [res(model, test, AttackSpec(eps, 0.007, 40)) for eps in (0.05, 0.15, 0.3)]
        assert values[0] >= values[1] >= values[2]


class TestEvaluate:
    def test_dispatch_matches_direct_calls(self):
        test = generate_synthetic(80, 3, 0.2, seed=5)
        model = init_params(Architecture((3, 5, 2)), 2)
        ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, 7), AttackSpec(0.1, 0.02, 5))
        assert evaluate(model, Metric.PERF, ctx) == perf(model, test)
        assert evaluate(model, Metric.FAIR, ctx) == fair(model, test, ctx.fairness)
        assert evaluate(model, Metric.REL, ctx) == rel(model, test, ctx.noise)
        assert evaluate(model, Metric.RES, ctx) == res(model, test, ctx.attack)

    def test_all_metrics_in_unit_interval(self):
        test = generate_synthetic(80, 3, 0.2, seed=6)
        ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, 7), AttackSpec(0.1, 0.02, 5))
        for seed in range(5):
            model = init_params(Architecture((3, 5, 2)), seed)
            for metric in Metric:
                value = evaluate(model, metric, ctx)
                assert 0.0 <= value <= 1.0
