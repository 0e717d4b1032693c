"""Equivalence of the evaluation path with the straightforward reference path.

The reference functions below are the plain loops the evaluation path
replaced: PGD with an input-gradient pass and a separate prediction pass on
every iterate, a noise matrix built on every ``rel`` call, and a per-metric
evaluation that aggregates the coalition and predicts the clean test set for
each metric on its own. Every comparison is exact.
"""

from itertools import combinations

import numpy as np
import pytest

from fedtrust import valuation
from fedtrust.attacks import AttackSpec, pgd_batch
from fedtrust.data import Dataset, PartitionMode, PartitionSpec, generate_synthetic, partition, train_test_split
from fedtrust.errors import MetricUndefinedError
from fedtrust.federation import ClientUpdate, RoundRecord, TrainingConfig, fedavg, run_training
from fedtrust.metrics import EvalContext, FairnessSpec, Metric, NoiseSpec, evaluate, rel
from fedtrust.nn import (
    Architecture,
    ModelParams,
    OutputActivation,
    init_params,
    input_gradient_batch,
    predict_batch,
)
from fedtrust.seeding import rng_from
from fedtrust.valuation import CoalitionCache, coalition_utility

# --- reference path ---


def ref_pgd(model, inputs, labels, spec):
    x0 = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if spec.epsilon == 0.0:
        return x0.copy()
    lower = np.maximum(x0 - spec.epsilon, spec.clip_min)
    upper = np.minimum(x0 + spec.epsilon, spec.clip_max)
    x_adv = x0.copy()
    active = np.arange(x0.shape[0])
    for _ in range(spec.steps):
        if active.size == 0:
            break
        grad = input_gradient_batch(model, x_adv[active], y[active])
        stepped = x_adv[active] + spec.step_size * np.sign(grad)
        x_adv[active] = np.clip(stepped, lower[active], upper[active])
        still = predict_batch(model, x_adv[active]) == y[active]
        active = active[still]
    return x_adv


def ref_noise_matrix(noise, n, d):
    out = np.empty((n, d))
    for i in range(n):
        out[i] = rng_from(noise.noise_seed, "noise", i).standard_normal(d)
    return out * noise.sigma


def ref_evaluate(model, metric, ctx):
    test = ctx.test
    preds = predict_batch(model, test.features)
    if metric is Metric.PERF:
        return float(np.mean(preds == test.labels))
    if metric is Metric.FAIR:
        protected = test.sensitive
        if not protected.any() or protected.all():
            raise MetricUndefinedError("one-sided groups")
        hits = preds == ctx.fairness.target_class
        return 1.0 - abs(float(np.mean(hits[protected])) - float(np.mean(hits[~protected])))
    if metric is Metric.REL:
        noise = ref_noise_matrix(ctx.noise, len(test), test.feature_dim)
        perturbed = predict_batch(model, test.features + noise)
        return 1.0 - float(np.mean(perturbed != preds))
    correct = preds == test.labels
    if not correct.any():
        raise MetricUndefinedError("nothing correct")
    inputs, labels = test.features[correct], test.labels[correct]
    adv = ref_pgd(model, inputs, labels, ctx.attack)
    return 1.0 - float(np.mean(predict_batch(model, adv) != labels))


def ref_coalition_utility(record, subset, metric, ctx):
    ids = tuple(sorted(set(subset)))
    model = fedavg(record.global_before, [record.update_for(k) for k in ids])
    try:
        return ref_evaluate(model, metric, ctx)
    except MetricUndefinedError:
        return ref_coalition_utility(record, (), metric, ctx) if ids else 0.0


# --- PGD ---


def random_model(seed, activation, hidden_layers, d=5):
    rng = np.random.default_rng(seed)
    out = 1 if activation is OutputActivation.SIGMOID else 3
    arch = Architecture((d, *[6] * hidden_layers, out), activation)
    return ModelParams(arch, rng.normal(scale=1.5, size=arch.param_count)), rng


def first_flip_steps(model, x, y, spec):
    """Step at which each row's prediction first flips (0 = never)."""
    flips = np.zeros(len(y), dtype=int)
    for steps in range(1, spec.steps + 1):
        adv = ref_pgd(model, x, y, AttackSpec(spec.epsilon, spec.step_size, steps))
        newly = (predict_batch(model, adv) != y) & (flips == 0)
        flips[newly] = steps
    return flips


@pytest.mark.parametrize("activation", list(OutputActivation))
@pytest.mark.parametrize("hidden_layers", [1, 2])
def test_pgd_matches_two_pass_reference(activation, hidden_layers):
    spec = AttackSpec(epsilon=0.4, step_size=0.03, steps=15)
    freeze_steps = []
    for seed in range(8):
        model, rng = random_model(seed, activation, hidden_layers)
        x = rng.random((60, 5))
        y = predict_batch(model, x)
        assert np.array_equal(pgd_batch(model, x, y, spec), ref_pgd(model, x, y, spec))
        freeze_steps.extend(first_flip_steps(model, x, y, spec))
    # the cases hold rows that freeze at different steps and rows that never do
    assert len(set(freeze_steps) - {0}) >= 3 and 0 in freeze_steps


@pytest.mark.parametrize("activation", list(OutputActivation))
@pytest.mark.parametrize(
    "spec",
    [AttackSpec(epsilon=0.0), AttackSpec(epsilon=0.3, step_size=0.1, steps=1)],
    ids=["epsilon0", "steps1"],
)
def test_pgd_degenerate_specs_match_reference(activation, spec):
    model, rng = random_model(11, activation, 1)
    x = rng.random((30, 5))
    y = predict_batch(model, x)
    assert np.array_equal(pgd_batch(model, x, y, spec), ref_pgd(model, x, y, spec))


def trained_setup(seed=2, rounds=3):
    data = generate_synthetic(500, 8, 0.3, seed=seed)
    train, test = train_test_split(data, 0.2, seed=seed)
    parts = partition(train, PartitionSpec(PartitionMode.DIRICHLET, 4, 0.5, seed=seed))
    init = init_params(Architecture((8, 16, 1), OutputActivation.SIGMOID), seed)
    records = run_training(init, parts, TrainingConfig(rounds=rounds, learning_rate=0.01, seed=seed))
    ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, seed), AttackSpec())
    return records, ctx


def test_pgd_matches_reference_on_trained_client_models():
    records, ctx = trained_setup()
    spec = ctx.attack
    for record in records:
        for update in record.updates:
            model = update.params
            y = predict_batch(model, ctx.test.features)
            got = pgd_batch(model, ctx.test.features, y, spec)
            assert np.array_equal(got, ref_pgd(model, ctx.test.features, y, spec))


# --- rel noise ---


def test_context_noise_is_built_once_and_read_only():
    records, ctx = trained_setup(rounds=2)
    noise = ctx.noise_matrix
    assert noise is ctx.noise_matrix
    assert np.array_equal(noise, ref_noise_matrix(ctx.noise, len(ctx.test), ctx.test.feature_dim))
    with pytest.raises(ValueError):
        noise[0, 0] = 1.0
    model = records[-1].global_after
    assert rel(model, ctx.test, ctx.noise) == evaluate(model, Metric.REL, ctx)


# --- coalition utilities ---


def all_coalitions(clients):
    return [c for size in range(len(clients) + 1) for c in combinations(clients, size)]


def test_coalition_utility_matches_per_metric_reference(monkeypatch):
    records, ctx = trained_setup()
    fedavg_calls = []

    def counting_fedavg(base, updates):
        fedavg_calls.append(1)
        return fedavg(base, updates)

    monkeypatch.setattr(valuation, "fedavg", counting_fedavg)
    cache = CoalitionCache()
    coalitions = all_coalitions(records[0].client_ids)
    for record in records:
        for metric in Metric:
            for ids in coalitions:
                got = coalition_utility(record, ids, metric, ctx, cache)
                assert got == ref_coalition_utility(record, ids, metric, ctx)
    # one aggregate per (round, coalition), shared by the four metrics
    assert len(fedavg_calls) == len(records) * len(coalitions)
    assert cache.evaluations == len(records) * len(coalitions) * len(Metric)


def fallback_round():
    """Client 0 predicts every test sample wrong; the test set is one-sided."""
    arch = Architecture((2, 1), OutputActivation.SIGMOID)
    always_one = ModelParams(arch, np.array([0.0, 0.0, 10.0]))
    always_zero = ModelParams(arch, np.array([0.0, 0.0, -10.0]))
    features = np.random.default_rng(0).random((12, 2))
    test = Dataset(features, np.zeros(12, dtype=int), np.zeros(12, dtype=bool), 2)
    updates = (ClientUpdate(0, 1, always_one, 10), ClientUpdate(1, 1, always_zero, 10))
    record = RoundRecord(1, always_zero, updates, always_zero)
    ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, 1), AttackSpec(0.1, 0.02, 3))
    return record, ctx


@pytest.mark.parametrize("metric", list(Metric))
def test_undefined_metric_fallback_matches_reference(metric):
    record, ctx = fallback_round()
    cache = CoalitionCache()
    for ids in [(0,), (0, 1), (), (1,)]:
        got = coalition_utility(record, ids, metric, ctx, cache)
        assert got == ref_coalition_utility(record, ids, metric, ctx)
        assert coalition_utility(record, ids, metric, ctx) == got
    # fair is undefined on a one-sided test set for every coalition; res only
    # where the aggregate gets nothing right
    expected = {Metric.FAIR: 4, Metric.RES: 1}.get(metric, 0)
    assert cache.undefined == expected
