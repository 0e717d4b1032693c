"""Equivalence of the evaluation path with the straightforward reference path.

The reference functions below are the plain loops the evaluation and
training paths replaced: PGD with an input-gradient pass and a separate
prediction pass on every iterate (both written out here with plain matmuls,
so the oracle shares no pass with ``fedtrust.nn``), a noise matrix built on
every ``rel`` call, a per-metric evaluation that aggregates the coalition
and predicts the clean test set for each metric on its own, and local
training that builds a new model and new optimizer arrays on every step.
Every comparison is exact.
"""

import math
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest

from fedtrust import metrics, valuation
from fedtrust.attacks import AttackSpec, certified_rows, pgd_batch
from fedtrust.config import ExperimentConfig
from fedtrust.data import (
    FEATURE_CHUNK_ROWS,
    CsvSchema,
    Dataset,
    PartitionMode,
    PartitionSpec,
    generate_synthetic,
    fold_split,
    load_csv,
    partition,
    save_dataset_csv,
    train_test_split,
)
from fedtrust.errors import ConfigError
from fedtrust.errors import InputError, MetricUndefinedError
from fedtrust.federation import ClientUpdate, RoundRecord, TrainingConfig, fedavg, local_train, run_round, run_training
from fedtrust.metrics import EvalContext, FairnessSpec, Metric, NoiseSpec, evaluate
from fedtrust.nn import (
    LOG_CLAMP,
    Architecture,
    ModelGroup,
    ModelParams,
    OutputActivation,
    init_params,
    input_gradient_batch,
    predict_batch,
    unpack_layers,
)
from fedtrust.seeding import derive_seed, rng_from
from fedtrust.valuation import CoalitionCache, coalition_utility

# --- reference path ---


def ref_forward(model, x):
    """Pre-activations of every layer and the output probabilities."""
    layers = unpack_layers(model.architecture, model.values)
    pre_acts, a = [], x
    for w, b in layers:
        z = a @ w + b
        pre_acts.append(z)
        a = np.maximum(z, 0.0)
    z = pre_acts[-1]
    if model.architecture.output_activation is OutputActivation.SOFTMAX:
        exp = np.exp(z - z.max(axis=1, keepdims=True))
        return layers, pre_acts, exp / exp.sum(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        return layers, pre_acts, 1.0 / (1.0 + np.exp(-z[:, 0]))


def ref_predict(model, x):
    _, _, probs = ref_forward(model, x)
    if model.architecture.output_activation is OutputActivation.SOFTMAX:
        return np.argmax(probs, axis=1)
    return (probs > 0.5).astype(np.int64)


def ref_output_delta(model, probs, y):
    """Each row's loss gradient w.r.t. the output logits, zero where clamped."""
    rows = np.arange(len(y))
    if model.architecture.output_activation is OutputActivation.SOFTMAX:
        p_true = probs[rows, y]
        delta = probs.copy()
        delta[rows, y] -= 1.0
    else:
        p_true = np.where(y == 1, probs, 1.0 - probs)
        delta = (probs - y)[:, None]
    delta[p_true < LOG_CLAMP] = 0.0
    return delta


def ref_input_gradient(model, x, y):
    layers, pre_acts, probs = ref_forward(model, x)
    delta = ref_output_delta(model, probs, y)
    for i in range(len(layers) - 1, -1, -1):
        delta = delta @ layers[i][0].T
        if i > 0:
            delta = delta * (pre_acts[i - 1] > 0.0)
    return delta


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
        grad = ref_input_gradient(model, x_adv[active], y[active])
        stepped = x_adv[active] + spec.step_size * np.sign(grad)
        x_adv[active] = np.clip(stepped, lower[active], upper[active])
        still = ref_predict(model, x_adv[active]) == y[active]
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


def ref_param_grad(model, x, y):
    """Gradient of the batch's mean cross-entropy w.r.t. the flat values."""
    layers, pre_acts, probs = ref_forward(model, x)
    delta = ref_output_delta(model, probs, y) / len(y)
    inputs = [x] + [np.maximum(z, 0.0) for z in pre_acts[:-1]]
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        grads = [(inputs[i].T @ delta).ravel(), delta.sum(axis=0)] + grads
        if i > 0:
            delta = (delta @ layers[i][0].T) * (pre_acts[i - 1] > 0.0)
    return np.concatenate(grads)


def ref_local_train(start, data, cfg, round_idx, client_id):
    """Textbook minibatch Adam or SGD: new arrays and a new model every step."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    rng = np.random.default_rng(derive_seed(cfg.seed, "local", round_idx, client_id))
    model = start
    m = v = np.zeros(start.architecture.param_count)
    t = 0
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(data))
        for begin in range(0, len(order), cfg.batch_size):
            idx = order[begin : begin + cfg.batch_size]
            g = ref_param_grad(model, data.features[idx], data.labels[idx])
            if cfg.optimizer == "adam":
                t += 1
                m = beta1 * m + (1.0 - beta1) * g
                v = beta2 * v + (1.0 - beta2) * g * g
                m_hat = m / (1.0 - beta1**t)
                v_hat = v / (1.0 - beta2**t)
                values = model.values - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            else:
                values = model.values - cfg.learning_rate * g
            model = ModelParams(model.architecture, values)
    return model


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
@pytest.mark.parametrize("hidden_layers", [0, 1, 2])
def test_passes_match_plain_reference(activation, hidden_layers):
    for seed in range(4):
        model, rng = random_model(seed, activation, hidden_layers)
        x = rng.random((40, 5))
        y = rng.integers(0, model.architecture.class_count, size=40)
        assert np.array_equal(input_gradient_batch(model, x, y), ref_input_gradient(model, x, y))
        assert np.array_equal(predict_batch(model, x), ref_predict(model, x))


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


@pytest.mark.parametrize("activation", list(OutputActivation))
@pytest.mark.parametrize("hidden_layers", [1, 2])
def test_pgd_log_clamp_on_mislabelled_rows_matches_reference(activation, hidden_layers):
    # Scaled-up weights saturate the outputs, so rows whose label disagrees
    # with the clean prediction have p_true < LOG_CLAMP at x0: the clamp
    # zeroes their first step, and the freeze test then stops them.
    spec = AttackSpec(epsilon=0.3, step_size=0.05, steps=6)
    clamped = 0
    for seed in range(4):
        model, rng = random_model(seed, activation, hidden_layers)
        model = ModelParams(model.architecture, model.values * 40.0)
        x = rng.random((60, 5))
        y = rng.integers(0, model.architecture.class_count, size=60)
        _, _, probs = ref_forward(model, x)
        if activation is OutputActivation.SIGMOID:
            p_true = np.where(y == 1, probs, 1.0 - probs)
        else:
            p_true = probs[np.arange(60), y]
        clamped += int(np.count_nonzero(p_true < LOG_CLAMP))
        assert np.array_equal(pgd_batch(model, x, y, spec), ref_pgd(model, x, y, spec))
    assert clamped >= 20


def linear_sigmoid_rows(margins):
    """Rows of a sigmoid unit z = x0 - x1 with the given positive margins.

    Each PGD step of size s lowers z by exactly 2s until the row flips.
    """
    model = ModelParams(Architecture((2, 1), OutputActivation.SIGMOID), np.array([1.0, -1.0, 0.0]))
    x = np.column_stack([0.5 + np.asarray(margins) / 2, 0.5 - np.asarray(margins) / 2])
    return model, x, np.ones(len(margins), dtype=np.int64)


@pytest.mark.parametrize(
    "margins, flip_step",
    [(np.linspace(0.001, 0.015, 20), 1), (np.linspace(0.081, 0.099, 20), 5)],
    ids=["all_after_step1", "only_at_last_step"],
)
def test_pgd_flip_timing_extremes_match_reference(margins, flip_step):
    spec = AttackSpec(epsilon=0.3, step_size=0.01, steps=5)
    model, x, y = linear_sigmoid_rows(margins)
    assert (first_flip_steps(model, x, y, spec) == flip_step).all()
    assert np.array_equal(pgd_batch(model, x, y, spec), ref_pgd(model, x, y, spec))


# --- grouped PGD ---


def ref_grouped(models, x, y, counts, spec):
    """Each model's rows attacked, and predicted, on their own, in order."""
    attacked, classes, start = [], [], 0
    for model, n in zip(models, counts):
        rows = slice(start, start + n)
        attacked.append(ref_pgd(model, x[rows], y[rows], spec))
        classes.append(ref_predict(model, attacked[-1]))
        start += n
    return np.concatenate(attacked), np.concatenate(classes)


def grouped(models, x, y, counts, spec):
    """The group's iterates and its predictions on them."""
    group = ModelGroup(models, counts)
    attacked = pgd_batch(group, x, y, spec)
    return attacked, predict_batch(group, attacked)


def assert_grouped_matches_reference(models, x, y, counts, spec):
    """Returns the reference classes, after an exact comparison."""
    attacked, classes = grouped(models, x, y, counts, spec)
    ref_attacked, ref_classes = ref_grouped(models, x, y, counts, spec)
    assert np.array_equal(attacked, ref_attacked)
    assert np.array_equal(classes, ref_classes)
    return ref_classes


def random_group(seed, activation, hidden_layers, counts, mislabelled=False):
    """Models of one architecture with ``counts`` rows each, labelled by
    their model's clean prediction (or at random when ``mislabelled``)."""
    models, xs, ys = [], [], []
    for j, n in enumerate(counts):
        model, rng = random_model(100 * seed + j, activation, hidden_layers)
        x = rng.random((n, 5))
        classes = model.architecture.class_count
        models.append(model)
        xs.append(x)
        ys.append(rng.integers(0, classes, size=n) if mislabelled else ref_predict(model, x))
    return models, np.concatenate(xs), np.concatenate(ys).astype(np.int64)


@pytest.mark.parametrize("activation", list(OutputActivation))
@pytest.mark.parametrize("hidden_layers", [1, 2])
def test_grouped_pgd_matches_reference_per_model(activation, hidden_layers):
    spec = AttackSpec(epsilon=0.4, step_size=0.03, steps=15)
    # the second model has no row in the group
    counts = [23, 0, 41, 7, 30]
    flips = []
    for seed in range(4):
        for mislabelled in (False, True):
            models, x, y = random_group(seed, activation, hidden_layers, counts, mislabelled)
            expected = assert_grouped_matches_reference(models, x, y, counts, spec)
            flips.append(expected != y)
            # every model alone, as a group of one
            start = 0
            for model, n in zip(models, counts):
                rows = slice(start, start + n)
                assert_grouped_matches_reference([model], x[rows], y[rows], [n], spec)
                start += n
    flips = np.concatenate(flips)
    assert 0 < flips.sum() < flips.size


@pytest.mark.parametrize("activation", list(OutputActivation))
@pytest.mark.parametrize(
    "spec",
    [AttackSpec(epsilon=0.0), AttackSpec(epsilon=0.3, step_size=0.1, steps=1)],
    ids=["epsilon0", "steps1"],
)
def test_grouped_pgd_degenerate_specs_match_reference(activation, spec):
    counts = [12, 30, 0, 18]
    for mislabelled in (False, True):
        models, x, y = random_group(5, activation, 1, counts, mislabelled)
        assert_grouped_matches_reference(models, x, y, counts, spec)


@pytest.mark.parametrize(
    "margin_sets, flip_steps",
    [
        ([np.linspace(0.001, 0.015, 20), np.linspace(0.081, 0.099, 20)], {1, 5}),
        ([np.linspace(0.001, 0.015, 20), np.linspace(0.002, 0.012, 9)], {1}),
    ],
    ids=["first_and_last_step", "every_row_flips_early"],
)
def test_grouped_pgd_flip_timing_extremes_match_reference(margin_sets, flip_steps):
    # two models, z = x0 - x1 and z = 2 (x0 - x1): rows that flip after the
    # first step with rows that flip only at the last one, or a group whose
    # rows all flip before the last step
    spec = AttackSpec(epsilon=0.3, step_size=0.01, steps=5)
    models, xs, ys, steps = [], [], [], []
    for scale, margins in zip((1.0, 2.0), margin_sets):
        model, x, y = linear_sigmoid_rows(margins)
        model = ModelParams(model.architecture, model.values * scale)
        steps.append(first_flip_steps(model, x, y, spec))
        models.append(model)
        xs.append(x)
        ys.append(y)
    assert set(np.concatenate(steps)) == flip_steps
    x, y, counts = np.concatenate(xs), np.concatenate(ys), [len(v) for v in ys]
    expected = assert_grouped_matches_reference(models, x, y, counts, spec)
    assert (expected != y).all()


def test_grouped_input_gradient_matches_reference_per_model():
    for activation in OutputActivation:
        counts = [9, 0, 14]
        models, x, y = random_group(3, activation, 2, counts, mislabelled=True)
        got = input_gradient_batch(ModelGroup(models, counts), x, y)
        bounds = np.cumsum([0, *counts])
        for j, model in enumerate(models):
            rows = slice(bounds[j], bounds[j + 1])
            assert np.array_equal(got[rows], ref_input_gradient(model, x[rows], y[rows]))


def test_model_group_rejects_mismatched_groups():
    sigmoid, rng = random_model(0, OutputActivation.SIGMOID, 1)
    softmax, _ = random_model(0, OutputActivation.SOFTMAX, 1)
    x, y = rng.random((4, 5)), np.zeros(4, dtype=np.int64)
    spec = AttackSpec()
    with pytest.raises(InputError):
        ModelGroup([sigmoid, softmax], [2, 2])
    with pytest.raises(InputError):
        ModelGroup([], [])
    with pytest.raises(InputError):
        ModelGroup([sigmoid, sigmoid], [2])
    with pytest.raises(InputError):
        ModelGroup([sigmoid, sigmoid], [5, -1])
    with pytest.raises(InputError):
        pgd_batch(ModelGroup([sigmoid, sigmoid], [2, 3]), x, y, spec)
    with pytest.raises(InputError):
        predict_batch(ModelGroup([sigmoid], [3]), x)


def trained_setup(seed=2, rounds=3, arch=Architecture((8, 16, 1), OutputActivation.SIGMOID), clients=4):
    data = generate_synthetic(500, 8, 0.3, seed=seed)
    train, test = train_test_split(data, 0.2, seed=seed)
    parts = partition(train, PartitionSpec(PartitionMode.DIRICHLET, clients, 0.5, seed=seed))
    init = init_params(arch, seed)
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


def test_pgd_matches_reference_on_every_coalition_aggregate():
    records, ctx = trained_setup()
    test = ctx.test
    for record in records:
        for ids in all_coalitions(record.client_ids):
            model = fedavg(record.global_before, [record.update_for(k) for k in ids])
            correct = predict_batch(model, test.features) == test.labels
            x, y = test.features[correct], test.labels[correct]
            assert np.array_equal(pgd_batch(model, x, y, ctx.attack), ref_pgd(model, x, y, ctx.attack))


# --- local training ---


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("activation", list(OutputActivation))
@pytest.mark.parametrize("hidden_layers", [1, 2])
@pytest.mark.parametrize("learning_rate", [0.01, 0.5])
def test_local_train_matches_per_step_reference(optimizer, activation, hidden_layers, learning_rate):
    # 37 rows in batches of 8: every epoch ends on a ragged batch of 5
    cfg = TrainingConfig(
        local_epochs=3, batch_size=8, learning_rate=learning_rate, optimizer=optimizer, seed=5
    )
    for seed in range(3):
        start, rng = random_model(seed, activation, hidden_layers)
        start = ModelParams(start.architecture, start.values / 3.0)
        classes = start.architecture.class_count
        data = Dataset(rng.random((37, 5)), rng.integers(0, classes, size=37), np.zeros(37, bool), classes)
        got = local_train(start, [(seed, data)], cfg, 2)[0].params
        assert np.array_equal(got.values, ref_local_train(start, data, cfg, 2, seed).values)
        assert not np.array_equal(got.values, start.values)


def random_client(start, rng, n=37):
    classes = start.architecture.class_count
    return Dataset(rng.random((n, 5)), rng.integers(0, classes, size=n), np.zeros(n, bool), classes)


def true_class_probs(model, data):
    _, _, probs = ref_forward(model, data.features)
    if model.architecture.output_activation is OutputActivation.SIGMOID:
        return np.where(data.labels == 1, probs, 1.0 - probs)
    return probs[np.arange(len(data)), data.labels]


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("activation", list(OutputActivation))
def test_local_train_with_clamped_rows_matches_reference(optimizer, activation):
    # Scaled-up weights saturate the outputs, so rows labelled against the
    # model's prediction have p_true < LOG_CLAMP: their delta is zeroed.
    cfg = TrainingConfig(local_epochs=2, batch_size=8, learning_rate=0.01, optimizer=optimizer, seed=5)
    clamped = 0
    for seed in range(3):
        start, rng = random_model(seed, activation, 1)
        start = ModelParams(start.architecture, start.values * 40.0)
        data = random_client(start, rng)
        clamped += int(np.count_nonzero(true_class_probs(start, data) < LOG_CLAMP))
        got = local_train(start, [(seed, data)], cfg, 2)[0].params
        assert np.array_equal(got.values, ref_local_train(start, data, cfg, 2, seed).values)
    assert clamped >= 10


@pytest.mark.parametrize("activation", list(OutputActivation))
@pytest.mark.parametrize("batch_size", [1, 64], ids=["one_row", "larger_than_data"])
def test_local_train_batch_size_extremes_match_reference(activation, batch_size):
    cfg = TrainingConfig(local_epochs=2, batch_size=batch_size, learning_rate=0.01, seed=5)
    for seed in range(2):
        start, rng = random_model(seed, activation, 1)
        data = random_client(start, rng)
        got = local_train(start, [(seed, data)], cfg, 2)[0].params
        assert np.array_equal(got.values, ref_local_train(start, data, cfg, 2, seed).values)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_local_train_ten_class_softmax_matches_reference(optimizer):
    cfg = TrainingConfig(local_epochs=2, batch_size=8, learning_rate=0.01, optimizer=optimizer, seed=5)
    for seed in range(2):
        rng = np.random.default_rng(seed)
        arch = Architecture((5, 6, 10), OutputActivation.SOFTMAX)
        start = ModelParams(arch, rng.normal(scale=0.5, size=arch.param_count))
        data = random_client(start, rng, n=60)
        got = local_train(start, [(seed, data)], cfg, 2)[0].params
        assert np.array_equal(got.values, ref_local_train(start, data, cfg, 2, seed).values)


# A round's client sizes for K = 1..8 clients: equal and very unequal step
# counts, and one-sample clients.
ROUND_SIZES = [
    (13,),
    (8, 8),
    (1, 1, 1),
    (21, 21, 21, 21),
    (40, 3, 1, 17, 9),
    (14, 14, 2, 30, 14, 1),
    (5, 64, 5, 5, 12, 1, 7),
    (61, 2, 14, 1, 33, 7, 5, 20),
]


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("activation", list(OutputActivation))
@pytest.mark.parametrize("hidden_layers", [1, 2])
@pytest.mark.parametrize("batch_size", [1, 7, 70], ids=["one_row", "odd", "above_every_client"])
@pytest.mark.parametrize("local_epochs", [0, 3])
def test_round_matches_per_client_reference(optimizer, activation, hidden_layers, batch_size, local_epochs):
    cfg = TrainingConfig(
        local_epochs=local_epochs, batch_size=batch_size, learning_rate=0.05, optimizer=optimizer, seed=5
    )
    for seed, sizes in enumerate(ROUND_SIZES):
        start, rng = random_model(seed, activation, hidden_layers)
        start = ModelParams(start.architecture, start.values / 3.0)
        parts = [random_client(start, rng, n) for n in sizes]
        record = run_round(start, parts, cfg, 2)
        assert record.client_ids == tuple(range(len(sizes)))
        for k, update in enumerate(record.updates):
            assert update.sample_count == sizes[k]
            want = ref_local_train(start, parts[k], cfg, 2, k)
            assert np.array_equal(update.params.values, want.values)


# --- rel noise ---


def test_context_noise_is_built_once_and_read_only():
    records, ctx = trained_setup(rounds=2)
    noisy = ctx.noisy_features
    assert noisy is ctx.noisy_features
    noise = ref_noise_matrix(ctx.noise, len(ctx.test), ctx.test.feature_dim)
    assert np.array_equal(noisy, ctx.test.features + noise)
    with pytest.raises(ValueError):
        noisy[0, 0] = 1.0
    model = records[-1].global_after
    clean = predict_batch(model, ctx.test.features)
    assert evaluate(model, Metric.REL, ctx, clean) == ref_evaluate(model, Metric.REL, ctx)


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
    cache = CoalitionCache(ctx)
    coalitions = all_coalitions(records[0].client_ids)
    for record in records:
        for metric in Metric:
            for ids in coalitions:
                got = coalition_utility(record, ids, metric, cache)
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
    updates = (ClientUpdate(0, always_one, 10), ClientUpdate(1, always_zero, 10))
    record = RoundRecord(1, always_zero, updates, always_zero)
    ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, 1), AttackSpec(0.1, 0.02, 3))
    return record, ctx


@pytest.mark.parametrize("metric", list(Metric))
def test_undefined_metric_fallback_matches_reference(metric):
    record, ctx = fallback_round()
    cache = CoalitionCache(ctx)
    for ids in [(0,), (0, 1), (), (1,)]:
        got = coalition_utility(record, ids, metric, cache)
        assert got == ref_coalition_utility(record, ids, metric, ctx)
        assert coalition_utility(record, ids, metric, CoalitionCache(ctx)) == got
    # fair is undefined on a one-sided test set for every coalition; res only
    # where the aggregate gets nothing right
    expected = {Metric.FAIR: 4, Metric.RES: 1}.get(metric, 0)
    assert cache.undefined == expected


# --- res with certified rows ---

RES_ARCHITECTURES = {
    "sigmoid": Architecture((8, 16, 1), OutputActivation.SIGMOID),
    "softmax": Architecture((8, 16, 2), OutputActivation.SOFTMAX),
    "two_hidden": Architecture((8, 16, 16, 1), OutputActivation.SIGMOID),
}


@pytest.mark.parametrize("name", sorted(RES_ARCHITECTURES))
def test_res_matches_reference_on_every_coalition_aggregate(name):
    records, ctx = trained_setup(arch=RES_ARCHITECTURES[name])
    test = ctx.test
    certified = attacked = 0
    for record in records:
        for ids in all_coalitions(record.client_ids):
            model = fedavg(record.global_before, [record.update_for(k) for k in ids])
            clean = predict_batch(model, test.features)
            assert evaluate(model, Metric.RES, ctx, clean) == ref_evaluate(model, Metric.RES, ctx)
            correct = clean == test.labels
            rows = certified_rows(model, test.features[correct], test.labels[correct], ctx.attack)
            certified += int(rows.sum())
            attacked += int(correct.sum())
    # the aggregates hold certified rows and attacked ones
    assert 0 < certified < attacked


def counting_pgd(monkeypatch):
    """Replace the attack ``evaluate`` runs by one that records its row counts."""
    rows = []

    def counted(model, inputs, labels, spec):
        rows.append(len(labels))
        return pgd_batch(model, inputs, labels, spec)

    monkeypatch.setattr(metrics, "pgd_batch", counted)
    return rows


def test_res_with_every_row_certified_runs_no_attack(monkeypatch):
    record, ctx = fallback_round()
    model = record.global_before  # logit -10 on every row, all labels 0
    test = ctx.test
    assert certified_rows(model, test.features, test.labels, ctx.attack).all()
    rows = counting_pgd(monkeypatch)
    clean = predict_batch(model, test.features)
    assert evaluate(model, Metric.RES, ctx, clean) == ref_evaluate(model, Metric.RES, ctx) == 1.0
    assert rows == []


def test_res_with_no_row_certified_attacks_every_row(monkeypatch):
    # margins of 0.001 to 0.099 against a reach of 0.05 per coordinate: on
    # this linear model the bound is exact, and PGD flips every row
    model, x, y = linear_sigmoid_rows(np.linspace(0.001, 0.099, 30))
    test = Dataset(x, y, np.arange(30) % 2 == 0, 2)
    ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, 1), AttackSpec(0.3, 0.01, 5))
    assert not certified_rows(model, x, y, ctx.attack).any()
    rows = counting_pgd(monkeypatch)
    clean = predict_batch(model, x)
    value = evaluate(model, Metric.RES, ctx, clean)
    assert value == ref_evaluate(model, Metric.RES, ctx) == 0.0
    assert rows == [30]


# --- res attacked in groups ---


def counting_groups(monkeypatch):
    """Record the model count of every PGD group ``metrics`` runs."""
    groups = []

    def counted(group, inputs, labels, spec):
        groups.append(len(group.bounds) - 1)
        return pgd_batch(group, inputs, labels, spec)

    monkeypatch.setattr(metrics, "pgd_batch", counted)
    return groups


@pytest.mark.parametrize("name", sorted(RES_ARCHITECTURES))
def test_adversarial_predictions_in_groups_match_reference(name, monkeypatch):
    records, ctx = trained_setup(arch=RES_ARCHITECTURES[name])
    test = ctx.test
    # small groups: a round's 16 aggregates fill several of them
    monkeypatch.setattr(metrics, "ATTACK_GROUP_ROWS", 150)
    groups = counting_groups(monkeypatch)
    for record in records:
        models = [
            fedavg(record.global_before, [record.update_for(k) for k in ids])
            for ids in all_coalitions(record.client_ids)
        ]
        cleans = [predict_batch(model, test.features) for model in models]
        predictions = metrics.adversarial_predictions(models, cleans, ctx)
        for model, clean, adversarial in zip(models, cleans, predictions):
            got = evaluate(model, Metric.RES, ctx, clean, adversarial)
            assert got == ref_evaluate(model, Metric.RES, ctx)
    assert max(groups) > 1


def test_adversarial_predictions_skip_models_without_open_rows(monkeypatch):
    # the base model certifies every row, the other one none; a model that
    # gets nothing right has no res rows at all
    record, ctx = fallback_round()
    everything_right = record.global_before
    nothing_right = record.updates[0].params
    test = ctx.test
    groups = counting_groups(monkeypatch)
    models = [everything_right, nothing_right, everything_right]
    cleans = [predict_batch(model, test.features) for model in models]
    first, second, third = metrics.adversarial_predictions(models, cleans, ctx)
    assert second is None
    assert np.array_equal(first, test.labels) and np.array_equal(third, test.labels)
    assert groups == []


def score_fold(records, ctx, schemes, grouped, monkeypatch):
    """Score ``schemes`` on every metric with a fresh cache; unless
    ``grouped``, the cache computes one coalition at a time, so every res
    coalition is attacked alone."""
    with monkeypatch.context() as patch:
        groups = counting_groups(patch)
        if not grouped:
            compute = CoalitionCache.compute

            def one_at_a_time(self, record, coalitions, *args):
                for members in coalitions:
                    compute(self, record, [members], *args)

            patch.setattr(CoalitionCache, "compute", one_at_a_time)
        cache = CoalitionCache(ctx)
        vcfg = valuation.ValuationConfig(eps1=0.0)
        table = valuation.score_rounds(records, schemes, list(Metric), vcfg, cache)
    # the last round's requested coalitions, per scheme and metric
    requests = {(s, m): cache.requests(s, m) for s in schemes for m in Metric}
    counts = (cache.evaluations, cache.hits, cache.undefined, cache.requested, requests)
    return table.entries, counts, groups


def test_prefetched_fold_matches_one_request_at_a_time(monkeypatch):
    # every scheme on 4 clients, then GTG alone on 8: its coalitions too are
    # attacked many models to a group
    for clients, rounds, schemes in [(4, 4, list(valuation.Scheme)), (8, 2, [valuation.Scheme.GTG])]:
        records, ctx = trained_setup(rounds=rounds, clients=clients)
        grouped = score_fold(records, ctx, schemes, True, monkeypatch)
        alone = score_fold(records, ctx, schemes, False, monkeypatch)
        assert grouped[:2] == alone[:2]
        assert max(grouped[2]) > 1 and set(alone[2]) == {1}
        assert len(grouped[2]) < len(alone[2])


# --- GTG scanned by position ---


def ref_gtg_permutations(clients, budget, round_idx, vcfg):
    """The balanced sample drawn one ``rng_from`` stream per permutation."""
    clients = tuple(sorted(clients))
    k = len(clients)
    perms = []
    for r in range(budget):
        i = r % k
        rest = clients[:i] + clients[i + 1 :]
        if len(range(i, budget, k)) >= math.factorial(k - 1):
            suffix = list(permutations(rest))[r // k]
        else:
            rng = rng_from(vcfg.perm_seed, "perm", round_idx, r)
            suffix = tuple(int(c) for c in rng.permutation(np.array(rest)))
        perms.append((clients[i],) + suffix)
    return perms


def ref_gtg_values(clients, u, round_idx, vcfg):
    """GTG scanning one permutation after another, one request at a time;
    ``u`` takes a sorted tuple of client ids."""
    clients = tuple(sorted(clients))
    v_empty = u(())
    v_full = u(clients)
    if abs(v_full - v_empty) < vcfg.eps1:
        return {c: 0.0 for c in clients}
    budget = valuation.permutation_budget(len(clients), vcfg.eps2)
    sums = {c: 0.0 for c in clients}
    for perm in ref_gtg_permutations(clients, budget, round_idx, vcfg):
        prefix = ()
        v_prefix = v_empty
        for client in perm:
            if abs(v_full - v_prefix) < vcfg.eps3:
                break
            prefix = tuple(sorted(prefix + (client,)))
            v_next = u(prefix)
            sums[client] += v_next - v_prefix
            v_prefix = v_next
    return {c: sums[c] / budget for c in clients}


def recorded(table, requests):
    """The game ``table`` over sorted tuples, each request kept in ``requests``."""

    def u(ids):
        requests.append(ids)
        return table[ids]

    return u


def on_mask_lists(clients, u):
    """``u`` over sorted tuples, asked for lists of bitmasks as the cores ask."""
    ids = sorted(clients)
    return lambda masks: [u(tuple(c for i, c in enumerate(ids) if mask >> i & 1)) for mask in masks]


# eps2 = 5/6 at K = 3 enumerates two leads and draws the third; past K = 5
# larger eps2 adds time, not cases
@pytest.mark.parametrize(
    "k, eps2", [(k, 0.05) for k in range(1, 9)] + [(k, e) for k in range(1, 6) for e in (0.4, 5 / 6, 1.0)]
)
def test_gtg_permutations_match_one_stream_per_permutation(k, eps2):
    clients = tuple(range(10, 10 + 3 * k, 3))
    vcfg = valuation.ValuationConfig(eps2=eps2, perm_seed=k)
    budget = valuation.permutation_budget(k, eps2)
    got = valuation.gtg_permutations(clients, 5, vcfg)
    assert got.shape == (budget, k) and not got.flags.writeable
    # rows hold positions in the sorted clients
    assert np.array(clients)[got].tolist() == [list(p) for p in ref_gtg_permutations(clients, budget, 5, vcfg)]


GTG_CASES = {
    # name: (eps1, eps2, eps3), on a random game
    "full_scan": (0.0, 0.05, 0.0),
    "eps3_truncates": (0.0, 0.05, 0.2),
    "eps1_skips": (2.0, 0.05, 0.0),
    "eps2_1_enumerates": (0.0, 1.0, 0.1),
}


@pytest.mark.parametrize(
    "k, case",
    [(k, case) for case in sorted(GTG_CASES) for k in range(2, 9) if GTG_CASES[case][1] < 1 or k <= 5],
)
def test_gtg_scan_matches_permutation_major_reference(k, case):
    eps1, eps2, eps3 = GTG_CASES[case]
    vcfg = valuation.ValuationConfig(eps1=eps1, eps2=eps2, eps3=eps3, perm_seed=k)
    clients = tuple(range(3, 3 + 2 * k, 2))
    rng = np.random.default_rng(k)
    # values on a coarse grid, so prefixes tie with the full coalition too,
    # but not a binary one, so the summation order shows in the last bits;
    # and with eps3 > 0 every permutation led by the first client truncates
    table = {ids: float(rng.integers(0, 8)) / 7 for ids in all_coalitions(clients)}
    table[clients] = table[clients[:1]] + 1 / 64
    got_requests, ref_requests = [], []
    got = valuation.gtg_shapley_values(clients, on_mask_lists(clients, recorded(table, got_requests)), 4, vcfg)
    want = ref_gtg_values(clients, recorded(table, ref_requests), 4, vcfg)
    assert got == want  # bit-equal
    assert Counter(got_requests) == Counter(ref_requests)
    if case == "eps3_truncates":
        assert len(ref_requests) < 2 + k * valuation.permutation_budget(k, eps2)
    if case == "eps1_skips":
        assert len(ref_requests) == 2


@pytest.mark.parametrize("k", [62, 63, 64, 70])
def test_gtg_scan_past_int64_masks_matches_reference(k):
    # from 63 clients on, the scan's bitmasks are Python ints
    clients = tuple(range(k))
    costs = np.random.default_rng(k).random(k)
    game = lambda ids: float(sum(costs[list(ids)]))  # noqa: E731
    vcfg = valuation.ValuationConfig(eps1=0.0, eps2=1e-300, eps3=0.05)
    got = valuation.gtg_shapley_values(clients, on_mask_lists(clients, game), 1, vcfg)
    assert got == ref_gtg_values(clients, game, 1, vcfg)


@pytest.mark.parametrize("metric", list(Metric))
def test_gtg_round_with_undefined_fallbacks_matches_reference(metric, monkeypatch):
    record, ctx = fallback_round()
    vcfg = valuation.ValuationConfig(eps1=0.0, eps2=1.0, eps3=0.0)
    got_requests = []

    def counting_utility(record, subset, metric, *args):
        got_requests.append(subset)
        return coalition_utility(record, subset, metric, *args)

    monkeypatch.setattr(valuation, "coalition_utility", counting_utility)
    cache = CoalitionCache(ctx)
    got = valuation.gtg_shapley_round(record, metric, vcfg, cache)
    memo, ref_requests = {}, []

    def ref_u(ids):
        ref_requests.append(ids)
        if ids not in memo:
            memo[ids] = ref_coalition_utility(record, ids, metric, ctx)
        return memo[ids]

    assert got == ref_gtg_values(record.client_ids, ref_u, record.round, vcfg)
    assert Counter(got_requests) == Counter(ref_requests)
    # the counts of the permutation-major scan through a cache of its own
    ref_cache = CoalitionCache(ctx)
    ref_gtg_values(record.client_ids, lambda ids: ref_cache.utility(record, ids, metric), record.round, vcfg)
    counts = (cache.evaluations, cache.hits, cache.undefined)
    assert counts == (ref_cache.evaluations, ref_cache.hits, ref_cache.undefined)
    assert cache.undefined == {Metric.FAIR: 4, Metric.RES: 1}.get(metric, 0)


# --- data generation and partitioning ---


def ref_generate_features(n, d, group_imbalance, seed):
    """The synthetic draw with one new array per operation."""
    rng = rng_from(seed, "synthetic")
    sensitive = rng.random(n) < 0.5
    p_one = np.where(sensitive, 0.5 + group_imbalance / 2, 0.5 - group_imbalance / 2)
    labels = (rng.random(n) < p_one).astype(np.int64)
    means = np.where(labels == 1, 0.75, 0.25)
    features = rng.normal(size=(n, d)) * 0.15 + means[:, None]
    return np.clip(features, 0.0, 1.0), labels, sensitive


def ref_partition(train, spec):
    """Each client's rows gathered from ``train`` by a list of index scalars,
    and how many samples the empty-client repair moved."""
    k = spec.client_count
    rng = rng_from(spec.seed, "partition")
    assignments = [[] for _ in range(k)]
    moved = 0
    if spec.mode is PartitionMode.IID:
        order = rng.permutation(len(train))
        base, extra = divmod(len(train), k)
        start = 0
        for c in range(k):
            size = base + (1 if c < extra else 0)
            assignments[c] = list(order[start : start + size])
            start += size
    else:
        for cls in range(train.class_count):
            idx = rng.permutation(np.flatnonzero(train.labels == cls))
            props = rng.dirichlet(np.full(k, spec.dirichlet_alpha))
            counts = rng.multinomial(len(idx), props)
            start = 0
            for c in range(k):
                assignments[c].extend(idx[start : start + counts[c]])
                start += counts[c]
        sizes = np.array([len(a) for a in assignments])
        while (sizes == 0).any():
            empty = int(np.flatnonzero(sizes == 0)[0])
            donor = int(np.argmax(sizes))
            assignments[empty].append(assignments[donor].pop())
            sizes[empty] += 1
            sizes[donor] -= 1
            moved += 1
    return [train.subset(a) for a in assignments], moved


def assert_same_rows(got, want):
    for name in ("features", "labels", "sensitive"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.class_count == want.class_count


@pytest.mark.parametrize("n, d, imbalance, seed", [(10, 2, 0.0, 0), (257, 3, 0.3, 7), (4_000, 8, 0.5, 11), (1_001, 17, 0.9, 42)])
def test_generated_data_matches_reference(n, d, imbalance, seed):
    got = generate_synthetic(n, d, imbalance, seed)
    features, labels, sensitive = ref_generate_features(n, d, imbalance, seed)
    assert_same_rows(got, Dataset(features, labels, sensitive, class_count=2))


PARTITION_SPECS = [
    (mode, k, alpha)
    for k in range(2, 9)
    for mode, alpha in [(PartitionMode.IID, 0.5)] + [(PartitionMode.DIRICHLET, a) for a in (0.05, 0.5, 1000.0)]
]


@pytest.mark.parametrize("mode, k, alpha", PARTITION_SPECS)
@pytest.mark.parametrize("seed", [0, 5, 123])
def test_partition_matches_reference(mode, k, alpha, seed):
    train, _ = train_test_split(generate_synthetic(600, 3, 0.4, seed), 0.25, seed + 1)
    spec = PartitionSpec(mode, k, alpha, seed=seed)
    got = partition(train, spec)
    want, _ = ref_partition(train, spec)
    assert len(got) == len(want) == k
    for g, w in zip(got, want):
        assert_same_rows(g, w)


def tiny_train(k, seed):
    """A training set of K*C to K*C + 2 rows with skewed labels."""
    rng = np.random.default_rng(seed)
    n = 2 * k + seed % 3
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, size=k, replace=False)] = 1
    return Dataset(rng.random((n, 3)), labels, rng.random(n) < 0.5, class_count=2)


def test_partition_of_tiny_sets_matches_reference_through_the_repair():
    repaired = 0
    for k in range(2, 9):
        for alpha in (0.05, 0.5):
            for seed in range(6):
                train = tiny_train(k, seed)
                spec = PartitionSpec(PartitionMode.DIRICHLET, k, alpha, seed=seed)
                got = partition(train, spec)
                want, moved = ref_partition(train, spec)
                repaired += moved > 0
                for g, w in zip(got, want, strict=True):
                    assert_same_rows(g, w)
    assert repaired >= 20  # the empty-client repair runs in many of these cases


@pytest.mark.parametrize("mode", list(PartitionMode))
def test_parts_are_consecutive_row_views_of_one_array(mode):
    train, _ = train_test_split(generate_synthetic(500, 4, 0.2, 9), 0.2, 10)
    parts = partition(train, PartitionSpec(mode, 5, 0.3, seed=4))
    for name in ("features", "labels", "sensitive"):
        views = [getattr(p, name) for p in parts]
        base = views[0].base
        assert base is not None and all(v.base is base for v in views), name
        assert len(base) == len(train)
        start = 0
        for v in views:
            assert not v.flags.writeable
            offset = v.__array_interface__["data"][0] - base.__array_interface__["data"][0]
            assert offset == start * base.strides[0]
            start += len(v)
        assert start == len(base)


def composed_fold(cfg, source=None):
    """Fold 0's parts and test set by the public functions, one after the
    other: the draw in its own order, the train split, the partition."""
    fold_seed = cfg.fold_seed(0)
    if source is None:
        source = generate_synthetic(cfg.synthetic_n, cfg.synthetic_d, cfg.group_imbalance, derive_seed(fold_seed, "data"))
    train, test = train_test_split(source, cfg.test_fraction, derive_seed(fold_seed, "split"))
    spec = PartitionSpec(cfg.partition_mode, cfg.clients, cfg.dirichlet_alpha, seed=derive_seed(fold_seed, "partition"))
    return partition(train, spec), test, train, spec


def assert_fold_matches_composition(cfg, source=None):
    parts, test = fold_split(cfg, cfg.fold_seed(0), source)
    want_parts, want_test, _, _ = composed_fold(cfg, source)
    assert len(parts) == cfg.clients
    for got, want in zip([*parts, test], [*want_parts, want_test], strict=True):
        assert_same_rows(got, want)


FOLD_SIZES = [FEATURE_CHUNK_ROWS - 1, FEATURE_CHUNK_ROWS, FEATURE_CHUNK_ROWS + 1, 3 * FEATURE_CHUNK_ROWS + 1]
FOLD_PARTITIONS = [(PartitionMode.IID, 0.5), (PartitionMode.DIRICHLET, 0.5), (PartitionMode.DIRICHLET, 0.05)]


def fold_config(n, mode, alpha, test_fraction, seed=3, clients=4, **keys):
    return ExperimentConfig(
        synthetic_n=n,
        synthetic_d=5,
        group_imbalance=0.4,
        test_fraction=test_fraction,
        partition_mode=mode,
        dirichlet_alpha=alpha,
        clients=clients,
        master_seed=seed,
        schemes=("loo",),
        **keys,
    )


@pytest.mark.parametrize("n", FOLD_SIZES)
@pytest.mark.parametrize("mode, alpha", FOLD_PARTITIONS)
@pytest.mark.parametrize("edge", ["one test row per class", "middle", "a few train rows per client"])
def test_fold_layout_matches_split_then_partition(n, mode, alpha, edge):
    test_fraction = {"one test row per class": 1.5 / n, "middle": 0.3, "a few train rows per client": 1 - 14 / n}[edge]
    assert_fold_matches_composition(fold_config(n, mode, alpha, test_fraction))


def test_fold_layout_matches_through_the_repair():
    repaired = 0
    for seed in range(12):
        cfg = fold_config(FEATURE_CHUNK_ROWS + 1, PartitionMode.DIRICHLET, 0.05, 1 - 16 / (FEATURE_CHUNK_ROWS + 1), seed=seed, clients=6)
        assert_fold_matches_composition(cfg)
        _, _, train, spec = composed_fold(cfg)
        repaired += ref_partition(train, spec)[1] > 0
    assert repaired >= 8  # the empty-client repair runs in most of these folds


@pytest.mark.parametrize(
    "test_fraction, message",
    [(0.2 / 1_000, r"degenerate split: 1000 train / 0 test samples"), (1 - 5 / 1_000, r"need at least K\*C = 8 samples, have [4-6]$")],
)
@pytest.mark.parametrize("mode, alpha", FOLD_PARTITIONS)
def test_fold_layout_keeps_the_split_and_partition_errors(test_fraction, message, mode, alpha):
    cfg = fold_config(1_000, mode, alpha, test_fraction)
    with pytest.raises(ConfigError, match=message) as want:
        composed_fold(cfg)
    with pytest.raises(ConfigError) as got:
        fold_split(cfg, cfg.fold_seed(0), None)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("mode, alpha", FOLD_PARTITIONS)
def test_csv_fold_layout_matches_split_then_partition(tmp_path, mode, alpha):
    rng = np.random.default_rng(8)
    written = Dataset(rng.random((301, 4)), rng.integers(0, 3, 301), rng.random(301) < 0.5, class_count=3)
    save_dataset_csv(written, tmp_path / "data.csv")
    source = load_csv(tmp_path / "data.csv", CsvSchema("y", "s", "1"))
    cfg = fold_config(301, mode, alpha, 0.25, data_source="csv", csv_path=str(tmp_path / "data.csv"), target_class=2)
    assert_fold_matches_composition(cfg, source)
    parts, test = fold_split(cfg, cfg.fold_seed(0), source)
    # gathered once: one array for the whole fold, apart from the source
    base = test.features.base
    assert all(p.features.base is base for p in parts) and len(base) == len(source)
    assert not np.shares_memory(base, source.features)
