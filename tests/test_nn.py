import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrust import nn
from fedtrust.attacks import AttackSpec, certified_rows, pgd_batch
from fedtrust.data import Dataset
from fedtrust.errors import ConfigError, InputError, NumericError
from fedtrust.federation import TrainingConfig, local_train
from fedtrust.nn import (
    Architecture,
    ModelParams,
    OutputActivation,
    adam_step,
    init_params,
    input_gradient_batch,
    loss_and_param_grads,
    predict_batch,
    sgd_step,
    unpack_layers,
)
from helpers import cross_entropy, loads_params


def loss_and_grad(params, x, y):
    """Mean cross-entropy of a model on the batch (x, y), and its gradient."""
    arch = params.architecture
    y = np.asarray(y)
    grad = np.empty(arch.param_count)
    loss_and_param_grads(nn.as_group(params, len(x)), x, y, unpack_layers(arch, grad))
    return cross_entropy(params, x, y), grad


def scratch(arch):
    """The two scratch vectors ``adam_step`` overwrites."""
    return np.empty(arch.param_count), np.empty(arch.param_count)


def central_diff_param_grad(params, x, y, step=1e-4):
    """Independent oracle: central finite differences of the batch loss."""
    base = params.values.copy()
    grad = np.empty_like(base)
    for i in range(len(base)):
        plus = base.copy()
        plus[i] += step
        minus = base.copy()
        minus[i] -= step
        lp, _ = loss_and_grad(ModelParams(params.architecture, plus), x, y)
        lm, _ = loss_and_grad(ModelParams(params.architecture, minus), x, y)
        grad[i] = (lp - lm) / (2 * step)
    return grad


def central_diff_input_grad(params, x, label, step=1e-4):
    grad = np.empty_like(x)
    for i in range(len(x)):
        plus = x.copy()
        plus[i] += step
        minus = x.copy()
        minus[i] -= step
        lp = sample_loss(params, plus, label)
        lm = sample_loss(params, minus, label)
        grad[i] = (lp - lm) / (2 * step)
    return grad


def sample_loss(params, x, label):
    loss, _ = loss_and_grad(params, x[None, :], [label])
    return loss


def random_case(rng, softmax=True):
    """Small random net + batch (x, y), resampled until clear of ReLU kinks."""
    d = int(rng.integers(2, 6))
    hidden = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(0, 3)))]
    out = int(rng.integers(2, 4)) if softmax else 1
    act = OutputActivation.SOFTMAX if softmax else OutputActivation.SIGMOID
    arch = Architecture((d, *hidden, out), act)
    for _ in range(50):
        params = ModelParams(arch, rng.normal(scale=0.7, size=arch.param_count))
        x = rng.random((4, d))
        y = rng.integers(0, arch.class_count, size=4)
        if _kink_margin(params, x) > 1e-2:
            return params, x, y
    raise AssertionError("could not sample a kink-free case")


def _kink_margin(params, x):
    margin = np.inf
    layers = unpack_layers(params.architecture, params.values)
    a = x
    for i, (w, b) in enumerate(layers[:-1]):
        z = a @ w + b
        margin = min(margin, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return margin


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


class TestArchitecture:
    def test_param_count_formula(self):
        assert Architecture((3, 5, 2)).param_count == 3 * 5 + 5 + 5 * 2 + 2 == 32

    def test_rejects_single_layer(self):
        with pytest.raises(ConfigError):
            Architecture((4,))

    def test_sigmoid_needs_one_output(self):
        with pytest.raises(ConfigError):
            Architecture((4, 2), OutputActivation.SIGMOID)
        assert Architecture((4, 1), OutputActivation.SIGMOID).class_count == 2


class TestInit:
    def test_biases_zero(self):
        params = init_params(Architecture((2, 1), OutputActivation.SIGMOID), seed=123)
        assert params.values[2] == 0.0

    def test_deterministic(self):
        arch = Architecture((4, 8, 2))
        a = init_params(arch, 7)
        b = init_params(arch, 7)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, init_params(arch, 8).values)

    def test_glorot_bounds(self):
        arch = Architecture((10, 20, 3))
        params = init_params(arch, 0)
        w1 = params.values[: 10 * 20]
        limit = math.sqrt(6 / 30)
        assert np.all(np.abs(w1) <= limit)


class TestPredict:
    def test_uniform_tie_breaks_low(self):
        arch = Architecture((2, 3))
        params = ModelParams(arch, np.zeros(arch.param_count))
        assert predict_batch(params, [[0.3, 0.8]]).tolist() == [0]

    def test_sigmoid_unit(self):
        # single linear unit w=[1,-1], b=0
        params = ModelParams(
            Architecture((2, 1), OutputActivation.SIGMOID), np.array([1.0, -1.0, 0.0])
        )
        assert predict_batch(params, [[0.9, 0.1]]).tolist() == [1]  # sigmoid(0.8) > 0.5
        assert predict_batch(params, [[0.1, 0.9]]).tolist() == [0]  # sigmoid(-0.8) < 0.5

    def test_sigmoid_saturates_without_overflow_warning(self):
        # a logit of -1000 overflows exp(-z); the filter in pyproject.toml
        # turns the RuntimeWarning into an error
        params = ModelParams(
            Architecture((2, 1), OutputActivation.SIGMOID), np.array([-1000.0, 0.0, 0.0])
        )
        assert predict_batch(params, np.array([[1.0, 0.0]])).tolist() == [0]

    def test_dimension_mismatch(self):
        params = init_params(Architecture((3, 2)), 0)
        with pytest.raises(InputError):
            predict_batch(params, [[0.1, 0.2]])

    @pytest.mark.parametrize("bad", [-1, 2], ids=["negative", "too_large"])
    @pytest.mark.parametrize("act", list(OutputActivation))
    def test_labels_outside_the_classes_rejected(self, act, bad):
        arch = Architecture((2, 2 if act is OutputActivation.SOFTMAX else 1), act)
        params = init_params(arch, 0)
        x, y = np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([0, bad])
        with pytest.raises(InputError, match="label out of range"):
            input_gradient_batch(params, x, y)
        with pytest.raises(InputError, match="label out of range"):
            pgd_batch(params, x, y, AttackSpec())


@pytest.mark.parametrize("act", list(OutputActivation))
def test_saturated_logits_warn_nowhere(act):
    # Logits of +-1000 overflow the sigmoid's exp and saturate softmax; each
    # entry point silences what it must, and nothing else warns.
    weights = [1000.0, -1000.0] if act is OutputActivation.SIGMOID else [0.0, 1000.0, 0.0, -1000.0]
    arch = Architecture((2, len(weights) // 2), act)
    params = ModelParams(arch, np.array([*weights, *[0.0] * (len(weights) // 2)]))
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.2], [0.1, 0.8]])
    y = np.array([1, 0, 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert predict_batch(params, x).tolist() == [1, 0, 1, 0]
        assert np.isfinite(input_gradient_batch(params, x, y)).all()
        adv = pgd_batch(params, x, predict_batch(params, x), AttackSpec(0.3, 0.1, 5))
        assert np.isfinite(adv).all()
        data = Dataset(x, y, np.zeros(4, bool), 2)
        update = local_train(params, [(0, data)], TrainingConfig(local_epochs=2, batch_size=3), 1)[0]
        assert np.isfinite(update.params.values).all()


@pytest.mark.parametrize("rows", [1, 7, 32])
@pytest.mark.parametrize("fan_in", [1, 16, 64])
@pytest.mark.parametrize("fan_out", [1, 16, 64])
def test_stacked_matmul_and_sum_match_per_model_calls(rows, fan_in, fan_out):
    # Weights and gradients are (m, fan_in, fan_out) views of (m, P) stacks,
    # batches (m, rows, .) arrays; each model's 2-D calls run on copies, as
    # they would for that model alone.
    m, offset = 5, 3
    size = offset + fan_in * fan_out + fan_out + 2
    rng = np.random.default_rng(rows * 10_000 + fan_in * 100 + fan_out)
    stack = rng.normal(scale=0.7, size=(m, size))
    w = stack[:, offset : offset + fan_in * fan_out].reshape(m, fan_in, fan_out)
    x = rng.normal(scale=3.0, size=(m, rows, fan_in))
    delta = rng.normal(scale=1e-3, size=(m, rows, fan_out))
    grad = np.empty((m, size))
    gw = grad[:, offset : offset + fan_in * fan_out].reshape(m, fan_in, fan_out)
    gb = grad[:, offset + fan_in * fan_out : offset + fan_in * fan_out + fan_out]

    z = np.matmul(x, w)
    back = np.matmul(delta, w.swapaxes(-1, -2))
    np.matmul(x.swapaxes(-1, -2), delta, out=gw)
    delta.sum(axis=1, out=gb)
    for j in range(m):
        wj, xj, dj = w[j].copy(), x[j].copy(), delta[j].copy()
        assert np.array_equal(z[j], xj @ wj)
        assert np.array_equal(back[j], dj @ wj.T)
        gwj, gbj = np.empty((fan_in, fan_out)), np.empty(fan_out)
        np.matmul(xj.T, dj, out=gwj)
        dj.sum(axis=0, out=gbj)
        assert np.array_equal(gw[j], gwj)
        assert np.array_equal(gb[j], gbj)


class TestLoss:
    def test_zero_params_softmax_is_log2(self):
        arch = Architecture((4, 2))
        params = ModelParams(arch, np.zeros(arch.param_count))
        x = np.random.default_rng(0).random((5, 4))
        loss, _ = loss_and_grad(params, x, [0, 1, 0, 1, 1])
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_saturated_sample_near_zero_loss(self):
        # big positive logit on the true class
        params = ModelParams(
            Architecture((1, 1), OutputActivation.SIGMOID), np.array([40.0, 0.0])
        )
        loss, _ = loss_and_grad(params, np.array([[1.0]]), [1])
        assert 0.0 <= loss <= 1e-6

    def test_empty_batch_rejected(self):
        params = init_params(Architecture((2, 2)), 0)
        with pytest.raises(InputError):
            loss_and_grad(params, np.empty((0, 2)), np.empty(0, dtype=int))

    def test_param_grad_needs_a_group_of_one(self):
        params = init_params(Architecture((2, 2)), 0)
        grad = np.empty(params.architecture.param_count)
        with pytest.raises(InputError, match="group of one"):
            loss_and_param_grads(
                nn.ModelGroup([params, params], [1, 1]),
                np.zeros((2, 2)),
                np.array([0, 1]),
                unpack_layers(params.architecture, grad),
            )

    @pytest.mark.parametrize("softmax", [True, False])
    def test_param_grad_matches_finite_differences(self, softmax):
        rng = np.random.default_rng(42 if softmax else 43)
        for _ in range(10):
            params, x, y = random_case(rng, softmax=softmax)
            _, grad = loss_and_grad(params, x, y)
            fd = central_diff_param_grad(params, x, y)
            assert rel_err(grad, fd) < 1e-4

    def test_loss_non_negative_and_softmax_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params, x, y = random_case(rng)
            loss, _ = loss_and_grad(params, x, y)
            assert loss >= 0.0
            _, probs = nn.as_group(params, len(x)).forward(x)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize(
    "sizes, act",
    [((5, 4, 1), OutputActivation.SIGMOID), ((5, 6, 4, 3), OutputActivation.SOFTMAX)],
    ids=["one_unit_output", "softmax_two_hidden"],
)
def test_group_of_one_follows_in_place_updates(sizes, act):
    # local training builds one group over its working vector, then steps
    # the vector in place
    arch = Architecture(sizes, act)
    rng = np.random.default_rng(17)
    values = init_params(arch, 3).values.copy()
    group = nn.ModelGroup.stacked(arch, values, 8)
    x, y = rng.random((8, sizes[0])), rng.integers(0, arch.class_count, size=8)
    grad, fresh_grad = np.empty(arch.param_count), np.empty(arch.param_count)
    for _ in range(3):
        sgd_step(values, rng.normal(size=arch.param_count), 0.1)
        fresh = nn.ModelGroup([ModelParams(arch, values)], [len(x)])
        (hidden, probs), (fresh_hidden, fresh_probs) = group.forward(x), fresh.forward(x)
        assert len(hidden) == len(fresh_hidden) == len(sizes) - 2
        assert all(np.array_equal(a, b) for a, b in zip(hidden, fresh_hidden))
        assert np.array_equal(probs, fresh_probs)
        loss_and_param_grads(group, x, y, unpack_layers(arch, grad))
        loss_and_param_grads(fresh, x, y, unpack_layers(arch, fresh_grad))
        assert np.array_equal(grad, fresh_grad)


class TestInputGradient:
    def test_linear_softmax_closed_form(self):
        # logits z = W^T x + b, so dL/dx = W (p - onehot(y))
        rng = np.random.default_rng(11)
        arch = Architecture((4, 3))
        params = ModelParams(arch, rng.normal(size=arch.param_count))
        x = rng.random(4)
        y = 1
        w = params.values[:12].reshape(4, 3)
        _, probs = nn.as_group(params, 1).forward(x[None, :])
        onehot = np.eye(3)[y]
        expected = w @ (probs[0] - onehot)
        got = input_gradient_batch(params, x[None, :], np.array([y]))[0]
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            params, xs, ys = random_case(rng)
            x, y = xs[0], int(ys[0])
            got = input_gradient_batch(params, x[None, :], np.array([y]))[0]
            fd = central_diff_input_grad(params, x, y)
            assert rel_err(got, fd) < 1e-4

    def test_dead_relu_region_zero_gradient(self):
        # hidden pre-activations all negative => no path to the loss
        arch = Architecture((2, 3, 2))
        values = np.zeros(arch.param_count)
        values[: 2 * 3] = 1.0  # W1 all ones
        values[6:9] = -10.0  # b1 very negative
        params = ModelParams(arch, values)
        grad = input_gradient_batch(params, np.array([[0.5, 0.5]]), np.array([0]))
        assert np.array_equal(grad, np.zeros((1, 2)))


class TestOptimizers:
    def test_sgd_zero_lr_is_identity(self):
        params = init_params(Architecture((2, 2)), 3)
        values = params.values.copy()
        sgd_step(values, np.ones(values.size), 0.0)
        assert np.array_equal(values, params.values)

    def test_sgd_arithmetic(self):
        values = np.array([1.0, 1.0])
        sgd_step(values, np.array([1.0, -1.0]), 0.5)
        assert np.array_equal(values, [0.5, 1.5])

    def test_sgd_two_steps_linear(self):
        params = init_params(Architecture((3, 2)), 9)
        g1 = np.random.default_rng(1).normal(size=params.values.size)
        g2 = np.random.default_rng(2).normal(size=params.values.size)
        stepped = params.values.copy()
        sgd_step(stepped, g1, 0.1)
        sgd_step(stepped, g2, 0.1)
        summed = params.values.copy()
        sgd_step(summed, g1 + g2, 0.1)
        assert np.allclose(stepped, summed, atol=1e-15)

    def test_sgd_rejects_nonfinite(self, monkeypatch):
        # the steps update in place; local_train checks the values after each
        arch = Architecture((2, 2))
        params = init_params(arch, 0)

        def nan_gradient(group, inputs, labels, grad_layers):
            for gw, gb in grad_layers:
                gw[...] = np.nan
                gb[...] = np.nan

        monkeypatch.setattr(nn, "loss_and_param_grads", nan_gradient)
        data = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), np.zeros(3, bool), 2)
        cfg = TrainingConfig(learning_rate=0.1, optimizer="sgd")
        with pytest.raises(NumericError, match=r"round 1, client 0"):
            local_train(params, [(0, data)], cfg, 1)

    def test_adam_first_step_magnitude(self):
        # after bias correction, step 1 moves each coord by ~lr in -sign(g)
        arch = Architecture((2, 2))
        values, m, v = (np.zeros(arch.param_count) for _ in range(3))
        g = np.array([0.5, -2.0, 1e-3, 3.0, -0.2, 0.7])
        adam_step(values, m, v, g, 1, 0.01, scratch(arch))
        expected = -0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(values, expected, atol=1e-12)
        assert np.allclose(m, 0.1 * g, rtol=1e-12) and np.allclose(v, 0.001 * g * g, rtol=1e-12)

    def test_adam_zero_gradient_fixed_point(self):
        arch = Architecture((2, 2))
        start = init_params(arch, 4).values
        values, m, v = start.copy(), np.zeros(arch.param_count), np.zeros(arch.param_count)
        for step in range(1, 4):
            adam_step(values, m, v, np.zeros(arch.param_count), step, 0.1, scratch(arch))
            assert np.array_equal(values, start)

    def test_adam_deterministic(self):
        arch = Architecture((3, 2))
        params = init_params(arch, 1)
        g = np.random.default_rng(7).normal(size=arch.param_count)
        runs = []
        for _ in range(2):
            values, m, v = params.values.copy(), np.zeros(arch.param_count), np.zeros(arch.param_count)
            adam_step(values, m, v, g, 1, 0.01, scratch(arch))
            runs.append((values, m, v))
        (a1, m1, v1), (a2, m2, v2) = runs
        assert np.array_equal(a1, a2)
        assert np.array_equal(m1, m2) and np.array_equal(v1, v2)


class TestSerialization:
    @pytest.mark.parametrize("act", [OutputActivation.SOFTMAX, OutputActivation.SIGMOID])
    def test_round_trip_exact(self, act):
        sizes = (3, 4, 2) if act is OutputActivation.SOFTMAX else (3, 4, 1)
        params = init_params(Architecture(sizes, act), 99)
        back = loads_params(nn.dumps_params(params))
        assert back.architecture == params.architecture
        assert np.array_equal(back.values, params.values)

    def test_file_round_trip(self, tmp_path):
        params = init_params(Architecture((2, 2)), 5)
        nn.save_params(params, tmp_path / "m.txt")
        back = loads_params((tmp_path / "m.txt").read_text())
        assert np.array_equal(back.values, params.values)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_predict_batch_matches_single(seed):
    rng = np.random.default_rng(seed)
    arch = Architecture((3, 4, 3))
    params = ModelParams(arch, rng.normal(size=arch.param_count))
    xs = rng.random((6, 3))
    batch_preds = predict_batch(params, xs)
    assert [int(predict_batch(params, x[None, :])[0]) for x in xs] == list(batch_preds)


@pytest.mark.parametrize("act", [OutputActivation.SOFTMAX, OutputActivation.SIGMOID])
@pytest.mark.parametrize("label_count", [1, 4], ids=["one_label", "n_minus_1_labels"])
@pytest.mark.parametrize(
    "call",
    [
        input_gradient_batch,
        lambda params, x, y: pgd_batch(params, x, y, AttackSpec()),
        lambda params, x, y: certified_rows(params, x, y, AttackSpec()),
    ],
    ids=["input_gradient_batch", "pgd_batch", "certified_rows"],
)
def test_labels_must_align_with_input_rows(act, label_count, call):
    sizes = (3, 4, 2) if act is OutputActivation.SOFTMAX else (3, 4, 1)
    params = init_params(Architecture(sizes, act), 0)
    x = np.random.default_rng(0).random((5, 3))
    with pytest.raises(InputError, match="labels must align with input rows"):
        call(params, x, np.zeros(label_count, dtype=np.int64))
