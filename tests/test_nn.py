import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrust import nn
from fedtrust.errors import ConfigError, InputError, NumericError
from fedtrust.nn import (
    AdamState,
    Architecture,
    Batch,
    ModelParams,
    OutputActivation,
    adam_step,
    init_params,
    input_gradient,
    loss_and_param_grads,
    predict,
    predict_batch,
    sgd_step,
)


def central_diff_param_grad(params, batch, step=1e-4):
    """Independent oracle: central finite differences of the batch loss."""
    base = params.values.copy()
    grad = np.empty_like(base)
    for i in range(len(base)):
        plus = base.copy()
        plus[i] += step
        minus = base.copy()
        minus[i] -= step
        lp, _ = loss_and_param_grads(ModelParams(params.architecture, plus), batch)
        lm, _ = loss_and_param_grads(ModelParams(params.architecture, minus), batch)
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
    loss, _ = loss_and_param_grads(params, Batch(x[None, :], np.array([label])))
    return loss


def random_case(rng, softmax=True):
    """Small random net + batch, resampled until clear of ReLU kinks."""
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
            return params, Batch(x, y)
    raise AssertionError("could not sample a kink-free case")


def _kink_margin(params, x):
    margin = np.inf
    layers = nn.unpack_layers(params)
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
        assert predict(params, [0.3, 0.8]) == 0

    def test_sigmoid_unit(self):
        # single linear unit w=[1,-1], b=0
        params = ModelParams(
            Architecture((2, 1), OutputActivation.SIGMOID), np.array([1.0, -1.0, 0.0])
        )
        assert predict(params, [0.9, 0.1]) == 1  # sigmoid(0.8) > 0.5
        assert predict(params, [0.1, 0.9]) == 0  # sigmoid(-0.8) < 0.5

    def test_dimension_mismatch(self):
        params = init_params(Architecture((3, 2)), 0)
        with pytest.raises(InputError):
            predict(params, [0.1, 0.2])


class TestLoss:
    def test_zero_params_softmax_is_log2(self):
        arch = Architecture((4, 2))
        params = ModelParams(arch, np.zeros(arch.param_count))
        batch = Batch(np.random.default_rng(0).random((5, 4)), np.array([0, 1, 0, 1, 1]))
        loss, _ = loss_and_param_grads(params, batch)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_saturated_sample_near_zero_loss(self):
        # big positive logit on the true class
        params = ModelParams(
            Architecture((1, 1), OutputActivation.SIGMOID), np.array([40.0, 0.0])
        )
        loss, _ = loss_and_param_grads(params, Batch(np.array([[1.0]]), np.array([1])))
        assert 0.0 <= loss <= 1e-6

    def test_empty_batch_rejected(self):
        params = init_params(Architecture((2, 2)), 0)
        with pytest.raises(InputError):
            loss_and_param_grads(params, Batch(np.empty((0, 2)), np.empty(0, dtype=int)))

    @pytest.mark.parametrize("softmax", [True, False])
    def test_param_grad_matches_finite_differences(self, softmax):
        rng = np.random.default_rng(42 if softmax else 43)
        for _ in range(10):
            params, batch = random_case(rng, softmax=softmax)
            _, grad = loss_and_param_grads(params, batch)
            fd = central_diff_param_grad(params, batch)
            assert rel_err(grad, fd) < 1e-4

    def test_loss_non_negative_and_softmax_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params, batch = random_case(rng)
            loss, _ = loss_and_param_grads(params, batch)
            assert loss >= 0.0
            _, _, probs = nn._forward(params, batch.inputs)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestInputGradient:
    def test_linear_softmax_closed_form(self):
        # logits z = W^T x + b, so dL/dx = W (p - onehot(y))
        rng = np.random.default_rng(11)
        arch = Architecture((4, 3))
        params = ModelParams(arch, rng.normal(size=arch.param_count))
        x = rng.random(4)
        y = 1
        w = params.values[:12].reshape(4, 3)
        _, _, probs = nn._forward(params, x[None, :])
        onehot = np.eye(3)[y]
        expected = w @ (probs[0] - onehot)
        got = input_gradient(params, x, y)
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            params, batch = random_case(rng)
            x, y = batch.inputs[0], int(batch.labels[0])
            got = input_gradient(params, x, y)
            fd = central_diff_input_grad(params, x, y)
            assert rel_err(got, fd) < 1e-4

    def test_dead_relu_region_zero_gradient(self):
        # hidden pre-activations all negative => no path to the loss
        arch = Architecture((2, 3, 2))
        values = np.zeros(arch.param_count)
        values[: 2 * 3] = 1.0  # W1 all ones
        values[6:9] = -10.0  # b1 very negative
        params = ModelParams(arch, values)
        grad = input_gradient(params, np.array([0.5, 0.5]), 0)
        assert np.array_equal(grad, np.zeros(2))


class TestOptimizers:
    def test_sgd_zero_lr_is_identity(self):
        params = init_params(Architecture((2, 2)), 3)
        out = sgd_step(params, np.ones(params.values.size), 0.0)
        assert np.array_equal(out.values, params.values)

    def test_sgd_arithmetic(self):
        params = ModelParams(Architecture((1, 1), OutputActivation.SIGMOID), np.array([1.0, 1.0]))
        out = sgd_step(params, np.array([1.0, -1.0]), 0.5)
        assert np.array_equal(out.values, [0.5, 1.5])

    def test_sgd_two_steps_linear(self):
        params = init_params(Architecture((3, 2)), 9)
        g1 = np.random.default_rng(1).normal(size=params.values.size)
        g2 = np.random.default_rng(2).normal(size=params.values.size)
        stepped = sgd_step(sgd_step(params, g1, 0.1), g2, 0.1)
        summed = sgd_step(params, g1 + g2, 0.1)
        assert np.allclose(stepped.values, summed.values, atol=1e-15)

    def test_sgd_rejects_nonfinite(self):
        params = init_params(Architecture((2, 2)), 0)
        with pytest.raises(NumericError):
            sgd_step(params, np.full(params.values.size, np.nan), 0.1)

    def test_adam_first_step_magnitude(self):
        # after bias correction, step 1 moves each coord by ~lr in -sign(g)
        arch = Architecture((2, 2))
        params = ModelParams(arch, np.zeros(arch.param_count))
        g = np.array([0.5, -2.0, 1e-3, 3.0, -0.2, 0.7])
        out, state = adam_step(AdamState.fresh(arch), params, g, learning_rate=0.01)
        expected = -0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(out.values, expected, atol=1e-12)
        assert state.step == 1

    def test_adam_zero_gradient_fixed_point(self):
        arch = Architecture((2, 2))
        params = init_params(arch, 4)
        state = AdamState.fresh(arch)
        for _ in range(3):
            params2, state = adam_step(state, params, np.zeros(arch.param_count), 0.1)
            assert np.array_equal(params2.values, params.values)
            params = params2

    def test_adam_deterministic(self):
        arch = Architecture((3, 2))
        params = init_params(arch, 1)
        g = np.random.default_rng(7).normal(size=arch.param_count)
        a1, s1 = adam_step(AdamState.fresh(arch), params, g, 0.01)
        a2, s2 = adam_step(AdamState.fresh(arch), params, g, 0.01)
        assert np.array_equal(a1.values, a2.values)
        assert np.array_equal(s1.m, s2.m) and np.array_equal(s1.v, s2.v)


class TestSerialization:
    @pytest.mark.parametrize("act", [OutputActivation.SOFTMAX, OutputActivation.SIGMOID])
    def test_round_trip_exact(self, act):
        sizes = (3, 4, 2) if act is OutputActivation.SOFTMAX else (3, 4, 1)
        params = init_params(Architecture(sizes, act), 99)
        back = nn.loads_params(nn.dumps_params(params))
        assert back.architecture == params.architecture
        assert np.array_equal(back.values, params.values)

    def test_file_round_trip(self, tmp_path):
        params = init_params(Architecture((2, 2)), 5)
        nn.save_params(params, tmp_path / "m.txt")
        back = nn.load_params(tmp_path / "m.txt")
        assert np.array_equal(back.values, params.values)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_predict_batch_matches_single(seed):
    rng = np.random.default_rng(seed)
    arch = Architecture((3, 4, 3))
    params = ModelParams(arch, rng.normal(size=arch.param_count))
    xs = rng.random((6, 3))
    batch_preds = predict_batch(params, xs)
    assert [predict(params, x) for x in xs] == list(batch_preds)
