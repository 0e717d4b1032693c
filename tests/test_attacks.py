import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrust.attacks import AttackSpec, pgd_batch
from fedtrust.errors import ConfigError, InputError
from fedtrust.nn import Architecture, ModelParams, OutputActivation, predict_batch
from helpers import cross_entropy


def batch_loss(params, x, y):
    """Mean cross-entropy of a model on the batch (x, y)."""
    return cross_entropy(params, x, y)


def linear_binary_model(w, b=0.0):
    """Single sigmoid unit: exact worst-case perturbation is known."""
    d = len(w)
    return ModelParams(
        Architecture((d, 1), OutputActivation.SIGMOID), np.array([*w, b])
    )


def random_model(rng, d, hidden=4, c=3):
    arch = Architecture((d, hidden, c))
    return ModelParams(arch, rng.normal(scale=0.8, size=arch.param_count))


class TestSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AttackSpec(epsilon=-0.1)
        with pytest.raises(ConfigError):
            AttackSpec(epsilon=0.1, step_size=0.0)
        with pytest.raises(ConfigError):
            AttackSpec(steps=0)
        AttackSpec(epsilon=0.0, step_size=0.0, steps=1)  # degenerate ball is fine


class TestPgd:
    def test_zero_epsilon_returns_input_exactly(self):
        model = linear_binary_model([1.0, -1.0])
        x = np.array([[0.4, 0.6]])
        out = pgd_batch(model, x, np.array([0]), AttackSpec(epsilon=0.0))
        assert np.array_equal(out, x)

    def test_linear_model_closed_form(self):
        # with steps*alpha >= eps, PGD on a linear model reaches the FGSM
        # optimum: each coordinate moves eps in the loss-increasing
        # direction, clipped to the box
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.normal(size=4)
            model = linear_binary_model(w, b=float(rng.normal(scale=0.2)))
            x = rng.random((1, 4))
            y = predict_batch(model, x)
            eps = 0.2
            spec = AttackSpec(epsilon=eps, step_size=0.05, steps=10)
            got = pgd_batch(model, x, y, spec)
            # increasing the loss of class y means moving along +w for y=0
            # and -w for y=1 (sigmoid unit); coords with w=0 stay put
            direction = np.sign(w) * (1 if y[0] == 0 else -1)
            expected = np.clip(x + eps * direction, 0.0, 1.0)
            flipped = predict_batch(model, got)[0] != y[0]
            if flipped:
                # early exit is permitted; containment still binds
                assert np.max(np.abs(got - x)) <= eps + 1e-12
            else:
                assert np.max(np.abs(got - expected)) < 1e-9

    def test_linear_loss_monotone(self):
        rng = np.random.default_rng(4)
        model = linear_binary_model(rng.normal(size=3))
        for _ in range(10):
            x = rng.random((1, 3))
            y = predict_batch(model, x)
            adv = pgd_batch(model, x, y, AttackSpec(epsilon=0.15, step_size=0.03, steps=8))
            loss_before = batch_loss(model, x, y)
            loss_after = batch_loss(model, adv, y)
            assert loss_after >= loss_before - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 5)
        x = rng.random((1, 5))
        y = predict_batch(model, x)
        spec = AttackSpec(epsilon=0.3, step_size=0.007, steps=40)
        assert np.array_equal(pgd_batch(model, x, y, spec), pgd_batch(model, x, y, spec))

    def test_dead_gradient_leaves_input(self):
        # ReLU-dead network: gradient is zero everywhere, sign(0) = 0
        arch = Architecture((2, 2, 2))
        values = np.zeros(arch.param_count)
        values[:4] = 1.0
        values[4:6] = -5.0  # biases push hidden units far negative
        model = ModelParams(arch, values)
        x = np.array([[0.3, 0.3]])
        out = pgd_batch(model, x, np.array([0]), AttackSpec(epsilon=0.1, step_size=0.02, steps=5))
        assert np.array_equal(out, x)

    def test_dimension_mismatch(self):
        model = linear_binary_model([1.0, 2.0])
        with pytest.raises(InputError):
            pgd_batch(model, np.array([[0.1]]), np.array([0]), AttackSpec(epsilon=0.1))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 4)
        xs = rng.random((8, 4))
        ys = np.concatenate([predict_batch(model, xs[i : i + 1]) for i in range(8)])
        spec = AttackSpec(epsilon=0.25, step_size=0.05, steps=12)
        batched = pgd_batch(model, xs, ys, spec)
        singles = np.concatenate(
            [pgd_batch(model, xs[i : i + 1], ys[i : i + 1], spec) for i in range(8)]
        )
        assert np.allclose(batched, singles, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=st.floats(0.0, 0.5))
def test_ball_and_box_containment(seed, eps):
    rng = np.random.default_rng(seed)
    model = random_model(rng, 3)
    x = rng.random((1, 3))
    y = predict_batch(model, x)
    spec = AttackSpec(epsilon=eps, step_size=0.05, steps=6)
    adv = pgd_batch(model, x, y, spec)
    assert np.max(np.abs(adv - x)) <= eps + 1e-12
    assert adv.min() >= 0.0 and adv.max() <= 1.0
