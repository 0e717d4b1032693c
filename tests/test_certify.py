"""Soundness of ``attacks.certified_rows``: a certified row keeps its class.

Every certified row must keep its label under the plain reference PGD of
``test_reference_paths`` and at sampled corners and interior points of the
box that holds every PGD iterate. The edge cases pin the box (epsilon 0,
the epsilon ball binding, the clip box binding, rows outside the clip box),
the tolerance from both sides, saturated logits and the empty batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrust.attacks import CERTIFY_TOLERANCE, AttackSpec, certified_rows, pgd_batch
from fedtrust.errors import InputError
from fedtrust.nn import Architecture, ModelParams, OutputActivation, predict_batch
from test_reference_paths import ref_forward, ref_pgd


def random_model(rng, activation, hidden_layers, d=4, scale=1.0):
    out = 1 if activation is OutputActivation.SIGMOID else 3
    arch = Architecture((d, *[5] * hidden_layers, out), activation)
    return ModelParams(arch, rng.normal(scale=scale, size=arch.param_count))


def reach_box(x, spec):
    """The box of every PGD iterate of rows that start in the clip box."""
    reach = min(spec.epsilon, spec.steps * spec.step_size)
    return np.maximum(x - reach, spec.clip_min), np.minimum(x + reach, spec.clip_max)


def assert_keep_class(model, x, y, spec, certified, rng, samples=8):
    kept = y[certified]
    adversarial = ref_pgd(model, x, y, spec)
    assert (predict_batch(model, adversarial)[certified] == kept).all()
    assert (predict_batch(model, pgd_batch(model, x, y, spec))[certified] == kept).all()
    lo, hi = reach_box(x, spec)
    for _ in range(samples):
        corners = np.where(rng.random(x.shape) < 0.5, lo, hi)
        interior = lo + rng.random(x.shape) * (hi - lo)
        for points in (corners, interior):
            assert (predict_batch(model, points[certified]) == kept).all()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    activation=st.sampled_from(list(OutputActivation)),
    hidden_layers=st.integers(0, 2),
    epsilon=st.floats(0.0, 0.5),
    step_size=st.floats(0.001, 0.1),
    steps=st.integers(1, 12),
    clip=st.sampled_from([(0.0, 1.0), (-0.5, 1.5), (0.2, 0.8)]),
)
def test_certified_rows_keep_their_class(
    seed, activation, hidden_layers, epsilon, step_size, steps, clip
):
    rng = np.random.default_rng(seed)
    model = random_model(rng, activation, hidden_layers)
    x = rng.uniform(*clip, size=(30, 4))
    # mostly the model's own predictions, some labels it disagrees with
    y = np.where(
        rng.random(30) < 0.8,
        predict_batch(model, x),
        rng.integers(0, model.architecture.class_count, size=30),
    )
    spec = AttackSpec(epsilon, step_size, steps, *clip)
    certified = certified_rows(model, x, y, spec)
    assert certified.dtype == bool and certified.shape == (30,)
    assert (predict_batch(model, x)[certified] == y[certified]).all()
    assert_keep_class(model, x, y, spec, certified, rng)


@pytest.mark.parametrize("activation", list(OutputActivation))
@pytest.mark.parametrize("hidden_layers", [0, 1, 2])
def test_certifies_some_rows_and_not_others(activation, hidden_layers):
    # the property above must not hold vacuously
    rng = np.random.default_rng(7)
    spec = AttackSpec(epsilon=0.3, step_size=0.02, steps=10)
    certified = []
    for _ in range(5):
        model = random_model(rng, activation, hidden_layers)
        x = rng.random((40, 4))
        y = predict_batch(model, x)
        rows = certified_rows(model, x, y, spec)
        assert_keep_class(model, x, y, spec, rows, rng, samples=2)
        certified.extend(rows)
    assert 0 < sum(certified) < len(certified)


def linear_sigmoid(w, b=0.0):
    return ModelParams(Architecture((len(w), 1), OutputActivation.SIGMOID), np.array([*w, b]))


def logit_margin(model, x, y):
    """Each row's exact true-class margin at x (a sigmoid model's logit)."""
    _, pre_acts, _ = ref_forward(model, x)
    return np.where(y == 1, 1.0, -1.0) * pre_acts[-1][:, 0]


@pytest.mark.parametrize("activation", list(OutputActivation))
@pytest.mark.parametrize("hidden_layers", [0, 1, 2])
def test_zero_epsilon_certifies_each_row_its_clean_margin_decides(activation, hidden_layers):
    rng = np.random.default_rng(3)
    model = random_model(rng, activation, hidden_layers)
    x = rng.random((50, 4))
    y = rng.integers(0, model.architecture.class_count, size=50)
    spec = AttackSpec(epsilon=0.0, step_size=0.0, steps=1)
    # the box is the point x0, so the bound is the margin there
    if activation is OutputActivation.SIGMOID:
        margin = logit_margin(model, x, y)
    else:
        _, pre_acts, _ = ref_forward(model, x)
        z = pre_acts[-1]
        others = np.where(np.eye(3, dtype=bool)[y], np.inf, z[np.arange(50), y][:, None] - z)
        margin = others.min(axis=1)
    clear = np.abs(margin) > 1e-6
    assert clear.sum() >= 45
    assert np.array_equal(certified_rows(model, x, y, spec)[clear], (margin > 0)[clear])


def test_epsilon_ball_binds_when_steps_reach_further():
    # z = x0 - x1 with margin 0.3: the steps could move each coordinate by
    # 0.5, which would flip the row, but the epsilon ball stops at 0.1
    model = linear_sigmoid([1.0, -1.0])
    x = np.array([[0.65, 0.35]])
    y = np.array([1])
    spec = AttackSpec(epsilon=0.1, step_size=0.05, steps=10)
    assert certified_rows(model, x, y, spec).all()
    assert predict_batch(model, pgd_batch(model, x, y, spec))[0] == 1
    wider = AttackSpec(epsilon=0.2, step_size=0.05, steps=10)
    assert not certified_rows(model, x, y, wider).any()
    assert predict_batch(model, pgd_batch(model, x, y, wider))[0] == 0


def test_clip_box_binds():
    # z = x0 - 0.05 at x0 = 0.1: the epsilon ball reaches z < 0, but the
    # clip box stops x0 at 0.06, where z is still 0.01
    model = linear_sigmoid([1.0], b=-0.05)
    x, y = np.array([[0.1]]), np.array([1])
    spec = AttackSpec(epsilon=0.3, step_size=0.01, steps=40, clip_min=0.06, clip_max=1.0)
    assert certified_rows(model, x, y, spec).all()
    assert predict_batch(model, ref_pgd(model, x, y, spec))[0] == 1
    unclipped = AttackSpec(epsilon=0.3, step_size=0.01, steps=40, clip_min=0.0, clip_max=1.0)
    assert not certified_rows(model, x, y, unclipped).any()


def test_rows_outside_the_clip_box_are_never_certified():
    # the projection moves such a row onto the box at once, further than a
    # step: z = x0 - 1.05 is 0.15 at x0 = 1.2, but PGD's first step lands
    # on the clip bound 1.0, where z = -0.05
    model = linear_sigmoid([1.0], b=-1.05)
    x, y = np.array([[1.2], [0.5]]), np.array([1, 0])
    spec = AttackSpec(epsilon=0.3, step_size=0.001, steps=2)
    assert predict_batch(model, x).tolist() == [1, 0]
    assert predict_batch(model, ref_pgd(model, x, y, spec)).tolist() == [0, 0]
    assert certified_rows(model, x, y, spec).tolist() == [False, True]


def tolerance(model, spec):
    """CERTIFY_TOLERANCE at a one-layer model's logit scale over the clip box."""
    w, b = model.values[:-1], model.values[-1]
    scale = max(abs(spec.clip_min), abs(spec.clip_max)) * np.abs(w).sum() + abs(b)
    return CERTIFY_TOLERANCE * (1.0 + 2.0 * scale)


@pytest.mark.parametrize("label", [0, 1])
def test_margin_just_above_and_below_the_tolerance(label):
    spec = AttackSpec(epsilon=0.0, step_size=0.0, steps=1)
    x = np.zeros((1, 2))
    sign = 1.0 if label == 1 else -1.0
    base = tolerance(linear_sigmoid([0.5, -0.25]), spec)
    decided = {}
    for factor in (1.01, 0.99):
        model = linear_sigmoid([0.5, -0.25], b=sign * factor * base)
        assert abs(tolerance(model, spec) - base) < 1e-6 * base
        assert predict_batch(model, x)[0] == label
        decided[factor] = bool(certified_rows(model, x, np.array([label]), spec)[0])
    assert decided == {1.01: True, 0.99: False}


def test_a_positive_logit_too_small_for_p_above_half_is_not_certified():
    # a logit of 1e-17 gives p = 0.5, which is class 0
    model = linear_sigmoid([1.0], b=1e-17)
    x, spec = np.zeros((1, 1)), AttackSpec(epsilon=0.0, step_size=0.0, steps=1)
    assert predict_batch(model, x)[0] == 0
    assert not certified_rows(model, x, np.array([1]), spec).any()
    assert not certified_rows(model, x, np.array([0]), spec).any()


@pytest.mark.parametrize("activation", list(OutputActivation))
def test_saturated_logits_raise_no_warning(activation):
    # +-1000 logits: the sigmoid's exp would overflow; warnings are errors
    rng = np.random.default_rng(5)
    model = random_model(rng, activation, 1)
    model = ModelParams(model.architecture, model.values * 300.0)
    x = rng.random((40, 4))
    y = predict_batch(model, x)
    _, pre_acts, _ = ref_forward(model, x)
    assert np.abs(pre_acts[-1]).max() > 1000.0
    spec = AttackSpec(epsilon=0.01, step_size=0.005, steps=4)
    certified = certified_rows(model, x, y, spec)
    assert certified.any()
    assert_keep_class(model, x, y, spec, certified, rng, samples=2)


@pytest.mark.parametrize("activation", list(OutputActivation))
def test_empty_batch(activation):
    model = random_model(np.random.default_rng(0), activation, 1)
    out = certified_rows(model, np.zeros((0, 4)), np.zeros(0, dtype=int), AttackSpec())
    assert out.dtype == bool and out.shape == (0,)


def test_input_checks():
    model = linear_sigmoid([1.0, 2.0])
    with pytest.raises(InputError):
        certified_rows(model, np.array([[0.1]]), np.array([0]), AttackSpec())
    with pytest.raises(InputError):
        certified_rows(model, np.array([[0.1, 0.2]]), np.array([0, 1]), AttackSpec())
    with pytest.raises(InputError):
        certified_rows(model, np.array([[0.1, 0.2]]), np.array([2]), AttackSpec())
