"""l-infinity Projected Gradient Descent on classifier inputs.

The attack starts at the clean input (no random initialization, so outputs
are fully deterministic), ascends the sign of the per-sample loss gradient,
and after every step projects onto the intersection of the epsilon ball and
the valid feature box. Samples whose prediction has already flipped are
frozen early; their final iterate still satisfies both containment bounds.

:func:`pgd_batch` is the one step loop. It attacks the rows of one model,
or of a :class:`~fedtrust.nn.ModelGroup` of models of one architecture at
once, each row on its own model. A step costs about as much on one row as
on a thousand, since the time goes on per-call overhead, so ``metrics``
hands it the ``res`` rows of many coalition models as one group. Every row
keeps the bits it gets when its model is attacked alone (see
``ModelGroup``).

A forward pass on the clean rows gives step 0's input gradient. Each step
but the last then runs one forward pass, on its new iterate: its
predictions decide which rows freeze, and its hidden activations give the
next step's input gradient. The last step runs none; the caller predicts on
the returned iterates (``metrics`` runs one ``predict_batch`` per attack
group). The step and the projection run in place on the working iterate.
The log clamp of the loss is applied on step 0 only: from step 1 on every
row still under attack is classified correctly, so the clamp cannot fire.
A row that flips is written out on that step and marked inactive; inactive
rows leave the working arrays only once they are at least half of them.
``np.errstate`` (the sigmoid's exp overflow) is entered once around the
step loop. Every iterate equals that of the plain loop (an input-gradient
pass, a clipped step and a prediction pass per step, one model at a time),
bit for bit.

:func:`certified_rows` says, before any attack, which rows PGD cannot flip:
it bounds each row's true-class margin from below over a box that holds
every iterate, by linear relaxation of the ReLUs (CROWN), for every
architecture ``nn`` builds. ``metrics`` attacks only the other rows. A row
is certified only past a tolerance that covers rounding in the bound and in
the forward pass, so a certified row's prediction on its adversarial input
is its label, as the attack would have found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn import (
    ModelGroup,
    ModelParams,
    OutputActivation,
    as_group,
    labeled_rows,
    predicted_classes,
    unpack_layers,
)

# A row is certified only when its margin bound exceeds CERTIFY_TOLERANCE
# times (1 + the model's logit scale), the scale being twice the largest sum
# of absolute products that forms an output logit anywhere in the clip box.
# Rounding in the bound and in the forward pass is at most about the
# summed layer widths times 2**-53 times that scale, orders of magnitude
# below the tolerance; so is the logit a sigmoid needs for p > 0.5 (a logit
# of 1e-17 gives p = 0.5, which is class 0).
CERTIFY_TOLERANCE = 1e-9
# Each PGD step moves a coordinate by at most step_size plus the rounding
# of one addition, 2**-53 times (clip-box scale + step_size); the reach
# allows _REACH_ROUNDING times that sum per step.
_REACH_ROUNDING = 1e-12
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class AttackSpec:
    """PGD parameters. Defaults follow the tabular evaluation setting."""

    epsilon: float = 0.3
    step_size: float = 0.007
    steps: int = 40
    clip_min: float = 0.0
    clip_max: float = 1.0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not 0.0 <= self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be non-negative and finite, got {self.epsilon}")
        if not math.isfinite(self.step_size):
            raise ConfigError(f"step_size must be finite, got {self.step_size}")
        if self.epsilon > 0 and not self.step_size > 0:
            raise ConfigError("step_size must be positive when epsilon > 0")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if not -math.inf < self.clip_min < self.clip_max < math.inf:
            raise ConfigError(
                f"clip box must be finite and non-empty, got [{self.clip_min}, {self.clip_max}]"
            )


def pgd_batch(
    model: ModelParams | ModelGroup, inputs: np.ndarray, labels: np.ndarray, spec: AttackSpec
) -> np.ndarray:
    """Attack each row independently; rows never influence one another.

    ``model`` is one model, or a :class:`~fedtrust.nn.ModelGroup` whose
    models each attack their own rows. Returns the final iterates.
    """
    x0, y = labeled_rows(model, inputs, labels)
    group = as_group(model, x0.shape[0])
    if spec.epsilon == 0.0:
        return x0.copy()
    activation = group.architecture.output_activation
    x_adv = x0.copy()
    # Working arrays: rows[i] is the input row of working row i. A row that
    # flips is written to x_adv and marked inactive at once, but it stays
    # in the working arrays (stepping on, unread) until inactive rows are
    # at least half of them, since dropping rows costs a copy of each array.
    rows = np.arange(x0.shape[0])
    x = x0.copy()
    lower = np.maximum(x0 - spec.epsilon, spec.clip_min)
    upper = np.minimum(x0 + spec.epsilon, spec.clip_max)
    active = np.ones(rows.size, dtype=bool)
    inactive = 0
    with np.errstate(over="ignore"):
        hidden, probs = group.forward(x)
        for step in range(spec.steps):
            # After step 0 every active row is classified correctly, so its
            # true class has probability >= 1/C and the log clamp cannot fire.
            grad = group.input_gradient(hidden, probs, y, clamp=step == 0)
            np.sign(grad, out=grad)
            grad *= spec.step_size
            x += grad
            # np.clip(x, lower, upper) without the cost of its Python wrapper
            np.maximum(x, lower, out=x)
            np.minimum(x, upper, out=x)
            if step == spec.steps - 1:
                break
            hidden, probs = group.forward(x)
            flipped = predicted_classes(activation, probs) != y
            if inactive:
                flipped &= active
            if not flipped.any():
                continue
            x_adv[rows[flipped]] = x[flipped]
            active &= ~flipped
            inactive += np.count_nonzero(flipped)
            if inactive == rows.size:
                return x_adv
            if 2 * inactive >= rows.size:
                rows, x, lower, upper, y, probs = (
                    rows[active], x[active], lower[active], upper[active], y[active], probs[active]
                )
                hidden = [a[active] for a in hidden]
                group = group.take(active)
                active = np.ones(rows.size, dtype=bool)
                inactive = 0
    if inactive:
        rows, x = rows[active], x[active]
    x_adv[rows] = x
    return x_adv


def certified_rows(
    model: ModelParams, inputs: np.ndarray, labels: np.ndarray, spec: AttackSpec
) -> np.ndarray:
    """Rows whose class no point that :func:`pgd_batch` can reach changes.

    Every PGD iterate of a row lies in the box ``[max(lower, x0 - R),
    min(upper, x0 + R)]``, with ``lower``/``upper`` the attack's projection
    box and ``R = steps * step_size`` plus a rounding allowance, provided
    the row starts inside the clip box (rows outside it are never
    certified). Over that box the row's true-class margin, ``(2y - 1) z``
    for a sigmoid output and ``z_y - z_j`` for every ``j != y`` under
    softmax, is bounded below by linear relaxation (CROWN): the first
    layer's pre-activations are bounded exactly from the box, deeper ones by
    intervals, and the margin is substituted back through each ReLU, using
    the identity where ``l >= 0``, zero where ``u <= 0`` and otherwise the
    chord ``u (z - l) / (u - l)`` above or the line ``[u > -l] z`` below,
    whichever the sign of the margin's coefficient needs. A row is certified
    when that bound exceeds the tolerance (see ``CERTIFY_TOLERANCE``).
    """
    x0, y = labeled_rows(model, inputs, labels)
    arch = model.architecture
    n = x0.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    layers = unpack_layers(arch, model.values)
    # The first layer sees twice the box's centre and radius, so its
    # weights carry the halves.
    weights = [w for w, _ in layers]
    weights[0] = 0.5 * weights[0]
    abs_weights = [np.abs(w) for w in weights]
    scale = max(abs(spec.clip_min), abs(spec.clip_max))
    # With epsilon = 0 nothing moves, whatever the sign of step_size.
    step = abs(spec.step_size)
    reach = min(spec.epsilon, spec.steps * (step + _REACH_ROUNDING * (scale + step)))
    lo = x0 - reach
    np.maximum(lo, spec.clip_min, out=lo)
    hi = x0 + reach
    np.minimum(hi, spec.clip_max, out=hi)
    mid2 = lo + hi
    rad2 = np.subtract(hi, lo, out=hi)

    # Bounds of each hidden layer's pre-activations: exact from the box for
    # the first, by intervals after that.
    centre = mid2 @ weights[0]
    centre += layers[0][1]
    radius = rad2 @ abs_weights[0]
    bounds = []
    for i in range(1, len(layers)):
        low = centre - radius
        centre += radius
        bounds.append((low, centre))
        if i < len(layers) - 1:
            low = np.maximum(low, 0.0)
            top = np.maximum(centre, 0.0)
            centre = (top + low) @ weights[i]
            centre *= 0.5
            centre += layers[i][1]
            radius = (top - low) @ abs_weights[i]
            radius *= 0.5

    # Each row's margins as rows of coefficients on the last layer's
    # inputs plus constants, taken from a table by class: S = 1 margin
    # (2y - 1) z per row for a sigmoid, S = C margins z_y - z_j under
    # softmax (the row's own class gives 0 and is left out at the end).
    w, b = weights[-1].T, layers[-1][1]
    if arch.output_activation is OutputActivation.SIGMOID:
        sign = np.array([[-1.0], [1.0]])
        table_w, table_b = sign[:, :, None] * w, sign * b
    else:
        table_w, table_b = w[:, None, :] - w, b[:, None] - b
    specs = table_b.shape[1]
    coef = np.take(table_w, y, axis=0).reshape(n * specs, -1)
    const = np.take(table_b, y, axis=0).reshape(-1)
    for i in range(len(layers) - 2, -1, -1):
        low, top = bounds[i]
        np.minimum(low, 0.0, out=low)
        np.maximum(top, 0.0, out=top)
        slope = top - low
        np.maximum(slope, _TINY, out=slope)
        np.divide(top, slope, out=slope)
        if specs > 1:
            slope, low = np.repeat(slope, specs, axis=0), np.repeat(low, specs, axis=0)
        # The chord u (z - l) / (u - l) bounds a negative coefficient's
        # unit from above; [u > -l] z, that is [slope > 1/2] z, bounds a
        # non-negative one from below (rint rounds 1/2 to 0). The chord's
        # intercept is -slope * l.
        coef *= np.where(coef < 0.0, slope, np.rint(slope))
        intercept = np.minimum(coef, 0.0, out=slope)
        intercept *= low
        const -= intercept @ np.ones(low.shape[1])
        const += coef @ layers[i][1]
        coef = coef @ weights[i].T
    # coef now acts on twice the box's centre and radius: the margin's least
    # value over the box is coef . mid2 - |coef| . rad2 + const.
    if specs > 1:
        mid2, rad2 = np.repeat(mid2, specs, axis=0), np.repeat(rad2, specs, axis=0)
    margin = coef * mid2
    np.abs(coef, out=coef)
    coef *= rad2
    margin -= coef
    margin = margin @ np.ones(arch.input_dim)
    margin += const
    if specs > 1:
        margin = margin.reshape(n, specs)
        margin[np.arange(n), y] = np.inf
        margin = margin.min(axis=1)
    magnitude = np.full(arch.input_dim, 2.0 * scale)
    for (_, b), abs_w in zip(layers, abs_weights):
        magnitude = magnitude @ abs_w + np.abs(b)
    certified = margin > CERTIFY_TOLERANCE * (1.0 + 2.0 * magnitude.max())
    if x0.min() < spec.clip_min or x0.max() > spec.clip_max:
        certified &= ((x0 >= spec.clip_min) & (x0 <= spec.clip_max)).all(axis=1)
    return certified
