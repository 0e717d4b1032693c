"""l-infinity Projected Gradient Descent on classifier inputs.

The attack starts at the clean input (no random initialization, so outputs
are fully deterministic), ascends the sign of the per-sample loss gradient,
and after every step projects onto the intersection of the epsilon ball and
the valid feature box. Samples whose prediction has already flipped are
frozen early; their final iterate still satisfies both containment bounds.

Each step runs one forward pass, on the new iterate: its predictions decide
which rows freeze, and its pre-activations give the next step's input
gradient. The step and the projection run in place on the working iterate.
The log clamp of the loss is applied on step 0 only: from step 1 on every
row still under attack is classified correctly, so the clamp cannot fire.
A row that flips is written out on that step and marked inactive; inactive
rows leave the working arrays only once they are at least half of them.
``np.errstate`` (the sigmoid's exp overflow) is entered once around the
step loop. Every iterate equals that of the plain loop (an input-gradient
pass, a clipped step and a prediction pass per step), bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .nn import (
    ModelParams,
    check_labels,
    forward_layers,
    input_gradient_from,
    predicted_classes,
    unpack_layers,
)


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
    model: ModelParams, inputs: np.ndarray, labels: np.ndarray, spec: AttackSpec
) -> np.ndarray:
    """Attack each row independently; rows never influence one another."""
    x0 = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x0.ndim != 2 or x0.shape[1] != model.architecture.input_dim:
        raise InputError(
            f"inputs shape {x0.shape} does not match feature dim "
            f"{model.architecture.input_dim}"
        )
    if y.shape != (x0.shape[0],):
        raise InputError("labels must align with input rows")
    if spec.epsilon == 0.0:
        return x0.copy()
    check_labels(model.architecture, y)
    layers = unpack_layers(model.architecture, model.values)
    activation = model.architecture.output_activation
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
        _, pre_acts, probs = forward_layers(layers, activation, x)
        for step in range(spec.steps):
            # After step 0 every active row is classified correctly, so its
            # true class has probability >= 1/C and the log clamp cannot fire.
            grad = input_gradient_from(
                layers, activation, pre_acts, probs, y, clamp=step == 0
            )
            np.sign(grad, out=grad)
            grad *= spec.step_size
            x += grad
            # np.clip(x, lower, upper) without the cost of its Python wrapper
            np.maximum(x, lower, out=x)
            np.minimum(x, upper, out=x)
            if step == spec.steps - 1:
                break
            _, pre_acts, probs = forward_layers(layers, activation, x)
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
                pre_acts = [z[active] for z in pre_acts]
                active = np.ones(rows.size, dtype=bool)
                inactive = 0
    if inactive:
        rows, x = rows[active], x[active]
    x_adv[rows] = x
    return x_adv
