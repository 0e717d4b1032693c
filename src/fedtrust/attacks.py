"""l-infinity Projected Gradient Descent on classifier inputs.

The attack starts at the clean input (no random initialization, so outputs
are fully deterministic), ascends the sign of the per-sample loss gradient,
and after every step projects onto the intersection of the epsilon ball and
the valid feature box. Samples whose prediction has already flipped are
frozen early; their final iterate still satisfies both containment bounds.

Each step runs one forward pass, on the new iterate: its predictions decide
which rows freeze, and its pre-activations give the next step's input
gradient. The rows still under attack are kept in compacted working arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    attack_seed: int = 0  # reserved; the attack has no random component

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ConfigError("epsilon must be non-negative")
        if self.epsilon > 0 and self.step_size <= 0:
            raise ConfigError("step_size must be positive when epsilon > 0")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.clip_min >= self.clip_max:
            raise ConfigError("empty clip box")


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
    layers = unpack_layers(model)
    activation = model.architecture.output_activation
    x_adv = x0.copy()
    # Working arrays hold only the rows still under attack; rows[i] is the
    # input row of working row i.
    rows = np.arange(x0.shape[0])
    x = x0
    lower = np.maximum(x0 - spec.epsilon, spec.clip_min)
    upper = np.minimum(x0 + spec.epsilon, spec.clip_max)
    _, pre_acts, probs = forward_layers(layers, activation, x)
    for step in range(spec.steps):
        if rows.size == 0:
            break
        grad = input_gradient_from(layers, activation, pre_acts, probs, y)
        x = np.clip(x + spec.step_size * np.sign(grad), lower, upper)
        if step == spec.steps - 1:
            break
        _, pre_acts, probs = forward_layers(layers, activation, x)
        still = predicted_classes(activation, probs) == y
        if not still.all():
            x_adv[rows[~still]] = x[~still]
            rows, x, lower, upper, y, probs = (
                rows[still], x[still], lower[still], upper[still], y[still], probs[still]
            )
            pre_acts = [z[still] for z in pre_acts]
    x_adv[rows] = x
    return x_adv


def pgd(
    model: ModelParams, x: Sequence[float], y: int, spec: AttackSpec
) -> np.ndarray:
    """Adversarial counterpart of a single (correctly classified) input."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError("pgd expects a single feature vector")
    return pgd_batch(model, x[None, :], np.asarray([y]), spec)[0]
