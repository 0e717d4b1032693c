"""The four model evaluation functions: perf, fair, rel, res.

All return a score in [0, 1] oriented so that higher means better. ``perf``
is plain accuracy, ``fair`` is one minus the demographic-parity gap, ``rel``
is the fraction of predictions unchanged under additive Gaussian input noise
(accuracy-independent by construction: predictions are compared with
predictions, never with labels), and ``res`` is one minus the adversarial
attack success rate on the correctly classified test samples.

A model is a :class:`~fedtrust.nn.ModelParams`, or a stub with a per-row
``predict(x) -> class`` method, used only by ``demo-fig1`` and the tests;
``res`` with the default attack needs input gradients, so a ``ModelParams``.

Evaluation path. Every metric reads the model's clean predictions on the
test set, so each takes them as an optional ``clean`` argument and computes
them only when it is not given. The valuation stage aggregates each
(round, coalition) once, runs one clean forward pass on the aggregate and
hands that prediction to every metric it evaluates there. The ``rel`` noise
depends only on the noise spec and the test shape, so :class:`EvalContext`
builds it once, that is once per fold, and keeps it read-only. ``res``
attacks with PGD, which runs one forward pass per iterate (see
:mod:`fedtrust.attacks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .attacks import AttackSpec, pgd_batch
from .data import Dataset
from .errors import ConfigError, InputError, MetricUndefinedError
from .nn import ModelParams, predict_batch
from .seeding import rng_from


class Metric(str, Enum):
    PERF = "perf"
    FAIR = "fair"
    REL = "rel"
    RES = "res"


@dataclass(frozen=True)
class FairnessSpec:
    """Target class for the demographic-parity comparison.

    The protected group is the set of samples whose sensitive flag is True.
    """

    target_class: int = 1

    def __post_init__(self) -> None:
        if self.target_class < 0:
            raise ConfigError("target_class must be a class index")


@dataclass(frozen=True)
class NoiseSpec:
    sigma: float = 0.1
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ConfigError("sigma must be non-negative")


def predictions(model, inputs: np.ndarray) -> np.ndarray:
    """Predicted class per input row."""
    if isinstance(model, ModelParams):
        return predict_batch(model, inputs)
    return np.array([int(model.predict(x)) for x in inputs], dtype=np.int64)


def _clean_predictions(model, test: Dataset, clean: np.ndarray | None) -> np.ndarray:
    return predictions(model, test.features) if clean is None else clean


def perf(model, test: Dataset, clean: np.ndarray | None = None) -> float:
    """Fraction of test samples classified correctly."""
    if len(test) == 0:
        raise InputError("perf needs a non-empty test set")
    preds = _clean_predictions(model, test, clean)
    return float(np.mean(preds == test.labels))


def demographic_parity_gap(
    model, test: Dataset, spec: FairnessSpec, clean: np.ndarray | None = None
) -> float:
    """|P(M(x)=target | protected) - P(M(x)=target | unprotected)|."""
    protected = test.sensitive
    if not protected.any() or protected.all():
        raise MetricUndefinedError(
            "demographic parity needs both protected and unprotected samples"
        )
    hits = _clean_predictions(model, test, clean) == spec.target_class
    rate_in = float(np.mean(hits[protected]))
    rate_out = float(np.mean(hits[~protected]))
    return abs(rate_in - rate_out)


def fair(
    model, test: Dataset, spec: FairnessSpec, clean: np.ndarray | None = None
) -> float:
    return 1.0 - demographic_parity_gap(model, test, spec, clean)


def _noise_matrix(noise: NoiseSpec, n: int, d: int) -> np.ndarray:
    # One stream per sample index: evaluation order and batching cannot
    # change which noise vector a sample receives.
    out = np.empty((n, d))
    for i in range(n):
        out[i] = rng_from(noise.noise_seed, "noise", i).standard_normal(d)
    return out * noise.sigma


def rel(
    model,
    test: Dataset,
    noise: NoiseSpec,
    clean: np.ndarray | None = None,
    noise_matrix: np.ndarray | None = None,
) -> float:
    """Fraction of predictions unchanged under one Gaussian perturbation.

    The perturbed inputs are deliberately not clipped to the feature box:
    the noise models channel corruption, not feasible adversarial inputs.
    ``noise_matrix`` is the perturbation ``noise`` defines for ``test``
    (:attr:`EvalContext.noise_matrix`); it is built here when not given.
    """
    if len(test) == 0:
        raise InputError("rel needs a non-empty test set")
    clean = _clean_predictions(model, test, clean)
    if noise_matrix is None:
        noise_matrix = _noise_matrix(noise, len(test), test.feature_dim)
    perturbed = predictions(model, test.features + noise_matrix)
    return 1.0 - float(np.mean(perturbed != clean))


AttackFn = Callable[[object, np.ndarray, int], np.ndarray]


def res(
    model,
    test: Dataset,
    attack: AttackSpec,
    attack_fn: AttackFn | None = None,
    clean: np.ndarray | None = None,
) -> float:
    """One minus the attack success rate on correctly classified samples.

    ``attack_fn(model, x, y) -> x_adv`` overrides the default PGD attack;
    tests and the toy demo use this to inject fixed attack outcomes.
    """
    if len(test) == 0:
        raise InputError("res needs a non-empty test set")
    correct = _clean_predictions(model, test, clean) == test.labels
    if not correct.any():
        raise MetricUndefinedError(
            "res is undefined: no test sample is correctly classified"
        )
    inputs = test.features[correct]
    labels = test.labels[correct]
    if attack_fn is None:
        adv = pgd_batch(model, inputs, labels, attack)
    else:
        adv = np.stack(
            [attack_fn(model, inputs[i], int(labels[i])) for i in range(len(labels))]
        )
    flipped = predictions(model, adv) != labels
    return 1.0 - float(np.mean(flipped))


@dataclass(frozen=True)
class EvalContext:
    """Everything needed to evaluate any metric on a model."""

    test: Dataset
    fairness: FairnessSpec
    noise: NoiseSpec
    attack: AttackSpec

    @cached_property
    def noise_matrix(self) -> np.ndarray:
        """The ``rel`` perturbation of the test set: built on first use, read-only."""
        matrix = _noise_matrix(self.noise, len(self.test), self.test.feature_dim)
        matrix.flags.writeable = False
        return matrix


def evaluate(
    model, metric: Metric, ctx: EvalContext, clean: np.ndarray | None = None
) -> float:
    """One metric of ``model``; ``clean`` is its prediction on ``ctx.test``."""
    metric = Metric(metric)
    if metric is Metric.PERF:
        return perf(model, ctx.test, clean)
    if metric is Metric.FAIR:
        return fair(model, ctx.test, ctx.fairness, clean)
    if metric is Metric.REL:
        return rel(model, ctx.test, ctx.noise, clean, ctx.noise_matrix)
    return res(model, ctx.test, ctx.attack, clean=clean)
