"""The four model evaluation metrics: perf, fair, rel, res.

All return a score in [0, 1] oriented so that higher means better, and each
is a pure function of predicted classes. ``perf`` is plain accuracy of the
clean predictions, ``fair`` is one minus their demographic-parity gap,
``rel`` is the fraction of predictions unchanged under additive Gaussian
input noise (accuracy-independent by construction: it compares predictions
with predictions, never with labels), and ``res`` is one minus the
adversarial attack success rate on the correctly classified test samples.

:func:`evaluate` is the one function here that runs a model. Its caller
passes the model's clean predictions on the test set: the valuation stage
aggregates each (round, coalition) once, runs one clean forward pass on the
aggregate and hands that prediction to every metric it evaluates there.
``rel`` adds one forward pass on the noisy test inputs, which depend only on
the noise spec and the test set, so :class:`EvalContext` builds them once,
that is once per fold, and keeps them read-only. ``res`` first certifies
the correctly classified samples that no PGD iterate can flip
(:func:`fedtrust.attacks.certified_rows`, a linear bound on each row's
margin); their adversarial prediction is their label. Only the other rows
are attacked with PGD, which runs one forward pass per iterate (see
:mod:`fedtrust.attacks`), and predicted on the result. ``res`` then scores
the same full-length arrays as with every row attacked, so it has the same
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .attacks import AttackSpec, certified_rows, pgd_batch
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
        if not 0.0 <= self.sigma < math.inf:
            raise ConfigError(f"sigma must be non-negative and finite, got {self.sigma}")


def perf(clean: np.ndarray, test: Dataset) -> float:
    """Fraction of test samples classified correctly."""
    return float(np.mean(clean == test.labels))


def demographic_parity_gap(clean: np.ndarray, test: Dataset, spec: FairnessSpec) -> float:
    """|P(M(x)=target | protected) - P(M(x)=target | unprotected)|."""
    protected = test.sensitive
    if not protected.any() or protected.all():
        raise MetricUndefinedError(
            "demographic parity needs both protected and unprotected samples"
        )
    hits = clean == spec.target_class
    rate_in = float(np.mean(hits[protected]))
    rate_out = float(np.mean(hits[~protected]))
    return abs(rate_in - rate_out)


def fair(clean: np.ndarray, test: Dataset, spec: FairnessSpec) -> float:
    return 1.0 - demographic_parity_gap(clean, test, spec)


def rel(clean: np.ndarray, noisy: np.ndarray) -> float:
    """Fraction of the clean predictions that the noisy predictions keep."""
    return 1.0 - float(np.mean(noisy != clean))


def res(labels: np.ndarray, adversarial: np.ndarray) -> float:
    """One minus the share of attacked samples whose prediction left its label.

    ``labels`` are those of the attacked (correctly classified) samples and
    ``adversarial`` the predictions on their adversarial inputs.
    """
    return 1.0 - float(np.mean(adversarial != labels))


@dataclass(frozen=True)
class EvalContext:
    """Everything needed to evaluate any metric on a model."""

    test: Dataset
    fairness: FairnessSpec
    noise: NoiseSpec
    attack: AttackSpec

    def __post_init__(self) -> None:
        if len(self.test) == 0:
            raise InputError("evaluation needs a non-empty test set")

    @cached_property
    def noisy_features(self) -> np.ndarray:
        """The ``rel`` inputs: built on first use, read-only.

        The noisy inputs are deliberately not clipped to the feature box:
        the noise models channel corruption, not feasible adversarial inputs.
        """
        n, d = len(self.test), self.test.feature_dim
        noise = np.empty((n, d))
        # One stream per sample index: evaluation order and batching cannot
        # change which noise vector a sample receives.
        for i in range(n):
            noise[i] = rng_from(self.noise.noise_seed, "noise", i).standard_normal(d)
        noisy = self.test.features + noise * self.noise.sigma
        noisy.flags.writeable = False
        return noisy


def evaluate(model: ModelParams, metric: Metric, ctx: EvalContext, clean: np.ndarray) -> float:
    """One metric of ``model``; ``clean`` is its prediction on ``ctx.test``."""
    metric = Metric(metric)
    test = ctx.test
    if metric is Metric.PERF:
        return perf(clean, test)
    if metric is Metric.FAIR:
        return fair(clean, test, ctx.fairness)
    if metric is Metric.REL:
        return rel(clean, predict_batch(model, ctx.noisy_features))
    correct = clean == test.labels
    if not correct.any():
        raise MetricUndefinedError(
            "res is undefined: no test sample is correctly classified"
        )
    inputs, labels = test.features[correct], test.labels[correct]
    # A certified row keeps its label at every point PGD can reach, so only
    # the other rows are attacked; res sees the same full-length arrays.
    adversarial = labels.copy()
    open_rows = ~certified_rows(model, inputs, labels, ctx.attack)
    if open_rows.any():
        attacked = pgd_batch(model, inputs[open_rows], labels[open_rows], ctx.attack)
        adversarial[open_rows] = predict_batch(model, attacked)
    return res(labels, adversarial)
