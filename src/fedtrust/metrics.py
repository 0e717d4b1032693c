"""The four model evaluation metrics: perf, fair, rel, res.

All return a score in [0, 1] oriented so that higher means better, and each
is a pure function of predicted classes. ``perf`` is plain accuracy of the
clean predictions, ``fair`` is one minus their demographic-parity gap,
``rel`` is the fraction of predictions unchanged under additive Gaussian
input noise (accuracy-independent by construction: it compares predictions
with predictions, never with labels), and ``res`` is one minus the
adversarial attack success rate on the correctly classified test samples.

:func:`evaluate` and :func:`adversarial_predictions` are the functions here
that run a model. The caller of :func:`evaluate` passes the model's clean
predictions on the test set: the valuation stage, a fold's
``CoalitionCache`` built on the fold's context, aggregates each coalition
of the round record it holds once, runs one clean forward pass on it and
hands that prediction to every metric it evaluates there. ``rel`` adds one
forward pass on the noisy test inputs, which depend only on the noise spec
and the test set, so :class:`EvalContext` builds them once, that is once
per fold, from one seeded stream per test sample
(:func:`fedtrust.seeding.rng_streams`), and keeps them read-only.

``res`` scores a model's adversarial predictions on its correctly
classified samples. :func:`adversarial_predictions` makes them for many
models at once: it first certifies the rows that no PGD iterate can flip
(:func:`fedtrust.attacks.certified_rows`, a linear bound on each row's
margin), whose adversarial prediction is their label, and then attacks the
other rows of all the models in groups of about ``ATTACK_GROUP_ROWS`` rows
(:func:`fedtrust.attacks.pgd_batch` on a :class:`fedtrust.nn.ModelGroup`)
and predicts each group's iterates in one pass. The valuation stage
(``CoalitionCache.compute``) calls it on the new coalitions of each list of
``res`` requests a scheme makes (GTG makes one per scan position) and hands
each model's predictions to :func:`evaluate`; a caller that passes none,
as tests and library callers may, has :func:`evaluate` attack the model as
a group of one. ``res`` then scores the same full-length arrays as with
every row attacked on its own, so it has the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .attacks import certified_rows, pgd_batch
from .config import AttackSpec, FairnessSpec, NoiseSpec
from .data import Dataset
from .errors import InputError, MetricUndefinedError
from .nn import ModelGroup, ModelParams, predict_batch
from .seeding import rng_streams


# Rows of open (uncertified) res samples that one PGD loop attacks at most,
# unless one model has more. A step's cost is mostly per-call overhead up to
# a few hundred rows; on the default config's res work, groups of 512 rows
# took 1.17x the time of 1,024, and 2,048 was no faster, with larger arrays.
ATTACK_GROUP_ROWS = 1024


class Metric(str, Enum):
    PERF = "perf"
    FAIR = "fair"
    REL = "rel"
    RES = "res"


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
        for i, rng in enumerate(rng_streams(self.noise.noise_seed, "noise", indices=range(n))):
            noise[i] = rng.standard_normal(d)
        noisy = self.test.features + noise * self.noise.sigma
        noisy.flags.writeable = False
        return noisy


def adversarial_predictions(
    models: Sequence[ModelParams], cleans: Sequence[np.ndarray], ctx: EvalContext
) -> list[np.ndarray | None]:
    """Each model's predictions on the adversarial inputs of ``res``.

    ``cleans[j]`` is model ``j``'s prediction on ``ctx.test``. The result
    for a model holds one class per test sample it classifies correctly, in
    test order, or is None when it classifies none. A certified row keeps
    its label at every point PGD can reach; the other rows of all the
    models are attacked together, in groups of at most ``ATTACK_GROUP_ROWS``
    rows unless one model has more.
    """
    test, spec = ctx.test, ctx.attack
    results: list[np.ndarray | None] = []
    # per model of the next group: the model, its result, its open rows, and
    # their inputs and labels
    pending: list[tuple[ModelParams, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    pending_rows = 0

    def attack() -> None:
        models, targets, open_rows, inputs, labels = zip(*pending)
        group = ModelGroup(models, [len(y) for y in labels])
        attacked = pgd_batch(group, np.concatenate(inputs), np.concatenate(labels), spec)
        classes = predict_batch(group, attacked)
        for target, rows, part in zip(targets, open_rows, np.split(classes, group.bounds[1:-1])):
            target[rows] = part
        pending.clear()

    for model, clean in zip(models, cleans):
        correct = clean == test.labels
        if not correct.any():
            results.append(None)
            continue
        inputs, labels = test.features[correct], test.labels[correct]
        adversarial = labels.copy()
        results.append(adversarial)
        open_rows = ~certified_rows(model, inputs, labels, spec)
        rows = int(np.count_nonzero(open_rows))
        if not rows:
            continue
        if pending and pending_rows + rows > ATTACK_GROUP_ROWS:
            attack()
            pending_rows = 0
        pending.append((model, adversarial, open_rows, inputs[open_rows], labels[open_rows]))
        pending_rows += rows
    if pending:
        attack()
    return results


def evaluate(
    model: ModelParams,
    metric: Metric,
    ctx: EvalContext,
    clean: np.ndarray,
    adversarial: np.ndarray | None = None,
) -> float:
    """One metric of ``model``; ``clean`` is its prediction on ``ctx.test``.

    ``adversarial`` is the model's :func:`adversarial_predictions`, which
    only ``res`` reads; when it is None, ``res`` makes them with a group of
    one model.
    """
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
    if adversarial is None:
        (adversarial,) = adversarial_predictions([model], [clean], ctx)
    return res(test.labels[correct], adversarial)
