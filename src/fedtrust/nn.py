"""Dense feed-forward networks over a flat float64 parameter vector.

Forward and backward passes are written directly in numpy so that gradients
are available with respect to both the parameters and the inputs (the latter
is what the adversarial attack needs). Every function is deterministic: same
inputs, bit-identical outputs. All are pure except the training step:
:func:`loss_and_param_grads` writes a batch's gradient into views of one
gradient vector, and the two optimizer steps update a working parameter
vector (and Adam's moments) in place. Local training owns those vectors,
allocates them once per client update and wraps the parameters in a
``ModelParams`` when it is done. The training step computes no loss value;
:func:`cross_entropy` gives the loss whose gradient it is.

The input gradient and PGD run a :class:`ModelGroup`: one or more models
of one architecture, each on its own slice of one stacked batch of rows,
so that many small batches cost one pass; a single model is a group of
one. :func:`predict_batch` runs a group the same way, and a single model
through :func:`forward_layers`, the forward pass of local training.

The passes themselves (:func:`forward_layers`, :func:`loss_and_param_grads`,
``ModelGroup.forward``) do not enter ``np.errstate``. A sigmoid output's
``exp`` overflows to inf for logits below about -709 (1 / (1 + inf) is then
the correct probability 0.0), so their callers silence that overflow once:
:func:`predict_batch`, :func:`input_gradient_batch` and
:func:`cross_entropy` per call, PGD around its step loop and local training
around its epochs.

Parameter layout: for each layer l, the weight matrix W_l (fan_in x fan_out,
row-major) followed by the bias vector b_l. Keeping parameters flat makes
model averaging an elementwise vector operation.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, DataError, InputError, NumericError

LOG_CLAMP = 1e-12


class OutputActivation(str, Enum):
    SOFTMAX = "softmax"
    SIGMOID = "sigmoid"


@dataclass(frozen=True)
class Architecture:
    """Layer sizes plus activation choices for a ReLU MLP classifier.

    ``layer_sizes`` runs input dim, hidden dims..., output dim. A sigmoid
    output requires a single output unit and encodes two classes.
    """

    layer_sizes: tuple[int, ...]
    output_activation: OutputActivation = OutputActivation.SOFTMAX

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(
            self, "output_activation", OutputActivation(self.output_activation)
        )
        if len(sizes) < 2:
            raise ConfigError("architecture needs at least input and output layers")
        if any(s < 1 for s in sizes):
            raise ConfigError(f"layer sizes must be positive: {sizes}")
        if self.output_activation is OutputActivation.SIGMOID and sizes[-1] != 1:
            raise ConfigError("sigmoid output requires exactly one output unit")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def class_count(self) -> int:
        if self.output_activation is OutputActivation.SIGMOID:
            return 2
        return self.layer_sizes[-1]

    @property
    def param_count(self) -> int:
        sizes = self.layer_sizes
        return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))


@dataclass(frozen=True)
class ModelParams:
    """Immutable flat parameter vector bound to an architecture."""

    architecture: Architecture
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size != self.architecture.param_count:
            raise ConfigError(
                f"expected {self.architecture.param_count} parameter values, "
                f"got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise NumericError("parameter values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def unpack_layers(
    arch: Architecture, values: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (no copies) of the per-layer weight matrices and bias vectors.

    ``values`` is a flat parameter vector of ``arch``: a model's read-only
    ``ModelParams.values``, or the writable vector local training updates in
    place, whose views then follow every update. Callers that make many
    passes over one vector (PGD, local training) unpack it once.
    """
    layers = []
    offset = 0
    for fan_in, fan_out in zip(arch.layer_sizes[:-1], arch.layer_sizes[1:]):
        w = values[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = values[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def init_params(arch: Architecture, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases; identical seed, identical output."""
    rng = np.random.default_rng(seed & (2**64 - 1))
    chunks = []
    for fan_in, fan_out in zip(arch.layer_sizes[:-1], arch.layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return ModelParams(arch, np.concatenate(chunks))


def forward_layers(
    layers: list[tuple[np.ndarray, np.ndarray]],
    activation: OutputActivation,
    x: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Forward pass of a (n, d) batch through unpacked layers.

    Returns the post-activation of every layer (activations[0] is the input),
    the pre-activations of every layer, and the output probabilities: (n, C)
    rows for softmax, an (n,) positive-class column for sigmoid. The caller
    silences the sigmoid's ``exp`` overflow (see the module docstring).
    """
    activations = [x]
    pre_acts = []
    a = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = a @ w
        z += b
        pre_acts.append(z)
        if i < last:
            a = np.maximum(z, 0.0)
            activations.append(a)
    return activations, pre_acts, output_probs(activation, pre_acts[-1])


def output_probs(activation: OutputActivation, z_out: np.ndarray) -> np.ndarray:
    """Output probabilities from the last layer's (n, C) pre-activations.

    (n, C) rows for softmax, an (n,) positive-class column for sigmoid. They
    are built in one fresh buffer, in place; the operations and their order
    are those of the textbook formulas.
    """
    if activation is OutputActivation.SOFTMAX:
        probs = z_out - z_out.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
    else:
        probs = np.negative(z_out[:, 0])
        np.exp(probs, out=probs)
        probs += 1.0
        np.divide(1.0, probs, out=probs)
    return probs


class ModelGroup:
    """Models of one architecture over one stacked batch of rows.

    Model ``j`` owns rows ``bounds[j]:bounds[j + 1]`` of every batch the
    group runs, the next ``counts[j]`` of them. Per layer, the matmul runs
    once per model on that model's rows, as it would for the model alone,
    so every row keeps its bits. Every elementwise operation runs once over
    all rows, with per-row copies of the biases and of a one-unit layer's
    weight column (whose backward pass is a broadcast product, see
    :func:`_back_through`); a group of one broadcasts its model's own. A
    pass costs about as much on one row as on a thousand, since the time
    goes on per-call overhead, so PGD attacks the rows of many models as
    one group.
    """

    def __init__(self, models: Sequence[ModelParams], counts: Sequence[int]) -> None:
        if not models or len(counts) != len(models):
            raise InputError("a model group needs a model, and one row count per model")
        arch = models[0].architecture
        if any(m.architecture != arch for m in models):
            raise InputError("the models of a group must share one architecture")
        if min(counts) < 0:
            raise InputError("row counts must be non-negative")
        self.architecture = arch
        self.bounds = [0, *itertools.accumulate(int(c) for c in counts)]
        # per layer, each model's (weights, biases)
        layers = list(zip(*(unpack_layers(arch, m.values) for m in models)))
        self._weights = [[w for w, _ in layer] for layer in layers]
        self._transposed = [[w.T for w in weights] for weights in self._weights]
        units = [weights[0].shape[1] == 1 for weights in self._weights]
        # Per-row copies and a matmul per slice cost a group of one about
        # 0.2 ms per PGD call: 2% of the run time of a workload whose
        # attacks are all single-model.
        if len(models) == 1:
            self._biases = [layer[0][1] for layer in layers]
            self._units = [w[0][:, 0] if unit else None for w, unit in zip(self._weights, units)]
            return
        self._biases = [np.repeat(np.stack([b for _, b in layer]), counts, axis=0) for layer in layers]
        self._units = [
            np.repeat(np.stack([w[:, 0] for w in weights]), counts, axis=0) if unit else None
            for weights, unit in zip(self._weights, units)
        ]

    @property
    def rows(self) -> int:
        return self.bounds[-1]

    def _matmul(self, a: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
        """``a @ w`` with each model's ``w`` on that model's rows."""
        if len(weights) == 1:
            return a @ weights[0]
        out = np.empty((a.shape[0], weights[0].shape[1]))
        bounds = self.bounds
        for j, w in enumerate(weights):
            start, stop = bounds[j], bounds[j + 1]
            if start < stop:
                np.matmul(a[start:stop], w, out=out[start:stop])
        return out

    def forward(self, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Every layer's pre-activations and the output probabilities of the
        float64 (n, d) batch ``x`` (see :func:`forward_layers`)."""
        pre_acts = []
        a = x
        last = len(self._biases) - 1
        for i, (weights, b) in enumerate(zip(self._weights, self._biases)):
            z = self._matmul(a, weights)
            z += b
            pre_acts.append(z)
            if i < last:
                a = np.maximum(z, 0.0)
        return pre_acts, output_probs(self.architecture.output_activation, pre_acts[-1])

    def input_gradient(
        self,
        pre_acts: list[np.ndarray],
        probs: np.ndarray,
        labels: np.ndarray,
        clamp: bool = True,
    ) -> np.ndarray:
        """Each row's loss gradient w.r.t. its input, from the outputs of
        :meth:`forward`. ``probs`` is used up; ``labels`` passed
        :func:`check_labels`, and ``clamp`` is passed on to
        :func:`output_delta`."""
        delta = output_delta(self.architecture.output_activation, probs, labels, clamp)
        for i in range(len(self._units) - 1, -1, -1):
            unit = self._units[i]
            delta = delta * unit if unit is not None else self._matmul(delta, self._transposed[i])
            if i > 0:
                delta *= pre_acts[i - 1] > 0.0
        return delta

    def take(self, keep: np.ndarray) -> ModelGroup:
        """The group over the rows that the boolean mask ``keep`` marks."""
        group = copy.copy(self)
        group.bounds = np.concatenate(([0], np.cumsum(keep)))[self.bounds].tolist()
        if len(self._weights[0]) > 1:
            group._biases = [b[keep] for b in self._biases]
            group._units = [u if u is None else u[keep] for u in self._units]
        return group


def as_group(params: ModelParams | ModelGroup, rows: int) -> ModelGroup:
    """``params`` over a batch of ``rows`` rows: a model is a group of one."""
    if not isinstance(params, ModelGroup):
        return ModelGroup([params], [rows])
    if params.rows != rows:
        raise InputError(f"a group over {params.rows} rows was given {rows}")
    return params


def predicted_classes(activation: OutputActivation, probs: np.ndarray) -> np.ndarray:
    """Class index per row of output probabilities; argmax ties go low."""
    if activation is OutputActivation.SIGMOID:
        return (probs > 0.5).astype(np.int64)
    return np.argmax(probs, axis=1).astype(np.int64)


def input_rows(params: ModelParams | ModelGroup, inputs: np.ndarray) -> np.ndarray:
    """``inputs`` as float64 (n, d) rows of the model's input width."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != params.architecture.input_dim:
        raise InputError(
            f"inputs shape {inputs.shape} does not match feature dim "
            f"{params.architecture.input_dim}"
        )
    return inputs


def predict_batch(params: ModelParams | ModelGroup, inputs: np.ndarray) -> np.ndarray:
    """Predicted class index per row; argmax ties resolve to the lowest index.

    ``params`` is one model, or a :class:`ModelGroup` whose models each
    predict their own rows.
    """
    inputs = input_rows(params, inputs)
    with np.errstate(over="ignore"):
        if isinstance(params, ModelGroup):
            _, probs = as_group(params, inputs.shape[0]).forward(inputs)
        else:
            # the pass local training runs, without a group to build
            layers = unpack_layers(params.architecture, params.values)
            _, _, probs = forward_layers(layers, params.architecture.output_activation, inputs)
    return predicted_classes(params.architecture.output_activation, probs)


def check_labels(arch: Architecture, labels: np.ndarray) -> None:
    """Reject class labels the architecture cannot output."""
    c = arch.class_count
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise InputError(f"label out of range for {c} classes")


def _true_class_prob(
    activation: OutputActivation, probs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Each row's true-class probability; ``labels`` passed :func:`check_labels`."""
    if activation is OutputActivation.SOFTMAX:
        return probs[np.arange(len(labels)), labels]
    # sigmoid labels are 0 or 1, so a label is its own positive-class mask
    return np.where(labels, probs, 1.0 - probs)


def output_delta(
    activation: OutputActivation,
    probs: np.ndarray,
    labels: np.ndarray,
    clamp: bool = True,
) -> np.ndarray:
    """d(loss_i)/d(z_out) of each sample's cross-entropy loss, as (n, C).

    Built in place in ``probs``, which the caller gives up; a sigmoid's (n,)
    column is edited as it is (minus its 0/1 labels) and returned as an
    (n, 1) view. ``labels`` passed :func:`check_labels`. Log arguments are
    clamped at LOG_CLAMP; samples whose clamp is active get a zero delta
    because the computed loss is locally constant there. ``clamp=False``
    leaves the clamp out, for a caller whose rows are all classified
    correctly (their true class has probability at least 1/C, so it cannot
    fire).
    """
    if clamp:
        clamped = _true_class_prob(activation, probs, labels) < LOG_CLAMP
    if activation is OutputActivation.SOFTMAX:
        probs[np.arange(len(labels)), labels] -= 1.0
    else:
        probs -= labels
    if clamp:
        probs[clamped] = 0.0
    return probs if probs.ndim == 2 else probs[:, None]


def _back_through(delta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``delta @ w.T``: a delta at a layer's output moved to its input.

    Over a one-unit layer there is no sum to round, so the broadcast product
    gives the bits of the matmul at a fraction of its call cost.
    """
    if w.shape[1] == 1:
        return delta * w[:, 0]
    return delta @ w.T


def cross_entropy(
    layers: list[tuple[np.ndarray, np.ndarray]],
    activation: OutputActivation,
    inputs: np.ndarray,
    labels: np.ndarray,
) -> float:
    """Mean cross-entropy of a batch, each log argument clamped at LOG_CLAMP.

    The loss whose gradient :func:`loss_and_param_grads` writes; training
    itself never computes it. Labels must already have passed
    :func:`check_labels`.
    """
    if len(labels) == 0:
        raise InputError("cannot evaluate loss on an empty batch")
    with np.errstate(over="ignore"):
        _, _, probs = forward_layers(layers, activation, inputs)
    p_true = _true_class_prob(activation, probs, labels)
    return float((-np.log(np.maximum(p_true, LOG_CLAMP))).mean())


def loss_and_param_grads(
    layers: list[tuple[np.ndarray, np.ndarray]],
    activation: OutputActivation,
    inputs: np.ndarray,
    labels: np.ndarray,
    grad_layers: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Gradient of a batch's mean cross-entropy w.r.t. the flat values.

    Writes each layer's weight and bias gradient into ``grad_layers``, the
    :func:`unpack_layers` views of one gradient vector that the caller
    allocates once, so the vector then holds the whole gradient. No loss
    value is computed (see :func:`cross_entropy`). ``inputs`` is a float64
    (n, d) array and ``labels`` passed :func:`check_labels`. The caller
    silences the sigmoid's ``exp`` overflow.
    """
    if len(labels) == 0:
        raise InputError("cannot evaluate loss on an empty batch")
    activations, pre_acts, probs = forward_layers(layers, activation, inputs)
    delta = output_delta(activation, probs, labels)
    delta /= len(labels)
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        np.matmul(activations[i].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if i > 0:
            delta = _back_through(delta, layers[i][0])
            delta *= pre_acts[i - 1] > 0.0


def input_gradient_batch(
    params: ModelParams | ModelGroup, inputs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Row-wise gradient of each sample's own loss w.r.t. its input vector.

    ``params`` is one model, or a :class:`ModelGroup` whose models each
    take their own rows; PGD runs the same pass.
    """
    inputs = input_rows(params, inputs)
    labels = np.asarray(labels, dtype=np.int64)
    group = as_group(params, inputs.shape[0])
    check_labels(group.architecture, labels)
    with np.errstate(over="ignore"):
        pre_acts, probs = group.forward(inputs)
    return group.input_gradient(pre_acts, probs, labels)


def sgd_step(values: np.ndarray, gradient: np.ndarray, learning_rate: float) -> None:
    """One plain gradient step on ``values``, in place."""
    values -= learning_rate * gradient


def adam_step(
    values: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    gradient: np.ndarray,
    step: int,
    learning_rate: float,
    scratch: tuple[np.ndarray, np.ndarray],
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam update of ``values``, in place.

    ``m`` and ``v`` are the first and second moment estimates (zeros before
    step 1) and are updated in place; ``step`` counts from 1. ``scratch`` is
    two vectors of the values' size that the step overwrites. Every
    operation is one of the textbook expressions', in their order::

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        values -= learning_rate * (m / (1 - beta1**step))
                  / (sqrt(v / (1 - beta2**step)) + eps)

    so the update has their bits.
    """
    s, u = scratch
    m *= beta1
    np.multiply(gradient, 1.0 - beta1, out=s)
    m += s
    v *= beta2
    np.multiply(gradient, 1.0 - beta2, out=s)
    s *= gradient
    v += s
    np.divide(m, 1.0 - beta1**step, out=s)
    s *= learning_rate
    np.divide(v, 1.0 - beta2**step, out=u)
    np.sqrt(u, out=u)
    u += eps
    s /= u
    values -= s


# Text serialization: architecture header line, then one value per line with
# 17 significant digits (round-trip exact for IEEE doubles).


def dumps_params(params: ModelParams) -> str:
    arch = params.architecture
    header = "{} relu {}".format(
        ",".join(str(s) for s in arch.layer_sizes), arch.output_activation.value
    )
    lines = [header]
    lines.extend(f"{v:.17g}" for v in params.values)
    return "\n".join(lines) + "\n"


def loads_params(text: str) -> ModelParams:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError("empty model text")
    parts = lines[0].split()
    if len(parts) != 3 or parts[1] != "relu":
        raise DataError(f"bad architecture header: {lines[0]!r}")
    try:
        sizes = tuple(int(s) for s in parts[0].split(","))
        arch = Architecture(sizes, OutputActivation(parts[2]))
        values = np.array([float(v) for v in lines[1:]], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"unparseable model text: {exc}") from exc
    return ModelParams(arch, values)


def save_params(params: ModelParams, path) -> None:
    with atomic_open(path) as fh:
        fh.write(dumps_params(params))


def load_params(path) -> ModelParams:
    with open(path, "r", encoding="ascii") as fh:
        return loads_params(fh.read())
