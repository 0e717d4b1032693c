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

The passes themselves (:func:`forward_layers`, :func:`loss_and_param_grads`)
do not enter ``np.errstate``. A sigmoid output's ``exp`` overflows to inf
for logits below about -709 (1 / (1 + inf) is then the correct probability
0.0), so their callers silence that overflow once: :func:`predict_batch`,
:func:`input_gradient_batch` and :func:`cross_entropy` per call, PGD around
its step loop and local training around its epochs.

Parameter layout: for each layer l, the weight matrix W_l (fan_in x fan_out,
row-major) followed by the bias vector b_l. Keeping parameters flat makes
model averaging an elementwise vector operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
    # The probabilities are built in one fresh buffer, in place; the
    # operations and their order are those of the textbook formulas.
    z_out = pre_acts[-1]
    if activation is OutputActivation.SOFTMAX:
        probs = z_out - z_out.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
    else:
        probs = np.negative(z_out[:, 0])
        np.exp(probs, out=probs)
        probs += 1.0
        np.divide(1.0, probs, out=probs)
    return activations, pre_acts, probs


def _forward(
    params: ModelParams, x: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    arch = params.architecture
    return forward_layers(unpack_layers(arch, params.values), arch.output_activation, x)


def predicted_classes(activation: OutputActivation, probs: np.ndarray) -> np.ndarray:
    """Class index per row of output probabilities; argmax ties go low."""
    if activation is OutputActivation.SIGMOID:
        return (probs > 0.5).astype(np.int64)
    return np.argmax(probs, axis=1).astype(np.int64)


def input_rows(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """``inputs`` as float64 (n, d) rows of the model's input width."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != params.architecture.input_dim:
        raise InputError(
            f"inputs shape {inputs.shape} does not match feature dim "
            f"{params.architecture.input_dim}"
        )
    return inputs


def predict_batch(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Predicted class index per row; argmax ties resolve to the lowest index."""
    inputs = input_rows(params, inputs)
    with np.errstate(over="ignore"):
        _, _, probs = _forward(params, inputs)
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


def _output_delta(
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
    delta = _output_delta(activation, probs, labels)
    delta /= len(labels)
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        np.matmul(activations[i].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if i > 0:
            delta = _back_through(delta, layers[i][0])
            delta *= pre_acts[i - 1] > 0.0


def input_gradient_batch(
    params: ModelParams, inputs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Row-wise gradient of each sample's own loss w.r.t. its input vector."""
    inputs = input_rows(params, inputs)
    labels = np.asarray(labels, dtype=np.int64)
    arch = params.architecture
    check_labels(arch, labels)
    layers = unpack_layers(arch, params.values)
    activation = arch.output_activation
    with np.errstate(over="ignore"):
        _, pre_acts, probs = forward_layers(layers, activation, inputs)
        return input_gradient_from(layers, activation, pre_acts, probs, labels)


def input_gradient_from(
    layers: list[tuple[np.ndarray, np.ndarray]],
    activation: OutputActivation,
    pre_acts: list[np.ndarray],
    probs: np.ndarray,
    labels: np.ndarray,
    clamp: bool = True,
) -> np.ndarray:
    """Row-wise input gradient from the outputs of :func:`forward_layers`.

    ``probs`` is used up (the output delta is built in it); ``labels``
    passed :func:`check_labels`, and ``clamp`` is passed on to
    :func:`_output_delta`.
    """
    delta = _output_delta(activation, probs, labels, clamp)
    for i in range(len(layers) - 1, -1, -1):
        delta = _back_through(delta, layers[i][0])
        if i > 0:
            delta *= pre_acts[i - 1] > 0.0
    return delta


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
