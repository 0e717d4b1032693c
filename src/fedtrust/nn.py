"""Dense feed-forward networks over a flat float64 parameter vector.

Forward and backward passes are written directly in numpy so that gradients
are available with respect to both the parameters and the inputs (the latter
is what the adversarial attack needs). Every function is deterministic: same
inputs, bit-identical outputs. All are pure except the two optimizer steps,
which update a working parameter vector (and Adam's moments) in place; local
training owns that vector and wraps it in a ``ModelParams`` when it is done.

Parameter layout: for each layer l, the weight matrix W_l (fan_in x fan_out,
row-major) followed by the bias vector b_l. Keeping parameters flat makes
model averaging an elementwise vector operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

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
    rows for softmax, an (n,) positive-class column for sigmoid.
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
        # exp overflows to inf for logits below about -709; 1 / (1 + inf)
        # is then the correct probability 0.0.
        with np.errstate(over="ignore"):
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


def predict_batch(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Predicted class index per row; argmax ties resolve to the lowest index."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != params.architecture.input_dim:
        raise InputError(
            f"inputs shape {inputs.shape} does not match feature dim "
            f"{params.architecture.input_dim}"
        )
    _, _, probs = _forward(params, inputs)
    return predicted_classes(params.architecture.output_activation, probs)


def check_labels(arch: Architecture, labels: np.ndarray) -> None:
    """Reject class labels the architecture cannot output."""
    c = arch.class_count
    if labels.size and labels.max() >= c:
        raise InputError(f"label out of range for {c} classes")


def _true_class_prob(
    activation: OutputActivation, probs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    if activation is OutputActivation.SOFTMAX:
        return probs[np.arange(len(labels)), labels]
    return np.where(labels == 1, probs, 1.0 - probs)


def _output_delta(
    activation: OutputActivation,
    probs: np.ndarray,
    labels: np.ndarray,
    clamp: bool = True,
) -> np.ndarray:
    """d(loss_i)/d(z_out) of each sample's cross-entropy loss.

    Log arguments are clamped at LOG_CLAMP; samples whose clamp is active get
    a zero delta because the computed loss is locally constant there.
    ``clamp=False`` leaves the clamp out, for a caller whose rows are all
    classified correctly (their true class has probability at least 1/C, so
    it cannot fire) or that applies it from true-class probabilities it
    already has. Labels must already have passed :func:`check_labels`.
    """
    if activation is OutputActivation.SOFTMAX:
        delta = probs.copy()
        delta[np.arange(len(labels)), labels] -= 1.0
    else:
        delta = (probs - labels)[:, None]
    if clamp:
        delta[_true_class_prob(activation, probs, labels) < LOG_CLAMP] = 0.0
    return delta


def _backward_params(
    layers: list[tuple[np.ndarray, np.ndarray]],
    activations: list[np.ndarray],
    pre_acts: list[np.ndarray],
    delta: np.ndarray,
) -> np.ndarray:
    grads: list[np.ndarray] = [None] * len(layers)  # type: ignore[list-item]
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw = activations[i].T @ delta
        gb = delta.sum(axis=0)
        grads[i] = np.concatenate([gw.ravel(), gb])
        if i > 0:
            delta = _back_through(delta, w)
            delta *= pre_acts[i - 1] > 0.0
    return np.concatenate(grads)


def _back_through(delta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``delta @ w.T``: a delta at a layer's output moved to its input.

    Over a one-unit layer there is no sum to round, so the broadcast product
    gives the bits of the matmul at a fraction of its call cost.
    """
    if w.shape[1] == 1:
        return delta * w[:, 0]
    return delta @ w.T


def loss_and_param_grads(
    layers: list[tuple[np.ndarray, np.ndarray]],
    activation: OutputActivation,
    inputs: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and its gradient w.r.t. the flat values.

    ``layers`` come from :func:`unpack_layers`; ``inputs`` is a float64
    (n, d) array and ``labels`` must already have passed
    :func:`check_labels`.
    """
    if len(labels) == 0:
        raise InputError("cannot evaluate loss on an empty batch")
    activations, pre_acts, probs = forward_layers(layers, activation, inputs)
    p_true = _true_class_prob(activation, probs, labels)
    losses = -np.log(np.maximum(p_true, LOG_CLAMP))
    delta = _output_delta(activation, probs, labels, clamp=False)
    delta[p_true < LOG_CLAMP] = 0.0
    grad = _backward_params(layers, activations, pre_acts, delta / len(labels))
    return float(losses.mean()), grad


def input_gradient_batch(
    params: ModelParams, inputs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Row-wise gradient of each sample's own loss w.r.t. its input vector."""
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if inputs.ndim != 2 or inputs.shape[1] != params.architecture.input_dim:
        raise InputError(
            f"inputs shape {inputs.shape} does not match feature dim "
            f"{params.architecture.input_dim}"
        )
    arch = params.architecture
    check_labels(arch, labels)
    layers = unpack_layers(arch, params.values)
    activation = arch.output_activation
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

    Labels must already have passed :func:`check_labels`; ``clamp`` is
    passed on to :func:`_output_delta`.
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
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam update of ``values``, in place.

    ``m`` and ``v`` are the first and second moment estimates (zeros before
    step 1) and are updated in place; ``step`` counts from 1.
    """
    m[:] = beta1 * m + (1.0 - beta1) * gradient
    v[:] = beta2 * v + (1.0 - beta2) * gradient * gradient
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    values -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)


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
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_params(params))


def load_params(path) -> ModelParams:
    with open(path, "r", encoding="ascii") as fh:
        return loads_params(fh.read())
