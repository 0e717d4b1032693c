"""Dense feed-forward networks over a flat float64 parameter vector.

Forward and backward passes are written directly in numpy so that gradients
are available with respect to both the parameters and the inputs (the latter
is what the adversarial attack needs). All operations are pure functions of
their arguments: same inputs, bit-identical outputs.

Parameter layout: for each layer l, the weight matrix W_l (fan_in x fan_out,
row-major) followed by the bias vector b_l. Keeping parameters flat makes
model averaging an elementwise vector operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

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

    def predict(self, x: Sequence[float]) -> int:
        return predict(self, x)


@dataclass(frozen=True)
class Batch:
    """A training mini-batch: inputs (n, d) and integer class labels (n,)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if x.ndim != 2:
            raise InputError(f"batch inputs must be 2-d, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise InputError("batch labels must align with input rows")
        if y.size and y.min() < 0:
            raise InputError("labels must be non-negative class indices")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def unpack_layers(params: ModelParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (no copies) of the per-layer weight matrices and bias vectors.

    Callers that make many passes over one model (PGD) unpack once and hand
    the layers to :func:`forward_layers` and :func:`input_gradient_from`.
    """
    sizes = params.architecture.layer_sizes
    layers = []
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = params.values[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = params.values[offset : offset + fan_out]
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
    for i, (w, b) in enumerate(layers):
        z = a @ w + b
        pre_acts.append(z)
        if i < len(layers) - 1:
            a = np.maximum(z, 0.0)
            activations.append(a)
    z_out = pre_acts[-1]
    if activation is OutputActivation.SOFTMAX:
        shifted = z_out - z_out.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
    else:
        probs = 1.0 / (1.0 + np.exp(-z_out[:, 0]))
    return activations, pre_acts, probs


def _forward(
    params: ModelParams, x: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    return forward_layers(unpack_layers(params), params.architecture.output_activation, x)


def predicted_classes(activation: OutputActivation, probs: np.ndarray) -> np.ndarray:
    """Class index per row of output probabilities; argmax ties go low."""
    if activation is OutputActivation.SIGMOID:
        return (probs > 0.5).astype(np.int64)
    return np.argmax(probs, axis=1).astype(np.int64)


def _check_input(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != params.architecture.input_dim:
        raise InputError(
            f"input length {x.shape} does not match feature dim "
            f"{params.architecture.input_dim}"
        )
    return x


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


def predict(params: ModelParams, x: Sequence[float]) -> int:
    x = _check_input(params, np.asarray(x, dtype=np.float64))
    return int(predict_batch(params, x[None, :])[0])


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
    activation: OutputActivation, probs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """d(loss_i)/d(z_out) of each sample's cross-entropy loss.

    Log arguments are clamped at LOG_CLAMP; samples whose clamp is active get
    a zero delta because the computed loss is locally constant there. Labels
    must already have passed :func:`check_labels`.
    """
    p_true = _true_class_prob(activation, probs, labels)
    if activation is OutputActivation.SOFTMAX:
        delta = probs.copy()
        delta[np.arange(len(labels)), labels] -= 1.0
    else:
        delta = (probs - labels)[:, None]
    delta[p_true < LOG_CLAMP] = 0.0
    return delta


def _backward_params(
    params: ModelParams,
    activations: list[np.ndarray],
    pre_acts: list[np.ndarray],
    delta: np.ndarray,
) -> np.ndarray:
    layers = unpack_layers(params)
    grads: list[np.ndarray] = [None] * len(layers)  # type: ignore[list-item]
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw = activations[i].T @ delta
        gb = delta.sum(axis=0)
        grads[i] = np.concatenate([gw.ravel(), gb])
        if i > 0:
            delta = (delta @ w.T) * (pre_acts[i - 1] > 0.0)
    return np.concatenate(grads)


def loss_and_param_grads(
    params: ModelParams, batch: Batch
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. ``values``."""
    if len(batch) == 0:
        raise InputError("cannot evaluate loss on an empty batch")
    check_labels(params.architecture, batch.labels)
    activations, pre_acts, probs = _forward(params, batch.inputs)
    activation = params.architecture.output_activation
    p_true = _true_class_prob(activation, probs, batch.labels)
    losses = -np.log(np.maximum(p_true, LOG_CLAMP))
    delta = _output_delta(activation, probs, batch.labels)
    grad = _backward_params(params, activations, pre_acts, delta / len(batch))
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
    check_labels(params.architecture, labels)
    layers = unpack_layers(params)
    activation = params.architecture.output_activation
    _, pre_acts, probs = forward_layers(layers, activation, inputs)
    return input_gradient_from(layers, activation, pre_acts, probs, labels)


def input_gradient_from(
    layers: list[tuple[np.ndarray, np.ndarray]],
    activation: OutputActivation,
    pre_acts: list[np.ndarray],
    probs: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """Row-wise input gradient from the outputs of :func:`forward_layers`.

    Labels must already have passed :func:`check_labels`.
    """
    delta = _output_delta(activation, probs, labels)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        delta = delta @ w.T
        if i > 0:
            delta = delta * (pre_acts[i - 1] > 0.0)
    return delta


def input_gradient(
    params: ModelParams, x: Sequence[float], label: int
) -> np.ndarray:
    x = _check_input(params, np.asarray(x, dtype=np.float64))
    return input_gradient_batch(params, x[None, :], np.asarray([label]))[0]


def _check_gradient(params: ModelParams, gradient: np.ndarray) -> np.ndarray:
    g = np.asarray(gradient, dtype=np.float64)
    if g.shape != params.values.shape:
        raise InputError("gradient is not aligned with the parameter vector")
    if not np.all(np.isfinite(g)):
        raise NumericError("gradient contains non-finite values")
    return g


def sgd_step(
    params: ModelParams, gradient: np.ndarray, learning_rate: float
) -> ModelParams:
    g = _check_gradient(params, gradient)
    # Divergence surfaces as the NumericError ModelParams raises on
    # non-finite values, not as a numpy overflow warning.
    with np.errstate(over="ignore", invalid="ignore"):
        new_values = params.values - learning_rate * g
    return ModelParams(params.architecture, new_values)


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators and the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int

    @classmethod
    def fresh(cls, arch: Architecture) -> "AdamState":
        n = arch.param_count
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(
    state: AdamState,
    params: ModelParams,
    gradient: np.ndarray,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ModelParams, AdamState]:
    """Standard bias-corrected Adam update."""
    g = _check_gradient(params, gradient)
    if state.m.shape != params.values.shape:
        raise InputError("optimizer state is not aligned with the parameters")
    t = state.step + 1
    with np.errstate(over="ignore", invalid="ignore"):  # as in sgd_step
        m = beta1 * state.m + (1.0 - beta1) * g
        v = beta2 * state.v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_values = params.values - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return ModelParams(params.architecture, new_values), AdamState(m, v, t)


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
