"""Dense feed-forward networks over a flat float64 parameter vector.

Forward and backward passes are written directly in numpy so that gradients
are available with respect to both the parameters and the inputs (the latter
is what the adversarial attack needs). Every function is deterministic: same
inputs, bit-identical outputs. All are pure except the training step:
:func:`loss_and_param_grads` writes a batch's gradient into views of one
gradient vector (or of one row per model of a gradient stack), and the two
optimizer steps update working parameters (and Adam's moments) in place,
elementwise, so a step over a stack of clients' rows is each client's own
step. Local training owns those arrays, allocates them once per round and
wraps each client's parameters in a ``ModelParams`` when it is done. The
training step computes no loss value.

Every pass runs a :class:`ModelGroup`: one or more models of one
architecture, each on its own part of one batch, so that many small
batches cost one pass. A single model is a group of one, so prediction,
the input gradient, PGD and local training share one forward pass and one
per-layer backward step. A group of one holds views of its model's flat
vector (weights, their transposes, biases, a one-unit layer's weight
column) and broadcasts them over its rows: it is cheap to build, and one
built over the working vector of local training follows every in-place
optimizer step. A stack is the same over an (m, P) stack of flat vectors:
model j runs row j of an (m, c, d) batch, and every matmul is one
``np.matmul`` over all m models, so local training steps a round's clients
together.

The passes themselves (``ModelGroup.forward``, :func:`loss_and_param_grads`)
do not enter ``np.errstate``. A sigmoid output's ``exp`` overflows to inf
for logits below about -709 (1 / (1 + inf) is then the correct probability
0.0), so their callers silence that overflow once:
:func:`predict_batch` and :func:`input_gradient_batch` per call, PGD around
its step loop and local training around its epochs.

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
from .errors import ConfigError, InputError, NumericError

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
    place, whose views then follow every update. It may also be an (m, P)
    stack of such vectors, whose views are then (m, fan_in, fan_out)
    weights and (m, fan_out) biases. A :class:`ModelGroup` unpacks its
    vectors once, for all its passes.
    """
    layers = []
    offset = 0
    lead = values.shape[:-1]
    for fan_in, fan_out in zip(arch.layer_sizes[:-1], arch.layer_sizes[1:]):
        w = values[..., offset : offset + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        offset += fan_in * fan_out
        b = values[..., offset : offset + fan_out]
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


class ModelGroup:
    """Models of one architecture run in one pass.

    Model ``j`` owns rows ``bounds[j]:bounds[j + 1]`` of every batch the
    group runs, the next ``counts[j]`` of them. Per layer, the matmul runs
    once per model on that model's rows, as it would for the model alone,
    so every row keeps its bits. Every elementwise operation runs once over
    all rows, with per-row copies of the biases and of a one-unit layer's
    weight column (see :meth:`back`). A pass costs about as much on one
    row as on a thousand, since the time goes on per-call overhead, so PGD
    attacks the rows of many models as one group.

    A group of one and a stack (both built by :meth:`stacked`) instead
    broadcast views of their models' own parameters. A stack of m models
    runs (m, c, d) batches, model j on row j: each layer's matmul is one
    ``np.matmul`` over (m, fan_in, fan_out) weight views, which gives each
    model's 2-D matmul's bits, and its biases broadcast as (m, 1, fan_out)
    views.
    """

    def __init__(self, models: Sequence[ModelParams], counts: Sequence[int]) -> None:
        if not models or len(counts) != len(models):
            raise InputError("a model group needs a model, and one row count per model")
        arch = models[0].architecture
        if any(m.architecture != arch for m in models):
            raise InputError("the models of a group must share one architecture")
        if min(counts) < 0:
            raise InputError("row counts must be non-negative")
        if len(models) == 1:
            self._view(arch, models[0].values, counts[0])
        else:
            self._repeat(arch, [m.values for m in models], counts)

    @classmethod
    def stacked(cls, arch: Architecture, values: np.ndarray, rows: int) -> ModelGroup:
        """The group over ``values``, unchecked: a flat parameter vector of
        ``arch`` gives the group of one over batches of ``rows`` rows, and an
        (m, P) stack of them the stack with model j on row j of (m, rows, d)
        batches. It holds views of ``values``, so a group over a writable
        array follows every in-place update."""
        group = cls.__new__(cls)
        group._view(arch, values, rows)
        return group

    def _view(self, arch: Architecture, values: np.ndarray, rows: int) -> None:
        self.architecture = arch
        self.bounds = [rows * j for j in range(values.size // arch.param_count + 1)]
        layers = unpack_layers(arch, values)
        self._weights = [[w] for w, _ in layers]
        self._transposed = [[w.swapaxes(-1, -2)] for w, _ in layers]
        self._biases = [b[..., None, :] for _, b in layers]
        self._units = [t if t.shape[-2] == 1 else None for [t] in self._transposed]

    def _repeat(self, arch: Architecture, vectors: list[np.ndarray], counts: Sequence[int]) -> None:
        def per_row(arrays: list[np.ndarray]) -> np.ndarray:
            return np.repeat(np.stack(arrays), counts, axis=0)

        self.architecture = arch
        self.bounds = [0, *itertools.accumulate(int(c) for c in counts)]
        # per layer, each model's (weights, biases)
        layers = list(zip(*(unpack_layers(arch, v) for v in vectors)))
        self._weights = [[w for w, _ in layer] for layer in layers]
        self._transposed = [[w.T for w in weights] for weights in self._weights]
        self._biases = [per_row([b for _, b in layer]) for layer in layers]
        self._units = [
            per_row([w[:, 0] for w in weights]) if weights[0].shape[1] == 1 else None
            for weights in self._weights
        ]

    @property
    def rows(self) -> int:
        return self.bounds[-1]

    @property
    def per_row(self) -> bool:
        """Whether the group copies its models' parameters per row (a group
        of several over one batch of rows) rather than broadcasting them."""
        return len(self._weights[0]) > 1

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
        """The hidden layers' activations (after the ReLU) and the output
        probabilities of the float64 (n, d) batch ``x``: (n, C) rows for
        softmax, an (n,) positive-class column for sigmoid, built in place
        with the operations of the textbook formulas, in their order. A
        stack runs an (m, c, d) batch, with (m, c, ...) outputs."""
        hidden = []
        a = x
        last = len(self._biases) - 1
        for i, (weights, b) in enumerate(zip(self._weights, self._biases)):
            z = self._matmul(a, weights)
            z += b
            if i < last:
                a = np.maximum(z, 0.0, out=z)
                hidden.append(a)
        if self.architecture.output_activation is OutputActivation.SOFTMAX:
            z -= z.max(axis=-1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=-1, keepdims=True)
            return hidden, z
        probs = z[..., 0]
        np.negative(probs, out=probs)
        np.exp(probs, out=probs)
        probs += 1.0
        return hidden, np.divide(1.0, probs, out=probs)

    def back(self, delta: np.ndarray, hidden: list[np.ndarray], i: int) -> np.ndarray:
        """A loss gradient at layer ``i``'s output moved to its input:
        ``delta @ w.T`` with each model's weights on its rows, zeroed where
        the ReLU below is off (``hidden[i - 1]`` is 0). Over a one-unit layer
        there is no sum to round, so the broadcast product with the weight
        column gives the matmul's bits at a fraction of its call cost."""
        unit = self._units[i]
        delta = delta * unit if unit is not None else self._matmul(delta, self._transposed[i])
        if i > 0:
            delta *= hidden[i - 1] > 0.0
        return delta

    def input_gradient(
        self,
        hidden: list[np.ndarray],
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
            delta = self.back(delta, hidden, i)
        return delta

    def take(self, keep: np.ndarray) -> ModelGroup:
        """The group over the rows that the boolean mask ``keep`` marks (not
        for a stack)."""
        group = copy.copy(self)
        group.bounds = np.concatenate(([0], np.cumsum(keep)))[self.bounds].tolist()
        if self.per_row:
            group._biases = [b[keep] for b in self._biases]
            group._units = [u if u is None else u[keep] for u in self._units]
        return group


def as_group(params: ModelParams | ModelGroup, rows: int) -> ModelGroup:
    """``params`` over a batch of ``rows`` rows: a model is a group of one."""
    if not isinstance(params, ModelGroup):
        return ModelGroup.stacked(params.architecture, params.values, rows)
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
        _, probs = as_group(params, inputs.shape[0]).forward(inputs)
    return predicted_classes(params.architecture.output_activation, probs)


def check_labels(arch: Architecture, labels: np.ndarray) -> None:
    """Reject class labels the architecture cannot output."""
    c = arch.class_count
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise InputError(f"label out of range for {c} classes")


def labeled_rows(
    params: ModelParams | ModelGroup, inputs: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``inputs`` as float64 (n, d) rows of the model's input width, and
    ``labels`` as int64, one class label per row, checked by
    :func:`check_labels`."""
    x = input_rows(params, inputs)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (x.shape[0],):
        raise InputError("labels must align with input rows")
    check_labels(params.architecture, y)
    return x, y


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


def loss_and_param_grads(
    group: ModelGroup,
    inputs: np.ndarray,
    labels: np.ndarray,
    grad_layers: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Gradient of a batch's mean cross-entropy w.r.t. a model's flat values.

    ``group`` is a group of one (:func:`as_group`, or ``ModelGroup.stacked``
    over a flat vector), which broadcasts its model over a float64 (n, d)
    batch ``inputs`` of any size, or a stack of m models over an
    (m, c, d) batch, each with its own mean over its c rows. Writes each
    layer's weight and bias gradient into ``grad_layers``, the
    :func:`unpack_layers` views of one gradient vector (for a stack, of an
    (m, P) gradient stack) that the caller allocates once, so the vector
    (row j) then holds the whole gradient (of model j). A stack's matmuls
    and sums give each model's own calls' bits. No loss value is computed.
    ``labels``, (n,) or (m, c), passed :func:`check_labels`. The caller
    silences the sigmoid's ``exp`` overflow.
    """
    if group.per_row:
        raise InputError("a parameter gradient needs a group of one model or a stack")
    if labels.size == 0:
        raise InputError("cannot evaluate loss on an empty batch")
    hidden, probs = group.forward(inputs)
    activation = group.architecture.output_activation
    if labels.ndim == 1:
        delta = output_delta(activation, probs, labels)
    else:
        # a stack's (m, c) samples, flattened for output_delta, and back
        flat = output_delta(activation, probs.reshape(labels.size, *probs.shape[2:]), labels.reshape(-1))
        delta = flat.reshape(*labels.shape, -1)
    delta /= labels.shape[-1]
    layer_inputs = [inputs, *hidden]
    for i in range(len(grad_layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        np.matmul(layer_inputs[i].swapaxes(-1, -2), delta, out=gw)
        delta.sum(axis=-2, out=gb)
        if i > 0:
            delta = group.back(delta, hidden, i)


def input_gradient_batch(
    params: ModelParams | ModelGroup, inputs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Row-wise gradient of each sample's own loss w.r.t. its input vector.

    ``params`` is one model, or a :class:`ModelGroup` whose models each
    take their own rows; PGD runs the same pass.
    """
    inputs, labels = labeled_rows(params, inputs, labels)
    group = as_group(params, inputs.shape[0])
    with np.errstate(over="ignore"):
        hidden, probs = group.forward(inputs)
    return group.input_gradient(hidden, probs, labels)


def sgd_step(values: np.ndarray, gradient: np.ndarray, learning_rate: float) -> None:
    """One plain gradient step on ``values``, in place."""
    values -= learning_rate * gradient


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(
    values: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    gradient: np.ndarray,
    step: int,
    learning_rate: float,
    scratch: tuple[np.ndarray, np.ndarray],
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
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
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


def save_params(params: ModelParams, path) -> None:
    with atomic_open(path) as fh:
        fh.write(dumps_params(params))

