"""Test helpers: the loss whose gradient training takes, and a checkpoint
reader. The program computes neither: training writes only the loss's
gradient, and the valuation stage reads the in-memory round records."""

import numpy as np

from fedtrust import nn


def cross_entropy(params, inputs, labels):
    """Mean cross-entropy of a model on the batch (inputs, labels), each log
    argument clamped at ``nn.LOG_CLAMP``: the loss whose gradient
    ``nn.loss_and_param_grads`` writes."""
    inputs, labels = nn.labeled_rows(params, inputs, labels)
    with np.errstate(over="ignore"):
        _, probs = nn.as_group(params, len(inputs)).forward(inputs)
    if probs.ndim == 1:
        # a sigmoid's positive-class column
        p_true = np.where(labels, probs, 1.0 - probs)
    else:
        p_true = probs[np.arange(len(labels)), labels]
    return float((-np.log(np.maximum(p_true, nn.LOG_CLAMP))).mean())


def loads_params(text):
    """The model that ``nn.dumps_params`` wrote as ``text``."""
    header, *values = text.splitlines()
    sizes, _, activation = header.split()
    arch = nn.Architecture(tuple(map(int, sizes.split(","))), nn.OutputActivation(activation))
    return nn.ModelParams(arch, np.array(values, dtype=np.float64))
