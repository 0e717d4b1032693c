"""Independent re-derivations the output checks compare the program against.

Nothing here imports fedtrust. The seeding scheme (a SplitMix64 tag chain),
the synthetic generator and the stratified split are rebuilt from their
specification so that each fold's test set can be recovered without the
program; the forward pass reads the program's saved checkpoint text files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _words(tag: int | str) -> list[int]:
    if isinstance(tag, int):
        return [tag & _MASK]
    raw = tag.encode("utf-8")
    return [int.from_bytes(raw[i : i + 8], "little") for i in range(0, len(raw), 8)] + [len(raw)]


def derive_seed(seed: int, *tags: int | str) -> int:
    x = seed & _MASK
    if not tags:
        return _splitmix64(x)
    for tag in tags:
        for word in _words(tag):
            x = _splitmix64(x ^ word)
    return x


@dataclass(frozen=True)
class TestSet:
    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray


def fold_test_set(cfg: dict[str, str], fold: int) -> TestSet:
    """The test split of fold ``fold`` for a synthetic-data config."""
    master = int(cfg["experiment.master_seed"])
    n, d = int(cfg["data.n"]), int(cfg["data.d"])
    imbalance = float(cfg["data.group_imbalance"])
    fraction = float(cfg["data.test_fraction"])
    fold_seed = derive_seed(master, "fold", fold)

    rng = np.random.default_rng(derive_seed(derive_seed(fold_seed, "data"), "synthetic"))
    sensitive = rng.random(n) < 0.5
    p_one = np.where(sensitive, 0.5 + imbalance / 2, 0.5 - imbalance / 2)
    labels = (rng.random(n) < p_one).astype(np.int64)
    means = np.where(labels == 1, 0.75, 0.25)
    features = np.clip(rng.normal(size=(n, d)) * 0.15 + means[:, None], 0.0, 1.0)

    rng = np.random.default_rng(derive_seed(derive_seed(fold_seed, "split"), "split"))
    test_idx = []
    for c in (0, 1):
        idx = rng.permutation(np.flatnonzero(labels == c))
        test_idx.append(idx[: int(np.floor(len(idx) * fraction + 0.5))])
    idx = np.concatenate(test_idx)
    return TestSet(features[idx], labels[idx], sensitive[idx])


@dataclass(frozen=True)
class Model:
    layer_sizes: tuple[int, ...]
    values: np.ndarray


def load_model(path: Path) -> Model:
    lines = [ln for ln in Path(path).read_text(encoding="ascii").splitlines() if ln.strip()]
    sizes, activation, output = lines[0].split()
    # Every workload has model.output = sigmoid.
    if activation != "relu" or output != "sigmoid" or not sizes.endswith(",1"):
        raise ValueError(f"{path}: expected a ReLU MLP with one sigmoid output, got {lines[0]!r}")
    return Model(tuple(int(s) for s in sizes.split(",")), np.array([float(v) for v in lines[1:]]))


def predict(model: Model, x: np.ndarray) -> np.ndarray:
    """Class per row: ReLU hidden layers, then one sigmoid unit."""
    sizes = model.layer_sizes
    expected = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    if model.values.size != expected:
        raise ValueError(f"expected {expected} parameters, got {model.values.size}")
    a, offset = x, 0
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = model.values[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = model.values[offset : offset + fan_out]
        offset += fan_out
        z = a @ w + b
        a = np.maximum(z, 0.0) if i < len(sizes) - 2 else z
    return (1.0 / (1.0 + np.exp(-a[:, 0])) > 0.5).astype(np.int64)


def perf(model: Model, test: TestSet) -> float:
    return float(np.mean(predict(model, test.features) == test.labels))


def fair(model: Model, test: TestSet, target_class: int) -> float:
    hits = predict(model, test.features) == target_class
    return 1.0 - abs(float(np.mean(hits[test.sensitive])) - float(np.mean(hits[~test.sensitive])))
