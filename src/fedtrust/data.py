"""Labeled tabular datasets with a sensitive attribute.

Provides a synthetic binary-classification generator with a tunable
label/group dependence (the fairness tension), CSV ingestion with min-max
normalization and one-hot expansion, IID and Dirichlet client partitioning,
and a stratified train/test split. Datasets are immutable after construction
and every operation is a pure function of its seed.

The split and the partition are index functions over the labels
(``split_rows``, ``client_rows``), and ``gather`` places the rows they name
once, as consecutive row views of one array. ``train_test_split`` (with
``Dataset.subset``) and ``partition`` (with ``gather``) are their
compositions. The synthetic draw comes in two parts as well:
``synthetic_labels`` draws the labels and sensitive bits, which its stream
draws first, and the feature draw writes the feature rows, a chunk at a
time, to given rows of one array. :func:`fold_split`, the one owner of a
fold's layout, lays out the rows from the labels and draws each synthetic
row's features straight into their place, so a fold never holds its draw in
its own order (:func:`fold_dataset` is that draw in its own order).

:func:`read_csv` is the one reader of the program's CSV files, data and
scores alike, and ``atomic.write_csv`` their one writer.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .atomic import write_csv
from .config import (
    SYNTHETIC_CLASSES,
    CsvSchema,
    ExperimentConfig,
    PartitionMode,
    PartitionSpec,
    check_synthetic_shape,
)
from .errors import ConfigError, DataError, SchemaError
from .seeding import derive_seed, rng_from


@dataclass(frozen=True)
class Dataset:
    """Feature matrix in [0, 1], integer labels, boolean sensitive flags."""

    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        s = np.asarray(self.sensitive, dtype=bool)
        if x.ndim != 2:
            raise ConfigError(f"features must be 2-d, got shape {x.shape}")
        if y.shape != (x.shape[0],) or s.shape != (x.shape[0],):
            raise ConfigError("labels/sensitive must align with feature rows")
        if not np.all(np.isfinite(x)):
            raise DataError("features contain non-finite values")
        if y.size and (y.min() < 0 or y.max() >= self.class_count):
            raise ConfigError("labels out of range for class_count")
        for arr in (x, y, s):
            arr.flags.writeable = False
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "sensitive", s)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[idx], self.labels[idx], self.sensitive[idx], self.class_count
        )


# Rows per chunk of the synthetic feature draw. At d = 8 a chunk is 64 kB;
# 4,096-row chunks left a 40,000-row fold's peak RSS about 0.3 MB higher.
FEATURE_CHUNK_ROWS = 1024


def synthetic_labels(
    n: int, d: int, group_imbalance: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.random.Generator]:
    """The labels and sensitive bits of ``generate_synthetic(n, d,
    group_imbalance, seed)``, which its stream draws before the features,
    and that stream, positioned at the feature draw."""
    check_synthetic_shape(n, d)
    if not 0.0 <= group_imbalance < 1.0:
        raise ConfigError("group_imbalance must lie in [0, 1)")
    rng = rng_from(seed, "synthetic")
    sensitive = rng.random(n) < 0.5
    p_one = np.where(sensitive, 0.5 + group_imbalance / 2, 0.5 - group_imbalance / 2)
    labels = (rng.random(n) < p_one).astype(np.int64)
    return labels, sensitive, rng


def _draw_features(
    rng: np.random.Generator, labels: np.ndarray, out: np.ndarray, rows: np.ndarray | None = None
) -> None:
    """Draw the feature row of each of ``labels`` into ``out``: row i goes
    to ``out[rows[i]]``, or to ``out[i]`` without ``rows``.

    The rows are drawn FEATURE_CHUNK_ROWS at a time. ``Generator.normal``
    keeps no state between calls, and scale, shift and clip are
    elementwise, so the chunks have the bytes of one (n, d) draw.
    """
    n, d = out.shape
    for start in range(0, n, FEATURE_CHUNK_ROWS):
        stop = min(start + FEATURE_CHUNK_ROWS, n)
        chunk = rng.normal(size=(stop - start, d))
        chunk *= 0.15
        chunk += np.where(labels[start:stop] == 1, 0.75, 0.25)[:, None]
        np.clip(chunk, 0.0, 1.0, out=chunk)
        out[slice(start, stop) if rows is None else rows[start:stop]] = chunk


def generate_synthetic(
    n: int, d: int, group_imbalance: float, seed: int
) -> Dataset:
    """Binary class-conditional Gaussian features with a sensitive attribute.

    Features for class 0/1 are drawn N(0.5 -/+ 0.25, 0.15^2) per coordinate
    and clipped to [0, 1]. The sensitive bit is a fair coin; labels depend on
    it through P(y=1 | s) = 0.5 +/- group_imbalance / 2, which makes the
    demographic-parity gap of a good classifier roughly ``group_imbalance``.
    """
    labels, sensitive, rng = synthetic_labels(n, d, group_imbalance, seed)
    features = np.empty((n, d))
    _draw_features(rng, labels, features)
    return Dataset(features, labels, sensitive, class_count=SYNTHETIC_CLASSES)


def normalize_minmax(column: np.ndarray) -> np.ndarray:
    """Min-max rescale to [0, 1]; constant columns collapse to 0."""
    lo, hi = column.min(), column.max()
    if hi == lo:
        return np.zeros_like(column)
    return (column - lo) / (hi - lo)


def read_csv(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header of the CSV file ``path`` and each later row with its line
    (its last physical line). A file that cannot be read, decoded or parsed,
    that holds no row below its header, or that holds a row whose cells do
    not match the header's is a ``DataError``, naming a row as ``file:line``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:  # such as a field past csv's size limit
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    (_, header), *body = rows
    if not body:
        raise DataError(f"{path}: no rows below the header")
    for line, row in body:
        if len(row) != len(header):
            raise DataError(f"{path}:{line}: {len(row)} cells, expected {len(header)}")
    return header, body


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Load a header-first CSV into a normalized Dataset; an empty cell or a
    non-finite number is a ``DataError`` naming its ``file:line``."""
    header, rows = read_csv(path)
    col_index = {name: j for j, name in enumerate(header)}
    for role, name in (("label", schema.label), ("sensitive", schema.sensitive)):
        if name not in col_index:
            raise SchemaError(f"{path}: declared {role} column {name!r} not in header")
    feature_names = [c for c in header if c not in (schema.label, schema.sensitive)]
    if not feature_names:
        raise SchemaError(f"{path}: schema declares no feature columns")

    def cell(row_i: int, name: str) -> str:
        line, row = rows[row_i]
        value = row[col_index[name]].strip()
        if value == "":
            raise DataError(f"{path}:{line}: empty cell in column {name!r}")
        return value

    n = len(rows)
    blocks: list[np.ndarray] = []
    for name in feature_names:
        raw = [cell(i, name) for i in range(n)]
        try:
            numeric = np.array([float(v) for v in raw], dtype=np.float64)
        except ValueError:
            levels = sorted(set(raw))
            onehot = np.zeros((n, len(levels)))
            index = {lv: j for j, lv in enumerate(levels)}
            for i, v in enumerate(raw):
                onehot[i, index[v]] = 1.0
            blocks.append(onehot)
            continue
        if not np.all(np.isfinite(numeric)):
            line = rows[int(np.flatnonzero(~np.isfinite(numeric))[0])][0]
            raise DataError(f"{path}:{line}: non-finite value in column {name!r}")
        blocks.append(normalize_minmax(numeric)[:, None])
    features = np.hstack(blocks)

    raw_labels = [cell(i, schema.label) for i in range(n)]
    classes = sorted(set(raw_labels))
    class_index = {c: j for j, c in enumerate(classes)}
    labels = np.array([class_index[v] for v in raw_labels], dtype=np.int64)
    sensitive = np.array(
        [cell(i, schema.sensitive) == schema.positive_sensitive_value for i in range(n)]
    )
    return Dataset(features, labels, sensitive, class_count=len(classes))


def save_dataset_csv(ds: Dataset, path) -> None:
    """Canonical cache format: columns f0..f{d-1}, s, y."""

    def rows():
        for i in range(len(ds)):
            row = [repr(float(v)) for v in ds.features[i]]
            row.append("1" if ds.sensitive[i] else "0")
            row.append(str(int(ds.labels[i])))
            yield row

    write_csv(path, [f"f{j}" for j in range(ds.feature_dim)] + ["s", "y"], rows())


def split_rows(
    labels: np.ndarray, class_count: int, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The train and test rows of a deterministic label-stratified split."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must lie in (0, 1)")
    rng = rng_from(seed, "split")
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for c in range(class_count):
        idx = np.flatnonzero(labels == c)
        idx = rng.permutation(idx)
        n_test = int(np.floor(len(idx) * test_fraction + 0.5))
        test_idx.append(idx[:n_test])
        train_idx.append(idx[n_test:])
    train = np.concatenate(train_idx)
    test = np.concatenate(test_idx)
    if len(train) == 0 or len(test) == 0:
        raise ConfigError(
            f"degenerate split: {len(train)} train / {len(test)} test samples"
        )
    return train, test


def client_rows(labels: np.ndarray, class_count: int, spec: PartitionSpec) -> list[np.ndarray]:
    """Each client's rows of a training set with these labels, IID or
    Dirichlet non-IID.

    The rows are split disjointly and every client receives at least one
    (Dirichlet draws that leave a client empty are repaired by moving single
    samples from the largest client).
    """
    k = spec.client_count
    if len(labels) < k * class_count:
        raise ConfigError(
            f"need at least K*C = {k * class_count} samples, have {len(labels)}"
        )
    rng = rng_from(spec.seed, "partition")
    if spec.mode is PartitionMode.IID:
        order = rng.permutation(len(labels))
        base, extra = divmod(len(labels), k)
        return np.split(order, np.cumsum([base + (c < extra) for c in range(k - 1)]))
    pieces: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in range(class_count):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        props = rng.dirichlet(np.full(k, spec.dirichlet_alpha))
        counts = rng.multinomial(len(idx), props)
        for c, rows in enumerate(np.split(idx, np.cumsum(counts[:-1]))):
            pieces[c].append(rows)
    assignments = [np.concatenate(p) for p in pieces]
    sizes = np.array([len(a) for a in assignments])
    while (sizes == 0).any():
        empty = int(np.flatnonzero(sizes == 0)[0])
        donor = int(np.argmax(sizes))
        assignments[empty] = np.append(assignments[empty], assignments[donor][-1])
        assignments[donor] = assignments[donor][:-1]
        sizes[empty] += 1
        sizes[donor] -= 1
    return assignments


def _row_views(pool: Dataset, sizes: Sequence[int]) -> list[Dataset]:
    """Consecutive row views of the checked, read-only ``pool``, ``sizes[i]``
    rows each. A view of checked rows needs no second check, so each view
    is set on a bare ``Dataset`` rather than through ``__post_init__``."""
    bounds = np.cumsum([0, *sizes]).tolist()
    views = []
    for a, b in zip(bounds, bounds[1:]):
        view = object.__new__(Dataset)
        for name in ("features", "labels", "sensitive"):
            object.__setattr__(view, name, getattr(pool, name)[a:b])
        object.__setattr__(view, "class_count", pool.class_count)
        views.append(view)
    return views


def gather(data: Dataset, groups: Sequence[np.ndarray]) -> list[Dataset]:
    """The rows of ``data`` that each group of row indices names, as
    consecutive read-only row views of one array that holds the gathered
    rows once, in group order."""
    return _row_views(data.subset(np.concatenate(groups)), [len(g) for g in groups])


def train_test_split(
    data: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Deterministic label-stratified split into (train, test)."""
    train, test = split_rows(data.labels, data.class_count, test_fraction, seed)
    return data.subset(train), data.subset(test)


def partition(train: Dataset, spec: PartitionSpec) -> list[Dataset]:
    """Split a training set across clients, IID or Dirichlet non-IID.

    The parts are disjoint, their union is the training set, and every client
    receives at least one sample (see :func:`client_rows`). The parts are
    consecutive read-only row views of one array that holds the training
    rows once, in client order.
    """
    return gather(train, client_rows(train.labels, train.class_count, spec))


def fold_dataset(cfg: ExperimentConfig, fold_seed: int) -> Dataset:
    """The synthetic draw of the fold seeded ``fold_seed``, in its own
    order; :func:`fold_split` draws the same rows straight into its layout."""
    return generate_synthetic(
        cfg.synthetic_n, cfg.synthetic_d, cfg.group_imbalance, derive_seed(fold_seed, "data")
    )


def fold_split(
    cfg: ExperimentConfig, fold_seed: int, source: Dataset | None
) -> tuple[list[Dataset], Dataset]:
    """The client parts and test set of the fold seeded ``fold_seed``:
    consecutive read-only row views of one array that holds the fold's rows
    once, laid out as client 0 ... client K-1, then test.

    The layout is computed from the labels alone: the split's rows, then
    each client's rows among the train rows. A CSV ``source`` is gathered
    once by that layout. Without one, the fold draws its labels first and
    then each row's features straight into their place, so it never holds
    its draw in its own order or a train split: building a 40,000-row
    fold's data peaks at about 1.4 times the generated bytes.
    """
    if source is None:
        labels, sensitive, rng = synthetic_labels(
            cfg.synthetic_n, cfg.synthetic_d, cfg.group_imbalance, derive_seed(fold_seed, "data")
        )
        class_count = SYNTHETIC_CLASSES
    else:
        labels, class_count = source.labels, source.class_count
    train_rows, test_rows = split_rows(
        labels, class_count, cfg.test_fraction, derive_seed(fold_seed, "split")
    )
    spec = PartitionSpec(
        cfg.partition_mode,
        cfg.clients,
        cfg.dirichlet_alpha,
        seed=derive_seed(fold_seed, "partition"),
    )
    groups = [train_rows[rows] for rows in client_rows(labels[train_rows], class_count, spec)]
    groups.append(test_rows)
    del train_rows, test_rows
    if source is None:
        # row i of the draw goes to rows[i] of the layout
        order = np.concatenate(groups)
        rows = np.empty_like(order)
        rows[order] = np.arange(len(order))
        placed_labels, placed_sensitive = labels[order], sensitive[order]
        del order
        features = np.empty((len(rows), cfg.synthetic_d))
        _draw_features(rng, labels, features, rows)
        del rows
        pool = Dataset(features, placed_labels, placed_sensitive, class_count)
        *parts, test = _row_views(pool, [len(g) for g in groups])
    else:
        *parts, test = gather(source, groups)
    return parts, test
