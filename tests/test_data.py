import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrust.data import (
    FEATURE_CHUNK_ROWS,
    CsvSchema,
    Dataset,
    PartitionMode,
    PartitionSpec,
    gather,
    generate_synthetic,
    load_csv,
    normalize_minmax,
    partition,
    save_dataset_csv,
    train_test_split,
)
from fedtrust.errors import ConfigError, DataError, OutputError, SchemaError
from fedtrust.seeding import rng_from


def empirical_group_gap(ds):
    y1 = ds.labels == 1
    return abs(y1[ds.sensitive].mean() - y1[~ds.sensitive].mean())


class TestSynthetic:
    def test_zero_imbalance_gives_independent_labels(self):
        ds = generate_synthetic(10_000, 4, 0.0, seed=3)
        assert empirical_group_gap(ds) < 0.05

    def test_imbalance_controls_label_group_gap(self):
        ds = generate_synthetic(10_000, 4, 0.3, seed=4)
        assert abs(empirical_group_gap(ds) - 0.3) < 0.1

    def test_features_in_unit_box(self):
        ds = generate_synthetic(500, 6, 0.2, seed=5)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_deterministic(self):
        a = generate_synthetic(200, 3, 0.1, seed=8)
        b = generate_synthetic(200, 3, 0.1, seed=8)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.sensitive, b.sensitive)

    @pytest.mark.parametrize("n, chunk", [(40_000, FEATURE_CHUNK_ROWS), (40_000, 4_096), (1_000, 7), (1_000, 1)])
    def test_normal_draws_in_chunks_equal_one_draw(self, n, chunk):
        # the feature draw relies on this: Generator.normal keeps no state
        # between calls
        one = rng_from(5, "synthetic").normal(size=(n, 8))
        rng = rng_from(5, "synthetic")
        chunks = [rng.normal(size=(min(chunk, n - start), 8)) for start in range(0, n, chunk)]
        assert np.concatenate(chunks).tobytes() == one.tobytes()

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigError):
            generate_synthetic(5, 4, 0.0, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic(100, 1, 0.0, seed=0)


class TestCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_minmax_normalization(self, tmp_path):
        path = self.write(tmp_path, "a,s,y\n0,yes,0\n5,no,1\n10,yes,0\n")
        ds = load_csv(path, CsvSchema("y", "s", "yes"))
        assert np.array_equal(ds.features[:, 0], [0.0, 0.5, 1.0])
        assert list(ds.sensitive) == [True, False, True]

    def test_missing_label_column(self, tmp_path):
        path = self.write(tmp_path, "a,s\n1,yes\n2,no\n")
        with pytest.raises(SchemaError):
            load_csv(path, CsvSchema("y", "s", "yes"))

    def test_one_hot_grows_dimension(self, tmp_path):
        path = self.write(tmp_path, "a,c,s,y\n1,red,x,0\n2,green,x,1\n3,blue,o,0\n")
        ds = load_csv(path, CsvSchema("y", "s", "x"))
        # numeric a plus 3 one-hot levels of c
        assert ds.feature_dim == 4

    def test_empty_cell_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "a,s,y\n1,yes,0\n,no,1\n")
        with pytest.raises(DataError, match=r"data\.csv:3: empty cell in column 'a'"):
            load_csv(path, CsvSchema("y", "s", "yes"))

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "a,s,y\n1,yes\n")
        with pytest.raises(DataError, match=r"data\.csv:2: 2 cells, expected 3"):
            load_csv(path, CsvSchema("y", "s", "yes"))

    def test_repeated_feature_column_rejected(self, tmp_path):
        # read by name, the second 'a' would load twice and the first never
        path = self.write(tmp_path, "a,a,y,s\n0.1,0.9,0,1\n0.2,0.8,1,0\n0.3,0.7,0,1\n")
        with pytest.raises(SchemaError, match=r"data\.csv: header names column 'a' more than once"):
            load_csv(path, CsvSchema("y", "s", "1"))

    def test_repeated_label_column_rejected(self, tmp_path):
        # read by name, the labels would come from the last 'y'
        path = self.write(tmp_path, "a,y,y,s\n0.1,0,1,1\n0.2,1,0,0\n0.3,0,1,1\n")
        with pytest.raises(SchemaError, match=r"data\.csv: header names column 'y' more than once"):
            load_csv(path, CsvSchema("y", "s", "1"))

    def test_label_column_that_is_also_sensitive_rejected(self):
        # the sensitive flag would be label == "1", so fair would score the label
        with pytest.raises(ConfigError, match="both name 'y'"):
            CsvSchema("y", "y", "1")

    def test_string_labels_map_to_sorted_indices(self, tmp_path):
        path = self.write(tmp_path, "a,s,y\n1,yes,>50K\n2,no,<=50K\n3,no,>50K\n")
        ds = load_csv(path, CsvSchema("y", "s", "yes"))
        assert list(ds.labels) == [1, 0, 1]  # sorted: <=50K -> 0, >50K -> 1

    def test_canonical_cache_round_trip(self, tmp_path):
        ds = generate_synthetic(50, 3, 0.2, seed=1)
        path = tmp_path / "cache.csv"
        save_dataset_csv(ds, path)
        back = load_csv(path, CsvSchema("y", "s", "1"))
        # synthetic features need not span [0,1] exactly, so reloading
        # re-stretches each column; structure must survive regardless
        assert back.feature_dim == ds.feature_dim
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.sensitive, ds.sensitive)

    def test_failed_cache_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.csv"
        path.write_text("old\n")
        real_writer = csv.writer

        class FailingWriter:
            """Writes the header and two rows, then fails."""

            def __init__(self, fh):
                self.writer, self.rows = real_writer(fh), 0

            def writerow(self, row):
                if self.rows == 3:
                    raise OSError("disk full")
                self.rows += 1
                self.writer.writerow(row)

        monkeypatch.setattr(csv, "writer", FailingWriter)
        with pytest.raises(OutputError, match=f"cannot write {path}: disk full"):
            save_dataset_csv(generate_synthetic(50, 3, 0.2, seed=1), path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cache.csv"]

    def test_normalization_idempotent(self):
        rng = np.random.default_rng(0)
        col = rng.random(40) * 5 - 1
        once = normalize_minmax(col)
        assert np.array_equal(normalize_minmax(once), once)


class TestSplit:
    def test_stratified_counts(self):
        features = np.random.default_rng(0).random((100, 2))
        labels = np.array([0] * 50 + [1] * 50)
        ds = Dataset(features, labels, np.zeros(100, dtype=bool), 2)
        train, test = train_test_split(ds, 0.2, seed=1)
        assert len(test) == 20 and len(train) == 80
        assert (test.labels == 0).sum() == 10 and (test.labels == 1).sum() == 10

    def test_union_is_original_multiset(self):
        ds = generate_synthetic(101, 3, 0.1, seed=2)
        train, test = train_test_split(ds, 0.3, seed=3)
        merged = np.vstack([train.features, test.features])
        assert merged.shape == ds.features.shape
        order_a = np.lexsort(merged.T)
        order_b = np.lexsort(ds.features.T)
        assert np.array_equal(merged[order_a], ds.features[order_b])

    def test_deterministic(self):
        ds = generate_synthetic(60, 3, 0.0, seed=4)
        a = train_test_split(ds, 0.25, seed=9)
        b = train_test_split(ds, 0.25, seed=9)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_degenerate_fraction_rejected(self):
        ds = generate_synthetic(20, 2, 0.0, seed=0)
        with pytest.raises(ConfigError):
            train_test_split(ds, 0.0, seed=0)
        with pytest.raises(ConfigError):
            train_test_split(ds, 1.0, seed=0)


def sizes(parts):
    return [len(p) for p in parts]


class TestPartition:
    def test_iid_equal_sizes(self):
        ds = generate_synthetic(100, 2, 0.0, seed=1)
        parts = partition(ds, PartitionSpec(PartitionMode.IID, 4, seed=0))
        assert sizes(parts) == [25, 25, 25, 25]

    def test_iid_remainder_to_low_ids(self):
        ds = generate_synthetic(102, 2, 0.0, seed=1)
        parts = partition(ds, PartitionSpec(PartitionMode.IID, 4, seed=0))
        assert sizes(parts) == [26, 26, 25, 25]

    @pytest.mark.parametrize("mode", [PartitionMode.IID, PartitionMode.DIRICHLET])
    def test_parts_are_a_permutation_of_train(self, mode):
        ds = generate_synthetic(150, 3, 0.2, seed=6)
        parts = partition(ds, PartitionSpec(mode, 5, dirichlet_alpha=0.5, seed=7))
        merged = np.vstack([p.features for p in parts])
        assert merged.shape == ds.features.shape
        assert np.array_equal(
            merged[np.lexsort(merged.T)], ds.features[np.lexsort(ds.features.T)]
        )

    def test_dirichlet_high_alpha_approaches_uniform(self):
        ds = generate_synthetic(8000, 2, 0.0, seed=2)
        parts = partition(ds, PartitionSpec(PartitionMode.DIRICHLET, 4, 1000.0, seed=3))
        global_share = (ds.labels == 1).mean()
        for p in parts:
            assert abs((p.labels == 1).mean() - global_share) < 0.05

    def test_dirichlet_skew_monotone_in_alpha(self):
        ds = generate_synthetic(2000, 2, 0.0, seed=5)

        def mean_max_share(alpha):
            shares = []
            for seed in range(20):
                parts = partition(
                    ds, PartitionSpec(PartitionMode.DIRICHLET, 4, alpha, seed=seed)
                )
                for p in parts:
                    counts = np.bincount(p.labels, minlength=2)
                    shares.append(counts.max() / counts.sum())
            return np.mean(shares)

        assert mean_max_share(0.1) > mean_max_share(10.0)

    def test_every_client_nonempty_after_repair(self):
        # tiny per-class counts + small alpha force empty draws
        ds = generate_synthetic(24, 2, 0.0, seed=11)
        for seed in range(30):
            parts = partition(
                ds, PartitionSpec(PartitionMode.DIRICHLET, 6, 0.05, seed=seed)
            )
            assert min(sizes(parts)) >= 1
            assert sum(sizes(parts)) == 24

    def test_too_few_samples_rejected(self):
        ds = generate_synthetic(10, 2, 0.0, seed=0)
        with pytest.raises(ConfigError):
            partition(ds, PartitionSpec(PartitionMode.IID, 8, seed=0))

    def test_gather_checks_its_pool_once(self, monkeypatch):
        ds = generate_synthetic(120, 2, 0.0, seed=13)
        groups = [np.arange(0, 40), np.arange(60, 120), np.arange(40, 60)]
        checks = []

        def counting_isfinite(x, *args, **kwargs):
            checks.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        parts = gather(ds, groups)
        # the gathered pool is checked; its row views are not checked again
        assert checks == [(120, 2)]
        base = parts[0].features.base
        for part, rows in zip(parts, groups):
            assert part.features.base is base and not part.features.flags.writeable
            assert not part.labels.flags.writeable and not part.sensitive.flags.writeable
            assert np.array_equal(part.features, ds.features[rows])
            assert np.array_equal(part.labels, ds.labels[rows])
            assert part.class_count == ds.class_count
        # a Dataset a caller builds from those rows is still checked
        features = parts[0].features.copy()
        features[0, 0] = np.nan
        with pytest.raises(DataError):
            Dataset(features, parts[0].labels, parts[0].sensitive, 2)

    def test_deterministic(self):
        ds = generate_synthetic(120, 2, 0.0, seed=13)
        spec = PartitionSpec(PartitionMode.DIRICHLET, 4, 0.5, seed=21)
        a = partition(ds, spec)
        b = partition(ds, spec)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.features, pb.features)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 6),
    mode=st.sampled_from([PartitionMode.IID, PartitionMode.DIRICHLET]),
)
def test_partition_exactness_property(seed, k, mode):
    ds = generate_synthetic(80, 2, 0.1, seed=17)
    parts = partition(ds, PartitionSpec(mode, k, 0.5, seed=seed))
    assert sum(len(p) for p in parts) == len(ds)
    assert all(len(p) >= 1 for p in parts)
