import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrust.data import Dataset, PartitionMode, PartitionSpec, generate_synthetic, partition, train_test_split
from fedtrust.errors import ConfigError, NumericError
from fedtrust.federation import (
    ClientUpdate,
    RunWriter,
    TrainingConfig,
    fedavg,
    local_train,
    run_round,
    run_training,
)
from fedtrust.metrics import perf
from fedtrust.nn import (
    Architecture,
    ModelParams,
    OutputActivation,
    init_params,
    predict_batch,
)
from fedtrust.seeding import derive_seed
from helpers import cross_entropy, loads_params


def batch_loss(params, x, y):
    """Mean cross-entropy of a model on the batch (x, y)."""
    return cross_entropy(params, x, y)


def make_update(client_id, values, count=10, arch=None):
    arch = arch or Architecture((2, 2))
    return ClientUpdate(client_id, ModelParams(arch, values), count)


def small_setup(n=200, k=3, seed=0):
    data = generate_synthetic(n, 3, 0.1, seed=seed)
    parts = partition(data, PartitionSpec(PartitionMode.IID, k, seed=seed))
    arch = Architecture((3, 4, 2))
    return init_params(arch, seed), parts


class TestFedavg:
    def test_singleton_returns_params_exactly(self):
        base = init_params(Architecture((2, 2)), 0)
        update = make_update(0, np.arange(6, dtype=float), count=7)
        assert np.array_equal(fedavg(base, [update]).values, update.params.values)

    def test_equal_counts_mean(self):
        base = init_params(Architecture((2, 2)), 0)
        v = np.arange(6, dtype=float)
        w = np.ones(6)
        out = fedavg(base, [make_update(0, v, 5), make_update(1, w, 5)])
        assert np.array_equal(out.values, (v + w) / 2)

    def test_empty_returns_base(self):
        base = init_params(Architecture((2, 2)), 1)
        assert fedavg(base, []) is base

    def test_sample_count_weighting(self):
        base = init_params(Architecture((2, 2)), 0)
        out = fedavg(
            base,
            [make_update(0, np.zeros(6), 1), make_update(1, np.ones(6), 3)],
        )
        assert np.allclose(out.values, 0.75)

    def test_architecture_mismatch(self):
        base = init_params(Architecture((2, 2)), 0)
        other = make_update(0, np.zeros(9), arch=Architecture((2, 3)))
        with pytest.raises(ConfigError):
            fedavg(base, [other])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5))
    def test_convexity(self, seed, k):
        rng = np.random.default_rng(seed)
        arch = Architecture((2, 2))
        base = init_params(arch, 0)
        updates = [
            make_update(i, rng.normal(size=6), count=int(rng.integers(1, 20)))
            for i in range(k)
        ]
        out = fedavg(base, updates)
        stacked = np.stack([u.params.values for u in updates])
        assert np.all(out.values >= stacked.min(axis=0) - 1e-12)
        assert np.all(out.values <= stacked.max(axis=0) + 1e-12)


class TestLocalTrain:
    def test_zero_epochs_is_identity(self):
        init, parts = small_setup()
        cfg = TrainingConfig(rounds=2, local_epochs=0, seed=1)
        update = local_train(init, [(0, parts[0])], cfg, 1)[0]
        assert np.array_equal(update.params.values, init.values)
        assert update.sample_count == len(parts[0])

    def test_descent_on_separable_toy(self):
        rng = np.random.default_rng(5)
        x = np.vstack([rng.random((40, 2)) * 0.3, rng.random((40, 2)) * 0.3 + 0.7])
        y = np.array([0] * 40 + [1] * 40)
        toy = Dataset(x, y, np.zeros(80, bool), 2)
        init = init_params(Architecture((2, 4, 2)), 3)
        cfg = TrainingConfig(rounds=2, local_epochs=2, learning_rate=1e-3, seed=2)
        before = batch_loss(init, x, y)
        update = local_train(init, [(0, toy)], cfg, 1)[0]
        after = batch_loss(update.params, x, y)
        assert after <= before

    def test_numeric_failure_names_round_and_client(self):
        # huge hidden activations + extreme lr overflow the first sgd update
        arch = Architecture((2, 1, 1), OutputActivation.SIGMOID)
        start = ModelParams(arch, np.array([1e160, 2e160, 0.0, 0.0, 0.0]))
        client = Dataset(
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1, 0]), np.zeros(2, bool), 2
        )
        cfg = TrainingConfig(
            rounds=2, local_epochs=1, batch_size=2, learning_rate=1e150, optimizer="sgd", seed=1
        )
        with pytest.raises(NumericError, match=r"round 4.*client 2"):
            local_train(start, [(2, client)], cfg, 4)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("hidden, out, activation", [((16,), 1, "sigmoid"), ((4, 4), 2, "softmax")])
    def test_divergence_raises_without_numpy_warnings(self, optimizer, hidden, out, activation):
        data = generate_synthetic(60, 3, 0.1, seed=0)
        init = init_params(Architecture((3, *hidden, out), OutputActivation(activation)), 0)
        cfg = TrainingConfig(learning_rate=1e300, optimizer=optimizer, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"round 3, client 1"):
                local_train(init, [(1, data)], cfg, 3)


    def test_divergence_names_the_lowest_client_as_one_at_a_time(self):
        # Client 2 goes non-finite at its first step and client 1 at its
        # fifth; trained one client after another, client 1 raises first.
        arch = Architecture((2, 1, 1), OutputActivation.SIGMOID)
        start = ModelParams(arch, np.array([1e160, 2e160, 0.0, 0.0, 0.0]))
        cfg = TrainingConfig(
            rounds=2, local_epochs=1, batch_size=2, learning_rate=1e150, optimizer="sgd", seed=1
        )
        # a batch of zero rows labelled 0 and 1 has a zero gradient; the
        # rows of test_numeric_failure_names_round_and_client overflow
        safe = [([0.0, 0.0], 0), ([0.0, 0.0], 1)]
        overflowing = [([1.0, 0.0], 1), ([0.0, 1.0], 0)]
        order = np.random.default_rng(derive_seed(cfg.seed, "local", 4, 1)).permutation(10)
        rows = [None] * 10
        for position, row in zip(order, safe * 4 + overflowing):
            rows[position] = row

        def client(rows):
            x, y = zip(*rows)
            return Dataset(np.array(x), np.array(y), np.zeros(len(y), bool), 2)

        parts = [client(safe), client(rows), client(overflowing)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as err:
                run_round(start, parts, cfg, 4)
        assert str(err.value).endswith(
            "training diverged in round 4, client 1: non-finite parameters after step 5"
        )

        # clients 1 and 2 both go non-finite at step 1; the larger client 2
        # trains in the row before client 1's
        parts = [client(safe), client(overflowing), client(overflowing * 2)]
        with pytest.raises(NumericError) as err:
            run_round(start, parts, cfg, 4)
        assert str(err.value).endswith(
            "training diverged in round 4, client 1: non-finite parameters after step 1"
        )


class TestRounds:
    def test_round_covers_every_client(self):
        init, parts = small_setup(k=4)
        cfg = TrainingConfig(rounds=2, seed=3)
        record = run_round(init, parts, cfg, 1)
        assert record.client_ids == (0, 1, 2, 3)

    def test_global_after_is_fedavg_of_updates(self):
        init, parts = small_setup()
        cfg = TrainingConfig(rounds=2, seed=4)
        record = run_round(init, parts, cfg, 1)
        again = fedavg(record.global_before, list(record.updates))
        assert np.array_equal(record.global_after.values, again.values)

    def test_rerun_identical(self):
        init, parts = small_setup()
        cfg = TrainingConfig(rounds=2, seed=5)
        a = run_round(init, parts, cfg, 1)
        b = run_round(init, parts, cfg, 1)
        assert np.array_equal(a.global_after.values, b.global_after.values)

    def test_training_chains_and_counts(self):
        init, parts = small_setup()
        cfg = TrainingConfig(rounds=4, seed=6)
        records = run_training(init, parts, cfg)
        assert [r.round for r in records] == [1, 2, 3, 4]
        for prev, cur in zip(records, records[1:]):
            assert np.array_equal(prev.global_after.values, cur.global_before.values)

    def test_ten_rounds_give_ten_records(self):
        init, parts = small_setup(n=120, k=2)
        records = run_training(init, parts, TrainingConfig(rounds=10, seed=8))
        assert [r.round for r in records] == list(range(1, 11))

    def test_training_improves_test_accuracy_on_average(self):
        wins = []
        for seed in range(5):
            data = generate_synthetic(600, 3, 0.0, seed=seed)
            train, test = train_test_split(data, 0.25, seed=seed)
            parts = partition(train, PartitionSpec(PartitionMode.IID, 3, seed=seed))
            init = init_params(Architecture((3, 8, 2)), seed)
            cfg = TrainingConfig(rounds=5, local_epochs=1, seed=seed)
            records = run_training(init, parts, cfg)
            final = predict_batch(records[-1].global_after, test.features)
            wins.append(perf(final, test) - perf(predict_batch(init, test.features), test))
        assert np.mean(wins) > 0

    def test_checkpoint_layout(self, tmp_path):
        init, parts = small_setup(k=3)
        cfg = TrainingConfig(rounds=2, seed=7)
        writer = RunWriter(tmp_path / "run")
        records = run_training(init, parts, cfg, writer=writer)
        for t in (1, 2):
            round_dir = tmp_path / "run" / f"round_{t}"
            assert (round_dir / "global_before.txt").exists()
            assert (round_dir / "global_after.txt").exists()
            for k in range(3):
                assert (round_dir / f"client_{k}.txt").exists()
            meta = json.loads((round_dir / "meta.json").read_text())
            assert meta["round"] == t
            assert meta["weighting"] == "sample_count"
            assert set(meta["sample_counts"]) == {"0", "1", "2"}
        round_dir = tmp_path / "run" / "round_2"
        back = loads_params((round_dir / "global_after.txt").read_text())
        assert np.array_equal(back.values, records[1].global_after.values)
        for k, update in enumerate(records[1].updates):
            client = loads_params((round_dir / f"client_{k}.txt").read_text())
            assert np.array_equal(client.values, update.params.values)
        meta = json.loads((round_dir / "meta.json").read_text())
        assert [meta["sample_counts"][str(k)] for k in range(3)] == [len(p) for p in parts]
