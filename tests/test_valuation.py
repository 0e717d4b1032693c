import dataclasses
import gc
import logging
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations as all_combinations
from itertools import permutations as all_perms

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrust import config, valuation
from fedtrust.attacks import AttackSpec
from fedtrust.data import generate_synthetic, partition, PartitionMode, PartitionSpec, train_test_split
from fedtrust.errors import ConfigError, InputError
from fedtrust.federation import ClientUpdate, RoundRecord, TrainingConfig, fedavg, run_training
from fedtrust.metrics import EvalContext, FairnessSpec, Metric, NoiseSpec, adversarial_predictions, evaluate
from fedtrust.nn import Architecture, ModelParams, OutputActivation, init_params, predict_batch
from fedtrust.seeding import rng_streams
from fedtrust.valuation import (
    CoalitionCache,
    Scheme,
    ScoreTable,
    ValuationConfig,
    accumulate,
    coalition_utility,
    exact_shapley_round,
    exact_shapley_values,
    gtg_permutations,
    gtg_shapley_round,
    gtg_shapley_values,
    loo_round,
    loo_values,
    permutation_budget,
    read_scores_csv,
    score_rounds,
    score_vectors,
    write_scores_csv,
    write_totals_csv,
)

# --- scheme cores on hand-computed utility games ---

TWO_CLIENT_GAME = {(): 0.0, (1,): 0.3, (2,): 0.1, (1, 2): 0.5}


def game(table):
    return lambda ids: table[tuple(sorted(ids))]


def additive_game(costs):
    return lambda ids: sum(costs[c] for c in ids)


def on_masks(clients, u):
    """The game ``u`` over client-id tuples, asked for lists of bitmasks
    over the sorted ``clients`` as the scheme cores ask."""
    ids = sorted(clients)
    return lambda masks: [u(tuple(c for i, c in enumerate(ids) if mask >> i & 1)) for mask in masks]


class TestExactCore:
    def test_two_client_hand_oracle(self):
        # enumerating both orderings by hand gives (0.35, 0.15)
        sv = exact_shapley_values((1, 2), on_masks((1, 2), game(TWO_CLIENT_GAME)))
        assert sv[1] == pytest.approx(0.35, abs=1e-15)
        assert sv[2] == pytest.approx(0.15, abs=1e-15)

    def test_additive_game_recovers_costs(self):
        costs = {0: 0.4, 1: -0.1, 2: 0.25, 3: 0.0}
        sv = exact_shapley_values(range(4), on_masks(range(4), additive_game(costs)))
        for c, value in costs.items():
            assert sv[c] == pytest.approx(value, abs=1e-12)

    def test_efficiency(self):
        rng = np.random.default_rng(0)
        table = {
            tuple(sorted(s)): float(rng.random())
            for r in range(5)
            for s in all_perms(range(4), r)
        }
        sv = exact_shapley_values(range(4), on_masks(range(4), game(table)))
        assert sum(sv.values()) == pytest.approx(
            table[(0, 1, 2, 3)] - table[()], abs=1e-12
        )

    def test_symmetry_of_interchangeable_clients(self):
        # utility depends only on coalition size: all clients symmetric
        u = lambda ids: float(len(ids)) ** 0.5
        sv = exact_shapley_values(range(4), on_masks(range(4), u))
        assert max(sv.values()) - min(sv.values()) < 1e-12

    def test_dummy_client(self):
        # client 9 never changes the utility
        base = {(): 0.1, (1,): 0.6, (2,): 0.2, (1, 2): 0.9}

        def u(ids):
            return base[tuple(sorted(set(ids) - {9}))]

        sv = exact_shapley_values((1, 2, 9), on_masks((1, 2, 9), u))
        assert abs(sv[9]) < 1e-12


def test_all_schemes_rank_additive_game_identically():
    # value agreement is not expected across schemes, rank agreement is
    costs = {0: 0.4, 1: -0.1, 2: 0.25, 3: 0.05}
    u = additive_game(costs)
    sv = exact_shapley_values(range(4), on_masks(range(4), u))
    gtg = gtg_shapley_values(range(4), on_masks(range(4), u), 2, ValuationConfig(eps1=0.0, eps2=1.0, eps3=0.0))
    loo = loo_values(range(4), on_masks(range(4), u))
    rank = lambda scores: sorted(scores, key=scores.get)
    assert rank(sv) == rank(gtg) == rank(loo) == [1, 3, 2, 0]


class TestLooCore:
    def test_two_client_hand_oracle(self):
        loo = loo_values((1, 2), on_masks((1, 2), game(TWO_CLIENT_GAME)))
        assert loo[1] == pytest.approx(0.4, abs=1e-15)
        assert loo[2] == pytest.approx(0.2, abs=1e-15)

    def test_no_efficiency_on_toy(self):
        loo = loo_values((1, 2), on_masks((1, 2), game(TWO_CLIENT_GAME)))
        assert sum(loo.values()) == pytest.approx(0.6, abs=1e-15)
        assert sum(loo.values()) != pytest.approx(0.5, abs=1e-12)

    def test_additive_game(self):
        costs = {0: 0.4, 1: -0.1, 2: 0.25}
        loo = loo_values(range(3), on_masks(range(3), additive_game(costs)))
        for c, value in costs.items():
            assert loo[c] == pytest.approx(value, abs=1e-12)


class TestGtgCore:
    def test_budget_formula(self):
        assert permutation_budget(4, 0.05) == 4  # max(4, ceil(1.2)) = 4
        assert permutation_budget(4, 1.0) == 24
        assert permutation_budget(5, 0.01) == 5  # floor raised to K
        assert permutation_budget(20, 1e-18) == 20  # exact big-int arithmetic

    @settings(max_examples=300, deadline=None)
    @given(
        eps2=st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
            st.sampled_from([1.0, 5e-324, 1e-18, 0.05, 0.1, 1 / 3]),
        ),
        k=st.integers(min_value=2, max_value=20),
    )
    def test_budget_matches_fraction_arithmetic(self, eps2, k):
        want = max(k, math.ceil(Fraction(eps2) * math.factorial(k)))
        if want * k > config._GTG_CELL_LIMIT:
            with pytest.raises(ConfigError, match=f"= {want} permutations"):
                permutation_budget(k, eps2)
        else:
            assert permutation_budget(k, eps2) == want

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ConfigError, match="eps2"):
            permutation_budget(20, 0.05)

    def test_balanced_leads_at_minimum_budget(self):
        perms = gtg_permutations(range(4), round_idx=2, vcfg=ValuationConfig())
        assert [p[0] for p in perms] == [0, 1, 2, 3]
        for p in perms:
            assert sorted(p) == [0, 1, 2, 3]

    def test_full_budget_enumerates_every_permutation(self):
        vcfg = ValuationConfig(eps2=1.0)
        perms = gtg_permutations(range(4), round_idx=3, vcfg=vcfg)
        assert sorted(map(tuple, perms.tolist())) == sorted(all_perms(range(4)))

    def test_equals_exact_when_not_truncated(self):
        rng = np.random.default_rng(7)
        table = {
            tuple(sorted(s)): float(rng.random())
            for r in range(5)
            for s in all_perms(range(4), r)
        }
        vcfg = ValuationConfig(eps1=0.0, eps2=1.0, eps3=0.0)
        gtg = gtg_shapley_values(range(4), on_masks(range(4), game(table)), 2, vcfg)
        sv = exact_shapley_values(range(4), on_masks(range(4), game(table)))
        for c in range(4):
            assert gtg[c] == pytest.approx(sv[c], abs=1e-12)

    def test_round_skip_zeroes_everything(self):
        vcfg = ValuationConfig(eps1=1.5, eps2=1.0, eps3=0.0)  # eps1 > any gap
        gtg = gtg_shapley_values((1, 2), on_masks((1, 2), game(TWO_CLIENT_GAME)), 2, vcfg)
        assert gtg == {1: 0.0, 2: 0.0}

    def test_prefix_truncation_saves_evaluations(self):
        # utility jumps to the full value after the first client: every
        # later prefix is within eps3 of v(full) and must not be evaluated
        calls = []

        def u(ids):
            calls.append(tuple(sorted(ids)))
            return 0.0 if not ids else 1.0

        vcfg = ValuationConfig(eps1=0.0, eps2=0.05, eps3=0.01)
        gtg = gtg_shapley_values(range(4), on_masks(range(4), u), 2, vcfg)
        evaluated = set(calls)
        assert all(len(ids) <= 1 for ids in evaluated - {(0, 1, 2, 3)})
        # each permutation credits its lead with the whole jump
        assert gtg == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}


# --- wrappers over real federation records ---


def trained_records(k=4, rounds=3, n=240, seed=0):
    data = generate_synthetic(n, 3, 0.2, seed=seed)
    train, test = train_test_split(data, 0.25, seed=seed)
    parts = partition(train, PartitionSpec(PartitionMode.IID, k, seed=seed))
    init = init_params(Architecture((3, 6, 2)), seed)
    cfg = TrainingConfig(rounds=rounds, local_epochs=1, seed=seed)
    records = run_training(init, parts, cfg)
    ctx = EvalContext(
        test, FairnessSpec(1), NoiseSpec(0.1, 5), AttackSpec(0.1, 0.02, 5)
    )
    return records, ctx


class TestCoalitionUtility:
    def test_empty_subset_is_previous_global(self):
        records, ctx = trained_records()
        record = records[1]
        from fedtrust.metrics import perf

        value = coalition_utility(record, (), Metric.PERF, CoalitionCache(ctx))
        assert value == perf(predict_batch(record.global_before, ctx.test.features), ctx.test)

    def test_full_subset_is_new_global(self):
        records, ctx = trained_records()
        record = records[1]
        from fedtrust.metrics import perf

        value = coalition_utility(record, record.client_ids, Metric.PERF, CoalitionCache(ctx))
        assert value == perf(predict_batch(record.global_after, ctx.test.features), ctx.test)

    def test_cache_hit_is_bit_identical(self):
        records, ctx = trained_records()
        cache = CoalitionCache(ctx)
        first = coalition_utility(records[0], (0, 2), Metric.REL, cache)
        again = coalition_utility(records[0], (0, 2), Metric.REL, cache)
        assert first == again
        assert cache.evaluations == 1 and cache.hits == 1

    @pytest.mark.parametrize(
        "subset",
        [[2, 0], (2, 0), (0, 2, 0), (np.int64(0), np.int64(2))],
        ids=["list", "unsorted", "repeated", "np-int64"],
    )
    def test_any_form_of_a_subset_is_its_sorted_tuple(self, subset):
        records, ctx = trained_records()
        record = records[1]
        expected = coalition_utility(record, (0, 2), Metric.REL, CoalitionCache(ctx))
        cache = CoalitionCache(ctx)
        assert coalition_utility(record, subset, Metric.REL, cache) == expected
        assert (cache.evaluations, cache.hits) == (1, 0)
        # once memoized, every request is a hit and computes nothing
        for ids in (subset, subset, (0, 2)):
            assert coalition_utility(record, ids, Metric.REL, cache) == expected
        assert (cache.evaluations, cache.hits) == (1, 3)
        # a warm memo still checks what it does not know
        for unknown in ((0, 9), [9, 2], (2, 0, 9)):
            with pytest.raises(InputError, match=r"unknown clients \[9\] in round 2"):
                coalition_utility(record, unknown, Metric.REL, cache)
        assert (cache.evaluations, cache.hits) == (1, 3)
        loo_round(record, Metric.REL, cache)
        requested = cache.requests(Scheme.LOO, Metric.REL)
        assert requested == {(0, 1, 2, 3), (1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)}
        assert all(type(ids) is tuple for ids in requested)

    def test_unknown_client_rejected(self):
        records, ctx = trained_records()
        with pytest.raises(InputError):
            coalition_utility(records[0], (0, 9), Metric.PERF, CoalitionCache(ctx))

    @staticmethod
    def wrong_client_round():
        """Client 0 predicts every test sample wrong; the rest predict all
        of them right."""
        arch = Architecture((2, 1), OutputActivation.SIGMOID)
        always_one = ModelParams(arch, np.array([0.0, 0.0, 10.0]))
        always_zero = ModelParams(arch, np.array([0.0, 0.0, -10.0]))
        test = generate_synthetic(40, 2, 0.0, seed=3)
        test = test.subset(np.flatnonzero(test.labels == 0))
        record = RoundRecord(
            1,
            always_zero,
            (
                ClientUpdate(0, always_one, 10),
                ClientUpdate(1, always_zero, 10),
            ),
            always_zero,
        )
        ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, 1), AttackSpec(0.1, 0.02, 3))
        return record, ctx, always_zero

    def test_metric_undefined_falls_back_to_empty_utility(self, caplog):
        # client 0 predicts everything wrong, so res is undefined for the
        # singleton coalition and falls back to res(global_before)
        record, ctx, always_zero = self.wrong_client_round()
        test = ctx.test
        with caplog.at_level(logging.WARNING, logger="fedtrust.valuation"):
            value = coalition_utility(record, (0,), Metric.RES, CoalitionCache(ctx))
        assert value == evaluate(always_zero, Metric.RES, ctx, predict_batch(always_zero, test.features))
        assert any("undefined" in message for message in caplog.messages)
        # the fallback's read of the empty coalition is computed, not requested
        cache = CoalitionCache(ctx)
        loo_round(record, Metric.RES, cache)
        assert cache.requested == {"loo": 3}
        assert cache.requests(Scheme.LOO, Metric.RES) == {(0, 1), (0,), (1,)}
        assert cache.evaluations == 4 and cache.undefined >= 1

    def test_fallback_in_a_res_list_attacks_the_empty_coalition_once(self, monkeypatch):
        # the list asks for client 0's undefined coalition before the empty
        # one: its fallback reads the empty coalition's utility, computed in
        # the same list and from the same attack
        record, ctx, _ = self.wrong_client_round()
        attacked = []

        def counting(models, cleans, ctx):
            attacked.append(len(models))
            return adversarial_predictions(models, cleans, ctx)

        monkeypatch.setattr(valuation, "adversarial_predictions", counting)
        cache = CoalitionCache(ctx)
        u = cache.game(record, Metric.RES, Scheme.LOO)
        singleton, empty = u([0b01, 0b00])
        assert singleton == empty
        assert attacked == [2]
        assert (cache.evaluations, cache.undefined, cache.reads, cache.hits) == (2, 1, 3, 1)
        assert cache.requested == {"loo": 2}
        assert cache.requests(Scheme.LOO, Metric.RES) == {(0,), ()}


class TestOneFoldCache:
    def test_one_cache_keeps_two_runs_of_a_round_apart(self):
        # round 2 of two training runs shares its round number; one cache
        # scores both records, each as a fresh cache scores it
        first, ctx = trained_records(seed=0)
        second, _ = trained_records(seed=1)
        cache = CoalitionCache(ctx)
        fresh = []
        for records in (first, second):
            want = exact_shapley_round(records[1], Metric.PERF, CoalitionCache(ctx))
            assert exact_shapley_round(records[1], Metric.PERF, cache) == want
            fresh.append(want)
        assert fresh[0] != fresh[1]
        assert cache.evaluations == 2 * 2**4

    def test_two_records_of_one_round_count_their_requests_apart(self):
        first, ctx = trained_records(seed=0)
        second, _ = trained_records(seed=1)
        cache = CoalitionCache(ctx)
        every = {ids for size in range(5) for ids in all_combinations(range(4), size)}
        for records in (first, second):
            exact_shapley_round(records[1], Metric.PERF, cache)
            assert cache.requests(Scheme.EXACT, Metric.PERF) == every
        assert cache.requested == {"exact_shapley": 2 * 2**4}
        # the cache holds the latest record only: returning to the first
        # computes and counts its coalitions again
        exact_shapley_round(first[1], Metric.PERF, cache)
        assert cache.evaluations == 3 * 2**4
        assert cache.requested == {"exact_shapley": 3 * 2**4}

    def test_caches_on_contexts_that_differ_in_sigma_give_their_own_rel(self):
        records, ctx = trained_records()
        record = records[1]
        model = fedavg(record.global_before, [record.update_for(0), record.update_for(1)])
        values = []
        for sigma in (0.05, 2.0):
            noisy = dataclasses.replace(ctx, noise=NoiseSpec(sigma, 5))
            want = evaluate(model, Metric.REL, noisy, predict_batch(model, noisy.test.features))
            assert coalition_utility(record, (0, 1), Metric.REL, CoalitionCache(noisy)) == want
            values.append(want)
        assert values[0] != values[1]


class TestRoundWrappers:
    def test_exact_guard_redirects_to_gtg(self):
        arch = Architecture((2, 2))
        params = init_params(arch, 0)
        updates = tuple(ClientUpdate(i, params, 1) for i in range(13))
        record = RoundRecord(1, params, updates, params)
        with pytest.raises(ConfigError, match="gtg"):
            exact_shapley_round(record, Metric.PERF, CoalitionCache(None))  # ctx never read

    def test_gtg_round_one_needs_no_prev(self):
        records, ctx = trained_records()
        scores = gtg_shapley_round(
            records[0], Metric.PERF, ValuationConfig(), CoalitionCache(ctx)
        )
        assert set(scores) == {0, 1, 2, 3}

    def test_exact_efficiency_on_real_round(self):
        records, ctx = trained_records()
        cache = CoalitionCache(ctx)
        for record in records[1:]:
            for metric in Metric:
                sv = exact_shapley_round(record, metric, cache)
                v_full = coalition_utility(record, record.client_ids, metric, cache)
                v_empty = coalition_utility(record, (), metric, cache)
                assert abs(sum(sv.values()) - (v_full - v_empty)) < 1e-12

    def test_identical_updates_get_identical_scores_and_zero_loo(self):
        records, ctx = trained_records()
        base = records[0]
        clone = base.updates[0].params
        updates = tuple(ClientUpdate(i, clone, 20) for i in range(4))
        record = RoundRecord(1, base.global_before, updates, clone)
        for metric in (Metric.PERF, Metric.FAIR):
            sv = exact_shapley_round(record, metric, CoalitionCache(ctx))
            assert max(sv.values()) - min(sv.values()) < 1e-12
            loo = loo_round(record, metric, CoalitionCache(ctx))
            assert all(abs(v) < 1e-12 for v in loo.values())

    def test_gtg_requests_fewer_coalitions_than_exact_under_shared_cache(self):
        records, ctx = trained_records(rounds=3)
        cache = CoalitionCache(ctx)
        score_rounds(records, list(Scheme), list(Metric), ValuationConfig(), cache)
        requested = cache.requested
        assert requested["exact_shapley"] == 3 * 16 * 4
        assert requested["loo"] == 3 * 5 * 4
        assert requested["gtg"] < requested["exact_shapley"]
        # the shared cache computes each requested utility once
        assert cache.evaluations == requested["exact_shapley"]
        # the cache holds the last round: on each metric exact Shapley asked
        # for every coalition of it, GTG for some of them, LOO for five
        every = {ids for size in range(5) for ids in all_combinations(range(4), size)}
        for metric in Metric:
            assert cache.requests(Scheme.EXACT, metric) == every
            assert {(), (0, 1, 2, 3)} <= cache.requests(Scheme.GTG, metric) <= every
            assert cache.requests(Scheme.LOO, metric) == {ids for ids in every if len(ids) >= 3}

    def test_gtg_draws_one_permutation_sample_per_round(self, monkeypatch):
        records, ctx = trained_records(rounds=3)
        vcfg = ValuationConfig(eps1=0.0, eps3=0.0)
        streams = []

        def counting_rng_streams(seed, *tags, indices):
            for i, rng in zip(indices, rng_streams(seed, *tags, indices=indices)):
                streams.append(tags + (i,))
                yield rng

        monkeypatch.setattr(valuation, "rng_streams", counting_rng_streams)
        gtg_permutations.cache_clear()
        score_rounds(records, [Scheme.GTG], list(Metric), vcfg, CoalitionCache(ctx))
        # each round's four metrics share one sample of `budget` shuffles
        budget = permutation_budget(4, vcfg.eps2)
        assert streams == [("perm", t, r) for t in (1, 2, 3) for r in range(budget)]

    def test_cache_soundness(self):
        records, ctx = trained_records(rounds=2)
        vcfg = ValuationConfig()
        with_cache = score_rounds(
            records, list(Scheme), list(Metric), vcfg, CoalitionCache(ctx)
        )
        # a fresh cache per wrapper call shares nothing between calls
        without_cache = ScoreTable()
        for record in records:
            for metric in Metric:
                rounds = {
                    Scheme.EXACT: exact_shapley_round(record, metric, CoalitionCache(ctx)),
                    Scheme.GTG: gtg_shapley_round(record, metric, vcfg, CoalitionCache(ctx)),
                    Scheme.LOO: loo_round(record, metric, CoalitionCache(ctx)),
                }
                for scheme, scores in rounds.items():
                    without_cache.add_round_scores(scheme, metric, record.round, scores)
        assert with_cache.entries == without_cache.entries


class TestCompactRoundState:
    def test_gtg_round_holds_about_a_byte_per_coalition_and_test_row(self):
        records, _ = trained_records(k=8, rounds=2, n=400)
        test = generate_synthetic(2_000, 3, 0.2, seed=1)
        ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, 5), AttackSpec(0.1, 0.02, 5))
        vcfg = ValuationConfig(eps1=0.0, eps3=0.0)
        cache = CoalitionCache(ctx)
        gtg_permutations.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            score_rounds(records[1:], [Scheme.GTG], [Metric.PERF], vcfg, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cache.evaluations == 2**8
        # each coalition's clean predictions take one byte per test row; its
        # aggregate, the memo, the scan's arrays and one forward pass's
        # temporaries bring that to 2.3 (9.8 with int64 predictions)
        assert (peak - start) / (cache.evaluations * len(test)) < 3

    def test_scoring_memory_grows_with_rounds_by_the_score_table_only(self):
        # 8 clients, GTG over 8 permutations and LOO, on perf and fair: each
        # round adds 2 * 2 * 8 scores to the table and nothing to the cache,
        # which drops a round's state when the next record arrives
        records, ctx = trained_records(k=8, rounds=12, n=400)
        vcfg = ValuationConfig(eps1=0.0, eps2=5e-324, eps3=0.0)
        peaks = []
        for rounds in (2, 12):
            cache = CoalitionCache(ctx)
            gtg_permutations.cache_clear()
            gc.collect()  # a full collection also empties the free lists
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                schemes, metrics = [Scheme.GTG, Scheme.LOO], [Metric.PERF, Metric.FAIR]
                score_rounds(records[:rounds], schemes, metrics, vcfg, cache)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        # a score holds about 130 bytes (its key tuple, its float and its
        # dict slot), up to twice that while the table's dict resizes; a
        # cache that kept every round's memo and request keys grew by about
        # 40 kB per round here
        per_round = (peaks[1] - peaks[0]) / 10
        assert per_round < 2 * 2 * 8 * 400

    # every eps2 > 0 makes the budget infeasible from 181 clients; at 170
    # the smallest eps2 gives the floor budget of K permutations
    @pytest.mark.parametrize("k", [2, 8, 170])
    def test_gtg_permutations_are_one_byte_positions(self, k):
        vcfg = ValuationConfig(eps2=5e-324)
        perms = gtg_permutations(tuple(range(100, 100 + 2 * k, 2)), 2, vcfg)
        assert perms.dtype.itemsize == 1
        assert perms.shape == (k, k) and not perms.flags.writeable
        assert all(sorted(row) == list(range(k)) for row in perms.tolist())


class TestAccumulate:
    def table_from(self, values):
        table = ScoreTable()
        for (scheme, metric, client, rnd), v in values.items():
            table.entries[(scheme, metric, client, rnd)] = v
        return table

    def test_t2_equals_round_two(self):
        table = self.table_from(
            {
                ("loo", "perf", 0, 1): 99.0,
                ("loo", "perf", 0, 2): 0.25,
            }
        )
        totals = accumulate(table)
        assert totals == {("loo", "perf", 0): 0.25}

    def test_round_one_never_contributes(self):
        table = self.table_from(
            {
                ("loo", "perf", 0, 1): 5.0,
                ("loo", "perf", 0, 2): 0.1,
                ("loo", "perf", 0, 3): 0.2,
            }
        )
        totals = accumulate(table)
        assert totals[("loo", "perf", 0)] == pytest.approx(0.3, abs=1e-15)

    def test_missing_round_rejected(self):
        table = self.table_from({("loo", "perf", 0, 2): 0.1})
        with pytest.raises(InputError):
            accumulate(table)

    def test_all_zero_rounds_give_zero_totals(self):
        table = self.table_from(
            {("gtg", "res", 0, t): 0.0 for t in (1, 2, 3)}
        )
        assert accumulate(table) == {("gtg", "res", 0): 0.0}

    def test_matches_independent_resummation_over_ten_rounds(self):
        records, ctx = trained_records(rounds=10)
        table = score_rounds(
            records, [Scheme.LOO], [Metric.PERF], ValuationConfig(), CoalitionCache(ctx)
        )
        totals = accumulate(table)
        for client in table.clients():
            oracle = sum(table.value("loo", "perf", client, t) for t in range(2, 11))
            assert totals[("loo", "perf", client)] == pytest.approx(oracle, abs=1e-15)

    def test_totals_are_a_left_fold_in_round_order(self, tmp_path):
        # 11 scored rounds: past the 8 from which np.sum adds pairwise
        rng = np.random.default_rng(27)
        rounds = range(1, 13)
        table = self.table_from(
            {
                (scheme, "perf", client, t): float(rng.normal())
                for scheme in ("gtg", "loo")
                for client in range(5)
                for t in rounds
            }
        )
        oracle = {}
        for key in sorted({key[:3] for key in table.entries}):
            total = 0.0
            for t in rounds[1:]:
                total += table.entries[(*key, t)]
            oracle[key] = total
        # the data tells the two orders apart
        pairwise = {key: np.sum([table.entries[(*key, t)] for t in rounds[1:]]) for key in oracle}
        assert any(pairwise[key] != oracle[key] for key in oracle)

        totals = accumulate(table)
        assert list(totals) == list(oracle)
        assert [v.hex() for v in totals.values()] == [v.hex() for v in oracle.values()]
        for (scheme, metric), vector in score_vectors(table).items():
            expected = [oracle[(scheme, metric, client)].hex() for client in range(5)]
            assert [v.hex() for v in vector.tolist()] == expected
        path = tmp_path / "scores_total.csv"
        write_totals_csv(table, path)
        rows = path.read_text().splitlines()[1:]
        assert rows == [f"{s},{m},{c},{total!r}" for (s, m, c), total in oracle.items()]


class TestScoresCsv:
    def test_round_trip(self, tmp_path):
        records, ctx = trained_records(rounds=2)
        table = score_rounds(
            records, list(Scheme), list(Metric), ValuationConfig(), CoalitionCache(ctx)
        )
        path = tmp_path / "scores.csv"
        write_scores_csv(table, path)
        back = read_scores_csv(path)
        assert back.entries == table.entries

    def test_row_ordering(self, tmp_path):
        table = ScoreTable()
        table.entries[("loo", "perf", 1, 2)] = 0.5
        table.entries[("gtg", "res", 0, 1)] = 0.1
        table.entries[("gtg", "fair", 0, 1)] = 0.2
        path = tmp_path / "scores.csv"
        write_scores_csv(table, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "scheme,metric,client,round,value"
        assert [r.split(",")[:2] for r in rows[1:]] == [
            ["gtg", "fair"],
            ["gtg", "res"],
            ["loo", "perf"],
        ]

    def test_failed_write_keeps_previous_file(self, tmp_path):
        class Unprintable(float):
            def __repr__(self):
                raise RuntimeError("writer failed partway")

        table = ScoreTable()
        table.entries[("gtg", "fair", 0, 1)] = 0.2
        path = tmp_path / "scores.csv"
        write_scores_csv(table, path)
        before = path.read_bytes()
        table.entries[("gtg", "fair", 0, 1)] = 0.3  # written before the failing row
        table.entries[("gtg", "res", 0, 1)] = Unprintable(0.1)
        with pytest.raises(RuntimeError, match="partway"):
            write_scores_csv(table, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["scores.csv"]
