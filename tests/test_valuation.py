import logging
from itertools import permutations as all_perms

import numpy as np
import pytest

from fedtrust.attacks import AttackSpec
from fedtrust.data import generate_synthetic, partition, PartitionMode, PartitionSpec, train_test_split
from fedtrust.errors import ConfigError, InputError
from fedtrust.federation import ClientUpdate, RoundRecord, TrainingConfig, run_training
from fedtrust.metrics import EvalContext, FairnessSpec, Metric, NoiseSpec, res
from fedtrust.nn import Architecture, ModelParams, OutputActivation, init_params
from fedtrust.valuation import (
    CoalitionCache,
    Scheme,
    ScoreTable,
    TruncationRule,
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
    write_scores_csv,
)

# --- scheme cores on hand-computed utility games ---

TWO_CLIENT_GAME = {(): 0.0, (1,): 0.3, (2,): 0.1, (1, 2): 0.5}


def game(table):
    return lambda ids: table[tuple(sorted(ids))]


def additive_game(costs):
    return lambda ids: sum(costs[c] for c in ids)


class TestExactCore:
    def test_two_client_hand_oracle(self):
        # enumerating both orderings by hand gives (0.35, 0.15)
        sv = exact_shapley_values((1, 2), game(TWO_CLIENT_GAME))
        assert sv[1] == pytest.approx(0.35, abs=1e-15)
        assert sv[2] == pytest.approx(0.15, abs=1e-15)

    def test_additive_game_recovers_costs(self):
        costs = {0: 0.4, 1: -0.1, 2: 0.25, 3: 0.0}
        sv = exact_shapley_values(range(4), additive_game(costs))
        for c, value in costs.items():
            assert sv[c] == pytest.approx(value, abs=1e-12)

    def test_efficiency(self):
        rng = np.random.default_rng(0)
        table = {
            tuple(sorted(s)): float(rng.random())
            for r in range(5)
            for s in all_perms(range(4), r)
        }
        sv = exact_shapley_values(range(4), game(table))
        assert sum(sv.values()) == pytest.approx(
            table[(0, 1, 2, 3)] - table[()], abs=1e-12
        )

    def test_symmetry_of_interchangeable_clients(self):
        # utility depends only on coalition size: all clients symmetric
        u = lambda ids: float(len(ids)) ** 0.5
        sv = exact_shapley_values(range(4), u)
        assert max(sv.values()) - min(sv.values()) < 1e-12

    def test_dummy_client(self):
        # client 9 never changes the utility
        base = {(): 0.1, (1,): 0.6, (2,): 0.2, (1, 2): 0.9}

        def u(ids):
            return base[tuple(sorted(set(ids) - {9}))]

        sv = exact_shapley_values((1, 2, 9), u)
        assert abs(sv[9]) < 1e-12


def test_all_schemes_rank_additive_game_identically():
    # value agreement is not expected across schemes, rank agreement is
    costs = {0: 0.4, 1: -0.1, 2: 0.25, 3: 0.05}
    u = additive_game(costs)
    sv = exact_shapley_values(range(4), u)
    gtg = gtg_shapley_values(range(4), u, 2, ValuationConfig(eps1=0.0, eps2=1.0, eps3=0.0))
    loo = loo_values(range(4), u)
    rank = lambda scores: sorted(scores, key=scores.get)
    assert rank(sv) == rank(gtg) == rank(loo) == [1, 3, 2, 0]


class TestLooCore:
    def test_two_client_hand_oracle(self):
        loo = loo_values((1, 2), game(TWO_CLIENT_GAME))
        assert loo[1] == pytest.approx(0.4, abs=1e-15)
        assert loo[2] == pytest.approx(0.2, abs=1e-15)

    def test_no_efficiency_on_toy(self):
        loo = loo_values((1, 2), game(TWO_CLIENT_GAME))
        assert sum(loo.values()) == pytest.approx(0.6, abs=1e-15)
        assert sum(loo.values()) != pytest.approx(0.5, abs=1e-12)

    def test_additive_game(self):
        costs = {0: 0.4, 1: -0.1, 2: 0.25}
        loo = loo_values(range(3), additive_game(costs))
        for c, value in costs.items():
            assert loo[c] == pytest.approx(value, abs=1e-12)


class TestGtgCore:
    def test_budget_formula(self):
        assert permutation_budget(4, 0.05) == 4  # max(4, ceil(1.2)) = 4
        assert permutation_budget(4, 1.0) == 24
        assert permutation_budget(5, 0.01) == 5  # floor raised to K
        assert permutation_budget(20, 1e-18) == 20  # exact big-int arithmetic

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ConfigError, match="eps2"):
            permutation_budget(20, 0.05)

    def test_balanced_leads_at_minimum_budget(self):
        perms = gtg_permutations(range(4), 4, round_idx=2, vcfg=ValuationConfig())
        assert [p[0] for p in perms] == [0, 1, 2, 3]
        for p in perms:
            assert sorted(p) == [0, 1, 2, 3]

    def test_full_budget_enumerates_every_permutation(self):
        vcfg = ValuationConfig(eps2=1.0)
        perms = gtg_permutations(range(4), 24, round_idx=3, vcfg=vcfg)
        assert sorted(perms) == sorted(all_perms(range(4)))

    def test_equals_exact_when_not_truncated(self):
        rng = np.random.default_rng(7)
        table = {
            tuple(sorted(s)): float(rng.random())
            for r in range(5)
            for s in all_perms(range(4), r)
        }
        vcfg = ValuationConfig(eps1=0.0, eps2=1.0, eps3=0.0)
        gtg = gtg_shapley_values(range(4), game(table), 2, vcfg)
        sv = exact_shapley_values(range(4), game(table))
        for c in range(4):
            assert gtg[c] == pytest.approx(sv[c], abs=1e-12)

    def test_round_skip_zeroes_everything(self):
        vcfg = ValuationConfig(eps1=1.5, eps2=1.0, eps3=0.0)  # eps1 > any gap
        gtg = gtg_shapley_values((1, 2), game(TWO_CLIENT_GAME), 2, vcfg)
        assert gtg == {1: 0.0, 2: 0.0}

    def test_prefix_truncation_saves_evaluations(self):
        # utility jumps to the full value after the first client: every
        # later prefix is within eps3 of v(full) and must not be evaluated
        calls = []

        def u(ids):
            calls.append(tuple(sorted(ids)))
            return 0.0 if not ids else 1.0

        vcfg = ValuationConfig(eps1=0.0, eps2=0.05, eps3=0.01)
        gtg = gtg_shapley_values(range(4), u, 2, vcfg)
        evaluated = set(calls)
        assert all(len(ids) <= 1 for ids in evaluated - {(0, 1, 2, 3)})
        # each permutation credits its lead with the whole jump
        assert gtg == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}

    def test_marginal_size_rule_truncates_after_small_marginal(self):
        calls = []

        def u(ids):
            calls.append(tuple(sorted(ids)))
            return {0: 0.0, 1: 0.5, 2: 0.5001, 3: 0.8, 4: 1.0}[len(ids)]

        vcfg = ValuationConfig(
            eps1=0.0, eps2=0.05, eps3=0.01, truncation_rule=TruncationRule.MARGINAL_SIZE
        )
        gtg = gtg_shapley_values(range(4), u, 2, vcfg)
        # first marginal 0.5 is kept, second (0.0001) truncates the rest
        assert all(len(ids) <= 2 for ids in set(calls) - {(0, 1, 2, 3)})
        for lead in range(4):
            assert gtg[lead] >= 0.1  # every lead keeps its first marginal


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

        value = coalition_utility(record, (), Metric.PERF, ctx)
        assert value == perf(record.global_before, ctx.test)

    def test_full_subset_is_new_global(self):
        records, ctx = trained_records()
        record = records[1]
        from fedtrust.metrics import perf

        value = coalition_utility(record, record.client_ids, Metric.PERF, ctx)
        assert value == perf(record.global_after, ctx.test)

    def test_cache_hit_is_bit_identical(self):
        records, ctx = trained_records()
        cache = CoalitionCache()
        first = coalition_utility(records[0], (0, 2), Metric.REL, ctx, cache)
        again = coalition_utility(records[0], (0, 2), Metric.REL, ctx, cache)
        assert first == again
        assert cache.evaluations == 1 and cache.hits == 1

    def test_unknown_client_rejected(self):
        records, ctx = trained_records()
        with pytest.raises(InputError):
            coalition_utility(records[0], (0, 9), Metric.PERF, ctx)

    def test_metric_undefined_falls_back_to_empty_utility(self, caplog):
        # client 0 predicts everything wrong, so res is undefined for the
        # singleton coalition and falls back to res(global_before)
        arch = Architecture((2, 1), OutputActivation.SIGMOID)
        always_one = ModelParams(arch, np.array([0.0, 0.0, 10.0]))
        always_zero = ModelParams(arch, np.array([0.0, 0.0, -10.0]))
        test = generate_synthetic(40, 2, 0.0, seed=3)
        test = test.subset(np.flatnonzero(test.labels == 0))
        record = RoundRecord(
            1,
            always_zero,
            (
                ClientUpdate(0, 1, always_one, 10),
                ClientUpdate(1, 1, always_zero, 10),
            ),
            always_zero,
        )
        ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, 1), AttackSpec(0.1, 0.02, 3))
        with caplog.at_level(logging.WARNING, logger="fedtrust.valuation"):
            value = coalition_utility(record, (0,), Metric.RES, ctx)
        assert value == res(always_zero, test, ctx.attack)
        assert any("undefined" in message for message in caplog.messages)


class TestRoundWrappers:
    def test_exact_guard_redirects_to_gtg(self):
        arch = Architecture((2, 2))
        params = init_params(arch, 0)
        updates = tuple(ClientUpdate(i, 1, params, 1) for i in range(13))
        record = RoundRecord(1, params, updates, params)
        ctx = None  # never reached
        with pytest.raises(ConfigError, match="gtg"):
            exact_shapley_round(record, Metric.PERF, ctx)

    def test_gtg_requires_chained_prev_record(self):
        records, ctx = trained_records()
        vcfg = ValuationConfig()
        with pytest.raises(InputError):
            gtg_shapley_round(records[1], None, Metric.PERF, ctx, vcfg)
        with pytest.raises(InputError):
            gtg_shapley_round(records[2], records[0], Metric.PERF, ctx, vcfg)

    def test_gtg_round_one_needs_no_prev(self):
        records, ctx = trained_records()
        scores = gtg_shapley_round(records[0], None, Metric.PERF, ctx, ValuationConfig())
        assert set(scores) == {0, 1, 2, 3}

    def test_exact_efficiency_on_real_round(self):
        records, ctx = trained_records()
        cache = CoalitionCache()
        for record in records[1:]:
            for metric in Metric:
                sv = exact_shapley_round(record, metric, ctx, cache)
                v_full = coalition_utility(record, record.client_ids, metric, ctx, cache)
                v_empty = coalition_utility(record, (), metric, ctx, cache)
                assert abs(sum(sv.values()) - (v_full - v_empty)) < 1e-12

    def test_identical_updates_get_identical_scores_and_zero_loo(self):
        records, ctx = trained_records()
        base = records[0]
        clone = base.updates[0].params
        updates = tuple(ClientUpdate(i, 1, clone, 20) for i in range(4))
        record = RoundRecord(1, base.global_before, updates, clone)
        for metric in (Metric.PERF, Metric.FAIR):
            sv = exact_shapley_round(record, metric, ctx)
            assert max(sv.values()) - min(sv.values()) < 1e-12
            loo = loo_round(record, metric, ctx)
            assert all(abs(v) < 1e-12 for v in loo.values())

    def test_gtg_requests_fewer_coalitions_than_exact_under_shared_cache(self):
        records, ctx = trained_records(rounds=3)
        cache = CoalitionCache()
        score_rounds(records, list(Scheme), list(Metric), ctx, ValuationConfig(), cache)
        requested = {scheme: len(keys) for scheme, keys in cache.requested.items()}
        assert requested["exact_shapley"] == 3 * 16 * 4
        assert requested["loo"] == 3 * 5 * 4
        assert requested["gtg"] < requested["exact_shapley"]
        # the shared cache computes each requested utility once
        assert cache.evaluations == len(cache) == requested["exact_shapley"]

    def test_cache_soundness(self):
        records, ctx = trained_records(rounds=2)
        vcfg = ValuationConfig()
        with_cache = score_rounds(
            records, list(Scheme), list(Metric), ctx, vcfg, CoalitionCache()
        )
        without_cache = score_rounds(records, list(Scheme), list(Metric), ctx, vcfg, None)
        assert with_cache.entries == without_cache.entries


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
        totals = accumulate(table, 2)
        assert totals == {("loo", "perf", 0): 0.25}

    def test_round_one_never_contributes(self):
        table = self.table_from(
            {
                ("loo", "perf", 0, 1): 5.0,
                ("loo", "perf", 0, 2): 0.1,
                ("loo", "perf", 0, 3): 0.2,
            }
        )
        totals = accumulate(table, 3)
        assert totals[("loo", "perf", 0)] == pytest.approx(0.3, abs=1e-15)

    def test_missing_round_rejected(self):
        table = self.table_from({("loo", "perf", 0, 2): 0.1})
        with pytest.raises(InputError):
            accumulate(table, 3)

    def test_all_zero_rounds_give_zero_totals(self):
        table = self.table_from(
            {("gtg", "res", 0, t): 0.0 for t in (1, 2, 3)}
        )
        assert accumulate(table, 3) == {("gtg", "res", 0): 0.0}

    def test_matches_independent_resummation_over_ten_rounds(self):
        records, ctx = trained_records(rounds=10)
        table = score_rounds(records, [Scheme.LOO], [Metric.PERF], ctx, ValuationConfig())
        totals = accumulate(table, 10)
        for client in table.clients():
            oracle = sum(table.value("loo", "perf", client, t) for t in range(2, 11))
            assert totals[("loo", "perf", client)] == pytest.approx(oracle, abs=1e-15)


class TestScoresCsv:
    def test_round_trip(self, tmp_path):
        records, ctx = trained_records(rounds=2)
        table = score_rounds(
            records, list(Scheme), list(Metric), ctx, ValuationConfig(), CoalitionCache()
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
