import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from fedtrust import analysis
from fedtrust.analysis import (
    DASH,
    build_report,
    per_round_variance,
    rmse,
    spearman,
    spearman_flagged,
    write_report,
)
from fedtrust.errors import InputError
from fedtrust.valuation import ScoreTable, accumulate, score_vectors, write_totals_csv


def finite_vectors(n):
    return st.lists(
        st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        min_size=n,
        max_size=n,
    )


class TestSpearman:
    def test_monotone_vectors_correlate_fully(self):
        # ranks are what matters: [1,2,100] orders like [1,2,3]
        assert spearman([1, 2, 3], [1, 2, 100]) == pytest.approx(1.0, abs=1e-15)

    def test_exact_reversal(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)

    def test_ties_use_average_ranks(self):
        # hand oracle: both vectors rank as [1, 2.5, 2.5, 4]
        assert spearman([1, 2, 2, 4], [1, 3, 3, 4]) == pytest.approx(1.0, abs=1e-15)

    def test_constant_vector_flagged_zero(self):
        result = spearman_flagged([1.0, 1.0, 1.0], [1, 2, 3])
        assert result.phi == 0.0 and result.degenerate
        result = spearman_flagged([1, 2, 3], [5.0, 5.0, 5.0])
        assert result.phi == 0.0 and result.degenerate

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(InputError):
            spearman([1], [1])

    @settings(max_examples=60, deadline=None)
    @given(a=finite_vectors(6), b=finite_vectors(6))
    def test_matches_scipy_oracle(self, a, b):
        if len(set(a)) == 1 or len(set(b)) == 1:
            assert spearman_flagged(a, b).degenerate
            return
        want = scipy_stats.spearmanr(a, b).statistic
        assert spearman(a, b) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(a=finite_vectors(5), b=finite_vectors(5))
    def test_symmetry(self, a, b):
        assert spearman(a, b) == pytest.approx(spearman(b, a), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.lists(st.integers(-50, 50), min_size=5, max_size=5),
        b=st.lists(st.integers(-50, 50), min_size=5, max_size=5),
        scale=st.floats(0.1, 10),
    )
    def test_monotone_transform_invariance(self, a, b, scale):
        # integer grids keep distinct values distinct under the transforms
        transformed = [scale * x + 1.0 for x in a]
        cubed = [x**3 for x in b]
        assert spearman(transformed, cubed) == pytest.approx(spearman(a, b), abs=1e-9)


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_arithmetic_oracle(self):
        assert rmse([0, 0], [3, 4]) == pytest.approx(np.sqrt(12.5), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(a=finite_vectors(4), scale=st.floats(-5, 5))
    def test_homogeneity(self, a, scale):
        scaled = [scale * x for x in a]
        zero = [0.0] * 4
        assert rmse(scaled, zero) == pytest.approx(abs(scale) * rmse(a, zero), rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(a=finite_vectors(4), b=finite_vectors(4), c=finite_vectors(4))
    def test_triangle_inequality(self, a, b, c):
        assert rmse(a, c) <= rmse(a, b) + rmse(b, c) + 1e-9


def table_with_series(series, scheme="gtg"):
    """series: {(metric, client): [round-2.. values]}"""
    table = ScoreTable()
    for (metric, client), values in series.items():
        table.entries[(scheme, metric, client, 1)] = -1.0  # excluded round
        for t, v in enumerate(values, start=2):
            table.entries[(scheme, metric, client, t)] = float(v)
    return table


class TestPerRoundVariance:
    def test_constant_scores_zero_variance(self):
        table = table_with_series({("perf", 0): [0.3, 0.3, 0.3], ("perf", 1): [0.1, 0.1, 0.1]})
        assert per_round_variance(table)[("gtg", "perf")] == pytest.approx(0.0, abs=1e-30)

    def test_arithmetic_oracle(self):
        # client 0 constant, client 1 alternates +-1: variances 0 and 1
        table = table_with_series(
            {("perf", 0): [0, 0, 0, 0], ("perf", 1): [1, -1, 1, -1]}
        )
        assert per_round_variance(table)[("gtg", "perf")] == pytest.approx(0.5)

    def test_invariant_to_round_reordering(self):
        values = [0.4, -0.2, 0.9, 0.05]
        a = table_with_series({("perf", 0): values})
        b = table_with_series({("perf", 0): values[::-1]})
        assert per_round_variance(a) == per_round_variance(b)

    def test_single_round_table_rejected(self):
        table = table_with_series({("perf", 0): []})
        with pytest.raises(InputError, match=r"rounds \[1\] hold no scored round"):
            per_round_variance(table)

    def test_single_scored_round_has_zero_variance(self):
        # T=2 leaves one scored round: fluctuation is degenerate, not an error
        table = table_with_series({("perf", 0): [0.3]})
        assert per_round_variance(table)[("gtg", "perf")] == 0.0

    @pytest.mark.parametrize(
        "read",
        [
            lambda table, out_dir: table.grid(),
            lambda table, out_dir: table.last_round(),
            lambda table, out_dir: accumulate(table),
            lambda table, out_dir: score_vectors(table),
            lambda table, out_dir: per_round_variance(table),
            lambda table, out_dir: write_totals_csv(table, out_dir / "scores_total.csv"),
            lambda table, out_dir: build_report([table]),
        ],
        ids=[
            "grid",
            "last_round",
            "accumulate",
            "score_vectors",
            "per_round_variance",
            "write_totals_csv",
            "build_report",
        ],
    )
    def test_missing_score_names_its_key(self, read, tmp_path):
        # a hole in round 2 under a complete round 3
        table = table_with_series({("perf", c): [0.1, 0.2] for c in range(3)})
        del table.entries[("gtg", "perf", 1, 2)]
        with pytest.raises(InputError, match="no score for gtg/perf/client 1/round 2"):
            read(table, tmp_path)
        assert not list(tmp_path.iterdir())


def full_table(vectors, rounds=(2, 3), scheme="gtg"):
    """vectors: metric -> per-client accumulated target; split across rounds."""
    table = ScoreTable()
    for metric, vec in vectors.items():
        for client, total in enumerate(vec):
            table.entries[(scheme, metric, client, 1)] = 0.0
            for t in rounds:
                table.entries[(scheme, metric, client, t)] = total / len(rounds)
    return table


class TestBuildReport:
    def test_identical_metric_vectors_give_phi_one_l2_zero(self):
        table = full_table({"perf": [0.1, 0.4, 0.2], "fair": [0.1, 0.4, 0.2]})
        report = build_report([table])
        stats = report.vs_perf["gtg"]["fair"]
        assert stats.phi_mean == pytest.approx(1.0, abs=1e-12)
        assert stats.l2_mean == 0.0
        assert stats.degenerate_folds == 0

    def test_heatmap_symmetric_unit_diagonal(self):
        table = full_table(
            {"perf": [0.1, 0.4, 0.2], "fair": [0.3, 0.1, 0.2], "rel": [0.5, 0.2, 0.6]}
        )
        report = build_report([table])
        hm = report.heatmap["gtg"]
        for ma in report.metrics:
            assert hm[ma][ma] == 1.0
            for mb in report.metrics:
                assert hm[ma][mb] == pytest.approx(hm[mb][ma], abs=1e-12)

    def test_fold_mean_is_arithmetic_mean_of_per_fold_phi(self):
        t1 = full_table({"perf": [0.1, 0.2, 0.3], "fair": [0.1, 0.2, 0.3]})
        t2 = full_table({"perf": [0.1, 0.2, 0.3], "fair": [0.3, 0.2, 0.1]})
        report = build_report([t1, t2])
        phis = [1.0, -1.0]
        assert report.vs_perf["gtg"]["fair"].phi_mean == pytest.approx(np.mean(phis))
        assert report.vs_perf["gtg"]["fair"].phi_std == pytest.approx(np.std(phis))

    def test_degenerate_fold_rendered_as_dash(self, tmp_path):
        table = full_table({"perf": [0.1, 0.2, 0.3], "fair": [0.5, 0.5, 0.5]})
        report = build_report([table])
        assert report.vs_perf["gtg"]["fair"].degenerate_folds == 1
        write_report(report, tmp_path)
        text = (tmp_path / "report.csv").read_text()
        assert DASH in text

    def test_report_files_written(self, tmp_path):
        table = full_table({"perf": [0.1, 0.2, 0.3], "fair": [0.2, 0.1, 0.3]})
        write_report(build_report([table]), tmp_path)
        for name in ("report.json", "report.csv", "heatmap.csv"):
            assert (tmp_path / name).exists()

    def test_round_variance_cells_are_what_report_json_holds(self, tmp_path):
        t1 = full_table({"perf": [0.1, 0.2, 0.3], "fair": [0.2, 0.1, 0.3]}, rounds=(2, 3))
        t2 = full_table({"perf": [0.4, 0.2, 0.3], "fair": [0.2, 0.6, 0.3]}, rounds=(2, 3))
        report = build_report([t1, t2])
        assert report.round_variance["gtg"]["perf"] == {"mean": 0.0, "std": 0.0}
        write_report(report, tmp_path)
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["round_variance"] == report.round_variance
        assert written["vs_perf"]["gtg"]["fair"]["phi_mean"] == report.vs_perf["gtg"]["fair"].phi_mean

    def test_folds_with_different_clients_rejected(self):
        t1 = full_table({"perf": [0.1, 0.2, 0.3], "fair": [0.3, 0.2, 0.1]})
        t2 = full_table({"perf": [0.1, 0.2, 0.3], "fair": [0.3, 0.2, 0.1]})
        # client 2 of the second fold is client 5 there: folds pair clients by id
        t2.entries = {
            (s, m, 5 if c == 2 else c, t): v for (s, m, c, t), v in t2.entries.items()
        }
        with pytest.raises(InputError, match="clients"):
            build_report([t1, t2])

    def test_fold_without_perf_rejected(self):
        table = full_table({"fair": [0.1, 0.2, 0.3], "rel": [0.3, 0.2, 0.1]})
        with pytest.raises(InputError, match=r"fold 0: metrics \['fair', 'rel'\] hold no perf scores"):
            build_report([table])

    def test_folds_over_different_rounds_rejected(self):
        vectors = {"perf": [0.1, 0.2, 0.3], "fair": [0.3, 0.2, 0.1]}
        t1 = full_table(vectors, rounds=(2,))
        t2 = full_table(vectors, rounds=(2, 3))
        with pytest.raises(InputError, match=r"fold 1: rounds \[1, 2, 3\] differ from fold 0: \[1, 2\]"):
            build_report([t1, t2])

    def test_each_metric_pair_correlated_once_per_scheme_and_fold(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(1)
            return spearman_flagged(a, b)

        vectors = {
            "perf": [0.1, 0.4, 0.2, 0.3],
            "fair": [0.3, 0.1, 0.2, 0.4],
            "rel": [0.5, 0.2, 0.6, 0.1],
            "res": [0.2, 0.2, 0.2, 0.2],
        }
        folds = [
            {**full_table(vectors, scheme="gtg").entries, **full_table(vectors, scheme="loo").entries}
            for _ in range(3)
        ]
        tables = [ScoreTable(entries) for entries in folds]
        monkeypatch.setattr(analysis, "spearman_flagged", counted)
        report = build_report(tables)
        # 2 schemes x 3 folds x the 6 unordered pairs of 4 metrics
        assert len(calls) == 2 * 3 * 6
        for scheme in report.schemes:
            hm = report.heatmap[scheme]
            for metric, stats in report.vs_perf[scheme].items():
                assert hm[metric]["perf"] == hm["perf"][metric] == stats.phi_mean
            assert report.vs_perf[scheme]["res"].degenerate_folds == 3
