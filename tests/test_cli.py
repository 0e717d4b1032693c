import dataclasses
import errno
import json
import os
import pathlib
import shutil
import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  (imported before tracing, not counted in it)
import pytest

from fedtrust import atomic
from fedtrust.analysis import REPORT_FILES
from fedtrust.cli import main
from fedtrust.config import ExperimentConfig
from fedtrust.data import CsvSchema, fold_split, load_csv
from fedtrust.experiment import analyze_run_dir, run_experiment, run_fold
from fedtrust.valuation import Scheme, read_scores_csv

SMOKE = """
data.n = 80
data.d = 3
partition.mode = iid
partition.clients = 2
training.rounds = 2
training.local_epochs = 1
attack.steps = 5
experiment.folds = 1
experiment.master_seed = 11
"""


def write_smoke_config(tmp_path, out_dir, extra=""):
    """SMOKE plus the output directory; each line of ``extra`` replaces its key's line."""
    lines = SMOKE.strip().splitlines() + [f"experiment.output_dir = {out_dir}"]
    for line in extra.splitlines():
        key = line.split("=", 1)[0].strip()
        lines = [ln for ln in lines if ln.split("=", 1)[0].strip() != key] + [line]
    path = tmp_path / "config.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestDemoFig1:
    def test_exit_zero_and_printed_values(self, capsys):
        assert main(["demo-fig1"]) == 0
        out = capsys.readouterr().out
        assert "perf = 0.6667" in out
        assert "demographic parity gap = 0.3333" in out
        assert "fair = 0.6667" in out
        assert "attack success = 0.25" in out
        assert "res = 0.75" in out


class TestRun:
    def test_smoke_run_layout_and_round_filter(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_smoke_config(tmp_path, out_dir)
        assert main(["run", str(config)]) == 0
        fold = out_dir / "fold_0"
        assert (fold / "round_1" / "global_before.txt").exists()
        assert (fold / "round_2" / "meta.json").exists()
        table = read_scores_csv(fold / "scores.csv")
        assert table.rounds() == [1, 2]
        totals = (fold / "scores_total.csv").read_text().splitlines()
        # accumulated totals equal the round-2 scores exactly (round 1 excluded)
        for line in totals[1:]:
            scheme, metric, client, value = line.split(",")
            assert float(value) == table.value(scheme, metric, int(client), 2)
        for name in ("report.json", "report.csv", "heatmap.csv"):
            assert (out_dir / name).exists()

    def test_valuation_meta_counts_requests_per_scheme(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_smoke_config(tmp_path, out_dir)
        assert main(["run", str(config)]) == 0
        meta = json.loads((out_dir / "fold_0" / "valuation_meta.json").read_text())
        # 2 clients, 2 rounds, 4 metrics: exact Shapley asks for all 4
        # coalitions, LOO for the full one and both singletons
        assert meta["requested_coalitions"]["exact_shapley"] == 2 * 4 * 4
        assert meta["requested_coalitions"]["loo"] == 2 * 4 * 3
        assert meta["requested_coalitions"]["gtg"] <= 2 * 4 * 4
        assert meta["distinct_coalitions"] == meta["coalition_evaluations"] == 2 * 4 * 4
        assert meta["metric_undefined_fallbacks"] >= 0

    def test_rerun_byte_identical_scores(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", str(write_smoke_config(tmp_path, out_a))]) == 0
        config_b = tmp_path / "config_b.txt"
        config_b.write_text(SMOKE + f"experiment.output_dir = {out_b}\n")
        assert main(["run", str(config_b)]) == 0
        assert (out_a / "fold_0" / "scores.csv").read_bytes() == (
            out_b / "fold_0" / "scores.csv"
        ).read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("data.n = lots\n")
        assert main(["run", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfedata.n = 100\n")
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read config {bad}")

    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys):
        data_path = tmp_path / "input.csv"
        data_path.write_bytes(b"a,s,y\n1,yes,0\n2,n\xf6,1\n")
        extra = f"data.source = csv\ndata.csv_path = {data_path}\n"
        config = write_smoke_config(tmp_path, tmp_path / "out", extra)
        assert main(["run", str(config)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read {data_path}")

    def test_csv_row_error_names_its_physical_line(self, tmp_path, capsys):
        # the first data row spans lines 2-3, so the second is line 4
        data_path = tmp_path / "input.csv"
        data_path.write_text('a,c,s,y\n1,"two\nlines",yes,0\n,x,no,1\n')
        extra = f"data.source = csv\ndata.csv_path = {data_path}\n"
        config = write_smoke_config(tmp_path, tmp_path / "out", extra)
        assert main(["run", str(config)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {data_path}:4: empty cell in column 'a'"]

    def test_bad_test_fraction_fails_before_any_fold(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_smoke_config(tmp_path, out_dir, "data.test_fraction = 2\n")
        assert main(["run", str(config)]) == 2
        assert "test_fraction must lie in (0, 1)" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("valuation.schemes = gtg,gtg,loo\n", "valuation.schemes names gtg more than once"),
            ("partition.clients = 13\nvaluation.schemes = exact_shapley\n", "exceeds 12, use the gtg scheme"),
            ("partition.clients = 11\nvaluation.schemes = gtg\n", "lower valuation.eps2"),
        ],
    )
    def test_a_scheme_that_cannot_run_fails_before_any_fold(self, tmp_path, capsys, extra, message):
        out_dir = tmp_path / "out"
        config = write_smoke_config(tmp_path, out_dir, extra)
        assert main(["run", str(config)]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("data.n = 5\n", "need n >= 10 and d >= 2, got n=5, d=3"),
            ("data.d = 1\n", "need n >= 10 and d >= 2, got n=80, d=1"),
            ("metrics.target_class = 2\n", "target_class 2 is not a class of the 2-class dataset"),
            ("data.n = 1000000000000\n", "n x d = 3000000000000 synthetic features exceeds"),
            ("model.hidden = 100000000\n", "a 3-100000000-1 model has P = 500000001 parameters"),
            # n x d = 8 x 10^7 is within its bound; the model is not
            ("data.d = 1000000\n", "a 1000000-16-1 model has P = 16000033 parameters"),
        ],
    )
    def test_synthetic_settings_that_fail_every_fold_fail_before_any_fold(self, tmp_path, capsys, extra, message):
        out_dir = tmp_path / "out"
        config = write_smoke_config(tmp_path, out_dir, extra + "experiment.folds = 2\n")
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert message in err and "every fold failed" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out_dir.exists()

    def test_empty_output_dir_leaves_the_working_directory_untouched(self, tmp_path, capsys, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        (work / "report.json").write_text("{}\n")
        config = write_smoke_config(tmp_path, "", "")
        monkeypatch.chdir(work)
        assert main(["run", str(config)]) == 2
        assert "experiment.output_dir is empty" in capsys.readouterr().err
        assert [p.name for p in work.iterdir()] == ["report.json"]
        assert (work / "report.json").read_text() == "{}\n"

    def test_target_class_outside_the_dataset_is_config_error(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_smoke_config(tmp_path, out_dir, "metrics.target_class = 5\n")
        assert main(["run", str(config)]) == 2
        assert "target_class 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "classes, extra, message",
        [
            (3, "experiment.folds = 3\n", "sigmoid output needs a binary dataset"),
            (2, "metrics.target_class = 5\n", "target_class 5 is not a class of the 2-class dataset"),
            (2, "model.hidden = 1000000\n", "a 2-1000000-1 model has P = 4000001 parameters"),
        ],
        ids=["sigmoid_on_three_classes", "target_class_past_the_classes", "model_past_the_parameter_limit"],
    )
    def test_csv_the_model_cannot_serve_fails_before_any_fold(self, tmp_path, capsys, classes, extra, message):
        data_path = tmp_path / "input.csv"
        rows = [f"{i % 7},{i % 5},{i % 2},{i % classes}" for i in range(300)]
        data_path.write_text("\n".join(["a,b,s,y", *rows]) + "\n")
        out_dir = tmp_path / "out"
        extra += f"data.source = csv\ndata.csv_path = {data_path}\n"
        config = write_smoke_config(tmp_path, out_dir, extra)
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert message in err and "every fold failed" not in err
        assert not out_dir.exists()

    def test_oversized_csv_field_is_data_error(self, tmp_path, capsys):
        data_path = tmp_path / "input.csv"
        data_path.write_text("a,s,y\n1,1,0\n" + "2" * 131_073 + ",0,1\n")
        extra = f"data.source = csv\ndata.csv_path = {data_path}\n"
        config = write_smoke_config(tmp_path, tmp_path / "out", extra)
        assert main(["run", str(config)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {data_path}:3: field larger than field limit")

    def test_every_fold_diverged_exits_with_numeric_error(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        extra = (
            "experiment.folds = 2\n"
            "training.optimizer = sgd\n"
            "training.learning_rate = 1e300\n"
        )
        config = write_smoke_config(tmp_path, out_dir, extra)
        assert main(["run", str(config)]) == 4
        assert "every fold failed" in capsys.readouterr().err
        failures = json.loads((out_dir / "failures.json").read_text())
        assert [f["fold"] for f in failures] == [0, 1]
        assert all("diverged" in f["error"] for f in failures)

    def test_csv_source_run(self, tmp_path, capsys):
        data_path = tmp_path / "input.csv"
        gen_spec = tmp_path / "gen.txt"
        gen_spec.write_text("data.n = 120\ndata.d = 3\nexperiment.master_seed = 5\n")
        assert main(["generate-data", str(gen_spec), str(data_path)]) == 0
        out_dir = tmp_path / "csv_out"
        config = write_smoke_config(
            tmp_path,
            out_dir,
            extra=(
                "data.source = csv\n"
                f"data.csv_path = {data_path}\n"
                "data.label_column = y\n"
                "data.sensitive_column = s\n"
                "data.positive_sensitive_value = 1\n"
            ),
        )
        assert main(["run", str(config)]) == 0
        assert (out_dir / "fold_0" / "scores.csv").exists()


class TestAnalyze:
    def test_rebuild_matches_original_report(self, tmp_path):
        out_dir = tmp_path / "out"
        config = write_smoke_config(tmp_path, out_dir)
        assert main(["run", str(config)]) == 0
        original = {
            name: (out_dir / name).read_bytes()
            for name in ("report.json", "report.csv", "heatmap.csv")
        }
        assert main(["analyze", str(out_dir)]) == 0
        for name, blob in original.items():
            assert (out_dir / name).read_bytes() == blob

    def test_rebuild_matches_original_report_over_twelve_folds(self, tmp_path):
        # fold_10 and fold_11 sort before fold_2 as strings; the report's
        # fold means must still add up in fold order
        out_dir = tmp_path / "out"
        config = write_smoke_config(tmp_path, out_dir, "experiment.folds = 12\n")
        assert main(["run", str(config)]) == 0
        original = {
            name: (out_dir / name).read_bytes()
            for name in ("report.json", "report.csv", "heatmap.csv")
        }
        assert main(["analyze", str(out_dir)]) == 0
        for name, blob in original.items():
            assert (out_dir / name).read_bytes() == blob

    def test_handcrafted_scores_give_phi_one(self, tmp_path):
        run_dir = tmp_path / "hand"
        run_dir.mkdir()
        rows = ["scheme,metric,client,round,value"]
        for metric in ("perf", "fair", "rel", "res"):
            for client, value in enumerate([0.1, 0.3, 0.2]):
                rows.append(f"gtg,{metric},{client},1,0.0")
                rows.append(f"gtg,{metric},{client},2,{value}")
        (run_dir / "scores.csv").write_text("\n".join(rows) + "\n")
        assert main(["analyze", str(run_dir)]) == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["vs_perf"]["gtg"]["fair"]["phi_mean"] == pytest.approx(1.0)

    def test_non_finite_score_is_data_error(self, tmp_path, capsys):
        run_dir = tmp_path / "hand"
        run_dir.mkdir()
        rows = ["scheme,metric,client,round,value"]
        for metric in ("perf", "fair"):
            for client, value in enumerate(["0.1", "0.3", "nan" if metric == "fair" else "0.2"]):
                rows.append(f"gtg,{metric},{client},1,0.0")
                rows.append(f"gtg,{metric},{client},2,{value}")
        (run_dir / "scores.csv").write_text("\n".join(rows) + "\n")
        assert main(["analyze", str(run_dir)]) == 3
        assert "scores.csv:13: non-finite score 'nan'" in capsys.readouterr().err
        assert not (run_dir / "report.json").exists()

    def test_oversized_score_field_is_data_error(self, tmp_path, capsys):
        run_dir = tmp_path / "hand"
        run_dir.mkdir()
        scores = run_dir / "scores.csv"
        scores.write_text("scheme,metric,client,round,value\ngtg,perf,0,1," + "1" * 131_073 + "\n")
        assert main(["analyze", str(run_dir)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {scores}:2: field larger than field limit")
        assert not (run_dir / "report.json").exists()

    def test_empty_dir_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["analyze", str(empty)]) == 3

    @pytest.mark.parametrize(
        "axis, keep",
        [
            ("rounds", lambda row: row[3] != "2"),
            ("clients", lambda row: row[2] != "1"),
            ("schemes", lambda row: row[0] != "loo"),
            ("metrics", lambda row: row[1] != "res"),
        ],
    )
    def test_folds_that_disagree_are_data_error(self, tmp_path, capsys, axis, keep):
        out_dir = tmp_path / "out"
        config = write_smoke_config(tmp_path, out_dir, "experiment.folds = 2\n")
        assert main(["run", str(config)]) == 0
        doctored = out_dir / "fold_1" / "scores.csv"
        header, *rows = doctored.read_text().splitlines()
        kept = [row for row in rows if keep(row.split(","))]
        assert 0 < len(kept) < len(rows)
        doctored.write_text("\n".join([header, *kept]) + "\n")
        assert main(["analyze", str(out_dir)]) == 3
        assert f"{axis} " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doctor, message",
        [
            (lambda rows: rows[:1] + rows, "scores.csv:3: a second score for "),
            (
                lambda rows: ["bogus" + rows[0][rows[0].index(",") :], *rows[1:]],
                "'bogus' is not a valid Scheme",
            ),
            (lambda rows: rows[:-1], "no score for "),
            (lambda rows: [row for row in rows if row.split(",")[1] != "perf"], "no perf scores"),
            (lambda rows: [row for row in rows if row.split(",")[3] == "1"], "rounds [1] hold no scored round"),
        ],
        ids=["duplicate_row", "unknown_scheme", "missing_row", "no_perf", "only_round_1"],
    )
    def test_malformed_scores_are_data_error(self, tmp_path, capsys, doctor, message):
        out_dir = tmp_path / "out"
        config = write_smoke_config(tmp_path, out_dir)
        assert main(["run", str(config)]) == 0
        for name in ("report.json", "report.csv", "heatmap.csv"):
            (out_dir / name).unlink()
        doctored = out_dir / "fold_0" / "scores.csv"
        header, *rows = doctored.read_text().splitlines()
        doctored.write_text("\n".join([header, *doctor(rows)]) + "\n")
        assert main(["analyze", str(out_dir)]) == 3
        assert message in capsys.readouterr().err
        assert not (out_dir / "report.json").exists()

    def test_refused_analyze_leaves_no_earlier_report(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_smoke_config(tmp_path, out_dir, "experiment.folds = 2\n")
        assert main(["run", str(config)]) == 0
        assert main(["analyze", str(out_dir)]) == 0
        first = {name: (out_dir / name).read_bytes() for name in REPORT_FILES}
        scores = out_dir / "fold_1" / "scores.csv"
        original = scores.read_bytes()
        header, *rows = original.decode().splitlines()
        scores.write_text("\n".join([header, *rows[:-1]]) + "\n")
        assert main(["analyze", str(out_dir)]) == 3
        assert "no score for " in capsys.readouterr().err
        assert [name for name in REPORT_FILES if (out_dir / name).exists()] == []
        scores.write_bytes(original)
        assert main(["analyze", str(out_dir)]) == 0
        assert {name: (out_dir / name).read_bytes() for name in REPORT_FILES} == first


class TestGenerateData:
    def test_shape_and_header(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("data.n = 100\ndata.d = 4\n")
        out = tmp_path / "data.csv"
        assert main(["generate-data", str(spec), str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "f0,f1,f2,f3,s,y"
        assert len(lines) == 101

    def test_deterministic_bytes(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("data.n = 50\ndata.d = 2\nexperiment.master_seed = 9\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate-data", str(spec), str(a)]) == 0
        assert main(["generate-data", str(spec), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_source_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"data.source = csv\ndata.csv_path = {tmp_path / 'in.csv'}\n")
        out = tmp_path / "data.csv"
        assert main(["generate-data", str(spec), str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "data.source" in err[0]
        assert not out.exists()

    def test_imbalance_reflected_in_file(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("data.n = 10000\ndata.d = 2\ndata.group_imbalance = 0.3\n")
        out = tmp_path / "big.csv"
        assert main(["generate-data", str(spec), str(out)]) == 0
        ds = load_csv(out, CsvSchema("y", "s", "1"))
        y1 = ds.labels == 1
        gap = abs(y1[ds.sensitive].mean() - y1[~ds.sensitive].mean())
        assert abs(gap - 0.3) < 0.1


class TestExperimentMachinery:
    def test_failed_fold_recorded_others_survive(self, tmp_path, monkeypatch):
        import fedtrust.experiment as experiment

        real_run_fold = experiment.run_fold

        def flaky(cfg, fold, fold_dir, source=None):
            if fold == 0:
                from fedtrust.errors import NumericError

                raise NumericError("synthetic failure")
            return real_run_fold(cfg, fold, fold_dir, source)

        monkeypatch.setattr(experiment, "run_fold", flaky)
        cfg = ExperimentConfig(
            synthetic_n=80,
            synthetic_d=3,
            partition_mode="iid",
            clients=2,
            rounds=2,
            attack_steps=5,
            folds=2,
            master_seed=3,
            output_dir=str(tmp_path / "flaky"),
        )
        report = run_experiment(cfg)
        assert report.folds == 1
        failures = json.loads((tmp_path / "flaky" / "failures.json").read_text())
        assert failures[0]["fold"] == 0
        assert (tmp_path / "flaky" / "fold_1" / "scores.csv").exists()

    def test_rerun_leaves_no_stale_outputs(self, tmp_path, monkeypatch):
        import fedtrust.experiment as experiment
        from fedtrust.errors import NumericError

        real_run_fold = experiment.run_fold
        out_dir = tmp_path / "rerun"

        def run(master_seed, failing_fold=None):
            def maybe_fail(cfg, fold, fold_dir, source=None):
                if fold == failing_fold:
                    raise NumericError("synthetic failure")
                return real_run_fold(cfg, fold, fold_dir, source)

            monkeypatch.setattr(experiment, "run_fold", maybe_fail)
            cfg = ExperimentConfig(
                synthetic_n=80,
                synthetic_d=3,
                partition_mode="iid",
                clients=2,
                rounds=2,
                attack_steps=5,
                folds=2,
                master_seed=master_seed,
                output_dir=str(out_dir),
            )
            return run_experiment(cfg)

        run(3, failing_fold=0)
        assert (out_dir / "failures.json").exists()
        # a clean rerun drops the earlier run's failure record
        assert run(3).folds == 2
        assert not (out_dir / "failures.json").exists()
        # a fold that fails keeps none of the earlier run's score files
        assert run(4, failing_fold=1).folds == 1
        for name in ("scores.csv", "scores_total.csv", "valuation_meta.json"):
            assert not (out_dir / "fold_1" / name).exists()
        assert json.loads((out_dir / "failures.json").read_text())[0]["fold"] == 1
        assert analyze_run_dir(out_dir).folds == 1

    def test_rerun_with_fewer_folds_drops_the_extra_folds_scores(self, tmp_path):
        out_dir = tmp_path / "shrink"
        cfg = ExperimentConfig(
            synthetic_n=80,
            synthetic_d=3,
            partition_mode="iid",
            clients=2,
            rounds=2,
            attack_steps=5,
            folds=3,
            master_seed=3,
            output_dir=str(out_dir),
        )
        run_experiment(cfg)
        assert run_experiment(dataclasses.replace(cfg, folds=2)).folds == 2
        for name in ("scores.csv", "scores_total.csv", "valuation_meta.json"):
            assert not (out_dir / "fold_2" / name).exists()
        assert (out_dir / "fold_2" / "round_2").is_dir()
        assert analyze_run_dir(out_dir).folds == 2

    def test_rerun_with_fewer_rounds_drops_the_later_rounds(self, tmp_path):
        out_dir = tmp_path / "shorter"
        main(["run", str(write_smoke_config(tmp_path, out_dir, "training.rounds = 4"))])
        assert (out_dir / "fold_0" / "round_4").is_dir()
        assert main(["run", str(write_smoke_config(tmp_path, out_dir))]) == 0
        fresh = tmp_path / "fresh"
        assert main(["run", str(write_smoke_config(tmp_path, fresh))]) == 0

        def files(root):
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        # the rerun's fold matches a fresh two-round run file for file
        assert files(out_dir / "fold_0") == files(fresh / "fold_0")
        assert not (out_dir / "fold_0" / "round_3").exists()

    def test_fold_holds_its_training_rows_at_most_twice(self, tmp_path):
        cfg = ExperimentConfig(
            synthetic_n=5_000,
            synthetic_d=8,
            test_fraction=0.01,
            rounds=2,
            attack_steps=2,
            schemes=(Scheme.LOO,),
            folds=1,
            output_dir=str(tmp_path),
        )
        generated_bytes = cfg.synthetic_n * (8 * cfg.synthetic_d + 8 + 1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_fold(cfg, 0, tmp_path / "fold_0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the fold draws its rows into their place, so its peak is the data
        # stage's draw plus index arrays and temporaries (about 1.75x at
        # this size); never a second copy of the rows
        assert (peak - start) / generated_bytes < 2.0

    def test_fold_data_is_drawn_into_one_read_only_array(self):
        cfg = ExperimentConfig(synthetic_n=40_000, synthetic_d=8, test_fraction=0.01, schemes=(Scheme.LOO,))
        generated_bytes = cfg.synthetic_n * (8 * cfg.synthetic_d + 8 + 1)
        fold_seed = cfg.fold_seed(0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            parts, test = fold_split(cfg, fold_seed, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the draw, the placed labels and the index arrays (about 1.4x); a
        # fold that split a generated copy peaked at 2.43x
        assert (peak - start) / generated_bytes < 1.6
        for name in ("features", "labels", "sensitive"):
            arrays = [getattr(ds, name) for ds in (*parts, test)]
            base = arrays[0].base
            assert base is not None and len(base) == cfg.synthetic_n, name
            assert not base.flags.writeable, name
            assert all(a.base is base and np.shares_memory(a, base) for a in arrays), name

    def test_failed_rerun_keeps_no_earlier_report_or_checkpoints(self, tmp_path, capsys):
        out_dir = tmp_path / "diverged"
        assert main(["run", str(write_smoke_config(tmp_path, out_dir, "training.rounds = 4"))]) == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "fold_0" / "round_4").is_dir()
        diverging = "training.rounds = 4\ntraining.learning_rate = 1e300"
        assert main(["run", str(write_smoke_config(tmp_path, out_dir, diverging))]) == 4
        for name in ("report.json", "report.csv", "heatmap.csv"):
            assert not (out_dir / name).exists()
        # the fold diverged in round 2: it keeps the one round it reached
        assert "round 2" in json.loads((out_dir / "failures.json").read_text())[0]["error"]
        assert [p.name for p in (out_dir / "fold_0").glob("round_*")] == ["round_1"]


class TestOutputErrors:
    """A file or directory that cannot be written exits 5 with one error line."""

    def assert_output_error(self, capsys, code, root, names):
        assert code == 5
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write ")
        assert names in err[0]
        assert list(root.rglob(".*.tmp")) == []

    def test_fold_directory_taken_by_a_file(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_smoke_config(tmp_path, out_dir)
        assert main(["run", str(config)]) == 0
        shutil.rmtree(out_dir / "fold_0")
        (out_dir / "fold_0").write_text("not a directory\n")
        capsys.readouterr()
        self.assert_output_error(capsys, main(["run", str(config)]), tmp_path, "fold_0")
        # the earlier run's report is gone and no new one was written
        assert not any((out_dir / name).exists() for name in REPORT_FILES)

    def test_output_directory_under_a_file(self, tmp_path, capsys):
        (tmp_path / "plain").write_text("a file\n")
        out_dir = tmp_path / "plain" / "out"
        code = main(["run", str(write_smoke_config(tmp_path, out_dir))])
        self.assert_output_error(capsys, code, tmp_path, str(out_dir))
        assert (tmp_path / "plain").read_text() == "a file\n"

    def test_stale_report_taken_by_a_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        (out_dir / "report.csv").mkdir(parents=True)
        code = main(["run", str(write_smoke_config(tmp_path, out_dir))])
        self.assert_output_error(capsys, code, tmp_path, "report.csv")
        assert not (out_dir / "fold_0").exists()

    def test_analyze_with_report_taken_by_a_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", str(write_smoke_config(tmp_path, out_dir))]) == 0
        (out_dir / "report.json").unlink()
        (out_dir / "report.json").mkdir()
        capsys.readouterr()
        code = main(["analyze", str(out_dir)])
        self.assert_output_error(capsys, code, tmp_path, "report.json")
        assert (out_dir / "report.json").is_dir()


class DiskFull:
    """Counts the program's file writes and directory creations, and makes
    the ``fail_at``-th one raise ENOSPC, as a full disk would (0: none).

    A file write is the open of ``atomic_open``'s temp file: the temp file
    is created before the error, so ``atomic_open`` must remove it. A
    directory creation fails before the directory exists.
    """

    def __init__(self, monkeypatch, fail_at=0):
        self.fail_at, self.count = fail_at, 0
        real_mkdir = pathlib.Path.mkdir

        def mkdir(path, *args, **kwargs):
            self.tick(path)
            return real_mkdir(path, *args, **kwargs)

        def open_temp(path, *args, **kwargs):
            handle = open(path, *args, **kwargs)
            try:
                self.tick(path)
            except OSError:
                handle.close()
                raise
            return handle

        monkeypatch.setattr(pathlib.Path, "mkdir", mkdir)
        monkeypatch.setattr(atomic, "open", open_temp, raising=False)

    def tick(self, path):
        self.count += 1
        if self.count == self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


def files(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestWriteFaultSweep:
    """For every n, the n-th file write or directory creation of a two-fold
    smoke run, or of ``analyze`` over its scores, fails with ENOSPC. The
    command exits 5 with one ``error:`` line naming a path, leaves no temp
    file and no report without every fold's scores, and a clean rerun into
    the same directory gives the bytes of an uninterrupted run."""

    FOLDS = 2

    @pytest.fixture
    def reference(self, tmp_path):
        out_dir = tmp_path / "reference" / "out"
        out_dir.parent.mkdir()
        config = write_smoke_config(out_dir.parent, out_dir, f"experiment.folds = {self.FOLDS}")
        assert main(["run", str(config)]) == 0
        return out_dir

    def sweep(self, tmp_path, capsys, monkeypatch, command, start, reference):
        """Sweeps the fault over every position of ``command`` on an output
        directory in state ``start``; returns how many positions it had."""
        expected = files(reference)

        def case(n):
            root = tmp_path / start.replace(" ", "_") / str(n)
            root.mkdir(parents=True)
            out_dir = root / "out"
            if start != "empty":
                shutil.copytree(reference, out_dir)
            if start == "no report":
                for name in REPORT_FILES:
                    (out_dir / name).unlink()
            config = write_smoke_config(root, out_dir, f"experiment.folds = {self.FOLDS}")
            return out_dir, [command, str(config if command == "run" else out_dir)]

        out_dir, argv = case(0)
        with monkeypatch.context() as patch:
            counted = DiskFull(patch)
            assert main(argv) == 0
        for n in range(1, counted.count + 1):
            out_dir, argv = case(n)
            capsys.readouterr()
            with monkeypatch.context() as patch:
                DiskFull(patch, fail_at=n)
                code = main(argv)
            err = capsys.readouterr().err.splitlines()
            assert code == 5, f"fault {n}: exit {code}"
            assert len(err) == 1 and err[0].startswith("error: cannot write "), f"fault {n}: {err}"
            assert str(out_dir) in err[0] and os.strerror(errno.ENOSPC) in err[0], err[0]
            assert list(tmp_path.rglob(".*.tmp")) == [], f"fault {n}"
            if any((out_dir / name).exists() for name in REPORT_FILES):
                scores = [out_dir / f"fold_{f}" / "scores.csv" for f in range(self.FOLDS)]
                assert all(path.exists() for path in scores), f"fault {n}"
            assert main(argv) == 0
            assert files(out_dir) == expected, f"fault {n}"
        return counted.count

    @pytest.mark.parametrize("start", ["empty", "earlier run"])
    def test_run(self, tmp_path, capsys, monkeypatch, reference, start):
        faults = self.sweep(tmp_path, capsys, monkeypatch, "run", start, reference)
        # at least one write per output file
        assert faults >= len(files(reference))

    @pytest.mark.parametrize("start", ["earlier run", "no report"])
    def test_analyze(self, tmp_path, capsys, monkeypatch, reference, start):
        faults = self.sweep(tmp_path, capsys, monkeypatch, "analyze", start, reference)
        assert faults >= len(REPORT_FILES)
