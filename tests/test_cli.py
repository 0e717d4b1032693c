import json
import os

import pytest

from fedtrust.cli import main
from fedtrust.config import ExperimentConfig
from fedtrust.data import CsvSchema, load_csv
from fedtrust.experiment import run_experiment, worker_count
from fedtrust.valuation import read_scores_csv

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
    path = tmp_path / "config.txt"
    path.write_text(SMOKE + f"experiment.output_dir = {out_dir}\n" + extra)
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
    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("FEDTRUST_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("FEDTRUST_THREADS", "0")
        assert worker_count() == (os.cpu_count() or 1)
        monkeypatch.delenv("FEDTRUST_THREADS")
        assert worker_count() == 1

    def test_parallel_folds_match_serial(self, tmp_path, monkeypatch):
        cfg_serial = ExperimentConfig(
            synthetic_n=80,
            synthetic_d=3,
            partition_mode="iid",
            clients=2,
            rounds=2,
            attack_steps=5,
            folds=2,
            master_seed=3,
            output_dir=str(tmp_path / "serial"),
        )
        monkeypatch.setenv("FEDTRUST_THREADS", "1")
        run_experiment(cfg_serial)
        cfg_par = ExperimentConfig(
            **{
                **cfg_serial.__dict__,
                "output_dir": str(tmp_path / "parallel"),
                "partition_mode": cfg_serial.partition_mode,
                "schemes": cfg_serial.schemes,
                "truncation_rule": cfg_serial.truncation_rule,
            }
        )
        monkeypatch.setenv("FEDTRUST_THREADS", "2")
        run_experiment(cfg_par)
        for fold in ("fold_0", "fold_1"):
            a = (tmp_path / "serial" / fold / "scores.csv").read_bytes()
            b = (tmp_path / "parallel" / fold / "scores.csv").read_bytes()
            assert a == b

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
