"""The scripts import only names the package still defines, and run.

A script does not run its ``main`` at import, so importing one checks every
``fedtrust`` name it uses without doing its work; one seed of
``scheme_agreement`` then checks the methods it calls, a run of it with no
``PYTHONPATH`` that it finds the checkout's package, a run of
``memory_stages`` on the smoke config checks what it prints, and canned result
lines check how ``bench_pairs`` assembles a BENCH file, a run that fails
how it keeps the other pairs, a run that fails a check how it keeps that
check beside the other side's result, synthetic run records how it checks
the claim rule, and a scratch git repository how it exports the parent
revision.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["scheme_agreement", "bench_pairs", "memory_stages"])
def test_script_imports(name):
    assert callable(load(name).main)


def test_scheme_agreement_one_seed():
    result, gtg_requested, exact_requested = load("scheme_agreement").one_seed(0, 0.05)
    assert not result.degenerate
    assert result.phi == pytest.approx(1.0)
    # distinct coalitions requested: exact asks for all 2^4 in each of 10 rounds
    assert (gtg_requested, exact_requested) == (105, 160)


def test_scheme_agreement_runs_from_a_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "scheme_agreement.py"), "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "median phi = +1.000"


def test_memory_stages_prints_a_peak_per_stage_of_the_smoke_fold():
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "memory_stages.py"), str(SCRIPTS.parent / "configs" / "smoke.txt")],
        capture_output=True,
        text=True,
        check=True,
    )
    figures = json.loads(run.stdout.splitlines()[-1])
    assert list(figures) == ["after_fold_split_mb", "after_run_training_mb", "after_score_rounds_mb"]
    peaks = list(figures.values())
    # a peak never falls
    assert 0 < peaks[0] <= peaks[1] <= peaks[2]


def result_line(correct, run_s, rss):
    """A canned last line of a ``perfbench/run.py --trace 0`` run."""
    metrics = {
        "run_s": (run_s, "s"),
        "setup_s": (0.2, "s"),
        "client_rounds_per_s": (20.0 / run_s, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "output_mb": (0.1, "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0, "metrics": metrics})


def keys(tree, depth):
    """The nested dict keys of ``tree`` down to ``depth`` levels, a list of
    dicts by its first item's."""
    if depth == 0:
        return None
    if isinstance(tree, dict):
        return {k: keys(v, depth - 1) for k, v in tree.items()}
    if isinstance(tree, list) and tree and isinstance(tree[0], dict):
        return [keys(tree[0], depth - 1)]
    return None


def test_bench_pairs_assembles_runs_in_the_bench_file_shape():
    bench = load("bench_pairs")
    stdout = {
        "parent": ["log line\n" + result_line(True, t, 50.0) for t in (1.0, 1.2, 1.1)],
        "change": [result_line(ok, t, 50.5) for ok, t in ((True, 0.8), (False, 0.9), (True, 1.0))],
    }
    seeds = [22101, 22102, 22103]
    calls = []

    def run(side, seed):
        calls.append((side, seed))
        return bench.parse_result(stdout[side][seeds.index(seed)])

    runs = bench.paired_runs(seeds, run)
    assert calls == [
        ("parent", 22101), ("change", 22101),
        ("change", 22102), ("parent", 22102),
        ("parent", 22103), ("change", 22103),
    ]
    committed = json.loads((SCRIPTS.parent / "BENCH_13.json").read_text())
    trace = committed["workloads"]["train_heavy"]["parent"]["trace1"]
    block = bench.workload_block(seeds, runs, {"parent": trace, "change": trace})
    machine = {"cpu_count": 2, "cpus_used": 1, "python": "3", "numpy": "2"}
    doc = bench.assemble("text", 30, machine, {"train_heavy": block})

    assert [r["first"] for r in block["parent"]["trace0_runs"]] == ["parent", "change", "parent"]
    assert [r["seed"] for r in block["change"]["trace0_runs"]] == seeds
    assert [r["correct"] for r in block["change"]["trace0_runs"]] == [True, False, True]
    assert block["parent"]["median_trace0"]["run_s"] == 1.1
    assert block["change"]["median_trace0"]["client_rounds_per_s"] == 20.0 / 0.9
    assert block["change"]["median_trace0"]["peak_rss_mb"] == 50.5
    assert block["parent"]["trace1"] == trace
    assert doc["command"] == "python3 perfbench/run.py --workload W --seed N --seconds 30 --trace 0|1"
    # the shape of the committed BENCH_13.json
    assert keys(doc, 2) == {**keys(committed, 2), "workloads": {"train_heavy": None}}
    assert keys(block, 4) == keys(committed["workloads"]["train_heavy"], 4)


def test_bench_pairs_rejects_empty_output():
    with pytest.raises(ValueError):
        load("bench_pairs").parse_result("\n")


def test_bench_pairs_keeps_the_pairs_when_a_run_prints_no_result(tmp_path):
    bench = load("bench_pairs")
    # a checkout whose run fails its set-up probe: exit 1, no result line
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nsys.stderr.write('probing\\nset-up probe failed\\n')\nsys.exit(1)\n"
    )
    with pytest.raises(bench.NoResult) as failed:
        bench.bench(tmp_path, "default", 7, 1.0, 0)
    assert failed.value.record == {"exit_code": 1, "stderr": "set-up probe failed"}
    assert bench.traced(tmp_path, "default") == {"seed": bench.TRACE_SEED, **failed.value.record}

    seeds = [30101, 30102, 30103]

    def run(side, seed):
        if (side, seed) == ("change", 30102):
            raise failed.value
        return bench.parse_result(result_line(True, 1.0 + (seed - 30101) / 10, 50.0))

    runs = bench.paired_runs(seeds, run)
    assert runs["change"][1] == {
        "seed": 30102, "pair": 1, "first": "change", "exit_code": 1, "stderr": "set-up probe failed"
    }
    assert [r["seed"] for r in runs["parent"]] == seeds
    trace = bench.parse_result(result_line(True, 1.0, 50.0))
    failed_trace = {"seed": bench.TRACE_SEED, **failed.value.record}
    block = bench.workload_block(seeds, runs, {"parent": trace, "change": failed_trace})
    assert block["change"]["median_trace0"]["run_s"] == 1.1  # the median of 1.0 and 1.2
    # the pair that lacks its change run is left out of the claim
    assert {row["pairs"] for row in bench.claim_rule({"w": block}, bench.BETTER)} == {2}
    assert bench.failure_lines({"w": block}) == [
        "w change pair 1 seed 30102: exited with 1 and no result: set-up probe failed\n",
        f"w change --trace 1 seed {bench.TRACE_SEED}: exited with 1 and no result: set-up probe failed\n",
    ]


def test_bench_pairs_keeps_the_first_failed_check_beside_the_other_side(tmp_path):
    bench = load("bench_pairs")
    # a checkout whose run fails a check: exit 1 after its result line
    (tmp_path / "perfbench").mkdir()
    failed_check = "CHECK FAILED fold 0: final test accuracy 0.4975 is not 0.25 above"
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        f"sys.stderr.write('final accuracy: 0.0\\n{failed_check}\\nCHECK FAILED second\\n')\n"
        f"print({result_line(False, 1.0, 50.0)!r})\n"
        "sys.exit(1)\n"
    )
    failing = bench.bench(tmp_path, "train_heavy", 16106, 1.0, 0)
    assert (failing["correct"], failing["check"]) == (False, failed_check)

    # seed 16106 fails on both sides, 16107 on the change only
    seeds = [16106, 16107, 16108]

    def run(side, seed):
        if seed == 16106 or (side, seed) == ("change", 16107):
            return dict(failing)
        return bench.parse_result(result_line(True, 1.0, 50.0))

    runs = bench.paired_runs(seeds, run)
    assert [r.get("check") for r in runs["change"]] == [failed_check, failed_check, None]
    assert [r.get("check") for r in runs["parent"]] == [failed_check, None, None]
    # a run whose checks passed keeps the shape of the earlier BENCH files
    assert list(runs["parent"][1]) == ["seed", "pair", "first", "correct", "attempted", "failed", *bench.BETTER]
    trace = bench.parse_result(result_line(True, 1.0, 50.0))
    block = bench.workload_block(seeds, runs, {"parent": trace, "change": trace})
    assert bench.failure_lines({"train_heavy": block}) == [
        f"train_heavy parent pair 0 seed 16106: {failed_check}; change at this seed: correct false\n",
        f"train_heavy change pair 0 seed 16106: {failed_check}; parent at this seed: correct false\n",
        f"train_heavy change pair 1 seed 16107: {failed_check}; parent at this seed: correct true\n",
    ]


def test_bench_pairs_runs_what_the_benchmark_fixes():
    seconds, names, better = load("bench_pairs").benchmark(SCRIPTS.parent)
    assert seconds > 0
    assert names and all((SCRIPTS.parent / "perfbench" / "workloads" / f"{n}.txt").is_file() for n in names)
    assert set(better.values()) <= {"lower", "higher"}
    # the end-to-end metrics in the order the committed BENCH files hold them
    committed = json.loads((SCRIPTS.parent / "BENCH_13.json").read_text())
    assert list(better) == list(committed["workloads"]["train_heavy"]["parent"]["median_trace0"])


def test_bench_pairs_exports_the_parent_revision_and_removes_it(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    run_py = repo / "perfbench" / "run.py"
    run_py.write_text("parent\n")

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args], check=True, capture_output=True)

    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "parent")
    run_py.write_text("change\n")
    with load("bench_pairs").parent_checkout(repo, "HEAD") as parent:
        assert (parent / "perfbench" / "run.py").read_text() == "parent\n"
        assert not (parent / ".git").exists()
    assert not parent.exists()
    # nothing registered in the repository: no worktree, no change to its files
    assert run_py.read_text() == "change\n"
    worktrees = subprocess.run(["git", "-C", str(repo), "worktree", "list"], capture_output=True, text=True, check=True)
    assert len(worktrees.stdout.splitlines()) == 1


def test_bench_pairs_claim_rule_counts_wins_per_pair():
    bench = load("bench_pairs")
    parent_rss = [50.0, 50.2, 50.1, 50.4, 50.3, 50.0, 50.2, 50.1, 50.3, 50.2]
    change_rss = [45.0, 45.1, 45.2, 50.4, 45.1, 45.0, 45.3, 45.2, 45.1, 45.0]  # pair 3 ties
    parent_rate = [20.0, 21.0, 19.0, 20.5, 20.0, 19.5, 20.0, 21.0, 20.0, 19.0]
    change_rate = [20.5, 21.5, 19.5, 21.0, 20.5, 20.0, 20.5, 21.5, 20.5, 18.0]

    def runs(rss, rate):
        return [{"pair": i, "peak_rss_mb": m, "client_rounds_per_s": r} for i, (m, r) in enumerate(zip(rss, rate))]

    workloads = {
        "w": {
            "parent": {"trace0_runs": runs(parent_rss, parent_rate)},
            "change": {"trace0_runs": runs(change_rss, change_rate)[::-1]},
        }
    }
    better = {"peak_rss_mb": "lower", "client_rounds_per_s": "higher", "run_s": "lower"}
    rss, rate = bench.claim_rule(workloads, better)  # no run holds run_s
    # the tie counts for neither side: 9 wins of 10, enough
    assert (rss["wins"], rss["pairs"]) == (9, 10)
    assert (rss["parent_median"], rss["change_median"]) == (50.2, 45.1)
    assert rss["parent_quartile_distance"] == pytest.approx(50.3 - 50.075)
    assert rss["holds"]
    # higher is better: 9 of 10 pairs are wins, but the median gap of 0.5 is
    # inside the parent's quartile distance of 1.25
    assert (rate["better"], rate["wins"]) == ("higher", 9)
    assert rate["change_median"] - rate["parent_median"] == 0.5
    assert rate["parent_quartile_distance"] == pytest.approx(1.25)
    assert not rate["holds"]
    assert "9/10 pairs" in bench.claim_line(rss) and bench.claim_line(rate).endswith("does not hold\n")
    # each pair's change/parent ratio: rss from 45.0/50.2 to the tie's 1.0,
    # rate from pair 9's 18.0/19.0 to pair 2's 19.5/19.0
    assert (rss["ratio_min"], rss["ratio_median"], rss["ratio_max"]) == (45.0 / 50.2, 0.9, 1.0)
    assert (rate["ratio_min"], rate["ratio_median"], rate["ratio_max"]) == (18.0 / 19.0, 1.025, 19.5 / 19.0)
    assert bench.claim_line(rss).endswith(
        ", change/parent per pair min 0.8964, median 0.9, max 1: claim rule holds\n"
    )
    assert bench.benchmark(SCRIPTS.parent)[2]["client_rounds_per_s"] == "higher"
