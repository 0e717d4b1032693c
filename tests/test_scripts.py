"""The scripts import only names the package still defines, and run.

A script does not run its ``main`` at import, so importing one checks every
``fedtrust`` name it uses without doing its work; one seed of
``scheme_agreement`` then checks the methods it calls, and canned result
lines check how ``bench_pairs`` assembles a BENCH file, and a scratch git
repository how it exports the parent revision.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["scheme_agreement", "bench_pairs"])
def test_script_imports(name):
    assert callable(load(name).main)


def test_scheme_agreement_one_seed():
    result, gtg_requested, exact_requested = load("scheme_agreement").one_seed(0, 0.05)
    assert not result.degenerate
    assert result.phi == pytest.approx(1.0)
    # distinct coalitions requested: exact asks for all 2^4 in each of 10 rounds
    assert (gtg_requested, exact_requested) == (105, 160)


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


def test_bench_pairs_runs_what_the_benchmark_fixes():
    seconds, names = load("bench_pairs").benchmark(SCRIPTS.parent)
    assert seconds > 0
    assert names and all((SCRIPTS.parent / "perfbench" / "workloads" / f"{n}.txt").is_file() for n in names)


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
