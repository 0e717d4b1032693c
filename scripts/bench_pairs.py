"""Benchmark a parent revision against this checkout in same-seed pairs.

    python3 scripts/bench_pairs.py --pr N --parent REV --change TEXT --seed FIRST

Exports REV with ``git archive`` into a temporary directory, then, for each
workload of ``BENCHMARK.json`` (the i-th in its order on seeds
FIRST + 1000 i, FIRST + 1000 i + 1, ...), runs
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds`` in both
checkouts, one pair per seed, alternating which side runs first, and one
``--trace 1`` run per side at seed 3. The change side is this checkout's
working tree. Writes ``BENCH_<N>.json`` at the root of this checkout in the
shape of the earlier BENCH files: per workload and side, each end-to-end
metric's median over the ``--trace 0`` runs, every such run's values, and
the traced run's result. The export is removed when the script ends.

A gain is claimed from the pairs (the change better in most of them, by
more than the parent's own spread), not from this file's medians alone.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
TRACE_SEED = 3
END_TO_END = ("run_s", "setup_s", "client_rounds_per_s", "peak_rss_mb", "output_mb")
COMMAND = "python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0|1"
DESCRIPTION = (
    "perfbench/run.py on the parent commit ({parent}) and on this change ({change}). "
    "For each workload and side: median_trace0 is each end-to-end metric's median over "
    "the --trace 0 runs, trace0_runs the values of every such run (the same seeds on "
    "both sides, pairs alternating which side runs first), trace1 the last JSON line of "
    "one --trace 1 run at seed {trace_seed}."
)


def benchmark(root: Path) -> tuple[float, list[str]]:
    """The run length and the workload names that ``BENCHMARK.json`` fixes."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return float(spec["run_seconds"]), [w["name"] for w in spec["workloads"]]


def parse_result(stdout: str) -> dict:
    """The JSON result that ``perfbench/run.py`` prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench/run.py printed no result")
    return json.loads(lines[-1])


def run_entry(result: dict, seed: int, pair: int, first: str) -> dict:
    """One ``--trace 0`` run's record: its pair, its checks and its
    end-to-end metric values."""
    entry = {
        "seed": seed,
        "pair": pair,
        "first": first,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    for name in END_TO_END:
        if name in result["metrics"]:
            entry[name] = result["metrics"][name]["value"]
    return entry


def paired_runs(seeds: list[int], run) -> dict[str, list[dict]]:
    """Each side's :func:`run_entry` records, one pair of runs per seed,
    alternating which side runs first; ``run(side, seed)`` runs one and
    returns its result."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair, seed in enumerate(seeds):
        first = SIDES[pair % 2]
        for side in (first, SIDES[1 - pair % 2]):
            runs[side].append(run_entry(run(side, seed), seed, pair, first))
    return runs


def side_block(runs: list[dict], trace1: dict) -> dict:
    medians = {}
    for name in END_TO_END:
        values = [run[name] for run in runs if name in run]
        if values:
            medians[name] = statistics.median(values)
    return {"median_trace0": medians, "trace0_runs": runs, "trace1": trace1}


def workload_block(seeds: list[int], runs: dict, traces: dict) -> dict:
    """``runs[side]`` holds the side's :func:`run_entry` records and
    ``traces[side]`` its ``--trace 1`` result."""
    block = {"trace0_seeds": seeds, "trace1_seed": TRACE_SEED}
    for side in SIDES:
        block[side] = side_block(runs[side], traces[side])
    return block


def assemble(description: str, seconds: float, machine: dict, workloads: dict) -> dict:
    return {
        "description": description,
        "command": COMMAND.format(seconds=seconds),
        "window_s": seconds,
        "machine": machine,
        "workloads": workloads,
    }


def machine_info() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    # perfbench/run.py pins itself and its children to one CPU
    return {"cpu_count": os.cpu_count(), "cpus_used": 1, "python": platform.python_version(), "numpy": numpy}


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    args = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    try:
        return parse_result(proc.stdout)
    except ValueError as exc:
        raise SystemExit(
            f"{' '.join(args)} in {checkout} exited with {proc.returncode} and no result ({exc}):\n"
            f"{proc.stderr[-2000:]}"
        ) from exc


@contextmanager
def parent_checkout(root: Path, rev: str):
    """The committed files of ``rev`` in the git repository at ``root``,
    exported into a temporary directory that is removed afterwards."""
    tar = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev], capture_output=True, check=True)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as scratch:
        with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
            archive.extractall(scratch, filter="data")
        yield Path(scratch)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--change", required=True, help="what the change does, for the description")
    parser.add_argument("--seed", required=True, type=int, help="the first workload's first seed")
    args = parser.parse_args(argv)
    seconds, names = benchmark(ROOT)

    workloads = {}
    with parent_checkout(ROOT, args.parent) as parent:
        checkouts = {"parent": parent, "change": ROOT}
        for i, name in enumerate(names):

            def run(side: str, seed: int) -> dict:
                result = bench(checkouts[side], name, seed, seconds, 0)
                rate = result["metrics"].get("client_rounds_per_s", {}).get("value", float("nan"))
                sys.stderr.write(f"{name} seed {seed} {side}: client_rounds_per_s {rate:.3f}, correct {result['correct']}\n")
                return result

            first = args.seed + 1000 * i
            seeds = list(range(first, first + PAIRS))
            runs = paired_runs(seeds, run)
            traces = {side: bench(checkouts[side], name, TRACE_SEED, seconds, 1) for side in SIDES}
            workloads[name] = workload_block(seeds, runs, traces)

    description = DESCRIPTION.format(parent=args.parent, change=args.change, trace_seed=TRACE_SEED)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(assemble(description, seconds, machine_info(), workloads), indent=1) + "\n")
    sys.stderr.write(f"wrote {out}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
