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
the traced run's result. A run that prints no result line (say, its set-up
probe failed) is kept in the file as failed, with its exit code and the
last line of its stderr, in place of its values, and the script goes on.
A run whose result reads ``correct: false`` keeps the first ``CHECK FAILED``
line of its stderr under ``check``. The export is removed when the script
ends.

A gain is claimed from the pairs, not from this file's medians alone: the
change must be better in at least 9 of every 10 pairs, and its median better
than the parent's by more than the distance between the quartiles of the
parent's runs. After writing the file, the script prints to stderr, for each
workload and end-to-end metric, the change's wins out of the pairs (ties
count for neither side; ``better`` in ``BENCHMARK.json`` gives the
direction), both medians, the parent's quartile distance and whether that
rule holds, and then each failed run: one that printed no result, and one
whose checks failed, beside the other side's ``correct`` at the same seed,
so that a check that fails on both sides reads as the seed's, not the
change's.
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
COMMAND = "python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0|1"
DESCRIPTION = (
    "perfbench/run.py on the parent commit ({parent}) and on this change ({change}). "
    "For each workload and side: median_trace0 is each end-to-end metric's median over "
    "the --trace 0 runs, trace0_runs the values of every such run (the same seeds on "
    "both sides, pairs alternating which side runs first), trace1 the last JSON line of "
    "one --trace 1 run at seed {trace_seed}."
)


def benchmark(root: Path) -> tuple[float, list[str], dict[str, str]]:
    """What ``BENCHMARK.json`` fixes: the run length, the workload names and
    each end-to-end metric's better direction, ``lower`` or ``higher``, in
    the file's order."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return (
        float(spec["run_seconds"]),
        [w["name"] for w in spec["workloads"]],
        {metric["name"]: metric["better"] for metric in spec["end_to_end"]},
    )


SECONDS, WORKLOADS, BETTER = benchmark(ROOT)


def claim_rule(workloads: dict, better: dict[str, str]) -> list[dict]:
    """For each workload of a BENCH file's ``workloads`` and each metric of
    ``better``: the pairs, the change's wins (strictly better; a tie is no
    win), both sides' medians over the pairs, the parent's quartile distance
    (``statistics.quantiles``, exclusive method; 0 below two pairs) and
    whether the claim rule holds."""
    rows = []
    for workload, block in workloads.items():
        for name, direction in better.items():
            by_pair: dict[int, dict] = {}
            for side in SIDES:
                for run in block[side]["trace0_runs"]:
                    if name in run:
                        by_pair.setdefault(run["pair"], {})[side] = run[name]
            pairs = [pair for pair in by_pair.values() if len(pair) == len(SIDES)]
            if not pairs:
                continue
            sign = 1 if direction == "higher" else -1
            parent = [pair["parent"] for pair in pairs]
            change = [pair["change"] for pair in pairs]
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else [0.0, 0.0, 0.0]
            medians = statistics.median(parent), statistics.median(change)
            spread = quartiles[2] - quartiles[0]
            rows.append({
                "workload": workload,
                "metric": name,
                "better": direction,
                "wins": wins,
                "pairs": len(pairs),
                "parent_median": medians[0],
                "change_median": medians[1],
                "parent_quartile_distance": spread,
                "holds": 10 * wins >= 9 * len(pairs) and sign * (medians[1] - medians[0]) > spread,
            })
    return rows


def claim_line(row: dict) -> str:
    return (
        f"{row['workload']} {row['metric']} ({row['better']} is better): change better in "
        f"{row['wins']}/{row['pairs']} pairs, median {row['parent_median']:.6g} -> "
        f"{row['change_median']:.6g}, parent quartile distance "
        f"{row['parent_quartile_distance']:.6g}: claim rule {'holds' if row['holds'] else 'does not hold'}\n"
    )


class NoResult(Exception):
    """A ``perfbench/run.py`` run that printed no result line."""

    def __init__(self, exit_code: int, stderr: str):
        lines = stderr.strip().splitlines()
        self.record = {"exit_code": exit_code, "stderr": lines[-1] if lines else ""}
        super().__init__(f"exited with {exit_code} and no result: {self.record['stderr']}")


def parse_result(stdout: str) -> dict:
    """The JSON result that ``perfbench/run.py`` prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench/run.py printed no result")
    return json.loads(lines[-1])


def run_entry(result: dict, seed: int, pair: int, first: str) -> dict:
    """One ``--trace 0`` run's record: its pair, its checks (with its first
    failed one, if any) and its end-to-end metric values."""
    entry = {
        "seed": seed,
        "pair": pair,
        "first": first,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    if "check" in result:
        entry["check"] = result["check"]
    for name in BETTER:
        if name in result["metrics"]:
            entry[name] = result["metrics"][name]["value"]
    return entry


def paired_runs(seeds: list[int], run) -> dict[str, list[dict]]:
    """Each side's :func:`run_entry` records, one pair of runs per seed,
    alternating which side runs first; ``run(side, seed)`` runs one and
    returns its result. A run that raises :class:`NoResult` is recorded
    with its exit code and last stderr line in place of its values."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair, seed in enumerate(seeds):
        first = SIDES[pair % 2]
        for side in (first, SIDES[1 - pair % 2]):
            try:
                entry = run_entry(run(side, seed), seed, pair, first)
            except NoResult as exc:
                entry = {"seed": seed, "pair": pair, "first": first, **exc.record}
            runs[side].append(entry)
    return runs


def failure_lines(workloads: dict) -> list[str]:
    """One line per failed run, traced or not, of a BENCH file's
    ``workloads``: a run with no result, and a run whose checks failed, with
    the other side's ``correct`` at the same seed."""
    lines = []
    for workload, block in workloads.items():
        runs = {
            side: {
                f"pair {run['pair']}" if "pair" in run else "--trace 1": run
                for run in [*block[side]["trace0_runs"], block[side]["trace1"]]
            }
            for side in SIDES
        }
        for side, other in zip(SIDES, SIDES[::-1]):
            for where, run in runs[side].items():
                head = f"{workload} {side} {where} seed {run.get('seed', TRACE_SEED)}"
                if "exit_code" in run:
                    lines.append(f"{head}: exited with {run['exit_code']} and no result: {run['stderr']}\n")
                elif "check" in run:
                    twin = runs[other].get(where, {})
                    twin_state = (
                        f"correct {json.dumps(twin['correct'])}" if "correct" in twin else "no result"
                    )
                    lines.append(f"{head}: {run['check']}; {other} at this seed: {twin_state}\n")
    return lines


def side_block(runs: list[dict], trace1: dict) -> dict:
    medians = {}
    for name in BETTER:
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
        result = parse_result(proc.stdout)
    except ValueError as exc:
        raise NoResult(proc.returncode, proc.stderr) from exc
    if not result["correct"]:
        checks = [line for line in proc.stderr.splitlines() if line.startswith("CHECK FAILED ")]
        result["check"] = checks[0] if checks else ""
    return result


def traced(checkout: Path, workload: str) -> dict:
    """The ``--trace 1`` run's result at ``TRACE_SEED``, or its failure record."""
    try:
        return bench(checkout, workload, TRACE_SEED, SECONDS, 1)
    except NoResult as exc:
        return {"seed": TRACE_SEED, **exc.record}


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

    workloads = {}
    with parent_checkout(ROOT, args.parent) as parent:
        checkouts = {"parent": parent, "change": ROOT}
        for i, name in enumerate(WORKLOADS):

            def run(side: str, seed: int) -> dict:
                result = bench(checkouts[side], name, seed, SECONDS, 0)
                rate = result["metrics"].get("client_rounds_per_s", {}).get("value", float("nan"))
                sys.stderr.write(f"{name} seed {seed} {side}: client_rounds_per_s {rate:.3f}, correct {result['correct']}\n")
                return result

            first = args.seed + 1000 * i
            seeds = list(range(first, first + PAIRS))
            runs = paired_runs(seeds, run)
            traces = {side: traced(checkouts[side], name) for side in SIDES}
            workloads[name] = workload_block(seeds, runs, traces)

    description = DESCRIPTION.format(parent=args.parent, change=args.change, trace_seed=TRACE_SEED)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(assemble(description, SECONDS, machine_info(), workloads), indent=1) + "\n")
    sys.stderr.write(f"wrote {out}\n")
    for row in claim_rule(workloads, BETTER):
        sys.stderr.write(claim_line(row))
    for line in failure_lines(workloads):
        sys.stderr.write(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
