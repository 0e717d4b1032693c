"""fedtrust benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` there, never from an installed copy. Each CLI run is a fresh
``python3 -m fedtrust.cli run`` process on a config the benchmark writes
from ``perfbench/workloads/NAME.txt`` plus ``experiment.master_seed = N``,
with FEDTRUST_THREADS unset. With ``--trace 0`` the benchmark repeats CLI
runs for about S seconds (at least two, so that determinism is checked) and
reports the end-to-end metrics, its times scaled to a reference CPU pace
(see ``PaceSampler``); with ``--trace 1`` it makes one untraced and one
traced run and reports the per-layer metrics. Every output
is checked; the last line of standard output is the JSON result, and the
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# numpy and scipy (for the checks) are imported only after the last child
# has exited. A child's peak RSS as wait4 reports it includes the RSS of
# this process at spawn time, since the child starts as a copy of it; a
# parent without numpy stays well below any fedtrust process.

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"

# name -> the accuracy lead over the majority class the final model must
# show (None: not checked). Only train_heavy trains long enough to expect it.
WORKLOADS = {"default": None, "clients8_gtg": None, "train_heavy": 0.25}
# Set-up probes timed before each CLI run, spread over the window.
SETUP_PER_RUN = 3
# The pace sampler runs a chunk of PACE_CHUNK_ITERATIONS loop steps every
# PACE_PERIOD_S seconds (under 1% of the CPU). A chunk takes
# REFERENCE_CHUNK_S at the reference pace, a typical chunk time on the 2-CPU
# Xeon of the README's reference figures. Changing any of the three changes
# every time the benchmark reports.
PACE_CHUNK_ITERATIONS = 6000
PACE_PERIOD_S = 0.1
REFERENCE_CHUNK_S = 0.00065
PROCESS_TIMEOUT_S = 150.0
MB = 1e6


class RunFailed(Exception):
    pass


class PaceSampler:
    """Measures how fast the CPU that runs the children is going.

    On a shared host the speed of one CPU drifts by up to half over minutes,
    with CPU time tracking wall time, and the drift differs between CPUs.
    The benchmark therefore pins itself and its children to one CPU, and a
    thread of this process times a fixed pure-Python chunk (its own thread
    CPU time, so waiting for the CPU does not count) every PACE_PERIOD_S.
    A child's wall time times REFERENCE_CHUNK_S over the mean chunk time
    during the child is its wall time at the reference pace.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    @staticmethod
    def chunk() -> float:
        start = time.thread_time()
        acc, slots = 0, {}
        for i in range(PACE_CHUNK_ITERATIONS):
            acc += i * i % 7
            slots[i & 63] = acc
        return time.thread_time() - start

    def _sample(self) -> None:
        while not self._stop.wait(PACE_PERIOD_S):
            self.samples.append((time.perf_counter(), self.chunk()))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_CHUNK_S over the mean chunk time in [start, end], or
        over every chunk so far if none fell in it (a child that exits at
        once; 1 if there is none yet)."""
        inside = [c for t, c in self.samples if start <= t <= end] or [c for _, c in self.samples]
        return REFERENCE_CHUNK_S / statistics.fmean(inside) if inside else 1.0


def timed_process(args: list[str], log: Path, env: dict[str, str], pace: PaceSampler) -> tuple[float, float, int]:
    """Run a child to completion; returns (wall s at the reference pace,
    peak RSS MB, exit code)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    wall = (end - start) * pace.scale(start, end)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / MB, proc.returncode


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("FEDTRUST_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def failed_folds(run_dir: Path) -> set[int]:
    path = run_dir / "failures.json"
    if not path.exists():
        return set()
    return {int(entry["fold"]) for entry in json.loads(path.read_text(encoding="utf-8"))}


def setup_probe(cfg_path: Path, work: Path, env: dict[str, str], pace: PaceSampler) -> tuple[float, dict]:
    """Wall time of one fresh set-up probe and the fold 0 sizes it printed."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(cfg_path)]
    log = work / "setup.log"
    wall, _, code = timed_process(probe, log, env, pace)
    if code != 0:
        raise RunFailed(f"set-up probe exited with {code}:\n{log.read_text(errors='replace')[-2000:]}")
    return wall, json.loads(log.read_text().splitlines()[-1])


def check_setup(cfg: dict[str, str], sizes: dict) -> list[str]:
    import reference

    n_test = len(reference.fold_test_set(cfg, 0).labels)
    if sizes["test"] == n_test and sizes["train"] + n_test == int(cfg["data.n"]) and sum(sizes["parts"]) == sizes["train"]:
        return []
    return [f"setup: the probe built {sizes}, the reference test split has {n_test} rows"]


def write_config(workload: str, seed: int, out_dir: Path, path: Path) -> None:
    template = (BENCH_DIR / "workloads" / f"{workload}.txt").read_text(encoding="utf-8")
    path.write_text(
        f"{template}\nexperiment.master_seed = {seed}\nexperiment.output_dir = {out_dir}\n",
        encoding="utf-8",
    )


def cli_run(
    workload: str, seed: int, work: Path, index: int, env: dict[str, str], pace: PaceSampler, trace_files=None
) -> dict:
    out_dir = work / f"out_{index}"
    cfg_path = work / f"run_{index}.txt"
    write_config(workload, seed, out_dir, cfg_path)
    cli = ["run", str(cfg_path)]
    if trace_files is None:
        args = [sys.executable, "-m", "fedtrust.cli", *cli]
    else:
        args = [sys.executable, str(BENCH_DIR / "tracer.py"), *map(str, trace_files), *cli]
    log = work / f"run_{index}.log"
    wall, rss, code = timed_process(args, log, env, pace)
    if code != 0:
        sys.stderr.write(f"run {index} exited with {code}:\n{log.read_text(errors='replace')[-2000:]}\n")
    return {
        "dir": out_dir,
        "run_s": wall,
        "peak_rss_mb": rss,
        "code": code,
        "output_mb": tree_bytes(out_dir) / MB if out_dir.exists() else 0.0,
        "failed": None if code != 0 else failed_folds(out_dir),
    }


def check_outputs(workload: str, cfg: dict[str, str], runs: list[dict]) -> list[str]:
    """Runs every output check; returns one line per check that failed."""
    import checks

    folds = int(cfg["experiment.folds"])
    good = [r for r in runs if r["code"] == 0]
    if not good:
        return ["no run finished"]
    ok_folds = sorted(set(range(folds)) - set().union(*(r["failed"] for r in good)))
    if not ok_folds:
        return ["every fold failed"]
    problems = []
    run_dir = good[0]["dir"]
    schemes = checks.schemes_of(cfg)

    def attempt(fn, *args):
        try:
            return fn(*args)
        except checks.CheckError as exc:
            problems.append(f"{fn.__name__}: {exc}")
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"{fn.__name__}: unreadable output: {exc!r}")
        return None

    attempt(checks.check_complete, run_dir, cfg, ok_folds)
    if problems:
        return problems
    gains = attempt(checks.independent_gains, run_dir, cfg, ok_folds)
    attempt(checks.check_totals, run_dir, cfg, ok_folds)
    attempt(checks.check_report, run_dir, cfg, ok_folds)
    if gains is not None and "exact_shapley" in schemes:
        gap = attempt(checks.check_exact_efficiency, run_dir, cfg, ok_folds, gains)
        if gap is not None:
            sys.stderr.write(f"exact Shapley efficiency: largest gap {gap:.3g} over {len(gains)} (fold, round, metric)\n")
    if gains is not None and "gtg" in schemes:
        counted = attempt(checks.check_gtg_gain, run_dir, cfg, ok_folds, gains)
        if counted is not None:
            sys.stderr.write(f"GTG gain: {counted[0]} (fold, round, metric) checked, {counted[1]} skipped by eps1\n")
    if WORKLOADS[workload] is not None:
        lead = attempt(checks.check_accuracy, run_dir, cfg, ok_folds, WORKLOADS[workload])
        if lead is not None:
            sys.stderr.write(f"final accuracy: {lead:.4f} above the majority-class rate\n")
    if len(good) > 1:
        attempt(checks.check_same_scores, [r["dir"] for r in good], ok_folds)
    return problems


def end_to_end(cfg: dict[str, str], runs: list[dict], setup_s: float) -> dict:
    run_s = statistics.median(r["run_s"] for r in runs)
    work = int(cfg["experiment.folds"]) * int(cfg["training.rounds"]) * int(cfg["partition.clients"])
    return {
        "run_s": (run_s, "s"),
        "setup_s": (setup_s, "s"),
        "client_rounds_per_s": (work / run_s, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "output_mb": (statistics.median(r["output_mb"] for r in runs), "MB"),
    }


def per_layer(spans: Path, counts: Path, traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    import tracer

    layer = tracer.summarize(spans, counts)
    problems = []
    self_total = sum(v for k, v in layer.items() if k.endswith("_s") and not k.startswith("trace."))
    if abs(self_total + layer["trace.outside_s"] - layer["trace.wall_s"]) > 1e-6:
        problems.append(
            f"trace: self times {self_total} plus outside {layer['trace.outside_s']} "
            f"do not add up to the wall time {layer['trace.wall_s']}"
        )
    missing = json.loads(counts.read_text())["missing"]
    if missing:
        sys.stderr.write(f"trace: no such function, not traced: {', '.join(missing)}\n")
    layer["federation.checkpoint_bytes"] = sum(
        tree_bytes(p) for p in traced["dir"].glob("fold_*/round_*") if p.is_dir()
    )
    layer["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    units = {}
    for name in layer:
        if name.endswith("_s"):
            units[name] = "s"
        elif name == "valuation.cache_hit_ratio":
            units[name] = "ratio"
        elif name.endswith("_bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return {k: (v, units[k]) for k, v in layer.items()}, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    if not (ROOT / "src" / "fedtrust" / "cli.py").is_file():
        sys.stderr.write(f"no fedtrust sources under {ROOT / 'src'}; run from a source checkout\n")
        return 2

    # Children inherit the CPU of the thread that starts them, and the pace
    # sampler thread the CPU of this one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    pace = PaceSampler()
    try:
        cfg_path = work / "setup.txt"
        write_config(args.workload, args.seed, work / "out_setup", cfg_path)
        # One untimed warm-up probe, which also compiles the bytecode.
        _, sizes = setup_probe(cfg_path, work, env, pace)
        setup_times = []

        runs = []
        start = time.perf_counter()
        if args.trace:
            runs.append(cli_run(args.workload, args.seed, work, 0, env, pace))
            trace_dir = WORK_DIR / "trace"
            trace_dir.mkdir(exist_ok=True)
            stem = trace_dir / f"{args.workload}-s{args.seed}"
            files = (stem.with_suffix(".spans.csv"), stem.with_suffix(".counts.json"))
            runs.append(cli_run(args.workload, args.seed, work, 1, env, pace, trace_files=files))
        else:
            # Start another process only if, at the mean time per process so far
            # (its set-up probes included), it ends
            # less than half a process past the window: the run then lasts
            # about S seconds however long one process takes.
            ends = []
            while len(runs) < 2 or time.perf_counter() - start + (ends[-1] - start) / len(ends) / 2 < args.seconds:
                setup_times += [setup_probe(cfg_path, work, env, pace)[0] for _ in range(SETUP_PER_RUN)]
                runs.append(cli_run(args.workload, args.seed, work, len(runs), env, pace))
                ends.append(time.perf_counter())
            chunks = [c for _, c in pace.samples]
            sys.stderr.write(
                f"{len(runs)} runs in {ends[-1] - start:.1f} s; {len(chunks)} pace chunks, "
                f"median {statistics.median(chunks) * 1e3:.4f} ms (reference {REFERENCE_CHUNK_S * 1e3:.4f} ms)\n"
            )

        import checks

        cfg = checks.read_config(cfg_path)
        problems = check_setup(cfg, sizes)
        folds = int(cfg["experiment.folds"])
        attempted = folds * len(runs)
        failed = sum(folds if r["failed"] is None else len(r["failed"]) for r in runs)
        problems += check_outputs(args.workload, cfg, runs)
        if args.trace and all(r["code"] == 0 for r in runs):
            metrics, trace_problems = per_layer(*files, runs[1], runs[0])
            problems += trace_problems
        elif args.trace:
            metrics = {}
        else:
            metrics = end_to_end(cfg, [r for r in runs if r["code"] == 0] or runs, statistics.median(setup_times))
    except RunFailed as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    finally:
        pace.stop()
        shutil.rmtree(work, ignore_errors=True)

    for line in problems:
        sys.stderr.write(f"CHECK FAILED {line}\n")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
