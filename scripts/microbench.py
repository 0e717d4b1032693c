#!/usr/bin/env python3
"""Per-layer timings on the default benchmark workload's shapes.

    python3 scripts/microbench.py

Runs fold 0 of ``perfbench/workloads/default.txt`` at master seed 3 (400
test rows, the 8-16-1 net and 4 clients) through ``experiment.run_fold``,
writing its files to a temporary directory, and times each layer on the
fold's last round: the forward pass and the input gradient of the final
model on the test rows, one PGD call on a group of
``metrics.ATTACK_GROUP_ROWS`` rows, the ``rel`` noise matrix, fedavg of the
round's updates, one coalition utility per metric (a fresh cache, so each
computes), one lockstep training step (``local_train`` on one batch per
client) and one ``certified_rows`` call on the test rows.

The process pins itself to one CPU. Each layer runs REPEATS repeats of a
batch of calls sized to about REPEAT_S seconds, each repeat after one pace
chunk of ``perfbench/run.py`` (imported, not changed), and a layer's times
are scaled by that file's ``REFERENCE_CHUNK_S`` over the median of its
chunks, as the benchmark scales its wall times. The last line of standard
output is one JSON object: per layer, the median and quartiles of the
seconds per call at the reference pace. The program is imported from this
checkout's ``src/``.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fedtrust import attacks, experiment, nn  # noqa: E402
from fedtrust.config import ExperimentConfig, parse_config_text  # noqa: E402
from fedtrust.federation import fedavg, local_train  # noqa: E402
from fedtrust.metrics import ATTACK_GROUP_ROWS, EvalContext, Metric  # noqa: E402
from fedtrust.valuation import CoalitionCache  # noqa: E402

WORKLOAD = "default"
SEED = 3
REPEATS = 21
# Calls per repeat are chosen so that a repeat takes about this long.
REPEAT_S = 0.02


def load_pace():
    """``perfbench/run.py`` as a module, for its pace chunk."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_config() -> ExperimentConfig:
    text = (ROOT / "perfbench" / "workloads" / f"{WORKLOAD}.txt").read_text(encoding="utf-8")
    return parse_config_text(f"{text}\nexperiment.master_seed = {SEED}\n")


def fold_zero(cfg: ExperimentConfig):
    """Fold 0 of a synthetic ``cfg`` as ``experiment.run_fold`` runs it:
    the clients' parts and training config passed to ``run_training``, and
    the round records and cache passed to ``score_rounds``. The records
    come from a generator, so they are drawn into a list first: the fold
    then trains every round before it scores one."""
    seen = {}
    run_training, score_rounds = experiment.run_training, experiment.score_rounds

    def training(init, parts, tcfg, **kwargs):
        seen.update(parts=parts, tcfg=tcfg)
        return run_training(init, parts, tcfg, **kwargs)

    def scoring(records, schemes, metrics, vcfg, cache):
        records = list(records)
        seen.update(records=records, cache=cache)
        return score_rounds(records, schemes, metrics, vcfg, cache)

    experiment.run_training, experiment.score_rounds = training, scoring
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            experiment.run_fold(cfg, 0, Path(out_dir) / "fold_0")
    finally:
        experiment.run_training, experiment.score_rounds = run_training, score_rounds
    return seen["parts"], seen["tcfg"], seen["records"], seen["cache"]


def build_layers(cfg: ExperimentConfig) -> dict[str, Callable[[], object]]:
    """One zero-argument call per layer on fold 0 of a synthetic ``cfg``."""
    parts, tcfg, records, cache = fold_zero(cfg)
    record, ctx = records[-1], cache.ctx
    model, test = record.global_after, ctx.test
    x, y = test.features, test.labels

    # a group of the round's single-client aggregates, each on its own
    # slice of the test rows, ATTACK_GROUP_ROWS rows in all
    singles = [fedavg(record.global_before, [update]) for update in record.updates]
    count = -(-ATTACK_GROUP_ROWS // len(test))
    counts = [ATTACK_GROUP_ROWS // count + (j < ATTACK_GROUP_ROWS % count) for j in range(count)]
    group = nn.ModelGroup([singles[j % len(singles)] for j in range(count)], counts)
    group_x = np.concatenate([x[:rows] for rows in counts])
    group_y = np.concatenate([y[:rows] for rows in counts])

    # one epoch of one batch per client is one lockstep step
    one_batch = [(k, part.subset(range(min(tcfg.batch_size, len(part))))) for k, part in enumerate(parts)]
    step_cfg = dataclasses.replace(tcfg, local_epochs=1)
    coalition = tuple(sorted(record.client_ids)[:2])

    layers: dict[str, Callable[[], object]] = {
        "forward": lambda: nn.predict_batch(model, x),
        "input_gradient": lambda: nn.input_gradient_batch(model, x, y),
        "pgd": lambda: attacks.pgd_batch(group, group_x, group_y, ctx.attack),
        "noise_matrix": lambda: EvalContext(test, ctx.fairness, ctx.noise, ctx.attack).noisy_features,
        "fedavg": lambda: fedavg(record.global_before, record.updates),
        "training_step": lambda: local_train(model, one_batch, step_cfg, record.round),
        "certified_rows": lambda: attacks.certified_rows(model, x, y, ctx.attack),
    }
    for metric in Metric:
        layers[f"coalition_utility_{metric.value}"] = (
            lambda metric=metric: CoalitionCache(ctx).utility(record, coalition, metric)
        )
    return layers


def measure(layers: dict[str, Callable[[], object]]) -> dict:
    """Per layer, the quartiles of the seconds per call over REPEATS
    repeats, scaled to the reference pace."""
    pace = load_pace()
    figures = {}
    for name, call in layers.items():
        start = time.perf_counter()
        call()
        number = max(1, int(REPEAT_S / max(time.perf_counter() - start, 1e-9)))
        seconds, chunks = [], []
        for _ in range(REPEATS):
            chunks.append(pace.PaceSampler.chunk())
            start = time.perf_counter()
            for _ in range(number):
                call()
            seconds.append((time.perf_counter() - start) / number)
        scale = pace.REFERENCE_CHUNK_S / statistics.median(chunks)
        q1, median, q3 = statistics.quantiles([s * scale for s in seconds], n=4)
        figures[name] = {"median_s": median, "q1_s": q1, "q3_s": q3, "calls": number * REPEATS}
    return figures


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    layers = build_layers(workload_config())
    print(json.dumps({"workload": WORKLOAD, "seed": SEED, "layers": measure(layers)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
