#!/usr/bin/env python3
"""Per-call timings of the layers a coalition utility runs through.

Trains a federation of the size in configs/default.txt (2,000 synthetic
samples with 8 features, 4 Dirichlet clients, an 8-16-1 sigmoid network,
10 rounds) from a fixed seed, then times one call of each of:

* ``pgd_batch`` on the correctly classified test rows, once per coalition
  aggregate of the last round (2^K models, so rows freeze at many steps);
* ``predict_batch``, one forward pass over the test set;
* ``input_gradient_batch`` over the test set;
* ``fedavg`` of the last round's K updates;
* ``coalition_utility`` of the grand coalition, for each metric, with a
  fresh cache (one aggregate, one clean pass and the metric itself).

Each figure is the median over repeats of the mean time of one call, in
microseconds, printed as one JSON line. The models and inputs depend only
on the seed, so two checkouts can be compared on the same work:

    PYTHONPATH=src python scripts/bench_layers.py [repeats] [seed]
"""

import json
import sys
import time
from itertools import combinations

import numpy as np

from fedtrust.attacks import AttackSpec, pgd_batch
from fedtrust.data import PartitionMode, PartitionSpec, generate_synthetic, partition, train_test_split
from fedtrust.federation import TrainingConfig, fedavg, run_training
from fedtrust.metrics import EvalContext, FairnessSpec, Metric, NoiseSpec
from fedtrust.nn import Architecture, OutputActivation, init_params, input_gradient_batch, predict_batch
from fedtrust.valuation import coalition_utility


def setup(seed: int):
    data = generate_synthetic(2000, 8, 0.3, seed=seed)
    train, test = train_test_split(data, 0.2, seed=seed)
    parts = partition(train, PartitionSpec(PartitionMode.DIRICHLET, 4, 0.5, seed=seed))
    init = init_params(Architecture((8, 16, 1), OutputActivation.SIGMOID), seed)
    records = run_training(init, parts, TrainingConfig(rounds=10, seed=seed))
    ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, seed), AttackSpec())
    return records[-1], ctx


def per_call_us(fn, calls: int, repeats: int) -> float:
    """Median over ``repeats`` of the mean microseconds of one ``fn()`` call."""
    fn()  # warm-up: lazy set-up is not what is timed
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls * 1e6)
    return float(np.median(times))


def main() -> None:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    record, ctx = setup(seed)
    test, spec = ctx.test, ctx.attack
    ids = record.client_ids
    coalitions = [c for size in range(len(ids) + 1) for c in combinations(ids, size)]
    updates = [record.update_for(k) for k in ids]
    attacked = []
    for coalition in coalitions:
        model = fedavg(record.global_before, [record.update_for(k) for k in coalition])
        correct = predict_batch(model, test.features) == test.labels
        attacked.append((model, test.features[correct], test.labels[correct]))

    def pgd_round():
        for model, x, y in attacked:
            pgd_batch(model, x, y, spec)

    model = record.global_after
    out = {
        "pgd_batch": per_call_us(pgd_round, 1, repeats) / len(attacked),
        "predict_batch": per_call_us(lambda: predict_batch(model, test.features), 200, repeats),
        "input_gradient_batch": per_call_us(
            lambda: input_gradient_batch(model, test.features, test.labels), 200, repeats
        ),
        "fedavg": per_call_us(lambda: fedavg(record.global_before, updates), 200, repeats),
    }
    for metric in Metric:
        calls = 5 if metric is Metric.RES else 50
        out[f"coalition_utility_{metric.value}"] = per_call_us(
            lambda: coalition_utility(record, ids, metric, ctx), calls, repeats
        )
    out = {key: round(value, 1) for key, value in out.items()}
    print(json.dumps({"unit": "us", "repeats": repeats, "seed": seed, **out}))


if __name__ == "__main__":
    main()
