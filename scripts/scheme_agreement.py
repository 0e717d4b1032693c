#!/usr/bin/env python3
"""Compare GTG against exact Shapley across seeds.

For each seed, trains a 4-client federation, scores every round with both
schemes on the accuracy metric, and reports the rank correlation of the
accumulated scores together with how many distinct coalition utilities
each scheme requested from the cache the two share. Shows the
cost/fidelity trade-off of the truncation thresholds on a desk-scale
problem.

Usage: python scripts/scheme_agreement.py [n_seeds] [eps2]
"""

import sys
from pathlib import Path

import numpy as np

# the program is imported from this checkout's src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fedtrust.analysis import spearman_flagged
from fedtrust.attacks import AttackSpec
from fedtrust.data import PartitionMode, PartitionSpec, client_rows, gather, generate_synthetic, split_rows
from fedtrust.federation import TrainingConfig, run_training
from fedtrust.metrics import EvalContext, FairnessSpec, Metric, NoiseSpec
from fedtrust.nn import Architecture, OutputActivation, init_params
from fedtrust.valuation import CoalitionCache, Scheme, ValuationConfig, score_rounds, score_vectors


def one_seed(seed: int, eps2: float):
    data = generate_synthetic(1200, 8, 0.3, seed=seed)
    train_rows, test_rows = split_rows(data.labels, data.class_count, 0.2, seed)
    spec = PartitionSpec(PartitionMode.DIRICHLET, 4, 0.5, seed=seed)
    clients = client_rows(data.labels[train_rows], data.class_count, spec)
    *parts, test = gather(data, [*(train_rows[rows] for rows in clients), test_rows])
    init = init_params(Architecture((8, 16, 1), OutputActivation.SIGMOID), seed)
    records = run_training(init, parts, TrainingConfig(rounds=10, seed=seed))
    ctx = EvalContext(test, FairnessSpec(1), NoiseSpec(0.1, seed), AttackSpec())

    cache = CoalitionCache(ctx)
    table = score_rounds(
        records,
        [Scheme.EXACT, Scheme.GTG],
        [Metric.PERF],
        ValuationConfig(eps2=eps2, perm_seed=seed),
        cache,
    )
    vectors = score_vectors(table)
    result = spearman_flagged(vectors[("gtg", "perf")], vectors[("exact_shapley", "perf")])
    requested = {scheme: len(keys) for scheme, keys in cache.requested.items()}
    return result, requested["gtg"], requested["exact_shapley"]


def main():
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    eps2 = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05
    print(f"seed  phi(gtg, exact)  evals gtg/exact   (eps2={eps2})")
    phis = []
    for seed in range(n_seeds):
        result, gtg_evals, exact_evals = one_seed(seed, eps2)
        phi_text = "--  (degenerate)" if result.degenerate else f"{result.phi:+.3f}"
        print(f"{seed:4d}  {phi_text:16s} {gtg_evals:5d} / {exact_evals}")
        phis.append(result.phi)
    print(f"median phi = {np.median(phis):+.3f}")


if __name__ == "__main__":
    main()
