"""Command line entry point.

Subcommands:
    run <config>            full experiment from a flat key=value config
    demo-fig1               six-sample toy evaluation with known scores
    analyze <run_dir>       rebuild report files from persisted scores
    generate-data <spec> <out>  write a synthetic config's dataset as canonical CSV

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric error, 5 output
error (a file or directory that cannot be written).
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .config import parse_config_file
from .data import Dataset, fold_dataset, save_dataset_csv
from .errors import ConfigError, FedTrustError
from .experiment import analyze_run_dir, run_experiment
from .metrics import FairnessSpec, demographic_parity_gap, fair, perf, res


def _fig1_toy():
    """The six-sample toy test set with a stub model's predictions.

    Samples 1..6 carry labels [G, R, G, R, R, G] with G=0, R=1; samples
    1, 2, 4 are protected and R is the target class. The stub model predicts
    [G, R, R, G, R, G], so samples 1, 2, 5, 6 are classified correctly; its
    predictions on their stub attacks flip exactly sample 1, to R.
    """
    features = np.array([[i / 10] for i in range(1, 7)])
    labels = np.array([0, 1, 0, 1, 1, 0])
    protected = np.array([True, True, False, True, False, False])
    test = Dataset(features, labels, protected, class_count=2)
    clean = np.array([0, 1, 1, 0, 1, 0])
    adversarial = np.array([1, 1, 1, 0])
    return test, clean, adversarial


def cmd_demo_fig1() -> int:
    test, clean, adversarial = _fig1_toy()
    spec = FairnessSpec(target_class=1)
    perf_v = perf(clean, test)
    gap_v = demographic_parity_gap(clean, test, spec)
    fair_v = fair(clean, test, spec)
    res_v = res(test.labels[clean == test.labels], adversarial)
    success = 1.0 - res_v
    print(f"perf = {perf_v:.4g}")
    print(f"demographic parity gap = {gap_v:.4g}")
    print(f"fair = {fair_v:.4g}")
    print(f"attack success = {success:.4g}")
    print(f"res = {res_v:.4g}")
    expected = [
        (perf_v, 2 / 3),
        (gap_v, 1 / 3),
        (fair_v, 2 / 3),
        (success, 1 / 4),
        (res_v, 3 / 4),
    ]
    if all(abs(got - want) <= 1e-9 for got, want in expected):
        return 0
    print("demo values deviate from the expected toy scores", file=sys.stderr)
    return 1


def cmd_run(config_path: str) -> int:
    cfg = parse_config_file(config_path)
    report = run_experiment(cfg)
    print(f"run complete: {cfg.folds} fold(s), report written to {cfg.output_dir}")
    for scheme in report.schemes:
        for metric, stats in report.vs_perf[scheme].items():
            print(
                f"  {scheme:14s} {metric:4s} vs perf: "
                f"phi = {stats.phi_mean:+.3f} +- {stats.phi_std:.3f}, "
                f"l2 = {stats.l2_mean:.4f}"
            )
    return 0


def cmd_analyze(run_dir: str) -> int:
    analyze_run_dir(run_dir)
    print(f"report rebuilt in {run_dir}")
    return 0


def cmd_generate_data(spec_path: str, out_path: str) -> int:
    cfg = parse_config_file(spec_path)
    if cfg.data_source != "synthetic":
        raise ConfigError(
            f"{spec_path}: generate-data needs data.source = synthetic, not {cfg.data_source}"
        )
    data = fold_dataset(cfg, cfg.fold_seed(0))
    save_dataset_csv(data, out_path)
    print(f"wrote {len(data)} samples ({data.feature_dim} features) to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedtrust",
        description="Federated training with multi-metric client contribution scores",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a full experiment")
    p_run.add_argument("config", help="path to a flat key=value config file")
    sub.add_parser("demo-fig1", help="evaluate the six-sample toy example")
    p_an = sub.add_parser("analyze", help="rebuild report files from saved scores")
    p_an.add_argument("run_dir", help="experiment output directory")
    p_gen = sub.add_parser("generate-data", help="write a synthetic dataset CSV")
    p_gen.add_argument("spec", help="config file providing the data.* keys")
    p_gen.add_argument("out", help="output CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "demo-fig1":
            return cmd_demo_fig1()
        if args.command == "analyze":
            return cmd_analyze(args.run_dir)
        return cmd_generate_data(args.spec, args.out)
    except FedTrustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
