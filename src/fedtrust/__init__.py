"""Federated-learning simulator with multi-metric client contribution scores.

Trains a small MLP across simulated clients with FedAvg and attributes
per-client contributions along four axes (accuracy, demographic-parity
fairness, noise tolerance, adversarial resilience) using exact Shapley
values, the GTG approximation, and Leave-One-Out, then analyzes how the
resulting score vectors relate across metrics and schemes.

The package namespace is lazy (PEP 562): ``fedtrust.run_experiment`` loads
the experiment layer the first time it is read, so a caller that needs only
a config and fold data (``fedtrust.config``, ``fedtrust.data``) never loads
the layers above them.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_MODULE_EXPORTS = {
    "analysis": ("AnalysisReport", "build_report", "rmse", "spearman"),
    "config": (
        "AttackSpec",
        "ExperimentConfig",
        "FairnessSpec",
        "NoiseSpec",
        "PartitionSpec",
        "Scheme",
        "TrainingConfig",
        "ValuationConfig",
        "parse_config_file",
        "parse_config_text",
    ),
    "data": ("Dataset", "generate_synthetic", "load_csv", "partition", "train_test_split"),
    "experiment": ("analyze_run_dir", "run_experiment", "run_fold"),
    "federation": ("ClientUpdate", "RoundRecord", "fedavg", "local_train", "run_training"),
    "metrics": ("EvalContext", "Metric", "fair", "perf", "rel", "res"),
    "nn": ("Architecture", "ModelParams", "init_params"),
    "valuation": (
        "CoalitionCache",
        "ScoreTable",
        "accumulate",
        "coalition_utility",
        "exact_shapley_round",
        "gtg_shapley_round",
        "loo_round",
    ),
}
# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
