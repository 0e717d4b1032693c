"""Federated-learning simulator with multi-metric client contribution scores.

Trains a small MLP across simulated clients with FedAvg and attributes
per-client contributions along four axes (accuracy, demographic-parity
fairness, noise tolerance, adversarial resilience) using exact Shapley
values, the GTG approximation, and Leave-One-Out, then analyzes how the
resulting score vectors relate across metrics and schemes.
"""

from .analysis import AnalysisReport, build_report, rmse, spearman
from .attacks import AttackSpec
from .config import ExperimentConfig, parse_config_file, parse_config_text
from .data import Dataset, PartitionSpec, generate_synthetic, load_csv, partition, train_test_split
from .experiment import analyze_run_dir, run_experiment, run_fold
from .federation import ClientUpdate, RoundRecord, TrainingConfig, fedavg, local_train, run_training
from .metrics import EvalContext, FairnessSpec, Metric, NoiseSpec, fair, perf, rel, res
from .nn import Architecture, ModelParams, init_params
from .valuation import (
    CoalitionCache,
    Scheme,
    ScoreTable,
    ValuationConfig,
    accumulate,
    coalition_utility,
    exact_shapley_round,
    gtg_shapley_round,
    loo_round,
)

__version__ = "0.1.0"
