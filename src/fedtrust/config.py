"""Experiment configuration: every validated setting, the file format, and
per-fold seed streams.

Config files are flat ``section.key = value`` lines (``#`` starts a comment).
Defaults mirror the experimental protocol this artifact reproduces: K=4
clients, 10 rounds, 5 folds, Dirichlet alpha=0.5, sigma=0.1, PGD
(0.007, 0.3, 40) and GTG thresholds eps1=0.001, eps2=0.05, eps3=0.002.

Every settings type (the data's :class:`PartitionSpec` and :class:`CsvSchema`,
the layers' :class:`AttackSpec`, :class:`TrainingConfig`, :class:`FairnessSpec`,
:class:`NoiseSpec`, :class:`Scheme` and :class:`ValuationConfig`) and every
bound that no fold can run past (the synthetic draw's, the model's size and
the schemes' client limits) is defined here and imported by its layer. So
this module imports only ``errors`` and ``seeding``, and parsing rejects a
config that would fail every fold before any fold runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

from .errors import ConfigError
from .seeding import derive_seed


@dataclass(frozen=True)
class AttackSpec:
    """PGD parameters. Defaults follow the tabular evaluation setting."""

    epsilon: float = 0.3
    step_size: float = 0.007
    steps: int = 40
    clip_min: float = 0.0
    clip_max: float = 1.0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not 0.0 <= self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be non-negative and finite, got {self.epsilon}")
        if not math.isfinite(self.step_size):
            raise ConfigError(f"step_size must be finite, got {self.step_size}")
        if self.epsilon > 0 and not self.step_size > 0:
            raise ConfigError("step_size must be positive when epsilon > 0")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if not -math.inf < self.clip_min < self.clip_max < math.inf:
            raise ConfigError(
                f"clip box must be finite and non-empty, got [{self.clip_min}, {self.clip_max}]"
            )


OPTIMIZERS = ("adam", "sgd")


@dataclass(frozen=True)
class TrainingConfig:
    rounds: int = 10
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 2:
            raise ConfigError("need rounds >= 2 (round 1 is excluded from scoring)")
        if self.local_epochs < 0:
            raise ConfigError("local_epochs must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")


@dataclass(frozen=True)
class FairnessSpec:
    """Target class for the demographic-parity comparison.

    The protected group is the set of samples whose sensitive flag is True.
    """

    target_class: int = 1

    def __post_init__(self) -> None:
        if self.target_class < 0:
            raise ConfigError("target_class must be a class index")


@dataclass(frozen=True)
class NoiseSpec:
    sigma: float = 0.1
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < math.inf:
            raise ConfigError(f"sigma must be non-negative and finite, got {self.sigma}")


class Scheme(str, Enum):
    EXACT = "exact_shapley"
    GTG = "gtg"
    LOO = "loo"


# Exact Shapley enumerates the 2^K coalitions of a round's K clients.
EXACT_CLIENT_LIMIT = 12
# A GTG round scans budget x K prefixes and holds (budget + 1) x K float64
# marginals: 10^7 cells is 80 MB.
_GTG_CELL_LIMIT = 10_000_000


def permutation_budget(client_count: int, eps2: float) -> int:
    """R = max(K, ceil(eps2 * K!)) sampled permutations.

    Computed in exact integer arithmetic (K! overflows floats well before
    K reaches realistic federation sizes). A budget whose R x K (the scan's
    prefix evaluations and its marginals' cells) exceeds 10^7 is rejected
    rather than left to hang or exhaust memory. One of 100 digits or more is
    rejected from its log10, taken with ``math.lgamma``, without computing
    K! (from about 70 clients at eps2 = 0.05).
    """
    digits = math.lgamma(client_count + 1) / math.log(10) + math.log10(eps2) if eps2 > 0 else 0.0
    if digits < 100:
        num, den = float(eps2).as_integer_ratio()
        budget = max(client_count, -(-num * math.factorial(client_count) // den))
        if budget * client_count <= _GTG_CELL_LIMIT:
            return budget
        shown = str(budget)
    else:
        shown = f"about 10^{digits:.0f}"
    raise ConfigError(
        f"GTG budget ceil(eps2*K!) = {shown} permutations is infeasible: budget x K "
        f"(K = {client_count}) exceeds {_GTG_CELL_LIMIT}; lower valuation.eps2"
    )


@dataclass(frozen=True)
class ValuationConfig:
    eps1: float = 0.001
    eps2: float = 0.05
    eps3: float = 0.002
    perm_seed: int = 0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not (0.0 <= self.eps1 < math.inf and 0.0 <= self.eps3 < math.inf):
            raise ConfigError(
                f"eps1 and eps3 must be non-negative and finite, got {self.eps1}, {self.eps3}"
            )
        if not 0.0 < self.eps2 <= 1.0:
            raise ConfigError("eps2 must lie in (0, 1]")


class PartitionMode(str, Enum):
    IID = "iid"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class PartitionSpec:
    mode: PartitionMode
    client_count: int
    dirichlet_alpha: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", PartitionMode(self.mode))
        if self.client_count < 2:
            raise ConfigError("need at least two clients")
        if not math.isfinite(self.dirichlet_alpha):
            raise ConfigError(f"dirichlet_alpha must be finite, got {self.dirichlet_alpha}")
        if self.mode is PartitionMode.DIRICHLET and not self.dirichlet_alpha > 0:
            raise ConfigError("dirichlet_alpha must be positive")


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for ``data.load_csv``.

    Every non-label, non-sensitive column is a feature. Feature columns
    whose cells all parse as floats are min-max normalized; any other column
    is one-hot expanded over its sorted distinct values.
    """

    label: str
    sensitive: str
    positive_sensitive_value: str


# The synthetic generator draws a binary label.
SYNTHETIC_CLASSES = 2


# The synthetic draw holds n x d float64 features: 10^8 of them is 800 MB.
_SYNTHETIC_CELL_LIMIT = 100_000_000


def check_synthetic_shape(n: int, d: int) -> None:
    if n < 10 or d < 2:
        raise ConfigError(f"need n >= 10 and d >= 2, got n={n}, d={d}")
    if n * d > _SYNTHETIC_CELL_LIMIT:
        raise ConfigError(f"n x d = {n * d} synthetic features exceeds {_SYNTHETIC_CELL_LIMIT}")


# A model's parameter count P sizes every float64 vector training and
# scoring hold of it (the weights, each client's update, the optimizer's
# moments): 10^6 parameters is 8 MB per vector.
_PARAMETER_LIMIT = 1_000_000


def check_model_size(layer_sizes: tuple[int, ...]) -> None:
    params = sum(a * b + b for a, b in zip(layer_sizes, layer_sizes[1:]))
    if params > _PARAMETER_LIMIT:
        raise ConfigError(
            f"a {'-'.join(map(str, layer_sizes))} model has P = {params} parameters, "
            f"more than {_PARAMETER_LIMIT}"
        )


def check_target_class(target_class: int, class_count: int) -> None:
    if target_class >= class_count:
        raise ConfigError(
            f"metrics.target_class {target_class} is not a class of the "
            f"{class_count}-class dataset"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    # data
    data_source: str = "synthetic"  # synthetic | csv
    synthetic_n: int = 2000
    synthetic_d: int = 8
    group_imbalance: float = 0.3
    csv_path: str = ""
    label_column: str = "y"
    sensitive_column: str = "s"
    positive_sensitive_value: str = "1"
    test_fraction: float = 0.2
    # partition
    partition_mode: PartitionMode = PartitionMode.DIRICHLET
    dirichlet_alpha: float = 0.5
    clients: int = 4
    # model
    hidden_sizes: tuple[int, ...] = (16,)
    output_activation: str = "sigmoid"
    # training
    rounds: int = 10
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    # metrics
    sigma: float = 0.1
    target_class: int = 1
    attack_epsilon: float = 0.3
    attack_step_size: float = 0.007
    attack_steps: int = 40
    # valuation
    schemes: tuple[Scheme, ...] = (Scheme.EXACT, Scheme.GTG, Scheme.LOO)
    eps1: float = 0.001
    eps2: float = 0.05
    eps3: float = 0.002
    # experiment
    folds: int = 5
    master_seed: int = 42
    output_dir: str = "runs/default"

    def __post_init__(self) -> None:
        if self.data_source not in ("synthetic", "csv"):
            raise ConfigError(f"unknown data source {self.data_source!r}")
        if self.data_source == "csv" and not self.csv_path:
            raise ConfigError("csv data source needs data.csv_path")
        if self.output_activation not in ("softmax", "sigmoid"):
            raise ConfigError(f"unknown output activation {self.output_activation!r}")
        if self.folds < 1:
            raise ConfigError("folds must be at least 1")
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if any(h < 1 for h in self.hidden_sizes):
            raise ConfigError(f"model.hidden sizes must be positive, got {self.hidden_sizes}")
        if not self.output_dir:
            raise ConfigError("experiment.output_dir is empty; name the run's directory")
        object.__setattr__(self, "schemes", tuple(Scheme(s) for s in self.schemes))
        object.__setattr__(self, "partition_mode", PartitionMode(self.partition_mode))
        if not self.schemes:
            raise ConfigError("at least one valuation scheme is required")
        repeated = sorted({s.value for s in self.schemes if self.schemes.count(s) > 1})
        if repeated:
            raise ConfigError(f"valuation.schemes names {', '.join(repeated)} more than once")
        # constructing the sub-configs runs their own validation up front
        self.training_config(seed=0)
        self.valuation_config(perm_seed=0)
        self.attack_spec()
        NoiseSpec(self.sigma, 0)
        FairnessSpec(self.target_class)
        PartitionSpec(self.partition_mode, self.clients, self.dirichlet_alpha)
        # a CSV's shape and classes are known only once it is read
        if self.data_source == "synthetic":
            check_synthetic_shape(self.synthetic_n, self.synthetic_d)
            check_target_class(self.target_class, SYNTHETIC_CLASSES)
            out_dim = 1 if self.output_activation == "sigmoid" else SYNTHETIC_CLASSES
            check_model_size((self.synthetic_d, *self.hidden_sizes, out_dim))
        # every round scores all the clients, so a scheme that cannot run on
        # them fails here, before any fold trains
        if Scheme.EXACT in self.schemes and self.clients > EXACT_CLIENT_LIMIT:
            raise ConfigError(
                f"exact_shapley enumerates 2^K utilities; partition.clients = {self.clients} "
                f"exceeds {EXACT_CLIENT_LIMIT}, use the gtg scheme"
            )
        if Scheme.GTG in self.schemes:
            permutation_budget(self.clients, self.eps2)
        # Each range check is written so that NaN fails it.
        if not 0.0 <= self.group_imbalance < 1.0:
            raise ConfigError("data.group_imbalance must lie in [0, 1)")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("data.test_fraction must lie in (0, 1)")

    def training_config(self, seed: int) -> TrainingConfig:
        return TrainingConfig(
            rounds=self.rounds,
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            optimizer=self.optimizer,
            seed=seed,
        )

    def valuation_config(self, perm_seed: int) -> ValuationConfig:
        return ValuationConfig(
            eps1=self.eps1,
            eps2=self.eps2,
            eps3=self.eps3,
            perm_seed=perm_seed,
        )

    def attack_spec(self) -> AttackSpec:
        return AttackSpec(self.attack_epsilon, self.attack_step_size, self.attack_steps)

    def fold_seed(self, fold: int) -> int:
        return derive_seed(self.master_seed, "fold", fold)

    def csv_schema(self) -> CsvSchema:
        return CsvSchema(
            label=self.label_column,
            sensitive=self.sensitive_column,
            positive_sensitive_value=self.positive_sensitive_value,
        )


def _as_float(raw: str) -> float:
    # NaN passes every `x < 0` range check, so non-finite values stop here.
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError("value must be finite")
    return value


def _as_int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(",") if p.strip())


def _as_schemes(raw: str) -> tuple[Scheme, ...]:
    return tuple(Scheme(p.strip()) for p in raw.split(",") if p.strip())


def _check_truncation_rule(raw: str) -> None:
    # GTG's one truncation rule (gtg_shapley_values): a permutation scan
    # stops once the prefix utility is within eps3 of the full coalition's.
    # The key stays so that configs naming the rule still parse.
    if raw != "prefix_distance":
        raise ValueError("the one truncation rule is 'prefix_distance'")


# config key -> (ExperimentConfig field, or None for a key that sets none,
# caster)
_KEYS: dict[str, tuple[str | None, Callable]] = {
    "data.source": ("data_source", str),
    "data.n": ("synthetic_n", int),
    "data.d": ("synthetic_d", int),
    "data.group_imbalance": ("group_imbalance", _as_float),
    "data.csv_path": ("csv_path", str),
    "data.label_column": ("label_column", str),
    "data.sensitive_column": ("sensitive_column", str),
    "data.positive_sensitive_value": ("positive_sensitive_value", str),
    "data.test_fraction": ("test_fraction", _as_float),
    "partition.mode": ("partition_mode", PartitionMode),
    "partition.alpha": ("dirichlet_alpha", _as_float),
    "partition.clients": ("clients", int),
    "model.hidden": ("hidden_sizes", _as_int_tuple),
    "model.output": ("output_activation", str),
    "training.rounds": ("rounds", int),
    "training.local_epochs": ("local_epochs", int),
    "training.batch_size": ("batch_size", int),
    "training.learning_rate": ("learning_rate", _as_float),
    "training.optimizer": ("optimizer", str),
    "metrics.sigma": ("sigma", _as_float),
    "metrics.target_class": ("target_class", int),
    "attack.epsilon": ("attack_epsilon", _as_float),
    "attack.step_size": ("attack_step_size", _as_float),
    "attack.steps": ("attack_steps", int),
    "valuation.schemes": ("schemes", _as_schemes),
    "valuation.eps1": ("eps1", _as_float),
    "valuation.eps2": ("eps2", _as_float),
    "valuation.eps3": ("eps3", _as_float),
    "valuation.truncation_rule": (None, _check_truncation_rule),
    "experiment.folds": ("folds", int),
    "experiment.master_seed": ("master_seed", int),
    "experiment.output_dir": ("output_dir", str),
}


def parse_config_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    overrides: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown config key {key!r}")
        field_name, caster = _KEYS[key]
        try:
            value = caster(raw_value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(
                f"{origin}:{lineno}: bad value for {key!r}: {raw_value!r} ({exc})"
            ) from exc
        if field_name is not None:
            overrides[field_name] = value
    try:
        return ExperimentConfig(**overrides)
    except ConfigError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc


def parse_config_file(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))
