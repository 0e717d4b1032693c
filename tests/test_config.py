import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrust import config
from fedtrust.attacks import AttackSpec
from fedtrust.config import ExperimentConfig, parse_config_file, parse_config_text
from fedtrust.data import PartitionMode, PartitionSpec
from fedtrust.errors import ConfigError
from fedtrust.federation import TrainingConfig
from fedtrust.metrics import NoiseSpec
from fedtrust.valuation import Scheme, ValuationConfig

ROOT = Path(__file__).resolve().parent.parent

def float_fields(cls):
    return [f.name for f in dataclasses.fields(cls) if f.type == "float"]


# every config class a caller may build in code, with the arguments it needs
# besides its floats
CONFIG_CLASSES = [
    (ExperimentConfig, {}),
    (TrainingConfig, {}),
    (AttackSpec, {}),
    (NoiseSpec, {}),
    (ValuationConfig, {}),
    (PartitionSpec, {"mode": PartitionMode.DIRICHLET, "client_count": 4}),
]
FLOAT_FIELDS = [
    pytest.param(cls, kwargs, name, id=f"{cls.__name__}.{name}")
    for cls, kwargs in CONFIG_CLASSES
    for name in float_fields(cls)
]


class TestDefaults:
    def test_protocol_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.clients == 4
        assert cfg.rounds == 10
        assert cfg.folds == 5
        assert cfg.sigma == 0.1
        assert (cfg.attack_step_size, cfg.attack_epsilon, cfg.attack_steps) == (0.007, 0.3, 40)
        assert (cfg.eps1, cfg.eps2, cfg.eps3) == (0.001, 0.05, 0.002)
        assert cfg.dirichlet_alpha == 0.5
        assert cfg.partition_mode is PartitionMode.DIRICHLET

    def test_default_config_file_is_the_built_in_defaults(self):
        # the file's header says every key it shows equals the built-in default
        assert parse_config_file(ROOT / "configs" / "default.txt") == ExperimentConfig()

    def test_fold_seeds_distinct_and_stable(self):
        cfg = ExperimentConfig(master_seed=42)
        seeds = [cfg.fold_seed(f) for f in range(5)]
        assert len(set(seeds)) == 5
        assert seeds == [ExperimentConfig(master_seed=42).fold_seed(f) for f in range(5)]


class TestParser:
    def test_parses_flat_keys(self):
        cfg = parse_config_text(
            """
            # comment line
            data.n = 500
            partition.mode = iid          # inline comment
            partition.clients = 3
            model.hidden = 8,4
            valuation.schemes = gtg,loo
            experiment.master_seed = 7
            """
        )
        assert cfg.synthetic_n == 500
        assert cfg.partition_mode is PartitionMode.IID
        assert cfg.clients == 3
        assert cfg.hidden_sizes == (8, 4)
        assert cfg.schemes == (Scheme.GTG, Scheme.LOO)
        assert cfg.master_seed == 7

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r":2.*nonsense"):
            parse_config_text("data.n = 100\nnonsense.key = 1\n")

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(ConfigError, match=r":1.*data\.n"):
            parse_config_text("data.n = many\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match=":1"):
            parse_config_text("data.n 100\n")

    def test_semantic_validation_still_applies(self):
        with pytest.raises(ConfigError):
            parse_config_text("experiment.folds = 0\n")
        with pytest.raises(ConfigError):
            parse_config_text("valuation.eps2 = 0\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("data.test_fraction = 2", "test_fraction"),
            ("data.test_fraction = 0", "test_fraction"),
            ("model.hidden = 16,0", "model.hidden"),
            ("partition.clients = 1", "two clients"),
            ("partition.alpha = 0", "dirichlet_alpha"),
            ("experiment.output_dir =  ", r"<config>: experiment\.output_dir is empty"),
        ],
    )
    def test_range_checks_that_need_no_data_fail_at_parse(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(line + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_learning_rate_rejected(self, value):
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config_text(f"training.learning_rate = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        [
            "data.group_imbalance",
            "data.test_fraction",
            "partition.alpha",
            "training.learning_rate",
            "metrics.sigma",
            "attack.epsilon",
            "attack.step_size",
            "valuation.eps1",
            "valuation.eps2",
            "valuation.eps3",
        ],
    )
    def test_non_finite_float_rejected_naming_the_line(self, key, value):
        with pytest.raises(ConfigError, match=rf":2: bad value for '{key}'.*finite"):
            parse_config_text(f"data.n = 100\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("valuation.schemes = gtg,gtg,loo", "names gtg more than once"),
            ("valuation.schemes = loo,exact_shapley,loo,exact_shapley", "names exact_shapley, loo more"),
            ("partition.clients = 13\nvaluation.schemes = exact_shapley", "exact_shapley .* 13 exceeds 12"),
            ("partition.clients = 11\nvaluation.schemes = gtg", "GTG budget .* lower valuation.eps2"),
            ("partition.clients = 2000\nvaluation.schemes = gtg", r"= about 10\^5734 permutations"),
            # under 10^6 permutations, but (budget + 1) x K float64 marginals of 1.43 GB
            (
                "partition.clients = 180\nvaluation.eps2 = 5e-324\nvaluation.schemes = gtg",
                r"= 992559 permutations .*budget x K \(K = 180\) exceeds 10000000",
            ),
        ],
    )
    def test_a_scheme_that_cannot_run_fails_at_parse(self, lines, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(lines + "\n")

    def test_a_huge_gtg_budget_fails_without_computing_k_factorial(self, monkeypatch):
        factorial = math.factorial

        def small_factorial(k):
            assert k <= 100, f"factorial({k}) computed"
            return factorial(k)

        monkeypatch.setattr(math, "factorial", small_factorial)
        with pytest.raises(ConfigError, match=r"= about 10\^1512850 permutations"):
            parse_config_text("partition.clients = 300000\nvaluation.schemes = gtg\n")

    @pytest.mark.parametrize(
        "lines",
        [
            "partition.clients = 12\nvaluation.schemes = exact_shapley,loo",
            "partition.clients = 13\nvaluation.schemes = loo",
            "partition.clients = 11\nvaluation.eps2 = 0.0001\nvaluation.schemes = gtg",
            "partition.clients = 10\nvaluation.schemes = gtg",
        ],
    )
    def test_schemes_within_their_limits_parse(self, lines):
        parse_config_text(lines + "\n")

    def test_limits_are_defined_once(self):
        from fedtrust import valuation

        assert valuation.EXACT_CLIENT_LIMIT is config.EXACT_CLIENT_LIMIT == 12
        assert valuation.permutation_budget is config.permutation_budget

    @pytest.mark.parametrize(
        "line, message",
        [
            ("data.n = 9", r"need n >= 10 and d >= 2, got n=9, d=8"),
            ("data.d = 1", r"need n >= 10 and d >= 2, got n=2000, d=1"),
            ("metrics.target_class = 2", r"metrics.target_class 2 is not a class of the 2-class dataset"),
            ("data.n = 12500001", r"n x d = 100000008 synthetic features exceeds 100000000"),
            # P = 7 x 111112 + 111112 + 111112 + 1, one hidden unit past the limit
            ("data.d = 7\nmodel.hidden = 111112", r"a 7-111112-1 model has P = 1000009 parameters, more than 1000000"),
            ("model.output = softmax\nmodel.hidden = 100000,2", r"a 8-100000-2-2 model has P = 1100008 parameters"),
        ],
    )
    def test_synthetic_settings_that_fail_every_fold_fail_at_parse(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(line + "\n")

    def test_synthetic_bounds_hold_at_their_edge_and_not_for_a_csv(self):
        parse_config_text("data.n = 10\ndata.d = 2\nmetrics.target_class = 1\n")
        parse_config_text("data.n = 12500000\ndata.d = 8\n")  # 10^8 features, 800 MB
        parse_config_text("data.d = 7\nmodel.hidden = 111111\n")  # P = 10^6 parameters
        # a CSV's shape, classes and model are checked once it is read
        cfg = parse_config_text(
            "data.source = csv\ndata.csv_path = in.csv\ndata.n = 5\nmetrics.target_class = 4\nmodel.hidden = 100000000\n"
        )
        assert (cfg.synthetic_n, cfg.target_class, cfg.hidden_sizes) == (5, 4, (100000000,))

    def test_synthetic_bounds_are_defined_once(self):
        from fedtrust import data, experiment

        assert data.check_synthetic_shape is config.check_synthetic_shape
        assert experiment.check_target_class is config.check_target_class
        assert experiment.check_model_size is config.check_model_size
        with pytest.raises(ConfigError, match=r"need n >= 10 and d >= 2, got n=9, d=8"):
            data.generate_synthetic(9, 8, 0.3, seed=0)

    @pytest.mark.parametrize(
        "path",
        sorted((ROOT / "configs").glob("*.txt")) + sorted((ROOT / "perfbench" / "workloads").glob("*.txt")),
        ids=lambda path: f"{path.parent.name}/{path.name}",
    )
    def test_every_shipped_config_and_benchmark_workload_parses(self, path, tmp_path):
        # a workload runs with the keys perfbench/run.py appends to it
        text = path.read_text(encoding="utf-8")
        if path.parent.name == "workloads":
            text += f"\nexperiment.master_seed = 3\nexperiment.output_dir = {tmp_path / 'out'}\n"
        parse_config_text(text, origin=str(path))

    def test_truncation_rule_accepts_only_prefix_distance(self):
        cfg = parse_config_text("valuation.truncation_rule = prefix_distance\n")
        assert cfg == ExperimentConfig()
        with pytest.raises(ConfigError, match=r":2.*valuation\.truncation_rule.*marginal_size"):
            parse_config_text("data.n = 100\nvaluation.truncation_rule = marginal_size\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "absent.txt")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("training.rounds = 4\nmetrics.sigma = 0.05\n")
        cfg = parse_config_file(path)
        assert cfg.rounds == 4 and cfg.sigma == 0.05


class TestCodeBuiltConfigs:
    def test_table_covers_every_float_field(self):
        # ExperimentConfig 10, TrainingConfig 1, AttackSpec 4, NoiseSpec 1,
        # ValuationConfig 3, PartitionSpec 1
        assert len(FLOAT_FIELDS) == 20

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("cls, kwargs, name", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, cls, kwargs, name, value):
        with pytest.raises(ConfigError):
            cls(**kwargs, **{name: value})

    def test_defaults_construct(self):
        for cls, kwargs in CONFIG_CLASSES:
            cls(**kwargs)


ADVERSARIAL_VALUES = ["nan", "inf", "-inf", "-0", "1e308", "", "0", "1", "0.5", "-1", "abc"]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(config._KEYS)), st.sampled_from(ADVERSARIAL_VALUES)),
        max_size=6,
    )
)
def test_parsed_config_is_rejected_or_all_finite(lines):
    # Lines may repeat a key (the last one wins). Parsing only: no run starts.
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    for name in float_fields(ExperimentConfig):
        assert math.isfinite(getattr(cfg, name))


def test_config_is_the_bottom_layer():
    # parsing a config loads no fedtrust module but errors and seeding
    code = "import json, sys, fedtrust.config; print(json.dumps(sorted(m for m in sys.modules if m.startswith('fedtrust'))))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == ["fedtrust", "fedtrust.config", "fedtrust.errors", "fedtrust.seeding"]
