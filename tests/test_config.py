import pytest

from fedtrust.config import ExperimentConfig, TruncationRule, parse_config_file, parse_config_text
from fedtrust.data import PartitionMode
from fedtrust.errors import ConfigError
from fedtrust.valuation import Scheme


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
        assert cfg.truncation_rule is TruncationRule.PREFIX_DISTANCE

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

    def test_truncation_rule_accepts_only_prefix_distance(self):
        cfg = parse_config_text("valuation.truncation_rule = prefix_distance\n")
        assert cfg.truncation_rule is TruncationRule.PREFIX_DISTANCE
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
