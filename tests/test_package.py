"""The package namespace loads a layer on first use and keeps every export.

A fresh process that only parses a config and builds fold data (what
``perfbench/setup_probe.py`` does) must load no layer above ``config``; each
name the package has exported resolves, through ``fedtrust.<name>``, to the
object its module defines.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedtrust

ROOT = Path(__file__).resolve().parent.parent

# name -> the module it was exported from before the namespace went lazy
EXPORTED = {
    "AnalysisReport": "analysis",
    "build_report": "analysis",
    "rmse": "analysis",
    "AttackSpec": "attacks",
    "ExperimentConfig": "config",
    "parse_config_file": "config",
    "parse_config_text": "config",
    "Dataset": "data",
    "PartitionSpec": "data",
    "generate_synthetic": "data",
    "load_csv": "data",
    "partition": "data",
    "train_test_split": "data",
    "analyze_run_dir": "experiment",
    "run_experiment": "experiment",
    "run_fold": "experiment",
    "ClientUpdate": "federation",
    "RoundRecord": "federation",
    "TrainingConfig": "federation",
    "fedavg": "federation",
    "local_train": "federation",
    "run_training": "federation",
    "EvalContext": "metrics",
    "FairnessSpec": "metrics",
    "Metric": "metrics",
    "NoiseSpec": "metrics",
    "fair": "metrics",
    "perf": "metrics",
    "rel": "metrics",
    "res": "metrics",
    "Architecture": "nn",
    "ModelParams": "nn",
    "init_params": "nn",
    "CoalitionCache": "valuation",
    "Scheme": "valuation",
    "ScoreTable": "valuation",
    "ValuationConfig": "valuation",
    "accumulate": "valuation",
    "coalition_utility": "valuation",
    "exact_shapley_round": "valuation",
    "gtg_shapley_round": "valuation",
    "loo_round": "valuation",
}

PROBE = """
import json, runpy, sys
sys.argv = [sys.argv[1], sys.argv[2]]
try:
    runpy.run_path(sys.argv[0], run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps(sorted(name for name in sys.modules if name.startswith("fedtrust"))))
"""


def test_setup_probe_loads_only_the_bottom_layers():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "perfbench" / "setup_probe.py"), str(ROOT / "configs" / "default.txt")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert loaded == [
        "fedtrust",
        "fedtrust.atomic",
        "fedtrust.config",
        "fedtrust.data",
        "fedtrust.errors",
        "fedtrust.seeding",
    ]


@pytest.mark.parametrize("name", sorted(EXPORTED))
def test_every_export_resolves_to_its_definition(name):
    module = importlib.import_module(f"fedtrust.{EXPORTED[name]}")
    assert getattr(fedtrust, name) is getattr(module, name)
    assert name in dir(fedtrust)


def test_export_table_is_the_exported_names():
    assert sorted(fedtrust.__all__) == sorted(EXPORTED)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fedtrust.no_such_name
