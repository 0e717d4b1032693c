"""Golden sha256 digests of every fold's scores.csv for the shipped configs.

A change that alters any score byte fails here; if the change is intended,
update the digests and say why in CHANGES.md.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from fedtrust.config import parse_config_file
from fedtrust.experiment import run_experiment

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    "smoke": [
        "a0c83d2cf4cf839a37bcc15f8674011909add243720b74caf79f2de3cf14ea73",
    ],
    "default": [
        "fa4ed325dd2de008caaed2bd43afecd49ec2e3fa85f638ee47b21ba9e4b47e61",
        "07d27ba75a5d6c013735da7f65f651f183bfedd2bb584b9d416f512eec515bf8",
        "71cfb91ba2fd60831739fa66ea8522a7fb67a9ce7aed8f55be54274b6e254629",
        "cfe5ab5187a66ef28afe092a08972b539e7c4151602a941c7c5913e1591088bb",
        "f7f3ce0587e6c5dcbe911ff657f0199c538843db81530fc329c0c588ba75701f",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scores_digests(name, tmp_path):
    cfg = parse_config_file(CONFIGS / f"{name}.txt")
    run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path)))
    digests = [
        hashlib.sha256((tmp_path / f"fold_{f}" / "scores.csv").read_bytes()).hexdigest()
        for f in range(cfg.folds)
    ]
    assert digests == GOLDEN[name]
