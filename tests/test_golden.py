"""Golden sha256 digests of every output file of the shipped configs.

Two more configs pin what the shipped configs do not build (see
``VARIANTS``): the smoke keys with a softmax output over two hidden layers,
on enough data, clients, rounds and PGD steps that the attack flips rows;
and the smoke keys trained with SGD over four Dirichlet clients in batches
of 7, whose unequal sizes give the clients unequal step counts and ragged
epoch ends.

Each fold's scores.csv, scores_total.csv and valuation_meta.json are pinned,
and so are the run's report.json, report.csv and heatmap.csv. Each fold's
training checkpoints are pinned by one digest over every round_<t>/* file:
a last-bit change in training can leave every prediction, and so every
score byte, as it was. A change that alters any of these bytes fails here;
if the change is intended, update the digests and say why in CHANGES.md.

The digests were pinned under numpy's bundled OpenBLAS running its
``SkylakeX`` kernel; the checkpoint digests of some configs differ under
other kernels, so a failure names the kernel this process runs.
"""

import ctypes
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from fedtrust.config import parse_config_file
from fedtrust.experiment import run_experiment

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FOLD_FILES = ("scores.csv", "scores_total.csv", "valuation_meta.json")
RUN_FILES = ("report.json", "report.csv", "heatmap.csv")

# Configs that are not files: a shipped config's keys with some replaced.
VARIANTS = {
    "smoke_softmax_8_8": (
        "smoke",
        dict(
            output_activation="softmax",
            hidden_sizes=(8, 8),
            synthetic_n=300,
            clients=3,
            rounds=3,
            learning_rate=0.01,
            attack_steps=10,
            attack_step_size=0.03,
            folds=2,
        ),
    ),
    "smoke_sgd_dirichlet": (
        "smoke",
        dict(
            synthetic_n=200,
            partition_mode="dirichlet",
            clients=4,
            rounds=3,
            local_epochs=2,
            batch_size=7,
            learning_rate=0.05,
            optimizer="sgd",
        ),
    ),
}

# Per fold: the digests of FOLD_FILES in order; then RUN_FILES in order;
# then one checkpoint digest per fold (see checkpoint_digest).
GOLDEN = {
    "smoke": {
        "folds": [
            (
                "a0c83d2cf4cf839a37bcc15f8674011909add243720b74caf79f2de3cf14ea73",
                "a64c53b434b46e1cee916e26825e6fc2061f2e7fef7ff895b902b86149dee435",
                "2ddbd653fc1bafd8ff6f0cb2e827f21a7e9f74a3d823c5f0eddb0f19ba881af7",
            ),
        ],
        "run": (
            "b5b9a56eb37fcb7d8a3893559a47091f06bfb6ed20e7c4a163482c508cb16c62",
            "139341c71774df8a8fd7240fa92e92b11e83b60e92b12a16748150e4e703e52e",
            "4bf5c4d40f55d81be7f560751638b77a3bfe55402ae3cc45f527c0d2df7e4042",
        ),
        "checkpoints": [
            "bef149841909f5b41292bfae0465c98fea1b71f11fb5a1239a0e738e4be26296",
        ],
    },
    "default": {
        "folds": [
            (
                "fa4ed325dd2de008caaed2bd43afecd49ec2e3fa85f638ee47b21ba9e4b47e61",
                "877813cbcfc2421be5db023e290ccd90ecf1455b3a82cffcf82472168c32ead2",
                "257c62ee25d9b57131dd2d04535f1a5c58072a8eef6ab2e288c99ec2fee43531",
            ),
            (
                "07d27ba75a5d6c013735da7f65f651f183bfedd2bb584b9d416f512eec515bf8",
                "2205bcb3f75f0047799d52cdd7f6b88f1f504a72aa39cb233584e5b97c658a6c",
                "fd78e5e4b4b8bbb4d8441e5ca8ba7a499f5988e958fe924d266489f6f7370d46",
            ),
            (
                "71cfb91ba2fd60831739fa66ea8522a7fb67a9ce7aed8f55be54274b6e254629",
                "fbdec5187b3cdfb5935979754e600aa10f1319ea3b9c28c99a04523eefc02d2c",
                "378b5e127d76cbc062f63c261e33d725963b8f225d0bca37e5d8ac8700cd31b9",
            ),
            (
                "cfe5ab5187a66ef28afe092a08972b539e7c4151602a941c7c5913e1591088bb",
                "454f9a3f5ae59635ec571921500e064092d636146c0d0b5bb03b7a326e20c87c",
                "1a641ac97438cb50a9dc5d83c83846e8a46671f9dba8908d5e18f9d198a78967",
            ),
            (
                "f7f3ce0587e6c5dcbe911ff657f0199c538843db81530fc329c0c588ba75701f",
                "3e4b4292645b6871f2291b162bbd0b0791307312929999fd058283dc27559795",
                "33475a87f32f75557f17f1d549ff0a2942cb6914ba8c6326c89a27d9de1af06d",
            ),
        ],
        "run": (
            "03abe0ff4f86c985ef46d4f43bc96b1086cece3a7afca85afb500a7c0628d73d",
            "e982efe88e644cca887a09c96bb8883b749f96fc41b8c01f7fc94dcc5cfbdfc3",
            "c2f46a10be9809204532424fc7669dfdf8ff773ebf8c333183984cf629ef0305",
        ),
        "checkpoints": [
            "e74417eb94228455a0ce8170ccaa1c0df0aac93d9c07e8083762b0f25db808bc",
            "6e6fec6e3daf0b1a5288e352ebc5fd6d5223e8f2fed47b8184794eeb28c295ce",
            "365757f27de9b79d61df22186614177209487ae797272cff2057148e8cf41988",
            "c8a4809fdb72ce498da2a3963845cc75b8807a491c9540b3bdc9d608090658a3",
            "fa188f45513cf5b4b9640524555b73354450e48ede4c9eed4d05a251eb1a6d29",
        ],
    },
    "smoke_softmax_8_8": {
        "folds": [
            (
                "7534be8d4962297729d74db1fc0c5a597ec596df5b3579bef652b279a8f4a244",
                "212b6475a6f43873944e9a122b72c6d5fdfda1ebe12db73ddbcc2e49a6279468",
                "58694dc5c7bf640e9a0d5fff5ab17159cc03c863af1e9b20704678bf55309635",
            ),
            (
                "693a307dc758a3401fc13c360c58e809bf6f1396c3319c4d66984149bf25012a",
                "b80a904eed79f063c5bf3efd8b0ca91bc83cfa1c9eb2bea7efe4e94e882d545c",
                "335160bd467d252f97210b2a6c11b95394080cd2248670ac74e221098c63a5e5",
            ),
        ],
        "run": (
            "1591d5621752256eb84f892914bbe56fb6d26c000f5c05846c0e478371b20108",
            "28a1679804360778995ae04fb717d8f8a5d76bb27ed1ee05e417971e3036072b",
            "9c9afb691afc1060c98ce982fedd1fa1d50b1c0fdb1271ee459ec9696ab87d29",
        ),
        "checkpoints": [
            "c4dd37315fc08fb48fafb2753fd52cd691f828aa794591b24eb5b36df2ea5f59",
            "f73df46f029367dc4f43c9edef9898a808fd83ae77d04c841145a8879e6f9a2c",
        ],
    },
    "smoke_sgd_dirichlet": {
        "folds": [
            (
                "7b9579c1d9134daad2b7ec16370e2623393583f3cd7a81dee5fe695aca145498",
                "45e8bc97d87b4a416c0548318519c7662055e0175cfa20a9f15a4c2f1085fe9a",
                "34648f221405853ed6adceac279740c5a7a7040178d2cd6d53c563a07ae18110",
            ),
        ],
        "run": (
            "5a59f96e66a9ba9dd4edaf9b87ec3f787374860b62f4f591d90aa402abfb3f56",
            "2c4c44f01c39547fbffbb5d2f8988793a683f362d6fbe0e8ec76225fbfb5d4c2",
            "4bf5c4d40f55d81be7f560751638b77a3bfe55402ae3cc45f527c0d2df7e4042",
        ),
        "checkpoints": [
            "1312b452bb40a587ba2d5a4c9e4455141ef90d726f4a9cd02d7668dada8ca86a",
        ],
    },
}


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs, or "unknown" when the
    library or its ``scipy_openblas_get_corename64_`` is missing."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def kernel_note() -> str:
    return f"digests pinned under OpenBLAS kernel SkylakeX; this process runs {blas_kernel()}"


def golden_config(name: str):
    base, keys = VARIANTS.get(name, (name, {}))
    return dataclasses.replace(parse_config_file(CONFIGS / f"{base}.txt"), **keys)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checkpoint_digest(fold_dir: Path) -> str:
    """sha256 over each round_<t>/* file's relative path, a NUL and its bytes,
    in sorted path order."""
    h = hashlib.sha256()
    for path in sorted(fold_dir.glob("round_*/*")):
        h.update(path.relative_to(fold_dir).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scores_digests(name, tmp_path):
    cfg = dataclasses.replace(golden_config(name), output_dir=str(tmp_path))
    run_experiment(cfg)
    folds = [
        tuple(digest(tmp_path / f"fold_{f}" / file) for file in FOLD_FILES)
        for f in range(cfg.folds)
    ]
    assert folds == GOLDEN[name]["folds"], kernel_note()
    checkpoints = [checkpoint_digest(tmp_path / f"fold_{f}") for f in range(cfg.folds)]
    assert checkpoints == GOLDEN[name]["checkpoints"], kernel_note()
    assert tuple(digest(tmp_path / file) for file in RUN_FILES) == GOLDEN[name]["run"], kernel_note()
