"""Set-up probe: import fedtrust, parse a config, build fold 0's inputs.

    python3 setup_probe.py CONFIG

Prints the fold 0 train, test and per-client sizes as one JSON line. The
benchmark times this whole process, interpreter start included.
"""

from __future__ import annotations

import json
import sys

from fedtrust.config import parse_config_file
from fedtrust.data import PartitionSpec, generate_synthetic, partition, train_test_split
from fedtrust.seeding import derive_seed


def main(path: str) -> int:
    cfg = parse_config_file(path)
    fold_seed = cfg.fold_seed(0)
    data = generate_synthetic(
        cfg.synthetic_n, cfg.synthetic_d, cfg.group_imbalance, derive_seed(fold_seed, "data")
    )
    train, test = train_test_split(data, cfg.test_fraction, derive_seed(fold_seed, "split"))
    parts = partition(
        train,
        PartitionSpec(
            cfg.partition_mode, cfg.clients, cfg.dirichlet_alpha, seed=derive_seed(fold_seed, "partition")
        ),
    )
    print(json.dumps({"train": len(train), "test": len(test), "parts": [len(p) for p in parts]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
