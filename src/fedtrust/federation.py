"""FedAvg orchestration: local training, aggregation, round records.

Every round trains all clients from the previous global model, aggregates by
sample-count-weighted parameter averaging, and (optionally) checkpoints the
artifacts the valuation stage consumes:

    <run_dir>/round_<t>/{global_before.txt, global_after.txt,
                         client_<k>.txt, meta.json}

A client's local update trains one working copy of the global parameter
vector in place (minibatch Adam or SGD) and checks it for non-finite values
after every step; the finished vector becomes the update's immutable
``ModelParams``. The gradient vector, Adam's moments, two scratch vectors
and an ``nn.ModelGroup`` of one over the working vector (views, which
follow every step) are made once per update; each step gathers its
minibatch rows, has ``nn.loss_and_param_grads`` run the group and write
the gradient into views of that vector (no loss value is computed) and
updates the parameters in place.
``np.errstate`` is entered once around the loop. Client shuffling streams
are derived per (seed, round, client), so a full training run is a pure
function of its configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from .atomic import atomic_open
from .data import Dataset
from .errors import ConfigError, InputError, NumericError
from .nn import ModelParams
from .seeding import derive_seed

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
class ClientUpdate:
    client_id: int
    round: int
    params: ModelParams
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ConfigError("sample_count must be at least 1")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    global_before: ModelParams
    updates: tuple[ClientUpdate, ...]
    global_after: ModelParams

    def __post_init__(self) -> None:
        ids = [u.client_id for u in self.updates]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate client ids in round record")
        object.__setattr__(self, "updates", tuple(self.updates))

    # The record is immutable, so the ids are built once on first access.
    @cached_property
    def client_ids(self) -> tuple[int, ...]:
        return tuple(u.client_id for u in self.updates)

    def update_for(self, client_id: int) -> ClientUpdate:
        for u in self.updates:
            if u.client_id == client_id:
                return u
        raise InputError(f"no update for client {client_id} in round {self.round}")


def local_train(
    global_params: ModelParams,
    data: Dataset,
    cfg: TrainingConfig,
    round_idx: int,
    client_id: int,
) -> ClientUpdate:
    """Mini-batch local optimization starting from the global model, shuffled
    by the client's (seed, round, client) stream."""
    if len(data) == 0:
        raise InputError(f"client {client_id} has no training data")
    rng = np.random.default_rng(derive_seed(cfg.seed, "local", round_idx, client_id))
    arch = global_params.architecture
    nn.check_labels(arch, data.labels)
    values = global_params.values.copy()
    group = nn.ModelGroup.of_one(arch, values, cfg.batch_size)
    grad = np.empty_like(values)
    grad_layers = nn.unpack_layers(arch, grad)
    m = np.zeros_like(values)
    v = np.zeros_like(values)
    scratch = (np.empty_like(values), np.empty_like(values))
    step = 0
    # A diverging step overflows to inf or nan, which stay non-finite under
    # every later step: one check after each step stops at the first bad
    # one, and numpy's overflow warnings on the way (and the sigmoid's exp
    # overflow) are silenced once for the whole loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.local_epochs):
            order = rng.permutation(len(data))
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                nn.loss_and_param_grads(group, data.features[idx], data.labels[idx], grad_layers)
                step += 1
                if cfg.optimizer == "adam":
                    nn.adam_step(values, m, v, grad, step, cfg.learning_rate, scratch)
                else:
                    nn.sgd_step(values, grad, cfg.learning_rate)
                if not np.isfinite(values).all():
                    raise NumericError(
                        f"training diverged in round {round_idx}, client {client_id}: "
                        f"non-finite parameters after step {step}"
                    )
    return ClientUpdate(client_id, round_idx, ModelParams(arch, values), len(data))


def fedavg(base: ModelParams, updates: Sequence[ClientUpdate]) -> ModelParams:
    """Sample-count-weighted mean of the update parameters.

    An empty update set returns ``base`` unchanged (the v(empty-coalition)
    convention); a single update returns that client's parameters exactly.
    """
    if not updates:
        return base
    for u in updates:
        if u.params.architecture != base.architecture:
            raise ConfigError(
                f"client {u.client_id} architecture does not match the base model"
            )
    if len(updates) == 1:
        return updates[0].params
    counts = np.array([u.sample_count for u in updates], dtype=np.float64)
    weights = counts / counts.sum()
    stacked = np.stack([u.params.values for u in updates])
    return ModelParams(base.architecture, (stacked * weights[:, None]).sum(axis=0))


def run_round(
    global_params: ModelParams,
    parts: Sequence[Dataset],
    cfg: TrainingConfig,
    round_idx: int,
) -> RoundRecord:
    """Train every client from the current global model and aggregate."""
    updates = tuple(
        local_train(global_params, parts[k], cfg, round_idx, k)
        for k in range(len(parts))
    )
    return RoundRecord(round_idx, global_params, updates, fedavg(global_params, updates))


class RunWriter:
    """Checkpoints round artifacts under a run directory."""

    def __init__(self, run_dir) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)

    def write_round(self, record: RoundRecord, cfg: TrainingConfig) -> None:
        round_dir = self.run_dir / f"round_{record.round}"
        round_dir.mkdir(parents=True, exist_ok=True)
        nn.save_params(record.global_before, round_dir / "global_before.txt")
        nn.save_params(record.global_after, round_dir / "global_after.txt")
        for u in record.updates:
            nn.save_params(u.params, round_dir / f"client_{u.client_id}.txt")
        meta = {
            "round": record.round,
            "sample_counts": {str(u.client_id): u.sample_count for u in record.updates},
            "shuffle_seeds": {
                str(u.client_id): derive_seed(cfg.seed, "local", record.round, u.client_id)
                for u in record.updates
            },
            "aggregation": "fedavg",
            "weighting": "sample_count",
        }
        with atomic_open(round_dir / "meta.json") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)


def run_training(
    init: ModelParams,
    parts: Sequence[Dataset],
    cfg: TrainingConfig,
    writer: RunWriter | None = None,
) -> list[RoundRecord]:
    """Run rounds 1..T of FedAvg, checkpointing each round as it completes."""
    records: list[RoundRecord] = []
    current = init
    for t in range(1, cfg.rounds + 1):
        record = run_round(current, parts, cfg, t)
        if writer is not None:
            writer.write_round(record, cfg)
        records.append(record)
        current = record.global_after
    return records
