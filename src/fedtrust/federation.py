"""FedAvg orchestration: local training, aggregation, round records.

Every round trains all clients from the previous global model, aggregates by
sample-count-weighted parameter averaging, and (optionally) checkpoints the
round's models and metadata; the valuation stage reads the in-memory round
records, not these files:

    <run_dir>/round_<t>/{global_before.txt, global_after.txt,
                         client_<k>.txt, meta.json}

A round's clients train together, in lockstep (minibatch Adam or SGD).
Row r of each (K, P) working array (parameters, gradient, Adam's moments,
two scratch arrays) belongs to one client, the clients with the most steps
first, so the clients that take step t are a prefix of the rows, and each
array's prefix is a view. Each step gathers every such client's minibatch,
drawn from its own (seed, round, client) shuffling stream, into one
preallocated (K, batch, d) buffer; ``nn.loss_and_param_grads`` runs one
``nn.ModelGroup`` stack over the prefix and writes each client's gradient
into its row (no loss value is computed); one Adam or SGD step updates the
prefix in place, and one finiteness check follows. A step at which some
client's batch is short (an epoch's ragged end) runs each client's group of
one over its row instead. Every operation does to a client's row what
training that client alone would do, so each update keeps those bits; the
finished rows become the updates' immutable ``ModelParams``.
``np.errstate`` is entered once around the loop. Client shuffling streams
are derived per (seed, round, client), so a full training run is a pure
function of its configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from .atomic import atomic_open, make_dirs
from .config import TrainingConfig
from .data import Dataset
from .errors import ConfigError, InputError, NumericError
from .nn import ModelParams
from .seeding import derive_seed


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    params: ModelParams
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ConfigError("sample_count must be at least 1")


# Hashed by identity: a coalition cache keys its memo by the record object.
@dataclass(frozen=True, eq=False)
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
    clients: Sequence[tuple[int, Dataset]],
    cfg: TrainingConfig,
    round_idx: int,
) -> tuple[ClientUpdate, ...]:
    """Mini-batch local optimization of each ``(client_id, data)`` client
    from the global model, shuffled by the client's (seed, round, client)
    stream; the updates, in the order of ``clients``.

    The clients take their steps in lockstep (see the module docstring). A
    client whose parameters go non-finite stops the round with the
    ``NumericError`` that training the clients one after another would
    raise: the first such client in id order, at its first non-finite step.
    """
    arch = global_params.architecture
    for client_id, data in clients:
        if len(data) == 0:
            raise InputError(f"client {client_id} has no training data")
        nn.check_labels(arch, data.labels)
    # Row r trains client order[r]: the largest clients, which take the most
    # steps, come first, so the clients that take step t are a prefix.
    order = sorted(range(len(clients)), key=lambda j: -len(clients[j][1]))
    ids = [clients[j][0] for j in order]
    parts = [clients[j][1] for j in order]
    size = cfg.batch_size
    per_epoch = [-(-len(data) // size) for data in parts]
    steps = [cfg.local_epochs * n for n in per_epoch]
    k = len(order)
    values = np.repeat(global_params.values[None, :], k, axis=0)
    grad = np.empty_like(values)
    m = np.zeros_like(values)
    v = np.zeros_like(values)
    scratch = (np.empty_like(values), np.empty_like(values))
    # A batch has at most `width` rows. A step at which every client has
    # that many runs one stack; any other step (an epoch's ragged end) runs
    # each client's group of one on its rows.
    width = min(size, max((len(data) for data in parts), default=0))
    xs = np.empty((k, width, arch.input_dim))
    ys = np.empty((k, width), dtype=np.int64)
    ones = [nn.ModelGroup.stacked(arch, values[r], width) for r in range(k)]
    one_grads = [nn.unpack_layers(arch, grad[r]) for r in range(k)]
    rngs = [np.random.default_rng(derive_seed(cfg.seed, "local", round_idx, i)) for i in ids]
    shuffles = [np.empty(0, dtype=np.int64)] * k
    batch_rows = [0] * k
    diverged: dict[int, int] = {}
    active, prefix = k, 0
    # A diverging step overflows to inf or nan; numpy's overflow warnings on
    # the way (and the sigmoid's exp overflow) are silenced once for the
    # whole loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, max(steps, default=0) + 1):
            while steps[active - 1] < step:
                active -= 1
            if active != prefix:
                prefix = active
                stack = nn.ModelGroup.stacked(arch, values[:active], width)
                stack_grads = nn.unpack_layers(arch, grad[:active])
                stack_x, stack_y = xs[:active], ys[:active]
                rows, m_rows, v_rows, g_rows = values[:active], m[:active], v[:active], grad[:active]
                rows_scratch = (scratch[0][:active], scratch[1][:active])
            full = True
            for r in range(active):
                batch = (step - 1) % per_epoch[r]
                if batch == 0:
                    shuffles[r] = rngs[r].permutation(len(parts[r]))
                idx = shuffles[r][batch * size : batch * size + size]
                c = batch_rows[r] = len(idx)
                # mode "clip" (the indices are in range) writes straight into
                # the buffer, which mode "raise" would copy through another
                parts[r].features.take(idx, 0, xs[r, :c], "clip")
                parts[r].labels.take(idx, 0, ys[r, :c], "clip")
                full = full and c == width
            if full:
                nn.loss_and_param_grads(stack, stack_x, stack_y, stack_grads)
            else:
                for r in range(active):
                    c = batch_rows[r]
                    nn.loss_and_param_grads(ones[r], xs[r, :c], ys[r, :c], one_grads[r])
            if cfg.optimizer == "adam":
                # every client started at step 1, so they share beta**step
                nn.adam_step(rows, m_rows, v_rows, g_rows, step, cfg.learning_rate, rows_scratch)
            else:
                nn.sgd_step(rows, g_rows, cfg.learning_rate)
            if not np.isfinite(rows).all():
                for r in np.flatnonzero(~np.isfinite(rows).all(axis=1)):
                    diverged.setdefault(ids[r], step)
                # only a client with a lower id, still training, can diverge first
                if min(ids[:active]) >= min(diverged):
                    break
    if diverged:
        client_id = min(diverged)
        raise NumericError(
            f"training diverged in round {round_idx}, client {client_id}: "
            f"non-finite parameters after step {diverged[client_id]}"
        )
    updates: list[ClientUpdate | None] = [None] * k
    for r, j in enumerate(order):
        updates[j] = ClientUpdate(ids[r], ModelParams(arch, values[r]), len(parts[r]))
    return tuple(updates)


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
    updates = local_train(global_params, list(enumerate(parts)), cfg, round_idx)
    return RoundRecord(round_idx, global_params, updates, fedavg(global_params, updates))


class RunWriter:
    """Checkpoints round artifacts under a run directory."""

    def __init__(self, run_dir) -> None:
        self.run_dir = Path(run_dir)
        make_dirs(self.run_dir)

    def write_round(self, record: RoundRecord, cfg: TrainingConfig) -> None:
        round_dir = self.run_dir / f"round_{record.round}"
        make_dirs(round_dir)
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
