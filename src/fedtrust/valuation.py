"""Per-round, per-metric client contribution scores.

Three schemes over a shared coalition-utility function:

* exact Shapley: average marginal contribution over all client orderings,
  computed from the 2^K memoized coalition utilities;
* GTG approximation: skips rounds whose global model barely moved (eps1),
  samples a balanced subset of permutations (eps2, every client leads
  equally often), and truncates a permutation scan once the running prefix
  utility is within eps3 of the full-coalition utility;
* Leave-One-Out: utility drop when one client is removed from the grand
  coalition.

The utility of a coalition is the metric value of the model obtained by
FedAvg-aggregating only that coalition's updates onto the previous global
model; the empty coalition is the previous global model itself. A
:class:`CoalitionCache` aggregates each (round, coalition) once and shares
its clean test predictions across the four metrics; utilities are memoized
per (round, coalition, metric) and computed only when a scheme asks, so
evaluation counts are the honest cost measure of a scheme. Each round
wrapper records the (round, coalition, metric) keys its scheme asked for in
the cache's ``requested[scheme]``; without a cache a wrapper call uses a
private one.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, DataError, InputError, MetricUndefinedError
from .federation import RoundRecord, fedavg
from .metrics import EvalContext, Metric, evaluate
from .nn import ModelParams, predict_batch
from .seeding import rng_from

logger = logging.getLogger(__name__)

EXACT_CLIENT_LIMIT = 12
_SUFFIX_ENUM_LIMIT = 1_000_000
_PERMUTATION_SCAN_LIMIT = 1_000_000

Coalition = tuple[int, ...]
UtilityFn = Callable[[Coalition], float]


class Scheme(str, Enum):
    EXACT = "exact_shapley"
    GTG = "gtg"
    LOO = "loo"


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


class CoalitionCache:
    """Memo of coalition utilities for one fold, with the counts of its cost.

    Each (round, coalition) is aggregated and run forward on the clean test
    inputs once; the aggregate and its predictions are kept for the latest
    round only and shared by every metric. A (round, coalition, metric)
    utility is computed on its first request: ``evaluations`` counts the
    utilities computed, ``hits`` the requests answered from the memo and
    ``undefined`` the computed utilities that fell back to the empty
    coalition. ``requested[scheme]`` holds the keys the round wrappers of
    that scheme asked for; the fallback's read of the empty coalition is
    not a request.
    """

    def __init__(self) -> None:
        self._store: dict[tuple[int, Coalition, Metric], float] = {}
        self._round = 0
        self._aggregates: dict[Coalition, tuple[ModelParams, np.ndarray]] = {}
        self.requested: dict[str, set[tuple[int, Coalition, Metric]]] = {}
        self.evaluations = 0
        self.hits = 0
        self.undefined = 0

    def utility(
        self, record: RoundRecord, ids: Coalition, metric: Metric, ctx: EvalContext
    ) -> float:
        key = (record.round, ids, metric)
        if key in self._store:
            self.hits += 1
            return self._store[key]
        model, clean = self._aggregate(record, ids, ctx)
        try:
            value = evaluate(model, metric, ctx, clean)
        except MetricUndefinedError as exc:
            # Substituting the empty-coalition utility rather than dropping
            # the coalition keeps the marginals around it unbiased.
            logger.warning(
                "round %d coalition %s: %s undefined (%s); using empty-coalition utility",
                record.round,
                ids,
                metric.value,
                exc,
            )
            self.undefined += 1
            value = self.utility(record, (), metric, ctx) if ids else 0.0
        self.evaluations += 1
        self._store[key] = value
        return value

    def _aggregate(
        self, record: RoundRecord, ids: Coalition, ctx: EvalContext
    ) -> tuple[ModelParams, np.ndarray]:
        if record.round != self._round:
            self._round, self._aggregates = record.round, {}
        if ids not in self._aggregates:
            model = fedavg(record.global_before, [record.update_for(k) for k in ids])
            self._aggregates[ids] = (model, predict_batch(model, ctx.test.features))
        return self._aggregates[ids]

    def __len__(self) -> int:
        return len(self._store)


def coalition_utility(
    record: RoundRecord,
    subset: Iterable[int],
    metric: Metric,
    ctx: EvalContext,
    cache: CoalitionCache | None = None,
) -> float:
    """Metric value of the coalition's aggregate on the round's base model.

    Metric-undefined coalitions fall back to the empty-coalition utility
    (with a logged warning). Without a ``cache`` a private one serves this
    call.
    """
    ids: Coalition = tuple(sorted(set(subset)))
    if not record.client_id_set.issuperset(ids):
        unknown = set(ids) - record.client_id_set
        raise InputError(f"unknown clients {sorted(unknown)} in round {record.round}")
    if cache is None:
        cache = CoalitionCache()
    return cache.utility(record, ids, Metric(metric), ctx)


def _utility_fn(
    record: RoundRecord,
    metric: Metric,
    ctx: EvalContext,
    cache: CoalitionCache | None,
    scheme: Scheme,
) -> UtilityFn:
    """The round's utility game, recording each request as ``scheme``'s.

    The scheme cores ask for sorted tuples, so a request's key is already
    the canonical coalition that :func:`coalition_utility` memoizes.
    """
    if cache is None:
        cache = CoalitionCache()
    requested = cache.requested.setdefault(scheme.value, set())

    def u(ids: Coalition) -> float:
        requested.add((record.round, ids, metric))
        return coalition_utility(record, ids, metric, ctx, cache)

    return u


# --- scheme cores over an abstract utility function ---


def exact_shapley_values(clients: Sequence[int], u: UtilityFn) -> dict[int, float]:
    """Shapley values of the utility game, exact over all orderings.

    Equivalent to averaging marginals over every permutation; the permutation
    sum is collapsed into the subset-weighted closed form so only the 2^K
    distinct coalition utilities are touched.
    """
    clients = tuple(sorted(clients))
    k = len(clients)
    fact = [math.factorial(i) for i in range(k + 1)]
    weights = [fact[s] * fact[k - 1 - s] / fact[k] for s in range(k)]
    values: dict[int, float] = {}
    for client in clients:
        others = tuple(c for c in clients if c != client)
        total = 0.0
        for size in range(k):
            for combo in combinations(others, size):
                with_c = tuple(sorted(combo + (client,)))
                total += weights[size] * (u(with_c) - u(combo))
        values[client] = total
    return values


def loo_values(clients: Sequence[int], u: UtilityFn) -> dict[int, float]:
    """Leave-one-out: utility of everyone minus utility without the client."""
    clients = tuple(sorted(clients))
    full = u(clients)
    return {
        c: full - u(tuple(x for x in clients if x != c)) for c in clients
    }


def permutation_budget(client_count: int, eps2: float) -> int:
    """R = max(K, ceil(eps2 * K!)) sampled permutations.

    Computed in exact integer arithmetic (K! overflows floats well before
    K reaches realistic federation sizes). Budgets beyond the practical
    scan limit are rejected rather than silently hanging.
    """
    sampled = math.ceil(Fraction(eps2) * math.factorial(client_count))
    budget = max(client_count, sampled)
    if budget > _PERMUTATION_SCAN_LIMIT:
        raise ConfigError(
            f"GTG budget ceil(eps2*K!) = {budget} permutations is infeasible "
            f"(limit {_PERMUTATION_SCAN_LIMIT}); lower valuation.eps2"
        )
    return budget


@lru_cache(maxsize=1)
def gtg_permutations(
    clients: Sequence[int], budget: int, round_idx: int, vcfg: ValuationConfig
) -> tuple[Coalition, ...]:
    """Balanced permutation sample: client (r mod K) leads permutation r.

    A lead whose quota covers its whole stratum gets the suffixes by
    lexicographic enumeration (this is what makes eps2 = 1 reproduce the
    exact permutation set); otherwise suffixes are independent seeded
    shuffles keyed by (perm_seed, round, r). The latest sample is kept, so
    a round's four metrics share one draw; ``clients`` must be hashable.
    """
    clients = tuple(sorted(clients))
    k = len(clients)
    stratum = math.factorial(k - 1)
    quota = [len(range(i, budget, k)) for i in range(k)]
    enumerated: dict[int, list[Coalition]] = {}
    for i in range(k):
        if quota[i] >= stratum and stratum <= _SUFFIX_ENUM_LIMIT:
            rest = clients[:i] + clients[i + 1 :]
            enumerated[i] = [tuple(p) for p in permutations(rest)]
    perms: list[Coalition] = []
    for r in range(budget):
        i = r % k
        lead = clients[i]
        if i in enumerated:
            suffix = enumerated[i][r // k]
        else:
            rest = np.array(clients[:i] + clients[i + 1 :])
            rng = rng_from(vcfg.perm_seed, "perm", round_idx, r)
            suffix = tuple(int(c) for c in rng.permutation(rest))
        perms.append((lead,) + suffix)
    return tuple(perms)


def gtg_shapley_values(
    clients: Sequence[int],
    u: UtilityFn,
    round_idx: int,
    vcfg: ValuationConfig,
) -> dict[int, float]:
    """GTG-approximate Shapley values for one round's utility game."""
    clients = tuple(sorted(clients))
    v_empty = u(())
    v_full = u(clients)
    if abs(v_full - v_empty) < vcfg.eps1:
        return {c: 0.0 for c in clients}
    budget = permutation_budget(len(clients), vcfg.eps2)
    sums = {c: 0.0 for c in clients}
    for perm in gtg_permutations(clients, budget, round_idx, vcfg):
        prefix: Coalition = ()
        v_prefix = v_empty
        for client in perm:
            if abs(v_full - v_prefix) < vcfg.eps3:
                break
            prefix = tuple(sorted(prefix + (client,)))
            v_next = u(prefix)
            sums[client] += v_next - v_prefix
            v_prefix = v_next
    return {c: sums[c] / budget for c in clients}


# --- per-round wrappers over federation records ---


def exact_shapley_round(
    record: RoundRecord,
    metric: Metric,
    ctx: EvalContext,
    cache: CoalitionCache | None = None,
) -> dict[int, float]:
    if len(record.updates) > EXACT_CLIENT_LIMIT:
        raise ConfigError(
            f"exact Shapley enumerates 2^K utilities; K={len(record.updates)} "
            f"exceeds {EXACT_CLIENT_LIMIT}, use the gtg scheme"
        )
    return exact_shapley_values(
        record.client_ids, _utility_fn(record, metric, ctx, cache, Scheme.EXACT)
    )


def gtg_shapley_round(
    record: RoundRecord,
    metric: Metric,
    ctx: EvalContext,
    vcfg: ValuationConfig,
    cache: CoalitionCache | None = None,
) -> dict[int, float]:
    return gtg_shapley_values(
        record.client_ids,
        _utility_fn(record, metric, ctx, cache, Scheme.GTG),
        record.round,
        vcfg,
    )


def loo_round(
    record: RoundRecord,
    metric: Metric,
    ctx: EvalContext,
    cache: CoalitionCache | None = None,
) -> dict[int, float]:
    if len(record.updates) < 2:
        raise ConfigError("leave-one-out needs at least two clients")
    return loo_values(record.client_ids, _utility_fn(record, metric, ctx, cache, Scheme.LOO))


# --- score bookkeeping ---


@dataclass
class ScoreTable:
    """Scores indexed by (scheme, metric, client, round).

    Round 1 entries are kept for auditability but never contribute to the
    accumulated view, which sums rounds 2..T only.
    """

    entries: dict[tuple[str, str, int, int], float] = field(default_factory=dict)

    def add(
        self, scheme: Scheme, metric: Metric, client: int, round_idx: int, value: float
    ) -> None:
        self.entries[(Scheme(scheme).value, Metric(metric).value, client, round_idx)] = float(value)

    def add_round_scores(
        self, scheme: Scheme, metric: Metric, round_idx: int, scores: Mapping[int, float]
    ) -> None:
        for client, value in scores.items():
            self.add(scheme, metric, client, round_idx, value)

    def rounds(self) -> list[int]:
        return sorted({key[3] for key in self.entries})

    def clients(self) -> list[int]:
        return sorted({key[2] for key in self.entries})

    def schemes(self) -> list[str]:
        return sorted({key[0] for key in self.entries})

    def metrics(self) -> list[str]:
        return sorted({key[1] for key in self.entries})

    def value(self, scheme: str, metric: str, client: int, round_idx: int) -> float:
        return self.entries[(scheme, metric, client, round_idx)]


def accumulate(table: ScoreTable, last_round: int) -> dict[tuple[str, str, int], float]:
    """Sum per-round scores over rounds 2..last_round (round 1 excluded)."""
    if last_round < 2:
        raise InputError("accumulation needs at least round 2")
    totals: dict[tuple[str, str, int], float] = {}
    clients = table.clients()
    for scheme in table.schemes():
        for metric in table.metrics():
            for client in clients:
                total = 0.0
                for t in range(2, last_round + 1):
                    key = (scheme, metric, client, t)
                    if key not in table.entries:
                        raise InputError(
                            f"missing score for {scheme}/{metric}/client {client}/round {t}"
                        )
                    total += table.entries[key]
                totals[(scheme, metric, client)] = total
    return totals


def score_vectors(table: ScoreTable, last_round: int) -> dict[tuple[str, str], np.ndarray]:
    """Accumulated scores per (scheme, metric), one entry per client in order."""
    totals = accumulate(table, last_round)
    clients = table.clients()
    return {
        (scheme, metric): np.array([totals[(scheme, metric, c)] for c in clients])
        for scheme in table.schemes()
        for metric in table.metrics()
    }


def score_rounds(
    records: Sequence[RoundRecord],
    schemes: Sequence[Scheme],
    metrics: Sequence[Metric],
    ctx: EvalContext,
    vcfg: ValuationConfig,
    cache: CoalitionCache | None = None,
) -> ScoreTable:
    """Score every round (including the excluded round 1) for all schemes."""
    table = ScoreTable()
    for record in records:
        for metric in metrics:
            for scheme in map(Scheme, schemes):
                if scheme is Scheme.EXACT:
                    scores = exact_shapley_round(record, metric, ctx, cache)
                elif scheme is Scheme.GTG:
                    scores = gtg_shapley_round(record, metric, ctx, vcfg, cache)
                else:
                    scores = loo_round(record, metric, ctx, cache)
                table.add_round_scores(scheme, metric, record.round, scores)
    return table


# --- persistence ---

SCORES_HEADER = ["scheme", "metric", "client", "round", "value"]
TOTALS_HEADER = ["scheme", "metric", "client", "value"]


def write_scores_csv(table: ScoreTable, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for key in sorted(table.entries):
            scheme, metric, client, round_idx = key
            writer.writerow([scheme, metric, client, round_idx, repr(table.entries[key])])


def write_totals_csv(table: ScoreTable, last_round: int, path) -> None:
    totals = accumulate(table, last_round)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TOTALS_HEADER)
        for key in sorted(totals):
            scheme, metric, client = key
            writer.writerow([scheme, metric, client, repr(totals[key])])


def read_scores_csv(path) -> ScoreTable:
    table = ScoreTable()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != SCORES_HEADER:
                raise DataError(f"{path}: unexpected header {header}")
            for row in reader:
                if len(row) != 5:
                    raise DataError(f"{path}: malformed row {row}")
                scheme, metric, client, round_idx, value = row
                score = float(value)
                if not math.isfinite(score):
                    raise DataError(f"{path}:{reader.line_num}: non-finite score {value!r}")
                table.entries[(scheme, metric, int(client), int(round_idx))] = score
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not table.entries:
        raise DataError(f"{path}: no score rows")
    return table
