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
the cache's ``requested[scheme]``.

Each scheme core asks its utility game for a list of coalitions at a
time and gets their utilities back in order: exact Shapley asks for all its
requests in one list, LOO for the grand coalition and the K leave-one-outs,
and GTG for the empty and full coalitions and then, per scan position, for
the next prefix of every permutation it has not truncated. Each element of
a list is still one request.

The ``res`` utility of a coalition runs PGD on its aggregate, which is most
of the cost. So on ``res`` the utility game first hands the cache the whole
list (:meth:`CoalitionCache.prefetch_res`): the cache attacks together, in
PGD groups (``metrics.adversarial_predictions``), the list's coalitions
whose ``res`` utility it has not memoized, and keeps their adversarial
predictions beside their aggregates until their utility is computed, which
happens before the list's utilities are returned.

The scheme cores carry coalitions as int bitmasks over the round's sorted
client ids; everywhere else a coalition is the sorted tuple of its ids. The
utility game maps each mask to its tuple through the cache's table of the
round's coalitions (one dict, built on first use, so GTG's K may be too
large for a 2^K list), and the memo is keyed by that tuple. The cache looks
a subset up as given, so a repeated request costs one dict lookup; a subset
the memo does not know is sorted and checked before it is looked up again
or computed.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations, product
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .atomic import atomic_open, make_dirs
from .config import Scheme, ValuationConfig
from .errors import ConfigError, DataError, InputError, MetricUndefinedError
from .federation import RoundRecord, fedavg
from .metrics import EvalContext, Metric, adversarial_predictions, evaluate
from .nn import ModelParams, predict_batch
from .seeding import rng_streams

logger = logging.getLogger(__name__)

EXACT_CLIENT_LIMIT = 12
_SUFFIX_ENUM_LIMIT = 1_000_000
_PERMUTATION_SCAN_LIMIT = 1_000_000

Coalition = tuple[int, ...]
# A scheme core's utility game: the utilities, in order, of a list of
# coalitions given as bitmasks over the round's sorted client ids (bit i:
# the i-th id is in).
UtilityFn = Callable[[Sequence[int]], list[float]]


@dataclass(eq=False)
class _Aggregate:
    """A coalition's model, its clean test predictions and, from
    :meth:`CoalitionCache.prefetch_res` until its ``res`` utility is
    computed, its ``res`` adversarial predictions (None otherwise, and when
    the model classifies no test sample correctly: ``res`` is undefined
    there)."""

    model: ModelParams
    clean: np.ndarray
    adversarial: np.ndarray | None = None


class CoalitionCache:
    """Memo of coalition utilities for one fold, with the counts of its cost.

    A fold has one record per round, so a round number names its record.
    A coalition is the sorted tuple of its client ids. Each (round,
    coalition) is aggregated and run forward on the clean test inputs once;
    the aggregate and its predictions are kept for the latest round only and
    shared by every metric, beside that round's table from bitmask to
    coalition (see :meth:`coalitions`). Its ``res`` adversarial predictions
    come from :meth:`prefetch_res`, which attacks many coalitions in PGD
    groups, and are dropped once its ``res`` utility is memoized;
    ``evaluate`` attacks a coalition without them alone.

    A (round, coalition, metric) utility is computed on its first request
    and memoized: ``evaluations`` counts the utilities computed, ``hits``
    the requests answered from the memo and ``undefined`` the computed
    utilities that fell back to the empty coalition. ``requested[scheme]``
    holds the (round, coalition, metric) keys the round wrappers of that
    scheme asked for; the fallback's read of the empty coalition is not a
    request, and neither is a prefetch.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple[int, Metric, Coalition], float] = {}
        self._round: int | None = None
        self._coalitions: dict[int, Coalition] = {}
        self._aggregates: dict[Coalition, _Aggregate] = {}
        self.requested: dict[str, set[tuple[int, Coalition, Metric]]] = {}
        self.evaluations = 0
        self.hits = 0
        self.undefined = 0

    def coalitions(self, record: RoundRecord) -> dict[int, Coalition]:
        """The table from bitmask to coalition of ``record``'s round, which
        :func:`_utility_fn` fills; a new round starts an empty one, so the
        round's metrics and schemes share one tuple per coalition."""
        if record.round != self._round:
            self._round = record.round
            self._coalitions = {}
            self._aggregates = {}
        return self._coalitions

    def utility(
        self, record: RoundRecord, subset: Iterable[int], metric: Metric, ctx: EvalContext
    ) -> float:
        # A GTG round of 8 clients makes about 16k requests per metric, so a
        # subset is first looked up as given: a repeated request for a sorted
        # tuple costs one dict lookup. Only a subset the memo does not know
        # is sorted and checked.
        try:
            value = self._memo.get((record.round, metric, subset))
        except TypeError:  # an unhashable subset, such as a list
            value = None
        if value is not None:
            self.hits += 1
            return value
        ids = set(subset)
        unknown = ids.difference(record.client_ids)
        if unknown:
            raise InputError(f"unknown clients {sorted(unknown)} in round {record.round}")
        members = tuple(sorted(map(int, ids)))
        key = (record.round, metric, members)
        value = self._memo.get(key)
        if value is not None:
            self.hits += 1
            return value
        aggregate = self._aggregate(record, members, ctx)
        adversarial = None
        if metric is Metric.RES:
            # read once: from here on the memo answers this coalition's res
            adversarial, aggregate.adversarial = aggregate.adversarial, None
        try:
            value = evaluate(aggregate.model, metric, ctx, aggregate.clean, adversarial)
        except MetricUndefinedError as exc:
            # Substituting the empty-coalition utility rather than dropping
            # the coalition keeps the marginals around it unbiased.
            logger.warning(
                "round %d coalition %s: %s undefined (%s); using empty-coalition utility",
                record.round,
                members,
                metric.value,
                exc,
            )
            self.undefined += 1
            value = self.utility(record, (), metric, ctx) if members else 0.0
        self.evaluations += 1
        self._memo[key] = value
        return value

    def prefetch_res(
        self, record: RoundRecord, coalitions: Iterable[Coalition], ctx: EvalContext
    ) -> None:
        """Attack together the ``coalitions`` (sorted tuples of the round's
        client ids; repeats are attacked once) whose ``res`` utility is
        neither memoized nor already attacked; computes no utility and
        counts nothing."""
        pending: dict[Coalition, _Aggregate] = {}
        for members in coalitions:
            if members not in pending and (record.round, Metric.RES, members) not in self._memo:
                aggregate = self._aggregate(record, members, ctx)
                if aggregate.adversarial is None:
                    pending[members] = aggregate
        aggregates = list(pending.values())
        predictions = adversarial_predictions(
            [a.model for a in aggregates], [a.clean for a in aggregates], ctx
        )
        for aggregate, adversarial in zip(aggregates, predictions):
            aggregate.adversarial = adversarial

    def _aggregate(self, record: RoundRecord, members: Coalition, ctx: EvalContext) -> _Aggregate:
        self.coalitions(record)  # a new round drops the previous round's aggregates
        aggregate = self._aggregates.get(members)
        if aggregate is None:
            model = fedavg(record.global_before, [record.update_for(k) for k in members])
            aggregate = self._aggregates[members] = _Aggregate(
                model, predict_batch(model, ctx.test.features)
            )
        return aggregate


def coalition_utility(
    record: RoundRecord,
    subset: Iterable[int],
    metric: Metric,
    ctx: EvalContext,
    cache: CoalitionCache,
) -> float:
    """Metric value of the coalition's aggregate on the round's base model.

    Metric-undefined coalitions fall back to the empty-coalition utility
    (with a logged warning). ``subset`` is any iterable of the round's
    client ids; the cache answers a sorted tuple it has memoized at once
    and sorts and checks any other subset first.
    """
    if metric.__class__ is not Metric:
        metric = Metric(metric)
    return cache.utility(record, subset, metric, ctx)


def _coalition_of(clients: Sequence[int], mask: int) -> Coalition:
    """The coalition of bitmask ``mask`` over the sorted ``clients``."""
    return tuple(c for i, c in enumerate(clients) if mask >> i & 1)


def _utility_fn(
    record: RoundRecord,
    metric: Metric,
    ctx: EvalContext,
    cache: CoalitionCache,
    scheme: Scheme,
) -> UtilityFn:
    """The round's utility game over lists of bitmasks, recording each
    request as ``scheme``'s.

    Each mask maps to its sorted tuple of client ids through the cache's
    table of the round's coalitions, and each tuple of the list enters
    :func:`coalition_utility`, whose memo answers a repeated request. On
    ``res`` the cache first attacks the list's coalitions together
    (:meth:`CoalitionCache.prefetch_res`).
    """
    metric = Metric(metric)
    ids = sorted(record.client_ids)
    coalitions = cache.coalitions(record)
    requested = cache.requested.setdefault(scheme.value, set())
    seen: set[int] = set()

    def u(masks: Sequence[int]) -> list[float]:
        members = []
        for mask in masks:
            coalition = coalitions.get(mask)
            if coalition is None:
                coalition = coalitions[mask] = _coalition_of(ids, mask)
            if mask not in seen:
                seen.add(mask)
                requested.add((record.round, coalition, metric))
            members.append(coalition)
        if metric is Metric.RES:
            cache.prefetch_res(record, members, ctx)
        return [coalition_utility(record, m, metric, ctx, cache) for m in members]

    return u


# --- scheme cores over an abstract utility function ---
#
# Each core carries coalitions as bitmasks over its sorted ``clients`` (see
# ``UtilityFn``): the coalition of the first i clients of a permutation is
# one OR per step, and a memo keyed by mask answers a repeated request.
# A core asks for lists of masks, each as large as its scan allows.


def exact_shapley_values(clients: Sequence[int], u: UtilityFn) -> dict[int, float]:
    """Shapley values of the utility game, exact over all orderings.

    Equivalent to averaging marginals over every permutation; the permutation
    sum is collapsed into the subset-weighted closed form so only the 2^K
    distinct coalition utilities are touched. Every request goes in one
    list: per client and coalition of the others, with the client and then
    without.
    """
    clients = tuple(sorted(clients))
    k = len(clients)
    fact = [math.factorial(i) for i in range(k + 1)]
    weights = [fact[s] * fact[k - 1 - s] / fact[k] for s in range(k)]
    bits = [1 << i for i in range(k)]
    masks: list[int] = []
    for i in range(k):
        others = bits[:i] + bits[i + 1 :]
        for size in range(k):
            for combo in combinations(others, size):
                without = sum(combo)
                masks += (without | bits[i], without)
    utilities = u(masks)
    values: dict[int, float] = {}
    j = 0
    for client in clients:
        total = 0.0
        for size in range(k):
            for _ in range(math.comb(k - 1, size)):
                total += weights[size] * (utilities[j] - utilities[j + 1])
                j += 2
        values[client] = total
    return values


def loo_values(clients: Sequence[int], u: UtilityFn) -> dict[int, float]:
    """Leave-one-out: utility of everyone minus utility without the client."""
    clients = tuple(sorted(clients))
    everyone = (1 << len(clients)) - 1
    full, *without = u([everyone] + [everyone ^ 1 << i for i in range(len(clients))])
    return {c: full - v for c, v in zip(clients, without)}


def permutation_budget(client_count: int, eps2: float) -> int:
    """R = max(K, ceil(eps2 * K!)) sampled permutations.

    Computed in exact integer arithmetic (K! overflows floats well before
    K reaches realistic federation sizes). Budgets beyond the practical
    scan limit are rejected rather than silently hanging.
    """
    num, den = float(eps2).as_integer_ratio()
    sampled = -(-num * math.factorial(client_count) // den)
    budget = max(client_count, sampled)
    if budget > _PERMUTATION_SCAN_LIMIT:
        raise ConfigError(
            f"GTG budget ceil(eps2*K!) = {budget} permutations is infeasible "
            f"(limit {_PERMUTATION_SCAN_LIMIT}); lower valuation.eps2"
        )
    return budget


@lru_cache(maxsize=1)
def gtg_permutations(clients: Sequence[int], round_idx: int, vcfg: ValuationConfig) -> np.ndarray:
    """Balanced permutation sample: client (r mod K) leads permutation r.

    Row r of the read-only (R, K) array, R = ``permutation_budget(K,
    vcfg.eps2)``, is permutation r, in client ids. A lead whose quota
    covers its whole stratum gets the suffixes by lexicographic enumeration
    (this is what makes eps2 = 1 reproduce the exact permutation set);
    otherwise suffixes are independent seeded shuffles keyed by (perm_seed,
    round, r). The latest sample is kept, so a round's four metrics share
    one draw; ``clients`` must be hashable.
    """
    clients = tuple(sorted(clients))
    k = len(clients)
    budget = permutation_budget(k, vcfg.eps2)
    stratum = math.factorial(k - 1)
    leads = np.arange(budget) % k
    # row i: the positions of every client but the i-th, in order
    rests = np.array([[j for j in range(k) if j != i] for i in range(k)], dtype=np.intp)
    order = np.empty((budget, k), dtype=np.intp)
    order[:, 0] = leads
    order[:, 1:] = rests[leads]
    enumerated = {
        i
        for i in range(k)
        if len(range(i, budget, k)) >= stratum and stratum <= _SUFFIX_ENUM_LIMIT
    }
    if enumerated:
        suffixes = np.array(list(permutations(range(k - 1))), dtype=np.intp)
        for i in enumerated:
            rows = np.arange(i, budget, k)
            order[rows, 1:] = rests[i][suffixes[rows // k]]
    drawn = [r for r in range(budget) if r % k not in enumerated]
    for r, rng in zip(drawn, rng_streams(vcfg.perm_seed, "perm", round_idx, indices=drawn)):
        rng.shuffle(order[r, 1:])
    perms = np.array(clients)[order]
    perms.flags.writeable = False
    return perms


def gtg_shapley_values(
    clients: Sequence[int],
    u: UtilityFn,
    round_idx: int,
    vcfg: ValuationConfig,
) -> dict[int, float]:
    """GTG-approximate Shapley values for one round's utility game.

    The permutations are scanned a position at a time: before each
    position, a permutation whose prefix utility is within eps3 of the full
    coalition's is truncated, and ``u`` gets one list, the next prefix of
    every other permutation in permutation order. Each client's marginals
    are summed in permutation order, as in a scan of one permutation after
    another.
    """
    clients = tuple(sorted(clients))
    k = len(clients)
    v_empty, v_full = u([0, (1 << k) - 1])
    if abs(v_full - v_empty) < vcfg.eps1:
        return {c: 0.0 for c in clients}
    order = np.searchsorted(clients, gtg_permutations(clients, round_idx, vcfg))
    budget = len(order)
    # int64 masks up to 62 clients, Python ints past that
    bits = np.array([1 << i for i in range(k)], dtype=np.int64 if k < 63 else object)
    prefixes = np.zeros(budget, dtype=bits.dtype)
    values = np.full(budget, v_empty, dtype=float)
    # row r + 1 holds permutation r's marginal per client, 0.0 for a client
    # its truncated scan never reached; the zero row 0 starts every sum
    marginals = np.zeros((budget + 1, k))
    rows = np.arange(budget)
    for position in range(k):
        rows = rows[~(np.abs(v_full - values[rows]) < vcfg.eps3)]
        if not len(rows):
            break
        members = order[rows, position]
        prefixes[rows] |= bits[members]
        utilities = np.array(u(prefixes[rows].tolist()), dtype=float)
        marginals[rows + 1, members] = utilities - values[rows]
        values[rows] = utilities
    sums = np.add.accumulate(marginals, out=marginals)[-1]
    return {c: float(total) for c, total in zip(clients, sums / budget)}


# --- per-round wrappers over federation records ---


def exact_shapley_round(
    record: RoundRecord,
    metric: Metric,
    ctx: EvalContext,
    cache: CoalitionCache,
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
    cache: CoalitionCache,
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
    cache: CoalitionCache,
) -> dict[int, float]:
    if len(record.updates) < 2:
        raise ConfigError("leave-one-out needs at least two clients")
    return loo_values(record.client_ids, _utility_fn(record, metric, ctx, cache, Scheme.LOO))


# --- score bookkeeping ---


@dataclass
class ScoreTable:
    """Scores indexed by (scheme, metric, client, round).

    Round 1 entries are kept for auditability but never contribute to the
    accumulated view, which sums rounds 2..``last_round()`` only.
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
        try:
            return self.entries[(scheme, metric, client, round_idx)]
        except KeyError:
            raise InputError(
                f"no score for {scheme}/{metric}/client {client}/round {round_idx}"
            ) from None

    def last_round(self) -> int:
        """The table's last round T, once it holds a score for each of its
        schemes, metrics and clients in every round 1..T, with T at least 2.
        Otherwise an ``InputError`` names the first missing score, or the
        rounds when none of them is scored (from 2)."""
        rounds = self.rounds()
        if not rounds or rounds[-1] < 2:
            raise InputError(f"rounds {rounds} hold no scored round (from 2)")
        grid = product(self.schemes(), self.metrics(), self.clients(), range(1, rounds[-1] + 1))
        for key in grid:
            self.value(*key)  # raises on the first missing score
        return rounds[-1]


def accumulate(table: ScoreTable) -> dict[tuple[str, str, int], float]:
    """Sum per-round scores over rounds 2..``last_round()`` (round 1 excluded)."""
    last_round = table.last_round()
    totals: dict[tuple[str, str, int], float] = {}
    clients = table.clients()
    for scheme in table.schemes():
        for metric in table.metrics():
            for client in clients:
                total = 0.0
                for t in range(2, last_round + 1):
                    total += table.value(scheme, metric, client, t)
                totals[(scheme, metric, client)] = total
    return totals


def score_vectors(table: ScoreTable) -> dict[tuple[str, str], np.ndarray]:
    """Accumulated scores per (scheme, metric), one entry per client in order."""
    totals = accumulate(table)
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
    cache: CoalitionCache,
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
    make_dirs(path.parent)
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for key in sorted(table.entries):
            scheme, metric, client, round_idx = key
            writer.writerow([scheme, metric, client, round_idx, repr(table.entries[key])])


def write_totals_csv(table: ScoreTable, path) -> None:
    totals = accumulate(table)
    path = Path(path)
    make_dirs(path.parent)
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TOTALS_HEADER)
        for key in sorted(totals):
            scheme, metric, client = key
            writer.writerow([scheme, metric, client, repr(totals[key])])


def read_scores_csv(path) -> ScoreTable:
    """The rows of a scores file; a row that is not one new, finite score of
    a known scheme and metric, a client from 0 and a round from 1, is a
    ``DataError`` naming its line."""
    table = ScoreTable()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != SCORES_HEADER:
                raise DataError(f"{path}: unexpected header {header}")
            for row in reader:
                line = f"{path}:{reader.line_num}"
                if len(row) != 5:
                    raise DataError(f"{line}: malformed row {row}")
                try:
                    key = (Scheme(row[0]).value, Metric(row[1]).value, int(row[2]), int(row[3]))
                    score = float(row[4])
                except ValueError as exc:
                    raise DataError(f"{line}: {exc}") from exc
                if key[2] < 0 or key[3] < 1:
                    raise DataError(f"{line}: no client {key[2]} or no round {key[3]}")
                if not math.isfinite(score):
                    raise DataError(f"{line}: non-finite score {row[4]!r}")
                if key in table.entries:
                    raise DataError(f"{line}: a second score for {'/'.join(row[:4])}")
                table.entries[key] = score
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not table.entries:
        raise DataError(f"{path}: no score rows")
    return table
