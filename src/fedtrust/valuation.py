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
model; the empty coalition is the previous global model itself. A fold's
:class:`CoalitionCache`, built on the fold's evaluation context, holds one
round record's state at a time: it aggregates each coalition once and
shares its clean test predictions across the four metrics; utilities are
memoized per (coalition, metric) and computed only when a scheme asks, so
evaluation counts are the honest cost measure of a scheme. The cache's
``requested[scheme]`` counts the distinct coalitions each scheme asked for
per record and metric.

Each scheme core asks its utility game for a list of coalitions at a
time and gets their utilities back in order: exact Shapley asks for all its
requests in one list, LOO for the grand coalition and the K leave-one-outs,
and GTG for the empty and full coalitions and then, per scan position, for
the next prefix of every permutation it has not truncated. Each element of
a list is still one request.

A list's utilities are computed in one place,
:meth:`CoalitionCache.compute`: the utility game hands it each list first,
and it computes the list's coalitions that the memo does not hold. The
``res`` utility of a coalition runs PGD on its aggregate, which is most of
the cost, so on ``res`` it attacks those coalitions together, in PGD groups
(``metrics.adversarial_predictions``). Each request of the list then reads
its utility from the memo.

The scheme cores carry coalitions as int bitmasks over the round's sorted
client ids; everywhere else a coalition is the sorted tuple of its ids. The
utility game maps each mask to its tuple through the cache's table of the
round's coalitions (one dict, built on first use, so GTG's K may be too
large for a 2^K list). The memo holds one dict per metric, keyed by that
tuple, so an entry shares its key with the table. All of it belongs to the
current record and resets when a different record arrives. The cache looks
a subset up as given, so a repeated request costs one identity check and
one dict lookup; a subset the memo does not know is sorted and checked
before it is looked up again or computed.

A GTG round asks for every coalition on each metric, so the round's state
is held compactly: a coalition's clean predictions as the narrowest
unsigned type of its model's classes (one byte per test row up to 256
classes; the metrics only compare them), and GTG's permutations as one-byte
positions in the sorted client ids.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .atomic import write_csv
from .config import EXACT_CLIENT_LIMIT, Scheme, ValuationConfig, permutation_budget
from .data import read_csv
from .errors import ConfigError, DataError, InputError, MetricUndefinedError
from .federation import RoundRecord, fedavg
from .metrics import EvalContext, Metric, adversarial_predictions, evaluate
from .nn import ModelParams, predict_batch
from .seeding import rng_streams

logger = logging.getLogger(__name__)

Coalition = tuple[int, ...]
# A scheme core's utility game: the utilities, in order, of a list of
# coalitions given as bitmasks over the round's sorted client ids (bit i:
# the i-th id is in).
UtilityFn = Callable[[Sequence[int]], list[float]]


class CoalitionCache:
    """Memo of coalition utilities for one fold, with the counts of its cost.

    The cache is built on the fold's evaluation context, ``ctx``, and every
    utility it computes is evaluated there. It holds the state of one round
    record, the one it was last asked about (told apart by identity): the
    table from bitmask to coalition (the sorted tuple of its client ids),
    each coalition's aggregate and clean predictions (narrowed to
    ``np.min_scalar_type(class_count - 1)``, shared by every metric), the
    memo (one dict per metric, keyed by the table's tuples) and the masks
    each (scheme, metric) requested. A different record resets all of it,
    in :meth:`_reset`. :meth:`compute` is the one place that computes
    utilities; :meth:`utility` reads the memo and computes only a coalition
    it does not know, through :meth:`compute`.

    ``evaluations`` counts the utilities computed, ``reads`` the utilities
    that :meth:`utility` returned (a fallback's read of the empty coalition
    too) and ``undefined`` the computed utilities that fell back to the
    empty coalition. ``hits`` is ``reads - evaluations``: once every
    computed utility has been read, as the utility game reads each list it
    computes, it counts the reads that needed no computing.
    ``requested[scheme]`` counts the distinct coalitions that scheme's games
    asked for per record and metric, over the fold (:meth:`requests` names
    the current record's); the fallback's read is not a request.
    """

    def __init__(self, ctx: EvalContext) -> None:
        self.ctx = ctx
        self.requested: dict[str, int] = {}
        self.evaluations = 0
        self.reads = 0
        self.undefined = 0
        self._reset(None)

    def _reset(self, record: RoundRecord | None) -> None:
        self._record = record
        self._coalitions: dict[int, Coalition] = {}
        self._aggregates: dict[Coalition, tuple[ModelParams, np.ndarray]] = {}
        self._memo: dict[Metric, dict[Coalition, float]] = {metric: {} for metric in Metric}
        self._requests: dict[tuple[str, Metric], set[int]] = {}

    @property
    def hits(self) -> int:
        return self.reads - self.evaluations

    def requests(self, scheme: Scheme, metric: Metric) -> set[Coalition]:
        """The coalitions the games of ``scheme`` asked for on ``metric`` of
        the current record."""
        masks = self._requests.get((Scheme(scheme).value, Metric(metric)), ())
        return {self._coalitions[mask] for mask in masks}

    def game(self, record: RoundRecord, metric: Metric, scheme: Scheme) -> UtilityFn:
        """``record``'s utility game on ``metric`` over lists of bitmasks,
        counting each request as ``scheme``'s. Each mask maps to its tuple
        through the record's table; the list's new coalitions are computed
        together (:meth:`compute`), and then each tuple of the list enters
        :func:`coalition_utility`, which reads it."""
        metric, name = Metric(metric), Scheme(scheme).value
        ids = sorted(record.client_ids)

        def u(masks: Sequence[int]) -> list[float]:
            if record is not self._record:
                self._reset(record)
            coalitions = self._coalitions
            requests = self._requests.setdefault((name, metric), set())
            before = len(requests)
            requests.update(masks)
            self.requested[name] = self.requested.get(name, 0) + len(requests) - before
            members = []
            for mask in masks:
                coalition = coalitions.get(mask)
                if coalition is None:
                    coalition = coalitions[mask] = _coalition_of(ids, mask)
                members.append(coalition)
            self.compute(record, members, metric)
            return [coalition_utility(record, m, metric, self) for m in members]

        return u

    def utility(self, record: RoundRecord, subset: Iterable[int], metric: Metric) -> float:
        # A GTG round of 8 clients makes about 16k requests per metric, so a
        # subset is first looked up as given: a repeated request for a sorted
        # tuple costs one identity check and one dict lookup. Only a subset
        # the memo does not know is sorted and checked.
        if record is not self._record:
            self._reset(record)
        try:
            value = self._memo[metric].get(subset)
        except TypeError:  # an unhashable subset, such as a list
            value = None
        if value is None:
            ids = set(subset)
            unknown = ids.difference(record.client_ids)
            if unknown:
                raise InputError(f"unknown clients {sorted(unknown)} in round {record.round}")
            members = tuple(sorted(map(int, ids)))
            value = self.compute(record, [members], metric)[members]
        self.reads += 1
        return value

    def compute(
        self, record: RoundRecord, coalitions: Iterable[Coalition], metric: Metric
    ) -> dict[Coalition, float]:
        """Compute and memoize the ``metric`` utilities of ``coalitions``
        (sorted tuples of the record's client ids) that the memo does not
        hold, each once, in list order: on ``res`` their aggregates are
        attacked together (``metrics.adversarial_predictions``). The empty
        coalition is evaluated first, so that a fallback reads it. Returns
        the memo of the record and ``metric``."""
        if record is not self._record:
            self._reset(record)
        memo = self._memo[metric]
        new = [c for c in dict.fromkeys(coalitions) if c not in memo]
        aggregates = []
        for members in new:
            aggregate = self._aggregates.get(members)
            if aggregate is None:
                model = fedavg(record.global_before, [record.update_for(k) for k in members])
                # metrics only compare predicted classes, so one byte per
                # test row holds them up to 256 classes
                clean = predict_batch(model, self.ctx.test.features).astype(
                    np.min_scalar_type(model.architecture.class_count - 1)
                )
                aggregate = self._aggregates[members] = (model, clean)
            aggregates.append(aggregate)
        adversarial: list[np.ndarray | None] = [None] * len(new)
        if metric is Metric.RES:
            adversarial = adversarial_predictions(
                [model for model, _ in aggregates], [clean for _, clean in aggregates], self.ctx
            )
        rows = sorted(zip(new, aggregates, adversarial), key=lambda row: bool(row[0]))
        for members, (model, clean), predictions in rows:
            try:
                value = evaluate(model, metric, self.ctx, clean, predictions)
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
                value = self.utility(record, (), metric) if members else 0.0
            self.evaluations += 1
            memo[members] = value
        return memo


def coalition_utility(
    record: RoundRecord, subset: Iterable[int], metric: Metric, cache: CoalitionCache
) -> float:
    """Metric value of the coalition's aggregate on the round's base model.

    Metric-undefined coalitions fall back to the empty-coalition utility
    (with a logged warning). ``subset`` is any iterable of the round's
    client ids; the cache answers a sorted tuple it has memoized at once
    and sorts and checks any other subset first.
    """
    if metric.__class__ is not Metric:
        metric = Metric(metric)
    return cache.utility(record, subset, metric)


def _coalition_of(clients: Sequence[int], mask: int) -> Coalition:
    """The coalition of bitmask ``mask`` over the sorted ``clients``."""
    return tuple(c for i, c in enumerate(clients) if mask >> i & 1)


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


@lru_cache(maxsize=1)
def gtg_permutations(clients: Sequence[int], round_idx: int, vcfg: ValuationConfig) -> np.ndarray:
    """Balanced permutation sample: client (r mod K) leads permutation r.

    Row r of the read-only (R, K) array, R = ``permutation_budget(K,
    vcfg.eps2)``, is permutation r, as positions in the sorted ``clients``
    (``np.min_scalar_type(K - 1)``: one byte each up to 256 clients). A
    lead whose quota covers its whole stratum gets the suffixes by
    lexicographic enumeration (this is what makes eps2 = 1 reproduce the
    exact permutation set); otherwise suffixes are independent seeded
    shuffles keyed by (perm_seed, round, r). A quota is at most R / K + 1,
    and ``permutation_budget`` keeps R x K within 10^7, so only K <= 9
    enumerates, at most 8! = 40,320 suffixes. The latest sample is kept, so
    a round's four metrics share one draw; ``clients`` must be hashable.
    """
    k = len(clients)
    budget = permutation_budget(k, vcfg.eps2)
    stratum = math.factorial(k - 1)
    position = np.min_scalar_type(k - 1)
    leads = np.arange(budget) % k
    # row i: the positions of every client but the i-th, in order
    rests = np.array([[j for j in range(k) if j != i] for i in range(k)], dtype=position)
    order = np.empty((budget, k), dtype=position)
    order[:, 0] = leads
    order[:, 1:] = rests[leads]
    enumerated = {i for i in range(k) if len(range(i, budget, k)) >= stratum}
    if enumerated:
        suffixes = np.array(list(permutations(range(k - 1))), dtype=position)
        for i in enumerated:
            rows = np.arange(i, budget, k)
            order[rows, 1:] = rests[i][suffixes[rows // k]]
    drawn = [r for r in range(budget) if r % k not in enumerated]
    for r, rng in zip(drawn, rng_streams(vcfg.perm_seed, "perm", round_idx, indices=drawn)):
        rng.shuffle(order[r, 1:])
    order.flags.writeable = False
    return order


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
    order = gtg_permutations(clients, round_idx, vcfg)
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
    record: RoundRecord, metric: Metric, cache: CoalitionCache
) -> dict[int, float]:
    if len(record.updates) > EXACT_CLIENT_LIMIT:
        raise ConfigError(
            f"exact Shapley enumerates 2^K utilities; K={len(record.updates)} "
            f"exceeds {EXACT_CLIENT_LIMIT}, use the gtg scheme"
        )
    return exact_shapley_values(record.client_ids, cache.game(record, metric, Scheme.EXACT))


def gtg_shapley_round(
    record: RoundRecord, metric: Metric, vcfg: ValuationConfig, cache: CoalitionCache
) -> dict[int, float]:
    u = cache.game(record, metric, Scheme.GTG)
    return gtg_shapley_values(record.client_ids, u, record.round, vcfg)


def loo_round(record: RoundRecord, metric: Metric, cache: CoalitionCache) -> dict[int, float]:
    if len(record.updates) < 2:
        raise ConfigError("leave-one-out needs at least two clients")
    return loo_values(record.client_ids, cache.game(record, metric, Scheme.LOO))


# --- score bookkeeping ---


@dataclass
class ScoreTable:
    """Scores indexed by (scheme, metric, client, round).

    Round 1 entries are kept for auditability but never contribute to the
    accumulated view, which reads rounds 2..T of :meth:`grid`, the table's
    one completeness check and one walk of its keys.
    """

    entries: dict[tuple[str, str, int, int], float] = field(default_factory=dict)

    def add_round_scores(
        self, scheme: Scheme, metric: Metric, round_idx: int, scores: Mapping[int, float]
    ) -> None:
        scheme, metric = Scheme(scheme).value, Metric(metric).value
        for client, value in scores.items():
            self.entries[(scheme, metric, client, round_idx)] = float(value)

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

    def grid(self) -> np.ndarray:
        """The table as a float64 array over its sorted (schemes, metrics,
        clients) and rounds 1..T, T its last round and at least 2. Otherwise,
        or if a score is missing, an ``InputError`` names the rounds or the
        first missing score in (scheme, metric, client, round) order."""
        rounds = self.rounds()
        if not rounds or rounds[-1] < 2:
            raise InputError(f"rounds {rounds} hold no scored round (from 2)")
        axes = (self.schemes(), self.metrics(), self.clients(), range(1, rounds[-1] + 1))
        values = [self.value(*key) for key in product(*axes)]
        return np.array(values, dtype=np.float64).reshape([len(axis) for axis in axes])

    def last_round(self) -> int:
        """The table's last round T, once :meth:`grid` accepts the table."""
        return self.grid().shape[-1]


def _totals(grid: np.ndarray) -> np.ndarray:
    """Per (scheme, metric, client), the sum of rounds 2..T of ``grid``,
    added to 0.0 in round order (``np.sum`` adds pairwise from 8 rounds up,
    which changes the last bits)."""
    totals = np.zeros(grid.shape[:-1])
    for t in range(1, grid.shape[-1]):
        totals += grid[..., t]
    return totals


def accumulate(table: ScoreTable) -> dict[tuple[str, str, int], float]:
    """Sum per-round scores over rounds 2..``last_round()`` (round 1
    excluded), each added to 0.0 in round order, as Python floats."""
    keys = product(table.schemes(), table.metrics(), table.clients())
    return dict(zip(keys, _totals(table.grid()).ravel().tolist()))


def score_vectors(table: ScoreTable) -> dict[tuple[str, str], np.ndarray]:
    """Accumulated scores per (scheme, metric), one entry per client in
    order, summed as :func:`accumulate` sums them."""
    totals = _totals(table.grid())
    keys = product(table.schemes(), table.metrics())
    return dict(zip(keys, totals.reshape(-1, totals.shape[-1])))


def score_rounds(
    records: Sequence[RoundRecord],
    schemes: Sequence[Scheme],
    metrics: Sequence[Metric],
    vcfg: ValuationConfig,
    cache: CoalitionCache,
) -> ScoreTable:
    """Score every round (including the excluded round 1) for all schemes."""
    table = ScoreTable()
    for record in records:
        for metric in metrics:
            for scheme in map(Scheme, schemes):
                if scheme is Scheme.EXACT:
                    scores = exact_shapley_round(record, metric, cache)
                elif scheme is Scheme.GTG:
                    scores = gtg_shapley_round(record, metric, vcfg, cache)
                else:
                    scores = loo_round(record, metric, cache)
                table.add_round_scores(scheme, metric, record.round, scores)
    return table


# --- persistence ---

SCORES_HEADER = ["scheme", "metric", "client", "round", "value"]
TOTALS_HEADER = ["scheme", "metric", "client", "value"]


def write_scores_csv(table: ScoreTable, path) -> None:
    rows = ([*key, repr(table.entries[key])] for key in sorted(table.entries))
    write_csv(path, SCORES_HEADER, rows)


def write_totals_csv(table: ScoreTable, path) -> None:
    totals = accumulate(table)
    write_csv(path, TOTALS_HEADER, ([*key, repr(totals[key])] for key in sorted(totals)))


def read_scores_csv(path) -> ScoreTable:
    """The rows of a scores file, read by ``data.read_csv``; a row that is
    not one new, finite score of a known scheme and metric, a client from 0
    and a round from 1 is a ``DataError`` naming its line."""
    header, rows = read_csv(path)
    if header != SCORES_HEADER:
        raise DataError(f"{path}: unexpected header {header}")
    table = ScoreTable()
    for line_num, row in rows:
        line = f"{path}:{line_num}"
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
    return table
