"""Monte-Carlo simulation of quantum search on witness tables.

No state vectors: a Grover run with j iterations over a search space of N
items with t marked ones succeeds with probability sin^2((2j+1) asin(sqrt(t/N)))
and returns a uniformly random marked item, else a uniformly random unmarked
item. Only the outcome distribution and the query count are simulated, which
keeps one sample O(1) and lets campaigns run millions of searches.

Query accounting convention: one query is one oracle call inside a Grover
iteration; a run with j iterations then costs j+1 queries, the +1 paying for
the classical verification of the measured index. Minimum finding spends a
total budget of 22.5*sqrt(q) queries per run and always returns some index;
whether that index is the true minimum is recorded separately.

The minimum-finding loop only ever compares table values, so its trajectory
depends on the table through the sorted order of the values alone. The
simulator exploits that: it runs the search on sorted positions (physics known
globally, queries still charged per the convention above) and translates the
final position back to an index. One vectorized engine, ``_dh_position_batch``,
runs every search in the library: ``durr_hoyer_batch`` on explicit tables,
``max_wit`` on one product entry and ``algorithm1``-``algorithm4`` on whole
products. ``durr_hoyer_min`` is the one-run-at-a-time scalar reference the
engine is tested against.
"""
from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .boolmat import (
    BoolMatrix,
    WitnessMatrix,
    bool_product,
    product_dims,
    set_bits,
    transpose,
    witness_mask,
)
from .rng import np_stream
from .witness import StripDecomposition, default_strip_width, largest_nonzero_strip

__all__ = [
    "DH_BUDGET_FACTOR",
    "BBHT_GROWTH",
    "TABLE_SHAPES",
    "PREPROCESSING_LEVELS",
    "QueryLog",
    "VirtualMinTable",
    "ColumnIndexTables",
    "AlgoStats",
    "grover_success_probability",
    "durr_hoyer_min",
    "durr_hoyer_batch",
    "boost_reps",
    "max_wit_table",
    "max_wit",
    "algorithm1",
    "algorithm2",
    "algorithm3",
    "algorithm4",
    "MaxWitnessIndex",
    "table_values",
]

# Search schedule configuration (not part of the output contract): the
# exponential-search growth factor and the minimum-finding budget coefficient.
BBHT_GROWTH = 6.0 / 5.0
DH_BUDGET_FACTOR = 22.5

_TAG_ALG = 11
_TAG_TRADEOFF = 12


@dataclass
class QueryLog:
    """Resource ledger of one simulated search run."""

    oracle_queries: int = 0
    grover_iterations: int = 0
    succeeded: bool = False
    result: int | None = None

    def check(self) -> None:
        if self.oracle_queries < self.grover_iterations:
            raise ValueError("oracle_queries < grover_iterations")
        if self.succeeded and self.result is None:
            raise ValueError("succeeded without a result")

    def absorb(self, other: "QueryLog") -> None:
        self.oracle_queries += other.oracle_queries
        self.grover_iterations += other.grover_iterations


class VirtualMinTable:
    """Length-q integer table addressed through a counting query interface.

    Values must be pairwise distinct. ``query`` is the only access the
    simulated algorithm pays for; ``peek`` is reserved for the simulator's
    own bookkeeping and for tests.
    """

    __slots__ = ("length", "queries", "_eval")

    def __init__(self, length: int, evaluator: Callable[[int], int]):
        if length < 1:
            raise ValueError("table length must be at least 1")
        self.length = length
        self.queries = 0
        self._eval = evaluator

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "VirtualMinTable":
        vals = [int(v) for v in values]
        table = cls(len(vals), vals.__getitem__)
        table.assert_distinct()
        return table

    def query(self, k: int) -> int:
        self.queries += 1
        return self._eval(k)

    def peek(self, k: int) -> int:
        return self._eval(k)

    def materialize(self) -> np.ndarray:
        return np.fromiter((self._eval(k) for k in range(self.length)), np.int64, self.length)

    def assert_distinct(self, sample_rng: random.Random | None = None) -> None:
        """Full check up to 4096 entries, random spot checks beyond that."""
        if self.length <= 4096:
            vals = self.materialize()
            if np.unique(vals).size != self.length:
                raise ValueError("table values are not pairwise distinct")
        else:
            rng = sample_rng or random.Random(0)
            seen: dict[int, int] = {}
            for _ in range(256):
                k = rng.randrange(self.length)
                v = self._eval(k)
                if seen.get(v, k) != k:
                    raise ValueError("table values are not pairwise distinct")
                seen[v] = k


@dataclass(frozen=True)
class ColumnIndexTables:
    """Per-column candidate lists: indices k with B[k, j] = 1, decreasing."""

    columns: tuple[np.ndarray, ...]

    @classmethod
    def from_matrix(cls, b: BoolMatrix) -> "ColumnIndexTables":
        dense = b.to_dense()
        cols = tuple(
            np.flatnonzero(dense[:, j])[::-1].astype(np.int64).copy() for j in range(b.cols)
        )
        return cls(cols)

    def validate(self, b: BoolMatrix) -> None:
        if len(self.columns) != b.cols:
            raise ValueError("column count mismatch")
        for j, col in enumerate(self.columns):
            expect = sum((b.row_bits[k] >> j) & 1 for k in range(b.rows))
            if len(col) != expect:
                raise ValueError(f"column {j} length differs from popcount")
            if np.any(np.diff(col) >= 0):
                raise ValueError(f"column {j} is not strictly decreasing")


@dataclass(frozen=True)
class AlgoStats:
    """Aggregate query statistics of one solver run."""

    n: int
    algo: str
    beta: float
    ell: int | None
    entries: int
    total_queries: int
    mean_queries_per_entry: float
    error_rate_vs_oracle: float | None
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Sampling primitives
# ---------------------------------------------------------------------------


def grover_success_probability(n_items: int, marked_count: int, iterations: int) -> float:
    """Exact probability that one Grover run measures a marked item."""
    if n_items < 1:
        raise ValueError("n_items must be at least 1")
    if marked_count <= 0:
        return 0.0
    if marked_count >= n_items:
        return 1.0
    theta = math.asin(math.sqrt(marked_count / n_items))
    return math.sin((2 * iterations + 1) * theta) ** 2


def durr_hoyer_min(table: VirtualMinTable, rng: random.Random) -> tuple[int, QueryLog]:
    """Threshold-descent minimum finding over a virtual table, one run.

    Repeatedly Grover-searches for an index whose value beats the current
    threshold, lowering the threshold on every verified hit, until the total
    budget 22.5*sqrt(q) is spent. Always returns an index; ``succeeded``
    records whether it is the true argmin. This is the scalar reference for
    the batch engine; library searches go through ``durr_hoyer_batch``.
    """
    q = table.length
    log = QueryLog()
    if q == 1:
        log.succeeded = True
        log.result = 0
        return 0, log
    values = table.materialize()
    order = np.argsort(values, kind="stable")
    if np.any(np.diff(values[order]) <= 0):
        raise ValueError("table values are not pairwise distinct")
    pos = rng.randrange(q)
    y = int(order[pos])
    threshold = table.query(y)
    log.oracle_queries += 1
    budget = DH_BUDGET_FACTOR * math.sqrt(q)
    m = 1.0
    mcap = math.sqrt(q)
    sin = math.sin
    asin = math.asin
    while log.oracle_queries < budget:
        j = int(rng.random() * m)
        log.grover_iterations += j
        log.oracle_queries += j
        # pos items sit strictly below the threshold in sorted order
        p = sin((2 * j + 1) * asin(math.sqrt(pos / q))) ** 2 if pos else 0.0
        if p and rng.random() < p:
            meas = rng.randrange(pos)
        else:
            meas = pos + rng.randrange(q - pos)
        k = int(order[meas])
        v = table.query(k)
        log.oracle_queries += 1
        if v < threshold:
            y, threshold, pos = k, v, meas
            m = 1.0
        else:
            m = min(m * BBHT_GROWTH, mcap)
    log.result = y
    log.succeeded = pos == 0
    return y, log


# ---------------------------------------------------------------------------
# Maximum witness search, single entry
# ---------------------------------------------------------------------------


def boost_reps(beta: float, n: int) -> int:
    """Number of independent minimum-finding runs for error at most n^-beta."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return max(1, math.ceil(beta * math.log2(max(n, 2))))


def max_wit_table(
    a: BoolMatrix, b: BoolMatrix, i: int, j: int, lo: int = 0, hi: int | None = None
) -> tuple[VirtualMinTable, int]:
    """Search table for the maximum witness of entry (i, j) over k in [lo, hi).

    Entry s holds 2n - n*A[i,k]*B[k,j] - (k+1) for k = lo+s, n = max dimension.
    Witnesses land strictly below n, non-witnesses at n or above, and larger
    witnesses get smaller values, so the table minimum is the maximum witness
    when one exists. The -(k+1) shift keeps all values pairwise distinct with
    0-based indices. Returns (table, n).
    """
    wit = witness_mask(a, b, i, j)
    hi = a.cols if hi is None else hi
    if not (0 <= lo < hi <= a.cols):
        raise ValueError(f"bad index range [{lo}, {hi})")
    nbase = max(a.rows, a.cols, b.cols)

    def evaluate(s: int) -> int:
        k = lo + s
        return 2 * nbase - nbase * ((wit >> k) & 1) - (k + 1)

    return VirtualMinTable(hi - lo, evaluate), nbase


def max_wit(
    a: BoolMatrix,
    b: BoolMatrix,
    i: int,
    j: int,
    beta: float = 1.0,
    rng: np.random.Generator | None = None,
    lo: int = 0,
    hi: int | None = None,
) -> tuple[int | None, QueryLog]:
    """Maximum witness of one product entry via boosted minimum finding.

    Runs ceil(beta*log2 n) minimum-finding runs on the witness table in one
    engine call and keeps the smallest final position (the largest verified
    witness). Returns (witness, log) or (None, log) when no run lands on a
    witness; wrong answers occur with probability at most n^-beta.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    table, nbase = max_wit_table(a, b, i, j, lo, hi)
    # the table's sorted order lists the in-range witnesses first, largest first
    mask = witness_mask(a, b, i, j) & ((1 << (lo + table.length)) - (1 << lo))
    pos, queries, iters = _dh_position_batch(np.full(boost_reps(beta, nbase), table.length), rng)
    log = QueryLog(int(queries.sum()), int(iters.sum()))
    r = int(pos.min())
    if r < mask.bit_count():
        log.succeeded = True
        log.result = _kth_highest_bit(mask, r)
    return log.result, log


# ---------------------------------------------------------------------------
# Batch engine
# ---------------------------------------------------------------------------


def _dh_position_batch(
    qs: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one minimum-finding process per entry of qs, in vectorized lockstep.

    Positions replace values: a run over a length-q table starts at a uniform
    sorted position and each verified hit moves to a uniform position below
    the current one. Returns (final_pos, queries, grover_iterations); a final
    position of 0 means the run found the true minimum. Matches the scalar
    durr_hoyer_min law run for run, only the sample paths differ.
    """
    qs = np.asarray(qs, np.int64)
    total = qs.size
    out_pos = np.zeros(total, np.int64)
    out_q = np.zeros(total, np.int64)
    out_it = np.zeros(total, np.int64)
    if total == 0:
        return out_pos, out_q, out_it
    if (qs < 1).any():
        raise ValueError("table lengths must be at least 1")
    pos_all = (rng.random(total) * qs).astype(np.int64)
    ids = np.flatnonzero(qs > 1)  # length-1 tables finish with zero queries
    out_pos[ids] = pos_all[ids]
    pos = pos_all[ids]
    q = qs[ids].astype(np.float64)
    budget = DH_BUDGET_FACTOR * np.sqrt(q)
    spent = np.ones(ids.size, np.int64)  # initial threshold evaluation
    iters = np.zeros(ids.size, np.int64)
    m = np.ones(ids.size, np.float64)
    mcap = np.sqrt(q)
    while ids.size:
        j = (rng.random(ids.size) * m).astype(np.int64)
        iters += j
        spent += j + 1
        p = np.sin((2 * j + 1) * np.arcsin(np.sqrt(pos / q))) ** 2
        succ = rng.random(ids.size) < p
        if succ.any():
            sp = pos[succ]
            pos[succ] = (rng.random(sp.size) * sp).astype(np.int64)
            m[succ] = 1.0
        fail = ~succ
        m[fail] = np.minimum(m[fail] * BBHT_GROWTH, mcap[fail])
        done = spent >= budget
        if done.any():
            d = ids[done]
            out_pos[d] = pos[done]
            out_q[d] = spent[done]
            out_it[d] = iters[done]
            keep = ~done
            ids = ids[keep]
            pos = pos[keep]
            q = q[keep]
            budget = budget[keep]
            spent = spent[keep]
            iters = iters[keep]
            m = m[keep]
            mcap = mcap[keep]
    return out_pos, out_q, out_it


def durr_hoyer_batch(
    values: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum finding on each row of a (runs, q) array of tables, in one engine call.

    Rows must hold pairwise distinct values. Returns (index, succeeded,
    queries) per row: the index the run ends on, whether it is the row's
    argmin, and the oracle queries the run spent.
    """
    values = np.asarray(values)
    runs, q = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    if np.any(np.diff(np.take_along_axis(values, order, axis=1), axis=1) <= 0):
        raise ValueError("table values are not pairwise distinct")
    pos, queries, _ = _dh_position_batch(np.full(runs, q), rng)
    return order[np.arange(runs), pos], pos == 0, queries


def _kth_highest_bit(mask: int, r: int) -> int:
    """Index of the (r+1)-th highest set bit; r must be below the popcount."""
    for _ in range(r):
        mask ^= 1 << (mask.bit_length() - 1)
    return mask.bit_length() - 1


def _run_entry_searches(
    n: int,
    targets: list[tuple[int, int, int, int]],
    reps: int,
    rng: np.random.Generator,
) -> tuple[WitnessMatrix, int]:
    """Boosted witness search on each (i, j, witness_mask, table_length) target.

    All reps runs of every target go through one engine call; the best
    (minimum) final sorted position r of a target maps to the (r+1)-th largest
    witness when r < popcount(mask); anything at or beyond the witness count
    verifies as a non-witness and the entry reports no witness.
    """
    w = np.full((n, n), -1, dtype=np.int64)
    if not targets:
        return WitnessMatrix(n, w), 0
    qs = np.fromiter((t[3] for t in targets), np.int64, len(targets))
    pos, queries, _ = _dh_position_batch(np.repeat(qs, reps), rng)
    best = pos.reshape(len(targets), reps).min(axis=1)
    for idx, (i, j, mask, _qlen) in enumerate(targets):
        r = int(best[idx])
        if r < mask.bit_count():
            w[i, j] = _kth_highest_bit(mask, r)
    return WitnessMatrix(n, w), int(queries.sum())


# ---------------------------------------------------------------------------
# Whole-product drivers
# ---------------------------------------------------------------------------


def _stats(n, algo, beta, ell, entries, total_queries, seed) -> AlgoStats:
    mean = total_queries / entries if entries else 0.0
    return AlgoStats(
        n=n,
        algo=algo,
        beta=beta,
        ell=ell,
        entries=entries,
        total_queries=total_queries,
        mean_queries_per_entry=mean,
        error_rate_vs_oracle=None,
        seed=seed,
    )


def algorithm1(
    a: BoolMatrix, b: BoolMatrix, beta: float = 2.0, seed: int = 0
) -> tuple[WitnessMatrix, AlgoStats]:
    """Boosted maximum-witness search on every entry of the product."""
    n, q = product_dims(a, b, square=True)
    bt = transpose(b).row_bits
    targets = [(i, j, a.row_bits[i] & bt[j], q) for i in range(n) for j in range(n)]
    rng = np_stream(seed, _TAG_ALG, 1)
    wm, total = _run_entry_searches(n, targets, boost_reps(beta, n), rng)
    return wm, _stats(n, "alg1", beta, None, n * n, total, seed)


def algorithm2(
    a: BoolMatrix, b: BoolMatrix, beta: float = 2.0, seed: int = 0
) -> tuple[WitnessMatrix, AlgoStats]:
    """Output-sensitive variant: searches only where the product is 1.

    The nonzero set comes from a classical bit-parallel product; its cost is
    not query-metered. Query totals therefore scale with the number of
    nonzero entries.
    """
    n, q = product_dims(a, b, square=True)
    pattern = bool_product(a, b)
    bt = transpose(b).row_bits
    targets = [
        (i, j, a.row_bits[i] & bt[j], q) for i in range(n) for j in set_bits(pattern.row_bits[i])
    ]
    rng = np_stream(seed, _TAG_ALG, 2)
    wm, total = _run_entry_searches(n, targets, boost_reps(beta, n), rng)
    return wm, _stats(n, "alg2", beta, None, len(targets), total, seed)


def algorithm3(
    a: BoolMatrix, b: BoolMatrix, beta: float = 2.0, seed: int = 0
) -> tuple[WitnessMatrix, AlgoStats]:
    """Input-sensitive variant searching per-column candidate lists.

    Column j's table only covers indices with B[k, j] = 1, sorted decreasing,
    so table lengths track the sparser factor. When A has fewer ones than B
    the product is computed as the transpose of the swapped product, which
    leaves every witness index unchanged.
    """
    n, _ = product_dims(a, b, square=True)
    m1 = sum(r.bit_count() for r in a.row_bits)
    m2 = sum(r.bit_count() for r in b.row_bits)
    if m1 < m2:
        wm_t, st = _algorithm3_core(transpose(b), transpose(a), beta, seed)
        return WitnessMatrix(n, wm_t.array.T), st
    return _algorithm3_core(a, b, beta, seed)


def _algorithm3_core(a, b, beta, seed) -> tuple[WitnessMatrix, AlgoStats]:
    n, _ = product_dims(a, b, square=True)
    tables = ColumnIndexTables.from_matrix(b)
    bt = transpose(b).row_bits
    targets = []
    for j, col in enumerate(tables.columns):
        qlen = len(col)
        if qlen == 0:
            continue  # empty candidate list: immediate no-witness, no queries
        cb = bt[j]
        for i in range(n):
            targets.append((i, j, a.row_bits[i] & cb, qlen))
    rng = np_stream(seed, _TAG_ALG, 3)
    wm, total = _run_entry_searches(n, targets, boost_reps(beta, n), rng)
    return wm, _stats(n, "alg3", beta, None, n * n, total, seed)


def algorithm4(
    a: BoolMatrix, b: BoolMatrix, ell: int | None = None, beta: float = 2.0, seed: int = 0
) -> tuple[WitnessMatrix, AlgoStats]:
    """Strip variant: classical strip products, quantum search inside one strip.

    Strip products and the per-entry highest nonzero strip are classical
    preprocessing (not query-metered); the witness search then runs on a
    table of length at most ell, so per-entry queries scale with sqrt(ell).
    """
    n, q = product_dims(a, b, square=True)
    if ell is None:
        ell = default_strip_width(q)
    dec = StripDecomposition.build(q, ell)
    parr = largest_nonzero_strip(a, b, dec)
    bt = transpose(b).row_bits
    targets = []
    for i, j in zip(*np.nonzero(parr >= 0)):
        p = int(parr[i, j])
        s, e = dec.ranges[p]
        targets.append((int(i), int(j), a.row_bits[i] & bt[j] & dec.masks[p], e - s))
    rng = np_stream(seed, _TAG_ALG, 4)
    wm, total = _run_entry_searches(n, targets, boost_reps(beta, n), rng)
    return wm, _stats(n, "alg4", beta, ell, n * n, total, seed)


# ---------------------------------------------------------------------------
# Preprocessing/query trade-off
# ---------------------------------------------------------------------------

PREPROCESSING_LEVELS = ("none", "strips", "strips+largest-p", "full")


class MaxWitnessIndex:
    """Per-pair maximum witness queries at a chosen preprocessing level.

    none: no setup, each query searches the full index range.
    strips: strip products are precomputed; a query probes them top-down
        (classical lookups) and searches only the highest nonzero strip.
    strips+largest-p: additionally stores the highest nonzero strip per
        entry, removing the probing.
    full: the whole witness matrix is precomputed; queries are lookups and
        cost zero queries.
    """

    def __init__(
        self,
        a: BoolMatrix,
        b: BoolMatrix,
        level: str,
        ell: int | None = None,
        beta: float = 1.0,
        seed: int = 0,
    ):
        if level not in PREPROCESSING_LEVELS:
            raise ValueError(f"unknown preprocessing level {level!r}")
        n, q = product_dims(a, b, square=True)
        self.a = a
        self.b = b
        self.n = n
        self.level = level
        self.beta = beta
        self.ell = default_strip_width(q) if ell is None else ell
        self._rng = np_stream(seed, _TAG_TRADEOFF)
        self._dec: StripDecomposition | None = None
        self._strip_products: list[BoolMatrix] | None = None
        self._parr: np.ndarray | None = None
        self._full: WitnessMatrix | None = None
        if level in ("strips", "strips+largest-p"):
            self._dec = StripDecomposition.build(q, self.ell)
            self._strip_products = [
                bool_product(BoolMatrix(a.rows, a.cols, tuple(r & msk for r in a.row_bits)), b)
                for msk in self._dec.masks
            ]
        if level == "strips+largest-p":
            self._parr = largest_nonzero_strip(a, b, self._dec)
        if level == "full":
            self._full, self.preprocessing_stats = algorithm4(a, b, self.ell, beta, seed)

    def query(self, i: int, j: int) -> tuple[int | None, QueryLog]:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) out of range")
        if self.level == "none":
            return max_wit(self.a, self.b, i, j, self.beta, self._rng)
        if self.level == "full":
            log = QueryLog()
            w = self._full.get(i, j)
            log.result = w
            log.succeeded = w is not None
            return w, log
        if self.level == "strips":
            p = -1
            for cand in range(len(self._strip_products) - 1, -1, -1):
                # precomputed-table probes are classical reads, not queries
                if (self._strip_products[cand].row_bits[i] >> j) & 1:
                    p = cand
                    break
        else:
            p = int(self._parr[i, j])
        if p < 0:
            return None, QueryLog()
        lo, hi = self._dec.ranges[p]
        return max_wit(self.a, self.b, i, j, self.beta, self._rng, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# Benchmark table shapes
# ---------------------------------------------------------------------------

TABLE_SHAPES = ("uniform-random", "sorted", "reverse-sorted", "single-dip")


def table_values(shape: str, q: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Distinct integer table values in one of the benchmark shapes."""
    if q < 1:
        raise ValueError("q must be at least 1")
    idx = np.arange(q, dtype=np.int64)
    if shape == "sorted":
        return idx
    if shape == "reverse-sorted":
        return idx[::-1].copy()
    if shape == "single-dip":
        mid = q // 3
        return 2 * np.abs(idx - mid) + (idx > mid)
    if shape == "uniform-random":
        if rng is None:
            raise ValueError("uniform-random shape needs a generator")
        return rng.permutation(q).astype(np.int64)
    raise ValueError(f"unknown table shape {shape!r}")
