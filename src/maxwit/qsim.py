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
final position back to an index. One engine runs every search in the library:
``durr_hoyer_batch`` on explicit tables, ``max_wit`` on one product entry and
``algorithm1``-``algorithm4`` on whole products. It has two paths with one
law. The loop, ``_dh_position_batch``, steps runs in fixed-size, cache-sized
blocks. Each run carries the Grover angle asin(sqrt(pos/q)) of its position,
set at the start and recomputed only when the run hits, so a step computes
the success probability sin^2((2j+1) theta) of the runs not yet at the
minimum and nothing for the others. The law, ``_dh_law``, is the exact joint
distribution of one run's (final position, queries), computed by a DP over
the loop's own state and cached per length; heavy batches draw from it by
inverse CDF. ``_dh_positions``, the entry point of ``durr_hoyer_batch`` and
the solvers, picks the law for a length q with r runs in the job when
2 <= q <= 256 and r >= gamma * q^1.5, gamma = 12 (``_LAW_GAMMA``), and the
loop otherwise (a solver counts r over all its blocks, other callers over
one call); only ``max_wit``, which reports Grover iterations, calls the loop
directly. Every call draws from one SFC64 generator seeded from the caller's
stream. The solvers hand the engine their targets as (i, j, q) arrays. They
and ``max_wit`` map a best final position r to the (r+1)-th largest witness
in the table's range through boolmat's witness-bit kernel, which alone reads
the words (``BoolMatrix.words``). ``durr_hoyer_min`` is the one-run-at-a-time
scalar reference whose law both paths are tested against.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .boolmat import (
    BoolMatrix,
    WitnessMatrix,
    _entry_words,
    _witness_bits,
    bool_product,
    product_dims,
    transpose,
    witness_mask,
)
from .rng import np_stream
from .witness import (
    StripDecomposition,
    _strip_products,
    default_strip_width,
    largest_nonzero_strip,
)

__all__ = [
    "DH_BUDGET_FACTOR",
    "BBHT_GROWTH",
    "TABLE_SHAPES",
    "PREPROCESSING_LEVELS",
    "QueryLog",
    "VirtualMinTable",
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
        if len(set(vals)) != len(vals):
            raise ValueError("table values are not pairwise distinct")
        return cls(len(vals), vals.__getitem__)

    def query(self, k: int) -> int:
        self.queries += 1
        return self._eval(k)

    def peek(self, k: int) -> int:
        return self._eval(k)

    def materialize(self) -> np.ndarray:
        return np.fromiter((self._eval(k) for k in range(self.length)), np.int64, self.length)


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
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
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
    hi, nbase = _table_range(a, b, lo, hi)

    def evaluate(s: int) -> int:
        k = lo + s
        return 2 * nbase - nbase * ((wit >> k) & 1) - (k + 1)

    return VirtualMinTable(hi - lo, evaluate), nbase


def _table_range(a: BoolMatrix, b: BoolMatrix, lo: int, hi: int | None) -> tuple[int, int]:
    """The checked end of the index range [lo, hi) and the table base n."""
    hi = a.cols if hi is None else hi
    if not (0 <= lo < hi <= a.cols):
        raise ValueError(f"bad index range [{lo}, {hi})")
    return hi, max(a.rows, a.cols, b.cols)


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
    witness; wrong answers occur with probability at most n^-beta. Without
    an ``rng`` the runs draw from ``np_stream(0)``.
    """
    if rng is None:
        rng = np_stream(0)
    row, column = _entry_words(a, b, i, j)
    hi, nbase = _table_range(a, b, lo, hi)
    # the table's sorted order lists the in-range witnesses first, largest first
    pos, queries, iters = _dh_position_batch(np.full(boost_reps(beta, nbase), hi - lo), rng)
    log = QueryLog(int(queries.sum()), int(iters.sum()))
    r = int(pos.min())
    one = np.zeros(1, np.int64)
    w = int(_witness_bits(row, column, one, one, one + lo, one + hi, r + 1)[0, r])
    if w >= 0:
        log.succeeded = True
        log.result = w
    return log.result, log


# ---------------------------------------------------------------------------
# Batch engine
# ---------------------------------------------------------------------------


# Runs the engine steps together. A block's (7, runs) float64 state is 1.75 MiB, so it
# stays in L2 cache; a fixed size keeps sample paths the same on every machine.
_BLOCK_RUNS = 1 << 15


def _angle(pos: np.ndarray, q: np.ndarray) -> np.ndarray:
    """asin(sqrt(pos/q)) elementwise: the Grover angle of a search over q items of
    which pos are marked."""
    return np.arcsin(np.sqrt(pos / q))


def _success_probability(theta: np.ndarray, j: np.ndarray) -> np.ndarray:
    """sin^2((2j+1) theta) elementwise: a Grover run with j iterations at angle
    theta succeeds with this probability."""
    return np.sin((2 * j + 1) * theta) ** 2


def _engine_rng(rng: np.random.Generator) -> np.random.Generator:
    """The SFC64 generator an engine call draws from, seeded from rng: the loop
    makes about two uniforms per run and step, and SFC64 makes them faster than
    Philox."""
    return np.random.Generator(np.random.SFC64(rng.integers(1 << 63, size=4)))


def _table_lengths(qs: np.ndarray) -> np.ndarray:
    qs = np.asarray(qs, np.int64)
    if (qs < 1).any():
        raise ValueError("table lengths must be at least 1")
    return qs


def _dh_position_batch(
    qs: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one minimum-finding process per entry of qs by stepping the loop.

    Returns (final_pos, queries, grover_iterations), drawing from one SFC64
    generator seeded from rng; see _dh_loop. Only this entry point reports
    Grover iterations, which max_wit's QueryLog needs.
    """
    return _dh_loop(_table_lengths(qs), _engine_rng(rng))


def _dh_loop(
    qs: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one minimum-finding process per entry of qs, _BLOCK_RUNS runs at a time.

    Positions replace values: a run over a length-q table starts at a uniform
    sorted position and each verified hit moves to a uniform position below
    the current one. Returns (final_pos, queries, grover_iterations); a final
    position of 0 means the run found the true minimum. Each run is an
    independent draw from the law of one scalar durr_hoyer_min run; the
    sample paths depend only on rng and the order of qs, and every uniform
    is drawn from rng itself.

    Each run keeps the Grover angle of its position (_angle), set at the start
    and recomputed only for the runs that hit, so a step computes the success
    probability (_success_probability) of the live runs alone. Each run keeps
    its remaining budget, so a step tests one row to find the runs that are done.
    """
    out = np.zeros((3, qs.size), np.int64)  # length-1 tables finish with zero queries
    for s in range(0, qs.size, _BLOCK_RUNS):
        ids = s + np.flatnonzero(qs[s : s + _BLOCK_RUNS] > 1)
        if not ids.size:
            continue
        q = qs[ids].astype(np.float64)
        pos = np.floor(rng.random(ids.size) * q)
        sq = np.sqrt(q)
        # rows: position, budget (iteration limit minus iterations), BBHT step m,
        # Grover angle of the position, sqrt(q), q, run index. After k steps a run
        # has spent 1 + iterations + k queries (the +1 is the initial threshold
        # evaluation) and stops once that reaches the limit, i.e. once budget <= k.
        state = np.stack([pos, DH_BUDGET_FACTOR * sq - 1, np.ones_like(q), _angle(pos, q), sq, q, ids])
        k, left = 0, ids.size
        while left:
            pos, budget, m, theta, sq, q, _ = state
            k += 1
            j = rng.random(pos.size)
            j *= m
            np.floor(j, out=j)
            budget -= j
            # a run at position 0 cannot hit, so only the others need a success probability
            live = np.flatnonzero(pos > 0)
            hit = live[rng.random(live.size) < _success_probability(theta[live], j[live])]
            m *= BBHT_GROWTH
            np.minimum(m, sq, out=m)
            if hit.size:
                pos[hit] = new = np.floor(rng.random(hit.size) * pos[hit])
                theta[hit] = _angle(new, q[hit])
                m[hit] = 1.0
            done = np.flatnonzero(budget <= k)
            if done.size:
                # budget is the limit minus the iterations, both exact in float64
                iters = DH_BUDGET_FACTOR * sq[done] - 1 - budget[done]
                out[:, state[6, done].astype(np.int64)] = pos[done], iters + k + 1, iters
                # finished runs idle at position 0 with no limit until half the block is done
                budget[done] = np.inf
                pos[done] = 0
                left -= done.size
                if 2 * left <= pos.size:
                    state = state[:, budget < np.inf]
    return out[0], out[1], out[2]


def _least_queries(q: int) -> int:
    """The fewest queries a run over a length-q table can end with: it stops on
    the first step after which 1 + iterations + steps reaches 22.5 sqrt(q)."""
    return math.ceil(DH_BUDGET_FACTOR * math.sqrt(q))


@functools.lru_cache(maxsize=128)
def _dh_law(q: int) -> np.ndarray:
    """Exact joint law of one loop run's (final position, queries) over a length-q
    table, q >= 2: a read-only (q, isqrt(q) + 1) array whose cell (pos, c) is the
    probability of ending at pos with _least_queries(q) + c queries.

    A forward DP over the loop's own state: queries spent s = 1 + iterations +
    steps, the BBHT level l and the position. Level l holds the loop's float m
    after l misses in a row: 1.0, then min(1.2 m, sqrt(q)) up to the top level,
    where m equals sqrt(q) and stays. A step from (s, l, pos) draws j = t with
    probability (min(t + 1, m) - t) / m, moves to s + t + 1, hits with the
    loop's own probability _success_probability(_angle(pos, q), t) and then
    lands on each position below pos with equal mass at level 0; a miss goes
    to level min(l + 1, top). Mass whose s reaches 22.5 sqrt(q) has stopped.
    A step spends at most isqrt(q) + 1 queries, so a ring of isqrt(q) + 2
    slots over s holds every live state: memory is O(levels * sqrt(q) * q).
    Every operation is elementwise numpy or a fixed reduction, so the bits do
    not depend on the machine's thread count.
    """
    sq = math.sqrt(q)
    levels = [1.0]
    while levels[-1] < sq:
        levels.append(min(levels[-1] * BBHT_GROWTH, sq))
    top = len(levels) - 1
    width = math.isqrt(q) + 1
    least = _least_queries(q)
    # one row per (t, level) pair with P(j = t) > 0, grouped by t
    pairs = sorted((t, l, (min(t + 1, m) - t) / m)
                   for l, m in enumerate(levels) for t in range(math.ceil(m)))
    t, lev, pt = (np.array(c) for c in zip(*pairs))
    first = np.flatnonzero(np.diff(t, prepend=-1))  # the first pair of each t
    theta = _angle(np.arange(q, dtype=np.float64), np.float64(q))
    hit = pt[:, None] * _success_probability(theta, t[:, None])
    miss = pt[:, None] - hit
    hit[:, 1:] /= np.arange(1, q)  # a hit from pos spreads its mass over pos positions
    # ring row slot * rows + level; the extra level row collects the top level's
    # misses, which are folded back into the top level before the slot is read
    slots, rows = width + 1, top + 2
    ring = np.zeros((slots * rows, q))
    ring[rows] = 1.0 / q  # s = 1: the initial threshold query, at a uniform position
    miss_row = t * rows + lev + 1
    hit_row = t[first] * rows
    for s in range(1, least):
        here = ring[s % slots * rows : (s % slots + 1) * rows]
        here[top] += here[top + 1]
        x = here[lev]
        spread = np.add.reduceat(x * hit, first, axis=0)  # per t, hit mass / position
        x *= miss
        base = (s + 1) % slots * rows
        # position p receives the spread of every position above it
        ring[(hit_row + base) % ring.shape[0], :-1] += np.cumsum(spread[:, :0:-1], axis=1)[:, ::-1]
        ring[(miss_row + base) % ring.shape[0]] += x
        here[:] = 0
    law = ring.reshape(slots, rows, q).sum(axis=1)[(least + np.arange(width)) % slots].T
    law.flags.writeable = False
    return law


# A length takes the law when a job holds at least _LAW_GAMMA * q^1.5 of its runs
# and q <= _LAW_MAX_LENGTH; the rule reads nothing else. A law is built once per
# length and process, after which a run costs about 0.05 us against the loop's
# 0.5-1.9 us. On a 2-vCPU x86 host the build took 1 ms at q = 2, 2.5 ms at 10,
# 7 ms at 41, 11 ms at 64, 26 ms at 128 and 84 ms at 256, so it paid for itself
# from 2.2k, 3.4k, 6.6k, 8.7k, 18k and 45k runs: 11-17 q^1.5 for q >= 54, more
# below. gamma = 12 makes a length that passes pay its build back on its own for
# q >= 128; below, a length just at the rule loses at most 4 ms. The build grows
# about as q^2 (330 ms at 512), so longer tables stay on the loop. The solvers
# pass each length's runs over all their blocks, so a length spread over many
# blocks is judged by its total; other calls are judged by their own runs.
_LAW_GAMMA = 12.0
_LAW_MAX_LENGTH = 256


def _takes_law(q: int, runs: int) -> bool:
    """Whether runs draws over a length-q table come from _dh_law (else the loop)."""
    return 2 <= q <= _LAW_MAX_LENGTH and runs >= _LAW_GAMMA * q**1.5


def _law_draws(q: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(final position, queries) of one run per uniform in u, by inverse CDF of
    _dh_law(q). A cell is chosen only where the CDF steps up, so it has mass."""
    law = _dh_law(q)
    cdf = np.cumsum(law)
    cell = np.searchsorted(cdf, u * cdf[-1], side="right")
    pos, extra = np.divmod(cell, law.shape[1])
    return pos, extra + _least_queries(q)


def _dh_positions(
    qs: np.ndarray, rng: np.random.Generator, runs: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(final position, queries) of one minimum-finding run per entry of qs.

    Each length in the call takes either its exact law or the loop, by
    _takes_law on the length and runs[q], the number of runs of that length
    in the whole job (by default, in this call), so the outcome has the
    loop's law either way. All draws come from one SFC64 generator seeded
    from rng: first the law lengths in ascending order, one uniform per run
    in the order of qs, then one _dh_loop call over every other run.
    """
    qs = _table_lengths(qs)
    gen = _engine_rng(rng)
    here = np.bincount(qs)
    runs = here if runs is None else runs
    pos = np.zeros(qs.size, np.int64)
    queries = np.zeros(qs.size, np.int64)
    on_law = np.zeros(here.size, bool)
    for q in np.flatnonzero(here).tolist():
        if _takes_law(q, int(runs[q])):
            at = np.flatnonzero(qs == q)
            pos[at], queries[at] = _law_draws(q, gen.random(at.size))
            on_law[q] = True
    rest = np.flatnonzero(~on_law[qs])
    pos[rest], queries[rest], _ = _dh_loop(qs[rest], gen)
    return pos, queries


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
    pos, queries = _dh_positions(np.full(runs, q), rng)
    return order[np.arange(runs), pos], pos == 0, queries


def _read_witnesses(wa, wb, i, j, lo, hi, r) -> np.ndarray:
    """Witness of each target t from its best final sorted position r[t]: the
    (r[t]+1)-th largest witness of entry (i[t], j[t]) in [lo[t], hi[t]) (the
    whole row when they are None), or -1 when there are not that many. Nearly
    every target has r = 0 and takes its top bit; only the others read more."""
    w = _witness_bits(wa, wb, i, j, lo, hi)[:, 0]
    far = np.flatnonzero(r > 0)
    if far.size:
        ranged = (None, None) if lo is None else (lo[far], hi[far])
        bits = _witness_bits(wa, wb, i[far], j[far], *ranged, int(r[far].max()) + 1)
        w[far] = bits[np.arange(far.size), r[far]]
    return w


def _run_entry_searches(
    a: BoolMatrix, b: BoolMatrix, i: np.ndarray, j: np.ndarray, q: np.ndarray, reps: int,
    rng: np.random.Generator, lo: np.ndarray | None = None, hi: np.ndarray | None = None,
) -> tuple[WitnessMatrix, int]:
    """Boosted witness search on entry (i[t], j[t]) over a length-q[t] table, per target t.

    A target's table lists its witnesses in [lo[t], hi[t]) first, largest
    first (the range defaults to the whole inner dimension). Targets go to the
    engine one block at a time, reps runs each; the best (minimum) final
    sorted position r of a target maps to the (r+1)-th largest of those
    witnesses, which boolmat's witness-bit kernel reads off the words of A
    and of B's transpose, and anything at or beyond their count verifies as
    a non-witness, so the entry reports no witness. Only the witness matrix
    and the query total outlive a block.
    """
    wa, wb = a.words, transpose(b).words
    w = np.full((a.rows, b.cols), -1, dtype=np.int64)
    total = 0
    runs = np.bincount(q) * reps  # the law rule weighs a length by its runs in all blocks
    step = max(1, _BLOCK_RUNS // reps)
    for s in range(0, q.size, step):
        t = slice(s, s + step)
        pos, queries = _dh_positions(np.repeat(q[t], reps), rng, runs)
        total += int(queries.sum())
        best = pos.reshape(-1, reps).min(axis=1)
        ranged = (None, None) if lo is None else (lo[t], hi[t])
        w[i[t], j[t]] = _read_witnesses(wa, wb, i[t], j[t], *ranged, best)
    return WitnessMatrix(a.rows, w), total


# ---------------------------------------------------------------------------
# Whole-product drivers
# ---------------------------------------------------------------------------


def _stats(n, algo, beta, ell, entries, total_queries, seed) -> AlgoStats:
    mean = total_queries / entries if entries else 0.0
    return AlgoStats(n, algo, beta, ell, entries, total_queries, mean_queries_per_entry=mean,
                     error_rate_vs_oracle=None, seed=seed)


def algorithm1(
    a: BoolMatrix, b: BoolMatrix, beta: float = 2.0, seed: int = 0
) -> tuple[WitnessMatrix, AlgoStats]:
    """Boosted maximum-witness search on every entry of the product."""
    n, q = product_dims(a, b, square=True)
    i, j = np.divmod(np.arange(n * n), n)
    rng = np_stream(seed, _TAG_ALG, 1)
    wm, total = _run_entry_searches(a, b, i, j, np.full(n * n, q), boost_reps(beta, n), rng)
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
    i, j = np.nonzero(bool_product(a, b).to_dense())
    rng = np_stream(seed, _TAG_ALG, 2)
    wm, total = _run_entry_searches(a, b, i, j, np.full(i.size, q), boost_reps(beta, n), rng)
    return wm, _stats(n, "alg2", beta, None, i.size, total, seed)


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
    if a.popcount() < b.popcount():
        wm_t, st = _algorithm3_core(transpose(b), transpose(a), beta, seed)
        return WitnessMatrix(n, wm_t.array.T), st
    return _algorithm3_core(a, b, beta, seed)


def _algorithm3_core(a, b, beta, seed) -> tuple[WitnessMatrix, AlgoStats]:
    n, _ = product_dims(a, b, square=True)
    counts = b.to_dense().sum(axis=0, dtype=np.int64)  # column j's candidate-list length
    cols = np.flatnonzero(counts)  # an empty list is an immediate no-witness, with no queries
    j = np.repeat(cols, n)  # column by column
    i = np.tile(np.arange(n), cols.size)
    rng = np_stream(seed, _TAG_ALG, 3)
    wm, total = _run_entry_searches(a, b, i, j, counts[j], boost_reps(beta, n), rng)
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
    i, j = np.nonzero(parr >= 0)
    lo, hi = np.array(dec.ranges).T[:, parr[i, j]]  # each entry's highest nonzero strip
    rng = np_stream(seed, _TAG_ALG, 4)
    wm, total = _run_entry_searches(a, b, i, j, hi - lo, boost_reps(beta, n), rng, lo, hi)
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
        self._strip_products: list[np.ndarray] | None = None
        self._parr: np.ndarray | None = None
        self._full: WitnessMatrix | None = None
        if level in ("strips", "strips+largest-p"):
            self._dec = StripDecomposition.build(q, self.ell)
        if level == "strips":
            self._strip_products = list(_strip_products(a, b, self._dec))
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
                if self._strip_products[cand][i, j]:
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
