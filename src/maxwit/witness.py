"""Randomized and strip-based witness solvers for Boolean matrix products.

Three families live here:

* an exact solver that splits the inner dimension into strips, finds the
  highest strip whose partial product is 1 for each entry from one BLAS
  strip product per strip, and reads the top set bit inside that strip off
  the words that cover it, with boolmat's witness-bit kernel (identical
  output to the brute-force oracle for every input);
* single-witness / k-witness solvers built on random column sampling: a
  float32 count product (exact while the inner dimension is below 2^24)
  finds the entries where exactly one sampled column survives, and that lone
  witness is the one set bit of the entry's packed uint64 rows ANDed with
  the sample's column mask; entries with at most k witnesses read all of
  them off the same packed words, and an entry the sampling left short
  tops up with its largest unlisted witnesses through the same kernel, so
  the advertised contract holds for every seed;
* two approximation schemes: a rank-bounded solver (reported witness always
  has rank at most the strip width; each strip samples only the entries
  whose highest nonzero strip it is) and a multiwitness scheme that
  repeatedly halves the second factor and keeps the best witness seen per
  entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolmat import (
    _BLOCK_ENTRIES,
    _CHUNK_BYTES,
    BoolMatrix,
    WitnessLists,
    WitnessMatrix,
    _witness_bits,
    product_dims,
    transpose,
)
# The rank check lives in boolmat; it stays bound here because callers and
# perfbench/trace_job.py look it up as maxwit.witness.witness_rank_matrix.
from .boolmat import witness_rank_matrix  # noqa: F401
from .rng import np_stream

__all__ = [
    "StripDecomposition",
    "ApproxParams",
    "default_strip_width",
    "largest_nonzero_strip",
    "exact_max_witness_strips",
    "single_witness_product",
    "k_witness",
    "approx_rank_bounded",
    "approx_multiwitness",
    "approx_multiwitness_boosted",
]

# Stream tags keep the seed spaces of the different solvers disjoint.
_TAG_SINGLE = 1
_TAG_KWIT = 2
_TAG_RANK = 3
_TAG_MULTI = 4


@dataclass(frozen=True)
class StripDecomposition:
    """Partition of the inner index range [0, n) into strips of width ell.

    All strips have width ell except possibly the last.
    """

    n: int
    ell: int
    ranges: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, n: int, ell: int) -> "StripDecomposition":
        if n < 1:
            raise ValueError("n must be at least 1")
        if not 1 <= ell <= n:
            raise ValueError(f"strip width must satisfy 1 <= ell <= n, got ell={ell}, n={n}")
        return cls(n, ell, tuple((s, min(s + ell, n)) for s in range(0, n, ell)))

    def __len__(self) -> int:
        return len(self.ranges)


def default_strip_width(n: int) -> int:
    """Default ell = ceil(n^(2/3)), balancing strip count against strip width."""
    return max(1, math.ceil(n ** (2.0 / 3.0)))


@dataclass(frozen=True)
class ApproxParams:
    """Parameters of the multiwitness approximation.

    k is the per-round witness budget; the rank analysis needs k >= 4.
    """

    k: int
    reps: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 4:
            raise ValueError("multiwitness approximation requires k >= 4")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")


# ---------------------------------------------------------------------------
# Exact strip solver
# ---------------------------------------------------------------------------


def _strip_products(a: BoolMatrix, b: BoolMatrix, dec: StripDecomposition):
    """Yield each strip's product, in strip order, as a (rows, cols) bool array.

    One BLAS product per strip gives the witness counts of the (rows, ell)
    by (ell, cols) strip product; a float32 sum of 0/1 products is positive
    exactly where the count is.
    """
    product_dims(a, b)
    if dec.n != a.cols:
        raise ValueError("decomposition does not cover the inner dimension")
    ad, bd = a.to_dense(), b.to_dense()
    for s, e in dec.ranges:
        yield ad[:, s:e].astype(np.float32) @ bd[s:e].astype(np.float32) > 0


def _highest_strips(a: BoolMatrix, b: BoolMatrix, dec: StripDecomposition) -> np.ndarray:
    """For each entry, the largest p + 1 over the strips p where its strip
    product is nonzero, else 0, in the narrowest type that holds len(dec)."""
    best = np.zeros((a.rows, b.cols), np.min_scalar_type(len(dec)))
    for p, nonzero in enumerate(_strip_products(a, b, dec)):
        np.maximum(best, nonzero * best.dtype.type(p + 1), out=best)
    return best


def largest_nonzero_strip(a: BoolMatrix, b: BoolMatrix, dec: StripDecomposition) -> np.ndarray:
    """For each entry, the highest strip p whose partial product is 1, else -1."""
    return np.subtract(_highest_strips(a, b, dec), 1, dtype=np.int64)


def exact_max_witness_strips(a: BoolMatrix, b: BoolMatrix, ell: int | None = None) -> WitnessMatrix:
    """Exact maximum witnesses via strip decomposition.

    The maximum witness is the highest set bit of A[i] & B[:, j], and it lies
    in the highest strip whose partial product is nonzero, so only the words
    that cover that strip are ANDed per entry. Output is identical to
    max_witness_oracle for every input and every strip width.
    """
    n, q = product_dims(a, b, square=True)
    if ell is None:
        ell = default_strip_width(q)
    best = _highest_strips(a, b, StripDecomposition.build(q, ell)).ravel()
    wa, wb = a.words, transpose(b).words
    wm = WitnessMatrix(n)
    w = wm.array.ravel()
    step = n * max(1, _BLOCK_ENTRIES // n)  # whole rows of entries
    for s in range(0, n * n, step):
        e = s + np.flatnonzero(best[s : s + step])  # flat ids of the nonzero entries
        lo = (best[e] - 1).astype(np.int64) * ell  # widened first: p * ell overflows the narrow type
        w[e] = _witness_bits(wa, wb, e // n, e % n, lo, np.minimum(lo + ell, q))[:, 0]
    return wm


# ---------------------------------------------------------------------------
# Sampling core
# ---------------------------------------------------------------------------


def _sample_rounds(n_scale: int, k: int) -> int:
    # enough rounds that the top-up rarely fires when W is near k
    return 2 * math.ceil(math.log2(max(n_scale, 2))) + 2 * k


def _index_type(m: int) -> np.dtype:
    """The narrowest signed integer type that holds -1 and every value up to m."""
    return np.min_scalar_type(-m - 1)


def _collect_witnesses(
    a_dense: np.ndarray, b_dense: np.ndarray, k: int, rng: np.random.Generator, want: np.ndarray | None = None
) -> np.ndarray:
    """Find min(k, W) distinct witnesses per entry of the product of 0/1 arrays.

    Returns the (p, r, k) witness slots in ``_index_type(max(q, k))``, to be
    widened before any offset is added: each entry's witnesses sorted
    descending and padded with -1, min(k, W) of them for every entry and
    every seed (checked before the return). Where the optional (p, r) bool
    mask ``want`` is False the entry is left out: its slots stay -1, and it
    takes no part in the sampling.

    Entries with 1 <= W <= k take their complete witness set from boolmat's
    witness-bit kernel, in blocks of about 1 MiB of words. Entries with more
    than k witnesses draw random column subsets at rate 2^-t near t = log2(W); a
    subset where exactly one witness survives hits, and that witness is the
    one set bit of the packed rows ANDed with the subset's column mask, so no
    index-sum product is needed. After each round's count product only the
    entries that hit are read, _BLOCK_ENTRIES at a time, and only those that
    finish leave the masks. An entry the sampling left short keeps its
    sampled witnesses and tops up with its largest unlisted ones, read
    through the same witness-bit kernel. Counts are float32 products, exact
    while q < 2^24 (float64 above).
    """
    p, q = a_dense.shape
    r = b_dense.shape[1]
    ftype = np.float32 if q < 1 << 24 else np.float64
    itype = _index_type(max(q, k))
    af = a_dense.astype(ftype)
    bf = b_dense.astype(ftype)
    wcount = (af @ bf).astype(itype)
    if want is not None:
        wcount[~want] = 0
    # entries are addressed by flat index i * r + j from here on
    wc = wcount.ravel()
    found = np.full((p * r, k), -1, dtype=itype)
    cnt = np.zeros(p * r, dtype=itype)
    few = np.flatnonzero((wc > 0) & (wc <= k))
    unfinished = wcount > k  # the sampling serves these until each has k witnesses
    left = int(np.count_nonzero(unfinished))
    wa, wb = BoolMatrix.from_dense(a_dense).words, BoolMatrix.from_dense(b_dense.T).words
    words = wa.shape[1]

    step = max(1, _CHUNK_BYTES // (8 * words))
    for s in range(0, few.size, step):
        e = few[s : s + step]
        found[e] = _witness_bits(wa, wb, e // r, e % r, count=k)
    cnt[few] = wc[few]
    del few

    if left:
        rounds = _sample_rounds(max(p, q, r), k)
        words_a, words_b = wa.T.copy(), wb.T.copy()  # word-major: one word of every row is contiguous
        pick = np.zeros(64 * words, dtype=bool)  # a round's sampled columns, padded to whole words
        for t in range(1, math.ceil(math.log2(max(q, 2))) + 1):
            lo, hi = 1 << (t - 1), min(4 << t, np.iinfo(itype).max)  # in itype's range; every count is below q
            in_band = int(np.count_nonzero(unfinished & (wcount >= lo) & (wcount <= hi)))
            if not in_band:
                continue
            rate = 2.0**-t
            for _ in range(rounds):
                np.less(rng.random(q), rate, out=pick[:q])
                cols = np.flatnonzero(pick)
                if cols.size == 0:
                    continue
                hits = np.flatnonzero((af[:, cols] @ bf[cols, :] == 1) & unfinished)
                if hits.size == 0:
                    continue
                # the lone survivor is the one set bit of the masked AND; a power
                # of two converts to float64 exactly, so frexp gives its index
                mask = np.packbits(pick, bitorder="little").view("<u8")
                for c in range(0, hits.size, _BLOCK_ENTRIES):
                    e = hits[c : c + _BLOCK_ENTRIES]
                    ii, jj = np.divmod(e, r)
                    w = np.full(e.size, -1, dtype=np.int64)
                    for word in np.flatnonzero(mask).tolist():
                        x = words_a[word, ii]
                        x &= words_b[word, jj]
                        x &= mask[word]
                        bit = np.frexp(x.astype(np.float64))[1]  # 1 + the bit's index; 0 if no bit
                        w += bit
                        if word:
                            w += (bit > 0) * (64 * word)
                    fresh = ~(found[e] == w[:, None]).any(axis=1)
                    e, w = e[fresh], w[fresh]
                    if e.size == 0:
                        continue
                    slots = cnt[e]
                    found[e, slots] = w
                    cnt[e] = slots + 1
                    e = e[slots + 1 == k]
                    if e.size:  # only the entries that just finished leave the masks
                        unfinished.ravel()[e] = False
                        left -= e.size
                        in_band -= int(np.count_nonzero((wc[e] >= lo) & (wc[e] <= hi)))
                if not in_band:
                    break
            if not left:
                break
    del af, bf  # the count products are done

    # an entry left short has W > k: its k largest witnesses hold at least
    # k - cnt unlisted ones, and the largest of those fill its -1 slots
    short = np.flatnonzero(cnt < np.minimum(wc, k))
    step = max(1, _CHUNK_BYTES // (8 * max(words, k)))
    for s in range(0, short.size, step):
        e = short[s : s + step]
        slots = found[e]
        top = _witness_bits(wa, wb, e // r, e % r, count=k)
        row = np.arange(e.size)[:, None] * q  # keys value + row * q keep the entries apart
        new = ~np.isin(top + row, (slots + row)[slots >= 0])
        new &= np.cumsum(new, axis=1) <= k - cnt[e][:, None]
        slots[slots < 0] = top[new]
        found[e] = slots
        cnt[e] += np.count_nonzero(new, axis=1)

    # each list descending, -1 last: sort the negated slots in place
    np.negative(found, out=found)
    found.sort(axis=1)
    np.negative(found, out=found)
    if not np.array_equal(cnt, np.minimum(wc, k)):
        raise RuntimeError("sampling core listed fewer than min(k, W) witnesses for some entry")
    return found.reshape(p, r, k)


# ---------------------------------------------------------------------------
# Witness products
# ---------------------------------------------------------------------------


def single_witness_product(a: BoolMatrix, b: BoolMatrix, seed: int = 0) -> WitnessMatrix:
    """One genuine witness per nonzero product entry; absent elsewhere.

    Which witness is reported depends on the seed; its validity does not.
    """
    n, _ = product_dims(a, b, square=True)
    found = _collect_witnesses(a.to_dense(), b.to_dense(), 1, np_stream(seed, _TAG_SINGLE))
    return WitnessMatrix(n, found[:, :, 0])


def k_witness(a: BoolMatrix, b: BoolMatrix, k: int, seed: int = 0) -> WitnessLists:
    """min(k, W) distinct witnesses per entry, sorted descending.

    The length contract holds for every seed; the sampling only decides which
    witnesses are reported when there are more than k.
    """
    n, q = product_dims(a, b, square=True)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    found = _collect_witnesses(a.to_dense(), b.to_dense(), k, np_stream(seed, _TAG_KWIT))
    return WitnessLists(n, k, found)  # the solver's slots, as they are


def approx_rank_bounded(a: BoolMatrix, b: BoolMatrix, ell: int, seed: int = 0) -> WitnessMatrix:
    """Witness of rank at most ell per nonzero entry.

    Each entry takes one witness of the single-witness solver from the
    highest strip whose partial product is nonzero (``_highest_strips``, in
    its narrow type); all greater witnesses lie inside that strip, so the
    rank is at most its width. Strip p samples only the entries whose
    highest nonzero strip is p, and strips that are no entry's highest are
    skipped. Each strip's witnesses go straight into the result's array, and
    its sampling arrays are freed before the next strip runs. ell=1
    degenerates to exact maximum witnesses.
    """
    n, q = product_dims(a, b, square=True)
    dec = StripDecomposition.build(q, ell)
    top = _highest_strips(a, b, dec)  # p + 1 for the highest strip p, 0 for none
    ad = a.to_dense()
    bd = b.to_dense()
    wm = WitnessMatrix(n)
    for p in (np.unique(top[top > 0]) - 1).tolist():  # the strips that are some entry's highest
        s, e = dec.ranges[p]
        want = top == p + 1
        found = _collect_witnesses(ad[:, s:e], bd[s:e, :], 1, np_stream(seed, _TAG_RANK, p), want)
        np.add(found[:, :, 0], s, out=wm.array, where=want, dtype=np.int64)  # widened first: s may not fit found's type
        del found  # not held while the next strip samples
    return wm


def _multiwitness_rounds(n: int) -> int:
    return math.ceil(2 * math.log2(max(n, 2))) + 2


def _multiwitness_run(a: BoolMatrix, b: BoolMatrix, k: int, seed: int, rep: int) -> np.ndarray:
    n, q = product_dims(a, b, square=True)
    # an entry has at most q witnesses, so any k >= q collects all of them,
    # with no sampling draw: the result is the same for every such k
    k = min(k, q)
    ad = a.to_dense()
    d = b.to_dense().copy()
    wit = np.full((n, n), -1, dtype=np.int64)
    for rnd in range(_multiwitness_rounds(n)):
        rng = np_stream(seed, _TAG_MULTI, rep, rnd)
        found = _collect_witnesses(ad, d, k, rng)
        wit = np.maximum(wit, found[:, :, 0])  # descending order: slot 0 is the max
        # keep each remaining 1 of the second factor with probability 1/2
        d &= (rng.random(d.shape) < 0.5).astype(np.uint8)
    return wit


def approx_multiwitness(a: BoolMatrix, b: BoolMatrix, params: ApproxParams) -> WitnessMatrix:
    """One round-robin of k-witness calls against a halving second factor.

    Every nonzero product entry receives some genuine witness (the first
    round sees the intact factor); with constant probability per entry the
    best witness kept has rank at most 4*ceil(W/k).
    """
    if params.reps != 1:
        raise ValueError("single run takes reps=1; use approx_multiwitness_boosted for reps>1")
    return approx_multiwitness_boosted(a, b, params)  # the best over one run is that run


def approx_multiwitness_boosted(a: BoolMatrix, b: BoolMatrix, params: ApproxParams) -> WitnessMatrix:
    """Entrywise best witness over params.reps independent runs."""
    n, _ = product_dims(a, b, square=True)
    wit = np.full((n, n), -1, dtype=np.int64)
    for rep in range(params.reps):
        wit = np.maximum(wit, _multiwitness_run(a, b, params.k, params.seed, rep))
    return WitnessMatrix(n, wit)
