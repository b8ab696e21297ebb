"""Randomized and strip-based witness solvers for Boolean matrix products.

Three families live here:

* an exact solver that splits the inner dimension into strips, finds the
  highest strip whose partial product is 1 for each entry from one BLAS
  strip product per strip, and reads the top set bit inside that strip off
  packed uint64 words with a byte table (identical output to the
  brute-force oracle for every input);
* single-witness / k-witness solvers built on random column sampling: a
  float32 count product (exact while the inner dimension is below 2^24)
  finds the entries where exactly one sampled column survives, and that lone
  witness is the one set bit of the entry's packed uint64 rows ANDed with
  the sample's column mask; entries with at most k witnesses read all of
  them off the same packed words, and a deterministic fallback scan tops up
  any entry the sampling missed, so the advertised contract holds for every
  seed;
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
    BoolMatrix,
    WitnessLists,
    WitnessMatrix,
    product_dims,
)
# The rank check lives in boolmat; it stays bound here because callers and
# perfbench/trace_job.py look it up as maxwit.witness.witness_rank_matrix.
from .boolmat import witness_rank_matrix  # noqa: F401
from .rng import np_stream

__all__ = [
    "StripDecomposition",
    "ApproxParams",
    "default_strip_width",
    "strip_decomposition",
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

    All strips have width ell except possibly the last; ``masks[p]`` is the
    bitset covering strip p, for intersecting packed rows directly.
    """

    n: int
    ell: int
    ranges: tuple[tuple[int, int], ...]
    masks: tuple[int, ...]

    @classmethod
    def build(cls, n: int, ell: int) -> "StripDecomposition":
        if n < 1:
            raise ValueError("n must be at least 1")
        if not 1 <= ell <= n:
            raise ValueError(f"strip width must satisfy 1 <= ell <= n, got ell={ell}, n={n}")
        ranges = []
        masks = []
        for start in range(0, n, ell):
            end = min(start + ell, n)
            ranges.append((start, end))
            masks.append(((1 << (end - start)) - 1) << start)
        return cls(n, ell, tuple(ranges), tuple(masks))

    def strip_of(self, k: int) -> int:
        if not 0 <= k < self.n:
            raise IndexError(f"index {k} outside [0, {self.n})")
        return k // self.ell

    def __len__(self) -> int:
        return len(self.ranges)


def strip_decomposition(n: int, ell: int) -> StripDecomposition:
    return StripDecomposition.build(n, ell)


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


def largest_nonzero_strip(a: BoolMatrix, b: BoolMatrix, dec: StripDecomposition) -> np.ndarray:
    """For each entry, the highest strip p whose partial product is 1, else -1.

    One BLAS product per strip gives the witness counts of the (rows, ell)
    by (ell, cols) strip product; an entry keeps the largest p + 1 over the
    strips where its count is nonzero.
    """
    product_dims(a, b)
    if dec.n != a.cols:
        raise ValueError("decomposition does not cover the inner dimension")
    ad, bd = a.to_dense(), b.to_dense()
    best = np.zeros((a.rows, b.cols), np.min_scalar_type(len(dec)))
    for p, (s, e) in enumerate(dec.ranges):
        # a float32 sum of 0/1 products is positive exactly where the count is
        counts = ad[:, s:e].astype(np.float32) @ bd[s:e].astype(np.float32)
        np.maximum(best, (counts > 0) * best.dtype.type(p + 1), out=best)
    return np.subtract(best, 1, dtype=np.int64)


# highest set bit of each byte value; -1 for zero
_TOP_BIT = np.array([x.bit_length() - 1 for x in range(256)], np.int64)
# entries the strip scan handles per block of whole rows
_CHUNK_ENTRIES = 1 << 16


def _packed_words(dense: np.ndarray, words: int) -> np.ndarray:
    """Rows of a 0/1 array as little-endian uint64 words: bit k of a row is bit
    k % 64 of word k // 64; rows are zero-padded to ``words`` words."""
    packed = np.zeros((dense.shape[0], 8 * words), np.uint8)
    packed[:, : (dense.shape[1] + 7) // 8] = np.packbits(dense, axis=1, bitorder="little")
    return packed.view("<u8")


def _top_bit(x: np.ndarray) -> np.ndarray:
    """Index of the highest set bit of each uint64 word; -1 for zero."""
    # halve the window onto the top nonzero byte, then read that byte's top bit
    k = np.zeros(x.shape, np.uint64)
    for s in (32, 16, 8):
        k += (x >> (k + np.uint64(s)) != 0) * np.uint64(s)
    return k.astype(np.int64) + _TOP_BIT[(x >> k) & np.uint64(255)]


def exact_max_witness_strips(a: BoolMatrix, b: BoolMatrix, ell: int | None = None) -> WitnessMatrix:
    """Exact maximum witnesses via strip decomposition.

    The maximum witness is the highest set bit of A[i] & B[:, j], and it lies
    in the highest strip whose partial product is nonzero, so only that
    strip's packed words are ANDed per entry; a byte table reads off the top
    bit. Output is identical to max_witness_oracle for every input and every
    strip width.
    """
    n, q = product_dims(a, b, square=True)
    if ell is None:
        ell = default_strip_width(q)
    parr = largest_nonzero_strip(a, b, StripDecomposition.build(q, ell))
    span = (ell + 62) // 64 + 1  # most words one strip can touch
    words = -(-q // 64) + span  # the padding keeps every strip's words in range
    wa = _packed_words(a.to_dense(), words).ravel()
    wb = _packed_words(b.to_dense().T, words).ravel()
    w = np.full((n, n), -1, dtype=np.int64)
    step = n * max(1, _CHUNK_ENTRIES // n)  # whole rows of entries
    for s in range(0, n * n, step):
        e = s + np.flatnonzero(parr.ravel()[s : s + step] >= 0)  # flat ids of the nonzero entries
        lo = parr.ravel()[e] * ell // 64  # the first word of each entry's strip
        ia, ib = e // n * words + lo, e % n * words + lo
        top, off = np.zeros(e.size, np.uint64), np.zeros(e.size, np.int64)
        for t in range(span):  # no witness lies above the strip, so the last nonzero word wins
            x = wa[ia + t] & wb[ib + t]
            nz = x != 0
            top, off = np.where(nz, x, top), np.where(nz, t, off)
        w.ravel()[e] = 64 * (lo + off) + _top_bit(top)
    return WitnessMatrix(n, w)


# ---------------------------------------------------------------------------
# Sampling core
# ---------------------------------------------------------------------------


# bytes of the (entries, words) uint64 AND block the few-witness branch holds at once
_CHUNK_BYTES = 4 << 20


def _sample_rounds(n_scale: int, k: int) -> int:
    # enough rounds that the fallback rarely fires when W is near k
    return 2 * math.ceil(math.log2(max(n_scale, 2))) + 2 * k


def _collect_witnesses(
    a_dense: np.ndarray, b_dense: np.ndarray, k: int, rng: np.random.Generator, want: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Find min(k, W) distinct witnesses per entry of the product of 0/1 arrays.

    Returns (found, counts, wcount): found is (p, r, k) int64 sorted
    descending per entry and padded with -1; counts equals min(k, wcount)
    for every entry, unconditionally. Where the optional (p, r) bool mask
    ``want`` is False the entry is left out: its wcount and count are 0, its
    slots stay -1, and it takes no part in the sampling.

    Entries with 1 <= W <= k take their complete witness set from the AND of
    their packed uint64 rows, peeled top bit first. Entries with more than k
    witnesses draw random column subsets at rate 2^-t near t = log2(W); a
    subset where exactly one witness survives hits, and that witness is the
    one set bit of the packed rows ANDed with the subset's column mask, so no
    index-sum product is needed. After each round's count product only the
    entries that hit are read, and only those that finish leave the masks.
    A final deterministic scan fills whatever the sampling missed. Counts are
    float32 products, exact while q < 2^24 (float64 above).
    """
    p, q = a_dense.shape
    r = b_dense.shape[1]
    ftype = np.float32 if q < 1 << 24 else np.float64
    af = a_dense.astype(ftype)
    bf = b_dense.astype(ftype)
    wcount = (af @ bf).astype(np.int64)
    if want is not None:
        wcount[~want] = 0
    # entries are addressed by flat index i * r + j from here on
    wc = wcount.ravel()
    target = np.minimum(wc, k)
    found = np.full((p * r, k), -1, dtype=np.int64)
    cnt = np.zeros(p * r, dtype=np.int64)
    few = np.flatnonzero((wc > 0) & (wc <= k))
    unfinished = wcount > k  # the sampling serves these until each has k witnesses
    left = int(np.count_nonzero(unfinished))
    words = -(-q // 64)
    wa = _packed_words(a_dense, words)
    wb = _packed_words(b_dense.T, words)

    step = max(1, _CHUNK_BYTES // (8 * words))
    for s in range(0, few.size, step):
        e = few[s : s + step]
        x = wa[e // r] & wb[e % r]  # (entries, words): row m is the witness set of entry e[m]
        w = wc[e]
        rows = np.arange(e.size)
        for slot in range(int(w.max())):  # peel each entry's top bit, largest first
            last = words - 1 - np.argmax(x[:, ::-1] != 0, axis=1)  # its top nonzero word
            top = x[rows, last]
            bit = _top_bit(top)
            found[e, slot] = np.where(w > slot, 64 * last + bit, -1)
            x[rows, last] = top & ~(np.uint64(1) << np.maximum(bit, 0).astype(np.uint64))
    cnt[few] = wc[few]

    if left:
        rounds = _sample_rounds(max(p, q, r), k)
        wa, wb = wa.T.copy(), wb.T.copy()  # word-major: one word of every row is contiguous
        pick = np.zeros(64 * words, dtype=bool)  # a round's sampled columns, padded to whole words
        for t in range(1, math.ceil(math.log2(max(q, 2))) + 1):
            band = unfinished & (wcount >= (1 << (t - 1))) & (wcount <= (4 << t))
            in_band = int(np.count_nonzero(band))
            if not in_band:
                continue
            rate = 2.0**-t
            for _ in range(rounds):
                np.less(rng.random(q), rate, out=pick[:q])
                cols = np.flatnonzero(pick)
                if cols.size == 0:
                    continue
                e = np.flatnonzero((af[:, cols] @ bf[cols, :] == 1) & unfinished)
                if e.size == 0:
                    continue
                # the lone survivor is the one set bit of the masked AND; a power
                # of two converts to float64 exactly, so frexp gives its index
                ii, jj = np.divmod(e, r)
                mask = np.packbits(pick, bitorder="little").view("<u8")
                w = np.full(e.size, -1, dtype=np.int64)
                for word in np.flatnonzero(mask).tolist():
                    x = wa[word, ii]
                    x &= wb[word, jj]
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
                    in_band -= int(np.count_nonzero(band.ravel()[e]))
                    band.ravel()[e] = False
                    if not in_band:
                        break
            if not left:
                break

    for e in np.flatnonzero(cnt < target).tolist():
        have = set(found[e, : cnt[e]].tolist())
        i, j = divmod(e, r)
        for kk in np.flatnonzero(a_dense[i] & b_dense[:, j])[::-1].tolist():
            if cnt[e] >= target[e]:
                break
            if kk not in have:
                found[e, cnt[e]] = kk
                cnt[e] += 1

    # descending with the -1 padding last, in place: sort the negated values
    np.negative(found, out=found)
    found.sort(axis=1)
    np.negative(found, out=found)
    assert (cnt == target).all()
    return found.reshape(p, r, k), cnt.reshape(p, r), wcount


# ---------------------------------------------------------------------------
# Witness products
# ---------------------------------------------------------------------------


def single_witness_product(a: BoolMatrix, b: BoolMatrix, seed: int = 0) -> WitnessMatrix:
    """One genuine witness per nonzero product entry; absent elsewhere.

    Which witness is reported depends on the seed; its validity does not.
    """
    n, _ = product_dims(a, b, square=True)
    found, _, _ = _collect_witnesses(a.to_dense(), b.to_dense(), 1, np_stream(seed, _TAG_SINGLE))
    return WitnessMatrix(n, found[:, :, 0])


def k_witness(a: BoolMatrix, b: BoolMatrix, k: int, seed: int = 0) -> WitnessLists:
    """min(k, W) distinct witnesses per entry, sorted descending.

    The length contract holds for every seed; the sampling only decides which
    witnesses are reported when there are more than k.
    """
    n, q = product_dims(a, b, square=True)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    found, cnt, _ = _collect_witnesses(a.to_dense(), b.to_dense(), k, np_stream(seed, _TAG_KWIT))
    # entry (i, j) lists the first cnt[i, j] slots of found[i, j]
    return WitnessLists(n, k, cnt, found[np.arange(k) < cnt[..., None]])


def approx_rank_bounded(a: BoolMatrix, b: BoolMatrix, ell: int, seed: int = 0) -> WitnessMatrix:
    """Witness of rank at most ell per nonzero entry.

    Each entry takes one witness of the single-witness solver from the
    highest strip whose partial product is nonzero (``largest_nonzero_strip``);
    all greater witnesses lie inside that strip, so the rank is at most its
    width. Strip p samples only the entries whose highest nonzero strip is p,
    and strips that are no entry's highest are skipped. ell=1 degenerates to
    exact maximum witnesses.
    """
    n, q = product_dims(a, b, square=True)
    dec = StripDecomposition.build(q, ell)
    top = largest_nonzero_strip(a, b, dec)
    ad = a.to_dense()
    bd = b.to_dense()
    wit = np.full((n, n), -1, dtype=np.int64)
    for p in np.unique(top[top >= 0]).tolist():
        s, e = dec.ranges[p]
        want = top == p
        found, _, _ = _collect_witnesses(ad[:, s:e], bd[s:e, :], 1, np_stream(seed, _TAG_RANK, p), want)
        wit[want] = found[:, :, 0][want] + s
    return WitnessMatrix(n, wit)


def _multiwitness_rounds(n: int) -> int:
    return math.ceil(2 * math.log2(max(n, 2))) + 2


def _multiwitness_run(a: BoolMatrix, b: BoolMatrix, k: int, seed: int, rep: int) -> np.ndarray:
    n, _ = product_dims(a, b, square=True)
    ad = a.to_dense()
    d = b.to_dense().copy()
    wit = np.full((n, n), -1, dtype=np.int64)
    for rnd in range(_multiwitness_rounds(n)):
        rng = np_stream(seed, _TAG_MULTI, rep, rnd)
        found, _, _ = _collect_witnesses(ad, d, k, rng)
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
    n = a.rows
    return WitnessMatrix(n, _multiwitness_run(a, b, params.k, params.seed, 0))


def approx_multiwitness_boosted(a: BoolMatrix, b: BoolMatrix, params: ApproxParams) -> WitnessMatrix:
    """Entrywise best witness over params.reps independent runs."""
    n, _ = product_dims(a, b, square=True)
    wit = np.full((n, n), -1, dtype=np.int64)
    for rep in range(params.reps):
        wit = np.maximum(wit, _multiwitness_run(a, b, params.k, params.seed, rep))
    return WitnessMatrix(n, wit)
