"""Bit-packed Boolean matrices and exact brute-force witness oracles.

A matrix is stored as one read-only (rows, ceil(cols/64)) array of
little-endian uint64 words: bit k of row i is bit k % 64 of word k // 64 of
that row, the layout of the binary matrix file. This module is the only one
that knows the layout; every parser, solver and check reads the same words.
The witness set of entry (i, j) is then one AND of row i of A with row j of
B's transpose, and its maximum witness is the highest set bit of that AND.
One kernel, ``_witness_bits``, reads the highest witnesses of many entries
within given index ranges; the strip solver, the few-witness lists of the
sampling core and every witness the quantum simulation reports go through
it. The one other place that reads witnesses off the words is the sampling
rounds' read of a lone surviving bit, by ``frexp``, in ``witness``.
Everything else in the package is checked against the oracles defined here.

Indices are 0-based throughout. A witness of entry (i, j) of the Boolean
product C = A x B is any k with A[i,k] = B[k,j] = 1; the maximum witness is
the largest such k, and the rank of a witness is 1 plus the number of
strictly greater witnesses (the maximum witness has rank 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "BoolMatrix",
    "WitnessMatrix",
    "WitnessLists",
    "product_dims",
    "bool_product",
    "transpose",
    "max_witness_oracle",
    "witness_mask",
    "witness_count",
    "rank_of",
    "witness_rank_matrix",
    "random_matrix",
    "witness_violations",
]

# the low k bits of a word, k = 0..64
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], np.uint64)
# bytes of one (entries, words) block of gathered words in the rank check, and
# of one float32 block of A's rows or of B's columns in bool_product
_CHUNK_BYTES = 1 << 20
# entries of the whole rows that one block of the rank check, or of the
# k-witness lists' validation, covers
_BLOCK_ENTRIES = 1 << 15


def _packed_words(dense: np.ndarray, words: int) -> np.ndarray:
    """Rows of a 0/1 array as little-endian uint64 words: bit k of a row is bit
    k % 64 of word k // 64; rows are zero-padded to ``words`` words."""
    packed = np.zeros((dense.shape[0], 8 * words), np.uint8)
    packed[:, : (dense.shape[1] + 7) // 8] = np.packbits(dense, axis=1, bitorder="little")
    return packed.view("<u8")


def _unpacked(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` bits of each row of packed words as a uint8 0/1 array."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=count, bitorder="little")


def _top_bit(x: np.ndarray) -> np.ndarray:
    """Index of the highest set bit of each uint64 word; -1 for zero."""
    # y holds x's top bit T shifted down one place, so it fits an int64 (whose
    # float64 conversion is fast), and has the bit below that clear, so rounding
    # cannot carry into the next power of two: frexp's exponent of y is T (0 for
    # x <= 1, and zero then takes -1)
    y = x >> np.uint64(1)
    y &= ~y >> np.uint64(1)
    t = np.frexp(y.view(np.int64).astype(np.float64))[1]
    t -= x == 0
    return t


@dataclass(frozen=True, eq=False)
class BoolMatrix:
    """Immutable Boolean matrix stored as the read-only uint64 ``words``.

    Invariant: the padding bits at and above ``cols`` stay zero, so equality
    and popcounts never see garbage bits.
    """

    rows: int
    cols: int
    words: np.ndarray

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix must be at least 1x1")
        words = np.array(self.words, dtype="<u8")  # a private, read-only copy
        shape = (self.rows, -(-self.cols // 64))
        if words.shape != shape:
            raise ValueError(f"words must have shape {shape}, got {words.shape}")
        # one op on the last word: the bits at and above cols must be clear
        over = np.flatnonzero(words[:, -1] & ~_LOW_BITS[(self.cols - 1) % 64 + 1])
        if over.size:
            raise ValueError(f"row {over[0]} has bits beyond column {self.cols - 1}")
        words.flags.writeable = False
        object.__setattr__(self, "words", words)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "BoolMatrix":
        return cls.from_dense(np.zeros((rows, rows if cols is None else cols), bool))

    @classmethod
    def ones(cls, rows: int, cols: int | None = None) -> "BoolMatrix":
        return cls.from_dense(np.ones((rows, rows if cols is None else cols), bool))

    @classmethod
    def identity(cls, n: int) -> "BoolMatrix":
        return cls.from_dense(np.eye(n, dtype=bool))

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable[int]]) -> "BoolMatrix":
        """Build from nested 0/1 values, e.g. [[1, 0], [0, 1]]."""
        try:
            dense = np.array([list(row) for row in rows], dtype=bool)
        except ValueError:
            raise ValueError("ragged rows") from None
        if dense.ndim != 2:
            raise ValueError("matrix must be at least 1x1")
        return cls.from_dense(dense)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BoolMatrix":
        arr = np.asarray(dense)
        if arr.ndim != 2:
            raise ValueError("dense array must be 2-D")
        bits = arr if arr.dtype.kind in "biu" else arr != 0  # packbits reads any nonzero integer as 1
        return cls(arr.shape[0], arr.shape[1], _packed_words(bits, -(-arr.shape[1] // 64)))

    # -- accessors ---------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return int(self.words[i, j // 64] >> np.uint64(j % 64)) & 1

    def to_dense(self) -> np.ndarray:
        """Return an (rows, cols) uint8 array of 0/1 values."""
        return _unpacked(self.words, self.cols)

    def popcount(self) -> int:
        """Number of ones."""
        return int(np.bitwise_count(self.words).sum())

    def density(self) -> float:
        return self.popcount() / (self.rows * self.cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        return self.cols == other.cols and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.words.tobytes()))

    def __str__(self) -> str:
        text = np.full((self.rows, self.cols + 1), ord("\n"), np.uint8)
        text[:, :-1] = self.to_dense() | ord("0")
        return text.tobytes()[:-1].decode("ascii")


class WitnessMatrix:
    """Square matrix of optional witness indices; -1 encodes absence.

    An entry carries a witness exactly when the Boolean product is 1 there.
    """

    __slots__ = ("n", "_w")

    def __init__(self, n: int, entries: np.ndarray | None = None):
        if n < 1:
            raise ValueError("witness matrix must be at least 1x1")
        self.n = n
        if entries is None:
            self._w = np.full((n, n), -1, dtype=np.int64)
        else:
            arr = np.asarray(entries, dtype=np.int64)
            if arr.shape != (n, n):
                raise ValueError("entries must be an n x n array")
            self._w = arr.copy()

    @property
    def array(self) -> np.ndarray:
        """The raw (n, n) int64 array; -1 means no witness."""
        return self._w

    def get(self, i: int, j: int) -> int | None:
        v = int(self._w[i, j])
        return None if v < 0 else v

    def set(self, i: int, j: int, witness: int | None) -> None:
        self._w[i, j] = -1 if witness is None else int(witness)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WitnessMatrix)
            and self.n == other.n
            and bool(np.array_equal(self._w, other._w))
        )

    def __hash__(self) -> int:  # mutable content; not hashable
        raise TypeError("WitnessMatrix is not hashable")

    def to_json_dict(self, one_based: bool = False) -> dict:
        i, j = np.nonzero(self._w >= 0)
        off = int(one_based)
        rows = zip(i.tolist(), j.tolist(), self._w[i, j].tolist())
        return {"n": self.n, "entries": [{"i": r + off, "j": c + off, "witness": w + off} for r, c, w in rows]}

    @classmethod
    def from_json_dict(
        cls, obj: dict, one_based: bool = False, expect_n: int | None = None
    ) -> "WitnessMatrix":
        """Read {"n": n, "entries": [{"i", "j", "witness"}, ...]}; later entries win.

        Every number must be an int (not a bool). "entries" may also be an
        iterator over (count, 3) int64 arrays of (i, j, witness) rows, the
        windows ``io.read_witness_report`` decodes from a canonical report;
        each window goes through ``_fill`` in turn, as the list does at
        once. A given ``expect_n`` (the product's n) is checked before
        anything of size n is allocated.
        """
        if not isinstance(obj, dict):
            raise ValueError("a witness document must be a JSON object")
        try:
            n, entries = obj["n"], obj["entries"]
        except KeyError as exc:
            raise ValueError(f"the document has no {exc.args[0]!r} key: it is not a witness matrix") from None
        if type(n) is not int:
            raise ValueError(f"n must be an integer, got {n!r}")
        if expect_n is not None and n != expect_n:
            raise ValueError(f"witness matrix has n={n} but the product is {expect_n}x{expect_n}")
        if isinstance(entries, Iterator):
            wm = cls(n)
            for rows in entries:
                wm._fill(rows, one_based)
            return wm
        if not isinstance(entries, list) or any(type(e) is not dict for e in entries):
            raise ValueError("entries must be a list of objects")
        wm = cls(n)
        fields = chain.from_iterable(map(itemgetter("i", "j", "witness"), entries))
        try:
            values = np.fromiter(fields, object, 3 * len(entries))
        except KeyError as exc:
            key = exc.args[0]
            raise ValueError(f"an entry has no {key!r} key: the document is not a witness matrix") from None
        if set(map(type, values)) - {int}:
            first = next(t for t, v in enumerate(values) if type(v) is not int) // 3
            raise ValueError(f"entry {entries[first]} must have integer i, j and witness")
        try:
            values = values.astype(np.int64)
        except OverflowError:  # kept as Python ints, so the message can name the value
            pass
        return wm._fill(values.reshape(-1, 3), one_based)

    def _fill(self, rows: np.ndarray, one_based: bool) -> "WitnessMatrix":
        """Set the (i, j, witness) rows, 1-based when one_based, into this
        matrix and return it; nothing is set if a row is rejected. The first
        row in order that lies outside the matrix or has a negative witness
        is the one reported; a later row for a cell wins."""
        n = self.n
        i, j, w = rows.T
        off = 1 if one_based else 0
        outside = (i < off) | (i >= n + off) | (j < off) | (j >= n + off)
        bad = outside | (w < off) | (w > np.iinfo(np.int64).max)
        if bad.any():
            k = int(np.argmax(bad))  # the first offending entry in document order
            where = f"entry ({i[k]}, {j[k]})"
            if outside[k]:
                raise ValueError(f"{where} lies outside an n={n} matrix")
            if w[k] < off:
                raise ValueError(f"{where} has negative witness {w[k]}")
            raise ValueError(f"{where} has witness {w[k]} outside the int64 range")
        cells = (i - off) * n + (j - off)
        if (cells[1:] <= cells[:-1]).any():  # a cell repeated, maybe: its last row wins
            cells, last = np.unique(cells[::-1], return_index=True)  # the first of each in reverse
            w = w[::-1][last]
        self._w.ravel()[cells] = w - off
        return self

    def to_csv_rows(self, one_based: bool = False) -> list[tuple[int, int, int]]:
        i, j = np.nonzero(self._w >= 0)
        off = int(one_based)
        return list(zip((i + off).tolist(), (j + off).tolist(), (self._w[i, j] + off).tolist()))


class WitnessLists:
    """Per-entry lists of distinct witnesses, sorted descending.

    Produced by the k-witness solver: entry (i, j) holds min(k, W) distinct
    witnesses where W is that entry's witness count, so the list is empty
    exactly where the Boolean product is 0. Stored as the sampling core's
    (n, n, k) ``slots``, kept as given (no copy, in their integer type):
    entry (i, j) lists the non-negative cells of slots[i, j], largest first,
    and negative cells pad the rest.
    """

    __slots__ = ("n", "k", "slots")

    def __init__(self, n: int, k: int, slots: np.ndarray):
        slots = np.asarray(slots)
        if slots.shape != (n, n, k) or slots.dtype.kind not in "iu":
            raise ValueError("slots must be an n x n x k integer array")
        self.n = n
        self.k = k
        self.slots = slots

    @classmethod
    def from_lists(cls, n: int, k: int, lists: list[list[list[int]]]) -> "WitnessLists":
        """Build from nested lists: lists[i][j] is the list of entry (i, j)."""
        if len(lists) != n or any(len(row) != n for row in lists):
            raise ValueError("lists must be n x n")
        slots = np.full((n, n, k), -1, np.int64)
        for i, row in enumerate(lists):
            for j, cell in enumerate(row):
                if len(cell) > k:
                    raise ValueError(f"the list of entry ({i}, {j}) is longer than k={k}")
                slots[i, j, : len(cell)] = cell
        return cls(n, k, slots)

    def get(self, i: int, j: int) -> list[int]:
        cells = self.slots[i, j]
        return cells[cells >= 0].tolist()

    def lengths(self) -> np.ndarray:
        return np.count_nonzero(self.slots >= 0, axis=-1)

    def validate(self) -> None:
        """Check that every list is strictly decreasing over its non-negative
        slots, one block of rows at a time; raises ValueError on violation. A
        negative slot before a non-negative one counts as disorder."""
        step = max(1, _BLOCK_ENTRIES // self.n)
        for s in range(0, self.n, step):
            block = self.slots[s : s + step]
            if ((block[..., 1:] >= 0) & (block[..., :-1] <= block[..., 1:])).any():
                raise ValueError("list not strictly decreasing")

    def to_json_dict(self, one_based: bool = False) -> dict:
        i, j = np.nonzero((self.slots >= 0).any(axis=-1))
        off = int(one_based)
        rows = zip(i.tolist(), j.tolist(), self.slots[i, j].tolist())
        entries = [{"i": r + off, "j": c + off, "witnesses": [w + off for w in ws if w >= 0]} for r, c, ws in rows]
        return {"n": self.n, "k": self.k, "entries": entries}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def product_dims(
    a: BoolMatrix, b: BoolMatrix, square: bool = False, wm: WitnessMatrix | None = None
) -> tuple[int, int]:
    """Check that a x b is defined and return (a.rows, a.cols).

    ``square`` also requires an n x n product, as every witness matrix is;
    a given ``wm`` must then have that n and witnesses below a.cols.
    """
    shapes = f"{a.rows}x{a.cols} times {b.rows}x{b.cols}"
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {shapes}")
    if (square or wm is not None) and a.rows != b.cols:
        raise ValueError(f"witness matrix requires a square product: {shapes}")
    if wm is not None:
        if wm.n != a.rows:
            raise ValueError(f"witness matrix has n={wm.n} but the product is {a.rows}x{b.cols}")
        over = np.argwhere(wm.array >= a.cols)
        if over.size:
            i, j = over[0].tolist()
            raise ValueError(f"entry ({i}, {j}) has witness {wm.array[i, j]} outside [0, {a.cols})")
    return a.rows, a.cols


def bool_product(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Boolean matrix product from float32 BLAS products over blocks of A's
    rows and of B's columns.

    A sum of nonnegative 0/1 products is positive exactly where some term
    is, whatever its rounding, so ``> 0`` is exact at any inner dimension.
    Each block, of A's rows or of whole words of B's columns, is unpacked
    into about _CHUNK_BYTES of float32.
    """
    product_dims(a, b)
    words = np.empty((a.rows, -(-b.cols // 64)), np.uint64)
    rows = max(1, _CHUNK_BYTES // (4 * a.cols))
    span = max(1, _CHUNK_BYTES // (4 * 64 * b.rows))  # words of B's columns per block
    for c in range(0, words.shape[1], span):
        part = b.words[:, c : c + span]
        bf = _unpacked(part, min(64 * part.shape[1], b.cols - 64 * c)).astype(np.float32)
        for s in range(0, a.rows, rows):
            af = _unpacked(a.words[s : s + rows], a.cols).astype(np.float32)
            words[s : s + rows, c : c + span] = _packed_words(af @ bf > 0, part.shape[1])
    return BoolMatrix(a.rows, b.cols, words)


def transpose(m: BoolMatrix) -> BoolMatrix:
    return BoolMatrix.from_dense(m.to_dense().T)


def max_witness_oracle(a: BoolMatrix, b: BoolMatrix) -> WitnessMatrix:
    """Exact maximum witnesses of a x b via per-row word scans.

    The product must be square (a.rows == b.cols). Row i's words are ANDed
    with all of B's transpose at once; the highest set bit of row j of that
    AND is the witness of entry (i, j), written into the result's own array.
    """
    n, _ = product_dims(a, b, square=True)
    bt = transpose(b).words
    top_word = bt.shape[1] - 1
    cols = np.arange(n)
    wm = WitnessMatrix(n)
    for i, row in enumerate(a.words):
        x = row & bt
        last = top_word - np.argmax(x[:, ::-1] != 0, axis=1)
        top = x[cols, last]
        wm.array[i] = np.where(top != 0, 64 * last + _top_bit(top), -1)
    return wm


def _witness_bits(
    wa: np.ndarray, wb: np.ndarray, i: np.ndarray, j: np.ndarray, lo=None, hi=None, count: int = 1
) -> np.ndarray:
    """The ``count`` highest witnesses of each entry (i[m], j[m]) in [lo[m], hi[m]).

    wa and wb are the words of A and of B's transpose, so an entry's witness
    set is the AND of row i[m] of wa with row j[m] of wb. Only the words that
    cover [lo, hi) are gathered (the whole rows when lo and hi are None), the
    bits outside the range are cleared, and each entry's top bit is read and
    cleared count times. Returns an (entries, count) int64 array, largest
    first, padded with -1.
    """
    words = wa.shape[1]
    if lo is None:
        first, x = 0, wa[i]
        x &= wb[j]
    else:
        first = lo >> 6
        at = first[:, None] + np.arange(int((((hi - 1) >> 6) - first).max(initial=0)) + 1)
        x = np.take(wa, at + (i * words)[:, None], mode="clip")  # a word past a row is masked off below
        x &= np.take(wb, at + (j * words)[:, None], mode="clip")
        x[:, 0] &= ~_LOW_BITS[lo & 63]
        x &= _LOW_BITS[np.clip(hi[:, None] - 64 * at, 0, 64)]  # the bits of each word below hi
    span = x.shape[1]
    out = np.full((x.shape[0], count), -1, np.int64)
    flat, rows = x.ravel(), np.arange(0, x.size, span)
    for slot in range(count):
        last = span - 1 - np.argmax(x[:, ::-1] != 0, axis=1) if span > 1 else 0  # the top nonzero words
        top = flat[rows + last]
        if not top.any():
            break
        bit = _top_bit(top)
        out[:, slot] = np.where(top != 0, 64 * (first + last) + bit, -1)
        if slot + 1 < count:
            flat[rows + last] = top & ~(np.uint64(1) << np.maximum(bit, 0).astype(np.uint64))
    return out


def _entry_words(a: BoolMatrix, b: BoolMatrix, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Row i of A's words and column j of B packed the same way, each as a
    (1, words) array: their AND is the witness set of entry (i, j)."""
    product_dims(a, b)
    if not (0 <= i < a.rows and 0 <= j < b.cols):
        raise IndexError(f"entry ({i}, {j}) out of range")
    column = (b.words[:, j // 64] >> np.uint64(j % 64)) & np.uint64(1)  # B[k, j] for every k
    return a.words[i : i + 1], _packed_words(column[None, :], a.words.shape[1])


def witness_mask(a: BoolMatrix, b: BoolMatrix, i: int, j: int) -> int:
    """Bitset of all witnesses of entry (i, j): bit k set iff A[i,k] = B[k,j] = 1."""
    row, column = _entry_words(a, b, i, j)
    return int.from_bytes((row[0] & column[0]).astype("<u8").tobytes(), "little")


def witness_count(a: BoolMatrix, b: BoolMatrix, i: int, j: int) -> int:
    """Number of witnesses of entry (i, j)."""
    return witness_mask(a, b, i, j).bit_count()


def rank_of(a: BoolMatrix, b: BoolMatrix, i: int, j: int, k: int) -> int:
    """Rank of witness k at entry (i, j): 1 + number of strictly greater witnesses."""
    mask = witness_mask(a, b, i, j)
    if not (0 <= k < b.rows) or not (mask >> k) & 1:
        raise ValueError(f"k={k} is not a witness of entry ({i}, {j})")
    return 1 + (mask >> (k + 1)).bit_count()


def _rank_blocks(a: BoolMatrix, b: BoolMatrix, w: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (s, ranks) for blocks of whole rows of the witness array w of
    about _BLOCK_ENTRIES entries: ranks[r, j] is the rank of w[s + r, j], -1
    where it is negative, -2 where it is not a witness.

    As in rank_of: 1 plus the popcount of the bits above k in the AND of row
    i of A with row j of B's transpose, gathered about _CHUNK_BYTES at a
    time. Witnesses must lie in [0, a.cols), which product_dims checks.
    """
    bt = transpose(b).words
    words, n = bt.shape[1], w.shape[1]
    rows = max(1, _BLOCK_ENTRIES // n)
    span = max(1, _CHUNK_BYTES // (8 * words))
    for s in range(0, w.shape[0], rows):
        block = w[s : s + rows]
        ranks = np.full(block.shape, -1, dtype=np.int64)
        given = np.flatnonzero(block >= 0)
        for t in range(0, given.size, span):
            e = given[t : t + span]  # flat ids in the block
            i, j = np.divmod(e, n)
            k = block[i, j]
            x = a.words[i + s]
            x &= bt[j]  # row m: the witness set of entry (s + i[m], j[m])
            at = x[np.arange(k.size), k // 64] >> (k % 64).astype(np.uint64)  # bit k, lowest
            above = np.bitwise_count(at >> np.uint64(1)).astype(np.int64)
            count = np.bitwise_count(x)
            count[np.arange(words) <= k[:, None] // 64] = 0  # only the words above k's word
            above += count.sum(axis=1, dtype=np.int64)
            ranks.ravel()[e] = np.where(at & np.uint64(1), 1 + above, -2)
        yield s, ranks


def witness_rank_matrix(a: BoolMatrix, b: BoolMatrix, wm: WitnessMatrix) -> np.ndarray:
    """Rank of every reported witness: -1 where absent, -2 where invalid.

    O(n^2) memory: the (n, n) ranks, filled one block of rows at a time.
    """
    product_dims(a, b, wm=wm)
    ranks = np.empty(wm.array.shape, dtype=np.int64)
    for s, block in _rank_blocks(a, b, wm.array):
        ranks[s : s + len(block)] = block
    return ranks


def random_matrix(n: int, density: float, seed: int) -> BoolMatrix:
    """n x n matrix with i.i.d. Bernoulli(density) entries, reproducible by seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    return BoolMatrix.from_dense(rng.random((n, n)) < density)


def witness_violations(a: BoolMatrix, b: BoolMatrix, wm: WitnessMatrix) -> dict:
    """Compare a witness matrix against ground truth.

    Returns the lists of three defect classes: invalid (reported k is not a
    witness), missing (product is 1 but no witness reported), spurious
    (product is 0 but a witness is reported); "ok" when all three are
    empty; and "disagreements", the number of entries that differ from the
    maximum witness matrix.
    """
    counts, lists = _check_pass(a, b, wm, listed=None)
    return {**lists, "ok": not any(lists.values()), "disagreements": counts["disagreements"]}


def _check_pass(
    a: BoolMatrix, b: BoolMatrix, wm: WitnessMatrix, max_rank: int | None = None, listed: int | None = 10
) -> tuple[dict, dict]:
    """(counts, lists) of the defects of wm, from one rank pass over blocks
    of rows, each reading the product's words of its own rows only.

    counts has the "invalid", "missing" and "spurious" entries of
    ``witness_violations``, its "disagreements" and, with a max_rank,
    "rank_violations": the witnesses that are none or rank above max_rank.
    lists has the first ``listed`` (None: all) entries of each class in
    row-major order, as witness_violations lists them. An entry differs
    from the maximum witness, the one of rank 1, exactly when its rank is
    not 1 and it is in the product or holds anything but -1.
    """
    product_dims(a, b, wm=wm)
    product = bool_product(a, b).words
    w = wm.array
    counts = dict.fromkeys(("invalid", "missing", "spurious", "disagreements"), 0)
    if max_rank is not None:
        counts["rank_violations"] = 0
    lists: dict[str, list] = {"invalid": [], "missing": [], "spurious": []}
    for s, ranks in _rank_blocks(a, b, w):
        block = w[s : s + len(ranks)]
        present = _unpacked(product[s : s + len(ranks)], wm.n).view(bool)
        given = block >= 0
        counts["disagreements"] += int(np.count_nonzero((ranks != 1) & (present | (block != -1))))
        if max_rank is not None:
            counts["rank_violations"] += int(np.count_nonzero((ranks > max_rank) | (ranks == -2)))
        masks = {"invalid": (ranks == -2) & present, "missing": ~given & present, "spurious": given & ~present}
        for key, mask in masks.items():
            count = int(np.count_nonzero(mask))
            counts[key] += count
            room = None if listed is None else listed - len(lists[key])
            if count and room != 0:
                at = np.argwhere(mask)[:room]
                at[:, 0] += s
                lists[key] += map(tuple, at.tolist())
    lists["invalid"] = [(i, j, int(w[i, j])) for i, j in lists["invalid"]]
    return counts, lists
