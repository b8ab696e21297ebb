"""Bit-packed Boolean matrices and exact brute-force witness oracles.

A matrix is stored as one read-only (rows, ceil(cols/64)) array of
little-endian uint64 words: bit k of row i is bit k % 64 of word k // 64 of
that row, the layout of the binary matrix file. This module is the only one
that knows the layout; every parser, solver and check reads the same words.
The witness set of entry (i, j) is then one AND of row i of A with row j of
B's transpose, and its maximum witness is the highest set bit of that AND.
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
from typing import Iterable, Sequence

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

# highest set bit of each byte value; -1 for zero
_TOP_BIT = np.array([x.bit_length() - 1 for x in range(256)], np.int64)
# the low k bits of a word, k = 0..64
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], np.uint64)
# bytes of one (entries, words) block of gathered words in the rank check
_CHUNK_BYTES = 1 << 20


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


def _int_of(words: np.ndarray) -> int:
    """One row of words as a Python-int bitset: bit k is bit k of the row."""
    return int.from_bytes(words.astype("<u8").tobytes(), "little")


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
    def from_strings(cls, rows: Sequence[str]) -> "BoolMatrix":
        """Build from strings of '0'/'1'; leftmost character is column 0."""
        return cls.from_rows([np.array(list(row), "U1") == "1" for row in rows])

    @classmethod
    def from_bitsets(cls, cols: int, bitsets: Sequence[int]) -> "BoolMatrix":
        """Build from one Python-int bitset per row: bit k of bitsets[i] is entry (i, k)."""
        stride = -(-cols // 64) * 8
        buf = b"".join(x.to_bytes(stride, "little") for x in bitsets)
        return cls(len(bitsets), cols, np.frombuffer(buf, "<u8").reshape(len(bitsets), -1))

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
        return np.unpackbits(self.words.view(np.uint8), axis=1, count=self.cols, bitorder="little")

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

    def present_mask(self) -> np.ndarray:
        return self._w >= 0

    def present_count(self) -> int:
        return int((self._w >= 0).sum())

    def agreement(self, other: "WitnessMatrix") -> float:
        """Fraction of entries (including absent ones) that match exactly."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return float((self._w == other._w).mean())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WitnessMatrix)
            and self.n == other.n
            and bool(np.array_equal(self._w, other._w))
        )

    def __hash__(self) -> int:  # mutable content; not hashable
        raise TypeError("WitnessMatrix is not hashable")

    def columns(self, one_based: bool = False) -> dict[str, np.ndarray]:
        """The present entries in row-major order as "i", "j", "witness" arrays."""
        off = int(one_based)
        i, j = np.nonzero(self._w >= 0)
        return {"i": i + off, "j": j + off, "witness": self._w[i, j] + off}

    def to_json_dict(self, one_based: bool = False) -> dict:
        return {"n": self.n, "entries": _dict_rows(self.columns(one_based))}

    @classmethod
    def from_json_dict(
        cls, obj: dict, one_based: bool = False, expect_n: int | None = None
    ) -> "WitnessMatrix":
        """Read {"n": n, "entries": [{"i", "j", "witness"}, ...]}; later entries win.

        Every number must be an int (not a bool). "entries" may also be the
        (count, 3) int64 array of (i, j, witness) rows that
        ``io.read_witness_report`` decodes from a canonical report; both
        forms go through ``_fill``. A given ``expect_n`` (the product's
        n) is checked before anything of size n is allocated.
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
        if isinstance(entries, np.ndarray):
            return cls(n)._fill(entries, one_based)
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
        empty matrix and return it. The first row in order that lies outside
        the matrix or has a negative witness is the one reported; a later
        row for a cell wins."""
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
        # an entry repeated for one cell: the last one wins
        last = np.full(n * n, -1)
        np.maximum.at(last, (i - off) * n + (j - off), np.arange(len(rows)))
        cells = np.flatnonzero(last >= 0)
        self._w.ravel()[cells] = w[last[cells]] - off
        return self

    def to_csv_rows(self, one_based: bool = False) -> list[tuple[int, int, int]]:
        return list(zip(*(c.tolist() for c in self.columns(one_based).values())))


def _dict_rows(columns: dict[str, np.ndarray], list_key=None, lengths=None, flat=None) -> list[dict]:
    """One dict per row of equal-length columns, keys in columns order; with
    list_key, row r also gets the next lengths[r] values of flat."""
    rows = [dict(zip(columns, vals)) for vals in zip(*(c.tolist() for c in columns.values()))]
    if list_key is not None:
        ends, flat = np.cumsum(lengths).tolist(), flat.tolist()
        for row, start, end in zip(rows, [0, *ends], ends):
            row[list_key] = flat[start:end]
    return rows


class WitnessLists:
    """Per-entry lists of distinct witnesses, sorted descending.

    Produced by the k-witness solver: entry (i, j) holds min(k, W) distinct
    witnesses where W is that entry's witness count, so the list is empty
    exactly where the Boolean product is 0. Stored flat: the (n, n) list
    lengths and one array of every witness in row-major order.
    """

    __slots__ = ("n", "k", "_lengths", "witnesses", "_starts")

    def __init__(self, n: int, k: int, lengths: np.ndarray, witnesses: np.ndarray):
        lengths = np.asarray(lengths, dtype=np.int64)
        witnesses = np.asarray(witnesses, dtype=np.int64)
        if lengths.shape != (n, n) or (lengths < 0).any():
            raise ValueError("lengths must be an n x n array of nonnegative counts")
        if witnesses.shape != (int(lengths.sum()),):
            raise ValueError("witnesses must hold lengths.sum() values")
        self.n = n
        self.k = k
        self._lengths = lengths
        self.witnesses = witnesses
        self._starts = np.cumsum(lengths.ravel()) - lengths.ravel()

    @classmethod
    def from_lists(cls, n: int, k: int, lists: list[list[list[int]]]) -> "WitnessLists":
        """Build from nested lists: lists[i][j] is the list of entry (i, j)."""
        if len(lists) != n or any(len(row) != n for row in lists):
            raise ValueError("lists must be n x n")
        cells = list(chain.from_iterable(lists))
        lengths = np.fromiter(map(len, cells), np.int64, n * n).reshape(n, n)
        return cls(n, k, lengths, np.fromiter(chain.from_iterable(cells), np.int64, int(lengths.sum())))

    def get(self, i: int, j: int) -> list[int]:
        start = self._starts[i * self.n + j]
        return self.witnesses[start : start + self._lengths[i, j]].tolist()

    def lengths(self) -> np.ndarray:
        return self._lengths.copy()

    def validate(self) -> tuple[np.ndarray, np.ndarray]:
        """Check length, sortedness and distinctness; raises ValueError on violation.

        The first offending list in row-major order decides the error, and a
        list longer than k is reported as such. Returns what was checked:
        the (n, n) lengths and every witness in row-major order.
        """
        lengths, wits = self._lengths.ravel(), self.witnesses
        ends = np.cumsum(lengths)
        first = np.zeros(wits.size, dtype=bool)
        first[(ends - lengths)[lengths > 0]] = True
        # witness t breaks the order when it is not first in its list and t-1 is not above it
        rising = np.flatnonzero((wits[1:] >= wits[:-1]) & ~first[1:]) + 1
        too_long = np.flatnonzero(lengths > self.k)
        bad_order = int(np.searchsorted(ends, rising[0], side="right")) if rising.size else lengths.size
        if too_long.size and too_long[0] <= bad_order:
            raise ValueError("list longer than k")
        if rising.size:
            raise ValueError("list not strictly decreasing")
        return self.lengths(), wits

    def columns(self, one_based: bool = False) -> tuple:
        """The nonempty entries in row-major order: their "i" and "j" arrays,
        the list key "witnesses", their list lengths and all their
        witnesses, flat (the arguments of ``io.RowBlock``)."""
        off = int(one_based)
        i, j = np.nonzero(self._lengths)
        return {"i": i + off, "j": j + off}, "witnesses", self._lengths[i, j], self.witnesses + off

    def to_json_dict(self, one_based: bool = False) -> dict:
        return {"n": self.n, "k": self.k, "entries": _dict_rows(*self.columns(one_based))}


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
    """Boolean matrix product from one float32 BLAS product.

    A sum of nonnegative 0/1 products is positive exactly where some term
    is, whatever its rounding, so ``> 0`` is exact at any inner dimension.
    """
    product_dims(a, b)
    return BoolMatrix.from_dense(a.to_dense().astype(np.float32) @ b.to_dense().astype(np.float32) > 0)


def transpose(m: BoolMatrix) -> BoolMatrix:
    return BoolMatrix.from_dense(m.to_dense().T)


def max_witness_oracle(a: BoolMatrix, b: BoolMatrix) -> WitnessMatrix:
    """Exact maximum witnesses of a x b via per-row word scans.

    The product must be square (a.rows == b.cols). Row i's words are ANDed
    with all of B's transpose at once; the highest set bit of row j of that
    AND is the witness of entry (i, j).
    """
    n, _ = product_dims(a, b, square=True)
    bt = transpose(b).words
    top_word = bt.shape[1] - 1
    cols = np.arange(n)
    w = np.empty((n, n), dtype=np.int64)
    for i, row in enumerate(a.words):
        x = row & bt
        last = top_word - np.argmax(x[:, ::-1] != 0, axis=1)
        top = x[cols, last]
        w[i] = np.where(top != 0, 64 * last + _top_bit(top), -1)
    return WitnessMatrix(n, w)


def witness_mask(a: BoolMatrix, b: BoolMatrix, i: int, j: int) -> int:
    """Bitset of all witnesses of entry (i, j): bit k set iff A[i,k] = B[k,j] = 1."""
    product_dims(a, b)
    if not (0 <= i < a.rows and 0 <= j < b.cols):
        raise IndexError(f"entry ({i}, {j}) out of range")
    column = (b.words[:, j // 64] >> np.uint64(j % 64)) & np.uint64(1)  # B[k, j] for every k
    return _int_of(a.words[i] & _packed_words(column[None, :], a.words.shape[1])[0])


def witness_count(a: BoolMatrix, b: BoolMatrix, i: int, j: int) -> int:
    """Number of witnesses of entry (i, j)."""
    return witness_mask(a, b, i, j).bit_count()


def rank_of(a: BoolMatrix, b: BoolMatrix, i: int, j: int, k: int) -> int:
    """Rank of witness k at entry (i, j): 1 + number of strictly greater witnesses."""
    mask = witness_mask(a, b, i, j)
    if not (0 <= k < b.rows) or not (mask >> k) & 1:
        raise ValueError(f"k={k} is not a witness of entry ({i}, {j})")
    return 1 + (mask >> (k + 1)).bit_count()


def _ranks(a: BoolMatrix, b: BoolMatrix, w: np.ndarray) -> np.ndarray:
    """Rank of each witness w[i, j]: -1 where w < 0, -2 where it is not a witness.

    As in rank_of: 1 plus the popcount of the bits above k in the AND of row i
    of A with row j of B's transpose, gathered by blocks of rows of at most
    _CHUNK_BYTES. Witnesses must lie in [0, a.cols), which product_dims checks.
    """
    bt = transpose(b).words
    words = bt.shape[1]
    ranks = np.full(w.shape, -1, dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (8 * words * w.shape[1]))
    for s in range(0, w.shape[0], step):
        i, j = np.nonzero(w[s : s + step] >= 0)
        i += s
        k = w[i, j]
        x = a.words[i]
        x &= bt[j]  # row m: the witness set of entry (i[m], j[m])
        at = x[np.arange(k.size), k // 64] >> (k % 64).astype(np.uint64)  # bit k, lowest
        above = np.bitwise_count(at >> np.uint64(1)).astype(np.int64)
        count = np.bitwise_count(x)
        count[np.arange(words) <= k[:, None] // 64] = 0  # only the words above k's word
        above += count.sum(axis=1, dtype=np.int64)
        ranks[i, j] = np.where(at & np.uint64(1), 1 + above, -2)
    return ranks


def witness_rank_matrix(a: BoolMatrix, b: BoolMatrix, wm: WitnessMatrix) -> np.ndarray:
    """Rank of every reported witness: -1 where absent, -2 where invalid.

    O(n^2) memory: one packed-row AND per reported entry.
    """
    product_dims(a, b, wm=wm)
    return _ranks(a, b, wm.array)


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
    return _violations_and_ranks(a, b, wm)[0]


def _violations_and_ranks(a: BoolMatrix, b: BoolMatrix, wm: WitnessMatrix) -> tuple[dict, np.ndarray]:
    """witness_violations(a, b, wm) and witness_rank_matrix(a, b, wm) from one rank pass.

    The maximum witness is the witness of rank 1, so an entry differs from
    it exactly when its rank is not 1 and it is either in the product or
    holds anything but the absence marker -1.
    """
    product_dims(a, b, wm=wm)
    present = bool_product(a, b).to_dense().astype(bool)
    w = wm.array
    ranks = _ranks(a, b, w)

    def entries(mask: np.ndarray) -> list[tuple[int, ...]]:
        return [tuple(e) for e in np.argwhere(mask).tolist()]  # row-major, Python ints

    invalid = [(i, j, int(w[i, j])) for i, j in entries((ranks == -2) & present)]
    missing = entries((w < 0) & present)
    spurious = entries((w >= 0) & ~present)
    report = {
        "invalid": invalid,
        "missing": missing,
        "spurious": spurious,
        "ok": not (invalid or missing or spurious),
        "disagreements": int(((ranks != 1) & (present | (w != -1))).sum()),
    }
    return report, ranks
