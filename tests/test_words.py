"""Property tests: every kernel on BoolMatrix words against the scalar references.

Hypothesis draws p x q by q x r factor pairs with q, and r where the
product need not be square, on both sides of the 64-bit word boundaries,
so every kernel sees a last word that is full, one bit wide or one bit
short. The runs are derandomized, so the examples are the same on every
run.
"""
from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maxwit.boolmat import (
    BoolMatrix,
    WitnessMatrix,
    _witness_bits,
    bool_product,
    max_witness_oracle,
    rank_of,
    transpose,
    witness_count,
    witness_mask,
    witness_rank_matrix,
    witness_violations,
)
from maxwit.io import load_matrix, save_matrix_binary, save_matrix_text
from maxwit.witness import exact_max_witness_strips

from scalar_oracles import dense_product, max_witness_dense, packed_words_row, witness_list_entry

INNER = (1, 63, 64, 65, 127, 128, 129)
OUTER = (1, 2, 5, 63, 64, 65, 129)
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@st.composite
def factor_pairs(draw, square: bool = False):
    """(p x q, q x r) 0/1 lists; p == r, at most 6, when ``square``."""
    q = draw(st.sampled_from(INNER))
    p = draw(st.integers(1, 6 if square else 3))
    r = p if square else draw(st.sampled_from(OUTER))
    fill = draw(st.sampled_from((False, True)))  # mostly zeros or mostly ones
    a = draw(arrays(np.bool_, (p, q), elements=st.booleans(), fill=st.just(fill)))
    b = draw(arrays(np.bool_, (q, r), elements=st.booleans(), fill=st.just(fill)))
    return a.astype(int).tolist(), b.astype(int).tolist()


def _mask(wits: list[int]) -> int:
    return sum(1 << k for k in wits)


@SETTINGS
@given(factor_pairs())
def test_words_products_and_masks_match_the_scalar_references(ab):
    da, db = ab
    a, b = BoolMatrix.from_rows(da), BoolMatrix.from_rows(db)
    q = len(db)
    assert a.words.tolist() == [packed_words_row(row, -(-q // 64)) for row in da]
    assert a.to_dense().tolist() == da and b.to_dense().tolist() == db
    assert bool_product(a, b).to_dense().tolist() == dense_product(da, db)
    assert transpose(b).to_dense().tolist() == [list(col) for col in zip(*db)]
    for i in range(len(da)):
        for j in range(len(db[0])):
            wits = witness_list_entry(da, db, i, j)
            assert witness_mask(a, b, i, j) == _mask(wits)
            assert witness_count(a, b, i, j) == len(wits)
            for rank in {1, (len(wits) + 1) // 2, len(wits)} if wits else ():  # top, middle and last
                assert rank_of(a, b, i, j, wits[rank - 1]) == rank


@SETTINGS
@given(factor_pairs())
def test_matrix_files_round_trip(ab):
    with tempfile.TemporaryDirectory() as tmp:
        for rows in ab:
            m = BoolMatrix.from_rows(rows)
            for save in (save_matrix_text, save_matrix_binary):
                path = Path(tmp) / save.__name__
                save(path, m)
                back = load_matrix(path)
                assert back == m and back.to_dense().tolist() == rows


@SETTINGS
@given(factor_pairs(square=True), st.data())
def test_witness_kernels_and_checks_match_the_scalar_references(ab, data):
    da, db = ab
    a, b = BoolMatrix.from_rows(da), BoolMatrix.from_rows(db)
    n, q = len(da), len(db)
    best = max_witness_dense(da, db)
    assert max_witness_oracle(a, b).array.tolist() == best
    ell = data.draw(st.integers(1, q), label="ell")
    assert exact_max_witness_strips(a, b, ell).array.tolist() == best

    # the witness-bit kernel: each entry's count highest witnesses in [lo, hi), padded with -1
    i, j = np.divmod(np.arange(n * n), n)
    lo, hi = np.zeros(n * n, np.int64), np.zeros(n * n, np.int64)
    for m in range(n * n):
        lo[m] = data.draw(st.sampled_from([c for c in (0, 63, 64, 65, 127, 128) if c < q]) | st.integers(0, q - 1))
        hi[m] = data.draw(st.sampled_from([c for c in (64, 65, 128, 129, q) if lo[m] < c <= q])
                          | st.integers(lo[m] + 1, q))
    lists = [witness_list_entry(da, db, i[m], j[m]) for m in range(n * n)]
    for ranged in (False, True):
        wits = [[k for k in ws if lo[m] <= k < hi[m]] if ranged else ws for m, ws in enumerate(lists)]
        count = data.draw(st.integers(1, max(map(len, wits)) + 1), label="count")
        bounds = (lo, hi) if ranged else (None, None)
        got = _witness_bits(a.words, transpose(b).words, i, j, *bounds, count)
        assert got.tolist() == [(ws + [-1] * count)[:count] for ws in wits]

    # each entry reports some witness, a non-witness, or nothing
    w = np.full((n, n), -1, np.int64)
    want_ranks = np.full((n, n), -1, np.int64)
    invalid, missing, spurious = [], [], []
    for i in range(n):
        for j in range(n):
            wits = witness_list_entry(da, db, i, j)
            others = [k for k in range(q) if k not in wits]
            pick = data.draw(st.integers(0, 2))
            if pick == 0 and wits:
                rank = data.draw(st.integers(1, len(wits)))
                w[i, j], want_ranks[i, j] = wits[rank - 1], rank
            elif pick == 1 and others:
                w[i, j], want_ranks[i, j] = data.draw(st.sampled_from(others)), -2
                if wits:
                    invalid.append((i, j, int(w[i, j])))
                else:
                    spurious.append((i, j))
            elif wits:
                missing.append((i, j))
    wm = WitnessMatrix(n, w)
    assert witness_rank_matrix(a, b, wm).tolist() == want_ranks.tolist()
    rep = witness_violations(a, b, wm)
    assert (rep["invalid"], rep["missing"], rep["spurious"]) == (invalid, missing, spurious)
    assert rep["ok"] == (not (invalid or missing or spurious))
    assert rep["disagreements"] == sum(w[i, j] != best[i][j] for i in range(n) for j in range(n))
