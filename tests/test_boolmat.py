"""Bit-packed matrices and brute-force witness oracles vs scalar loops."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from maxwit import boolmat
from maxwit.boolmat import (
    BoolMatrix,
    WitnessLists,
    WitnessMatrix,
    bool_product,
    max_witness_oracle,
    random_matrix,
    rank_of,
    transpose,
    witness_count,
    witness_mask,
    witness_rank_matrix,
    witness_violations,
)
from maxwit.io import RowBlock
from maxwit.rng import np_stream

from scalar_oracles import (
    dense_product,
    max_witness_dense,
    rank_of_entry,
    witness_count_entry,
    witness_list_entry,
)


def _dense(m: BoolMatrix) -> list[list[int]]:
    return m.to_dense().astype(int).tolist()


def test_product_hand_example():
    a = BoolMatrix.from_rows([[1, 1], [0, 1]])
    b = BoolMatrix.from_rows([[1, 0], [1, 1]])
    c = bool_product(a, b)
    assert _dense(c) == [[1, 1], [1, 1]]


def test_product_identity_and_zeros():
    for n in (1, 3, 8, 65):
        a = random_matrix(n, 0.4, seed=n)
        assert bool_product(a, BoolMatrix.identity(n)) == a
        assert bool_product(BoolMatrix.identity(n), a) == a
        z = bool_product(a, BoolMatrix.zeros(n))
        assert not z.to_dense().any()


def test_product_matches_scalar_loops(monkeypatch):
    for seed in range(10):
        rng = np_stream(seed, 900)
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 40))
        r = int(rng.integers(1, 40))
        d1, d2 = rng.random(2)
        a = BoolMatrix.from_dense(rng.random((n, m)) < d1)
        b = BoolMatrix.from_dense(rng.random((m, r)) < d2)
        want = dense_product(_dense(a), _dense(b))
        # one row per block, three rows per block, every row in one block
        for chunk in (1, 3 * 4 * max(m, r), 1 << 20):
            monkeypatch.setattr(boolmat, "_CHUNK_BYTES", chunk)
            assert _dense(bool_product(a, b)) == want, (seed, chunk)


def test_product_column_blocks_match_scalar_loops(monkeypatch):
    # B's columns span several words, so blocks of one word and of a few
    # words meet the padding of B's last word
    for seed in range(4):
        rng = np_stream(seed, 901)
        n, m, r = (int(x) for x in rng.integers(1, 200, 3))
        a = BoolMatrix.from_dense(rng.random((n, m)) < 0.1)
        b = BoolMatrix.from_dense(rng.random((m, r)) < 0.1)
        want = dense_product(_dense(a), _dense(b))
        for chunk in (1, 4 * 64 * m, 3 * 4 * 64 * m + 1):
            monkeypatch.setattr(boolmat, "_CHUNK_BYTES", chunk)
            assert _dense(bool_product(a, b)) == want, (seed, chunk)
    # a narrow B unpacks only its own columns: 64 float32 columns of 2^15
    # rows would alone take 8 MiB
    monkeypatch.undo()
    a, b = BoolMatrix.ones(2, 1 << 15), BoolMatrix.ones(1 << 15, 2)
    tracemalloc.start()
    try:
        assert bool_product(a, b) == BoolMatrix.ones(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak / 2**20


def test_product_memory_is_one_float_factor_plus_blocks():
    # at n=1024 the float32 copies of both factors and the float32 product
    # took 12.0 MiB of tracemalloc; B's copy and 1 MiB row blocks took 7.1;
    # 1 MiB blocks of both A's rows and B's columns take 3.4
    a = random_matrix(1024, 0.01, seed=71)
    b = random_matrix(1024, 0.01, seed=72)
    tracemalloc.start()
    try:
        bool_product(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20, peak / 2**20


def test_product_rejects_dimension_mismatch():
    a = BoolMatrix.zeros(2, 3)
    b = BoolMatrix.zeros(4, 2)
    with pytest.raises(ValueError):
        bool_product(a, b)


def test_padding_must_stay_zero():
    with pytest.raises(ValueError, match="row 0 has bits beyond column 1"):
        BoolMatrix(1, 2, np.array([[4]], np.uint64))  # bit 2 is outside a 2-column row
    words = np.zeros((2, 2), np.uint64)
    words[1, 1] = 1 << 6  # bit 70 of a 65-column row
    with pytest.raises(ValueError, match="row 1 has bits beyond column 64"):
        BoolMatrix(2, 65, words)
    words[1, 1] = 1  # bit 64, the last column, is fine
    assert BoolMatrix(2, 65, words).get(1, 64) == 1
    with pytest.raises(ValueError, match="shape"):
        BoolMatrix(1, 2, np.zeros((1, 2), np.uint64))  # two words for a 2-column row


def test_transpose_involution_and_product_identity():
    for seed in range(6):
        a = random_matrix(17, 0.3, seed=seed)
        b = random_matrix(17, 0.6, seed=seed + 100)
        assert transpose(transpose(a)) == a
        # (A x B)^T = B^T x A^T
        assert transpose(bool_product(a, b)) == bool_product(transpose(b), transpose(a))


def test_from_rows_and_str_roundtrip():
    rows = ["10110", "01001", "11111"]
    m = BoolMatrix.from_rows([[int(c) for c in row] for row in rows])
    assert str(m).splitlines() == rows
    assert m.get(0, 0) == 1 and m.get(0, 1) == 0 and m.get(2, 4) == 1
    with pytest.raises(IndexError):
        m.get(3, 0)


def test_from_dense_roundtrip_widths():
    # exercise widths around byte and word boundaries
    for cols in (1, 7, 8, 9, 63, 64, 65, 130):
        rng = np_stream(cols, 901)
        dense = (rng.random((5, cols)) < 0.5).astype(np.uint8)
        m = BoolMatrix.from_dense(dense)
        assert m.cols == cols
        assert np.array_equal(m.to_dense(), dense)


def test_random_matrix_density_extremes_and_concentration():
    assert random_matrix(20, 0.0, seed=1) == BoolMatrix.zeros(20)
    assert random_matrix(20, 1.0, seed=1) == BoolMatrix.ones(20)
    n = 128
    for density in (0.1, 0.5, 0.9):
        m = random_matrix(n, density, seed=7)
        ones = int(m.to_dense().sum())
        sigma = (n * n * density * (1 - density)) ** 0.5
        assert abs(ones - n * n * density) <= 4 * sigma
    assert random_matrix(32, 0.5, seed=3) == random_matrix(32, 0.5, seed=3)


def test_max_witness_oracle_matches_scalar_loops():
    for seed in range(8):
        for density in (0.01, 0.1, 0.5, 0.9):
            n = 24 if seed % 2 else 33
            a = random_matrix(n, density, seed=seed)
            b = random_matrix(n, density, seed=seed + 50)
            got = max_witness_oracle(a, b).array.tolist()
            assert got == max_witness_dense(_dense(a), _dense(b))


def test_max_witness_oracle_requires_square_product():
    a = BoolMatrix.ones(2, 3)
    b = BoolMatrix.ones(3, 4)
    with pytest.raises(ValueError):
        max_witness_oracle(a, b)


def test_witness_mask_count_rank_vs_scalar():
    a = random_matrix(20, 0.4, seed=11)
    b = random_matrix(20, 0.4, seed=12)
    da, db = _dense(a), _dense(b)
    for i in range(20):
        for j in range(20):
            mask = witness_mask(a, b, i, j)
            assert witness_count(a, b, i, j) == witness_count_entry(da, db, i, j)
            k = mask.bit_length() - 1
            if mask:
                assert rank_of(a, b, i, j, k) == 1
                low = (mask & -mask).bit_length() - 1
                assert rank_of(a, b, i, j, low) == rank_of_entry(da, db, i, j, low)


def test_rank_of_rejects_non_witness():
    a = BoolMatrix.from_rows([[1, 0], [0, 0]])
    b = BoolMatrix.from_rows([[1, 0], [0, 0]])
    assert rank_of(a, b, 0, 0, 0) == 1
    with pytest.raises(ValueError):
        rank_of(a, b, 0, 0, 1)
    with pytest.raises(ValueError):
        rank_of(a, b, 1, 1, 0)


def test_witness_matrix_json_csv_roundtrip():
    wm = WitnessMatrix(3)
    wm.set(0, 1, 2)
    wm.set(2, 2, 0)
    doc = wm.to_json_dict()
    assert doc == {"n": 3, "entries": [{"i": 0, "j": 1, "witness": 2}, {"i": 2, "j": 2, "witness": 0}]}
    assert WitnessMatrix.from_json_dict(doc) == wm
    doc1 = wm.to_json_dict(one_based=True)
    assert doc1["entries"][0] == {"i": 1, "j": 2, "witness": 3}
    assert WitnessMatrix.from_json_dict(doc1, one_based=True) == wm
    assert wm.to_csv_rows(one_based=True) == [(1, 2, 3), (3, 3, 1)]
    assert int((wm.array >= 0).sum()) == 2
    # a cell listed twice takes its last entry, whatever the order of cells
    doc["entries"] = [{"i": 0, "j": 1, "witness": 0}, *doc["entries"], {"i": 2, "j": 2, "witness": 1}]
    assert WitnessMatrix.from_json_dict(doc).array.tolist() == [[-1, 2, -1], [-1, -1, -1], [-1, -1, 1]]


def test_witness_matrix_agreement_and_hash():
    u = WitnessMatrix(2)
    v = WitnessMatrix(2)
    assert (u.array == v.array).mean() == 1.0
    v.set(0, 0, 1)
    assert (u.array == v.array).mean() == 0.75
    assert u != v
    with pytest.raises(TypeError):
        hash(u)


def test_witness_lists_validate():
    good = WitnessLists.from_lists(2, 2, [[[3, 1], []], [[2], [0]]])
    good.validate()
    assert good.lengths().tolist() == [[2, 0], [1, 1]]
    # a list that rises across its neighbour's boundary is still fine
    WitnessLists.from_lists(2, 2, [[[1], [2]], [[3], [4]]]).validate()
    for lists, k in [
        ([[[1, 2]]], 2),
        ([[[2, 2]]], 2),
        ([[[1], [2, 2]], [[3, 2], []]], 2),
        ([[[], [3]], [[], [9, 9, 1]]], 3),
    ]:
        with pytest.raises(ValueError, match="not strictly decreasing"):
            WitnessLists.from_lists(len(lists), k, lists).validate()
    # a list longer than k cannot be stored
    for lists, k in [([[[5, 3, 1]]], 1), ([[[], [3, 2, 1]], [[1, 1], []]], 2)]:
        with pytest.raises(ValueError, match="longer than k"):
            WitnessLists.from_lists(len(lists), k, lists)


@pytest.mark.parametrize("step", [1, 2, 1 << 15])
def test_witness_lists_validate_every_block(monkeypatch, step):
    # each block of rows is checked, the last one too; a gap counts as disorder
    monkeypatch.setattr("maxwit.boolmat._BLOCK_ENTRIES", step)
    slots = np.full((3, 3, 3), -1, np.int8)
    slots[0, 0, :2] = [2, 1]
    WitnessLists(3, 3, slots).validate()
    for cells in ([-1, 4, -1], [4, -1, 2], [0, 1, -1], [-1, -1, 0]):
        bad = slots.copy()
        bad[2, 2] = cells
        with pytest.raises(ValueError, match="not strictly decreasing"):
            WitnessLists(3, 3, bad).validate()


def test_witness_lists_keep_the_solver_slots():
    lists = [[[3, 1], [], [2]], [[], [], []], [[0], [4, 2, 1], []]]
    wl = WitnessLists.from_lists(3, 3, lists)
    assert [[wl.get(i, j) for j in range(3)] for i in range(3)] == lists
    assert wl.lengths().tolist() == [[2, 0, 1], [0, 0, 0], [1, 3, 0]]
    assert wl.slots[2, 1].tolist() == [4, 2, 1] and wl.slots[0, 0].tolist() == [3, 1, -1]
    same = WitnessLists(3, 3, wl.slots)
    assert same.slots is wl.slots  # kept as given, not copied
    entries = [(e["i"], e["j"], e["witnesses"]) for e in wl.to_json_dict()["entries"]]
    assert entries == [(0, 0, [3, 1]), (0, 2, [2]), (2, 0, [0]), (2, 1, [4, 2, 1])]
    # one-based: the offset goes to the witnesses only, the padding stays negative
    ((cols, cells),) = RowBlock(("i", "j"), {}, 1, "witnesses", wl.slots).chunks()
    assert cols["i"].tolist() == [1, 1, 3, 3] and cols["j"].tolist() == [1, 3, 1, 2]
    assert cells.tolist() == [[4, 2, -1], [3, -1, -1], [1, -1, -1], [5, 3, 2]]
    assert wl.to_json_dict(one_based=True)["entries"][-1] == {"i": 3, "j": 2, "witnesses": [5, 3, 2]}
    for bad in (
        lambda: WitnessLists(2, 2, np.zeros((2, 3, 2), np.int64)),
        lambda: WitnessLists(1, 2, np.zeros((1, 1, 2))),
        lambda: WitnessLists(1, 2, np.zeros((1, 1), np.int64)),
        lambda: WitnessLists.from_lists(2, 2, [[[1], []]]),
    ):
        with pytest.raises(ValueError):
            bad()


def test_witness_violations_classes():
    a = random_matrix(12, 0.3, seed=21)
    b = random_matrix(12, 0.3, seed=22)
    wm = max_witness_oracle(a, b)
    assert witness_violations(a, b, wm)["ok"]

    # deterministic corruption: report a k with A[i,k] = 0
    arr = wm.array.copy()
    ii, jj = np.nonzero(arr >= 0)
    i, j = int(ii[0]), int(jj[0])
    zero_k = next(k for k in range(12) if not a.get(i, k))
    bad = WitnessMatrix(12, arr)
    bad.set(i, j, zero_k)
    rep = witness_violations(a, b, bad)
    assert rep["invalid"] == [(i, j, zero_k)] and not rep["ok"]

    gone = WitnessMatrix(12, arr)
    gone.set(i, j, None)
    assert witness_violations(a, b, gone)["missing"] == [(i, j)]

    zi, zj = [(x, y) for x in range(12) for y in range(12) if arr[x, y] < 0][0]
    extra = WitnessMatrix(12, arr)
    extra.set(zi, zj, 0)
    assert witness_violations(a, b, extra)["spurious"] == [(zi, zj)]


@pytest.mark.parametrize("n, q", [(1, 1), (1, 7), (5, 3), (4, 9), (12, 12), (9, 70)])
def test_rank_checks_match_scalar_ranks(n, q):
    rng = np_stream(n, q)
    for density in (0.2, 0.6):
        a = BoolMatrix.from_dense(rng.random((n, q)) < density)
        b = BoolMatrix.from_dense(rng.random((q, n)) < density)
        da, db = _dense(a), _dense(b)
        w = np.full((n, n), -1, dtype=np.int64)
        want = np.full((n, n), -1, dtype=np.int64)
        invalid, missing, spurious = [], [], []
        for i in range(n):
            for j in range(n):
                wits = witness_list_entry(da, db, i, j)
                others = [k for k in range(q) if k not in wits]
                pick = rng.integers(3)
                if pick == 0 and wits:  # any witness, not only the maximum
                    w[i, j] = wits[rng.integers(len(wits))]
                    want[i, j] = rank_of_entry(da, db, i, j, int(w[i, j]))
                elif pick == 1 and others:
                    w[i, j] = others[rng.integers(len(others))]
                    want[i, j] = -2
                    if wits:
                        invalid.append((i, j, int(w[i, j])))
                    else:
                        spurious.append((i, j))
                elif wits:
                    missing.append((i, j))
        wm = WitnessMatrix(n, w)
        assert witness_rank_matrix(a, b, wm).tolist() == want.tolist()
        rep = witness_violations(a, b, wm)
        assert (rep["invalid"], rep["missing"], rep["spurious"]) == (invalid, missing, spurious)
        best = max_witness_dense(da, db)
        assert rep["disagreements"] == sum(w[i, j] != best[i][j] for i in range(n) for j in range(n))

        w[n - 1, 0] = q  # one past the inner dimension
        for check in (witness_rank_matrix, witness_violations):
            with pytest.raises(ValueError, match=rf"entry \({n - 1}, 0\) has witness {q} outside"):
                check(a, b, WitnessMatrix(n, w))


def test_check_pass_counts_and_lists_across_blocks(monkeypatch):
    """The check pass gives the counts of witness_violations and its first
    entries, whatever the blocks of rows it runs over."""
    rng = np_stream(5, 902)
    a = BoolMatrix.from_dense(rng.random((30, 70)) < 0.05)
    b = BoolMatrix.from_dense(rng.random((70, 30)) < 0.05)
    w = max_witness_oracle(a, b).array.copy()
    w[rng.random(w.shape) < 0.2] = -1  # missing where the product is 1
    w[rng.random(w.shape) < 0.2] = 69  # invalid or spurious, unless 69 is a witness
    wm = WitnessMatrix(30, w)
    want = witness_violations(a, b, wm)
    ranks = witness_rank_matrix(a, b, wm)
    assert all(want[key] for key in ("invalid", "missing", "spurious"))
    for rows in (1, 7, 1 << 15):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", 30 * rows)
        for max_rank in (None, 1, 2):
            counts, lists = boolmat._check_pass(a, b, wm, max_rank)
            for key in ("invalid", "missing", "spurious"):
                assert counts[key] == len(want[key]) and lists[key] == want[key][:10]
            assert counts["disagreements"] == want["disagreements"]
            if max_rank is None:
                assert "rank_violations" not in counts
            else:
                assert counts["rank_violations"] == int(((ranks > max_rank) | (ranks == -2)).sum())
        assert witness_violations(a, b, wm) == want
        assert np.array_equal(witness_rank_matrix(a, b, wm), ranks)
    counts, lists = boolmat._check_pass(a, b, wm, listed=0)
    assert lists == {"invalid": [], "missing": [], "spurious": []} and counts["missing"] > 0


def test_check_pass_holds_no_quadratic_arrays():
    # the check at n=1024, d=0.01 held n^2 int64 ranks, n^2 masks and a dense
    # copy of the product: 14.0 MiB of tracemalloc; over blocks of rows it
    # takes 3.4 MiB, set by bool_product's blocks
    a = random_matrix(1024, 0.01, seed=71)
    b = random_matrix(1024, 0.01, seed=72)
    wm = max_witness_oracle(a, b)
    tracemalloc.start()
    try:
        boolmat._check_pass(a, b, wm, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20, peak / 2**20


def test_rank_checks_use_quadratic_memory():
    # an (n, q, n) uint8 tensor alone is 16 MiB at n = q = 256; gathering the
    # words of all n^2 entries at once would take 128 MiB at n = 1024
    for n, density, bound_mib in ((256, 0.3, 8), (1024, 0.01, 48)):
        a = random_matrix(n, density, seed=71)
        b = random_matrix(n, density, seed=72)
        wm = max_witness_oracle(a, b)
        for check in (witness_rank_matrix, witness_violations):
            tracemalloc.start()
            try:
                check(a, b, wm)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound_mib * 2**20, (n, check.__name__, peak)
