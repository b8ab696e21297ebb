"""Exact strip solver, k-witness sampler, and rank-bounded approximations."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from maxwit import boolmat, witness
from maxwit.boolmat import (
    BoolMatrix,
    bool_product,
    max_witness_oracle,
    random_matrix,
    witness_count,
    witness_violations,
)
from maxwit.witness import (
    ApproxParams,
    StripDecomposition,
    approx_multiwitness,
    approx_multiwitness_boosted,
    approx_rank_bounded,
    default_strip_width,
    exact_max_witness_strips,
    k_witness,
    largest_nonzero_strip,
    single_witness_product,
    witness_rank_matrix,
)
from maxwit.rng import np_stream

from scalar_oracles import max_witness_dense, packed_words_row, top_bit, witness_list_entry


def _dense(m: BoolMatrix) -> list[list[int]]:
    return m.to_dense().astype(int).tolist()


def test_strip_decomposition_shapes():
    dec = StripDecomposition.build(10, 4)
    assert dec.ranges == ((0, 4), (4, 8), (8, 10))
    assert len(dec) == 3
    with pytest.raises(ValueError):
        StripDecomposition.build(4, 5)
    with pytest.raises(ValueError):
        StripDecomposition.build(4, 0)


def test_default_strip_width():
    assert default_strip_width(1) == 1
    assert default_strip_width(64) == 16
    assert default_strip_width(100) == math.ceil(100 ** (2 / 3))


def _word_boundary_pairs(p: int, r: int):
    """p x q by q x r factor pairs with q around the 64-bit word boundaries:
    sparse random factors with all-zero rows, then all-ones factors."""
    for t, q in enumerate((63, 64, 65, 127, 129)):
        rng = np.random.default_rng(880 + t)
        a, b = rng.random((p, q)) < 0.06, rng.random((q, r)) < 0.06
        a[::3] = False
        b[::5] = False
        yield q, BoolMatrix.from_dense(a), BoolMatrix.from_dense(b)
        yield q, BoolMatrix.ones(p, q), BoolMatrix.ones(q, r)


def test_packed_words_match_the_scalar_reference():
    rng = np.random.default_rng(50)
    for cols in (1, 63, 64, 65, 127, 129):
        dense = (rng.random((4, cols)) < 0.5).astype(np.uint8)
        dense[0] = 1  # the row's last column is its highest bit
        need = -(-cols // 64)
        for words in (need, need + 2):  # exact, and with padding words
            got = boolmat._packed_words(dense, words)
            assert got.dtype == np.dtype("<u8") and got.shape == (4, words)
            assert got.tolist() == [packed_words_row(r, words) for r in dense.tolist()]


def test_top_bit_matches_the_scalar_reference():
    rng = np.random.default_rng(51)
    every_byte = [v << (8 * p) for p in range(8) for v in range(256)]
    spread = rng.integers(0, 2**64, 10**4, dtype=np.uint64) >> rng.integers(0, 64, 10**4).astype(np.uint64)
    words = [0, 2**64 - 1, *every_byte, *spread.tolist()]
    got = boolmat._top_bit(np.array(words, np.uint64))
    assert got.tolist() == [top_bit(x) for x in words]


def test_largest_nonzero_strip_matches_direct_scan():
    cases = [(20, random_matrix(20, 0.25, seed=s), random_matrix(20, 0.25, seed=s + 60)) for s in range(6)]
    for q, a, b in cases + list(_word_boundary_pairs(9, 13)):
        da, db = _dense(a), _dense(b)
        for ell in (1, 4, 7, 64, q):
            if ell > q:
                continue
            dec = StripDecomposition.build(q, ell)
            got = largest_nonzero_strip(a, b, dec)
            assert got.shape == (a.rows, b.cols)
            for i in range(a.rows):
                for j in range(b.cols):
                    wits = witness_list_entry(da, db, i, j)
                    want = wits[0] // ell if wits else -1
                    assert got[i, j] == want, (q, ell, i, j)


def test_exact_strips_equals_oracle_over_widths():
    for seed in range(8):
        n = 30
        density = (0.02, 0.1, 0.5, 0.9)[seed % 4]
        a = random_matrix(n, density, seed=seed)
        b = random_matrix(n, density, seed=seed + 70)
        want = max_witness_oracle(a, b)
        for ell in (1, 5, 10, n, None):
            assert exact_max_witness_strips(a, b, ell) == want
    for q, a, b in _word_boundary_pairs(11, 11):
        want = max_witness_dense(_dense(a), _dense(b))
        for ell in (1, 7, 64, q, None):
            if ell is None or ell <= q:
                assert exact_max_witness_strips(a, b, ell).array.tolist() == want, (q, ell)


def test_exact_strips_trivial_inputs():
    n = 16
    ones = BoolMatrix.ones(n)
    assert np.all(exact_max_witness_strips(ones, ones, 4).array == n - 1)
    ident = BoolMatrix.identity(n)
    got = exact_max_witness_strips(ident, ident, 4).array
    assert np.array_equal(np.diag(got), np.arange(n))
    assert np.all(got[~np.eye(n, dtype=bool)] == -1)
    zero = BoolMatrix.zeros(n)
    assert (exact_max_witness_strips(zero, ones, 4).array == -1).all()


def test_exact_strips_memory_is_bounded():
    # an int64 strip index, a witness array and the copy WitnessMatrix makes of it
    # took 24.7 MiB here; a narrow strip index and the witnesses written into the
    # result's own array take 9.7 MiB (8 MiB of it the result)
    a, b = random_matrix(1024, 0.01, seed=71), random_matrix(1024, 0.01, seed=72)
    tracemalloc.start()
    try:
        exact_max_witness_strips(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2**20, peak / 2**20


def test_single_witness_product_validity():
    for seed in range(5):
        a = random_matrix(22, 0.3, seed=seed)
        b = random_matrix(22, 0.3, seed=seed + 80)
        wm = single_witness_product(a, b, seed=seed)
        assert witness_violations(a, b, wm)["ok"]


def test_k_witness_lengths_and_order():
    for seed in range(5):
        n = 24
        a = random_matrix(n, 0.4, seed=seed)
        b = random_matrix(n, 0.4, seed=seed + 90)
        da, db = _dense(a), _dense(b)
        for k in (1, 2, 5, n):
            wl = k_witness(a, b, k, seed=seed)
            wl.validate()
            for i in range(n):
                for j in range(n):
                    cell = wl.get(i, j)
                    full = witness_list_entry(da, db, i, j)
                    assert len(cell) == min(k, len(full))
                    assert set(cell) <= set(full)
                    if len(full) <= k:
                        assert cell == full  # W <= k forces the complete list


def test_collect_witnesses_lists_every_few_witness_entry():
    # (p, q, r, k, chunk bytes): n=256 at d=0.11 spans several default chunks
    # (61% of its entries have 1 < W <= 4); the small shapes use tiny chunks
    cases = [
        (256, 256, 256, 4, None),
        (7, 1, 5, 2, 8),
        (5, 3, 9, 3, 3),
        (30, 70, 11, 5, 100),
        (12, 40, 12, 40, 41),
    ]
    for seed, (p, q, r, k, chunk) in enumerate(cases):
        rng = np.random.default_rng(seed)
        density = 0.11 if p == 256 else 0.3
        ad = (rng.random((p, q)) < density).astype(np.uint8)
        bd = (rng.random((q, r)) < density).astype(np.uint8)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(witness, "_CHUNK_BYTES", chunk)
            found = witness._collect_witnesses(ad, bd, k, np_stream(seed, 2))
        cnt = np.count_nonzero(found >= 0, axis=2)
        da, db = ad.tolist(), bd.tolist()
        for i in range(p):
            for j in range(r):
                full = witness_list_entry(da, db, i, j)
                assert cnt[i, j] == min(k, len(full))
                got = found[i, j].tolist()
                assert got[cnt[i, j] :] == [-1] * (k - cnt[i, j])
                if len(full) <= k:
                    assert got[: len(full)] == full, (p, q, r, i, j)
                else:
                    assert len(set(got)) == k and set(got) <= set(full)


def test_collect_witnesses_top_up_scan_takes_the_k_largest(monkeypatch):
    # with no sampling rounds the top-up fills every entry with W > k
    # by itself, from the top witness down
    monkeypatch.setattr(witness, "_sample_rounds", lambda n_scale, k: 0)
    for seed, (p, q, r, k) in enumerate([(20, 30, 25, 1), (24, 24, 24, 3), (9, 70, 13, 5), (12, 129, 6, 2)]):
        rng = np.random.default_rng(seed + 40)
        ad = (rng.random((p, q)) < 0.4).astype(np.uint8)
        bd = (rng.random((q, r)) < 0.4).astype(np.uint8)
        found = witness._collect_witnesses(ad, bd, k, np_stream(seed, 5))
        assert (ad.astype(np.int64) @ bd > k).any()
        da, db = ad.tolist(), bd.tolist()
        for i in range(p):
            for j in range(r):
                top = witness_list_entry(da, db, i, j)[:k]
                assert found[i, j].tolist() == top + [-1] * (k - len(top)), (p, q, r, i, j)


def _collect_witnesses_dense_gemm(a_dense, b_dense, k, rng):
    """Frozen copy of the sampling core as it was before it ran on packed
    words: float64 count and index-sum products, the lone survivor read off
    sum/count, and the full unfinished mask recomputed after every hit."""
    p, q = a_dense.shape
    r = b_dense.shape[1]
    af = a_dense.astype(np.float64)
    bf = b_dense.astype(np.float64)
    wcount = (af @ bf).astype(np.int64)
    target = np.minimum(wcount, k)
    found = np.full((p, r, k), -1, dtype=np.int64)
    cnt = np.zeros((p, r), dtype=np.int64)

    weights = np.arange(q, dtype=np.float64)
    sum0 = ((af * weights) @ bf).astype(np.int64)
    one = wcount == 1
    found[:, :, 0][one] = sum0[one]
    cnt[one] = 1

    few = (wcount > 1) & (wcount <= k)
    for i, j in zip(*np.nonzero(few)):
        found[i, j, : wcount[i, j]] = np.flatnonzero(a_dense[i] & b_dense[:, j])
        cnt[i, j] = wcount[i, j]

    active = wcount > k
    if active.any():
        rounds = witness._sample_rounds(max(p, q, r), k)
        unfinished = active & (cnt < target)
        for t in range(1, math.ceil(math.log2(max(q, 2))) + 1):
            band = unfinished & (wcount >= (1 << (t - 1))) & (wcount <= (4 << t))
            if not band.any():
                continue
            rate = 2.0**-t
            for _ in range(rounds):
                cols = np.flatnonzero(rng.random(q) < rate)
                if cols.size == 0:
                    continue
                asub = af[:, cols]
                bsub = bf[cols, :]
                cnt_s = asub @ bsub
                hit = (cnt_s == 1.0) & unfinished
                if hit.any():
                    sums = (asub * cols.astype(np.float64)) @ bsub
                    ii, jj = np.nonzero(hit)
                    w = sums[ii, jj].astype(np.int64)
                    fresh = ~(found[ii, jj, :] == w[:, None]).any(axis=1)
                    if fresh.any():
                        ii, jj, w = ii[fresh], jj[fresh], w[fresh]
                        slots = cnt[ii, jj]
                        found[ii, jj, slots] = w
                        cnt[ii, jj] = slots + 1
                        unfinished = active & (cnt < target)
                        band = band & unfinished
                        if not band.any():
                            break
            if not unfinished.any():
                break

    for i, j in zip(*np.nonzero(cnt < target)):
        have = set(found[i, j, : cnt[i, j]].tolist())
        for kk in np.flatnonzero(a_dense[i] & b_dense[:, j])[::-1].tolist():
            if cnt[i, j] >= target[i, j]:
                break
            if kk not in have:
                found[i, j, cnt[i, j]] = kk
                cnt[i, j] += 1
    found = -np.sort(-found, axis=2)
    return found, cnt, wcount


def _dense_gemm_pairs():
    """(case, density, A, B, k): q on both sides of the word boundaries; the
    densities put entries in every branch (W = 0, 1 <= W <= k, W > k); p != r."""
    shapes = [(5, q, 9) for q in (1, 63, 64, 65, 128, 129)] + [(17, 96, 6), (40, 200, 33)]
    for case, (p, q, r) in enumerate(shapes):
        for density in (0.08, 0.35, 0.8):
            rng = np.random.default_rng(case * 10 + int(density * 100))
            ad = (rng.random((p, q)) < density).astype(np.uint8)
            bd = (rng.random((q, r)) < density).astype(np.uint8)
            for k in (1, 2, 4, 9):
                yield case, density, ad, bd, k


def test_collect_witnesses_keeps_the_dense_gemm_sample_path():
    # the tiny chunks cross chunk boundaries inside the few-witness branch
    for case, density, ad, bd, k in _dense_gemm_pairs():
        want = _collect_witnesses_dense_gemm(ad, bd, k, np_stream(case, k, 5))[0]
        for chunk in (None, 3, 64):
            with pytest.MonkeyPatch.context() as mp:
                if chunk is not None:
                    mp.setattr(witness, "_CHUNK_BYTES", chunk)
                got = witness._collect_witnesses(ad, bd, k, np_stream(case, k, 5))
            assert np.array_equal(got, want), (ad.shape, bd.shape, density, k, chunk)


def test_collect_witnesses_partial_top_up_keeps_the_sampled_witnesses(monkeypatch):
    """With one round per band the sampling leaves most entries with W > k
    short but not empty; each keeps its sampled witnesses and takes its
    largest unlisted ones, as the frozen dense-gemm copy does."""
    monkeypatch.setattr(witness, "_sample_rounds", lambda n_scale, k: 1)
    mixed = 0  # entries with W > k whose list is not their k largest witnesses
    for case, density, ad, bd, k in _dense_gemm_pairs():
        want = _collect_witnesses_dense_gemm(ad, bd, k, np_stream(case, k, 5))[0]
        for chunk in (None, 3):
            with pytest.MonkeyPatch.context() as mp:
                if chunk is not None:
                    mp.setattr(witness, "_CHUNK_BYTES", chunk)
                got = witness._collect_witnesses(ad, bd, k, np_stream(case, k, 5))
            assert np.array_equal(got, want), (ad.shape, bd.shape, density, k, chunk)
        da, db = ad.tolist(), bd.tolist()
        for i, j in zip(*np.nonzero(ad.astype(np.int64) @ bd > k)):
            mixed += got[i, j].tolist() != witness_list_entry(da, db, i, j)[:k]
    assert mixed > 5000, mixed


def test_collect_witnesses_leaves_unwanted_entries_out():
    rng = np.random.default_rng(31)
    ad = (rng.random((23, 90)) < 0.3).astype(np.uint8)
    bd = (rng.random((90, 17)) < 0.3).astype(np.uint8)
    want = rng.random((23, 17)) < 0.4
    full = ad.astype(np.int64) @ bd.astype(np.int64)
    for k in (1, 3, 6):
        found = witness._collect_witnesses(ad, bd, k, np_stream(3, k), want)
        cnt = np.count_nonzero(found >= 0, axis=2)
        assert np.all(found[~want] == -1)
        assert np.array_equal(cnt[want], np.minimum(full[want], k))
        for i, j in zip(*np.nonzero(want)):
            got = found[i, j, : cnt[i, j]]
            assert np.all(ad[i, got] & bd[got, j]) and len(set(got.tolist())) == got.size


def test_rank_bounded_samples_each_entry_in_its_own_strip_only():
    n, ell = 128, 8
    a = random_matrix(n, 0.3, seed=71)
    b = random_matrix(n, 0.3, seed=72)
    dec = StripDecomposition.build(n, ell)
    top = largest_nonzero_strip(a, b, dec)
    calls = []
    inner = witness._collect_witnesses

    def counting(ad, bd, k, rng, want=None):
        calls.append(want.copy())
        return inner(ad, bd, k, rng, want)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness, "_collect_witnesses", counting)
        wm = approx_rank_bounded(a, b, ell, seed=5)
    # every nonzero entry is sampled in exactly one strip, the one that owns it
    assert np.array_equal(np.sum(calls, axis=0), top >= 0)
    assert all(want.any() for want in calls)  # strips that own no entry are skipped
    assert len(calls) == np.unique(top[top >= 0]).size < len(dec)
    assert np.array_equal(wm.array // ell, np.where(top >= 0, top, -1))


def test_rank_bounded_memory_is_one_strips_arrays():
    """Peaks of tracemalloc over approx_rank_bounded at n=1024, d=0.01,
    ell=64: 63.6 MiB while every strip held an int64 strip index, int64
    witness counts, the previous strip's arrays and a result copied at the
    end; 36.7 MiB with the narrow strip index, int32 witness counts, one
    strip's arrays at a time and the result written in place; 23.6 MiB with
    witness slots, counts and witness counts in the narrowest type that
    holds the strip width (int8 here). The 26 MiB bound fails at the
    second."""
    a = random_matrix(1024, 0.01, seed=81)
    b = random_matrix(1024, 0.01, seed=82)
    tracemalloc.start()
    try:
        approx_rank_bounded(a, b, 64, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 26 * 2**20, peak / 2**20


def test_collect_witnesses_memory_is_bounded():
    # an (entries, q) int32 block over all few-witness entries at once
    # would alone take about 80 MiB here
    ad = random_matrix(256, 0.11, seed=61).to_dense()
    bd = random_matrix(256, 0.11, seed=62).to_dense()
    tracemalloc.start()
    try:
        witness._collect_witnesses(ad, bd, 4, np_stream(0, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_collect_witnesses_reads_hits_in_blocks_with_the_same_draws():
    """Lone survivors read a few hits at a time give the same lists as one
    read of every hit: the draws and their order do not change."""
    for case, (p, q, r, density, k) in enumerate([(40, 200, 33, 0.35, 4), (17, 96, 6, 0.8, 2), (60, 60, 60, 0.5, 1)]):
        rng = np.random.default_rng(case + 90)
        ad = (rng.random((p, q)) < density).astype(np.uint8)
        bd = (rng.random((q, r)) < density).astype(np.uint8)
        want = witness._collect_witnesses(ad, bd, k, np_stream(case, 9))
        for hits in (1, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(witness, "_BLOCK_ENTRIES", hits)
                got = witness._collect_witnesses(ad, bd, k, np_stream(case, 9))
            assert got.dtype == want.dtype and np.array_equal(got, want), (case, hits)


def test_k_witness_rejects_bad_k():
    a = random_matrix(8, 0.5, seed=1)
    with pytest.raises(ValueError):
        k_witness(a, a, 0)
    with pytest.raises(ValueError):
        k_witness(a, a, 9)


def test_rank_bounded_bound_holds_and_pattern_matches():
    for seed in range(6):
        n = 40
        a = random_matrix(n, 0.3, seed=seed)
        b = random_matrix(n, 0.3, seed=seed + 11)
        pattern = bool_product(a, b)
        for ell in (1, 3, 8, n):
            wm = approx_rank_bounded(a, b, ell, seed=seed)
            ranks = witness_rank_matrix(a, b, wm)
            assert not np.any(ranks == -2)  # every reported witness genuine
            assert np.all(ranks[ranks > 0] <= ell)
            present = wm.array >= 0
            for i in range(n):
                for j in range(n):
                    assert present[i, j] == bool(pattern.get(i, j))


def test_rank_bounded_ell_one_is_exact():
    for seed in range(4):
        a = random_matrix(33, 0.4, seed=seed)
        b = random_matrix(33, 0.4, seed=seed + 12)
        assert approx_rank_bounded(a, b, 1, seed=seed) == max_witness_oracle(a, b)


def test_multiwitness_validity_and_pattern():
    for seed in range(4):
        a = random_matrix(32, 0.3, seed=seed)
        b = random_matrix(32, 0.3, seed=seed + 13)
        wm = approx_multiwitness(a, b, ApproxParams(k=4, seed=seed))
        rep = witness_violations(a, b, wm)
        assert rep["ok"], rep


def test_multiwitness_k_at_least_w_is_exact_first_round():
    # k = n bounds every witness count, so round one already finds the maximum
    for seed in range(3):
        n = 16
        a = random_matrix(n, 0.5, seed=seed)
        b = random_matrix(n, 0.5, seed=seed + 14)
        wm = approx_multiwitness(a, b, ApproxParams(k=n, seed=seed))
        assert wm == max_witness_oracle(a, b)


def test_multiwitness_k_above_the_inner_dimension_is_clamped():
    """Any k >= q collects every witness without a sampling draw, so k = q,
    q + 1 and 1000 give equal results. Peaks of tracemalloc over the boosted
    scheme at n=64, density 0.3 and k=1000: 45.6 MiB while the sampling
    core allocated n^2 * k slots; 2.8 MiB with k clamped to q, as at k=64.
    The 6 MiB bound fails at the first."""
    a = random_matrix(64, 0.3, seed=91)
    b = random_matrix(64, 0.3, seed=92)
    want = approx_multiwitness_boosted(a, b, ApproxParams(k=64, reps=2, seed=5))
    assert approx_multiwitness_boosted(a, b, ApproxParams(k=65, reps=2, seed=5)) == want
    tracemalloc.start()
    try:
        got = approx_multiwitness_boosted(a, b, ApproxParams(k=1000, reps=2, seed=5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 6 * 2**20, peak / 2**20


def test_multiwitness_boost_is_entrywise_monotone():
    a = random_matrix(24, 0.5, seed=41)
    b = random_matrix(24, 0.5, seed=42)
    single = approx_multiwitness(a, b, ApproxParams(k=4, seed=7))
    boosted = approx_multiwitness_boosted(a, b, ApproxParams(k=4, reps=6, seed=7))
    assert np.all(boosted.array >= single.array)
    assert witness_violations(a, b, boosted)["ok"]


def test_multiwitness_reps_contract():
    a = random_matrix(8, 0.5, seed=1)
    with pytest.raises(ValueError):
        approx_multiwitness(a, a, ApproxParams(k=4, reps=2))
    one = approx_multiwitness_boosted(a, a, ApproxParams(k=4, reps=1, seed=5))
    assert one == approx_multiwitness(a, a, ApproxParams(k=4, seed=5))


def test_multiwitness_rank_bound_nonvacuous_case():
    # all-ones n=64, k=8: every entry has W=64, so the target rank bound
    # 4*ceil(W/k) = 32 excludes half of all witnesses; boosting must land
    # inside it essentially always
    n, k = 64, 8
    ones = BoolMatrix.ones(n)
    wm = approx_multiwitness_boosted(ones, ones, ApproxParams(k=k, reps=40, seed=3))
    ranks = witness_rank_matrix(ones, ones, wm)
    bound = 4 * math.ceil(n / k)
    assert not np.any(ranks == -2)
    frac = float((ranks > bound).mean())
    assert frac <= 0.01, frac


def test_approx_params_contract():
    with pytest.raises(ValueError):
        ApproxParams(k=3)
    with pytest.raises(ValueError):
        ApproxParams(k=4, reps=0)
    p = ApproxParams(k=4)
    assert p.reps == 1 and p.seed == 0


def test_witness_rank_matrix_classes():
    a = random_matrix(16, 0.5, seed=51)
    b = random_matrix(16, 0.5, seed=52)
    wm = max_witness_oracle(a, b)
    ranks = witness_rank_matrix(a, b, wm)
    assert np.all(ranks[wm.array >= 0] == 1)
    assert np.all(ranks[wm.array < 0] == -1)

    # corrupt one entry with a non-witness index
    arr = wm.array.copy()
    ii, jj = np.nonzero(arr >= 0)
    i, j = int(ii[0]), int(jj[0])
    bad_k = next(k for k in range(16) if not a.get(i, k))
    corrupted = wm
    corrupted.set(i, j, bad_k)
    ranks = witness_rank_matrix(a, b, corrupted)
    assert ranks[i, j] == -2

    # a known lower-rank witness gets the rank the scalar scan gives it
    mask_i, mask_j = None, None
    for x in range(16):
        for y in range(16):
            if witness_count(a, b, x, y) >= 3:
                mask_i, mask_j = x, y
                break
        if mask_i is not None:
            break
    assert mask_i is not None
    full = witness_list_entry(_dense(a), _dense(b), mask_i, mask_j)
    probe = max_witness_oracle(a, b)
    probe.set(mask_i, mask_j, full[2])
    ranks = witness_rank_matrix(a, b, probe)
    assert ranks[mask_i, mask_j] == 3
