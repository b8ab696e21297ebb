"""Exact strip solver, k-witness sampler, and rank-bounded approximations."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from maxwit import witness
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
    approx_multiwitness,
    approx_multiwitness_boosted,
    approx_rank_bounded,
    default_strip_width,
    exact_max_witness_strips,
    k_witness,
    largest_nonzero_strip,
    single_witness_product,
    strip_decomposition,
    witness_rank_matrix,
)
from maxwit.rng import np_stream

from scalar_oracles import max_witness_dense, witness_list_entry


def _dense(m: BoolMatrix) -> list[list[int]]:
    return m.to_dense().astype(int).tolist()


def test_strip_decomposition_shapes():
    dec = strip_decomposition(10, 4)
    assert dec.ranges == ((0, 4), (4, 8), (8, 10))
    assert dec.masks == (0b1111, 0b11110000, 0b1100000000)
    assert len(dec) == 3
    assert [dec.strip_of(k) for k in (0, 3, 4, 9)] == [0, 0, 1, 2]
    with pytest.raises(IndexError):
        dec.strip_of(10)
    with pytest.raises(ValueError):
        strip_decomposition(4, 5)
    with pytest.raises(ValueError):
        strip_decomposition(4, 0)


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


def test_largest_nonzero_strip_matches_direct_scan():
    cases = [(20, random_matrix(20, 0.25, seed=s), random_matrix(20, 0.25, seed=s + 60)) for s in range(6)]
    for q, a, b in cases + list(_word_boundary_pairs(9, 13)):
        da, db = _dense(a), _dense(b)
        for ell in (1, 4, 7, 64, q):
            if ell > q:
                continue
            dec = strip_decomposition(q, ell)
            got = largest_nonzero_strip(a, b, dec)
            assert got.shape == (a.rows, b.cols)
            for i in range(a.rows):
                for j in range(b.cols):
                    wits = witness_list_entry(da, db, i, j)
                    want = dec.strip_of(wits[0]) if wits else -1
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
    assert exact_max_witness_strips(zero, ones, 4).present_count() == 0


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
            found, cnt, _ = witness._collect_witnesses(ad, bd, k, np_stream(seed, 2))
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


def test_collect_witnesses_keeps_the_dense_gemm_sample_path():
    # q on both sides of the word boundaries; the densities put entries in
    # every branch (W = 0, 1 <= W <= k, W > k); p != r; and the tiny chunks
    # cross chunk boundaries inside the few-witness branch
    shapes = [(5, q, 9) for q in (1, 63, 64, 65, 128, 129)] + [(17, 96, 6), (40, 200, 33)]
    for case, (p, q, r) in enumerate(shapes):
        for density in (0.08, 0.35, 0.8):
            rng = np.random.default_rng(case * 10 + int(density * 100))
            ad = (rng.random((p, q)) < density).astype(np.uint8)
            bd = (rng.random((q, r)) < density).astype(np.uint8)
            for k in (1, 2, 4, 9):
                for chunk in (None, 3, 64):
                    with pytest.MonkeyPatch.context() as mp:
                        if chunk is not None:
                            mp.setattr(witness, "_CHUNK_BYTES", chunk)
                        got = witness._collect_witnesses(ad, bd, k, np_stream(case, k, 5))
                    want = _collect_witnesses_dense_gemm(ad, bd, k, np_stream(case, k, 5))
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w), (p, q, r, density, k, chunk)


def test_collect_witnesses_leaves_unwanted_entries_out():
    rng = np.random.default_rng(31)
    ad = (rng.random((23, 90)) < 0.3).astype(np.uint8)
    bd = (rng.random((90, 17)) < 0.3).astype(np.uint8)
    want = rng.random((23, 17)) < 0.4
    full = ad.astype(np.int64) @ bd.astype(np.int64)
    for k in (1, 3, 6):
        found, cnt, wcount = witness._collect_witnesses(ad, bd, k, np_stream(3, k), want)
        assert np.all(found[~want] == -1)
        assert np.all(cnt[~want] == 0) and np.all(wcount[~want] == 0)
        assert np.array_equal(wcount[want], full[want])
        assert np.array_equal(cnt[want], np.minimum(full[want], k))
        for i, j in zip(*np.nonzero(want)):
            got = found[i, j, : cnt[i, j]]
            assert np.all(ad[i, got] & bd[got, j]) and len(set(got.tolist())) == got.size


def test_rank_bounded_samples_each_entry_in_its_own_strip_only():
    n, ell = 128, 8
    a = random_matrix(n, 0.3, seed=71)
    b = random_matrix(n, 0.3, seed=72)
    dec = strip_decomposition(n, ell)
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
            present = wm.present_mask()
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
    assert np.all(ranks[wm.present_mask()] == 1)
    assert np.all(ranks[~wm.present_mask()] == -1)

    # corrupt one entry with a non-witness index
    arr = wm.array.copy()
    ii, jj = np.nonzero(arr >= 0)
    i, j = int(ii[0]), int(jj[0])
    bad_k = next(k for k in range(16) if not (a.row_bits[i] >> k) & 1)
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
