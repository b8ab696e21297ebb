"""Closed-form quantum search simulation: query law, minimum finding, solvers."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from maxwit.boolmat import (
    BoolMatrix,
    max_witness_oracle,
    random_matrix,
    witness_mask,
    witness_violations,
)
from maxwit.qsim import (
    DH_BUDGET_FACTOR,
    TABLE_SHAPES,
    AlgoStats,
    MaxWitnessIndex,
    VirtualMinTable,
    algorithm1,
    algorithm2,
    algorithm3,
    algorithm4,
    boost_reps,
    durr_hoyer_batch,
    durr_hoyer_min,
    grover_success_probability,
    max_wit,
    max_wit_table,
    table_values,
)
from maxwit.rng import np_stream, py_stream
from maxwit.witness import StripDecomposition, largest_nonzero_strip
from scalar_oracles import durr_hoyer_final_positions, durr_hoyer_outcome


def test_max_wit_table_hand_example():
    # row 1011 against column 1110: witnesses {0, 2}, so with n = 4 the
    # table is 2n - n*wit - (k+1) = [3, 6, 1, 4] and the min sits at k = 2
    a = BoolMatrix.from_rows([[1, 0, 1, 1]] * 4)
    b = BoolMatrix.from_dense(np.array([[1], [1], [1], [0]]) * np.ones((4, 4), dtype=int))
    table, nbase = max_wit_table(a, b, 0, 0)
    assert nbase == 4
    assert table.materialize().tolist() == [3, 6, 1, 4]
    assert int(np.argmin(table.materialize())) == 2
    assert table.peek(2) < nbase <= table.peek(1)


def test_max_wit_table_all_ones():
    ones = BoolMatrix.ones(4)
    table, nbase = max_wit_table(ones, ones, 1, 2)
    assert table.materialize().tolist() == [3, 2, 1, 0]
    assert nbase == 4


def test_max_wit_table_subrange():
    ones = BoolMatrix.ones(8)
    table, _ = max_wit_table(ones, ones, 0, 0, lo=2, hi=6)
    assert table.length == 4
    full, _ = max_wit_table(ones, ones, 0, 0)
    assert table.materialize().tolist() == full.materialize().tolist()[2:6]


def test_virtual_table_counts_queries_not_peeks():
    t = VirtualMinTable.from_values([5, 3, 9])
    assert t.queries == 0
    t.peek(0)
    assert t.queries == 0
    t.query(1)
    t.query(2)
    assert t.queries == 2
    with pytest.raises(ValueError):
        VirtualMinTable.from_values([1, 2, 1])
    with pytest.raises(ValueError):
        VirtualMinTable.from_values(list(range(4999)) + [17])  # long tables are checked in full too
    assert VirtualMinTable.from_values(range(4097, 0, -1)).length == 4097
    with pytest.raises(ValueError):
        VirtualMinTable(0, lambda k: k)


def test_grover_success_probability_exact_points():
    assert grover_success_probability(4, 1, 1) == pytest.approx(1.0)
    assert grover_success_probability(64, 16, 0) == pytest.approx(0.25)
    assert grover_success_probability(64, 0, 5) == 0.0
    assert grover_success_probability(64, 64, 3) == 1.0
    theta = math.asin(math.sqrt(3 / 32))
    assert grover_success_probability(32, 3, 2) == pytest.approx(math.sin(5 * theta) ** 2)
    with pytest.raises(ValueError):
        grover_success_probability(0, 0, 0)


def test_durr_hoyer_length_one_is_free():
    t = VirtualMinTable.from_values([7])
    idx, log = durr_hoyer_min(t, py_stream(0, 954))
    assert idx == 0 and log.succeeded
    assert log.oracle_queries == 0 and t.queries == 0


def test_durr_hoyer_finds_min_and_spends_budget():
    for shape in TABLE_SHAPES:
        hits = 0
        for s in range(60):
            vals = table_values(shape, 64, np_stream(s, 955))
            t = VirtualMinTable.from_values(vals)
            idx, log = durr_hoyer_min(t, py_stream(s, 956))
            assert log.oracle_queries >= DH_BUDGET_FACTOR * 8
            assert log.succeeded == (idx == int(np.argmin(vals)))
            hits += log.succeeded
        assert hits >= 30, (shape, hits)  # far above the 1/2 guarantee in practice


def test_durr_hoyer_rejects_duplicate_values():
    t = VirtualMinTable(3, [4, 4, 5].__getitem__)
    with pytest.raises(ValueError):
        durr_hoyer_min(t, py_stream(0, 957))


def test_durr_hoyer_batch_maps_positions_to_indices():
    for si, shape in enumerate(TABLE_SHAPES):
        tables = np.stack([table_values(shape, 64, np_stream(s, 964)) for s in range(40)])
        idx, ok, queries = durr_hoyer_batch(tables, np_stream(si, 965))
        assert idx.shape == ok.shape == queries.shape == (40,)
        assert np.array_equal(ok, idx == tables.argmin(axis=1))
        assert ok.sum() >= 20, shape
        assert (queries >= DH_BUDGET_FACTOR * 8).all()

    with pytest.raises(ValueError):
        durr_hoyer_batch(np.array([[0, 1, 2], [4, 4, 5]]), np_stream(0, 966))

    idx, ok, queries = durr_hoyer_batch(np.array([[7], [3]]), np_stream(0, 967))
    assert idx.tolist() == [0, 0] and ok.all() and queries.tolist() == [0, 0]


def test_scalar_and_batch_engines_agree_distributionally():
    from maxwit.qsim import _dh_position_batch

    q, runs = 64, 1200
    scalar_q = np.empty(runs)
    scalar_ok = np.empty(runs, bool)
    for s in range(runs):
        vals = table_values("uniform-random", q, np_stream(s, 958))
        idx, log = durr_hoyer_min(VirtualMinTable.from_values(vals), py_stream(s, 959))
        scalar_q[s] = log.oracle_queries
        scalar_ok[s] = log.succeeded
    pos, batch_q, _ = _dh_position_batch(np.full(runs, q), np_stream(0, 960))
    batch_ok = pos == 0
    se = math.sqrt(scalar_q.var() / runs + batch_q.var() / runs)
    assert abs(scalar_q.mean() - batch_q.mean()) <= 4 * se
    assert abs(scalar_ok.mean() - batch_ok.mean()) <= 0.05


def _joint_cells(ok: np.ndarray, queries: np.ndarray) -> np.ndarray:
    return 2 * np.asarray(queries, np.int64) + np.asarray(ok, np.int64)


def _tv_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Total-variation distance between the empirical laws of two samples."""
    _, inv = np.unique(np.concatenate([x, y]), return_inverse=True)
    px = np.bincount(inv[: x.size], minlength=inv.max() + 1) / x.size
    py = np.bincount(inv[x.size :], minlength=inv.max() + 1) / y.size
    return 0.5 * float(np.abs(px - py).sum())


def _tv_bound(cells: int, nx: int, ny: int, delta: float = 1e-6) -> float:
    """TV between two samples of one law with at most ``cells`` outcomes
    exceeds this with probability at most delta: E[TV] <= sqrt(cells*s)/2 by
    Cauchy-Schwarz, s = 1/nx + 1/ny, and McDiarmid adds sqrt(s*ln(1/delta)/2)."""
    s = 1 / nx + 1 / ny
    return 0.5 * math.sqrt(cells * s) + math.sqrt(s * math.log(1 / delta) / 2)


def test_engine_law_matches_scalar_reference():
    from maxwit.qsim import (
        _BLOCK_RUNS,
        _LAW_GAMMA,
        _LAW_MAX_LENGTH,
        _dh_position_batch,
        _dh_positions,
        _takes_law,
    )

    # A run stops on the first step that reaches the budget, and one step costs
    # at most isqrt(q) + 1 queries, so a run's queries take at most isqrt(q) + 1
    # values: with success, 2 * (isqrt(q) + 1) cells of the joint law. The
    # number of searches per run (queries - iterations - 1) depends on every
    # hit; its mean is compared at 5 standard errors.
    grid = (2, 41, 64)
    scalar_runs, engine_runs = 4000, 200_000
    scalar = {}
    for q in grid:
        table = VirtualMinTable.from_values(np.arange(q))
        rng = py_stream(0, 969, q)
        logs = [durr_hoyer_min(table, rng)[1] for _ in range(scalar_runs)]
        ok = np.array([log.succeeded for log in logs])
        queries = np.array([log.oracle_queries for log in logs])
        searches = queries - np.array([log.grover_iterations for log in logs]) - 1
        lo = math.ceil(DH_BUDGET_FACTOR * math.sqrt(q))
        assert lo <= queries.min() and queries.max() <= lo + math.isqrt(q), q
        scalar[q] = _joint_cells(ok, queries), searches

    def check_joint(q, pos, queries):
        cells = 2 * (math.isqrt(q) + 1)
        assert np.unique(queries).size <= cells // 2, q
        assert ((0 <= pos) & (pos < q)).all(), q
        tv = _tv_distance(scalar[q][0], _joint_cells(pos == 0, queries))
        assert tv <= _tv_bound(cells, scalar_runs, pos.size), (q, tv)

    def check(q, pos, queries, iters):
        check_joint(q, pos, queries)
        searches = scalar[q][1]
        steps = queries - iters - 1
        se = math.sqrt(searches.var() / searches.size + steps.var() / steps.size)
        assert abs(searches.mean() - steps.mean()) <= 5 * se + 1e-12, q

    for q in grid:
        pos, queries, iters = _dh_position_batch(np.full(engine_runs, q), np_stream(0, 970, q))
        check(q, pos, queries, iters)

    # a mixed batch spanning three blocks, with free length-1 tables in it
    qs = np_stream(0, 971).choice(np.array((1,) + grid), 2 * _BLOCK_RUNS + 1000)
    pos, queries, iters = _dh_position_batch(qs, np_stream(0, 972))
    one = qs == 1
    assert not pos[one].any() and not queries[one].any() and not iters[one].any()
    for q in grid:
        sel = qs == q
        check(q, pos[sel], queries[sel], iters[sel])

    # the solvers' entry point on both sides of its rule: the loop just below the
    # boundary run count, the exact law at it and far above it
    assert not _takes_law(1, 10**9) and not _takes_law(_LAW_MAX_LENGTH + 1, 10**9)
    assert _takes_law(_LAW_MAX_LENGTH, 10**9)
    for q in grid:
        edge = math.ceil(_LAW_GAMMA * q**1.5)
        assert _takes_law(q, edge) and not _takes_law(q, edge - 1), q
        for runs in (edge - 1, edge, engine_runs):
            check_joint(q, *_dh_positions(np.full(runs, q), np_stream(0, 977, q, runs)))

    # one call whose heavy lengths take the law while 41, below its boundary,
    # takes the loop; the length-1 tables stay free
    heavy = np_stream(0, 978).choice(np.array([1, 2, 64]), 2 * _BLOCK_RUNS)
    qs = np_stream(0, 979).permutation(np.concatenate([heavy, np.full(1000, 41)]))
    assert all(_takes_law(q, int((qs == q).sum())) for q in (2, 64))
    assert not _takes_law(41, 1000)
    pos, queries = _dh_positions(qs, np_stream(0, 980))
    one = qs == 1
    assert not pos[one].any() and not queries[one].any()
    for q in grid:
        sel = qs == q
        check_joint(q, pos[sel], queries[sel])


def test_law_mass_and_moments_are_exact():
    from maxwit.qsim import _dh_law, _least_queries

    # the backward recursion shares no code with the forward DP
    for q in (2, 4, 10, 41):
        law = _dh_law(q)
        assert law.shape == (q, math.isqrt(q) + 1) and not law.flags.writeable
        assert (law >= 0).all() and abs(law.sum() - 1) <= 1e-12, q
        mean, found = durr_hoyer_outcome(q)
        queries = _least_queries(q) + np.arange(law.shape[1])
        assert abs(float((law * queries).sum()) - mean) <= 1e-9, q
        assert abs(float(law[0].sum()) - found) <= 1e-9, q
        # positions >= 1 end a run with chances of 1e-7 down to 1e-17, so each
        # is compared relative to its own size
        ends = np.array(durr_hoyer_final_positions(q))
        assert np.allclose(law.sum(axis=1), ends, rtol=1e-9, atol=0), q


def test_solvers_weigh_a_length_by_its_runs_over_all_blocks(monkeypatch):
    from maxwit import qsim

    # with 2048-run blocks no block of algorithm1 at n = 64 (q = 64, 12 reps)
    # reaches the rule's 6144 runs, but the job's 49152 runs do
    monkeypatch.setattr(qsim, "_BLOCK_RUNS", 2048)
    n, reps = 64, boost_reps(2.0, 64)
    assert not qsim._takes_law(n, 2048) and qsim._takes_law(n, n * n * reps)
    drawn = []
    law_draws = qsim._law_draws
    monkeypatch.setattr(qsim, "_law_draws", lambda q, u: drawn.append((q, u.size)) or law_draws(q, u))
    a, b = random_matrix(n, 0.3, 31), random_matrix(n, 0.3, 32)
    wm, stats = algorithm1(a, b, 2.0, seed=5)
    assert sum(size for _, size in drawn) == n * n * reps and {q for q, _ in drawn} == {n}
    assert witness_violations(a, b, wm)["disagreements"] <= 1
    # a call on its own is judged by its own runs
    drawn.clear()
    qsim._dh_positions(np.full(2047, n), np_stream(0, 981))
    assert not drawn
    qsim._dh_positions(np.full(2047, n), np_stream(0, 981), np.bincount([n], minlength=n + 1) * 6144)
    assert drawn == [(n, 2047)]


def test_law_build_memory_is_bounded():
    from maxwit.qsim import _dh_law

    # the ring over queries spent holds 18 slots of 18 level rows of 256
    # positions (0.66 MiB); the peak is about 1.6 MiB here
    tracemalloc.start()
    try:
        law = _dh_law.__wrapped__(256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(law.sum() - 1) <= 1e-12
    assert peak < 3 * 2**20, peak


def test_loop_steps_short_and_long_lengths_in_one_block():
    from maxwit import qsim

    # 5000 is the only length here above 4096, where the scalar expectation
    # oracle is too slow to check the law; these are the bounds every run keeps
    lengths = (1, 2, 41, 5000)
    qs = np_stream(0, 975).choice(np.array(lengths), 1500)
    pos, queries, iters = qsim._dh_position_batch(qs, np_stream(0, 976))
    for q in lengths:
        at = qs == q
        if q == 1:  # a length-1 table is its own minimum and costs nothing
            assert not (pos[at].any() or queries[at].any() or iters[at].any())
            continue
        least = math.ceil(22.5 * math.sqrt(q))  # the budget; a step spends at most isqrt(q) + 1
        assert ((least <= queries[at]) & (queries[at] <= least + math.isqrt(q))).all(), q
        assert ((0 <= pos[at]) & (pos[at] < q)).all(), q
        assert (iters[at] < queries[at]).all(), q
        assert 2 * (pos[at] == 0).sum() >= at.sum() > 0, q


def _kth_highest_bit_ref(mask, r):
    for _ in range(r):
        mask ^= 1 << (mask.bit_length() - 1)
    return mask.bit_length() - 1


def _per_entry_searches(n, targets, reps, rng):
    """Frozen copy of the per-entry read-off over (i, j, witness_mask, q) tuples."""
    from maxwit import qsim

    w = np.full((n, n), -1, dtype=np.int64)
    total = 0
    runs = np.bincount([t[3] for t in targets]) * reps
    step = max(1, qsim._BLOCK_RUNS // reps)
    for s in range(0, len(targets), step):
        block = targets[s : s + step]
        qs = np.fromiter((t[3] for t in block), np.int64, len(block))
        pos, queries = qsim._dh_positions(np.repeat(qs, reps), rng, runs)
        total += int(queries.sum())
        best = pos.reshape(len(block), reps).min(axis=1)
        for (i, j, mask, _qlen), r in zip(block, best.tolist()):
            if r < mask.bit_count():
                w[i, j] = _kth_highest_bit_ref(mask, r)
    return w, total


def _per_entry_targets(algo, a, b, ell):
    """Frozen copy of the tuple targets of algorithm1-algorithm4 (algorithm3's core)."""
    n = a.rows
    ad, bd = a.to_dense(), b.to_dense()
    # wit[i][j]: the witness set of entry (i, j) as a Python-int bitset
    wit = [[int("".join(map(str, (ad[i] & bd[:, j])[::-1])), 2) for j in range(n)] for i in range(n)]
    if algo == 1:
        return [(i, j, wit[i][j], n) for i in range(n) for j in range(n)]
    if algo == 2:
        return [(i, j, wit[i][j], n) for i in range(n) for j in range(n) if wit[i][j]]
    if algo == 3:
        columns = [np.flatnonzero(bd[:, j])[::-1] for j in range(n)]
        return [(i, j, wit[i][j], len(col))
                for j, col in enumerate(columns) if len(col) for i in range(n)]
    dec = StripDecomposition.build(n, ell)
    parr = largest_nonzero_strip(a, b, dec)
    targets = []
    for i, j in zip(*np.nonzero(parr >= 0)):
        p = int(parr[i, j])
        s, e = dec.ranges[p]
        strip = ((1 << (e - s)) - 1) << s
        targets.append((int(i), int(j), wit[i][j] & strip, e - s))
    return targets


def test_solvers_match_per_entry_read_off(monkeypatch):
    from maxwit import qsim

    def uniform_positions(qs, rng, runs=None):
        # best positions of r >= 1 are rare in real searches; force many of them
        qs = np.asarray(qs, np.int64)
        return rng.integers(0, qs), qs.copy()

    solvers = {
        1: lambda a, b, ell, seed: qsim.algorithm1(a, b, 2.0, seed),
        2: lambda a, b, ell, seed: qsim.algorithm2(a, b, 2.0, seed),
        3: lambda a, b, ell, seed: qsim._algorithm3_core(a, b, 2.0, seed),
        4: lambda a, b, ell, seed: qsim.algorithm4(a, b, ell, 2.0, seed),
    }
    cases = [(16, 0.3, 5), (40, 0.05, 7), (70, 0.3, 64), (70, 0.1, 9)]
    for engine in ("real", "uniform"):
        if engine == "uniform":
            monkeypatch.setattr(qsim, "_dh_positions", uniform_positions)
        for n, d, ell in cases:
            a = random_matrix(n, d, seed=n + 1)
            b = random_matrix(n, d / 2, seed=n + 2)
            for algo, solve in solvers.items():
                seed = n + algo
                wm, stats = solve(a, b, ell, seed)
                reps = boost_reps(2.0, n)
                rng = np_stream(seed, qsim._TAG_ALG, algo)
                w, total = _per_entry_searches(n, _per_entry_targets(algo, a, b, ell), reps, rng)
                assert np.array_equal(wm.array, w), (engine, n, d, algo)
                assert stats.total_queries == total, (engine, n, d, algo)


def test_entry_searches_memory_is_bounded():
    from maxwit.qsim import _run_entry_searches

    # 9216 entries x 14 reps: stepping all 129k runs in one block peaks at
    # about 19 MiB here
    n = 96
    a = random_matrix(n, 0.3, seed=67)
    b = random_matrix(n, 0.3, seed=68)
    i, j = np.divmod(np.arange(n * n), n)
    tracemalloc.start()
    try:
        wm, total = _run_entry_searches(a, b, i, j, np.full(n * n, n), boost_reps(2.0, n), np_stream(0, 973))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak
    viol = witness_violations(a, b, wm)
    assert not viol["invalid"] and not viol["spurious"]
    assert total >= n * n * boost_reps(2.0, n) * DH_BUDGET_FACTOR * math.sqrt(n)


def test_boost_reps_rejects_non_finite_beta():
    for beta in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            boost_reps(beta, 64)


def test_boost_reps():
    assert boost_reps(2.0, 64) == 12
    assert boost_reps(1.0, 64) == 6
    assert boost_reps(0.1, 2) == 1
    assert boost_reps(2.0, 1) == 2  # n clamped to 2
    with pytest.raises(ValueError):
        boost_reps(0.0, 64)


def test_max_wit_single_entries():
    a = BoolMatrix.from_rows([[1, 0, 1, 1]] * 4)
    b = BoolMatrix.from_dense(np.array([[1], [1], [1], [0]]) * np.ones((4, 4), dtype=int))
    w, log = max_wit(a, b, 0, 0, beta=2.0, rng=np_stream(0, 961))
    assert w == 2 and log.succeeded

    zero = BoolMatrix.zeros(4)
    w, log = max_wit(zero, b, 0, 0, beta=2.0, rng=np_stream(0, 962))
    assert w is None and not log.succeeded
    assert log.oracle_queries > 0  # searching still costs queries

    # without a generator the runs draw from np_stream(0), keyed like every other stream
    big_a, big_b = random_matrix(40, 0.3, seed=963), random_matrix(40, 0.3, seed=964)
    assert max_wit(big_a, big_b, 5, 7, beta=3.0) == max_wit(big_a, big_b, 5, 7, beta=3.0, rng=np_stream(0))


def test_max_wit_index_range():
    n = 24
    a = random_matrix(n, 0.3, seed=65)
    b = random_matrix(n, 0.3, seed=66)
    rng = np_stream(6, 968)
    found = empty = 0
    for i, j, lo, hi in [(i, (5 * i) % n, (7 * i) % 12, 12 + (3 * i) % 13) for i in range(n)]:
        in_range = [k for k in range(lo, hi) if (witness_mask(a, b, i, j) >> k) & 1]
        w, log = max_wit(a, b, i, j, beta=2.0, rng=rng, lo=lo, hi=hi)
        assert w == (max(in_range) if in_range else None), (i, j, lo, hi)
        assert log.succeeded == (w is not None) and log.result == w
        log.check()
        assert log.oracle_queries >= log.grover_iterations > 0
        found += w is not None
        empty += w is None
    assert found and empty  # both outcomes are exercised


def test_max_wit_accuracy_over_random_entries():
    n = 32
    a = random_matrix(n, 0.3, seed=63)
    b = random_matrix(n, 0.3, seed=64)
    want = max_witness_oracle(a, b)
    rng = np_stream(5, 963)
    wrong = 0
    for i in range(n):
        w, _ = max_wit(a, b, i, i, beta=2.0, rng=rng)
        wrong += w != want.get(i, i)
    assert wrong == 0


def test_algorithm1_trivial_inputs():
    n = 16
    ones = BoolMatrix.ones(n)
    wm, stats = algorithm1(ones, ones, beta=2.0, seed=0)
    assert np.all(wm.array == n - 1)
    assert stats.entries == n * n and stats.total_queries > 0
    assert stats.mean_queries_per_entry == pytest.approx(stats.total_queries / stats.entries)

    ident = BoolMatrix.identity(n)
    wm, _ = algorithm1(ident, ident, beta=2.0, seed=1)
    assert np.array_equal(np.diag(wm.array), np.arange(n))

    zero = BoolMatrix.zeros(n)
    wm, stats = algorithm1(zero, zero, beta=2.0, seed=2)
    assert (wm.array == -1).all()
    assert stats.total_queries > 0  # every entry still searched


def test_algorithm2_is_output_sensitive():
    n = 24
    zero = BoolMatrix.zeros(n)
    wm, stats = algorithm2(zero, zero, beta=2.0, seed=0)
    assert (wm.array == -1).all()
    assert stats.total_queries == 0 and stats.entries == 0

    a = random_matrix(n, 0.15, seed=71)
    b = random_matrix(n, 0.15, seed=72)
    want = max_witness_oracle(a, b)
    wm, stats = algorithm2(a, b, beta=2.0, seed=3)
    assert stats.entries == int((want.array >= 0).sum())
    assert wm == want

    _, full = algorithm1(a, b, beta=2.0, seed=3)
    assert stats.total_queries < full.total_queries


def test_algorithm3_tracks_sparser_factor():
    n = 24
    sparse = random_matrix(n, 0.1, seed=81)
    dense = random_matrix(n, 0.7, seed=82)
    for a, b in ((sparse, dense), (dense, sparse)):
        wm, stats = algorithm3(a, b, beta=2.0, seed=4)
        assert wm == max_witness_oracle(a, b)
        assert stats.entries == n * n
    # a zero column in B contributes no searches at all
    cols = dense.to_dense()
    cols[:, 5] = 0
    b0 = BoolMatrix.from_dense(cols)
    wm, _ = algorithm3(dense, b0, beta=2.0, seed=5)
    assert wm == max_witness_oracle(dense, b0)
    assert not np.any(wm.array[:, 5] >= 0)


def test_algorithm4_strip_widths():
    n = 32
    a = random_matrix(n, 0.3, seed=91)
    b = random_matrix(n, 0.3, seed=92)
    want = max_witness_oracle(a, b)

    # width 1: the strip pins the witness, so the table search is free
    wm, stats = algorithm4(a, b, ell=1, beta=2.0, seed=6)
    assert wm == want
    assert stats.total_queries == 0

    # width n: one strip, the search covers the whole index range
    wm, stats = algorithm4(a, b, ell=n, beta=2.0, seed=7)
    assert wm == want
    assert stats.total_queries > 0

    for ell in (4, 10, None):
        wm, stats = algorithm4(a, b, ell=ell, beta=2.0, seed=8)
        assert wm == want
        assert stats.algo == "alg4"


def test_algorithm_stats_schema():
    a = random_matrix(8, 0.5, seed=95)
    _, stats = algorithm1(a, a, beta=2.0, seed=0)
    assert isinstance(stats, AlgoStats)
    doc = stats.to_json_dict()
    assert set(doc) == {
        "n",
        "algo",
        "beta",
        "ell",
        "entries",
        "total_queries",
        "mean_queries_per_entry",
        "error_rate_vs_oracle",
        "seed",
    }
    assert doc["algo"] == "alg1" and doc["error_rate_vs_oracle"] is None


def test_tradeoff_levels():
    n = 64
    a = random_matrix(n, 0.4, seed=96)
    b = random_matrix(n, 0.4, seed=97)
    want = max_witness_oracle(a, b)

    idx = MaxWitnessIndex(a, b, "full", ell=16, beta=2.0, seed=9)
    probes = [(3, 7), (0, 0), (n - 1, n - 1), (10, 50)]
    for i, j in probes:
        w, log = idx.query(i, j)
        assert w == want.get(i, j)
        assert log.oracle_queries == 0

    def spend(level: str) -> int:
        index = MaxWitnessIndex(a, b, level, ell=16, beta=2.0, seed=9)
        total = 0
        for i, j in probes:
            w, log = index.query(i, j)
            if w is not None:
                assert a.get(i, w) and b.get(w, j)
            total += log.oracle_queries
        return total

    none_cost = spend("none")
    strips_cost = spend("strips")
    assert 0 < strips_cost < none_cost  # searching one strip beats the full range
    assert spend("strips+largest-p") == strips_cost

    w, log = MaxWitnessIndex(a, b, "full", ell=16, beta=2.0, seed=9).query(3, 7)
    assert w == want.get(3, 7) and log.oracle_queries == 0
    with pytest.raises(ValueError):
        MaxWitnessIndex(a, b, "bogus").query(0, 0)


def test_table_values_shapes():
    for shape in TABLE_SHAPES:
        for q in (1, 2, 17, 64):
            vals = table_values(shape, q, np_stream(q, 970))
            assert vals.shape == (q,)
            assert np.unique(vals).size == q
    assert table_values("sorted", 5).tolist() == [0, 1, 2, 3, 4]
    assert table_values("reverse-sorted", 5).tolist() == [4, 3, 2, 1, 0]
    dip = table_values("single-dip", 30)
    assert int(np.argmin(dip)) == 10
    with pytest.raises(ValueError):
        table_values("bogus", 4)
    with pytest.raises(ValueError):
        table_values("sorted", 0)
