"""Closed-form quantum search simulation: query law, minimum finding, solvers."""
from __future__ import annotations

import math

import numpy as np
import pytest

from maxwit.boolmat import BoolMatrix, max_witness_oracle, random_matrix, witness_mask
from maxwit.qsim import (
    DH_BUDGET_FACTOR,
    TABLE_SHAPES,
    AlgoStats,
    ColumnIndexTables,
    MaxWitnessIndex,
    QueryLog,
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


def test_max_wit_table_hand_example():
    # row 1011 against column 1110: witnesses {0, 2}, so with n = 4 the
    # table is 2n - n*wit - (k+1) = [3, 6, 1, 4] and the min sits at k = 2
    a = BoolMatrix.from_strings(["1011"] * 4)
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
        VirtualMinTable(0, lambda k: k)


def test_query_log_absorb():
    a = QueryLog(oracle_queries=3, grover_iterations=2)
    a.absorb(QueryLog(oracle_queries=4, grover_iterations=1))
    assert (a.oracle_queries, a.grover_iterations) == (7, 3)


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


def test_boost_reps():
    assert boost_reps(2.0, 64) == 12
    assert boost_reps(1.0, 64) == 6
    assert boost_reps(0.1, 2) == 1
    assert boost_reps(2.0, 1) == 2  # n clamped to 2
    with pytest.raises(ValueError):
        boost_reps(0.0, 64)


def test_max_wit_single_entries():
    a = BoolMatrix.from_strings(["1011"] * 4)
    b = BoolMatrix.from_dense(np.array([[1], [1], [1], [0]]) * np.ones((4, 4), dtype=int))
    w, log = max_wit(a, b, 0, 0, beta=2.0, rng=np_stream(0, 961))
    assert w == 2 and log.succeeded

    zero = BoolMatrix.zeros(4)
    w, log = max_wit(zero, b, 0, 0, beta=2.0, rng=np_stream(0, 962))
    assert w is None and not log.succeeded
    assert log.oracle_queries > 0  # searching still costs queries


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
    assert wm.present_count() == 0
    assert stats.total_queries > 0  # every entry still searched


def test_algorithm2_is_output_sensitive():
    n = 24
    zero = BoolMatrix.zeros(n)
    wm, stats = algorithm2(zero, zero, beta=2.0, seed=0)
    assert wm.present_count() == 0
    assert stats.total_queries == 0 and stats.entries == 0

    a = random_matrix(n, 0.15, seed=71)
    b = random_matrix(n, 0.15, seed=72)
    want = max_witness_oracle(a, b)
    wm, stats = algorithm2(a, b, beta=2.0, seed=3)
    assert stats.entries == want.present_count()
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


def test_algorithm3_column_tables():
    b = BoolMatrix.from_strings(["101", "001", "011"])
    tabs = ColumnIndexTables.from_matrix(b)
    assert [c.tolist() for c in tabs.columns] == [[0], [2], [2, 1, 0]]
    tabs.validate(b)


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
                assert (a.row_bits[i] >> w) & 1 and (b.row_bits[w] >> j) & 1
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
