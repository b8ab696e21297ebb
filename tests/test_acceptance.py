"""Acceptance suite: one test per shipping criterion, stated tolerances only.

Each test prints a single [PASS] line with the measured quantities once its
assertions hold, so a full run reads as a checklist. Criteria with runtime
budgets assert wall-clock time too.
"""
from __future__ import annotations

import math
import os
import time

import numpy as np

import conftest

from maxwit.boolmat import (
    BoolMatrix,
    bool_product,
    max_witness_oracle,
    random_matrix,
)
from maxwit.cli import main
from maxwit.graphs import (
    all_pairs_lca,
    brute_force_heaviest_triangles,
    brute_force_lca_set,
    brute_force_two_edge_paths,
    demo_dag,
    heaviest_triangle_per_edge,
    max_weight_two_edge_paths,
    random_dag,
    random_weighted_graph,
)
from maxwit.qsim import (
    TABLE_SHAPES,
    VirtualMinTable,
    _dh_position_batch,
    _law_draws,
    algorithm1,
    algorithm2,
    algorithm3,
    algorithm4,
    durr_hoyer_min,
    table_values,
)
from maxwit.rng import np_stream, py_stream, spawn_seed
from maxwit.witness import (
    ApproxParams,
    approx_multiwitness,
    approx_multiwitness_boosted,
    approx_rank_bounded,
    exact_max_witness_strips,
    k_witness,
    witness_rank_matrix,
)


def _report(line: str) -> None:
    # checklist lines are echoed in the terminal summary by conftest
    print(line)
    conftest.acceptance_lines.append(line)


def _binomial_sigma(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


# ---------------------------------------------------------------------------
# 1. exactness of the strip solver
# ---------------------------------------------------------------------------


def test_criterion_01_strips_exact_everywhere():
    t0 = time.perf_counter()
    instances = 0
    checks = 0
    for n in (32, 64, 128):
        ells = sorted({1, math.ceil(math.sqrt(n)), math.ceil(n ** (2 / 3)), n})
        for di, density in enumerate((0.01, 0.1, 0.5, 0.9)):
            for t in range(50):
                a = random_matrix(n, density, spawn_seed(0, 101, n, di, t, 0))
                b = random_matrix(n, density, spawn_seed(0, 101, n, di, t, 1))
                want = max_witness_oracle(a, b)
                instances += 1
                for ell in ells:
                    assert exact_max_witness_strips(a, b, ell) == want, (n, density, t, ell)
                    checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
    _report(
        f"[PASS] criterion 1: strips == oracle on {instances} instances "
        f"({checks} solver runs), 0 disagreements, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2 + 3. minimum-finding success probability and query scaling
# ---------------------------------------------------------------------------

_DH_TRIALS = 1000
_DH_QS = (64, 256, 1024, 4096)
_dh_cache: dict = {}


def _dh_grid() -> dict:
    if _dh_cache:
        return _dh_cache
    t0 = time.perf_counter()
    cells = {}
    for qi, q in enumerate(_DH_QS):
        for si, shape in enumerate(TABLE_SHAPES):
            hits = 0
            queries = 0
            for t in range(_DH_TRIALS):
                vals = table_values(shape, q, np_stream(0, 31, qi, si, t))
                table = VirtualMinTable.from_values(vals.tolist())
                _, log = durr_hoyer_min(table, py_stream(0, 30, qi, si, t))
                hits += log.succeeded
                queries += log.oracle_queries
            cells[(q, shape)] = (hits / _DH_TRIALS, queries / _DH_TRIALS)
    _dh_cache["cells"] = cells
    _dh_cache["elapsed"] = time.perf_counter() - t0
    return _dh_cache


def test_criterion_02_durr_hoyer_success_rate():
    grid = _dh_grid()
    floor = 0.50 - 3 * _binomial_sigma(0.5, _DH_TRIALS)
    worst = min(rate for rate, _ in grid["cells"].values())
    for (q, shape), (rate, _) in grid["cells"].items():
        assert rate >= floor, f"q={q} shape={shape}: rate {rate:.3f} < {floor:.4f}"
    assert grid["elapsed"] < 60.0, f"runtime {grid['elapsed']:.1f}s exceeds 1 minute"
    _report(
        f"[PASS] criterion 2: argmin hit rate >= {floor:.4f} on all "
        f"{len(grid['cells'])} (q, shape) cells x {_DH_TRIALS} runs "
        f"(worst {worst:.3f}), {grid['elapsed']:.1f}s"
    )


def test_criterion_03_query_scaling_slope():
    grid = _dh_grid()
    pooled = [
        np.mean([grid["cells"][(q, s)][1] for s in TABLE_SHAPES]) for q in _DH_QS
    ]
    slope = float(np.polyfit(np.log(np.asarray(_DH_QS, float)), np.log(pooled), 1)[0])
    assert 0.4 <= slope <= 0.6, f"slope {slope:.4f} outside [0.4, 0.6]"
    _report(
        f"[PASS] criterion 3: log-log query slope {slope:.4f} in [0.4, 0.6] "
        f"(pooled means {[round(float(p), 1) for p in pooled]})"
    )


def test_criteria_02_03_hold_for_the_batch_engine():
    # the engine behind every library search and the durr-hoyer campaign; its
    # position law does not depend on table shape, so no tables are built
    t0 = time.perf_counter()
    floor = 0.50 - 3 * _binomial_sigma(0.5, _DH_TRIALS)
    rates, means = [], []
    for qi, q in enumerate(_DH_QS):
        pos, queries, _ = _dh_position_batch(np.full(_DH_TRIALS, q), np_stream(0, 32, qi))
        rates.append(float((pos == 0).mean()))
        means.append(float(queries.mean()))
    slope = float(np.polyfit(np.log(np.asarray(_DH_QS, float)), np.log(means), 1)[0])
    # the exact law the engine draws heavy batches from
    law_qs = (64, 256)
    law_rates = []
    for qi, q in enumerate(law_qs):
        pos, _ = _law_draws(q, np_stream(0, 33, qi).random(_DH_TRIALS))
        law_rates.append(float((pos == 0).mean()))
    elapsed = time.perf_counter() - t0
    for q, rate in zip(_DH_QS, rates):
        assert rate >= floor, f"q={q}: rate {rate:.3f} < {floor:.4f}"
    for q, rate in zip(law_qs, law_rates):
        assert rate >= floor, f"law, q={q}: rate {rate:.3f} < {floor:.4f}"
    assert 0.4 <= slope <= 0.6, f"slope {slope:.4f} outside [0.4, 0.6]"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 minute"
    _report(
        f"[PASS] criteria 2-3 on the batch engine: argmin hit rate >= {floor:.4f} at "
        f"q in {list(_DH_QS)} x {_DH_TRIALS} runs (worst {min(rates):.3f}) and on its "
        f"law at q in {list(law_qs)} (worst {min(law_rates):.3f}), "
        f"query slope {slope:.4f} in [0.4, 0.6], {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 4. boosted single-entry search accuracy
# ---------------------------------------------------------------------------


def test_criterion_04_boosted_accuracy():
    n, beta, pairs = 64, 2.0, 25
    wrong = 0
    total = 0
    for t in range(pairs):
        a = random_matrix(n, 0.5, spawn_seed(0, 104, t, 0))
        b = random_matrix(n, 0.5, spawn_seed(0, 104, t, 1))
        wm, _ = algorithm1(a, b, beta, spawn_seed(0, 104, t, 2))
        wrong += int((wm.array != max_witness_oracle(a, b).array).sum())
        total += n * n
    assert total >= 10**5
    p = n ** (-beta)
    bound = p + 3 * _binomial_sigma(p, total)
    rate = wrong / total
    assert rate <= bound, f"error rate {rate:.2e} exceeds {bound:.2e}"
    _report(
        f"[PASS] criterion 4: per-entry error {rate:.2e} <= n^-2 + 3 sigma = {bound:.2e} "
        f"over {total} entry-trials ({wrong} wrong)"
    )


# ---------------------------------------------------------------------------
# 5. end-to-end solver agreement
# ---------------------------------------------------------------------------


def test_criterion_05_algorithms_agree_with_oracle():
    seeds = 20
    densities = (0.1, 0.3, 0.5, 0.7, 0.9)
    summary = []
    for n in (32, 64):
        ells = sorted({1, 4, math.ceil(n ** (2 / 3)), n})
        agree = {name: [] for name in ("alg1", "alg2", "alg3")}
        agree4 = {ell: [] for ell in ells}
        for s in range(seeds):
            a = random_matrix(n, densities[s % len(densities)], spawn_seed(0, 105, n, s, 0))
            b = random_matrix(n, densities[s % len(densities)], spawn_seed(0, 105, n, s, 1))
            want = max_witness_oracle(a, b)
            run_seed = spawn_seed(0, 105, n, s, 2)
            for name, fn in (("alg1", algorithm1), ("alg2", algorithm2), ("alg3", algorithm3)):
                wm, _ = fn(a, b, 2.0, run_seed)
                agree[name].append(float((wm.array == want.array).mean()))
            for ell in ells:
                wm, _ = algorithm4(a, b, ell, 2.0, run_seed)
                agree4[ell].append(float((wm.array == want.array).mean()))
        for name, vals in agree.items():
            mean = float(np.mean(vals))
            assert mean >= 0.999, f"{name} n={n}: agreement {mean:.5f} < 0.999"
            summary.append(f"{name}/n{n}={mean:.5f}")
        for ell, vals in agree4.items():
            mean = float(np.mean(vals))
            assert mean >= 0.999, f"alg4 n={n} ell={ell}: agreement {mean:.5f} < 0.999"
        summary.append(f"alg4/n{n}>= {min(np.mean(v) for v in agree4.values()):.5f}")
    _report(
        f"[PASS] criterion 5: algorithms 1-4 agree with oracle >= 99.9% "
        f"over {seeds} seeds ({'; '.join(summary)})"
    )


# ---------------------------------------------------------------------------
# 6. rank-bounded approximation
# ---------------------------------------------------------------------------


def test_criterion_06_rank_bounded_holds():
    n = 128
    densities = (0.01, 0.1, 0.5, 0.9)
    violations = 0
    exact_checked = 0
    for t in range(50):
        a = random_matrix(n, densities[t % 4], spawn_seed(0, 106, t, 0))
        b = random_matrix(n, densities[t % 4], spawn_seed(0, 106, t, 1))
        pattern = bool_product(a, b)
        pat = pattern.to_dense().astype(bool)
        for ell in (1, 4, 16, 64):
            wm = approx_rank_bounded(a, b, ell, spawn_seed(0, 106, t, 2))
            ranks = witness_rank_matrix(a, b, wm)
            violations += int((ranks == -2).sum())
            violations += int(((ranks > ell)).sum())
            violations += int((pat != (ranks >= 1)).sum())  # pattern must match exactly
            if ell == 1:
                assert wm == max_witness_oracle(a, b), f"instance {t}: ell=1 not exact"
                exact_checked += 1
    assert violations == 0, f"{violations} rank violations"
    _report(
        f"[PASS] criterion 6: 0 rank violations over 50 instances x 4 widths at n=128; "
        f"ell=1 exact on all {exact_checked} instances"
    )


# ---------------------------------------------------------------------------
# 7. multiwitness single-run and boosted bounds
# ---------------------------------------------------------------------------


def test_criterion_07_multiwitness_bounds():
    n, k = 64, 4
    ones = BoolMatrix.ones(n)
    bound = 4 * math.ceil(n / k)
    validity = 0

    single_rates = []
    for t in range(500):
        wm = approx_multiwitness(ones, ones, ApproxParams(k, 1, spawn_seed(0, 107, t)))
        ranks = witness_rank_matrix(ones, ones, wm)
        validity += int((ranks == -2).sum()) + int((ranks == -1).sum())
        single_rates.append(float(((ranks >= 1) & (ranks <= bound)).mean()))
    single = float(np.mean(single_rates))
    assert single >= 0.13, f"single-run success {single:.4f} < 0.13"

    boosted_viol = []
    for t in range(10):
        wm = approx_multiwitness_boosted(ones, ones, ApproxParams(k, 40, spawn_seed(0, 108, t)))
        ranks = witness_rank_matrix(ones, ones, wm)
        validity += int((ranks == -2).sum()) + int((ranks == -1).sum())
        boosted_viol.append(float((ranks > bound).mean()))
    boosted = float(np.mean(boosted_viol))
    assert boosted <= 0.01, f"boosted violation rate {boosted:.4f} > 1%"
    assert validity == 0, f"{validity} validity violations"
    _report(
        f"[PASS] criterion 7: single-run success {single:.3f} >= 0.13 (500 seeds), "
        f"boosted violation {boosted:.4f} <= 0.01 (reps=40), validity violations 0"
    )


# ---------------------------------------------------------------------------
# 8. k-witness length contract
# ---------------------------------------------------------------------------


def test_criterion_08_k_witness_lengths():
    sizes = (9, 16, 25, 33, 48, 64)
    densities = (0.05, 0.2, 0.5, 0.8)
    entries = 0
    for t in range(12):
        n = sizes[t % len(sizes)]
        a = random_matrix(n, densities[t % 4], spawn_seed(0, 109, t, 0))
        b = random_matrix(n, densities[t % 4], spawn_seed(0, 109, t, 1))
        wcount = a.to_dense().astype(np.int64) @ b.to_dense().astype(np.int64)
        for k in (1, 2, 4, 8):
            wl = k_witness(a, b, k, spawn_seed(0, 109, t, 2))
            want = np.minimum(wcount, k)
            assert np.array_equal(wl.lengths(), want), (t, n, k)
            wl.validate()
            entries += n * n
    _report(
        f"[PASS] criterion 8: list length == min(k, W) on 100% of {entries} "
        f"entry checks (12 instances x k in {{1,2,4,8}})"
    )


# ---------------------------------------------------------------------------
# 9. all-pairs LCA
# ---------------------------------------------------------------------------


def test_criterion_09_lca_membership_and_demo_dag():
    pairs = 0
    for t in range(50):
        n = 8 + (t * 7) % 57  # sizes spread over [8, 64]
        dag = random_dag(n, 0.1 + 0.05 * (t % 5), spawn_seed(0, 110, t))
        lca = all_pairs_lca(dag)
        for u in range(n):
            for v in range(u, n):
                want = brute_force_lca_set(dag, u, v)
                if want:
                    assert lca[u, v] in want, (t, u, v)
                else:
                    assert lca[u, v] == -1, (t, u, v)
                pairs += 1

    dag = demo_dag()
    hits = set()
    for solver, seed in (("oracle", 0), ("strips", 0), *(("qsim-algorithm4", s) for s in range(5))):
        lca = all_pairs_lca(dag, solver=solver, seed=seed)
        assert lca[1, 2] in (4, 5), solver
        assert lca[0, 1] == 3 and lca[0, 1] != 5, solver
        hits.add(int(lca[1, 2]))
    _report(
        f"[PASS] criterion 9: LCA in brute-force set on {pairs} pairs over 50 dags; "
        f"demo dag pair (1,2) -> {sorted(hits)} within {{4,5}}, pair (0,1) never 5"
    )


# ---------------------------------------------------------------------------
# 10. graph reductions
# ---------------------------------------------------------------------------


def test_criterion_10_graph_reductions_match_brute_force():
    tri = 0
    for t in range(50):
        n = 8 + (t * 9) % 57
        g = random_weighted_graph(n, 0.15 + 0.05 * (t % 6), spawn_seed(0, 111, t))
        assert heaviest_triangle_per_edge(g) == brute_force_heaviest_triangles(g), t
        tri += len(g.edges)

    paths = 0
    for t in range(50):
        n = 8 + (t * 11) % 57
        g = random_weighted_graph(
            n, 0.15 + 0.05 * (t % 6), spawn_seed(0, 112, t), directed=bool(t % 2)
        )
        mid, weight = max_weight_two_edge_paths(g)
        bmid, bweight = brute_force_two_edge_paths(g)
        assert np.array_equal(mid, bmid), t
        both = mid >= 0
        assert np.array_equal(both, bmid >= 0) and np.allclose(weight[both], bweight[both]), t
        paths += n * n
    _report(
        f"[PASS] criterion 10: heaviest triangle matches brute force on 50 graphs "
        f"({tri} edges); two-edge paths match on 50 graphs ({paths} pairs)"
    )


# ---------------------------------------------------------------------------
# 11. campaign determinism across reruns and thread counts
# ---------------------------------------------------------------------------


def test_criterion_11_campaign_determinism(tmp_path):
    configs = [
        ["campaign", "--target", "durr-hoyer", "--trials", "25", "--q-grid", "16,64", "--seed", "5"],
        ["campaign", "--target", "multiwitness", "--trials", "4", "--n", "16", "--seed", "5"],
        ["campaign", "--target", "maxwit-accuracy", "--trials", "3", "--n", "16", "--seed", "5"],
    ]
    old = os.environ.get("MAXWIT_THREADS")
    try:
        for ci, argv in enumerate(configs):
            out = tmp_path / f"c{ci}.json"
            full = argv + ["--out", str(out)]
            os.environ["MAXWIT_THREADS"] = "1"
            assert main(full) == 0
            first = out.read_bytes()
            assert main(full) == 0
            assert out.read_bytes() == first, f"rerun differs: {argv}"
            os.environ["MAXWIT_THREADS"] = "4"
            assert main(full) == 0
            assert out.read_bytes() == first, f"thread count changed bytes: {argv}"
    finally:
        if old is None:
            os.environ.pop("MAXWIT_THREADS", None)
        else:
            os.environ["MAXWIT_THREADS"] = old
    _report(
        "[PASS] criterion 11: campaign reports byte-identical across reruns "
        "and MAXWIT_THREADS in {1, 4} for all three targets"
    )
