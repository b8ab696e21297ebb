"""Dags, all-pairs LCA, triangle and two-edge path applications."""
from __future__ import annotations

import numpy as np
import pytest

from maxwit.graphs import (
    CycleError,
    Dag,
    VertexWeightedGraph,
    all_pairs_lca,
    ancestor_matrix,
    brute_force_heaviest_triangles,
    brute_force_lca_set,
    brute_force_two_edge_paths,
    demo_dag,
    heaviest_triangle_per_edge,
    lca_errors,
    max_weight_two_edge_paths,
    random_dag,
    random_weighted_graph,
)
from maxwit.boolmat import transpose
from maxwit.rng import np_stream

from scalar_oracles import best_two_edge_path, closure_by_squaring, heaviest_triangle_apex, lca_set


def test_demo_dag_structure_and_lca_sets():
    dag = demo_dag()
    assert dag.n == 6
    assert set(dag.edges) == {(3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (5, 3)}
    assert sorted(brute_force_lca_set(dag, 1, 2)) == [4, 5]
    assert brute_force_lca_set(dag, 0, 2) == [5]
    assert brute_force_lca_set(dag, 0, 1) == [3]  # 5 reaches both but via 3
    lca = all_pairs_lca(dag)
    assert lca[1, 2] in (4, 5)
    assert lca[0, 1] == 3
    assert lca[0, 2] == 5


def test_lca_is_reflexive_and_symmetric():
    dag = random_dag(20, 0.2, seed=5)
    lca = all_pairs_lca(dag)
    assert np.array_equal(np.diag(lca), np.arange(20))
    assert np.array_equal(lca, lca.T)


def test_chain_lca_is_shallower_endpoint():
    n = 10
    dag = Dag(n, tuple((i, i + 1) for i in range(n - 1)))
    lca = all_pairs_lca(dag)
    for u in range(n):
        for v in range(n):
            assert lca[u, v] == min(u, v)


def test_disconnected_pairs_have_no_lca():
    dag = Dag(4, ((0, 1), (2, 3)))
    lca = all_pairs_lca(dag)
    assert lca[1, 3] == -1 and lca[0, 2] == -1
    assert lca[0, 1] == 0 and lca[2, 3] == 2


def test_lca_membership_against_brute_force():
    for seed in range(10):
        n = 16 + seed
        dag = random_dag(n, 0.15 + 0.05 * (seed % 3), seed=seed)
        lca = all_pairs_lca(dag)
        for u in range(n):
            for v in range(u, n):
                want = brute_force_lca_set(dag, u, v)
                if want:
                    assert lca[u, v] in want
                else:
                    assert lca[u, v] == -1


def test_lca_errors_counts_each_planted_error():
    dags = [demo_dag()] + [random_dag(12 + seed, 0.2, seed=seed) for seed in range(6)]
    for dag in dags:
        assert lca_errors(dag, all_pairs_lca(dag)) == 0

    # demo_dag: (0, 1) has the common ancestors 3 and 5, (0, 2) only 5,
    # and (4, 5) none
    planted = [
        (0, 1, 5),  # a common ancestor that is not lowest
        (1, 0, 4),  # not a common ancestor
        (0, 2, -1),  # -1 although a common ancestor exists
        (4, 5, 4),  # a vertex where no common ancestor exists
    ]
    dag = demo_dag()
    good = all_pairs_lca(dag)
    for u, v, w in planted:
        lcas = brute_force_lca_set(dag, u, v)
        assert w not in lcas and (w >= 0 or lcas)
        assert good[u, v] in lcas or (good[u, v] == -1 and not lcas)
        bad = good.copy()
        bad[u, v] = w
        assert lca_errors(dag, bad) == 1, (u, v, w)
    bad = good.copy()
    for u, v, w in planted:
        bad[u, v] = w
    assert lca_errors(dag, bad) == len(planted)


def test_tree_lca_matches_upward_walk():
    # rooted random tree: parent[v] < v, LCA unique, computable by depth walk
    rng = np_stream(0, 980)
    n = 30
    parent = [-1] + [int(rng.integers(v)) for v in range(1, n)]
    dag = Dag(n, tuple((parent[v], v) for v in range(1, n)))

    def depth(v: int) -> int:
        d = 0
        while parent[v] >= 0:
            v = parent[v]
            d += 1
        return d

    def walk_lca(u: int, v: int) -> int:
        du, dv = depth(u), depth(v)
        while du > dv:
            u, du = parent[u], du - 1
        while dv > du:
            v, dv = parent[v], dv - 1
        while u != v:
            u, v = parent[u], parent[v]
        return u

    lca = all_pairs_lca(dag)
    for u in range(n):
        for v in range(n):
            assert lca[u, v] == walk_lca(u, v)


def test_lca_solvers_agree():
    dag = random_dag(24, 0.2, seed=9)
    want = all_pairs_lca(dag, solver="oracle")
    assert np.array_equal(all_pairs_lca(dag, solver="strips"), want)
    sim = all_pairs_lca(dag, solver="qsim-algorithm4", beta=2.0, seed=1)
    for u in range(24):
        for v in range(24):
            if sim[u, v] >= 0:
                assert sim[u, v] in brute_force_lca_set(dag, u, v)
            else:
                assert not brute_force_lca_set(dag, u, v)
    with pytest.raises(ValueError):
        all_pairs_lca(dag, solver="bogus")


@pytest.mark.parametrize("n", [18, 63, 64, 65, 129])
def test_lca_sets_match_scalar_oracle(n):
    for seed in range(5 if n < 32 else 1):
        dag = random_dag(n, 0.25 if n < 32 else 4 / n, seed=seed + 40)
        if n < 32:
            pairs = [(u, v) for u in range(n) for v in range(u, n)]
        else:  # random pairs, and pairs at the 64-bit word edges of the packed rows
            edge = [w for w in (0, 62, 63, 64, 65, n - 1) if w < n]
            pairs = np_stream(n, 8).integers(0, n, (40, 2)).tolist() + [(u, v) for u in edge for v in edge]
        for u, v in pairs:
            assert set(brute_force_lca_set(dag, u, v)) == lca_set(n, list(dag.edges), u, v)


def test_cycles_are_rejected_with_certificate():
    with pytest.raises(CycleError) as info:
        Dag(3, ((0, 1), (1, 2), (2, 0)))
    cyc = info.value.cycle
    assert cyc[0] == cyc[-1] and len(cyc) >= 3
    edges = {(0, 1), (1, 2), (2, 0)}
    assert all((u, v) in edges for u, v in zip(cyc, cyc[1:]))

    with pytest.raises(CycleError) as info:
        Dag(2, ((1, 1),))
    assert info.value.cycle == [1, 1]


def test_dag_validation():
    with pytest.raises(ValueError):
        Dag(2, ((0, 5),))
    dag = Dag(3, ((0, 1), (0, 1), (1, 2)))  # duplicate edge collapses
    assert dag.edges == ((0, 1), (1, 2))


def test_random_dag_is_acyclic_and_deterministic():
    for seed in range(6):
        dag = random_dag(25, 0.3, seed=seed)
        again = random_dag(25, 0.3, seed=seed)
        assert dag.edges == again.edges
        # construction succeeding means Kahn's ordering consumed every vertex
        assert len(dag.topo_order) == 25


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_lca_errors_on_packed_words_across_word_boundaries(n):
    dag = random_dag(n, 6 / n, seed=n)
    good = all_pairs_lca(dag)
    assert lca_errors(dag, good) == 0

    # corrupt random pairs and pairs whose LCA sits next to a 64-bit word
    # boundary of the packed rows, three ways
    anc = dag.ancestor_bitsets()
    rng = np_stream(n, 7)
    edge_pairs = rng.permutation(np.argwhere(np.isin(good, [63, 64, n - 1])))[:20]
    bad = good.copy()
    corrupted = set()
    for u, v in rng.integers(0, n, (40, 2)).tolist() + edge_pairs.tolist():
        if good[u, v] >= 0:
            if rng.random() < 0.5:  # a wrong vertex: a common ancestor above the LCA if there is one
                above = [w for w in range(n) if anc.get(u, w) and anc.get(v, w) and w != good[u, v]]
                bad[u, v] = rng.choice(above) if above else next(
                    w for w in (63, 64, n - 1, 0, 1) if w < n and w != good[u, v])
            else:  # -1 where a common ancestor exists
                bad[u, v] = -1
        else:  # a vertex where no common ancestor exists
            bad[u, v] = min(63, n - 1)
        corrupted.add((u, v))
    edges = list(dag.edges)
    want = 0
    for u, v in corrupted:
        lcas = lca_set(n, edges, u, v)
        w = int(bad[u, v])
        want += (w not in lcas) if w >= 0 else bool(lcas)
    assert want > 0
    assert lca_errors(dag, bad) == want


@pytest.mark.parametrize("n", [18, 63, 64, 65, 129])
def test_ancestor_matrix_routes_agree(n):
    for seed in range(6 if n < 32 else 1):
        dag = random_dag(n, 0.25 if n < 32 else 3 / n, seed=seed + 60)
        reach = closure_by_squaring(dag.n, list(dag.edges))  # reach[u][v]: u is an ancestor of v
        assert ancestor_matrix(dag).to_dense().T.tolist() == reach


def test_dag_bitsets_are_built_once_and_immutable():
    dag = random_dag(20, 0.3, seed=64)
    anc, desc = dag.ancestor_bitsets(), dag.descendant_bitsets()
    assert not anc.words.flags.writeable and not desc.words.flags.writeable
    assert dag.ancestor_bitsets() is anc and dag.descendant_bitsets() is desc
    reach = closure_by_squaring(dag.n, list(dag.edges))
    assert anc.to_dense().T.tolist() == reach
    assert desc == transpose(anc)


@pytest.mark.parametrize("make, loop", [
    (lambda n, edges: Dag(n, edges), CycleError),
    (lambda n, edges: VertexWeightedGraph(n, edges, (0.0,) * n), ValueError),
], ids=["dag", "weighted"])
def test_edge_checks_are_shared_and_ordered(make, loop):
    # the first bad edge decides the error, whichever kind comes later
    with pytest.raises(ValueError, match=r"edge \(0, 7\) out of range"):
        make(4, ((0, 1), (0, 7), (2, 2)))
    with pytest.raises(loop) as info:
        make(4, ((0, 1), (2, 2), (0, 7)))
    assert "out of range" not in str(info.value)
    if loop is CycleError:
        assert info.value.cycle == [2, 2]
    else:
        assert str(info.value) == "self-loops are not allowed"
    # duplicates are kept once, in first-seen order
    assert make(5, ((3, 4), (0, 1), (3, 4), (1, 2), (0, 1))).edges == ((3, 4), (0, 1), (1, 2))
    # an undirected (v, u) folds into (min, max); a dag keeps its direction
    g = VertexWeightedGraph(4, ((3, 1), (1, 3), (0, 2)), (0.0,) * 4)
    assert g.edges == ((1, 3), (0, 2))
    assert VertexWeightedGraph(4, ((3, 1), (1, 3)), (0.0,) * 4, directed=True).edges == ((3, 1), (1, 3))
    assert Dag(4, ((3, 1), (0, 2))).edges == ((3, 1), (0, 2))


def test_vertex_weighted_graph_validation():
    with pytest.raises(ValueError):
        VertexWeightedGraph(2, ((0, 0),), (1.0, 2.0))
    with pytest.raises(ValueError):
        VertexWeightedGraph(2, (), (1.0,))
    g = VertexWeightedGraph(3, ((2, 0), (0, 2), (0, 1)), (1.0, 2.0, 3.0))
    assert g.edges == ((0, 2), (0, 1))  # canonical order, duplicates dropped


def test_triangle_complete_graph():
    # K4 with distinct weights: apex of each edge is the heaviest other vertex
    g = VertexWeightedGraph(
        4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)), (0.1, 0.4, 0.2, 0.3)
    )
    apex = heaviest_triangle_per_edge(g)
    assert apex[(0, 2)] == 1 and apex[(0, 1)] == 3 and apex[(1, 3)] == 2
    for (u, v), k in apex.items():
        others = [w for w in range(4) if w not in (u, v)]
        assert k == max(others, key=lambda w: g.weights[w])
    light = heaviest_triangle_per_edge(g, lightest=True)
    for (u, v), k in light.items():
        others = [w for w in range(4) if w not in (u, v)]
        assert k == min(others, key=lambda w: g.weights[w])


def test_triangle_free_graph_has_no_apex():
    g = VertexWeightedGraph(4, ((0, 1), (1, 2), (2, 3)), (1.0, 2.0, 3.0, 4.0))
    assert all(k is None for k in heaviest_triangle_per_edge(g).values())


def test_triangle_matches_brute_force_and_scalar():
    for seed in range(8):
        g = random_weighted_graph(20, 0.35, seed=seed)
        for lightest in (False, True):
            got = heaviest_triangle_per_edge(g, lightest=lightest)
            assert got == brute_force_heaviest_triangles(g, lightest=lightest)
            eset = set(g.edges)
            for (u, v), k in got.items():
                want = heaviest_triangle_apex(g.n, eset, list(g.weights), u, v, lightest)
                assert k == want


def test_triangle_tie_breaking():
    # two triangles with equal apex weights: ids decide
    g = VertexWeightedGraph(4, ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3)), (9.0, 9.0, 5.0, 5.0))
    assert heaviest_triangle_per_edge(g)[(0, 1)] == 3  # weight tie, larger id
    assert heaviest_triangle_per_edge(g, lightest=True)[(0, 1)] == 2  # smaller id


def test_brute_force_checks_break_many_weight_ties_by_id():
    # two or three distinct weights, 0.0 and -0.0 among them: the (weight, id)
    # keys compare as Python tuples, so 0.0 and -0.0 tie and the id decides
    pools = ((0.0, -0.0), (-0.0, 0.0, 1.0), (0.0, 2.5, -0.0))
    for seed in range(6):
        rng = np.random.default_rng(990 + seed)
        n = 18
        weights = tuple(float(w) for w in rng.choice(pools[seed % 3], size=n))
        base = random_weighted_graph(n, 0.4, seed=seed + 40)
        g = VertexWeightedGraph(n, base.edges, weights)
        eset = set(g.edges)
        for lightest in (False, True):
            got = brute_force_heaviest_triangles(g, lightest=lightest)
            assert set(got) == eset
            for (u, v), k in got.items():
                assert k == heaviest_triangle_apex(n, eset, list(weights), u, v, lightest)

        directed = bool(seed % 2)
        g = VertexWeightedGraph(n, random_weighted_graph(n, 0.3, seed=seed + 50, directed=directed).edges,
                                weights, directed)
        arcs = set(g.edges) | (set() if directed else {(v, u) for u, v in g.edges})
        mid, weight = brute_force_two_edge_paths(g)
        for i in range(n):
            for j in range(n):
                want = best_two_edge_path(n, arcs, list(weights), i, j)
                if want is None:
                    assert mid[i, j] == -1 and np.isnan(weight[i, j])
                else:
                    assert (mid[i, j], weight[i, j]) == want
                    assert np.signbit(weight[i, j]) == np.signbit(want[1])  # the middle vertex's own zero


def test_triangle_rejects_directed_graphs():
    g = random_weighted_graph(6, 0.5, seed=0, directed=True)
    with pytest.raises(ValueError):
        heaviest_triangle_per_edge(g)


def test_two_edge_single_path():
    g = VertexWeightedGraph(3, ((0, 1), (1, 2)), (1.0, 7.5, 2.0), directed=True)
    mid, weight = max_weight_two_edge_paths(g)
    assert mid[0, 2] == 1 and weight[0, 2] == 7.5
    assert mid[2, 0] == -1 and np.isnan(weight[2, 0])


def test_two_edge_matches_brute_force_and_scalar():
    for seed in range(8):
        directed = bool(seed % 2)
        g = random_weighted_graph(16, 0.3, seed=seed + 80, directed=directed)
        mid, weight = max_weight_two_edge_paths(g)
        bmid, bweight = brute_force_two_edge_paths(g)
        assert np.array_equal(mid, bmid)
        assert np.array_equal(np.isnan(weight), np.isnan(bweight))
        assert np.allclose(weight[mid >= 0], bweight[mid >= 0])

        arcs = set()
        for u, v in g.edges:
            arcs.add((u, v))
            if not directed:
                arcs.add((v, u))
        for i in range(g.n):
            for j in range(g.n):
                want = best_two_edge_path(g.n, arcs, list(g.weights), i, j)
                if want is None:
                    assert mid[i, j] == -1
                else:
                    assert (mid[i, j], weight[i, j]) == want
