"""Graph problems solved through maximum witnesses of Boolean products.

Conventions used throughout:
  - ancestors are reflexive: every vertex is an ancestor of itself;
  - a lowest common ancestor (LCA) of u and v is a common ancestor none of
    whose proper descendants is also a common ancestor; a pair may have
    several, and the witness-based solver returns the one that comes last
    in the topological order used for the reduction;
  - weight ties are broken by vertex id, so every solver is deterministic.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .boolmat import BoolMatrix, max_witness_oracle, transpose
from .rng import np_stream
from .solvers import SOLVERS

__all__ = [
    "CycleError",
    "Dag",
    "random_dag",
    "demo_dag",
    "ancestor_matrix",
    "lca_matrix",
    "all_pairs_lca",
    "brute_force_lca_set",
    "lca_errors",
    "VertexWeightedGraph",
    "random_weighted_graph",
    "heaviest_triangle_per_edge",
    "max_weight_two_edge_paths",
    "brute_force_heaviest_triangles",
    "brute_force_two_edge_paths",
]

# public LCA solver name -> entry of the solver table
LCA_SOLVERS = {"oracle": "oracle", "strips": "strips", "qsim-algorithm4": "alg4"}


class CycleError(ValueError):
    """Raised when an edge list is not acyclic; carries one cycle as proof."""

    def __init__(self, cycle: list[int]):
        super().__init__(f"graph contains a cycle: {' -> '.join(map(str, cycle))}")
        self.cycle = cycle


@dataclass(eq=False)
class Dag:
    """Directed acyclic graph on vertices 0..n-1; edge (u, v) points u -> v."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        self.edges = _checked_edges(self.n, self.edges, True, lambda u: CycleError([u, u]))
        self.children: list[list[int]] = [[] for _ in range(self.n)]
        self.parents: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            self.children[u].append(v)
            self.parents[v].append(u)
        self.topo_order = self._toposort()
        self.rank = [0] * self.n
        for pos, v in enumerate(self.topo_order):
            self.rank[v] = pos

    def _toposort(self) -> list[int]:
        # Kahn with a heap for a deterministic order; a stall proves a cycle
        indeg = [len(self.parents[v]) for v in range(self.n)]
        ready = [v for v in range(self.n) if indeg[v] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in self.children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) < self.n:
            raise CycleError(self._find_cycle(indeg))
        return order

    def _find_cycle(self, indeg: list[int]) -> list[int]:
        # walk parent pointers inside the unresolved subgraph until repetition
        stuck = {v for v in range(self.n) if indeg[v] > 0}
        v = min(stuck)
        seen: dict[int, int] = {}
        path = []
        while v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = next(p for p in self.parents[v] if p in stuck)
        cycle = path[seen[v] :] + [v]
        cycle.reverse()  # parent pointers were followed backwards
        return cycle

    def ancestor_bitsets(self) -> BoolMatrix:
        """The reflexive ancestor matrix: row v holds v's ancestors. Built once
        per dag by ORing each vertex's parents' rows into its own, in
        topological order."""
        return self._ancestors

    def descendant_bitsets(self) -> BoolMatrix:
        """The reflexive descendant matrix, the transposed ancestor matrix."""
        return self._descendants

    @cached_property
    def _ancestors(self) -> BoolMatrix:
        words = BoolMatrix.identity(self.n).words.copy()
        for v in self.topo_order:
            if self.parents[v]:
                words[v] |= np.bitwise_or.reduce(words[self.parents[v]], axis=0)
        return BoolMatrix(self.n, self.n, words)

    @cached_property
    def _descendants(self) -> BoolMatrix:
        return transpose(self._ancestors)


def _checked_edges(
    n: int, edges: tuple[tuple[int, int], ...], directed: bool, loop_error: Callable[[int], Exception]
) -> tuple[tuple[int, int], ...]:
    """Edges as int pairs, duplicates dropped in first-seen order; an
    undirected edge is stored as (min, max). The first bad edge raises:
    ValueError when out of range, loop_error(u) when it is a loop (u, u)."""
    out: dict[tuple[int, int], None] = {}
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise loop_error(u)
        out[(u, v) if directed or u < v else (v, u)] = None
    return tuple(out)


def random_dag(n: int, density: float, seed: int) -> Dag:
    """Random dag: a hidden topological order with independent forward edges."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = np_stream(seed, 21)
    perm = rng.permutation(n)
    i, j = np.triu_indices(n, 1)  # the pairs i < j in row-major order, one draw each
    keep = rng.random(i.size) < density
    return Dag(n, tuple(zip(perm[i[keep]].tolist(), perm[j[keep]].tolist())))


def demo_dag() -> Dag:
    """Six-vertex dag whose pair (1, 2) has two lowest common ancestors.

    Vertices 4 and 5 are both LCAs of (1, 2); vertex 5 is the only LCA of
    (0, 2); for (0, 1) the common ancestor 5 is excluded by its descendant 3.
    """
    return Dag(6, ((3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (5, 3)))


def ancestor_matrix(dag: Dag) -> BoolMatrix:
    """Reflexive ancestor relation: entry (u, v) is 1 iff v is an ancestor of u."""
    return dag.ancestor_bitsets()


def lca_matrix(dag: Dag) -> tuple[BoolMatrix, tuple[int, ...]]:
    """Topologically renumbered ancestor matrix for the LCA reduction.

    Returns (M, order): M[x, y] = 1 iff order[y] is an ancestor of order[x].
    The maximum witness of M x M^T at (x, y) is then the renumbered deepest
    common ancestor of order[x] and order[y].
    """
    order = tuple(dag.topo_order)
    perm = np.asarray(order, np.int64)
    return BoolMatrix.from_dense(ancestor_matrix(dag).to_dense()[np.ix_(perm, perm)]), order


def all_pairs_lca(
    dag: Dag,
    solver: str = "oracle",
    ell: int | None = None,
    beta: float = 2.0,
    seed: int = 0,
) -> np.ndarray:
    """LCA for every vertex pair; -1 where no common ancestor exists.

    The returned vertex is always the common ancestor that comes last in the
    dag's topological order, which is one of the pair's LCAs. Solvers:
    "oracle" (bit-parallel exact), "strips" (strip-based exact),
    "qsim-algorithm4" (simulated quantum search; correct with high
    probability).
    """
    if solver not in LCA_SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    m, order = lca_matrix(dag)
    rank_arr = np.asarray(dag.rank, np.int64)
    wm, _ = SOLVERS[LCA_SOLVERS[solver]].run(m, transpose(m), ell, beta, seed)
    w = wm.array[np.ix_(rank_arr, rank_arr)]
    del wm  # the lookup then holds two n x n arrays, the gathered witnesses and the result
    return _in_order(w, order)


def _in_order(w: np.ndarray, order) -> np.ndarray:
    """order[k] for each witness k of w, and -1 where w is -1 (it reads the -1
    appended to order)."""
    return np.append(np.asarray(order, np.int64), -1)[w]


def brute_force_lca_set(dag: Dag, u: int, v: int) -> list[int]:
    """All LCAs of (u, v) by definition: common ancestors that are maximal."""
    anc = dag.ancestor_bitsets().words
    desc = dag.descendant_bitsets().words
    common = anc[u] & anc[v]
    ws = np.flatnonzero(BoolMatrix(1, dag.n, common[None]).to_dense()[0])
    # keep w when it is the only common vertex among its descendants
    lowest = np.bitwise_count(desc[ws] & common).sum(axis=1) == 1
    return ws[lowest].tolist()


def lca_errors(dag: Dag, lca: np.ndarray) -> int:
    """Number of pairs whose entry in an all-pairs LCA array is not one of their LCAs.

    An entry of -1 is correct exactly when the pair has no common ancestor.
    """
    n = dag.n
    anc_matrix = ancestor_matrix(dag)
    anc, packed_anc = anc_matrix.to_dense(), anc_matrix.words
    packed_below = dag.descendant_bitsets().words & ~BoolMatrix.identity(n).words  # proper descendants
    vs = np.arange(n)
    wrong = 0
    for u in range(n):  # one row of pairs at a time: temporaries of n * n/8 bytes
        common = packed_anc[u] & packed_anc  # row v: common ancestors of (u, v)
        w = lca[u]
        given = (w >= 0) & (w < n)
        wc = np.where(given, w, 0)
        # w is an LCA when it is common and none of its proper descendants is
        lowest = anc[u, wc] & anc[vs, wc] & ~(common & packed_below[wc]).any(axis=1)
        ok = np.where(given, lowest, (w < 0) & ~common.any(axis=1))
        wrong += n - int(ok.sum())
    return wrong


# ---------------------------------------------------------------------------
# Vertex-weighted graphs
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class VertexWeightedGraph:
    """Graph with one real weight per vertex; undirected unless stated."""

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    directed: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if len(self.weights) != self.n:
            raise ValueError("need exactly one weight per vertex")
        self.weights = tuple(float(w) for w in self.weights)
        if not np.isfinite(self.weights).all():
            raise ValueError("vertex weights must be finite")
        self.edges = _checked_edges(
            self.n, self.edges, self.directed, lambda u: ValueError("self-loops are not allowed")
        )

    def adjacency(self) -> BoolMatrix:
        dense = np.zeros((self.n, self.n), bool)
        u, v = np.array(self.edges, np.int64).reshape(-1, 2).T
        dense[u, v] = True
        if not self.directed:
            dense[v, u] = True
        return BoolMatrix.from_dense(dense)

    def weight_order(self, descending: bool = False) -> list[int]:
        """Vertex ids sorted by (weight, id); ties resolved by id."""
        keyed = sorted(range(self.n), key=lambda v: (self.weights[v], v))
        return keyed[::-1] if descending else keyed


def random_weighted_graph(
    n: int, density: float, seed: int, directed: bool = False
) -> VertexWeightedGraph:
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = np_stream(seed, 22)
    # the candidate pairs in row-major order, one draw each: u != v, or u < v when undirected
    u, v = np.nonzero(~np.eye(n, dtype=bool)) if directed else np.triu_indices(n, 1)
    keep = rng.random(u.size) < density
    weights = tuple(rng.random(n).tolist())
    return VertexWeightedGraph(n, tuple(zip(u[keep].tolist(), v[keep].tolist())), weights, directed)


def _permuted_witnesses(adj: BoolMatrix, order: list[int]) -> np.ndarray:
    # columns of the left factor and rows of the right factor follow `order`,
    # so witness k stands for original vertex order[k] and the maximum witness
    # is the common neighbour that comes last in `order`; returns the vertices
    dense = adj.to_dense()
    perm = np.asarray(order, np.int64)
    left = BoolMatrix.from_dense(dense[:, perm])
    right = BoolMatrix.from_dense(dense[perm, :])
    return _in_order(max_witness_oracle(left, right).array, order)


def heaviest_triangle_per_edge(
    g: VertexWeightedGraph, lightest: bool = False
) -> dict[tuple[int, int], int | None]:
    """Extreme-weight triangle apex for every edge; None when no triangle.

    For each edge (u, v) the apex is the common neighbour maximizing vertex
    weight (minimizing when lightest=True), ties broken towards the larger
    (smaller) vertex id.
    """
    if g.directed:
        raise ValueError("triangle search expects an undirected graph")
    apex = _permuted_witnesses(g.adjacency(), g.weight_order(descending=lightest))
    u, v = np.asarray(g.edges, np.int64).reshape(-1, 2).T
    return {e: (k if k >= 0 else None) for e, k in zip(g.edges, apex[u, v].tolist())}


def max_weight_two_edge_paths(g: VertexWeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Best middle vertex of a two-edge path u -> k -> v for every pair.

    Open-variant path weight: only the middle vertex counts, endpoint weights
    are ignored. Returns (mid, weight): mid[u, v] is the middle vertex
    maximizing its weight (-1 when no such path; ties broken towards the
    larger id) and weight[u, v] is that vertex's weight (NaN where mid is -1).
    """
    mid = _permuted_witnesses(g.adjacency(), g.weight_order())
    warr = np.asarray(g.weights, np.float64)
    weight = np.where(mid >= 0, warr[np.clip(mid, 0, None)], np.nan)
    return mid, weight


# bytes of the (edges, n) candidate block the triangle check holds at once
_CHUNK_BYTES = 4 << 20


def _extreme_key(cand: np.ndarray, ids: np.ndarray, w: np.ndarray, lightest: bool = False) -> np.ndarray:
    """Per row of cand, the marked id with the largest (smallest) key (weight, id),
    as Python compares tuples, so 0.0 ties with -0.0; -1 where none is marked.
    Columns hold ids ascending, with weights w."""
    wk = np.where(cand, w, np.inf if lightest else -np.inf)
    best = wk.min(axis=1) if lightest else wk.max(axis=1)
    tie = cand & (w == best[:, None])
    col = np.argmax(tie, axis=1) if lightest else ids.size - 1 - np.argmax(tie[:, ::-1], axis=1)
    return np.where(cand.any(axis=1), ids[col], -1)


def brute_force_heaviest_triangles(
    g: VertexWeightedGraph, lightest: bool = False
) -> dict[tuple[int, int], int | None]:
    """Triangle apexes by definition, for checking heaviest_triangle_per_edge.

    Every vertex k adjacent to both ends of an edge is a candidate; the
    apex has the largest (smallest) key (weight, id). Edges are scanned in
    blocks, with no witness solver involved.
    """
    adj = g.adjacency().to_dense().astype(bool)
    ids = np.arange(g.n)
    w = np.asarray(g.weights, np.float64)
    edges = np.asarray(g.edges, np.int64).reshape(-1, 2)
    apex = np.empty(len(edges), np.int64)
    step = max(1, _CHUNK_BYTES // g.n)
    for s in range(0, len(edges), step):
        u, v = edges[s : s + step].T
        apex[s : s + step] = _extreme_key(adj[u] & adj[v], ids, w, lightest)
    return {e: (k if k >= 0 else None) for e, k in zip(g.edges, apex.tolist())}


def brute_force_two_edge_paths(g: VertexWeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Two-edge paths by definition, for checking max_weight_two_edge_paths.

    Every k with arcs u -> k -> v is a candidate middle vertex; the best has
    the largest key (weight, id). One source row u is scanned at a time,
    with no witness solver involved.
    """
    adj = g.adjacency().to_dense().astype(bool)
    w = np.asarray(g.weights, np.float64)
    mid = np.full((g.n, g.n), -1, np.int64)
    for u in range(g.n):
        ks = np.flatnonzero(adj[u])
        if ks.size:
            mid[u] = _extreme_key(adj[ks].T, ks, w[ks])
    weight = np.where(mid >= 0, w[mid], np.nan)
    return mid, weight
