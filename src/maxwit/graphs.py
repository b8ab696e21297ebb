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

import numpy as np

from .boolmat import BoolMatrix, WitnessMatrix, bool_product, max_witness_oracle, set_bits, transpose
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
        edges = []
        seen = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise CycleError([u, u])
            if (u, v) not in seen:
                seen.add((u, v))
                edges.append((u, v))
        self.edges = tuple(edges)
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

    def adjacency(self) -> BoolMatrix:
        rows = [0] * self.n
        for u, v in self.edges:
            rows[u] |= 1 << v
        return BoolMatrix(self.n, self.n, tuple(rows))

    def ancestor_bitsets(self, method: str = "traversal") -> tuple[int, ...]:
        """Per-vertex reflexive ancestor sets as bit masks over vertex ids.

        "traversal" accumulates along the topological order, once per dag;
        "squaring" closes the adjacency matrix by repeated Boolean squaring.
        Both produce identical sets.
        """
        if method == "traversal":
            return self._ancestors
        if method == "squaring":
            m = self.adjacency()
            rows = [r | (1 << i) for i, r in enumerate(m.row_bits)]
            m = BoolMatrix(self.n, self.n, tuple(rows))
            steps = max(1, (self.n - 1).bit_length())
            for _ in range(steps):
                m = bool_product(m, m)
            return transpose(m).row_bits  # reach[u, v]: ancestors of v sit in column v
        raise ValueError(f"unknown closure method {method!r}")

    def descendant_bitsets(self) -> tuple[int, ...]:
        """Per-vertex reflexive descendant sets as bit masks, built once per dag."""
        return self._descendants

    # the bitsets are tuples, so callers cannot change the cached copies
    @cached_property
    def _ancestors(self) -> tuple[int, ...]:
        anc = [1 << v for v in range(self.n)]
        for v in self.topo_order:
            for p in self.parents[v]:
                anc[v] |= anc[p]
        return tuple(anc)

    @cached_property
    def _descendants(self) -> tuple[int, ...]:
        desc = [1 << v for v in range(self.n)]
        for v in reversed(self.topo_order):
            for c in self.children[v]:
                desc[v] |= desc[c]
        return tuple(desc)


def random_dag(n: int, density: float, seed: int) -> Dag:
    """Random dag: a hidden topological order with independent forward edges."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = np_stream(seed, 21)
    perm = rng.permutation(n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((int(perm[i]), int(perm[j])))
    return Dag(n, tuple(edges))


def demo_dag() -> Dag:
    """Six-vertex dag whose pair (1, 2) has two lowest common ancestors.

    Vertices 4 and 5 are both LCAs of (1, 2); vertex 5 is the only LCA of
    (0, 2); for (0, 1) the common ancestor 5 is excluded by its descendant 3.
    """
    return Dag(6, ((3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (5, 3)))


def ancestor_matrix(dag: Dag, method: str = "traversal") -> BoolMatrix:
    """Reflexive ancestor relation: entry (u, v) is 1 iff v is an ancestor of u."""
    return BoolMatrix(dag.n, dag.n, dag.ancestor_bitsets(method))


def lca_matrix(dag: Dag, method: str = "traversal") -> tuple[BoolMatrix, tuple[int, ...]]:
    """Topologically renumbered ancestor matrix for the LCA reduction.

    Returns (M, order): M[x, y] = 1 iff order[y] is an ancestor of order[x].
    The maximum witness of M x M^T at (x, y) is then the renumbered deepest
    common ancestor of order[x] and order[y].
    """
    order = tuple(dag.topo_order)
    perm = np.asarray(order, np.int64)
    return BoolMatrix.from_dense(ancestor_matrix(dag, method).to_dense()[np.ix_(perm, perm)]), order


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
    wm, _ = SOLVERS[LCA_SOLVERS[solver]].run(m, transpose(m), ell, beta, seed)
    w = wm.array
    order_arr = np.asarray(order, np.int64)
    renum = np.where(w >= 0, order_arr[np.clip(w, 0, None)], np.int64(-1))
    rank_arr = np.asarray(dag.rank, np.int64)
    return renum[np.ix_(rank_arr, rank_arr)]


def brute_force_lca_set(dag: Dag, u: int, v: int) -> list[int]:
    """All LCAs of (u, v) by definition: common ancestors that are maximal."""
    anc = dag.ancestor_bitsets()
    desc = dag.descendant_bitsets()
    common = anc[u] & anc[v]
    # keep w when no proper descendant of w is also common
    return [w for w in set_bits(common) if desc[w] & common == 1 << w]


def lca_errors(dag: Dag, lca: np.ndarray) -> int:
    """Number of pairs whose entry in an all-pairs LCA array is not one of their LCAs.

    An entry of -1 is correct exactly when the pair has no common ancestor.
    """
    n = dag.n
    anc = ancestor_matrix(dag).to_dense()
    below = BoolMatrix(n, n, dag.descendant_bitsets()).to_dense()
    np.fill_diagonal(below, 0)  # proper descendants
    packed_anc = np.packbits(anc, axis=1)
    packed_below = np.packbits(below, axis=1)
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
        edges = []
        seen = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError("self-loops are not allowed")
            key = (u, v) if self.directed else (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                edges.append(key)
        self.edges = tuple(edges)

    def adjacency(self) -> BoolMatrix:
        rows = [0] * self.n
        for u, v in self.edges:
            rows[u] |= 1 << v
            if not self.directed:
                rows[v] |= 1 << u
        return BoolMatrix(self.n, self.n, tuple(rows))

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
    edges = []
    for u in range(n):
        vs = range(n) if directed else range(u + 1, n)
        for v in vs:
            if u != v and rng.random() < density:
                edges.append((u, v))
    weights = tuple(float(w) for w in rng.random(n))
    return VertexWeightedGraph(n, tuple(edges), weights, directed)


def _permuted_witnesses(adj: BoolMatrix, order: list[int]) -> tuple[WitnessMatrix, list[int]]:
    # columns of the left factor and rows of the right factor follow `order`,
    # so witness k stands for original vertex order[k] and the maximum witness
    # is the common neighbour that comes last in `order`
    dense = adj.to_dense()
    perm = np.asarray(order, np.int64)
    left = BoolMatrix.from_dense(dense[:, perm])
    right = BoolMatrix.from_dense(dense[perm, :])
    return max_witness_oracle(left, right), order


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
    adj = g.adjacency()
    order = g.weight_order(descending=lightest)
    wm, order = _permuted_witnesses(adj, order)
    w = wm.array
    out: dict[tuple[int, int], int | None] = {}
    for u, v in g.edges:
        k = int(w[u, v])
        out[(u, v)] = order[k] if k >= 0 else None
    return out


def max_weight_two_edge_paths(g: VertexWeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Best middle vertex of a two-edge path u -> k -> v for every pair.

    Open-variant path weight: only the middle vertex counts, endpoint weights
    are ignored. Returns (mid, weight): mid[u, v] is the middle vertex
    maximizing its weight (-1 when no such path; ties broken towards the
    larger id) and weight[u, v] is that vertex's weight (NaN where mid is -1).
    """
    adj = g.adjacency()
    order = g.weight_order()
    wm, order = _permuted_witnesses(adj, order)
    w = wm.array
    order_arr = np.asarray(order, np.int64)
    mid = np.where(w >= 0, order_arr[np.clip(w, 0, None)], np.int64(-1))
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
