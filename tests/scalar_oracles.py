"""Independent scalar reference implementations used as test oracles.

Everything here is written as plain Python loops over dense 0/1 lists,
with no bitset tricks and no imports from the package under test. Slow
on purpose: the point is that these cannot share a bug with the
bit-parallel implementations they check.
"""
from __future__ import annotations

import math


def dense_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Boolean matrix product by triple loop."""
    p = len(a)
    q = len(a[0]) if p else 0
    r = len(b[0]) if b else 0
    assert len(b) == q
    out = [[0] * r for _ in range(p)]
    for i in range(p):
        for j in range(r):
            for k in range(q):
                if a[i][k] and b[k][j]:
                    out[i][j] = 1
                    break
    return out


def max_witness_entry(a: list[list[int]], b: list[list[int]], i: int, j: int) -> int:
    """Largest k with a[i][k] = b[k][j] = 1, or -1 when C[i][j] = 0."""
    for k in range(len(b) - 1, -1, -1):
        if a[i][k] and b[k][j]:
            return k
    return -1


def max_witness_dense(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    p = len(a)
    r = len(b[0]) if b else 0
    return [[max_witness_entry(a, b, i, j) for j in range(r)] for i in range(p)]


def witness_list_entry(a: list[list[int]], b: list[list[int]], i: int, j: int) -> list[int]:
    """All witnesses for (i, j), descending."""
    return [k for k in range(len(b) - 1, -1, -1) if a[i][k] and b[k][j]]


def witness_count_entry(a: list[list[int]], b: list[list[int]], i: int, j: int) -> int:
    return len(witness_list_entry(a, b, i, j))


def rank_of_entry(a: list[list[int]], b: list[list[int]], i: int, j: int, k: int) -> int:
    """1-based position of witness k in the descending witness list."""
    wits = witness_list_entry(a, b, i, j)
    assert k in wits
    return wits.index(k) + 1


def lca_set(n: int, edges: list[tuple[int, int]], x: int, y: int) -> set[int]:
    """All lowest common ancestors of x and y by exhaustive check.

    Edges point parent -> child and every vertex is its own ancestor.
    A common ancestor w is lowest when no other common ancestor is a
    proper descendant of w.
    """
    children: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        children[u].append(v)

    def descendants(v: int) -> set[int]:
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in children[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    desc = {v: descendants(v) for v in range(n)}
    common = [w for w in range(n) if x in desc[w] and y in desc[w]]
    out = set()
    for w in common:
        if not any(u != w and u in desc[w] for u in common):
            out.add(w)
    return out


def heaviest_triangle_apex(
    n: int,
    edges: set[tuple[int, int]],
    weights: list[float],
    u: int,
    v: int,
    lightest: bool = False,
) -> int | None:
    """Apex of the max-weight (or min-weight) triangle through edge (u, v).

    Weight of a triangle is the weight of its apex vertex. Ties broken
    toward the larger vertex id for heaviest, smaller for lightest.
    """
    best: int | None = None
    for w in range(n):
        if w in (u, v):
            continue
        if (min(u, w), max(u, w)) in edges and (min(v, w), max(v, w)) in edges:
            if best is None:
                best = w
            elif lightest:
                if (weights[w], w) < (weights[best], best):
                    best = w
            else:
                if (weights[w], w) > (weights[best], best):
                    best = w
    return best


def best_two_edge_path(
    n: int,
    arcs: set[tuple[int, int]],
    weights: list[float],
    i: int,
    j: int,
) -> tuple[int, float] | None:
    """Max-weight midpoint of a directed path i -> mid -> j, mid not in {i, j}."""
    best: int | None = None
    for mid in range(n):
        if mid in (i, j):
            continue
        if (i, mid) in arcs and (mid, j) in arcs:
            if best is None or (weights[mid], mid) > (weights[best], best):
                best = mid
    if best is None:
        return None
    return best, weights[best]


def packed_words_row(row: list[int], words: int) -> list[int]:
    """A 0/1 row as ``words`` 64-bit words: bit k of the row is bit k % 64
    of word k // 64, and the words past the row stay zero."""
    out = [0] * words
    for k, bit in enumerate(row):
        if bit:
            out[k // 64] |= 1 << (k % 64)
    return out


def top_bit(x: int) -> int:
    """Index of the highest set bit of a 64-bit word, scanning down; -1 for 0."""
    for k in range(63, -1, -1):
        if (x >> k) & 1:
            return k
    return -1


def adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """Dense 0/1 adjacency: entry [u][v] is 1 iff the edge u -> v exists."""
    out = [[0] * n for _ in range(n)]
    for u, v in edges:
        out[u][v] = 1
    return out


def closure_by_squaring(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """Reflexive reachability by repeated Boolean squaring of adjacency + I.

    Entry [u][v] is 1 iff v is reachable from u, that is, u is an ancestor
    of v. ceil(log2(n - 1)) squarings (at least one) cover every path.
    """
    reach = adjacency(n, edges)
    for v in range(n):
        reach[v][v] = 1
    for _ in range(max(1, (n - 1).bit_length())):
        reach = dense_product(reach, reach)
    return reach


def durr_hoyer_outcome(q: int, budget: float = 22.5, growth: float = 1.2) -> tuple[float, float]:
    """(expected queries, probability of ending on the minimum) of one minimum-finding
    run over a length-q table, q >= 2, by backward recursion over its state.

    The run follows the scalar reference: it starts at a uniform sorted position
    after one query and, while its queries stay below budget * sqrt(q), draws
    j = floor(u * m) Grover iterations (u uniform on [0, 1)), spends j + 1
    queries, and hits with probability sin^2((2j + 1) asin(sqrt(pos / q))). A
    hit moves to a uniform position below pos and resets m to 1; a miss sets
    m to min(growth * m, sqrt(q)). value[s][l][pos] is the pair for a run about
    to step with s queries spent at the l-th value of m.
    """
    cap = math.sqrt(q)
    limit = budget * cap
    ms = [1.0]
    while ms[-1] < cap:
        ms.append(min(ms[-1] * growth, cap))
    top = len(ms) - 1

    def p_hit(pos: int, j: int) -> float:
        return math.sin((2 * j + 1) * math.asin(math.sqrt(pos / q))) ** 2

    value: dict[int, list[list[tuple[float, float]]]] = {}
    below: dict[int, list[tuple[float, float]]] = {}  # per s: sums over positions below pos at m = 1
    s = math.ceil(limit) - 1
    while s >= 1:
        rows = []
        for lev, m in enumerate(ms):
            row = []
            for pos in range(q):
                queries = found = 0.0
                t = 0
                while t < m:
                    w = (min(t + 1, m) - t) / m
                    h = p_hit(pos, t) if pos else 0.0
                    after = s + t + 1
                    if after >= limit:  # the run stops here
                        miss = (after, float(pos == 0))
                        hit = (after, 1 / pos if pos else 0.0)
                    else:
                        miss = value[after][min(lev + 1, top)][pos]
                        hit = tuple(x / pos for x in below[after][pos]) if pos else (0.0, 0.0)
                    queries += w * (h * hit[0] + (1 - h) * miss[0])
                    found += w * (h * hit[1] + (1 - h) * miss[1])
                    t += 1
                row.append((queries, found))
            rows.append(row)
        value[s] = rows
        sums, acc_q, acc_f = [], 0.0, 0.0
        for queries, found in rows[0]:
            sums.append((acc_q, acc_f))
            acc_q += queries
            acc_f += found
        below[s] = sums
        s -= 1
    start = value[1][0]
    return sum(v[0] for v in start) / q, sum(v[1] for v in start) / q


def durr_hoyer_final_positions(q: int, budget: float = 22.5, growth: float = 1.2) -> list[float]:
    """Probability that one minimum-finding run over a length-q table, q >= 2,
    ends at each sorted position, by pushing its mass forward over its state.

    The run is the one of durr_hoyer_outcome. mass[s][l][pos] is the chance
    that a run is about to step with s queries spent at the l-th value of m;
    below[s][pos] is the hit mass that lands on each position under pos at
    m = 1 with s queries spent, and stopped_below the same for runs whose hit
    ends them.
    """
    cap = math.sqrt(q)
    limit = budget * cap
    ms = [1.0]
    while ms[-1] < cap:
        ms.append(min(ms[-1] * growth, cap))
    top = len(ms) - 1
    p_hit = [[math.sin((2 * j + 1) * math.asin(math.sqrt(pos / q))) ** 2 for j in range(math.ceil(cap))]
             for pos in range(q)]
    last = math.ceil(limit)
    mass = [[[0.0] * q for _ in ms] for _ in range(last)]
    below = [[0.0] * q for _ in range(last)]
    final, stopped_below = [0.0] * q, [0.0] * q
    mass[1][0] = [1 / q] * q  # the initial threshold query, at a uniform position

    def land(row: list[float], spread: list[float]) -> None:
        acc = 0.0
        for pos in range(q - 1, -1, -1):
            row[pos] += acc
            acc += spread[pos]

    for s in range(1, last):
        land(mass[s][0], below[s])
        for lev, m in enumerate(ms):
            for pos, x in enumerate(mass[s][lev]):
                if x == 0.0:
                    continue
                t = 0
                while t < m:
                    w = x * (min(t + 1, m) - t) / m
                    h = p_hit[pos][t] if pos else 0.0
                    after = s + t + 1
                    if after >= limit:  # the run stops here
                        final[pos] += w * (1 - h)
                        if pos:
                            stopped_below[pos] += w * h / pos
                    else:
                        mass[after][min(lev + 1, top)][pos] += w * (1 - h)
                        if pos:
                            below[after][pos] += w * h / pos
                    t += 1
    land(final, stopped_below)
    return final
