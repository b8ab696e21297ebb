"""Seeded input files for the benchmark jobs, written in maxwit's documented formats.

Everything here uses the benchmark's own numpy code, so a change to the
package's generators (``random_matrix``, ``random_dag``, ...) never changes a
workload. Streams are keyed by ``(seed, tag, ...)`` through ``SeedSequence``,
so each file depends only on the run seed and its own tag.

Formats (see the package README):
  * matrix, binary: b"BMAT", u32 rows, u32 cols (little-endian), 4 zero
    bytes, then each row packed LSB-first into ceil(cols/64) u64 words;
  * matrix, text: "rows cols", then one 0/1 line per row, column 0 first;
  * graph: "n m [directed] [weighted]", m lines "u v", then one line of n
    vertex weights when weighted.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


def stream(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def bernoulli_matrix(n: int, density: float, seed: int, *tags: int) -> np.ndarray:
    """Dense (n, n) uint8 0/1 matrix with i.i.d. Bernoulli(density) entries."""
    return (stream(seed, *tags).random((n, n)) < density).astype(np.uint8)


def write_matrix_binary(path: Path, dense: np.ndarray) -> None:
    rows, cols = dense.shape
    stride = (cols + 63) // 64 * 8
    packed = np.zeros((rows, stride), np.uint8)
    packed[:, : (cols + 7) // 8] = np.packbits(dense, axis=1, bitorder="little")
    header = b"BMAT" + rows.to_bytes(4, "little") + cols.to_bytes(4, "little") + bytes(4)
    path.write_bytes(header + packed.tobytes())


def write_matrix_text(path: Path, dense: np.ndarray) -> None:
    rows, cols = dense.shape
    chars = np.full((rows, cols + 1), ord("\n"), np.uint8)
    chars[:, :cols] = np.where(dense != 0, ord("1"), ord("0"))
    path.write_bytes(f"{rows} {cols}\n".encode() + chars.tobytes())


def random_dag_edges(n: int, density: float, seed: int, *tags: int) -> np.ndarray:
    """Edges (parent, child) of a dag: a hidden order with independent forward edges."""
    rng = stream(seed, *tags)
    perm = rng.permutation(n)
    forward = np.triu(rng.random((n, n)) < density, k=1)
    i, j = np.nonzero(forward)
    return np.stack([perm[i], perm[j]], axis=1)


def random_graph(
    n: int, density: float, seed: int, *tags: int, directed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(edges, weights) of a random vertex-weighted graph without self-loops."""
    rng = stream(seed, *tags)
    draw = rng.random((n, n)) < density
    mask = draw & ~np.eye(n, dtype=bool) if directed else np.triu(draw, k=1)
    i, j = np.nonzero(mask)
    return np.stack([i, j], axis=1), rng.random(n)


def write_graph(path: Path, n: int, edges: np.ndarray, weights: np.ndarray | None, directed: bool) -> None:
    flags = (["directed"] if directed else []) + (["weighted"] if weights is not None else [])
    lines = [" ".join([str(n), str(len(edges))] + flags)]
    lines += [f"{u} {v}" for u, v in edges.tolist()]
    if weights is not None:
        lines.append(" ".join(repr(w) for w in weights.tolist()))
    path.write_text("\n".join(lines) + "\n")


def prepare(wl, seed: int, work: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Write every input file of ``wl`` into ``work``; return the dense matrix pairs."""
    dense = {}
    for key, p in wl.pairs.items():
        a = bernoulli_matrix(p.n, p.density, seed, p.tag, 0)
        b = bernoulli_matrix(p.n, p.density, seed, p.tag, 1)
        write_matrix_binary(work / f"{key}.A.bmat", a)
        write_matrix_text(work / f"{key}.B.txt", b)
        dense[key] = (a, b)
    for fname, (kind, n, density, tag) in wl.graphs.items():
        if kind == "dag":
            write_graph(work / fname, n, random_dag_edges(n, density, seed, tag), None, True)
        else:
            directed = kind == "directed"
            edges, weights = random_graph(n, density, seed, tag, directed=directed)
            write_graph(work / fname, n, edges, weights, directed)
    return dense
