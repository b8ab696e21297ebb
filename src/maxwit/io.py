"""File formats: matrices (text and binary), graphs, witness reports.

Matrix text format: a "rows cols" header line, then one line of 0/1
characters per row.

Matrix binary format: a 16-byte header (magic b"BMAT", u32 rows, u32 cols,
both little-endian, 4 reserved zero bytes) followed by each row packed into
ceil(cols/64)*8 bytes, little-endian. ``load_matrix`` sniffs the magic and
accepts either format.

Graph text format: a header "n m [directed] [weighted]", then m lines "u v",
then, when weighted, one line of n vertex weights.

Reports are serialized with ``canonical_json`` (sorted keys, two-space
indent, trailing newline) so equal runs produce byte-identical files.
"""
from __future__ import annotations

import json
from pathlib import Path

from .boolmat import BoolMatrix, WitnessMatrix
from .graphs import Dag, VertexWeightedGraph

__all__ = [
    "MATRIX_MAGIC",
    "canonical_json",
    "save_matrix_text",
    "save_matrix_binary",
    "load_matrix",
    "save_graph",
    "save_dag",
    "load_graph",
    "load_dag",
    "write_witness_json",
    "read_witness_json",
    "write_witness_csv",
    "csv_text",
]

MATRIX_MAGIC = b"BMAT"


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_matrix_text(path: str | Path, m: BoolMatrix) -> None:
    lines = [f"{m.rows} {m.cols}"]
    for r in m.row_bits:
        lines.append("".join("1" if (r >> j) & 1 else "0" for j in range(m.cols)))
    Path(path).write_text("\n".join(lines) + "\n")


def save_matrix_binary(path: str | Path, m: BoolMatrix) -> None:
    stride = (m.cols + 63) // 64 * 8
    blob = bytearray(MATRIX_MAGIC)
    blob += m.rows.to_bytes(4, "little")
    blob += m.cols.to_bytes(4, "little")
    blob += b"\x00" * 4
    for r in m.row_bits:
        blob += r.to_bytes(stride, "little")
    Path(path).write_bytes(bytes(blob))


def load_matrix(path: str | Path) -> BoolMatrix:
    raw = Path(path).read_bytes()
    if raw[:4] == MATRIX_MAGIC:
        return _parse_binary(raw, path)
    return _parse_text(raw.decode("utf-8"), path)


def _parse_binary(raw: bytes, path) -> BoolMatrix:
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated matrix header")
    rows = int.from_bytes(raw[4:8], "little")
    cols = int.from_bytes(raw[8:12], "little")
    if raw[12:16] != b"\x00" * 4:
        raise ValueError(f"{path}: reserved header bytes must be zero")
    stride = (cols + 63) // 64 * 8
    need = 16 + rows * stride
    if len(raw) != need:
        raise ValueError(f"{path}: expected {need} bytes, found {len(raw)}")
    bits = []
    limit = (1 << cols) - 1 if cols else 0
    for i in range(rows):
        r = int.from_bytes(raw[16 + i * stride : 16 + (i + 1) * stride], "little")
        if r & ~limit:
            raise ValueError(f"{path}: row {i} has bits beyond column {cols - 1}")
        bits.append(r)
    return BoolMatrix(rows, cols, tuple(bits))


def _parse_text(text: str, path) -> BoolMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        rows, cols = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"{path}: header must be 'rows cols'") from None
    if len(lines) != rows + 1:
        raise ValueError(f"{path}: expected {rows} rows, found {len(lines) - 1}")
    bits = []
    for i, ln in enumerate(lines[1:]):
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise ValueError(f"{path}: row {i} is not {cols} characters of 0/1")
        bits.append(int(ln[::-1], 2) if ln.strip("0") else 0)
    return BoolMatrix(rows, cols, tuple(bits))


def save_graph(path: str | Path, g: VertexWeightedGraph) -> None:
    flags = []
    if g.directed:
        flags.append("directed")
    flags.append("weighted")
    lines = [" ".join([str(g.n), str(len(g.edges))] + flags)]
    lines += [f"{u} {v}" for u, v in g.edges]
    lines.append(" ".join(repr(w) for w in g.weights))
    Path(path).write_text("\n".join(lines) + "\n")


def save_dag(path: str | Path, dag: Dag) -> None:
    lines = [f"{dag.n} {len(dag.edges)} directed"]
    lines += [f"{u} {v}" for u, v in dag.edges]
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_graph(path: str | Path) -> tuple[int, list[tuple[int, int]], list[float] | None, bool]:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    head = lines[0].split()
    if len(head) < 2:
        raise ValueError(f"{path}: header must be 'n m [directed] [weighted]'")
    n, m = int(head[0]), int(head[1])
    flags = set(head[2:])
    if flags - {"directed", "weighted"}:
        raise ValueError(f"{path}: unknown header flags {sorted(flags - {'directed', 'weighted'})}")
    weighted = "weighted" in flags
    need = 1 + m + (1 if weighted else 0)
    if len(lines) != need:
        raise ValueError(f"{path}: expected {need} lines, found {len(lines)}")
    edges = []
    for ln in lines[1 : 1 + m]:
        u, v = map(int, ln.split())
        edges.append((u, v))
    weights = None
    if weighted:
        weights = [float(w) for w in lines[1 + m].split()]
        if len(weights) != n:
            raise ValueError(f"{path}: expected {n} weights, found {len(weights)}")
    return n, edges, weights, "directed" in flags


def load_graph(path: str | Path) -> VertexWeightedGraph:
    n, edges, weights, directed = _parse_graph(path)
    if weights is None:
        weights = [1.0] * n
    return VertexWeightedGraph(n, tuple(edges), tuple(weights), directed)


def load_dag(path: str | Path) -> Dag:
    n, edges, _, _ = _parse_graph(path)
    return Dag(n, tuple(edges))


def write_witness_json(path: str | Path, wm: WitnessMatrix, one_based: bool = False) -> None:
    Path(path).write_text(canonical_json(wm.to_json_dict(one_based)))


def read_witness_json(path: str | Path) -> WitnessMatrix:
    return WitnessMatrix.from_json_dict(json.loads(Path(path).read_text()))


def write_witness_csv(path: str | Path, wm: WitnessMatrix, one_based: bool = False) -> None:
    Path(path).write_text(csv_text("i,j,witness", wm.to_csv_rows(one_based)))


def csv_text(header: str, rows) -> str:
    """A header line, then one comma-separated line per row, newline-terminated."""
    line = ",".join(["%s"] * len(header.split(",")))
    return "\n".join([header, *(line % row for row in rows)]) + "\n"
