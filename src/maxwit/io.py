"""File formats: matrices (text and binary), graphs, canonical reports.

Matrix text format: a "rows cols" header line, then one line of 0/1
characters per row.

Matrix binary format: a 16-byte header (magic b"BMAT", u32 rows, u32 cols,
both little-endian, 4 reserved zero bytes) followed by each row packed into
ceil(cols/64)*8 bytes, little-endian. ``load_matrix`` sniffs the magic and
accepts either format.

Graph text format: a header "n m [directed] [weighted]", then m lines "u v",
then, when weighted, one line of n vertex weights.

Reports are serialized with ``canonical_json``: the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` plus a trailing newline, so
equal runs produce byte-identical files. The rows of a report (witness
entries, k-witness lists, LCA, triangle and two-edge rows) are passed as a
``RowBlock``: named numpy columns, plus at most one variable-length list
column. ``canonical_json`` renders a block with ``%``-templates over chunks
of rows and the rest of the report with ``json.dumps``, giving the same bytes
as ``json.dumps`` of the list of its rows' dicts. ``csv_text`` writes the
same block as CSV lines.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .boolmat import BoolMatrix
from .graphs import Dag, VertexWeightedGraph

__all__ = [
    "MATRIX_MAGIC",
    "RowBlock",
    "canonical_json",
    "save_matrix_text",
    "save_matrix_binary",
    "load_matrix",
    "save_graph",
    "save_dag",
    "load_graph",
    "load_dag",
    "csv_text",
]

MATRIX_MAGIC = b"BMAT"
# rows per %-template call; bounds the Python objects alive at once
_CHUNK_ROWS = 4096
# what json.dumps writes for a RowBlock until its rows are spliced in
_STAND_IN = "\x00rows%d\x00"


class RowBlock:
    """Rows of a report table as named numpy columns, not one dict per row.

    ``columns`` maps each key to a 1-D integer or finite float array holding
    one value per row. ``list_key``, when given, names one more key whose value
    is a list: row r holds the next ``lengths[r]`` values of ``flat``. As CSV,
    the columns come in ``columns`` order and the list column last, with one
    line per list element.
    """

    __slots__ = ("columns", "list_key", "lengths", "flat")

    def __init__(self, columns: dict, list_key: str | None = None, lengths=None, flat=None):
        cols = list(columns.values())
        lists = [] if list_key is None else [lengths, flat]
        if not cols or any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols + lists[:1]):
            raise ValueError("row block columns must be 1-D arrays of one length")
        if lists and (flat.ndim != 1 or flat.size != int(lengths.sum())):
            raise ValueError("flat must hold lengths.sum() values")
        if any(c.dtype.kind not in "iuf" for c in cols + lists):
            raise ValueError("row block columns must hold integers or floats")
        # a finite float's JSON is its repr, which the templates write
        if not all(np.isfinite(c).all() for c in cols + lists if c.dtype.kind == "f"):
            raise ValueError("row block floats must be finite")
        self.columns, self.list_key, self.lengths, self.flat = columns, list_key, lengths, flat

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


def _interleave(cols: list[np.ndarray], lengths: np.ndarray, at: int, flat) -> np.ndarray:
    """All values row after row: each row's cols in order, with its
    lengths[r] next values of flat (if any) placed before column ``at``."""
    width = len(cols) + lengths
    start = np.cumsum(width) - width
    ints = all(c.dtype.kind in "iu" for c in cols) and (flat is None or flat.dtype.kind in "iu")
    out = np.empty(int(width.sum()), np.int64 if ints else object)
    scalar = np.zeros(out.size, dtype=bool)
    for pos, c in enumerate(cols):
        idx = start + pos + (lengths if pos >= at else 0)
        out[idx] = c
        scalar[idx] = True
    if flat is not None:
        out[~scalar] = flat
    return out


def _format_rows(cols: list[np.ndarray], lengths: np.ndarray, at: int, flat, template, lead: str, sep: str):
    """Yield the rows' text, one piece per chunk of rows.

    Row r is ``template(lengths[r]) % values``, its values being the row's
    cols with its lengths[r] next values of flat placed before column at.
    Rows are joined by sep and the first is preceded by lead.
    """
    ends = np.cumsum(lengths)
    cache: dict[int, str] = {}
    for s in range(0, len(lengths), _CHUNK_ROWS):
        lens = lengths[s : s + _CHUNK_ROWS]
        part = None if flat is None else flat[ends[s] - lens[0] : ends[s + len(lens) - 1]]
        values = _interleave([c[s : s + len(lens)] for c in cols], lens, at, part)
        chunk = lens.tolist()
        for length in set(chunk) - cache.keys():
            cache[length] = template(length)
        text = (sep if s else lead) + sep.join([cache[length] for length in chunk])
        yield text % tuple(values.tolist())


def _json_rows(block: RowBlock, indent: str):
    """Pieces of json.dumps(rows, indent=2, sort_keys=True) for the list of
    the block's rows as dicts, nested at ``indent``."""
    if not len(block):
        yield "[]"
        return
    pad, inner = indent + "  ", indent + "    "
    keys = sorted([*block.columns, *([block.list_key] if block.list_key is not None else [])])
    names = {key: json.dumps(key).replace("%", "%%") for key in keys}

    def template(length: int) -> str:
        items = []
        for key in keys:
            if key != block.list_key:
                value = "%s"
            elif length:
                value = "[\n" + ",\n".join([inner + "  %s"] * length) + "\n" + inner + "]"
            else:
                value = "[]"
            items.append(f"{inner}{names[key]}: {value}")
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"

    cols = [block.columns[key] for key in keys if key != block.list_key]
    if block.list_key is None:
        lengths, at = np.zeros(len(block), np.int64), 0
    else:
        lengths, at = block.lengths, keys.index(block.list_key)
    yield from _format_rows(cols, lengths, at, block.flat, template, "[\n", ",\n")
    yield "\n" + indent + "]"


def canonical_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, where
    each RowBlock is written as the list of its rows' dicts."""
    blocks: list[RowBlock] = []

    def stand_in(o):
        if not isinstance(o, RowBlock):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        blocks.append(o)
        return _STAND_IN % (len(blocks) - 1)

    text = json.dumps(obj, indent=2, sort_keys=True, default=stand_in)
    pieces, pos = [], 0
    for idx, block in enumerate(blocks):
        mark = json.dumps(_STAND_IN % idx)
        if text.count(mark) != 1:
            raise ValueError(f"a report string equals the stand-in {mark}")
        at = text.index(mark)
        line = text[text.rfind("\n", 0, at) + 1 : at]
        pieces.append(text[pos:at])
        pieces.extend(_json_rows(block, line[: len(line) - len(line.lstrip(" "))]))
        pos = at + len(mark)
    pieces += [text[pos:], "\n"]
    return "".join(pieces)


def save_matrix_text(path: str | Path, m: BoolMatrix) -> None:
    Path(path).write_text(f"{m.rows} {m.cols}\n{m}\n")


def save_matrix_binary(path: str | Path, m: BoolMatrix) -> None:
    header = MATRIX_MAGIC + m.rows.to_bytes(4, "little") + m.cols.to_bytes(4, "little") + b"\x00" * 4
    Path(path).write_bytes(header + m.words.tobytes())


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
    if len(raw) != need:  # checked before anything of size rows * stride is allocated
        raise ValueError(f"{path}: expected {need} bytes, found {len(raw)}")
    words = np.frombuffer(raw, "<u8", offset=16).reshape(rows, stride // 8)
    try:
        return BoolMatrix(rows, cols, words)
    except ValueError as exc:  # no rows or columns, or bits in a row's padding
        raise ValueError(f"{path}: {exc}") from None


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
    lengths = np.fromiter(map(len, lines[1:]), np.int64, rows)
    chars = np.frombuffer("".join(lines[1:]).encode("ascii", "replace"), np.uint8)  # non-ASCII: "?"
    if (lengths != cols).any() or chars.min(initial=ord("0")) < ord("0") or chars.max(initial=0) > ord("1"):
        # the first row that is too long, too short or holds another character
        stray = np.flatnonzero((chars != ord("0")) & (chars != ord("1")))[:1]
        bad = [*np.flatnonzero(lengths != cols)[:1], *np.searchsorted(np.cumsum(lengths), stray, side="right")]
        raise ValueError(f"{path}: row {min(bad)} is not {cols} characters of 0/1")
    return BoolMatrix.from_dense(chars.reshape(rows, cols) == ord("1"))


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
    numbered = [(no, ln.strip()) for no, ln in enumerate(Path(path).read_text().splitlines(), 1) if ln.strip()]
    if not numbered:
        raise ValueError(f"{path}: empty graph file")
    (head_no, head_line), body = numbered[0], numbered[1:]
    head = head_line.split()
    try:
        n, m = int(head[0]), int(head[1])
    except (IndexError, ValueError):
        raise ValueError(f"{path}: line {head_no}: header must be 'n m [directed] [weighted]'") from None
    if m < 0:
        raise ValueError(f"{path}: line {head_no}: edge count must be nonnegative, got {m}")
    flags = set(head[2:])
    if flags - {"directed", "weighted"}:
        raise ValueError(f"{path}: unknown header flags {sorted(flags - {'directed', 'weighted'})}")
    weighted = "weighted" in flags
    need = 1 + m + (1 if weighted else 0)
    if len(numbered) != need:
        raise ValueError(f"{path}: expected {need} lines, found {len(numbered)}")
    edges = []
    for no, ln in body[:m]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"{path}: line {no}: an edge must be two integers 'u v', got {ln!r}") from None
        edges.append((u, v))
    weights = None
    if weighted:
        no, ln = body[m]
        try:
            weights = [float(w) for w in ln.split()]
        except ValueError as exc:  # names the first word that is no number
            raise ValueError(f"{path}: line {no}: {exc}") from None
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


def csv_text(header: str, block: RowBlock) -> str:
    """The header line, then one comma-separated line per row (per list
    element when the block has a list column), newline-terminated."""
    cols = list(block.columns.values())
    if block.list_key is not None:
        cols = [np.repeat(c, block.lengths) for c in cols] + [block.flat]
    if len(header.split(",")) != len(cols):
        raise ValueError(f"CSV header {header!r} does not name {len(cols)} columns")
    line = ",".join(["%s"] * len(cols))
    lines = _format_rows(cols, np.zeros(len(cols[0]), np.int64), 0, None, lambda _: line, "\n", "\n")
    return "".join([header, *lines, "\n"])
