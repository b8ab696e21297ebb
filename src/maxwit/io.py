"""File formats: matrices (text and binary), graphs, canonical reports.

Matrix text format: a "rows cols" header line, then one line of 0/1
characters per row.

Matrix binary format: a 16-byte header (magic b"BMAT", u32 rows, u32 cols,
both little-endian, 4 reserved zero bytes) followed by each row packed into
ceil(cols/64)*8 bytes, little-endian. ``load_matrix`` sniffs the magic and
accepts either format.

Graph text format: a header "n m [directed] [weighted]", then m lines "u v",
then, when weighted, one line of n vertex weights.

Reports are written with ``canonical_json``: the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` plus a trailing newline, so
equal runs produce byte-identical files. Every output of the package's
problems is a set of entries of an n x n result, so every report table is
a ``RowBlock`` over the result's (n, n) arrays; this module alone knows the
row format. ``canonical_json`` renders a table with ``%``-templates over
chunks of rows and the rest of the report with ``json.dumps``, giving the
same bytes as ``json.dumps`` of the list of its rows' dicts, and
``write_csv`` writes it as CSV lines. Both take the rows one block of whole
matrix rows at a time and write chunk by chunk into an open text stream,
so no report or table is ever held whole; a table is checked when it is
built, and the writers make every other check before their first write.

``read_witness_report`` reads a witness report back from its file. One
pass finds the end of a canonical entries block and parses the small rest;
a second decodes the block with numpy, one window of about 1 MiB at a
time, so the witness matrix is filled without the file or its rows ever
being held whole. Any other document is read once as text and goes
through ``json.loads``, with its errors.
"""
from __future__ import annotations

import json
from io import TextIOWrapper
from pathlib import Path
from typing import Callable

import numpy as np

from .boolmat import _BLOCK_ENTRIES, BoolMatrix
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
    "read_witness_report",
    "write_csv",
]

MATRIX_MAGIC = b"BMAT"
# rows per %-template call; bounds the Python objects alive at once
_CHUNK_ROWS = 4096
# what json.dumps writes for a RowBlock until its rows are spliced in
_STAND_IN = "\x00rows%d\x00"
# the line that opens a witness report's entries block, as canonical_json writes it
_ENTRIES = b'"entries": ['
# bytes of a canonical entries block decoded at once
_WINDOW = 1 << 20
# longest digit run decoded by numpy: every 18-digit integer fits in int64
_MAX_DIGITS = 18


class RowBlock:
    """A report table: one row per entry (i, j) of (n, n) result arrays, in
    row-major order.

    ``index`` names the two index keys, ``values`` maps each value key to an
    (n, n) int64 or float64 array, and an entry is a cell where the first of
    them is non-negative. With ``list_key``, row (i, j) also lists the
    non-negative cells of ``lists[i, j]``, an (n, n, k) integer array padded
    with negative cells, and the entries are the cells that list anything.
    ``off`` is added to every integer, as each is an index. Floats must be
    finite where the first value is non-negative. CSV columns come in
    ``keys`` order, the list last, one line per listed value.
    """

    __slots__ = ("index", "values", "off", "list_key", "lists", "keys")

    def __init__(self, index, values: dict, off: int = 0, list_key: str | None = None, lists=None):
        first = next(iter(values.values()), lists)
        if len(index) != 2 or first is None or (list_key is None) != (lists is None):
            raise ValueError("a row block needs two index keys and value arrays or a list key with its slots")
        shape = first.shape[:2]
        if len(shape) != 2 or any(v.shape != shape or v.dtype not in (np.int64, np.float64) for v in values.values()):
            raise ValueError("row block values must be int64 or float64 arrays of one 2-D shape")
        if lists is not None and (lists.ndim != 3 or lists.shape[:2] != shape or lists.dtype.kind not in "iu"):
            raise ValueError("a list column must be an (n, n, k) integer array of the values' shape")
        # a finite float's JSON is its repr, which the templates write
        if any(v.dtype.kind == "f" and not (np.isfinite(v) | ~(first >= 0)).all() for v in values.values()):
            raise ValueError("row block floats must be finite where the first value is non-negative")
        self.index, self.values, self.off = tuple(index), values, off
        self.list_key, self.lists = list_key, lists
        self.keys = (*self.index, *values)

    def chunks(self):
        """(columns, lists) for the entries of successive blocks of whole
        rows of about _BLOCK_ENTRIES cells, skipping blocks with none:
        columns maps each of ``keys`` to a 1-D array, lists is the entries'
        (entries, k) slots or None; offsets are added in place."""
        src = next(iter(self.values.values())) if self.lists is None else self.lists
        step = max(1, _BLOCK_ENTRIES // src.shape[1])
        for s in range(0, len(src), step):
            present = src[s : s + step] >= 0
            i, j = np.nonzero(present if self.lists is None else present.any(axis=-1))
            if not len(i):
                continue
            i += s
            columns = {self.index[0]: i, self.index[1]: j}
            columns.update((key, v[i, j]) for key, v in self.values.items())
            lists = None if self.lists is None else self.lists[i, j]
            if self.off:
                for x in columns.values():
                    if x.dtype == np.int64:
                        x += self.off
                if lists is not None:  # widened first; padding stays negative
                    lists = lists.astype(np.int64)
                    np.add(lists, self.off, out=lists, where=lists >= 0)
            yield columns, lists


def _interleave(cols: list[np.ndarray], lists, at: int) -> np.ndarray:
    """All values row after row: each row's cols in order, with the
    non-negative cells of its row of lists (if any) placed before column ``at``."""
    width = 0 if lists is None else lists.shape[1]
    ints = all(c.dtype.kind in "iu" for c in cols)  # lists are integers
    out = np.empty((len(cols[0]), len(cols) + width), np.int64 if ints else object)
    for pos, c in enumerate(cols):
        out[:, pos + (width if pos >= at else 0)] = c
    if lists is None:
        return out.ravel()
    out[:, at : at + width] = lists
    keep = np.ones(out.shape, bool)
    keep[:, at : at + width] = lists >= 0
    return out[keep]


def _format_rows(cols: list[np.ndarray], lists, at: int, template, lead: str, sep: str):
    """Yield the rows' text, one piece per chunk of rows.

    Row r is ``template(length) % values``, its values being the row's cols
    with the ``length`` non-negative cells of lists[r] placed before column
    at. Without lists, lists is None and every row takes ``template(0)``.
    Rows are joined by sep and the first is preceded by lead.
    """
    cache: dict[int, str] = {}
    for s in range(0, len(cols[0]), _CHUNK_ROWS):
        part = [c[s : s + _CHUNK_ROWS] for c in cols]
        if lists is None:
            values = _interleave(part, None, at)
            pieces = [cache.setdefault(0, template(0))] * len(part[0])
        else:
            cells = lists[s : s + _CHUNK_ROWS]
            values = _interleave(part, cells, at)
            chunk = np.count_nonzero(cells >= 0, axis=1).tolist()
            for length in set(chunk) - cache.keys():
                cache[length] = template(length)
            pieces = [cache[length] for length in chunk]
        text = (sep if s else lead) + sep.join(pieces)
        yield text % tuple(values.tolist())


def _json_rows(block: RowBlock, indent: str):
    """Pieces of json.dumps(rows, indent=2, sort_keys=True) for the list of
    the block's rows as dicts, nested at ``indent``."""
    pad, inner = indent + "  ", indent + "    "
    keys = sorted([*block.keys, *([block.list_key] if block.list_key is not None else [])])
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

    at = 0 if block.list_key is None else keys.index(block.list_key)
    lead = "[\n"
    for columns, lists in block.chunks():
        cols = [columns[key] for key in keys if key != block.list_key]
        yield from _format_rows(cols, lists, at, template, lead, ",\n")
        lead = ",\n"
    yield "[]" if lead == "[\n" else "\n" + indent + "]"


def canonical_json(obj, out) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True)`` and a newline to
    the text stream ``out``, each RowBlock written as the list of its rows'
    dicts. Every check runs before the first write."""
    blocks: list[RowBlock] = []

    def stand_in(o):
        if not isinstance(o, RowBlock):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        blocks.append(o)
        return _STAND_IN % (len(blocks) - 1)

    text = json.dumps(obj, indent=2, sort_keys=True, default=stand_in)
    marks = [json.dumps(_STAND_IN % idx) for idx in range(len(blocks))]
    for mark in marks:
        if text.count(mark) != 1:
            raise ValueError(f"a report string equals the stand-in {mark}")
    pos = 0
    for block, mark in zip(blocks, marks):
        at = text.index(mark)
        line = text[text.rfind("\n", 0, at) + 1 : at]
        out.write(text[pos:at])
        out.writelines(_json_rows(block, line[: len(line) - len(line.lstrip(" "))]))
        pos = at + len(mark)
    out.write(text[pos:] + "\n")


def read_witness_report(path: str | Path, build: Callable):
    """``build(doc)`` for the JSON document ``doc`` in the witness report file
    at ``path``; the file is closed when this returns.

    When the first ``"entries": [`` in the file opens a block with exactly
    the layout ``canonical_json`` writes for (i, j, witness) rows, and that
    block is ``result.entries`` or, in a bare document, ``entries``, the
    document holds it as an iterator over its rows: (count, 3) int64 arrays
    that numpy decodes from the open file, one window of about ``_WINDOW``
    bytes at a time, and that ``WitnessMatrix.from_json_dict`` reads like the
    list. The block must keep that layout to its end. If a window does not,
    then whatever build returned or raised is dropped, and build gets
    ``json.loads`` of the file's text as ``Path.read_text`` decodes it, so a
    document that is not canonical fails with the errors of json.loads.
    """
    with open(path, "rb") as fh:
        found = _canonical_witness_document(fh)
        if found is not None:
            doc, windows = found
            try:
                result, error = build(doc), None
            except Exception as exc:  # it stands only if the whole block is canonical
                result, error = None, exc
            for _ in windows:  # the layout of the windows build did not read
                pass
            if windows.canonical:
                if error is not None:
                    raise error
                return result
            del result, error  # a partly filled matrix, freed before the whole file is read
        fh.seek(0)
        # the text is read once, decoded as Path.read_text decodes it, and
        # freed when json.loads returns
        doc = json.loads(TextIOWrapper(fh, encoding="locale").read())
    return build(doc)


def _find(fh, sub: bytes, pos: int) -> int:
    """The first offset at or after pos where sub starts in the open binary
    file fh, or -1; the file is read in chunks of _WINDOW bytes."""
    fh.seek(pos)
    keep = b""  # the end of the last chunk, where a match may start
    while chunk := fh.read(_WINDOW):
        buf = keep + chunk
        at = buf.find(sub)
        if at >= 0:
            return pos - len(keep) + at
        pos += len(chunk)
        keep = buf[max(0, len(buf) - len(sub) + 1) :]
    return -1


def _canonical_witness_document(fh):
    """(document, windows) for a canonical witness report in the open binary
    file fh, or None.

    The block is left out and ``NaN`` spliced in its place; json.loads of
    the small rest must then meet exactly one constant, at the entries key,
    which becomes the block's ``_EntryWindows``. A canonical block holds no
    "]", so its end is the first one after it.
    """
    at = _find(fh, _ENTRIES, 0)
    if at < 0:
        return None
    start = at + len(_ENTRIES) - 1  # the "["
    fh.seek(0)
    head = fh.read(start + 2)
    indent = head[head.rfind(b"\n", 0, at) + 1 : at]
    close = _find(fh, b"]", start)
    end = close - len(indent) - 1  # the "\n" before the closing line
    if indent.strip(b" ") or head[start + 1 :] != b"\n" or close < 0 or end <= start + 1:
        return None  # empty blocks are left to json.loads
    fh.seek(end)
    if fh.read(close - end) != b"\n" + indent:
        return None
    fh.seek(close + 1)
    rest = head[:start] + b"NaN" + fh.read()
    if not rest.isascii():  # read_text could decode it differently
        return None
    constants: list[str] = []

    def constant(name: str) -> list:
        constants.append(name)
        return constants  # an object no JSON value can be

    try:
        doc = json.loads(rest, parse_constant=constant)
    except ValueError:
        return None
    holder = doc.get("result", doc) if isinstance(doc, dict) else None
    if constants != ["NaN"] or not isinstance(holder, dict) or holder.get("entries") is not constants:
        return None
    windows = _EntryWindows(fh, start + 2, end, indent.decode())
    holder["entries"] = windows
    return doc, windows


class _EntryWindows:
    """Iterator over the (count, 3) int64 (i, j, witness) rows of the entries
    at offsets [body, end) of the open binary file fh, decoded from windows
    of about _WINDOW bytes cut at entry boundaries. It stops, with
    ``canonical`` set False, at the first window that is not in the layout
    ``_json_rows`` writes at ``indent``."""

    def __init__(self, fh, body: int, end: int, indent: str):
        zeros = RowBlock(("i", "j"), {"witness": np.zeros((1, 1), np.int64)})
        # one entry with every value written "0", and the ",\n" that follows it
        self.unit = "".join(_json_rows(zeros, indent))[2 : -len(indent) - 2].encode() + b",\n"
        self.cut_mark = b"},\n" + self.unit[: self.unit.index(b"{") + 1]
        self.fh, self.pos, self.end = fh, body, end
        self.canonical = True

    def __iter__(self):
        return self

    def __next__(self) -> np.ndarray:
        if not self.canonical or self.pos >= self.end:
            raise StopIteration
        self.fh.seek(self.pos)
        buf = self.fh.read(min(self.end - self.pos, 2 * _WINDOW + len(self.cut_mark)))
        cut = buf.find(self.cut_mark, _WINDOW)
        stop = len(buf) if cut < 0 else cut + 3  # a window ends after its last entry's ",\n"
        # a canonical block has an entry boundary within one entry; with no
        # cut, the window must reach the block's end
        values = None
        if stop <= 2 * _WINDOW and (cut >= 0 or self.pos + stop == self.end):
            values = _window_values(np.frombuffer(buf, np.uint8, stop), self.unit, last=cut < 0)
        if values is None:
            self.canonical = False
            raise StopIteration
        self.pos += stop
        return values.reshape(-1, 3)


def _window_values(window: np.ndarray, unit: bytes, last: bool) -> np.ndarray | None:
    """The integers in ``window``, in order, if collapsing each run of digits
    to one "0" gives ``unit`` repeated (without the final ",\n" when
    ``last``) and no run has a leading zero or more than _MAX_DIGITS digits;
    else None."""
    digit = (window - np.uint8(48)) < 10
    if digit[0] or digit[-1]:
        return None
    edges = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    lengths = ends - starts
    width = int(lengths.max(initial=0))
    if len(starts) % 3 or width > _MAX_DIGITS or ((window[starts] == 48) & (lengths > 1)).any():
        return None
    keep = ~digit
    keep[starts] = True
    skeleton = window[keep]
    del digit, keep  # a window's size each: freed before the comparison's copies
    skeleton[starts - np.cumsum(lengths - 1) + (lengths - 1)] = 48
    want = unit * (len(starts) // 3)
    if skeleton.tobytes() != (want[:-2] if last else want):
        return None
    values = np.zeros(len(starts), np.int64)
    for back in range(width, 0, -1):  # most significant digit first; short runs are padded with zeros
        at = ends - back
        values = values * 10 + np.where(at >= starts, window[at] - np.uint8(48), np.uint8(0))
    return values


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
    try:
        return BoolMatrix.from_dense(chars.reshape(rows, cols) == ord("1"))
    except ValueError as exc:  # no rows or columns
        raise ValueError(f"{path}: {exc}") from None


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
        if not np.isfinite(weights).all():  # checked here, so a dag file's weights are too
            raise ValueError(f"{path}: vertex weights must be finite")
    return n, edges, weights, "directed" in flags


def load_graph(path: str | Path) -> VertexWeightedGraph:
    n, edges, weights, directed = _parse_graph(path)
    if weights is None:
        weights = [1.0] * n
    try:
        return VertexWeightedGraph(n, tuple(edges), tuple(weights), directed)
    except ValueError as exc:  # no vertex, an edge out of range, a self-loop
        raise ValueError(f"{path}: {exc}") from None


def load_dag(path: str | Path) -> Dag:
    n, edges, _, _ = _parse_graph(path)
    try:
        return Dag(n, tuple(edges))
    except ValueError as exc:  # no vertex, an edge out of range, a cycle
        raise ValueError(f"{path}: {exc}") from None


def _list_lines(columns: dict, lists: np.ndarray):
    """The columns of a list block's CSV lines, one line per listed value:
    the columns of the row that lists it, then the value. Rows are taken
    about _CHUNK_ROWS list cells at a time."""
    step = max(1, _CHUNK_ROWS // max(1, lists.shape[1]))
    for s in range(0, len(lists), step):
        cells = lists[s : s + step]
        r, t = np.nonzero(cells >= 0)
        yield [c[s + r] for c in columns.values()] + [cells[r, t]]


def write_csv(header: str, block: RowBlock, out) -> None:
    """Write the header line, then one comma-separated line per row (per list
    element when the block has a list column), newline-terminated, to the
    text stream ``out``. The header is checked before the first write."""
    width = len(block.keys) + (block.list_key is not None)
    if len(header.split(",")) != width:
        raise ValueError(f"CSV header {header!r} does not name {width} columns")
    line = ",".join(["%s"] * width)
    out.write(header)
    for columns, lists in block.chunks():
        pieces = [list(columns.values())] if lists is None else _list_lines(columns, lists)
        for cols in pieces:
            out.writelines(_format_rows(cols, None, 0, lambda _: line, "\n", "\n"))
    out.write("\n")
