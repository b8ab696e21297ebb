"""File formats: text/binary matrices, graphs, dags, row blocks and reports."""
from __future__ import annotations

import io
import json
import re
from collections.abc import Iterator
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maxwit import cli
from maxwit.boolmat import BoolMatrix, WitnessMatrix, max_witness_oracle, random_matrix
from maxwit.witness import k_witness
from maxwit.cli import main
from maxwit.graphs import (
    Dag,
    VertexWeightedGraph,
    all_pairs_lca,
    demo_dag,
    heaviest_triangle_per_edge,
    max_weight_two_edge_paths,
    random_dag,
    random_weighted_graph,
)
from maxwit.io import (
    _BLOCK_ENTRIES,
    _CHUNK_ROWS,
    _ENTRIES,
    MATRIX_MAGIC,
    RowBlock,
    _find,
    canonical_json,
    load_dag,
    load_graph,
    load_matrix,
    read_witness_report,
    save_dag,
    save_graph,
    save_matrix_binary,
    save_matrix_text,
    write_csv,
)


def _json_text(obj) -> str:
    out = io.StringIO()
    canonical_json(obj, out)
    return out.getvalue()


def _csv_text(header: str, block: RowBlock) -> str:
    out = io.StringIO()
    write_csv(header, block, out)
    return out.getvalue()


def test_matrix_text_roundtrip(tmp_path):
    for n, cols in ((1, 1), (5, 9), (10, 64), (3, 70)):
        m = BoolMatrix.from_dense(random_matrix(max(n, cols), 0.4, seed=n).to_dense()[:n, :cols])
        p = tmp_path / f"m{n}x{cols}.txt"
        save_matrix_text(p, m)
        assert load_matrix(p) == m


def test_matrix_text_format_is_human_readable(tmp_path):
    p = tmp_path / "m.txt"
    save_matrix_text(p, BoolMatrix.from_rows([[1, 0, 1], [0, 1, 0]]))
    assert p.read_text() == "2 3\n101\n010\n"


def test_matrix_binary_roundtrip_and_header(tmp_path):
    for cols in (1, 63, 64, 65, 129):
        m = random_matrix(max(4, cols), 0.5, seed=cols)
        m = BoolMatrix.from_dense(m.to_dense()[:4, :cols])
        p = tmp_path / f"b{cols}.bmat"
        save_matrix_binary(p, m)
        raw = p.read_bytes()
        assert raw[:4] == MATRIX_MAGIC
        assert int.from_bytes(raw[4:8], "little") == 4
        assert int.from_bytes(raw[8:12], "little") == cols
        assert raw[12:16] == b"\x00" * 4
        stride = (cols + 63) // 64 * 8
        assert len(raw) == 16 + 4 * stride
        assert load_matrix(p) == m


def test_load_matrix_sniffs_format(tmp_path):
    m = random_matrix(6, 0.5, seed=9)
    t, b = tmp_path / "m.txt", tmp_path / "m.bin"
    save_matrix_text(t, m)
    save_matrix_binary(b, m)
    assert load_matrix(t) == load_matrix(b) == m


def _header(rows: int, cols: int) -> bytes:
    return MATRIX_MAGIC + rows.to_bytes(4, "little") + cols.to_bytes(4, "little") + b"\x00" * 4


def test_corrupt_matrix_files_rejected(tmp_path, capsys):
    p = tmp_path / "bad"
    p.write_bytes(MATRIX_MAGIC + b"\x01")  # truncated header
    with pytest.raises(ValueError):
        load_matrix(p)
    p.write_bytes(MATRIX_MAGIC + (1).to_bytes(4, "little") + (1).to_bytes(4, "little") + b"\x00\x00\x00\x01" + b"\x00" * 8)
    with pytest.raises(ValueError):
        load_matrix(p)  # reserved bytes must be zero
    p.write_text("2 2\n10\n")
    with pytest.raises(ValueError):
        load_matrix(p)  # missing row
    p.write_text("2 2\n10\n012\n")
    with pytest.raises(ValueError):
        load_matrix(p)  # wrong row length
    p.write_text("")
    with pytest.raises(ValueError):
        load_matrix(p)
    # each message names the file, and the CLI prints it as one error line
    cases = [
        # bit 70 of row 1 lies in the padding of a 65-column row's last word
        (_header(2, 65) + b"\x00" * 24 + (1 << 6).to_bytes(8, "little"), "row 1 has bits beyond column 64"),
        # rejected from the header's size alone, before rows x stride bytes are allocated
        (_header(2**32 - 1, 2**32 - 1), f"expected {16 + (2**32 - 1) * ((2**32 - 1 + 63) // 64 * 8)} bytes, found 16"),
        (b"0 3\n", "matrix must be at least 1x1"),  # a text header of no rows
    ]
    for blob, message in cases:
        p.write_bytes(blob)
        with pytest.raises(ValueError) as err:
            load_matrix(p)
        assert str(err.value) == f"{p}: {message}"
        capsys.readouterr()
        assert main(["maxwit", "--a", str(p), "--b", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {p}: {message}\n"


def test_binary_padding_must_be_zero(tmp_path):
    p = tmp_path / "pad"
    header = MATRIX_MAGIC + (1).to_bytes(4, "little") + (3).to_bytes(4, "little") + b"\x00" * 4
    p.write_bytes(header + (0b1011).to_bytes(8, "little"))  # bit 3 is padding for cols=3
    with pytest.raises(ValueError):
        load_matrix(p)


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 1\n0 1 2\n", "line 2: an edge must be two integers 'u v', got '0 1 2'"),
        ("3 1\n0 x\n", "line 2: an edge must be two integers 'u v', got '0 x'"),
        ("3 1 weighted\n0 1\n1 abc 2\n", "line 3: could not convert string to float: 'abc'"),
        ("3 -1\n", "line 1: edge count must be nonnegative, got -1"),
        ("\n3 x\n", "line 2: header must be 'n m [directed] [weighted]'"),  # lines count from the file's first
        ("-3 0\n", "need at least one vertex"),
    ],
    ids=["three-values", "not-an-integer", "weight", "negative-edge-count", "header", "no-vertex"],
)
def test_malformed_graph_lines_name_the_file_and_line(tmp_path, text, message):
    p = tmp_path / "g.txt"
    p.write_text(text)
    for load in (load_graph, load_dag):
        with pytest.raises(ValueError) as err:
            load(p)
        assert str(err.value) == f"{p}: {message}"


def test_graph_roundtrip(tmp_path):
    for seed in range(4):
        g = random_weighted_graph(12, 0.3, seed=seed, directed=bool(seed % 2))
        p = tmp_path / f"g{seed}.txt"
        save_graph(p, g)
        h = load_graph(p)
        assert (h.n, h.edges, h.directed) == (g.n, g.edges, g.directed)
        assert h.weights == pytest.approx(g.weights)


def test_graph_text_format(tmp_path):
    g = VertexWeightedGraph(3, ((0, 1), (1, 2)), (1.5, 2.0, 0.25))
    p = tmp_path / "g.txt"
    save_graph(p, g)
    lines = p.read_text().splitlines()
    assert lines[0] == "3 2 weighted"
    assert lines[1:3] == ["0 1", "1 2"]
    assert [float(x) for x in lines[3].split()] == [1.5, 2.0, 0.25]


def test_graph_unweighted_defaults_to_unit_weights(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("3 2 directed\n0 1\n1 2\n")
    g = load_graph(p)
    assert g.directed and g.weights == (1.0, 1.0, 1.0)
    p.write_text("3 1 bogus\n0 1\n")
    with pytest.raises(ValueError):
        load_graph(p)


def test_dag_roundtrip(tmp_path):
    dag = demo_dag()
    p = tmp_path / "d.txt"
    save_dag(p, dag)
    back = load_dag(p)
    assert isinstance(back, Dag)
    assert back.n == dag.n and set(back.edges) == set(dag.edges)
    assert p.read_text().splitlines()[0] == "6 6 directed"


def test_canonical_json_is_stable():
    s1 = _json_text({"b": 1, "a": [2, 3]})
    s2 = _json_text({"a": [2, 3], "b": 1})
    assert s1 == s2
    assert s1.endswith("\n")
    assert json.loads(s1) == {"a": [2, 3], "b": 1}


# ---------------------------------------------------------------------------
# Row blocks against json.dumps and the "%s,..." CSV line format
# ---------------------------------------------------------------------------


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(header: str, rows: list[tuple]) -> str:
    line = ",".join(["%s"] * len(header.split(",")))
    return "\n".join([header, *(line % row for row in rows)]) + "\n"


# more rows than one template chunk, so chunk joins are covered
BIG = 80


def _table(values: dict, off: int = 0, list_key=None, lists=None):
    """A RowBlock over the (n, n) arrays and its rows as dicts, built with
    Python loops over the cells, without io."""
    first = next(iter(values.values()), lists)
    rows = []
    for i in range(first.shape[0]):
        for j in range(first.shape[1]):
            listed = None if lists is None else [int(w) + off for w in lists[i, j] if w >= 0]
            if not (listed if lists is not None else first[i, j] >= 0):
                continue
            row = {"i": i + off, "j": j + off}
            for key, v in values.items():
                x = v[i, j].item()
                row[key] = x + off if isinstance(x, int) else x
            if list_key is not None:
                row[list_key] = listed
            rows.append(row)
    return RowBlock(("i", "j"), values, off, list_key, lists), rows


def _lines(block: RowBlock, rows: list[dict]) -> list[tuple]:
    """The CSV lines of the rows: one per row, or one per listed value."""
    if block.list_key is None:
        return [tuple(r[k] for k in block.keys) for r in rows]
    return [(*(r[k] for k in block.keys), w) for r in rows for w in r[block.list_key]]


def _witness_table(n: int, density: float, off: int = 0, seed: int = 0):
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 10**6, (n, n))
    w[rng.random((n, n)) >= density] = -1
    return _table({"witness": w}, off)


def _list_table(lengths, off: int = 0, seed: int = 0):
    """Lists of the given (n, n) lengths of random values, padded with -1."""
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths, np.int64)
    lists = rng.integers(0, 10**9, (*lengths.shape, int(lengths.max(initial=1))))
    lists[np.arange(lists.shape[-1]) >= lengths[..., None]] = -1
    return _table({}, off, "witnesses", lists)


def _two_edge_table(off: int = 0):
    """Middle vertices and their float weights, NaN where there is none."""
    mid = np.array([[2, -1, 0], [1, 1, -1], [0, 2, 1]])
    weight = np.array([[-0.0, np.nan, 5e-324], [1e16, 0.1, np.nan], [1e-05, 1 / 3, 1.7976931348623157e308]])
    return _table({"mid": mid, "weight": weight}, off)


# block sizes in cells: one row per block, a few rows, and the default
BLOCKS = (1, 7, _BLOCK_ENTRIES)


def test_row_block_floats_and_nesting_match_json_dumps():
    ints = np.arange(9).reshape(3, 3)
    ints[2, 2] = -1  # no entry, so its NaN is never written
    floats = np.array([1e-05, 0.1, 2.5, 1e16, -0.0, 5e-324, 1 / 3, 1.7976931348623157e308, np.nan]).reshape(3, 3)
    for off in (0, 1):
        block, plain = _table({"k": ints, "x": floats, "a%s": ints * 7 - 3}, off)
        doc = {"stats": {"rate": 1e-05, "p": 0.1}, "rows": block, "deep": [{"more": block}, block]}
        want = {"stats": {"rate": 1e-05, "p": 0.1}, "rows": plain, "deep": [{"more": plain}, plain]}
        assert _json_text(doc) == _dumps(want)
        assert _json_text(block) == _dumps(plain)
        assert _csv_text("i,j,k,x,a", block) == _csv("i,j,k,x,a", _lines(block, plain))
    block, plain = _two_edge_table(1)
    assert [r["weight"] for r in plain] == [-0.0, 5e-324, 1e16, 0.1, 1e-05, 1 / 3, 1.7976931348623157e308]
    assert _json_text(block) == _dumps(plain)
    assert _csv_text("i,j,mid,weight", block) == _csv("i,j,mid,weight", _lines(block, plain))


def test_row_block_lists_match_json_dumps():
    # every negative cell is padding, wherever it sits; int8 slots at 127 widen under the offset
    lists = np.full((3, 3, 3), -1, np.int8)
    lists[0, 1, 0] = 127
    lists[1, 0] = [127, 126, 0]
    lists[1, 2] = [-5, -1, -1]
    lists[2, 2] = [-1, 5, 4]
    for off in (0, 1):
        block, plain = _table({}, off, "ws", lists)
        assert [r["ws"] for r in plain] == [[127 + off], [127 + off, 126 + off, off], [5 + off, 4 + off]]
        assert _json_text({"entries": block, "n": 3}) == _dumps({"entries": plain, "n": 3})
        assert _csv_text("i,j,w", block) == _csv("i,j,w", _lines(block, plain))
    empty = RowBlock(("i", "j"), {}, 1, "ws", np.full((2, 2, 2), -1, np.int8))
    assert _json_text({"entries": empty}) == _dumps({"entries": []})
    assert _csv_text("i,j,w", empty) == "i,j,w\n"


@pytest.mark.parametrize(
    "table, stats",
    [
        (_witness_table(3, 0.0), None),
        (_list_table(np.zeros((3, 3))), None),
        (_witness_table(1, 1.0), None),
        (_witness_table(7, 0.5, off=1), None),
        (_list_table([[0, 300, 1], [0, 2, 0], [4, 0, 1]], off=1), None),
        (_two_edge_table(), {"rate": 1e-05, "p": 0.1, "mean": 1 / 3}),
        (_witness_table(100, 0.9), None),
        (_list_table(np.random.default_rng(1).integers(0, 4, (100, 100))), None),
        (_list_table(np.eye(100, dtype=np.int64)[::-1] * 2), None),
        (_list_table([[0, _CHUNK_ROWS + 3], [0, 2]]), None),
    ],
    ids=[
        "empty", "empty-lists", "n1", "one-based", "lists", "float-stats", "chunks", "chunked-lists",
        "chunks-of-empty-lists", "list-longer-than-a-chunk",
    ],
)
def test_streamed_writers_match_json_dumps_and_joined_lines(monkeypatch, table, stats):
    block, rows = table
    doc = {"config": {"seed": 3}, "result": {"n": 5, "entries": block}}
    want = {"config": {"seed": 3}, "result": {"n": 5, "entries": rows}}
    if stats is not None:
        doc["stats"] = want["stats"] = stats
    keys = ",".join([*block.keys, *([block.list_key] if block.list_key else [])])
    for entries in BLOCKS:  # rows cross block boundaries
        monkeypatch.setattr("maxwit.io._BLOCK_ENTRIES", entries)
        assert _json_text(doc) == _dumps(want)
        assert _json_text({"entries": block, "n": 5}) == _dumps({"entries": rows, "n": 5})
        assert _csv_text(keys, block) == _csv(keys, _lines(block, rows))


@pytest.mark.parametrize(
    "block",
    [_witness_table(3, 0.0)[0], _witness_table(4, 0.6)[0], _witness_table(100, 0.9)[0],
     _list_table(np.zeros((3, 3)))[0], _list_table(np.arange(16).reshape(4, 4) % 5)[0],
     _list_table([[0, _CHUNK_ROWS + 3], [0, 2]])[0]],
    ids=["empty", "rows", "rows-over-chunks", "empty-lists", "lists", "list-longer-than-a-chunk"],
)
@pytest.mark.parametrize("sizes", [[1], [2, 3], [5, 7], [100, 4096], [1 << 30]])
def test_chunked_row_blocks_write_the_bytes_of_the_whole_block(monkeypatch, block, sizes):
    # a table's bytes do not depend on the blocks of rows it is made in,
    # with blocks that have no entry anywhere, including first and last
    keys = ",".join([*block.keys, *([block.list_key] if block.list_key else [])])
    docs = [{"result": {"n": 5, "entries": block}}, {"entries": block, "z": [block]}]
    whole = [_json_text(doc) for doc in docs], _csv_text(keys, block)
    for entries in sizes:
        monkeypatch.setattr("maxwit.io._BLOCK_ENTRIES", entries)
        assert ([_json_text(doc) for doc in docs], _csv_text(keys, block)) == whole


def test_chunked_row_block_checks_each_chunk():
    # a table with no entries still has its header checked, and is an empty list
    empty = RowBlock(("i", "j"), {"w": np.full((3, 3), -1)})
    with pytest.raises(ValueError, match="does not name 3 columns"):
        _csv_text("i,j", empty)
    assert _json_text({"entries": empty}) == _dumps({"entries": []})


@pytest.mark.parametrize("step", [1, 7, 1 << 15])
@pytest.mark.parametrize("one_based", [False, True])
def test_witness_row_chunks_cover_the_whole_columns(monkeypatch, step, one_based):
    """Witness and k-witness rows are made one block of whole matrix rows at
    a time; together the blocks are the entries of the whole matrix, and
    their bytes are those of ``to_json_dict`` and ``to_csv_rows``."""
    monkeypatch.setattr("maxwit.io._BLOCK_ENTRIES", step)
    a, b = random_matrix(13, 0.3, seed=5), random_matrix(13, 0.3, seed=6)
    off = int(one_based)
    wm = max_witness_oracle(a, b)
    rows = cli._witness_rows(None, None, (wm, None), off)
    chunks = list(rows.chunks())
    per = max(1, step // 13)
    assert len(chunks) == sum(bool((wm.array[s : s + per] >= 0).any()) for s in range(0, 13, per))
    i, j = np.nonzero(wm.array >= 0)
    for key, column in {"i": i + off, "j": j + off, "witness": wm.array[i, j] + off}.items():
        assert np.array_equal(np.concatenate([c[key] for c, _ in chunks]), column)
    assert _json_text({"entries": rows, "n": 13}) == _dumps(wm.to_json_dict(one_based))
    assert _csv_text("i,j,witness", rows) == _csv("i,j,witness", wm.to_csv_rows(one_based))
    wl = k_witness(a, b, 3, seed=2)
    lists = cli.KWITNESS.rows(None, None, wl, off)
    i, j = np.nonzero((wl.slots >= 0).any(axis=-1))
    cells = wl.slots[i, j].astype(np.int64)
    cells[cells >= 0] += off
    chunks = list(lists.chunks())
    assert np.array_equal(np.concatenate([c["i"] for c, _ in chunks]), i + off)
    assert np.array_equal(np.concatenate([cl for _, cl in chunks]), cells)
    assert _json_text({"entries": lists, "k": 3, "n": 13}) == _dumps(wl.to_json_dict(one_based))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rejected_report_writes_nothing(tmp_path, capsys, monkeypatch, fmt):
    """A report that fails a writer's checks leaves an existing --out file as
    it was and prints nothing on stdout: a string equal to a row block's
    stand-in (JSON) or a header that does not name every column (CSV)."""
    if fmt == "json":
        def report(args, ab, r, rows, verification):
            return {"result": {"n": r[0].n, "entries": rows}, "note": "\x00rows0\x00"}

        bad, message = replace(cli.MAXWIT, report=report), "a report string equals the stand-in"
    else:
        bad, message = replace(cli.MAXWIT, header="i,j"), "CSV header 'i,j' does not name 3 columns"
    monkeypatch.setattr(cli, "MAXWIT", bad)
    out = tmp_path / "kept.txt"
    out.write_bytes(b"an earlier report\n")
    argv = ["maxwit", "--n", "6", "--density", "0.5", "--format", fmt]
    for extra in (["--out", str(out)], []):
        capsys.readouterr()
        assert main([*argv, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert out.read_bytes() == b"an earlier report\n"


def test_row_block_rejects_malformed_columns():
    sq = np.zeros((2, 2), np.int64)
    for bad in (
        lambda: RowBlock(("i", "j"), {"a": sq, "b": np.zeros((2, 3), np.int64)}),
        lambda: RowBlock(("i", "j"), {"a": np.zeros(2, np.int64)}),
        lambda: RowBlock(("i",), {"a": sq}),
        lambda: RowBlock(("i", "j"), {"a": np.ones((2, 2), bool)}),
        lambda: RowBlock(("i", "j"), {"a": sq.astype(np.int32)}),  # a narrow value could wrap under off
        lambda: RowBlock(("i", "j"), {}),
        lambda: RowBlock(("i", "j"), {"a": sq}, 0, "w"),
        lambda: RowBlock(("i", "j"), {"a": sq}, 0, None, np.zeros((2, 2, 1), np.int64)),
        lambda: RowBlock(("i", "j"), {"a": sq}, 0, "w", np.zeros((3, 2, 1), np.int64)),
        lambda: RowBlock(("i", "j"), {}, 0, "w", sq),
        lambda: RowBlock(("i", "j"), {}, 0, "w", np.zeros((2, 2, 1))),
        lambda: RowBlock(("i", "j"), {"a": sq, "x": np.array([[1.0, np.nan], [0.0, 0.0]])}),
    ):
        with pytest.raises(ValueError):
            bad()
    # a float need only be finite where the first value makes an entry
    RowBlock(("i", "j"), {"a": np.array([[0, -1]]), "x": np.array([[1.0, np.nan]])})
    with pytest.raises(ValueError, match="does not name 3 columns"):
        _csv_text("i", RowBlock(("i", "j"), {"a": sq}))
    with pytest.raises(TypeError):
        _json_text({"x": object()})
    with pytest.raises(ValueError, match="stand-in"):
        _json_text({"a": "\x00rows0\x00", "b": RowBlock(("i", "j"), {"a": sq})})


def _report(tmp_path, capsys, *argv: str) -> str:
    """The command's stdout, checked to equal the bytes its --out file gets
    apart from the "out" option a JSON report records."""
    assert main(list(argv)) in (0, 3)
    out = capsys.readouterr().out
    path = tmp_path / "report.out"
    assert main([*argv, "--out", str(path)]) in (0, 3)
    assert path.read_text().replace(f'"out": {json.dumps(str(path))}', '"out": null') == out
    return out


def _matrix_pair(tmp_path, n, density, seed):
    a, b = random_matrix(n, density, seed), random_matrix(n, density, seed + 1)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix_text(pa, a)
    save_matrix_binary(pb, b)
    return a, b, ["--a", str(pa), "--b", str(pb)]


@pytest.mark.parametrize(
    "n, density, one_based",
    [(1, 1.0, False), (1, 0.0, False), (6, 0.0, True), (12, 0.4, True), (BIG, 0.5, False)],
    ids=["n1", "n1-zero", "zero-product", "one-based", "chunks"],
)
def test_maxwit_report_matches_json_dumps(tmp_path, capsys, n, density, one_based):
    a, b, files = _matrix_pair(tmp_path, n, density, seed=n)
    o = int(one_based)
    w = max_witness_oracle(a, b).array
    plain = [{"i": i + o, "j": j + o, "witness": int(w[i, j]) + o}
             for i in range(n) for j in range(n) if w[i, j] >= 0]
    flags = [*files, *(["--one-based"] if one_based else [])]
    out = _report(tmp_path, capsys, "maxwit", *flags, "--verify")
    doc = json.loads(out)
    assert doc["result"] == {"n": n, "entries": plain}
    assert out == _dumps(doc)
    csv = _report(tmp_path, capsys, "maxwit", *flags, "--format", "csv")
    assert csv == _csv("i,j,witness", [(e["i"], e["j"], e["witness"]) for e in plain])


@pytest.mark.parametrize("n, k, one_based", [(1, 1, False), (12, 1, True), (12, 12, False), (BIG, 2, True)],
                         ids=["n1", "k1", "k-is-n", "chunks"])
def test_kwitness_report_matches_json_dumps(tmp_path, capsys, n, k, one_based):
    a, b, files = _matrix_pair(tmp_path, n, 0.4, seed=3 * n)
    o = int(one_based)
    flags = [*files, "--k", str(k), "--seed", "4", *(["--one-based"] if one_based else [])]
    out = _report(tmp_path, capsys, "kwitness", *flags, "--verify")
    doc = json.loads(out)
    assert out == _dumps(doc)
    entries = doc["result"]["entries"]
    ad, bd = a.to_dense(), b.to_dense()
    full = {(i, j): np.flatnonzero(ad[i] & bd[:, j])[::-1].tolist() for i in range(n) for j in range(n)}
    assert [(e["i"] - o, e["j"] - o) for e in entries] == [c for c in full if full[c]]
    for e in entries:
        wits = full[e["i"] - o, e["j"] - o]
        assert len(e["witnesses"]) == min(k, len(wits))
        if len(wits) <= k:
            assert e["witnesses"] == [x + o for x in wits]
    if k == n > 1:  # entries with 1 and with several witnesses
        assert {len(e["witnesses"]) for e in entries} > {1}
    csv = _report(tmp_path, capsys, "kwitness", *flags, "--format", "csv")
    assert csv == _csv("i,j,witness", [(e["i"], e["j"], x) for e in entries for x in e["witnesses"]])


def test_graph_reports_match_json_dumps(tmp_path, capsys):
    dag = random_dag(BIG, 0.1, seed=5)
    dag_path = tmp_path / "dag.txt"
    save_dag(dag_path, dag)
    lca = all_pairs_lca(dag, "oracle")
    lca_rows = [(u + 1, v + 1, int(lca[u, v]) + 1) for u in range(dag.n) for v in range(dag.n) if lca[u, v] >= 0]
    assert len(lca_rows) > 4096

    # weights such as 1e-05 and 0.1 must keep their repr in both formats
    und = VertexWeightedGraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)), (1e-05, 0.1, 2.5, 0.3, 7.0))
    g_path = tmp_path / "g.txt"
    save_graph(g_path, und)
    apex = heaviest_triangle_per_edge(und)
    tri_rows = [(u + 1, v + 1, w + 1) for (u, v), w in sorted(apex.items()) if w is not None]

    dig = VertexWeightedGraph(5, ((0, 1), (1, 2), (3, 2), (2, 4), (4, 0)), und.weights, directed=True)
    d_path = tmp_path / "d.txt"
    save_graph(d_path, dig)
    mid, weight = max_weight_two_edge_paths(dig)
    two_rows = [(i + 1, j + 1, int(mid[i, j]) + 1, float(weight[i, j]))
                for i in range(5) for j in range(5) if mid[i, j] >= 0]
    assert {r[3] for r in two_rows} >= {1e-05, 0.1}

    for argv, key, keys, rows in [
        (["lca", "--graph", str(dag_path)], "entries", ("u", "v", "lca"), lca_rows),
        (["triangle", "--graph", str(g_path)], "edges", ("u", "v", "apex"), tri_rows),
        (["two-edge", "--graph", str(d_path)], "entries", ("i", "j", "mid", "weight"), two_rows),
    ]:
        argv += ["--one-based", "--verify"]
        out = _report(tmp_path, capsys, *argv)
        doc = json.loads(out)
        assert doc["result"][key] == [dict(zip(keys, r)) for r in rows], argv[0]
        assert out == _dumps(doc), argv[0]
        assert _report(tmp_path, capsys, *argv, "--format", "csv") == _csv(",".join(keys), rows), argv[0]


def test_other_reports_match_json_dumps(tmp_path, capsys):
    _, _, files = _matrix_pair(tmp_path, 10, 0.4, seed=8)
    result = tmp_path / "r.json"
    assert main(["maxwit", *files, "--algo", "alg1", "--seed", "2", "--out", str(result)]) == 0
    for argv in (
        ["approx", *files, "--method", "rank-bounded", "--ell", "3", "--verify"],
        ["approx", *files, "--method", "multiwitness", "--k", "4", "--reps", "2", "--one-based"],
        ["verify", *files, "--result", str(result), "--max-rank", "2"],
        ["campaign", "--target", "durr-hoyer", "--trials", "10", "--q-grid", "16,64"],
        ["campaign", "--target", "multiwitness", "--n", "8", "--trials", "2", "--k", "4"],
        ["campaign", "--target", "maxwit-accuracy", "--n", "8", "--trials", "2"],
    ):
        out = _report(tmp_path, capsys, *argv)
        assert out == _dumps(json.loads(out)), argv[0]


# ---------------------------------------------------------------------------
# The witness report reader against the json.loads path
# ---------------------------------------------------------------------------

READER = dict(max_examples=60, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def witness_reports(draw):
    """(n, density, seed, command flags, one_based, bare): a witness report
    the CLI writes, or, when bare is "canonical" or "compact", its 0-based
    result as a bare document written by json.dumps with or without indent."""
    command = draw(st.sampled_from([
        ["maxwit", "--algo", "oracle"],
        ["maxwit", "--algo", "strips"],
        ["approx", "--method", "rank-bounded", "--ell", "1"],
        ["approx", "--method", "multiwitness", "--k", "4", "--reps", "2"],
    ]))
    bare = draw(st.sampled_from([None, None, "canonical", "compact"]))
    one_based = bare is None and draw(st.booleans())
    n = draw(st.integers(1, 9))
    return n, draw(st.sampled_from([0.0, 0.3, 0.8])), draw(st.integers(0, 3)), command, one_based, bare


def _write_witness_report(tmp_path, n, density, seed, command, one_based, bare):
    """Write the factors and the report; return the verify flags and the report path."""
    pa, pb, rep = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "report.json"
    save_matrix_text(pa, random_matrix(n, density, seed))
    save_matrix_text(pb, random_matrix(n, density, seed + 7))
    files = ["--a", str(pa), "--b", str(pb)]
    argv = [*command, *files, "--seed", str(seed), *(["--one-based"] if one_based else []), "--out", str(rep)]
    assert main(argv) == 0
    if bare is not None:
        result = json.loads(rep.read_text())["result"]
        rep.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n" if bare == "canonical" else json.dumps(result))
    return files, rep


def _holder(doc: dict) -> dict:
    return doc["result"] if "result" in doc else doc


def _read(path, build) -> tuple[object, bool]:
    """(outcome, decoded) of read_witness_report(path, build): the result or
    the error's type and text, and whether numpy decoded the outcome's
    entries: the last document build got held them as windows, all of them
    canonical."""
    docs = []

    def spy(doc):
        docs.append(doc)
        return build(doc)

    try:
        outcome = read_witness_report(path, spy)
    except Exception as exc:
        outcome = (type(exc), str(exc))
    entries = _holder(docs[-1]).get("entries") if docs and isinstance(docs[-1], dict) else None
    return outcome, isinstance(entries, Iterator) and entries.canonical


def _read_both(path, build) -> tuple[object, bool]:
    """_read's outcome, asserted equal to the json.loads route's, and decoded."""
    fast, decoded = _read(path, build)
    with mock.patch("maxwit.io._canonical_witness_document", return_value=None):
        slow, _ = _read(path, build)
    assert fast == slow
    return fast, decoded


def _matrix(one_based=False, expect_n=None):
    """A build that reads a document's witnesses as the verify command does."""
    return lambda doc: WitnessMatrix.from_json_dict(_holder(doc), one_based, expect_n)


@settings(**READER)
@given(case=witness_reports(), window=st.sampled_from([128, 1 << 20]))
def test_reader_decodes_valid_reports_like_json_loads(tmp_path, case, window):
    _, rep = _write_witness_report(tmp_path, *case)
    slow = json.loads(rep.read_bytes())
    with mock.patch("maxwit.io._WINDOW", window):
        got, decoded = _read_both(rep, _matrix(case[4]))
    assert isinstance(got, WitnessMatrix)
    # numpy decodes every canonical block with entries; the rest went through json.loads
    assert decoded == (case[5] != "compact" and len(_holder(slow)["entries"]) > 0)


def test_reader_decodes_only_the_block_at_the_entries_key(tmp_path):
    w = np.full((3, 3), -1)
    w[0, 2] = w[1, 0] = 1
    block = RowBlock(("i", "j"), {"witness": w})
    rep = tmp_path / "doc.json"
    for doc, decoded in [
        ({"result": {"entries": block, "n": 3}}, True),
        ({"entries": block, "n": 3}, True),
        # a NaN of the document's own where the spliced one should land
        ({"result": {"entries": float("nan"), "n": 3}, "x": {"entries": block}}, False),
        ({"entries": block, "result": {"n": 3}}, False),  # a full report's entries are under result
        ({"config": {"entries": block}, "result": {"entries": block, "n": 3}}, False),
    ]:
        rep.write_text(_json_text(doc))
        assert _read_both(rep, _matrix())[1] == decoded, doc
        if not decoded:  # build got json.loads of the whole file
            assert _read(rep, json.dumps) == (json.dumps(json.loads(rep.read_text())), False)


def _window_report(tmp_path, rows, n=6, one_based=False, bare=False):
    """A canonical witness report of the (i, j, witness) rows, full or bare,
    as the path of its file and its text."""
    result = {"entries": [dict(zip(("i", "j", "witness"), row)) for row in rows], "n": n}
    doc = result if bare else {"config": {"one_based": one_based}, "result": result}
    rep = tmp_path / "report.json"
    rep.write_text(_dumps(doc))  # the bytes canonical_json writes for these rows
    return rep, rep.read_text()


def _full_rows(n, one_based=False):
    off = int(one_based)
    return [(i + off, j + off, (i + j) % n + off) for i in range(n) for j in range(n)]


@pytest.mark.parametrize("one_based", [False, True])
@pytest.mark.parametrize("bare", [False, True])
def test_reader_windows_match_json_loads(tmp_path, monkeypatch, one_based, bare):
    """A report of many small windows decodes to what json.loads gives, and
    every error is the one the json.loads route raises."""
    monkeypatch.setattr("maxwit.io._WINDOW", 256)  # about four entries a window
    one_based = one_based and not bare  # a bare document is 0-based
    n, off = 6, int(one_based)
    build = _matrix(one_based, expect_n=n)
    rows = _full_rows(n, one_based)

    # a duplicate cell whose later copy sits in a later window wins
    rep, _ = _window_report(tmp_path, [*rows, (off, off, 5 + off)], n, one_based, bare)
    got, decoded = _read_both(rep, build)
    assert decoded and got.array[0, 0] == 5 and got.array[0, 1] == 1

    # a bad entry in an early window: its error, if every later window is canonical
    bad = [(n + off, off, off), *rows]
    rep, text = _window_report(tmp_path, bad, n, one_based, bare)
    got, decoded = _read_both(rep, build)
    assert decoded and got == (ValueError, f"entry ({n + off}, {off}) lies outside an n={n} matrix")

    # n mismatched together with that bad entry: the n error wins
    got, decoded = _read_both(rep, _matrix(one_based, expect_n=n + 1))
    assert decoded and got == (ValueError, f"witness matrix has n={n} but the product is {n + 1}x{n + 1}")

    # a later window out of layout: the json.loads route's error wins
    last = text.rindex('"witness": ')
    for tail, want in [("1.0", "must have integer i, j and witness"), ("1,,", "Expecting property name")]:
        rep.write_text(text[:last] + '"witness": ' + tail + text[text.index("\n", last):])
        got, decoded = _read_both(rep, build)
        assert not decoded and got[0] in (ValueError, json.JSONDecodeError) and want in got[1], tail


@pytest.mark.parametrize("window", [1, 5, 11, 12, 13])
def test_find_matches_across_chunks(monkeypatch, window):
    monkeypatch.setattr("maxwit.io._WINDOW", window)
    data = b'x"entries": [\n  "entries": [y]'
    for sub in (_ENTRIES, b"]", b"\n"):
        for pos in range(len(data) + 1):
            assert _find(io.BytesIO(data), sub, pos) == data.find(sub, pos), (sub, pos)


def test_reader_closes_the_file_before_it_returns(tmp_path, monkeypatch):
    monkeypatch.setattr("maxwit.io._WINDOW", 256)
    rep, text = _window_report(tmp_path, _full_rows(6))
    opened = []
    real_open = open

    def spy(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr("builtins.open", spy)
    for body in (text, text.replace('"j": 1,', '"j":  1,')):  # canonical, then not
        rep.write_text(body)
        assert isinstance(read_witness_report(rep, _matrix()), WitnessMatrix)
    assert len(opened) == 2 and all(fh.closed for fh in opened)


def _nth(pattern: str, replace_with):
    """A mutation that rewrites the k-th match (k modulo the match count)."""

    def mutate(text: str, k: int) -> str:
        matches = list(re.finditer(pattern, text))
        if not matches:
            return text
        m = matches[k % len(matches)]
        new = replace_with(m) if callable(replace_with) else m.expand(replace_with)
        return text[: m.start()] + new + text[m.end() :]

    return mutate


MUTATIONS = {
    "reordered-keys": _nth(r'("i": \d+),\n( *)("j": \d+),', r"\3,\n\2\1,"),
    "extra-space": _nth(r'"j": ', '"j":  '),
    "tab": _nth(r'\n +("witness")', r"\n\t\1"),
    "crlf": lambda text, k: text.replace("\n", "\r\n"),
    "float": _nth(r'("witness": \d+)', r"\1.0"),
    "exponent": _nth(r'"witness": \d+', '"witness": 1e2'),
    "leading-zero": _nth(r'"j": (\d+)', r'"j": 0\1'),
    "negative": _nth(r'"i": \d+', '"i": -1'),
    "19-digits": _nth(r'"witness": \d+', '"witness": 1234567890123456789'),
    "20-digits": _nth(r'"witness": \d+', '"witness": 12345678901234567890'),
    "true": _nth(r'"i": \d+', '"i": true'),
    "missing-key": _nth(r'\n +"j": \d+,', ""),
    "extra-key": _nth(r'\n( +)"i"', r'\n\1"h": 1,\n\1"i"'),
    # a later copy of an entry, in the canonical layout, whose witness 0 wins
    "duplicate-cell": _nth(r" +\{\n[^{}]*\}",
                           lambda m: m[0] + ",\n" + re.sub(r'"witness": \d+', '"witness": 0', m[0])),
    "cut": lambda text, k: text[: k % len(text)],
    "second-block": _nth(r'\n( *)"n": ', r'\n\1"entries": [],\n\1"n": '),
    "entries-in-config": _nth(r'"out": "[^"]*"', r'"out": "\\"entries\\": ["'),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@settings(**{**READER, "max_examples": 6})
@given(case=witness_reports(), k=st.integers(0, 10**6), window=st.sampled_from([128, 1 << 20]))
def test_reader_falls_back_to_json_loads_with_its_errors(tmp_path, capsys, mutation, case, k, window):
    files, rep = _write_witness_report(tmp_path, *case)
    rep.write_bytes(MUTATIONS[mutation](rep.read_text(), k).encode())

    def verify():
        capsys.readouterr()
        code = main(["verify", *files, "--result", str(rep)])
        return code, *capsys.readouterr()

    with mock.patch("maxwit.io._WINDOW", window):  # the mutation may land in any window
        got = verify()
    with mock.patch("maxwit.io._canonical_witness_document", return_value=None):
        assert got == verify()
    if got[0] == 1:
        assert got[1] == "" and got[2].startswith("error: ") and got[2].count("\n") == 1
