"""Index types at their edges.

The sampling core keeps witness slots, counts and witness counts in the
narrowest signed type that holds q, k and -1: int8 up to 127, int16 up to
32767, int32 above. ``WitnessLists`` keeps the slots, and every consumer
widens them to int64 before it adds an offset (a strip start, or 1 for
--one-based). Each case here sits on one side of such an edge; the results
are checked against the scalar oracles. Non-square inner dimensions (n=2,
q up to 32768) keep the large edges cheap.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from maxwit import witness
from maxwit.boolmat import (
    BoolMatrix,
    WitnessLists,
    WitnessMatrix,
    _check_pass,
    witness_rank_matrix,
    witness_violations,
)
from maxwit.cli import main
from maxwit.io import RowBlock, save_matrix_text
from maxwit.rng import np_stream
from maxwit.witness import approx_rank_bounded, k_witness

from scalar_oracles import max_witness_dense, rank_of_entry, witness_list_entry

EDGES = (127, 128, 129, 255, 256, 32767, 32768)


def _expected_type(m: int) -> np.dtype:
    return np.dtype(np.int8 if m <= 127 else np.int16 if m <= 32767 else np.int32)


def _pair(p: int, q: int, r: int, density: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 factors whose entries all have witness q-1; in row 0 it is the only one."""
    rng = np.random.default_rng(seed)
    ad = (rng.random((p, q)) < density).astype(np.uint8)
    bd = (rng.random((q, r)) < density).astype(np.uint8)
    ad[0] = 0
    ad[:, -1] = bd[-1, :] = 1
    return ad, bd


def _check_lists(ad, bd, k, found) -> None:
    da, db = ad.tolist(), bd.tolist()
    cnt = np.count_nonzero(found >= 0, axis=2)
    for i in range(ad.shape[0]):
        for j in range(bd.shape[1]):
            full = witness_list_entry(da, db, i, j)
            assert cnt[i, j] == min(k, len(full))
            got = found[i, j].tolist()
            assert got[cnt[i, j] :] == [-1] * (k - cnt[i, j])
            got = got[: cnt[i, j]]
            if len(full) <= k:
                assert got == full
            else:
                assert got == sorted(set(got), reverse=True) and set(got) <= set(full)


@pytest.mark.parametrize(
    "q, k", [(q, k) for q in EDGES for k in (3, q)] + [(5, k) for k in EDGES] + [(40, 127), (200, 128)]
)
def test_collect_witnesses_at_type_edges(q, k):
    # density 0.5 puts most entries above k when k = 3, so the sampling rounds
    # run; k = q lists every witness through the few-witness branch
    ad, bd = _pair(2, q, 3, 0.5, q + k)
    found = witness._collect_witnesses(ad, bd, k, np_stream(q, k))
    assert found.dtype == _expected_type(max(q, k))
    assert found.max() == q - 1
    _check_lists(ad, bd, k, found)


@pytest.mark.parametrize("n", [127, 128, 129])
def test_k_witness_at_type_edges(n):
    # every entry of the all-ones product has the n witnesses n-1, ..., 0
    ones = BoolMatrix.ones(n)
    for k in (n, n - 1):
        wl = k_witness(ones, ones, k, seed=3)
        wl.validate()
        assert (wl.lengths() == k).all()
        assert wl.slots.dtype == _expected_type(n)
        if k == n:
            assert np.array_equal(wl.slots, np.broadcast_to(np.arange(n)[::-1], (n, n, n)))
        assert wl.get(n - 1, 0)[0] <= n - 1
        chunks = RowBlock(("i", "j"), {}, 1, "witnesses", wl.slots).chunks()
        assert max(int(lists.max()) for _, lists in chunks) == n  # witness n - 1, one-based
    rng = np.random.default_rng(n)
    a = BoolMatrix.from_dense(rng.random((n, n)) < 0.05)
    b = BoolMatrix.from_dense(rng.random((n, n)) < 0.05)
    da, db = a.to_dense().tolist(), b.to_dense().tolist()
    wl = k_witness(a, b, n, seed=1)  # k = n: every list is complete
    for i in range(0, n, 7):
        for j in range(n):
            assert wl.get(i, j) == witness_list_entry(da, db, i, j)


@pytest.mark.parametrize("q", EDGES)
def test_rank_bounded_and_checks_at_type_edges(q):
    ad, bd = _pair(2, q, 2, 0.3, q)
    a, b = BoolMatrix.from_dense(ad), BoolMatrix.from_dense(bd)
    da, db = ad.tolist(), bd.tolist()
    for ell in sorted({1, 127, 128, 129, q - 1, q} - {0}):
        if ell > q:
            continue
        wm = approx_rank_bounded(a, b, ell, seed=ell)  # strip starts up to q - 1 are added to narrow slots
        ranks = witness_rank_matrix(a, b, wm)
        for i in range(2):
            for j in range(2):
                w = wm.get(i, j)
                assert ranks[i, j] == rank_of_entry(da, db, i, j, w) <= ell
        assert witness_violations(a, b, wm)["ok"]
    top = WitnessMatrix(2, np.array(max_witness_dense(da, db)))
    assert (top.array == q - 1).all()
    counts, lists = _check_pass(a, b, top, max_rank=1)
    assert counts == dict.fromkeys(("invalid", "missing", "spurious", "disagreements", "rank_violations"), 0)
    low = WitnessMatrix(2, np.full((2, 2), q - 2))  # rank 2 where q - 2 is a witness, else invalid
    want = [[rank_of_entry(da, db, i, j, q - 2) if db[q - 2][j] and da[i][q - 2] else -2 for j in range(2)]
            for i in range(2)]
    assert witness_rank_matrix(a, b, low).tolist() == want
    counts, lists = _check_pass(a, b, low, max_rank=1)
    invalid = [(i, j, q - 2) for i in range(2) for j in range(2) if want[i][j] == -2]
    assert lists["invalid"] == invalid and counts["invalid"] == len(invalid)
    assert counts["rank_violations"] == counts["disagreements"] == 4


def test_witness_lists_keep_their_types_and_widen_for_reports():
    slots = np.array([[[127, -1], [-1, -1]], [[127, 3], [0, -1]]], np.int8)
    wl = WitnessLists(2, 2, slots)
    assert wl.slots is slots
    ((cols, lists),) = RowBlock(("i", "j"), {}, 1, "witnesses", slots).chunks()
    assert lists.dtype == np.int64 and lists.tolist() == [[128, -1], [128, 4], [1, -1]]
    assert cols["i"].tolist() == [1, 2, 2] and cols["j"].tolist() == [1, 1, 2]
    assert [e["witnesses"] for e in wl.to_json_dict(one_based=True)["entries"]] == [[128], [128, 4], [1]]
    assert wl.get(1, 0) == [127, 3] and wl.lengths().tolist() == [[1, 0], [2, 1]]
    wl.validate()


def _write_pair(tmp_path, ad, bd) -> list[str]:
    paths = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix_text(paths[0], BoolMatrix.from_dense(ad))
    save_matrix_text(paths[1], BoolMatrix.from_dense(bd))
    return ["--a", str(paths[0]), "--b", str(paths[1])]


@pytest.mark.parametrize("q", EDGES)
def test_one_based_reports_at_type_edges(tmp_path, capsys, q):
    # entry (0, 0) has witnesses {q-1, q-2}, (1, 1) has {q-1, 0}, the others {q-1}
    ad = np.zeros((2, q), np.uint8)
    bd = np.zeros((q, 2), np.uint8)
    ad[:, q - 1] = bd[q - 1, :] = 1
    ad[0, q - 2] = bd[q - 2, 0] = 1
    ad[1, 0] = bd[0, 1] = 1
    pair = _write_pair(tmp_path, ad, bd)
    lists = {(i, j): witness_list_entry(ad.tolist(), bd.tolist(), i, j) for i in range(2) for j in range(2)}
    for algo in ("oracle", "strips"):
        assert main(["maxwit", *pair, "--algo", algo, "--one-based", "--format", "csv", "--verify"]) == 0
        want = [f"{i + 1},{j + 1},{q}" for i in range(2) for j in range(2)]
        assert capsys.readouterr().out.splitlines() == ["i,j,witness", *want]
    assert main(["kwitness", *pair, "--k", "2", "--one-based", "--format", "csv", "--verify"]) == 0
    want = [f"{i + 1},{j + 1},{w + 1}" for (i, j), ws in lists.items() for w in ws]
    assert capsys.readouterr().out.splitlines() == ["i,j,witness", *want]
    assert main(["kwitness", *pair, "--k", "2", "--one-based", "--verify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verification"]["passed"] is True
    entries = [{"i": i + 1, "j": j + 1, "witnesses": [w + 1 for w in ws]} for (i, j), ws in lists.items()]
    assert doc["result"]["entries"] == entries
    assert main(["approx", *pair, "--method", "rank-bounded", "--ell", "1", "--one-based", "--verify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [e["witness"] for e in doc["result"]["entries"]] == [q] * 4


def test_kwitness_command_with_k_at_the_int8_edge(capsys):
    # q = k = 128 needs int16: 128 does not fit int8
    argv = ["kwitness", "--n", "128", "--density", "1.0", "--k", "128", "--format", "csv", "--one-based", "--verify"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 128**3
    assert lines[1:129] == [f"1,1,{w}" for w in range(128, 0, -1)]
    assert lines[-1] == "128,128,1"


@pytest.mark.parametrize("k", [126, 127])
def test_kwitness_json_with_list_lengths_at_the_int8_edge(tmp_path, k):
    # n = q = 127 keeps the list lengths int8; a row of the report is 2 + k
    # values wide, which is above 127 here
    out = tmp_path / "kwit.json"
    argv = ["kwitness", "--n", "127", "--density", "1.0", "--k", str(k), "--verify", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["verification"]["passed"] is True
    entries = doc["result"]["entries"]
    ones = np.ones((127, 127), np.uint8).tolist()
    full = witness_list_entry(ones, ones, 0, 0)  # every entry's: 126, ..., 0
    assert [(e["i"], e["j"]) for e in entries] == [(i, j) for i in range(127) for j in range(127)]
    for e in entries:
        got = e["witnesses"]
        assert len(got) == k and got == sorted(set(got), reverse=True) and set(got) <= set(full)
        if k == 127:
            assert got == full
