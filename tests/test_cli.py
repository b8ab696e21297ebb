"""Command-line interface: exit codes, report schema, determinism."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from maxwit import cli
from maxwit.boolmat import BoolMatrix, WitnessLists, WitnessMatrix, max_witness_oracle, random_matrix
from maxwit.cli import main
from maxwit.graphs import LCA_SOLVERS, VertexWeightedGraph
from maxwit.io import load_matrix, save_matrix_text
from maxwit.rng import spawn_seed
from maxwit.solvers import SOLVERS
from maxwit.witness import k_witness


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_gen_matrix_text_and_binary(tmp_path, capsys):
    t = tmp_path / "m.txt"
    code, out = run(capsys, "gen", "--kind", "matrix", "--n", "12", "--density", "0.4", "--seed", "3", "--out", str(t))
    assert code == 0
    info = json.loads(out)
    assert info["kind"] == "matrix" and info["ones"] > 0
    m = load_matrix(t)
    assert m.rows == m.cols == 12

    b = tmp_path / "m.bin"
    code, _ = run(capsys, "gen", "--n", "12", "--density", "0.4", "--seed", "3", "--format", "binary", "--out", str(b))
    assert code == 0
    assert load_matrix(b) == m  # same seed, same matrix, either format


def test_gen_density_one_is_all_ones(tmp_path, capsys):
    t = tmp_path / "ones.txt"
    code, _ = run(capsys, "gen", "--n", "5", "--density", "1", "--out", str(t))
    assert code == 0
    assert load_matrix(t).density() == 1.0


def test_gen_dag_and_graph(tmp_path, capsys):
    d = tmp_path / "d.txt"
    assert run(capsys, "gen", "--kind", "dag", "--n", "10", "--density", "0.3", "--out", str(d))[0] == 0
    assert d.read_text().splitlines()[0].endswith("directed")
    g = tmp_path / "g.txt"
    assert run(capsys, "gen", "--kind", "graph", "--n", "10", "--out", str(g))[0] == 0
    assert "weighted" in g.read_text().splitlines()[0]


def test_exit_codes(tmp_path, capsys):
    assert main(["maxwit", "--algo", "bogus", "--n", "8"]) == 1  # bad flag value
    assert main(["maxwit"]) == 1  # neither --a/--b nor --n
    assert main(["maxwit", "--a", "/nonexistent/a", "--b", "/nonexistent/b"]) == 2
    assert main(["gen", "--n", "4", "--out", "/nonexistent/dir/m.txt"]) == 2
    assert main(["maxwit", "--n", "8", "--verify"]) == 0
    for argv in (["maxwit", "--n", "8", "--seed", "-1"], ["gen", "--n", "4", "--out", str(tmp_path / "m"), "--seed", "-2"]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: argument --seed: must be a non-negative integer, got {argv[-1]}\n"


def test_maxwit_report_schema(tmp_path, capsys):
    code, out = run(capsys, "maxwit", "--n", "10", "--seed", "4", "--algo", "strips", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["config"]["command"] == "maxwit"
    assert doc["config"]["algo"] == "strips"
    assert doc["verification"]["disagreements"] == 0
    assert "timing" not in doc
    n = doc["result"]["n"]
    assert n == 10


def test_maxwit_all_algos_agree_with_oracle(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix_text(a, random_matrix(12, 0.4, seed=100))
    save_matrix_text(b, random_matrix(12, 0.4, seed=101))
    want = json.loads(run(capsys, "maxwit", "--a", str(a), "--b", str(b))[1])["result"]
    for algo in ("strips", "alg1", "alg2", "alg3", "alg4"):
        code, out = run(capsys, "maxwit", "--a", str(a), "--b", str(b), "--algo", algo, "--verify")
        assert code == 0, algo
        doc = json.loads(out)
        if algo == "strips":
            assert doc["result"] == want
        else:
            assert doc["stats"]["algo"] == algo
            assert doc["verification"]["passed"] is True
            assert doc["verification"]["invalid"] == doc["verification"]["spurious"] == 0


def test_maxwit_csv_output(capsys):
    code, out = run(capsys, "maxwit", "--n", "8", "--seed", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i,j,witness"
    assert all(len(ln.split(",")) == 3 for ln in lines[1:])


def test_one_based_shifts_indices(capsys):
    zero = json.loads(run(capsys, "maxwit", "--n", "8", "--seed", "6")[1])["result"]
    one = json.loads(run(capsys, "maxwit", "--n", "8", "--seed", "6", "--one-based")[1])["result"]
    assert len(zero["entries"]) == len(one["entries"])
    z0, o0 = zero["entries"][0], one["entries"][0]
    assert (o0["i"], o0["j"], o0["witness"]) == (z0["i"] + 1, z0["j"] + 1, z0["witness"] + 1)


def test_timing_flag_controls_timing_key(capsys):
    assert "timing" not in json.loads(run(capsys, "maxwit", "--n", "8")[1])
    doc = json.loads(run(capsys, "maxwit", "--n", "8", "--timing")[1])
    assert set(doc["timing"]) >= {"load_s", "solve_s"}


def test_approx_rank_bounded_cli(capsys):
    code, out = run(capsys, "approx", "--method", "rank-bounded", "--n", "16", "--ell", "4", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["rank_violations"] == 0
    assert doc["config"]["ell"] == 4


def test_approx_multiwitness_cli(capsys):
    code, out = run(capsys, "approx", "--method", "multiwitness", "--n", "16", "--k", "4", "--reps", "3", "--verify")
    assert code == 0
    v = json.loads(out)["verification"]
    assert v["passed"] is True and v["invalid"] == v["missing"] == v["spurious"] == 0
    assert main(["approx", "--method", "multiwitness", "--n", "8", "--k", "2"]) == 1  # k < 4


def test_kwitness_cli(capsys):
    code, out = run(capsys, "kwitness", "--n", "12", "--k", "3", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["k"] == 3
    assert doc["verification"]["length_mismatches"] == 0
    assert doc["verification"]["invalid"] == 0
    assert all(len(e["witnesses"]) <= 3 for e in doc["result"]["entries"])


def _kwitness_case(edit: str) -> tuple[tuple[BoolMatrix, BoolMatrix], WitnessLists, dict]:
    """A 7x11 by 11x7 pair, its complete k=3 lists with one edit, and the
    verification the edit must give. The edited entry is the last one in
    row 3 with a nonempty list: the end of a block when each block is one row."""
    rng = np.random.default_rng(8)
    ad = (rng.random((7, 11)) < 0.4).astype(np.uint8)
    bd = (rng.random((11, 7)) < 0.4).astype(np.uint8)
    lists = [[np.flatnonzero(ad[i] & bd[:, j])[::-1][:3].tolist() for j in range(7)] for i in range(7)]
    i, j = 3, max(j for j in range(7) if lists[3][j])
    if edit == "non-witness":  # the lowest listed witness swapped for a lower non-witness
        low = min(k for k in range(11) if not ad[i, k] & bd[k, j] and k < lists[i][j][-1])
        lists[i][j] = lists[i][j][:-1] + [low]
    elif edit == "too-short":
        lists[i][j] = lists[i][j][:-1]
    ab = (BoolMatrix.from_dense(ad), BoolMatrix.from_dense(bd))
    bad = {"non-witness": (0, 1), "too-short": (1, 0)}.get(edit, (0, 0))
    want = {"length_mismatches": bad[0], "invalid": bad[1], "passed": bad == (0, 0)}
    return ab, WitnessLists.from_lists(7, 3, lists), want


@pytest.mark.parametrize("edit", ["valid", "non-witness", "too-short"])
def test_kwitness_check_is_the_same_for_every_block_size(monkeypatch, edit):
    ab, wl, want = _kwitness_case(edit)
    # one row per block, then every row in one block
    for budget in (1, 8 * 7 * 3 * 7):
        monkeypatch.setattr(cli, "_CHECK_BYTES", budget)
        assert cli._check_kwitness(Namespace(k=3), ab, wl) == want, budget


def test_lca_cli(tmp_path, capsys):
    code, out = run(capsys, "lca", "--n", "14", "--density", "0.25", "--seed", "2", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["wrong_pairs"] == 0
    assert all(set(e) == {"u", "v", "lca"} for e in doc["result"]["entries"])

    code, out = run(capsys, "lca", "--n", "14", "--density", "0.25", "--seed", "2",
                    "--solver", "qsim-algorithm4", "--verify")
    assert code == 0


def test_triangle_cli(capsys):
    code, out = run(capsys, "triangle", "--n", "14", "--density", "0.5", "--seed", "3", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["wrong_edges"] == 0
    assert all(set(e) == {"u", "v", "apex"} for e in doc["result"]["edges"])


def test_two_edge_cli(capsys):
    code, out = run(capsys, "two-edge", "--n", "12", "--density", "0.4", "--seed", "4", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["wrong_pairs"] == 0
    for e in doc["result"]["entries"]:
        assert set(e) == {"i", "j", "mid", "weight"}


def test_campaign_reports(tmp_path, capsys):
    code, out = run(capsys, "campaign", "--target", "durr-hoyer", "--trials", "20", "--q-grid", "16,64", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert "timing" not in doc
    assert doc["config"]["target"] == "durr-hoyer"
    cells = doc["results"]["cells"]
    assert {c["q"] for c in cells} == {16, 64}
    assert all(0.0 <= c["success_rate"] <= 1.0 for c in cells)
    assert doc["results"]["slope"] is not None

    code, out = run(capsys, "campaign", "--target", "multiwitness", "--trials", "3", "--n", "16", "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["total_validity_violations"] == 0

    code, out = run(capsys, "campaign", "--target", "maxwit-accuracy", "--trials", "2", "--n", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["error_rate"] <= doc["results"]["error_bound"]

    assert main(["campaign", "--target", "durr-hoyer", "--trials", "0"]) == 1
    assert main(["campaign", "--target", "durr-hoyer", "--q-grid", "4,nope"]) == 1
    assert main(["campaign", "--target", "durr-hoyer", "--q-grid", "1,4"]) == 1
    assert main(["campaign", "--target", "durr-hoyer", "--q-grid", "8,8"]) == 1
    assert main(["campaign", "--target", "durr-hoyer", "--q-grid", "64"]) == 1


@pytest.mark.parametrize("target", [
    *(pytest.param(["campaign", "--target", t, "--trials", "1"], id=t)
      for t in ("multiwitness", "maxwit-accuracy", "durr-hoyer")),
    pytest.param(["two-edge"], id="two-edge"),
    pytest.param(["triangle"], id="triangle"),
    pytest.param(["gen", "--kind", "graph"], id="gen-graph"),
    pytest.param(["lca"], id="lca"),
    pytest.param(["maxwit"], id="maxwit"),
])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_campaign_rejects_n_below_one(capsys, target, n):
    # every command that takes --n rejects it with one message, before any work
    assert main([*target, "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument --n: must be at least 1, got {n}\n"


def test_campaign_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "c.json"
    argv = ["campaign", "--target", "durr-hoyer", "--trials", "15", "--q-grid", "16,64",
            "--seed", "9", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_cli_import_leaves_out_the_thread_pool():
    """Campaign trials run in order in one thread, so no CLI job loads
    ``concurrent.futures`` (numpy alone does not import it)."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = "import sys, maxwit.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_verify_subcommand(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    am, bm = random_matrix(10, 0.4, seed=200), random_matrix(10, 0.4, seed=201)
    save_matrix_text(a, am)
    save_matrix_text(b, bm)
    wm = max_witness_oracle(am, bm)
    res = tmp_path / "w.json"
    res.write_text(json.dumps(wm.to_json_dict()))

    code, out = run(capsys, "verify", "--a", str(a), "--b", str(b), "--result", str(res))
    assert code == 0
    assert json.loads(out)["diff"]["passed"] is True

    # corrupt deterministically: replace one witness with a k where A[i,k] = 0
    ii, jj = np.nonzero(wm.array >= 0)
    i, j = int(ii[0]), int(jj[0])
    bad_k = next(k for k in range(10) if not am.get(i, k))
    wm.set(i, j, bad_k)
    res.write_text(json.dumps(wm.to_json_dict()))
    code, out = run(capsys, "verify", "--a", str(a), "--b", str(b), "--result", str(res))
    assert code == 3
    doc = json.loads(out)
    assert doc["diff"]["invalid"] == 1 and doc["diff"]["passed"] is False


def test_verify_accepts_full_reports(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix_text(a, random_matrix(9, 0.5, seed=210))
    save_matrix_text(b, random_matrix(9, 0.5, seed=211))
    rep = tmp_path / "report.json"
    assert main(["maxwit", "--a", str(a), "--b", str(b), "--out", str(rep)]) == 0
    code, out = run(capsys, "verify", "--a", str(a), "--b", str(b), "--result", str(rep))
    assert code == 0
    assert json.loads(out)["diff"]["passed"] is True


def test_verify_reads_one_based_reports_with_their_own_base(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix_text(a, random_matrix(8, 0.6, seed=212))
    save_matrix_text(b, random_matrix(8, 0.6, seed=213))
    pair = ["--a", str(a), "--b", str(b)]
    diffs = []
    for flags in ([], ["--one-based"]):
        rep = tmp_path / f"r{len(flags)}.json"
        assert main(["approx", "--method", "rank-bounded", *pair, "--ell", "3", *flags, "--out", str(rep)]) == 0
        code, out = run(capsys, "verify", *pair, "--result", str(rep), "--max-rank", "3")
        assert code == 0
        diffs.append(json.loads(out)["diff"])
    assert diffs[0] == diffs[1]
    assert diffs[0]["max_witness_disagreements"] > 0 and diffs[0]["passed"] is True

    # a bare document stays 0-based, whatever the report it came from
    doc = json.loads((tmp_path / "r1.json").read_text())
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc["result"]))
    assert main(["verify", *pair, "--result", str(bare)]) == 1
    assert "lies outside an n=8 matrix" in capsys.readouterr().err

    for value in ("yes", 1, None):
        doc["config"]["one_based"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["verify", *pair, "--result", str(bad)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.count("error:") == 1 and "one_based" in err, value


def test_verify_max_rank(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix_text(a, random_matrix(16, 0.6, seed=220))
    save_matrix_text(b, random_matrix(16, 0.6, seed=221))
    res = tmp_path / "w.json"
    assert main(["approx", "--method", "rank-bounded", "--a", str(a), "--b", str(b),
                 "--ell", "4", "--out", str(res)]) == 0
    code, out = run(capsys, "verify", "--a", str(a), "--b", str(b), "--result", str(res), "--max-rank", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["diff"]["rank_violations"] == 0
    got = WitnessMatrix.from_json_dict(json.loads(res.read_text())["result"]).array
    want = max_witness_oracle(load_matrix(a), load_matrix(b)).array
    assert doc["diff"]["max_witness_disagreements"] == int((got != want).sum()) > 0

    code, _ = run(capsys, "verify", "--a", str(a), "--b", str(b), "--result", str(res), "--max-rank", "1")
    assert code == 3  # rank 4 answers cannot all be maxima

    for bad in ("0", "-3", "1.5", "four"):  # no witness has rank below 1, and ranks are integers
        code = main(["verify", "--a", str(a), "--b", str(b), "--result", str(res), "--max-rank", bad])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.count("error:") == 1 and err.startswith("error: argument --max-rank: must be ")
        assert err.endswith(f"at least 1, got {bad}\n")


def test_maxwit_verify_counts_disagreements(monkeypatch, capsys):
    # alg1 has made no error at beta 0.01 in any instance tried, so the run is
    # wrapped to drop some witnesses and lower others to a smaller witness
    solver = SOLVERS["alg1"]
    made = []

    def erring(a, b, ell, beta, seed):
        wm, stats = solver.run(a, b, ell, beta, seed)
        ad, bd = a.to_dense(), b.to_dense()
        w = wm.array
        for t, (i, j) in enumerate(zip(*np.nonzero(w >= 0))):
            if t % 5 == 0:
                w[i, j] = -1
            elif t % 5 == 1:
                w[i, j] = np.flatnonzero(ad[i] & bd[:, j])[0]  # the smallest witness
        made.append((a, b, wm))
        return wm, stats

    monkeypatch.setitem(SOLVERS, "alg1", replace(solver, run=erring))
    code, out = run(capsys, "maxwit", "--n", "24", "--density", "0.4", "--algo", "alg1",
                    "--beta", "0.01", "--seed", "8", "--verify")
    assert code == 0
    v = json.loads(out)["verification"]
    a, b, wm = made[0]
    want = int((wm.array != max_witness_oracle(a, b).array).sum())
    assert v["disagreements"] == want > 0
    assert v["disagreement_rate"] == want / 24**2
    assert v["missing"] > 0 and v["invalid"] == v["spurious"] == 0


def test_checks_never_run_the_oracle(monkeypatch, tmp_path, capsys):
    a, b, res = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "w.json"
    save_matrix_text(a, random_matrix(20, 0.3, seed=240))
    save_matrix_text(b, random_matrix(20, 0.3, seed=241))
    pair = ["--a", str(a), "--b", str(b)]
    assert main(["approx", "--method", "rank-bounded", *pair, "--ell", "4", "--out", str(res)]) == 0

    def refuse(a, b):
        raise AssertionError("a check ran max_witness_oracle")

    for name, module in list(sys.modules.items()):
        if name.startswith("maxwit") and hasattr(module, "max_witness_oracle"):
            monkeypatch.setattr(module, "max_witness_oracle", refuse)
    for argv in (
        ["maxwit", *pair, "--algo", "strips", "--verify"],
        ["approx", "--method", "rank-bounded", *pair, "--ell", "4", "--verify"],
        ["verify", *pair, "--result", str(res)],
        ["verify", *pair, "--result", str(res), "--max-rank", "4"],
        ["campaign", "--target", "maxwit-accuracy", "--n", "16", "--trials", "2"],
    ):
        assert run(capsys, *argv)[0] == 0, argv
    assert json.loads(run(capsys, "verify", *pair, "--result", str(res))[1])["diff"]["max_witness_disagreements"] > 0


def test_report_out_file_matches_stdout_format(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, printed = run(capsys, "maxwit", "--n", "8", "--seed", "7", "--out", str(out))
    assert code == 0
    assert printed == "" or printed.strip() == ""  # report goes to the file
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1 and doc["config"]["seed"] == 7


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda r: r["entries"].append({"i": -1, "j": 0, "witness": -7}), "(-1, 0) lies outside an n=10 matrix"),
        (lambda r: r["entries"][0].update(witness=-3), "negative witness -3"),
        (lambda r: r.update(n=11), "witness matrix has n=11 but the product is 10x10"),
        (lambda r: r["entries"][0].update(witness=10), "has witness 10 outside [0, 10)"),
        (lambda r: r["entries"][0].update(i=None), "must have integer i, j and witness"),
        (lambda r: r.update(entries=5), "entries must be a list of objects"),
        (lambda r: r.update(entries=[[0, 0, 0]]), "entries must be a list of objects"),
        (lambda r: r["entries"][0].update(i=0.7), "must have integer i, j and witness"),
        (lambda r: r.update(n=True), "n must be an integer, got True"),
    ],
    ids=["negative-index", "negative-witness", "size-mismatch", "witness-out-of-range",
         "null-index", "entries-not-a-list", "entry-not-an-object", "float-index", "bool-size"],
)
def test_verify_rejects_malformed_results(tmp_path, capsys, corrupt, message):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix_text(a, random_matrix(10, 0.4, seed=230))
    save_matrix_text(b, random_matrix(10, 0.4, seed=231))
    rep = tmp_path / "report.json"
    assert main(["maxwit", "--a", str(a), "--b", str(b), "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    corrupt(doc["result"])
    rep.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--a", str(a), "--b", str(b), "--result", str(rep)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_verify_rejects_documents_that_are_not_witness_matrices(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix_text(a, random_matrix(16, 0.4, seed=233))
    save_matrix_text(b, random_matrix(16, 0.4, seed=234))
    kw, lca, bare = tmp_path / "kw.json", tmp_path / "lca.json", tmp_path / "bare.json"
    assert main(["kwitness", "--a", str(a), "--b", str(b), "--k", "2", "--out", str(kw)]) == 0
    assert main(["lca", "--n", "16", "--seed", "3", "--out", str(lca)]) == 0
    bare.write_text(json.dumps({"n": 16}))
    for doc, key in ((kw, "'witness'"), (lca, "'i'"), (bare, "'entries'")):
        capsys.readouterr()
        assert main(["verify", "--a", str(a), "--b", str(b), "--result", str(doc)]) == 1, doc
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert key in captured.err and "not a witness matrix" in captured.err, captured.err


def test_verify_rejects_huge_n_before_allocating(tmp_path, capsys):
    # an (n, n) array for this n would take 6.94 EiB
    a = tmp_path / "a.txt"
    save_matrix_text(a, random_matrix(8, 0.4, seed=232))
    res = tmp_path / "w.json"
    res.write_text(json.dumps({"n": 1_000_000_000, "entries": []}))
    assert main(["verify", "--a", str(a), "--b", str(a), "--result", str(res)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: witness matrix has n=1000000000 but the product is 8x8\n"


@pytest.mark.parametrize("beta", ["inf", "1e12", "nan", "0", "-1", "abc", "2x"])
@pytest.mark.parametrize(
    "argv",
    [
        ("maxwit", "--algo", "alg1", "--n", "4"),
        ("lca", "--solver", "qsim-algorithm4", "--n", "4"),
        ("campaign", "--target", "maxwit-accuracy", "--n", "4", "--trials", "1"),
    ],
    ids=["maxwit", "lca", "campaign"],
)
def test_beta_out_of_range_is_a_config_error(capsys, argv, beta):
    assert main([*argv, "--beta", beta]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument --beta: must be in (0, 64], got {beta}\n"


def test_graph_commands_reject_non_finite_weights(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("3 3 weighted\n0 1\n1 2\n0 2\n1.0 nan 2.0\n")
    for cmd in ("lca", "triangle", "two-edge"):
        capsys.readouterr()
        assert main([cmd, "--graph", str(g), "--verify"]) == 1, cmd
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {g}: vertex weights must be finite\n", cmd
    with pytest.raises(ValueError):
        VertexWeightedGraph(2, ((0, 1),), (1.0, float("inf")))


def test_graph_parse_errors_are_one_error_line(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("3 1 weighted\n0 x\n1.0 2.0 3.0\n")
    for cmd in ("lca", "triangle", "two-edge"):
        capsys.readouterr()
        assert main([cmd, "--graph", str(g)]) == 1, cmd
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {g}: line 2: an edge must be two integers 'u v', got '0 x'\n"


# command -> (instance flags, CSV header); every first three CSV columns are indices
TIMED = {
    "maxwit": (["--n", "10", "--density", "0.4"], "i,j,witness"),
    "approx": (["--n", "10", "--density", "0.4", "--method", "rank-bounded", "--ell", "3"], "i,j,witness"),
    "kwitness": (["--n", "10", "--density", "0.4", "--k", "3"], "i,j,witness"),
    "lca": (["--n", "12", "--density", "0.25"], "u,v,lca"),
    "triangle": (["--n", "12", "--density", "0.5"], "u,v,apex"),
    "two-edge": (["--n", "10", "--density", "0.4"], "i,j,mid,weight"),
}
SOLVER_FLAGS = {"maxwit": ("--algo", tuple(SOLVERS)), "lca": ("--solver", tuple(LCA_SOLVERS))}


@pytest.mark.parametrize("cmd", sorted(TIMED))
def test_timed_commands_share_emit_path(cmd, capsys):
    flags, header = TIMED[cmd]
    n = int(flags[1])
    code, out = run(capsys, cmd, *flags, "--seed", "3", "--format", "csv", "--one-based", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == header and len(lines) > 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(header.split(","))
        assert all(1 <= int(f) <= n for f in fields[:3])

    doc = json.loads(run(capsys, cmd, *flags, "--timing")[1])
    assert set(doc["timing"]) == {"load_s", "solve_s", "verify_s"}

    flag, names = SOLVER_FLAGS.get(cmd, (None, ()))
    for name in names:
        code, out = run(capsys, cmd, *flags, "--seed", "5", flag, name, "--verify")
        assert code == 0, name
        assert json.loads(out)["verification"]["passed"] is True, name


def test_report_emission_memory(tmp_path):
    """Writing a report costs a small constant per row, not a dict per row,
    and reading one back decodes its entries without json.loads.

    Peaks of tracemalloc over the whole command, n=256 and density 0.3: the
    maxwit JSON report (about 65k entries) peaked at 57.0 MiB and the
    kwitness k=4 CSV (about 262k lines) at 25.7 MiB while reports were
    built as one dict or tuple per row, and at 11.5 and 17.7 MiB while each
    was joined into one string. Streamed from numpy row blocks they peak at
    4.4 and 15.1 MiB, the maxwit CSV at 3.6 MiB, and verify of the maxwit
    JSON report at 11.6 MiB (16.8 MiB through json.loads). With the
    kwitness lines expanded one chunk at a time, not as whole repeated
    columns, its CSV peaks at 5.2 MiB. Decoded window by window from the
    open file into the witness matrix, that verify peaks at 6.8 MiB; the
    8.5 MiB bound fails at the 11.6 MiB of reading the whole file. With the
    --verify check over blocks of rows and the witness rows handed to the
    writer one block of matrix rows at a time, the maxwit JSON report peaks
    at 3.15 MiB; the 3.5 MiB bound fails at the 4.4 MiB of whole columns.

    A compact document goes through json.loads. Its verify peaked 2.4 MiB
    above json.loads of the file's text alone while the 2.3 MiB file was
    also held as bytes, and 1.25 MiB above it once the text is read from
    the open file; the 1.8 MiB bound measures the excess, so the size of
    the document's dicts, which varies with the Python version, cancels.
    """
    gen = ["--n", "256", "--density", "0.3", "--seed", "1"]
    a, b, full = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "full.json"
    save_matrix_text(a, random_matrix(256, 0.3, 1))
    save_matrix_text(b, random_matrix(256, 0.3, 2))
    pair = ["--a", str(a), "--b", str(b)]
    assert main(["maxwit", *pair, "--out", str(full)]) == 0
    for argv, bound in (
        (["maxwit", *gen, "--out", str(tmp_path / "m.json")], 3.5),
        (["kwitness", *gen, "--k", "4", "--format", "csv", "--out", str(tmp_path / "k.csv")], 6.5),
        (["maxwit", *gen, "--format", "csv", "--out", str(tmp_path / "m.csv")], 4.5),
        (["verify", *pair, "--result", str(full), "--out", str(tmp_path / "v.json")], 8.5),
    ):
        peak = _peak(lambda: main(argv) == 0)
        assert peak < bound * 2**20, (argv[0], peak / 2**20)

    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(json.loads(full.read_text())["result"]))
    verify = _peak(lambda: main(["verify", *pair, "--result", str(compact), "--out", str(tmp_path / "v.json")]) == 0)
    loads = _peak(lambda: json.loads(compact.read_text()))
    assert verify - loads < 1.8 * 2**20, (verify - loads) / 2**20


def test_verify_memory_does_not_grow_with_defects(tmp_path):
    """verify counts defects in the rank pass, not a tuple per defect.

    An empty report against an n=512, density 0.3 pair has 262,144 missing
    entries. Built as lists of tuples they peaked at 49.0 MiB of tracemalloc;
    counted from n x n masks, at 5.8 MiB; counted block by block, at 5.4 MiB.
    """
    a, b, res = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "empty.json"
    save_matrix_text(a, random_matrix(512, 0.3, 1))
    save_matrix_text(b, random_matrix(512, 0.3, 2))
    res.write_text(json.dumps({"n": 512, "entries": []}))
    out = tmp_path / "v.json"
    argv = ["verify", "--a", str(a), "--b", str(b), "--result", str(res), "--out", str(out)]
    peak = _peak(lambda: main(argv) == 3)
    assert peak < 10 * 2**20, peak / 2**20
    diff = json.loads(out.read_text())["diff"]
    assert diff["missing"] == diff["max_witness_disagreements"] == 512 * 512
    assert diff["invalid"] == diff["spurious"] == 0 and diff["invalid_sample"] == []


def _peak(call) -> int:
    """The tracemalloc peak of call(), which must return a true value."""
    tracemalloc.start()
    try:
        assert call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kwitness_job_memory(tmp_path, fmt):
    """The k-witness job holds each stage's work to blocks, not to arrays
    over every listed witness.

    Peaks of tracemalloc over the whole command at n=512, density 0.0765,
    k=4, --verify (about 700k listed witnesses): 42.4 MiB for CSV and 33.5
    MiB for JSON while sampling held three 4 MiB word blocks, the check
    built (i, j, w) arrays over every witness and the CSV writer repeated
    whole columns; 19.2 MiB for both with blocked sampling, check and CSV
    lines, which the sampling core's int64 witness slots set. With int32
    slots the job peaked at 17.6 MiB, in report writing. With slots, counts
    and lists kept in the narrowest type that holds q, k and -1 (int16 here:
    2.00 MiB for the 512^2 * 4 slots) and the report rows made one block of
    matrix rows at a time, it peaks at 10.1 MiB; the 11.5 MiB bound fails
    at the 17.6 MiB.
    """
    argv = ["kwitness", "--n", "512", "--density", "0.0765", "--seed", "1", "--k", "4", "--verify"]
    tracemalloc.start()
    try:
        assert main([*argv, "--format", fmt, "--out", str(tmp_path / f"k.{fmt}")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 11.5 * 2**20, peak / 2**20


def test_kwitness_check_memory():
    """The k-witness check, validate included, reads the lists' slots one
    block of rows at a time.

    Peaks of tracemalloc over ``_check_kwitness`` on the kwit512 pair (n=512,
    density 0.0765, k=4, seed 1): 6.8 MiB while validate and the check took
    every list's start from cumulative sums of the (n, n) lengths over the
    flat witnesses; 2.4 MiB over the slots, of which 1.75 MiB are the dense
    factors, B's transpose and the float32 copy of B. The 3.5 MiB bound fails
    at the 6.8 MiB.
    """
    a = random_matrix(512, 0.0765, spawn_seed(1, 0))
    b = random_matrix(512, 0.0765, spawn_seed(1, 1))
    wl = k_witness(a, b, 4, seed=1)
    peak = _peak(lambda: cli._check_kwitness(Namespace(k=4), (a, b), wl)["passed"])
    assert peak < 3.5 * 2**20, peak / 2**20


@pytest.mark.parametrize("algo", ["strips", "oracle"])
def test_exact_job_memory_after_the_solver(tmp_path, algo):
    """The --verify check and the report writer hold no n x n temporaries.

    Peaks of tracemalloc over the whole command at n=1024, density 0.01:
    22.3 MiB for both solvers while the check held n^2 int64 ranks, n^2
    masks and a dense product, max_witness_oracle filled its own n^2 array
    that WitnessMatrix then copied, and the CSV writer held whole i, j and
    witness columns. With the check over blocks of rows, the oracle writing
    into the result's array and the rows made one block of matrix rows at a
    time, both peak at 13.7 MiB, 8 MiB of it the int64 witness matrix; the
    15 MiB bound fails at the 22.3 MiB.
    """
    argv = ["maxwit", "--algo", algo, "--n", "1024", "--density", "0.01", "--verify", "--format", "csv"]
    peak = _peak(lambda: main([*argv, "--out", str(tmp_path / "w.csv")]) == 0)
    assert peak < 15 * 2**20, peak / 2**20


def test_graph_table_memory(tmp_path):
    """Graph reports are written from the result's n x n arrays one block of
    rows at a time, not from index arrays over every row.

    Peaks of tracemalloc over the whole lca command at n=512, density 0.05,
    seed 1, CSV: 12.8 MiB while the rows were built whole, as np.nonzero
    index arrays over every pair with a common ancestor and their one-based
    copies; 7.3 MiB with the table made one block of about 32k entries at a
    time, most of it the solver's n x n arrays. The 9.5 MiB bound fails at
    the 12.8 MiB.
    """
    argv = ["lca", "--n", "512", "--density", "0.05", "--seed", "1", "--format", "csv"]
    peak = _peak(lambda: main([*argv, "--out", str(tmp_path / "lca.csv")]) == 0)
    assert peak < 9.5 * 2**20, peak / 2**20


def test_verify_may_write_over_a_report_of_many_windows(tmp_path, capsys, monkeypatch):
    """verify reads the --result file window by window and closes it before
    the --out file, here the same one, is opened."""
    monkeypatch.setattr("maxwit.io._WINDOW", 256)  # about four entries a window
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix_text(a, random_matrix(12, 0.5, seed=240))
    save_matrix_text(b, random_matrix(12, 0.5, seed=241))
    pair = ["--a", str(a), "--b", str(b)]
    rep, copy = tmp_path / "r.json", tmp_path / "copy.json"
    assert main(["approx", "--method", "rank-bounded", *pair, "--ell", "4", "--out", str(rep)]) == 0
    copy.write_bytes(rep.read_bytes())
    assert rep.stat().st_size > 20 * 256
    code, out = run(capsys, "verify", *pair, "--result", str(copy), "--max-rank", "4")
    assert code == 0
    assert main(["verify", *pair, "--result", str(rep), "--max-rank", "4", "--out", str(rep)]) == 0
    got, want = json.loads(rep.read_text()), json.loads(out)
    assert got["diff"] == want["diff"] and want["diff"]["passed"] is True
    assert got["config"]["out"] == got["config"]["result"] == str(rep)


@pytest.mark.parametrize("argv", [("gen", "--kind", "matrix", "--out", "m.txt"), ("maxwit",)])
def test_n_too_large_for_any_array_is_rejected_before_allocating(tmp_path, capsys, monkeypatch, argv):
    # an (n, n) array of 8-byte values for this n would take 8e22 bytes, past numpy's size limit
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--n", "99999999999"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: argument --n: must be at most ")
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize(
    "argv", [("maxwit", "--n", "1000000"), ("gen", "--kind", "matrix", "--n", "1000000", "--out", "m.txt")]
)
def test_failed_allocation_is_one_error_line(monkeypatch, tmp_path, capsys, argv):
    # stands in for the 7 TiB array a real run would request; nothing that large is allocated
    def refuse(n, density, seed):
        raise MemoryError(f"Unable to allocate an ({n}, {n}) array")

    monkeypatch.setattr("maxwit.cli.random_matrix", refuse)
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate an (1000000, 1000000) array\n"
