"""Command-line interface: exit codes, report schema, determinism."""
from __future__ import annotations

import json
import os

import pytest

from maxwit.boolmat import max_witness_oracle, random_matrix
from maxwit.cli import _thread_count, main
from maxwit.graphs import LCA_SOLVERS, VertexWeightedGraph
from maxwit.io import load_matrix, save_matrix_text, write_witness_json
from maxwit.solvers import SOLVERS


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


def test_exit_codes():
    assert main(["maxwit", "--algo", "bogus", "--n", "8"]) == 1  # bad flag value
    assert main(["maxwit"]) == 1  # neither --a/--b nor --n
    assert main(["maxwit", "--a", "/nonexistent/a", "--b", "/nonexistent/b"]) == 2
    assert main(["gen", "--n", "4", "--out", "/nonexistent/dir/m.txt"]) == 2
    assert main(["maxwit", "--n", "8", "--verify"]) == 0


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


def test_campaign_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "c.json"
    argv = ["campaign", "--target", "durr-hoyer", "--trials", "15", "--q-grid", "16,64",
            "--seed", "9", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_campaign_thread_count_does_not_change_bytes(tmp_path):
    out = tmp_path / "c.json"
    argv = ["campaign", "--target", "multiwitness", "--trials", "4", "--n", "16",
            "--seed", "11", "--out", str(out)]
    old = os.environ.get("MAXWIT_THREADS")
    try:
        os.environ["MAXWIT_THREADS"] = "1"
        assert main(argv) == 0
        single = out.read_bytes()
        os.environ["MAXWIT_THREADS"] = "4"
        assert main(argv) == 0
        assert out.read_bytes() == single
    finally:
        if old is None:
            os.environ.pop("MAXWIT_THREADS", None)
        else:
            os.environ["MAXWIT_THREADS"] = old


def test_verify_subcommand(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    am, bm = random_matrix(10, 0.4, seed=200), random_matrix(10, 0.4, seed=201)
    save_matrix_text(a, am)
    save_matrix_text(b, bm)
    wm = max_witness_oracle(am, bm)
    res = tmp_path / "w.json"
    write_witness_json(res, wm)

    code, out = run(capsys, "verify", "--a", str(a), "--b", str(b), "--result", str(res))
    assert code == 0
    assert json.loads(out)["diff"]["passed"] is True

    # corrupt deterministically: replace one witness with a k where A[i,k] = 0
    import numpy as np

    ii, jj = np.nonzero(wm.array >= 0)
    i, j = int(ii[0]), int(jj[0])
    bad_k = next(k for k in range(10) if not (am.row_bits[i] >> k) & 1)
    wm.set(i, j, bad_k)
    write_witness_json(res, wm)
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

    code, _ = run(capsys, "verify", "--a", str(a), "--b", str(b), "--result", str(res), "--max-rank", "1")
    assert code == 3  # rank 4 answers cannot all be maxima


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
    ],
    ids=["negative-index", "negative-witness", "size-mismatch"],
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


def test_graph_commands_reject_non_finite_weights(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("3 3 weighted\n0 1\n1 2\n0 2\n1.0 nan 2.0\n")
    for cmd in ("triangle", "two-edge"):
        capsys.readouterr()
        assert main([cmd, "--graph", str(g), "--verify"]) == 1, cmd
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    with pytest.raises(ValueError):
        VertexWeightedGraph(2, ((0, 1),), (1.0, float("inf")))


def test_thread_count_is_clamped(monkeypatch):
    cpus = os.cpu_count() or 1
    monkeypatch.setenv("MAXWIT_THREADS", str(10**9))
    assert _thread_count(10**6) == cpus
    assert _thread_count(3) == min(3, cpus)
    monkeypatch.setenv("MAXWIT_THREADS", "0")
    assert _thread_count(8) == 1


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
