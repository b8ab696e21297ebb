"""Command-line front end: generators, solvers, verification, campaigns.

Exit codes: 0 success, 1 invalid configuration, 2 file I/O failure,
3 verification failure.

Every witness check (--verify on maxwit and approx, the verify command and
the multiwitness and maxwit-accuracy campaigns) is one rank pass over
blocks of rows, ``boolmat._check_pass``. The maximum witness is the witness
of rank 1, so that pass also counts the entries that differ from it; no
check runs ``max_witness_oracle``.

Reports are canonical JSON (sorted keys, two-space indent) and embed the
full run configuration, so identical configurations yield byte-identical
files; wall-clock timings are included only on request (--timing) and never
in campaign reports. Every report, JSON or CSV, is written piece by piece
onto stdout or the --out file, which is opened only at the first write: a
report that fails a writer's check before that write leaves an existing
file untouched. Every report table reaches the writers as one
``io.RowBlock`` over the result's n x n arrays, checked when it is built
and made one block of rows at a time; the two-edge weight is the one float
column, and it is finite because graph weights are checked on load, so no
block can fail once writing has begun. The verify command reads the
--result file with ``io.read_witness_report``, which decodes a canonical
report window by window into the witness matrix, and closes it before it
writes anything.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, io
from .boolmat import (
    BoolMatrix,
    WitnessMatrix,
    _check_pass,
    product_dims,
    random_matrix,
)
from .graphs import (
    LCA_SOLVERS,
    all_pairs_lca,
    brute_force_heaviest_triangles,
    brute_force_two_edge_paths,
    heaviest_triangle_per_edge,
    lca_errors,
    max_weight_two_edge_paths,
    random_dag,
    random_weighted_graph,
)
from .qsim import (
    TABLE_SHAPES,
    algorithm1,
    durr_hoyer_batch,
    table_values,
)
from .rng import np_stream, spawn_seed
from .solvers import SOLVERS, binomial_tolerance
from .witness import (
    ApproxParams,
    approx_multiwitness,
    approx_multiwitness_boosted,
    approx_rank_bounded,
    default_strip_width,
    k_witness,
)

__all__ = ["main", "build_parser", "ConfigError"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    """Invalid flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for I/O errors
        raise ConfigError(message)


# Above this, n^-beta is below 2^-64 for every n >= 2: no run can get more accurate.
_BETA_MAX = 64.0


def _beta(text: str) -> float:
    """The --beta value: a float in (0, _BETA_MAX]; inf, nan and text that is
    no number are rejected too, with the same message."""
    try:
        beta = float(text)
    except ValueError:
        beta = float("nan")  # fails the range check below
    if not 0 < beta <= _BETA_MAX:
        raise argparse.ArgumentTypeError(f"must be in (0, {_BETA_MAX:g}], got {text}")
    return beta


def _seed(text: str) -> int:
    """The --seed value: a non-negative integer, as the random streams need."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1  # fails the check below
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return seed


# Above this, an n x n array of 8-byte values, such as the generators'
# draws, exceeds numpy's size limit.
_N_MAX = math.isqrt(np.iinfo(np.intp).max // 8)


def _size(text: str) -> int:
    """The --n value: an integer from 1 to _N_MAX, checked before anything
    of size n is allocated."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    if n > _N_MAX:
        raise argparse.ArgumentTypeError(
            f"must be at most {_N_MAX}, the largest n whose n x n array fits, got {text}"
        )
    return n


def _max_rank(text: str) -> int:
    """The --max-rank value: an integer of at least 1, the maximum witness's rank."""
    try:
        rank = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text}") from None
    if rank < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return rank


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _load_pair(args) -> tuple[BoolMatrix, BoolMatrix]:
    if args.a or args.b:
        if not (args.a and args.b):
            raise ConfigError("--a and --b must be given together")
        return io.load_matrix(args.a), io.load_matrix(args.b)
    if args.n is None:
        raise ConfigError("either --a/--b files or --n is required")
    a = random_matrix(args.n, args.density, spawn_seed(args.seed, 0))
    b = random_matrix(args.n, args.density, spawn_seed(args.seed, 1))
    return a, b


def _load_graph(args, read: Callable, generate: Callable):
    """The --graph file via ``read``, else ``generate(n, density, seed)``."""
    if args.graph:
        return read(args.graph)
    if args.n is None:
        raise ConfigError("either --graph or --n is required")
    return generate(args.n, args.density, args.seed)


def _emit_report(args, payload: dict) -> None:
    """Emit the canonical JSON report: payload plus the schema, the version
    and "config", every parsed option of the run (enough to replay it)."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    doc = {"schema": SCHEMA_VERSION, "version": __version__, "config": config}
    doc.update(payload)
    _emit(args, partial(io.canonical_json, doc))


class _OutFile:
    """The --out file as a text stream that is opened, and so truncated, at
    its first write: a report rejected before it writes anything leaves an
    existing file as it was."""

    def __init__(self, path: str):
        self.path, self.fh = path, None

    def write(self, text: str) -> None:
        if self.fh is None:
            self.fh = Path(self.path).open("w")
        self.fh.write(text)

    def writelines(self, pieces) -> None:
        for text in pieces:
            self.write(text)


def _emit(args, write: Callable) -> None:
    """write(stream) onto the --out file, or onto stdout without one."""
    if not getattr(args, "out", None):
        write(sys.stdout)
        return
    out = _OutFile(args.out)
    try:
        write(out)
    finally:
        if out.fh is not None:
            out.fh.close()


def _witness_verdict(counts: dict, max_rank: int | None = None, may_miss: bool = False) -> dict:
    """The defect counts of one rank pass (``_check_pass``, given max_rank
    when it is not None) and "passed": no invalid or spurious entry, no
    missing one unless may_miss, and, when max_rank is given, no reported
    witness that is not a witness or ranks above max_rank."""
    verdict = {key: counts[key] for key in ("invalid", "missing", "spurious")}
    bad = sum(verdict.values()) - (verdict["missing"] if may_miss else 0)
    if max_rank is not None:
        verdict["rank_violations"] = counts["rank_violations"]
        verdict["max_rank_allowed"] = max_rank
        bad += verdict["rank_violations"]
    verdict["passed"] = bad == 0
    return verdict


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.n is None:
        raise ConfigError("gen requires --n")
    if not args.out:
        raise ConfigError("gen requires --out")
    if args.kind == "matrix":
        m = random_matrix(args.n, args.density, args.seed)
        if args.format == "binary":
            io.save_matrix_binary(args.out, m)
        else:
            io.save_matrix_text(args.out, m)
        info = {"kind": "matrix", "rows": m.rows, "cols": m.cols, "ones": m.popcount()}
    elif args.kind == "dag":
        d = random_dag(args.n, args.density, args.seed)
        io.save_dag(args.out, d)
        info = {"kind": "dag", "n": d.n, "edges": len(d.edges)}
    else:
        g = random_weighted_graph(args.n, args.density, args.seed, args.directed)
        io.save_graph(args.out, g)
        info = {"kind": "graph", "n": g.n, "edges": len(g.edges), "directed": g.directed}
    io.canonical_json({"written": args.out, **info}, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# The timed pipeline: load -> solve -> verify -> emit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pipeline:
    """One timed subcommand, given as the steps it does not share.

    load(args) -> x; solve(args, x) -> r; check(args, x, r) -> the
    verification dict, whose "passed" key sets exit code 3; rows(args, x, r,
    off) -> the result's ``io.RowBlock`` with indices shifted by off, written
    as CSV under ``header``; and report(args, x, r, rows, verification) ->
    the JSON fields besides "verification" and "timing", rows among them.
    ``time.perf_counter`` is read exactly at the start and after load, solve
    and verify: those are the --timing intervals.
    """

    load: Callable
    solve: Callable
    check: Callable
    header: str
    rows: Callable
    report: Callable

    def __call__(self, args) -> int:
        t0 = time.perf_counter()
        x = self.load(args)
        t1 = time.perf_counter()
        r = self.solve(args, x)
        t2 = time.perf_counter()
        verification = self.check(args, x, r) if args.verify else None
        t3 = time.perf_counter()

        rows = self.rows(args, x, r, int(args.one_based))
        if args.format == "csv":
            _emit(args, partial(io.write_csv, self.header, rows))
        else:
            payload = self.report(args, x, r, rows, verification)
            if verification is not None:
                payload["verification"] = verification
            if args.timing:
                marks = {"load_s": t1 - t0, "solve_s": t2 - t1, "verify_s": t3 - t2}
                payload["timing"] = {k: round(v, 6) for k, v in marks.items()}
            _emit_report(args, payload)
        return EXIT_VERIFY if verification is not None and not verification["passed"] else EXIT_OK


def _witness_rows(args, ab, r, off) -> io.RowBlock:
    return io.RowBlock(("i", "j"), {"witness": r[0].array}, off)


def _witness_report(args, ab, r, rows, verification) -> dict:
    return {"result": {"n": r[0].n, "entries": rows}}


def _check_maxwit(args, ab, r) -> dict:
    (a, b), (wm, _) = ab, r
    solver = SOLVERS[args.algo]
    counts, _ = _check_pass(a, b, wm)
    rate = counts["disagreements"] / (wm.n * wm.n)
    tolerance = solver.tolerance(wm.n, args.beta)
    verdict = _witness_verdict(counts, may_miss=not solver.exact)  # exact solvers may not drop entries
    return {
        **verdict,
        "disagreements": counts["disagreements"],
        "disagreement_rate": rate,
        "tolerance": tolerance,
        "passed": verdict["passed"] and rate <= tolerance,
    }


def _report_maxwit(args, ab, r, rows, verification) -> dict:
    stats = r[1]
    payload = _witness_report(args, ab, r, rows, verification)
    if stats is not None:
        if verification is not None:
            stats = replace(stats, error_rate_vs_oracle=verification["disagreement_rate"])
        payload["stats"] = stats.to_json_dict()
    return payload


MAXWIT = Pipeline(
    load=_load_pair,
    solve=lambda args, ab: SOLVERS[args.algo].run(*ab, args.ell, args.beta, args.seed),
    check=_check_maxwit,
    header="i,j,witness",
    rows=_witness_rows,
    report=_report_maxwit,
)


def _solve_approx(args, ab) -> tuple[WitnessMatrix, int | None]:
    """The witnesses and, for rank-bounded, the rank bound they must meet."""
    a, b = ab
    if args.method == "rank-bounded":
        ell = default_strip_width(a.cols) if args.ell is None else args.ell
        return approx_rank_bounded(a, b, ell, args.seed), ell
    return approx_multiwitness_boosted(a, b, ApproxParams(args.k, args.reps, args.seed)), None


def _check_approx(args, ab, r) -> dict:
    (a, b), (wm, ell) = ab, r
    return _witness_verdict(_check_pass(a, b, wm, ell)[0], ell)


APPROX = Pipeline(
    load=_load_pair,
    solve=_solve_approx,
    check=_check_approx,
    header="i,j,witness",
    rows=_witness_rows,
    report=_witness_report,
)


def _solve_kwitness(args, ab):
    if args.k is None:
        raise ConfigError("kwitness requires --k")
    return k_witness(*ab, args.k, args.seed)


# bytes of the int64 indices of the slots the k-witness check gathers per block of rows
_CHECK_BYTES = 1 << 18


def _check_kwitness(args, ab, wl) -> dict:
    """Count the lists whose length is not min(k, W) and the listed indices
    that are no witness, over blocks of rows of the lists' slots. A block's
    W are one float32 count product, exact while the inner dimension is
    below 2^24 (float64 above), as in the solver, and its list lengths are
    the product of the listed slots with a ones vector, exact as no list
    is longer than the inner dimension. Slot x of entry (i, j) is
    checked by gathering A[i, x] and B[x, j] for every slot of the block at
    once; a padding slot gathers index 0 and is not counted."""
    a, b = ab
    wl.validate()
    ad, bd = a.to_dense(), b.to_dense()
    ftype = np.float32 if a.cols < 1 << 24 else np.float64
    bf = bd.astype(ftype)
    q = a.cols
    af, bt = ad.ravel(), np.ascontiguousarray(bd.T).ravel()  # af[i * q + x] = A[i, x], bt[j * q + x] = B[x, j]
    cols = np.arange(wl.n)[:, None] * q
    ones = np.ones(wl.k, ftype)
    step = max(1, _CHECK_BYTES // (8 * wl.n * wl.k))
    length_bad = invalid = 0
    for s in range(0, wl.n, step):
        slots = wl.slots[s : s + step]
        listed = slots >= 0
        length_bad += int((np.minimum(ad[s : s + step].astype(ftype) @ bf, args.k) != listed.astype(ftype) @ ones).sum())
        x = slots.astype(np.intp)
        np.maximum(x, 0, out=x)
        hit = af[x + np.arange(s, s + len(x))[:, None, None] * q] & bt[x + cols]
        invalid += int(np.count_nonzero(listed & (hit == 0)))
    return {
        "length_mismatches": length_bad,
        "invalid": invalid,
        "passed": length_bad == 0 and invalid == 0,
    }


KWITNESS = Pipeline(
    load=_load_pair,
    solve=_solve_kwitness,
    check=_check_kwitness,
    header="i,j,witness",
    rows=lambda args, ab, wl, off: io.RowBlock(("i", "j"), {}, off, "witnesses", wl.slots),
    report=lambda args, ab, wl, rows, verification: {"result": {"n": wl.n, "k": wl.k, "entries": rows}},
)


def _graph_pipeline(load, solve, check, header, rows, key="entries") -> Pipeline:
    """A graph command, whose JSON result lists its rows under ``key``."""

    def report(args, g, r, block, verification):
        return {"result": {"n": g.n, key: block}}

    return Pipeline(load, solve, check, header, rows, report)


def _check_lca(args, dag, lca) -> dict:
    wrong = lca_errors(dag, lca)
    tolerance = SOLVERS[LCA_SOLVERS[args.solver]].tolerance(dag.n, args.beta)
    rate = wrong / (dag.n * dag.n)
    return {"wrong_pairs": wrong, "rate": rate, "tolerance": tolerance, "passed": rate <= tolerance}


LCA = _graph_pipeline(
    load=lambda args: _load_graph(args, io.load_dag, random_dag),
    solve=lambda args, dag: all_pairs_lca(dag, args.solver, args.ell, args.beta, args.seed),
    check=_check_lca,
    header="u,v,lca",
    rows=lambda args, dag, lca, off: io.RowBlock(("u", "v"), {"lca": lca}, off),
)


def _check_triangle(args, g, apex) -> dict:
    ref = brute_force_heaviest_triangles(g, args.lightest)
    wrong = sum(1 for e in apex if apex[e] != ref[e])
    return {"wrong_edges": wrong, "passed": wrong == 0}


def _triangle_rows(args, g, apex, off) -> io.RowBlock:
    """The apex of each edge (u, v), u < v, found as an (n, n) table, -1 elsewhere."""
    table = np.full((g.n, g.n), -1, np.int64)
    u, v, w = np.array([(*e, w) for e, w in apex.items() if w is not None], np.int64).reshape(-1, 3).T
    table[u, v] = w
    return io.RowBlock(("u", "v"), {"apex": table}, off)


TRIANGLE = _graph_pipeline(
    load=lambda args: _load_graph(args, io.load_graph, partial(random_weighted_graph, directed=False)),
    solve=lambda args, g: heaviest_triangle_per_edge(g, args.lightest),
    check=_check_triangle,
    header="u,v,apex",
    rows=_triangle_rows,
    key="edges",
)


def _check_two_edge(args, g, r) -> dict:
    (mid, weight), (rmid, rweight) = r, brute_force_two_edge_paths(g)
    wrong = int((mid != rmid).sum())
    both = (mid >= 0) & (rmid >= 0)
    wrong += int((weight[both] != rweight[both]).sum())
    return {"wrong_pairs": wrong, "passed": wrong == 0}


TWO_EDGE = _graph_pipeline(
    load=lambda args: _load_graph(args, io.load_graph, partial(random_weighted_graph, directed=True)),
    solve=lambda args, g: max_weight_two_edge_paths(g),
    check=_check_two_edge,
    header="i,j,mid,weight",
    rows=lambda args, g, r, off: io.RowBlock(("i", "j"), {"mid": r[0], "weight": r[1]}, off),
)


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


def _parse_q_grid(text: str) -> list[int]:
    try:
        qs = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--q-grid must be comma-separated integers, got {text!r}") from None
    if len(qs) < 2 or any(q < 2 for q in qs) or len(set(qs)) != len(qs):
        raise ConfigError("--q-grid needs at least two distinct entries, each at least 2")
    return qs


def _campaign_durr_hoyer(args) -> dict:
    qs = _parse_q_grid(args.q_grid)
    cells, pooled = [], []
    for qi, q in enumerate(qs):
        means = []
        for si, shape in enumerate(TABLE_SHAPES):
            _, hits, queries = durr_hoyer_batch(
                np.stack([table_values(shape, q, np_stream(args.seed, 31, qi, si, t)) for t in range(args.trials)]),
                np_stream(args.seed, 30, qi, si),
            )
            queries = queries.astype(np.float64)
            means.append(float(queries.mean()))
            cells.append({
                "q": q,
                "shape": shape,
                "trials": args.trials,
                "success_rate": int(hits.sum()) / args.trials,
                "mean_queries": means[-1],
                "std_queries": float(queries.std()),
            })
        pooled.append(float(np.mean(means)))
    slope = float(np.polyfit(np.log(np.asarray(qs, np.float64)), np.log(pooled), 1)[0])
    return {
        "target": "durr-hoyer",
        "cells": cells,
        "pooled_mean_queries": dict(zip(map(str, qs), pooled)),
        "slope": slope,
        "min_success_rate": min(c["success_rate"] for c in cells),
    }


def _campaign_n(args) -> int:
    """--n, 64 when absent."""
    return 64 if args.n is None else args.n


def _campaign_multiwitness(args) -> dict:
    n, k = _campaign_n(args), args.k
    a = b = BoolMatrix.ones(n)
    bound = 4 * -(-n // k)  # every entry of the all-ones product has W = n witnesses
    trials = []
    for t in range(args.trials):
        wm = approx_multiwitness(a, b, ApproxParams(k, 1, spawn_seed(args.seed, 32, t)))
        counts = _check_pass(a, b, wm, bound)[0]  # every entry of a x b is nonzero: none is spurious
        trials.append({
            "trial": t,
            "success_rate": (n * n - counts["missing"] - counts["rank_violations"]) / (n * n),
            "validity_violations": counts["missing"] + counts["invalid"],
        })
    return {
        "target": "multiwitness",
        "n": n,
        "k": k,
        "trials": trials,
        "pooled_success_rate": float(np.mean([t["success_rate"] for t in trials])),
        "total_validity_violations": int(sum(t["validity_violations"] for t in trials)),
        "bound_form": "rank <= 4*ceil(W/k)",
    }


def _campaign_maxwit_accuracy(args) -> dict:
    n = _campaign_n(args)
    trials = []
    for t in range(args.trials):
        a = random_matrix(n, args.density, spawn_seed(args.seed, 33, t, 0))
        b = random_matrix(n, args.density, spawn_seed(args.seed, 33, t, 1))
        wm, stats = algorithm1(a, b, args.beta, spawn_seed(args.seed, 34, t))
        trials.append({
            "trial": t,
            "wrong_entries": _check_pass(a, b, wm)[0]["disagreements"],
            "entries": n * n,
            "mean_queries_per_entry": stats.mean_queries_per_entry,
        })
    wrong = sum(t["wrong_entries"] for t in trials)
    total = sum(t["entries"] for t in trials)
    p = n ** (-args.beta)
    return {
        "target": "maxwit-accuracy",
        "n": n,
        "beta": args.beta,
        "trials": trials,
        "entry_trials": total,
        "error_rate": wrong / total,
        "error_bound": binomial_tolerance(p, total),
    }


CAMPAIGNS = {
    "durr-hoyer": _campaign_durr_hoyer,
    "multiwitness": _campaign_multiwitness,
    "maxwit-accuracy": _campaign_maxwit_accuracy,
}


def _cmd_campaign(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    _emit_report(args, {"results": CAMPAIGNS[args.target](args)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _report_matrix(a: BoolMatrix, b: BoolMatrix, doc) -> WitnessMatrix:
    """The witnesses of the document doc, for the product of a and b."""
    one_based = False
    if isinstance(doc, dict) and "result" in doc:  # full report: its own config gives the index base
        config = doc.get("config")
        one_based = config.get("one_based", False) if isinstance(config, dict) else False
        if type(one_based) is not bool:
            raise ConfigError(f"the report's config.one_based must be true or false, got {one_based!r}")
        doc = doc["result"]
    n, _ = product_dims(a, b, square=True)
    return WitnessMatrix.from_json_dict(doc, one_based, expect_n=n)


def _cmd_verify(args) -> int:
    a, b = _load_pair(args)
    wm = io.read_witness_report(args.result, partial(_report_matrix, a, b))  # closed before --out opens
    counts, lists = _check_pass(a, b, wm, args.max_rank)  # rejects witnesses outside [0, inner dimension)
    diff = {
        "entries": wm.n * wm.n,
        "max_witness_disagreements": counts["disagreements"],
        "invalid_sample": [list(entry) for entry in lists["invalid"]],
        **_witness_verdict(counts, args.max_rank),
    }
    _emit_report(args, {"diff": diff})
    return EXIT_OK if diff["passed"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p, matrices: bool = True, graph: bool = False) -> None:
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--one-based", dest="one_based", action="store_true")
    p.add_argument("--verify", action="store_true", help="check the result; exit 3 on failure")
    p.add_argument("--timing", action="store_true", help="include wall-clock timings in the report")
    if matrices:
        p.add_argument("--a", type=str, default=None, help="left matrix file")
        p.add_argument("--b", type=str, default=None, help="right matrix file")
    if graph:
        p.add_argument("--graph", type=str, default=None, help="graph file")
    p.add_argument("--n", type=_size, default=None, help="size for generated instances")
    p.add_argument("--density", type=float, default=0.5)


def build_parser() -> _Parser:
    parser = _Parser(prog="maxwit", description=(__doc__ or "").partition("\n")[0])  # no docstring under -OO
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a random matrix, dag, or weighted graph file")
    p.add_argument("--kind", choices=("matrix", "dag", "graph"), default="matrix")
    p.add_argument("--n", type=_size, default=None)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--directed", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("maxwit", help="maximum witness of a Boolean product")
    _add_common(p)
    p.add_argument("--algo", choices=tuple(SOLVERS), default="oracle")
    p.add_argument("--ell", type=int, default=None, help="strip width (strips, alg4)")
    p.add_argument("--beta", type=_beta, default=2.0)
    p.set_defaults(func=MAXWIT)

    p = sub.add_parser("approx", help="approximate maximum witnesses")
    _add_common(p)
    p.add_argument("--method", choices=("rank-bounded", "multiwitness"), required=True)
    p.add_argument("--ell", type=int, default=None, help="rank bound (rank-bounded)")
    p.add_argument("--k", type=int, default=4, help="witnesses per round (multiwitness)")
    p.add_argument("--reps", type=int, default=1)
    p.set_defaults(func=APPROX)

    p = sub.add_parser("kwitness", help="min(k, W) distinct witnesses per entry")
    _add_common(p)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=KWITNESS)

    p = sub.add_parser("lca", help="all-pairs lowest common ancestors of a dag")
    _add_common(p, matrices=False, graph=True)
    p.add_argument("--solver", choices=tuple(LCA_SOLVERS), default="oracle")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--beta", type=_beta, default=2.0)
    p.set_defaults(func=LCA)

    p = sub.add_parser("triangle", help="extreme-weight triangle through every edge")
    _add_common(p, matrices=False, graph=True)
    p.add_argument("--lightest", action="store_true")
    p.set_defaults(func=TRIANGLE)

    p = sub.add_parser("two-edge", help="max middle-weight two-edge paths, all pairs")
    _add_common(p, matrices=False, graph=True)
    p.set_defaults(func=TWO_EDGE)

    p = sub.add_parser("campaign", help="Monte-Carlo statistics campaigns")
    p.add_argument("--target", choices=tuple(CAMPAIGNS), required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--q-grid", dest="q_grid", type=str, default="64,256,1024,4096")
    p.add_argument("--n", type=_size, default=None)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--beta", type=_beta, default=2.0)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("verify", help="check a witness result file against the product")
    p.add_argument("--a", type=str, required=True)
    p.add_argument("--b", type=str, required=True)
    p.add_argument("--result", type=str, required=True)
    p.add_argument("--max-rank", dest="max_rank", type=_max_rank, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, IndexError, KeyError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy names the failed allocation
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
