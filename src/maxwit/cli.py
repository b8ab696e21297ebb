"""Command-line front end: generators, solvers, verification, campaigns.

Exit codes: 0 success, 1 invalid configuration, 2 file I/O failure,
3 verification failure.

Reports are canonical JSON (sorted keys, two-space indent) and embed the
full run configuration, so identical configurations yield byte-identical
files; wall-clock timings are included only on request (--timing) and never
in campaign reports. The MAXWIT_THREADS environment variable caps campaign
parallelism; results are merged by trial index, so the thread count never
changes a report.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, io
from .boolmat import (
    BoolMatrix,
    WitnessMatrix,
    max_witness_oracle,
    random_matrix,
    witness_violations,
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
    witness_rank_matrix,
)

__all__ = ["main", "build_parser", "RunConfig", "ConfigError"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    """Invalid flags or flag combinations; maps to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Complete record of one invocation, embedded in every report.

    Handlers validate the options against the target operation's
    preconditions before dispatching; the stored dict is sufficient to
    replay the run.
    """

    command: str
    options: dict

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        opts = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
        return cls(args.command, dict(sorted(opts.items())))

    def to_json_dict(self) -> dict:
        return {"command": self.command, **self.options}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for I/O errors
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _thread_count(items: int) -> int:
    """MAXWIT_THREADS, clamped to the item count and the CPU count (at least 1)."""
    raw = os.environ.get("MAXWIT_THREADS", "1")
    try:
        requested = int(raw)
    except ValueError:
        raise ConfigError(f"MAXWIT_THREADS must be an integer, got {raw!r}") from None
    return max(1, min(requested, items, os.cpu_count() or 1))


def _map_indexed(fn, items: list) -> list:
    """Apply fn to items, possibly in parallel; results keep item order."""
    workers = _thread_count(len(items))
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, x) for x in items]
        return [f.result() for f in futures]


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


def _report_text(args, payload: dict) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "config": RunConfig.from_args(args).to_json_dict(),
    }
    doc.update(payload)
    return io.canonical_json(doc)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _violation_counts(viol: dict) -> dict:
    return {key: len(viol[key]) for key in ("invalid", "missing", "spurious")}


def _rank_violations(a: BoolMatrix, b: BoolMatrix, wm: WitnessMatrix, bound: int) -> dict:
    ranks = witness_rank_matrix(a, b, wm)
    return {
        "rank_violations": int(((ranks > bound) | (ranks == -2)).sum()),
        "max_rank_allowed": bound,
    }


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
        info = {"kind": "matrix", "rows": m.rows, "cols": m.cols, "ones": sum(r.bit_count() for r in m.row_bits)}
    elif args.kind == "dag":
        d = random_dag(args.n, args.density, args.seed)
        io.save_dag(args.out, d)
        info = {"kind": "dag", "n": d.n, "edges": len(d.edges)}
    else:
        g = random_weighted_graph(args.n, args.density, args.seed, args.directed)
        io.save_graph(args.out, g)
        info = {"kind": "graph", "n": g.n, "edges": len(g.edges), "directed": g.directed}
    sys.stdout.write(io.canonical_json({"written": args.out, **info}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# The timed pipeline: load -> solve -> verify -> emit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pipeline:
    """One timed subcommand, given as the steps it does not share.

    load(args) -> x; solve(args, x) -> r; check(args, x, r) -> the
    verification dict, whose "passed" key sets exit code 3; rows(args, x, r,
    off) -> CSV rows under ``header`` with indices shifted by off; and
    report(args, x, r, verification) -> the JSON fields besides
    "verification" and "timing". ``time.perf_counter`` is read exactly at
    the start and after load, solve and verify: those are the --timing
    intervals.
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

        if args.format == "csv":
            _emit(args, io.csv_text(self.header, self.rows(args, x, r, int(args.one_based))))
        else:
            payload = self.report(args, x, r, verification)
            if verification is not None:
                payload["verification"] = verification
            if args.timing:
                marks = {"load_s": t1 - t0, "solve_s": t2 - t1, "verify_s": t3 - t2}
                payload["timing"] = {k: round(v, 6) for k, v in marks.items()}
            _emit(args, _report_text(args, payload))
        return EXIT_VERIFY if verification is not None and not verification["passed"] else EXIT_OK


def _witness_rows(args, ab, r, off):
    return r[0].to_csv_rows(args.one_based)


def _check_maxwit(args, ab, r) -> dict:
    (a, b), (wm, _) = ab, r
    solver = SOLVERS[args.algo]
    ref = max_witness_oracle(a, b)
    disagree = int((wm.array != ref.array).sum())
    rate = disagree / (wm.n * wm.n)
    tolerance = solver.tolerance(wm.n, args.beta)
    viol = _violation_counts(witness_violations(a, b, wm))
    bad = viol["invalid"] + viol["spurious"]
    if solver.exact:
        bad += viol["missing"]  # exact solvers may not drop entries
    return {
        "disagreements": disagree,
        "disagreement_rate": rate,
        "tolerance": tolerance,
        **viol,
        "passed": rate <= tolerance and bad == 0,
    }


def _report_maxwit(args, ab, r, verification) -> dict:
    wm, stats = r
    payload = {"result": wm.to_json_dict(args.one_based)}
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
    params = ApproxParams(args.k, args.reps, args.seed)
    if args.reps == 1:
        return approx_multiwitness(a, b, params), None
    return approx_multiwitness_boosted(a, b, params), None


def _check_approx(args, ab, r) -> dict:
    (a, b), (wm, ell) = ab, r
    verification = _violation_counts(witness_violations(a, b, wm))
    bad = sum(verification.values())
    if ell is not None:
        verification.update(_rank_violations(a, b, wm, ell))
        bad += verification["rank_violations"]
    verification["passed"] = bad == 0
    return verification


APPROX = Pipeline(
    load=_load_pair,
    solve=_solve_approx,
    check=_check_approx,
    header="i,j,witness",
    rows=_witness_rows,
    report=lambda args, ab, r, verification: {"result": r[0].to_json_dict(args.one_based)},
)


def _solve_kwitness(args, ab):
    if args.k is None:
        raise ConfigError("kwitness requires --k")
    return k_witness(*ab, args.k, args.seed)


def _check_kwitness(args, ab, wl) -> dict:
    ad = ab[0].to_dense()
    bd = ab[1].to_dense()
    wcount = (ad.astype(np.int64) @ bd.astype(np.int64))
    want = np.minimum(wcount, args.k)
    got = wl.lengths()
    length_bad = int((got != want).sum())
    wl.validate()
    # one (i, j, w) triple per listed witness, in row-major order
    i, j = np.divmod(np.repeat(np.arange(wl.n * wl.n), got.ravel()), wl.n)
    w = np.fromiter((w for row in wl.lists for cell in row for w in cell), np.int64, int(got.sum()))
    invalid = int(((ad[i, w] & bd[w, j]) == 0).sum())
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
    rows=lambda args, ab, wl, off: (
        (i + off, j + off, w + off) for i, row in enumerate(wl.lists) for j, cell in enumerate(row) for w in cell
    ),
    report=lambda args, ab, wl, verification: {"result": wl.to_json_dict(args.one_based)},
)


def _graph_pipeline(load, solve, check, header, rows, key="entries") -> Pipeline:
    """A graph command, whose JSON entries are its CSV rows keyed by the header."""

    def report(args, g, r, verification):
        keys = header.split(",")
        entries = [dict(zip(keys, row)) for row in rows(args, g, r, int(args.one_based))]
        return {"result": {"n": g.n, key: entries}}

    return Pipeline(load, solve, check, header, rows, report)


def _check_lca(args, dag, lca) -> dict:
    wrong = lca_errors(dag, lca)
    tolerance = SOLVERS[LCA_SOLVERS[args.solver]].tolerance(dag.n, args.beta)
    rate = wrong / (dag.n * dag.n)
    return {"wrong_pairs": wrong, "rate": rate, "tolerance": tolerance, "passed": rate <= tolerance}


def _lca_rows(args, dag, lca, off):
    return [(int(u) + off, int(v) + off, int(lca[u, v]) + off) for u, v in zip(*np.nonzero(lca >= 0))]


LCA = _graph_pipeline(
    load=lambda args: _load_graph(args, io.load_dag, random_dag),
    solve=lambda args, dag: all_pairs_lca(dag, args.solver, args.ell, args.beta, args.seed),
    check=_check_lca,
    header="u,v,lca",
    rows=_lca_rows,
)


def _check_triangle(args, g, apex) -> dict:
    ref = brute_force_heaviest_triangles(g, args.lightest)
    wrong = sum(1 for e in apex if apex[e] != ref[e])
    return {"wrong_edges": wrong, "passed": wrong == 0}


def _triangle_rows(args, g, apex, off):
    return [(u + off, v + off, w + off) for (u, v), w in sorted(apex.items()) if w is not None]


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


def _two_edge_rows(args, g, r, off):
    mid, weight = r
    return [
        (int(i) + off, int(j) + off, int(mid[i, j]) + off, float(weight[i, j]))
        for i, j in zip(*np.nonzero(mid >= 0))
    ]


TWO_EDGE = _graph_pipeline(
    load=lambda args: _load_graph(args, io.load_graph, partial(random_weighted_graph, directed=True)),
    solve=lambda args, g: max_weight_two_edge_paths(g),
    check=_check_two_edge,
    header="i,j,mid,weight",
    rows=_two_edge_rows,
)


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


def _parse_q_grid(text: str) -> list[int]:
    try:
        qs = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--q-grid must be comma-separated integers, got {text!r}") from None
    if not qs or any(q < 2 for q in qs) or len(set(qs)) != len(qs):
        raise ConfigError("--q-grid entries must be distinct and at least 2")
    return qs


def _campaign_durr_hoyer(args) -> dict:
    qs = _parse_q_grid(args.q_grid)

    def run_cell(cell):
        qi, q, si, shape = cell
        tables = np.stack(
            [table_values(shape, q, np_stream(args.seed, 31, qi, si, t)) for t in range(args.trials)]
        )
        _, hits, queries = durr_hoyer_batch(tables, np_stream(args.seed, 30, qi, si))
        arr = queries.astype(np.float64)
        return {
            "q": q,
            "shape": shape,
            "trials": args.trials,
            "success_rate": int(hits.sum()) / args.trials,
            "mean_queries": float(arr.mean()),
            "std_queries": float(arr.std()),
        }

    cells = [
        (qi, q, si, shape)
        for qi, q in enumerate(qs)
        for si, shape in enumerate(TABLE_SHAPES)
    ]
    results = _map_indexed(run_cell, cells)
    pooled = []
    for q in qs:
        means = [c["mean_queries"] for c in results if c["q"] == q]
        pooled.append(float(np.mean(means)))
    slope = None
    if len(qs) >= 2:
        slope = float(np.polyfit(np.log(np.asarray(qs, np.float64)), np.log(pooled), 1)[0])
    return {
        "target": "durr-hoyer",
        "cells": results,
        "pooled_mean_queries": dict(zip(map(str, qs), pooled)),
        "slope": slope,
        "min_success_rate": min(c["success_rate"] for c in results),
    }


def _campaign_multiwitness(args) -> dict:
    n, k = args.n or 64, args.k
    a = BoolMatrix.ones(n)
    b = BoolMatrix.ones(n)
    ad = a.to_dense().astype(np.int64)
    bd = b.to_dense().astype(np.int64)
    wcount = ad @ bd
    bound = 4 * np.ceil(wcount / k).astype(np.int64)

    def run_trial(t):
        wm = approx_multiwitness(a, b, ApproxParams(k, 1, spawn_seed(args.seed, 32, t)))
        ranks = witness_rank_matrix(a, b, wm)
        ok = (ranks >= 1) & (ranks <= bound)
        validity = int((ranks == -2).sum() + ((ranks == -1) & (wcount > 0)).sum())
        return {
            "trial": t,
            "success_rate": float(ok.mean()),
            "validity_violations": validity,
        }

    trials = _map_indexed(run_trial, list(range(args.trials)))
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
    n = args.n or 64

    def run_trial(t):
        a = random_matrix(n, args.density, spawn_seed(args.seed, 33, t, 0))
        b = random_matrix(n, args.density, spawn_seed(args.seed, 33, t, 1))
        wm, stats = algorithm1(a, b, args.beta, spawn_seed(args.seed, 34, t))
        ref = max_witness_oracle(a, b)
        return {
            "trial": t,
            "wrong_entries": int((wm.array != ref.array).sum()),
            "entries": n * n,
            "mean_queries_per_entry": stats.mean_queries_per_entry,
        }

    trials = _map_indexed(run_trial, list(range(args.trials)))
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
    _emit(args, _report_text(args, {"results": CAMPAIGNS[args.target](args)}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    a, b = _load_pair(args)
    doc = json.loads(Path(args.result).read_text())
    if "result" in doc:  # full report; unwrap to the witness payload
        doc = doc["result"]
    wm = WitnessMatrix.from_json_dict(doc)
    ref = max_witness_oracle(a, b)
    viol = witness_violations(a, b, wm)  # rejects a result whose n is not the product's
    counts = _violation_counts(viol)
    diff = {
        "entries": wm.n * wm.n,
        "max_witness_disagreements": int((wm.array != ref.array).sum()),
        **counts,
        "invalid_sample": [list(x) for x in viol["invalid"][:10]],
    }
    bad = sum(counts.values())
    if args.max_rank is not None:
        diff.update(_rank_violations(a, b, wm, args.max_rank))
        bad += diff["rank_violations"]
    diff["passed"] = bad == 0
    _emit(args, _report_text(args, {"diff": diff}))
    return EXIT_OK if bad == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p, matrices: bool = True, graph: bool = False) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--one-based", dest="one_based", action="store_true")
    p.add_argument("--verify", action="store_true", help="check against the oracle; exit 3 on failure")
    p.add_argument("--timing", action="store_true", help="include wall-clock timings in the report")
    if matrices:
        p.add_argument("--a", type=str, default=None, help="left matrix file")
        p.add_argument("--b", type=str, default=None, help="right matrix file")
    if graph:
        p.add_argument("--graph", type=str, default=None, help="graph file")
    p.add_argument("--n", type=int, default=None, help="size for generated instances")
    p.add_argument("--density", type=float, default=0.5)


def build_parser() -> _Parser:
    parser = _Parser(prog="maxwit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a random matrix, dag, or weighted graph file")
    p.add_argument("--kind", choices=("matrix", "dag", "graph"), default="matrix")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--directed", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("maxwit", help="maximum witness of a Boolean product")
    _add_common(p)
    p.add_argument("--algo", choices=tuple(SOLVERS), default="oracle")
    p.add_argument("--ell", type=int, default=None, help="strip width (strips, alg4)")
    p.add_argument("--beta", type=float, default=2.0)
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
    p.add_argument("--beta", type=float, default=2.0)
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
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("verify", help="diff a witness result file against the oracle")
    p.add_argument("--a", type=str, required=True)
    p.add_argument("--b", type=str, required=True)
    p.add_argument("--result", type=str, required=True)
    p.add_argument("--max-rank", dest="max_rank", type=int, default=None)
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


if __name__ == "__main__":
    sys.exit(main())
