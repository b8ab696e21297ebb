"""The three job lists: every job is one ``python -m maxwit.cli`` command.

A workload is a fixed list of jobs plus the input files they read. Inputs
are written by ``inputs.prepare`` from the run seed before anything is timed: left
factors in the binary matrix format, right factors in the text format, and
graphs in the graph text format, so both matrix parsers run in every
matrix job. Solver seeds passed with ``--seed`` are derived from the run
seed as well.
"""
from __future__ import annotations

from dataclasses import dataclass

# DEFAULT_SEED is what a run without --seed uses. HELD_OUT_SEED was never run
# while the benchmark was built; keep it for confirming later claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

WHY = {
    "exact-dense": (
        "d=0.3 JSON reports of about 20 MB: serialization, the n=512 rank check "
        "and exact solvers on the many-witness side"
    ),
    "exact-sparse": (
        "CSV output, so verification loops, brute-force graph checks, strips "
        "and few-witness sampling at low density dominate"
    ),
    "qsim": (
        "simulated quantum solvers and campaigns: the batch and scalar "
        "minimum-finding engines do most of the work"
    ),
}


@dataclass(frozen=True)
class Job:
    """One CLI command. ``check`` names the untimed output check:

    "exit"     -- exit code 0 (the job runs with --verify, which exits 3 on failure);
    "maxwit"   -- exit code 0 and witnesses equal to the benchmark's own reference
                  for the matrix pair ``pair``;
    "dh"       -- durr-hoyer campaign acceptance (success-rate floor, slope);
    "accuracy" -- maxwit-accuracy campaign has error_rate <= error_bound.
    """

    name: str
    args: tuple[str, ...]
    out: str
    check: str = "exit"
    pair: str | None = None

    @property
    def format(self) -> str:
        return "csv" if self.out.endswith(".csv") else "json"


@dataclass(frozen=True)
class Pair:
    """A matrix pair: A written in binary, B in text."""

    n: int
    density: float
    tag: int


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: dict[str, Pair]
    graphs: dict[str, tuple[str, int, float, int]]  # file -> (kind, n, density, tag)
    jobs: tuple[Job, ...]


def _mx(cmd: str, pair: str, out: str, *extra: str, ref: bool = False) -> Job:
    args = (cmd, "--a", f"{pair}.A.bmat", "--b", f"{pair}.B.txt", *extra, "--verify")
    fmt = ("--format", "csv") if out.endswith(".csv") else ()
    return Job(f"{cmd}-{out.rsplit('.', 1)[0]}", args + fmt + ("--out", out),
               out, "maxwit" if ref else "exit", pair if ref else None)


def _gr(cmd: str, graph: str, out: str, *extra: str) -> Job:
    fmt = ("--format", "csv") if out.endswith(".csv") else ()
    args = (cmd, "--graph", graph, *extra, "--verify") + fmt + ("--out", out)
    return Job(f"{cmd}-{out.rsplit('.', 1)[0]}", args, out)


def build(name: str, seed: int) -> Workload:
    """The job list of one workload; ``seed`` only feeds solver ``--seed`` flags."""
    s = str(seed)
    if name == "exact-dense":
        pairs = {"d512": Pair(512, 0.3, 1), "d256": Pair(256, 0.3, 2), "d128": Pair(128, 0.3, 3)}
        jobs = (
            _mx("maxwit", "d512", "oracle512.json", "--algo", "oracle", ref=True),
            _mx("maxwit", "d512", "strips512.json", "--algo", "strips", ref=True),
            _mx("approx", "d512", "rank512.json", "--method", "rank-bounded", "--seed", s),
            Job("verify-rank512", ("verify", "--a", "d512.A.bmat", "--b", "d512.B.txt",
                                   "--result", "rank512.json", "--max-rank", "64",
                                   "--out", "verify512.json"), "verify512.json"),
            _mx("kwitness", "d256", "kwit256.json", "--k", "4", "--seed", s),
            _mx("approx", "d128", "multi128.json", "--method", "multiwitness",
                "--k", "4", "--reps", "4", "--seed", s),
        )
        return Workload(name, pairs, {}, jobs)
    if name == "exact-sparse":
        pairs = {"s1024": Pair(1024, 0.01, 11), "k512": Pair(512, 0.0765, 12)}
        graphs = {
            "dag512.txt": ("dag", 512, 0.05, 13),
            "tri256.txt": ("undirected", 256, 0.1, 14),
            "two128.txt": ("directed", 128, 0.1, 15),
        }
        jobs = (
            _mx("maxwit", "s1024", "oracle1024.csv", "--algo", "oracle", ref=True),
            _mx("maxwit", "s1024", "strips1024.csv", "--algo", "strips", ref=True),
            _mx("kwitness", "k512", "kwit512.csv", "--k", "4", "--seed", s),
            _gr("lca", "dag512.txt", "lca-oracle512.csv", "--solver", "oracle"),
            _gr("lca", "dag512.txt", "lca-strips512.csv", "--solver", "strips"),
            _gr("triangle", "tri256.txt", "tri256.csv"),
            _gr("two-edge", "two128.txt", "two128.csv"),
        )
        return Workload(name, pairs, graphs, jobs)
    if name == "qsim":
        pairs = {"q256": Pair(256, 0.3, 21), "q128": Pair(128, 0.3, 22), "p256": Pair(256, 0.02, 23)}
        jobs = (
            _mx("maxwit", "q256", "alg4-256.json", "--algo", "alg4", "--seed", s),
            _mx("maxwit", "q128", "alg1-128.json", "--algo", "alg1", "--seed", s),
            _mx("maxwit", "q128", "alg3-128.json", "--algo", "alg3", "--seed", s),
            _mx("maxwit", "p256", "alg2-256.json", "--algo", "alg2", "--seed", s),
            Job("campaign-durr-hoyer", ("campaign", "--target", "durr-hoyer", "--trials", "200",
                                        "--q-grid", "256,1024", "--seed", s,
                                        "--out", "dh.json"), "dh.json", "dh"),
            Job("campaign-maxwit-accuracy", ("campaign", "--target", "maxwit-accuracy",
                                             "--n", "64", "--trials", "8", "--seed", s,
                                             "--out", "accuracy.json"), "accuracy.json", "accuracy"),
        )
        return Workload(name, pairs, {}, jobs)
    raise ValueError(f"unknown workload {name!r}")


NAMES = tuple(WHY)
