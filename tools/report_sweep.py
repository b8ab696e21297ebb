"""Compare the reports of two source trees over one fixed list of CLI commands.

Usage: python tools/report_sweep.py BASE HEAD

BASE and HEAD are checkouts of this repository. Every command in
``commands()`` runs as ``python -m maxwit.cli ...`` with
``PYTHONPATH=<tree>/src``, in a temporary directory of the tree's own, in
list order, once per seed in ``SEEDS``. The sweep exits 1 if any command's
exit code, stdout or written ``--out`` file differs between the trees, and
0 when all are identical. It checks bytes only and times nothing.

The list covers every subcommand in JSON and CSV: ``--one-based``, n=1, the
digit-width edges 9/10 and 99/100, k-witness lists with k in {1, 4, n}, the
narrow index types' edges (n=127 with k=126 and 127, n=128), report tables
of several blocks of rows (witnesses and k-witness lists at n=300, LCA on
a 300-vertex dag, triangles and two-edge paths on 200-vertex graphs),
minimum finding at table lengths 4096 and 4097, error exits, and ``verify``
with ``--out`` equal to ``--result``. Input files come from the trees' own
``gen`` commands at the head of the list, so they are compared too.
"""
from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEEDS = (1, 7919)

# the CLI's --algo choices and the lca --solver choices
ALGOS = ("oracle", "strips", "alg1", "alg2", "alg3", "alg4")
LCA_SOLVERS = ("oracle", "strips", "qsim-algorithm4")


def commands() -> list[str]:
    """The sweep's commands; {seed} and {seed2} (seed + 1) are filled in per seed."""
    gen = "gen --seed {seed} --out"
    cmds = [
        # graphs whose report tables span several blocks of rows
        f"{gen} dag300.txt --kind dag --n 300 --density 0.05",
        f"{gen} g200.txt --kind graph --n 200 --density 0.1",
        f"{gen} dg200.txt --kind graph --n 200 --density 0.1 --directed",
        f"{gen} a.txt --n 24 --density 0.3",
        "gen --seed {seed2} --out b.txt --n 24 --density 0.3",
        f"{gen} a.bin --n 24 --density 0.5 --format binary",
        "gen --seed {seed2} --out b.bin --n 24 --density 0.5 --format binary",
        f"{gen} a1.txt --n 1 --density 1.0",
        f"{gen} a10.txt --n 10 --density 0.5",
        "gen --seed {seed2} --out b10.txt --n 10 --density 0.5",
        f"{gen} dag.txt --kind dag --n 20 --density 0.2",
        f"{gen} g.txt --kind graph --n 16 --density 0.4",
        f"{gen} dg.txt --kind graph --n 16 --density 0.4 --directed",
        f"{gen} dag1.txt --kind dag --n 1",
        f"{gen} g1.txt --kind graph --n 1",
    ]
    pair, binary, ten = "--a a.txt --b b.txt", "--a a.bin --b b.bin", "--a a10.txt --b b10.txt"
    one = "--a a1.txt --b a1.txt"
    fmts = ("--format json", "--format csv", "--format json --one-based", "--format csv --one-based")

    for algo in ALGOS:
        for fmt in fmts:
            cmds.append(f"maxwit {pair} --algo {algo} --seed {{seed}} --verify {fmt}")
        cmds.append(f"maxwit {ten} --algo {algo} --seed {{seed}} --verify --one-based")
        cmds.append(f"maxwit {one} --algo {algo} --seed {{seed}} --verify --format csv")
    for algo in ("oracle", "strips"):
        for n in (1, 9, 10, 11, 99, 100):
            for fmt in fmts:
                cmds.append(f"maxwit --n {n} --density 0.3 --algo {algo} --seed {{seed}} --verify {fmt}")
    cmds += [
        f"maxwit {binary} --algo strips --ell 5 --verify",
        f"maxwit {binary} --algo alg4 --ell 7 --seed {{seed}} --verify --format csv",
        f"maxwit {pair} --algo alg1 --beta 1.0 --seed {{seed}} --verify",
        f"maxwit {pair} --algo oracle --format csv --timing",
        f"maxwit {pair} --algo strips --out m.json",
        f"maxwit {pair} --algo strips --one-based --out m1.json",
        f"maxwit {pair} --algo oracle --format csv --one-based --out m.csv",
        "maxwit --n 1 --density 0.0 --verify",
        "maxwit --n 12 --density 0.0 --algo strips --verify --format csv",
    ]

    for fmt in fmts:
        for ell in ("", "--ell 1", "--ell 5", "--ell 24"):
            cmds.append(f"approx {pair} --method rank-bounded {ell} --seed {{seed}} --verify {fmt}")
        for k in (4, 23, 24, 25, 1000):
            cmds.append(f"approx {pair} --method multiwitness --k {k} --seed {{seed}} --verify {fmt}")
    cmds += [
        f"approx {pair} --method multiwitness --k 4 --reps 3 --seed {{seed}} --verify",
        "approx --n 16 --density 0.6 --method multiwitness --k 16 --seed {seed}",
        "approx --n 16 --density 0.6 --method multiwitness --k 17 --seed {seed}",
        f"approx {one} --method rank-bounded --verify --one-based",
        f"approx {one} --method multiwitness --verify --format csv",
        "approx --n 100 --density 0.2 --method rank-bounded --seed {seed} --verify --format csv --one-based",
        f"approx {pair} --method rank-bounded --ell 4 --seed {{seed}} --out r.json",
        f"approx {pair} --method rank-bounded --ell 4 --seed {{seed}} --one-based --out r1.json",
        f"approx {pair} --method rank-bounded --ell 4 --seed {{seed}} --out v.json",
    ]

    for fmt in fmts:
        for k in (1, 4, 24):
            cmds.append(f"kwitness {pair} --k {k} --seed {{seed}} --verify {fmt}")
        cmds.append(f"kwitness {one} --k 1 --verify {fmt}")
        cmds.append(f"kwitness {ten} --k 10 --seed {{seed}} --verify {fmt}")
        cmds.append(f"kwitness --n 100 --density 0.1 --k 4 --seed {{seed}} --verify {fmt}")
    cmds += [
        "kwitness --n 127 --density 1.0 --k 126 --seed {seed} --verify --out k126.json",
        "kwitness --n 127 --density 1.0 --k 127 --seed {seed} --verify --one-based --out k127.json",
        "kwitness --n 127 --density 0.3 --k 127 --seed {seed} --verify --format csv --one-based",
        "kwitness --n 128 --density 0.1 --k 128 --seed {seed} --verify --one-based",
        "kwitness --n 128 --density 0.1 --k 128 --seed {seed} --verify --format csv",
        "kwitness --n 128 --density 0.3 --k 4 --seed {seed} --verify --format csv --one-based",
        f"kwitness {binary} --k 24 --seed {{seed}} --verify --out k.csv --format csv",
        f"kwitness {pair} --k 4 --seed {{seed}} --out k.json",
    ]

    for solver in LCA_SOLVERS:
        for fmt in fmts:
            cmds.append(f"lca --graph dag.txt --solver {solver} --seed {{seed}} --verify {fmt}")
        cmds.append(f"lca --n 12 --density 0.3 --solver {solver} --seed {{seed}} --verify")
    cmds.append("lca --graph dag1.txt --verify --format csv")
    for fmt in fmts:
        cmds += [
            f"triangle --graph g.txt --verify {fmt}",
            f"triangle --graph g.txt --lightest --verify {fmt}",
            f"two-edge --graph dg.txt --verify {fmt}",
            f"lca --graph dag300.txt --solver oracle --verify {fmt}",
            f"lca --graph dag300.txt --solver strips --verify {fmt}",
            f"triangle --graph g200.txt --verify {fmt}",
            f"triangle --graph g200.txt --lightest --verify {fmt}",
            f"two-edge --graph dg200.txt --verify {fmt}",
            f"maxwit --n 300 --density 0.1 --algo strips --seed {{seed}} --verify {fmt}",
            f"kwitness --n 300 --density 0.1 --k 3 --seed {{seed}} --verify {fmt}",
        ]
    cmds += [
        "triangle --n 11 --density 0.5 --seed {seed} --verify --out t.json",
        "triangle --graph g1.txt --verify --format csv",
        "two-edge --n 11 --density 0.5 --seed {seed} --verify --out w.csv --format csv",
        "two-edge --graph g1.txt --verify",
    ]

    cmds += [
        "campaign --target durr-hoyer --q-grid 4,9,16 --trials 5 --seed {seed}",
        "campaign --target durr-hoyer --q-grid 4096,4097 --trials 3 --seed {seed}",
        "campaign --target multiwitness --n 10 --k 4 --trials 3 --seed {seed}",
        "campaign --target multiwitness --n 8 --k 8 --trials 2 --seed {seed} --out c.json",
        "campaign --target maxwit-accuracy --n 10 --trials 3 --seed {seed} --beta 1.5",
    ]

    cmds += [
        f"verify {pair} --result m.json",
        f"verify {pair} --result m1.json --max-rank 1",
        f"verify {pair} --result r.json --max-rank 4",
        f"verify {pair} --result r.json --max-rank 1",
        f"verify {pair} --result r1.json --max-rank 64 --out vr.json",
        f"verify {pair} --result v.json --max-rank 4 --out v.json",
        f"verify {binary} --result m.json",
        f"verify {pair} --result m.csv",
        f"verify {pair} --result k.json",
        f"verify {pair} --result missing.json",
    ]

    cmds += [  # error exits
        "maxwit --n 0",
        "maxwit --n 5 --beta 0",
        "maxwit --n 5 --beta nan",
        "maxwit --n 5 --seed -1",
        "maxwit --n 5 --algo nosuch",
        "maxwit --n 5 --ell 0 --algo strips",
        "maxwit --n 99999999999",
        "maxwit --a a.txt",
        "maxwit",
        "maxwit --a missing.txt --b b.txt",
        "maxwit --a a.txt --b a10.txt",
        "maxwit --n 5 --out no/such/dir/x.json",
        "approx --n 5 --method multiwitness --k 3",
        "approx --n 5 --method multiwitness --reps 0",
        "approx --n 5 --method rank-bounded --ell 6",
        "approx --n 5",
        "kwitness --n 8",
        "kwitness --n 8 --k 0",
        "kwitness --n 8 --k 9",
        "lca --n 0",
        "lca --graph g.txt",
        "triangle --graph missing.txt",
        "gen --n 4",
        "gen --out x.txt",
        "campaign --target durr-hoyer --trials 0",
        "campaign --target durr-hoyer --q-grid 4",
        "campaign --target nosuch",
        "nosuch",
        "--help",
        "maxwit --help",
    ]
    return cmds


def _digest(path: Path) -> str | None:
    """The sha256 of the file's bytes, or None if there is no such file."""
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def sweep(tree: Path, argvs: list[list[str]]) -> list[tuple]:
    """(exit code, stdout digest, --out file digest) of each argv, run in order
    in a fresh temporary directory with the tree's sources on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    results = []
    with tempfile.TemporaryDirectory(prefix="report-sweep-") as tmp:
        work = Path(tmp)
        for argv in argvs:
            with open(work / ".stdout", "wb") as out:
                code = subprocess.run(
                    [sys.executable, "-m", "maxwit.cli", *argv],
                    cwd=work, env=env, stdout=out, stderr=subprocess.DEVNULL,
                ).returncode
            written = argv[argv.index("--out") + 1] if "--out" in argv else None
            results.append((code, _digest(work / ".stdout"), written and _digest(work / written)))
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(p).resolve() for p in argv]
    for tree in trees:
        if not (tree / "src" / "maxwit" / "cli.py").is_file():
            print(f"{tree}: no src/maxwit/cli.py", file=sys.stderr)
            return 2
    template = commands()
    differ = 0
    for seed in SEEDS:
        argvs = [shlex.split(c.format(seed=seed, seed2=seed + 1)) for c in template]
        with ThreadPoolExecutor(max_workers=2) as pool:
            base, head = pool.map(lambda tree: sweep(tree, argvs), trees)
        for argv, old, new in zip(argvs, base, head):
            what = [name for name, x, y in zip(("exit code", "stdout", "--out file"), old, new) if x != y]
            if what:
                differ += 1
                print(f"seed {seed}: {shlex.join(argv)}: {', '.join(what)} differ ({old[0]} -> {new[0]})")
        print(f"seed {seed}: {len(argvs)} commands, {sum(r[0] == 0 for r in base)} exit 0 at base")
    print(f"{differ} differences" if differ else "reports, stdout and exit codes identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
