"""Job-level benchmark of the maxwit command line.

Usage, from the root of a maxwit checkout:

    python3 perfbench/run.py --workload {exact-dense,exact-sparse,qsim} \
        --seed N --seconds S --trace {0,1}

A workload is a fixed list of ``python -m maxwit.cli`` jobs (see
``workloads.py``), run as a closed loop with one client: each job is its own
subprocess, timed from spawn until it exits, and the next starts when it
ends. Inputs are written from ``--seed`` before anything is timed, and every
output is checked after its pass, outside the timed region.

``--trace 0`` measures the end-to-end metrics. ``setup_s`` is the median
time from a fresh interpreter's start until ``maxwit.cli`` is imported,
sampled after every job and at least 11 times per run. Passes over the job
list repeat while another pass fits in ``--seconds``;
``wall_s`` is the sum over jobs of each job's median time, and
``peak_rss_mb`` is the largest peak RSS of any job process.

``--trace 1`` runs one untraced pass and then one traced pass, where each
job runs under ``trace_job.py``, and prints the per-layer metrics of the
traced pass plus the tracing overhead (traced minus untraced pass time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the details: the failure rate, per-job times, checks and environment.
Run from a directory without ``src/maxwit`` it exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 150.0
BLAS_THREADS = "1"
MAXWIT_THREADS = "1"


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "MAXWIT_THREADS": MAXWIT_THREADS,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
        "PYTHONHASHSEED": "0",
    })
    return env


class Launcher:
    """Client of ``launcher.py``, which spawns and times every job."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], cwd: Path, stderr_path: Path) -> tuple[float, int, float]:
        """Run cmd to completion; return (wall seconds, exit code, peak RSS in MiB)."""
        req = {"cmd": cmd, "cwd": str(cwd), "stderr": str(stderr_path), "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall_s"], reply["exit"], reply["maxrss_kb"] / 1024

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "maxwit" / "cli.py").is_file():
        print(f"error: {root} is not a maxwit checkout (no src/maxwit/cli.py)", file=sys.stderr)
        return 2
    env = child_env(root)
    # Start the launcher while this process is still small: jobs inherit the
    # launcher's peak RSS, and measure imports numpy and holds large outputs.
    launcher = Launcher(env)
    try:
        import measure

        result = measure.run(opts, root, env, launcher)
    finally:
        launcher.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
