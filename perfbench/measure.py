"""Passes over a workload's jobs, their checks, and the metrics of one run."""
from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPS = 11
TIMED_COMMANDS = ("maxwit", "approx", "kwitness", "lca", "triangle", "two-edge")
# largest single array each workload allocates, computed from the job sizes
LARGEST_ARRAY = {
    "exact-dense": ("witness_rank_matrix int32 suffix counts, n=512: 512*513*512*4 B", 512 * 513 * 512 * 4),
    "exact-sparse": ("_collect_witnesses int32 few-witness block, n=512: about 0.62*512^2 entries * 512 * 4 B",
                     int(0.62 * 512 * 512) * 512 * 4),
    "qsim": ("algorithm4 batch-engine state, n=256: 256^2 entries * 16 reps * 8 B", 256 * 256 * 16 * 8),
}
UNITS = {
    **{m: "s" for m in spans.SELF_TIME},
    **{m: "s" for m in spans.STAGE_TIME},
    **{f"{layer}.peak_mb": "MiB" for layer in spans.PEAK_LAYERS},
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
    "io.report_mb": "MB",
    "qsim.queries": "count",
    "qsim.queries_per_s": "1/s",
}


@dataclass
class JobRun:
    name: str
    wall_s: float
    rss_mb: float
    digest: str = ""
    out_bytes: int = 0
    problems: list[str] = field(default_factory=list)


def cold_start_s(env: dict, cwd: Path) -> float:
    """Seconds from spawning an interpreter until it has imported maxwit.cli.

    time.monotonic is CLOCK_MONOTONIC, shared by parent and child.
    """
    probe = "import time, maxwit.cli; print(repr(time.monotonic()))"
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout) - t0


def run_pass(wl: workloads.Workload, work: Path, launcher, traced: bool, between=None) -> list[JobRun]:
    """Run every job once, in order; ``between`` is called after each job, untimed."""
    results = []
    for idx, job in enumerate(wl.jobs):
        args = list(job.args)
        if traced:
            if args[0] in TIMED_COMMANDS:
                args.insert(1, "--timing")
            cmd = [sys.executable, str(HERE / "trace_job.py"), f"spans-{idx}.json", str(idx), *args]
        else:
            cmd = [sys.executable, "-m", "maxwit.cli", *args]
        wall, code, rss = launcher.run(cmd, work, work / f"{idx}.stderr")
        run = JobRun(job.name, wall, rss)
        out = work / job.out
        if out.exists():
            data = out.read_bytes()
            run.digest, run.out_bytes = hashlib.sha256(data).hexdigest(), len(data)
        if code != 0:
            tail = (work / f"{idx}.stderr").read_text(errors="replace").strip()[-300:]
            run.problems.append(f"exit code {code}: {tail}")
        elif not out.exists():
            run.problems.append(f"no output file {job.out}")
        results.append(run)
        if between is not None:
            between()
    return results


def check_outputs(wl: workloads.Workload, work: Path, runs: list[JobRun], refs: dict) -> None:
    """Content checks of one untraced pass; problems are appended to the runs."""
    for job, run in zip(wl.jobs, runs):
        if run.problems:
            continue
        path = work / job.out
        try:
            if job.check == "maxwit":
                bad = int((checks.read_witnesses(path, wl.pairs[job.pair].n) != refs[job.pair]).sum())
                problem = f"{bad} witnesses differ from the reference" if bad else None
            elif job.check == "dh":
                problem = checks.check_durr_hoyer(json.loads(path.read_text()))
            elif job.check == "accuracy":
                problem = checks.check_accuracy(json.loads(path.read_text()))
            else:
                problem = None
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            run.problems.append(problem)


def compare_to_first(first: list[JobRun], runs: list[JobRun]) -> None:
    for a, b in zip(first, runs):
        if not b.problems and b.digest != a.digest:
            b.problems.append("output differs from the first pass of this run")


def check_traced(wl: workloads.Workload, work: Path, untraced: list[JobRun],
                 traced: list[JobRun], saved: dict) -> list[dict]:
    """Tracer invariants and traced-vs-untraced output equality; returns the traces."""
    traces = []
    for idx, (job, base, run) in enumerate(zip(wl.jobs, untraced, traced)):
        trace_path = work / f"spans-{idx}.json"
        trace = json.loads(trace_path.read_text()) if trace_path.exists() else None
        traces.append(trace or {"spans": [], "queries": {"search": 0, "scalar": 0}})
        if run.problems:
            continue
        if trace is None:
            run.problems.append("no spans written")
            continue
        timing = None
        if job.format == "json":
            doc = json.loads((work / job.out).read_text())
            timing = doc.get("timing")
            if job.out not in saved or checks.strip_timing(doc) != checks.strip_timing(saved[job.out]):
                run.problems.append("traced report differs from the untraced one beyond timing")
            if job.args[0] in TIMED_COMMANDS and timing is None:
                run.problems.append("report has no timing block")
        elif run.digest != base.digest:
            run.problems.append("traced output differs from the untraced one")
        run.problems += [f"tracer: {e}" for e in spans.check_job(trace, run.wall_s, timing)]
    return traces


def environment(workload: str, env: dict) -> dict:
    def cache(level: int) -> str | None:
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(base.glob("index*")) if base.exists() else []:
            if (idx / "level").read_text().strip() == str(level) and \
                    (idx / "type").read_text().strip() in ("Unified", "Data"):
                return (idx / "size").read_text().strip()
        return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        blas = "unknown"
    what, nbytes = LARGEST_ARRAY[workload]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "maxwit_threads": int(env["MAXWIT_THREADS"]),
        "l2": cache(2),
        "l3": cache(3),
        "largest_array_computed": {"what": what, "mib": round(nbytes / 2**20, 1)},
    }


def run(opts, root: Path, env: dict, launcher) -> dict:
    """One benchmark run; prints the metrics and details, returns the result object."""
    work = root / ".perfbench_work" / opts.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    wl = workloads.build(opts.workload, opts.seed)
    dense = inputs.prepare(wl, opts.seed, work)
    refs = {job.pair: checks.max_witness(*dense[job.pair]) for job in wl.jobs if job.check == "maxwit"}

    cold_start_s(env, work)  # writes bytecode caches; not counted
    # The host's speed drifts over seconds, so cold starts are sampled between
    # jobs, spread over the whole run, rather than in one burst.
    setup_samples: list[float] = []

    def sample_setup() -> None:
        setup_samples.append(cold_start_s(env, work))

    between = None if opts.trace else sample_setup
    first = run_pass(wl, work, launcher, traced=False, between=between)
    check_outputs(wl, work, first, refs)
    passes = [first]
    details: dict = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
                     "why": workloads.WHY[opts.workload], "environment": environment(opts.workload, env)}
    if opts.trace:
        saved = {job.out: json.loads((work / job.out).read_text())
                 for job, r in zip(wl.jobs, first) if job.format == "json" and not r.problems}
        traced = run_pass(wl, work, launcher, traced=True)
        traces = check_traced(wl, work, first, traced, saved)
        passes.append(traced)
        untraced_wall = sum(r.wall_s for r in first)
        traced_wall = sum(r.wall_s for r in traced)
        layer = spans.layer_metrics(traces, [r.wall_s for r in traced])
        layer["io.report_mb"] = sum(r.out_bytes for r in first) / 1e6
        layer["trace.overhead_s"] = traced_wall - untraced_wall
        metrics = {k: {"value": layer[k], "unit": UNITS[k]} for k in sorted(UNITS)}
        details.update(untraced_wall_s=untraced_wall, traced_wall_s=traced_wall,
                       spans=sum(len(t["spans"]) for t in traces))
    else:
        measured = first_wall = sum(r.wall_s for r in first)
        while measured + first_wall <= opts.seconds:
            runs = run_pass(wl, work, launcher, traced=False, between=between)
            compare_to_first(first, runs)
            passes.append(runs)
            measured += sum(r.wall_s for r in runs)
        per_job = [statistics.median(p[i].wall_s for p in passes) for i in range(len(wl.jobs))]
        while len(setup_samples) < SETUP_REPS:
            sample_setup()
        details["setup_samples"] = len(setup_samples)
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": sum(per_job), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb for p in passes for r in p), "unit": "MiB"},
        }

    attempted = sum(len(p) for p in passes)
    failed = sum(bool(r.problems) for p in passes for r in p)
    details.update(fail_rate=failed / attempted, passes=len(passes))
    details["jobs"] = {
        job.name: {
            "wall_s": [p[i].wall_s for p in passes],
            "rss_mb": max(p[i].rss_mb for p in passes),
            "out_bytes": first[i].out_bytes,
            "problems": sorted({msg for p in passes for msg in p[i].problems}),
        }
        for i, job in enumerate(wl.jobs)
    }
    # inputs and reports are large: keep only the details
    shutil.rmtree(work, ignore_errors=True)
    details_path = root / ".perfbench_work" / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    details_path.write_text(json.dumps(details, indent=2, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{opts.workload:13s} {name:22s} {m['value']:16.6f} {m['unit']}")
    print(f"{opts.workload:13s} {'fail_rate':22s} {details['fail_rate']:16.6f} ratio")
    print(json.dumps(details, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
