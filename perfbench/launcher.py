"""Spawns benchmark jobs from a process that stays small.

A child's peak RSS as reported by wait4 starts from the peak RSS of the
process that spawned it (Linux records the parent's high-water mark when the
child calls exec after vfork). ``run.py`` holds inputs, references and parsed
reports, so jobs are spawned from here instead: this process imports only the
standard library and never grows.

Protocol: one JSON request per line on stdin, ``{"cmd": [...], "cwd": str,
"stderr": str, "timeout": float}``; one JSON reply per line on stdout,
``{"wall_s": float, "exit": int, "maxrss_kb": int}``. The job is timed from
just before it is spawned until wait4 returns. EOF on stdin ends the process.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
