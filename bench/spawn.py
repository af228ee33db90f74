"""Start processes for the benchmark from a small process.

Usage: python3 bench/spawn.py, then one JSON request per line on stdin:
{"argv": [...], "cwd": ..., "env": {...}, "out": path, "err": path,
"timeout": seconds}.  Each gets one JSON line on stdout: {"rc", "wall_s",
"maxrss_kb"}.  End of stdin ends the process.

The kernel's peak RSS for a child counts the memory of the process it was
forked from, and the benchmark holds its references and checkers in
memory.  Forked from here instead, a child's peak is its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            cwd=req["cwd"], env=req["env"],
        )
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
