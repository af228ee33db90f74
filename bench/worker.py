"""Worker process for the in-process workloads (area_mix, oracle_quad).

Usage: python3 bench/worker.py <workload> <repo root>

The worker imports the package from ``<root>/src``, runs one warm-up
operation and prints ``ready``; the parent times that as set-up.  It then
reads one JSON job from stdin (an empty stdin means exit), runs it and
writes one JSON summary to stdout.

A job names a file of operations, one JSON list per line, every one on a
distinct egg, and a file to write one JSON line per operation run.  A
``timed`` job runs the operations in order, whole blocks at a time, until
``seconds`` have passed or the file ends; each output line holds the
operation's output, its time, the time of the calibration loop run
before it and, for a heavy operation, of one run right after it.  A ``trace`` job runs the file a pass at a time, each pass
untraced and then traced, until the untraced passes have taken half of
``seconds``; it writes the untraced outputs, flags every operation whose
traced output differs, and returns both wall times and the span summary.
Per-operation results go to the file, so the worker's memory does not grow
with the number of operations run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import resource
import sys
import time


CAL_EVERY = 10  # operations per calibration sample
HEAVY_CALS = 10  # an operation this many calibrations long gets one right after it


def _load(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import hugelschaffer
    from hugelschaffer import cli, oracle

    return hugelschaffer, oracle, cli


def _runners(h, oracle):
    specs = {
        "simpson": oracle.QuadratureSpec(rule=oracle.Rule.ADAPTIVE_SIMPSON),
        "gauss": oracle.QuadratureSpec(rule=oracle.Rule.GAUSS_LEGENDRE),
    }

    def area_mix(a, b, w):
        p = h.CurveParams(a, b, w)
        total = h.area_exact(p).total
        c = h.bounds(p)
        return [total, c.lower_coarse, c.lower_refined, c.exact_total, c.upper_refined, c.upper_coarse]

    def quad_area(rule, a, b, w):
        return h.quad_area(h.CurveParams(a, b, w), specs[rule]).total

    def quad_elliptic(kind, k):
        return h.quad_elliptic(kind, k)

    return {"area_mix": area_mix, "quad_area": quad_area, "quad_elliptic": quad_elliptic}


def _peak_rss_kb() -> int:
    """This process's own peak RSS.  ``ru_maxrss`` would also count the
    memory of the parent the worker was forked from."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _warm_up(workload: str, h, oracle, cli) -> None:
    if workload == "area_mix":
        p = h.CurveParams(2.0, 1.0, 1.3)
        h.area_exact(p)
        h.bounds(p)
    elif workload == "oracle_quad":
        h.quad_area(h.CurveParams(2.0, 1.0, 1.3), oracle.QuadratureSpec(rule=oracle.Rule.GAUSS_LEGENDRE))
    else:  # cli_cold: one light command, output discarded
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["area", "--a", "2", "--b", "1", "--w", "1.3", "--format", "json"])


def _run_one(fn, args):
    try:
        out = fn(*args)
    except Exception as exc:  # a failed operation is a measured outcome
        return {"error": type(exc).__name__, "message": str(exc)[:200]}
    return [out] if isinstance(out, float) else out


def calibration_loop() -> None:
    """Fixed pure-Python work that does not touch the package: AGM
    iterations with float arithmetic and ``math.sqrt``, like the library's
    own inner loops.  About a millisecond."""
    for i in range(1, 2000):
        a, g = 1.0, 1.0 / i
        while abs(a - g) > 1e-15 * a:
            a, g = 0.5 * (a + g), math.sqrt(a * g)


def _chunks(lines, size: int):
    it = iter(lines)
    while chunk := list(itertools.islice(it, size)):
        yield chunk


def timed(calls, out, seconds: float, block: int) -> dict:
    """Whole blocks of operations until ``seconds`` have passed."""
    clock = time.perf_counter_ns
    start = clock()
    ops, exhausted = 0, True
    for chunk in _chunks(calls, block):
        for fn, args in chunk:
            if ops % CAL_EVERY == 0:
                t0 = clock()
                calibration_loop()
                cal = clock() - t0
            t0 = clock()
            result = _run_one(fn, args)
            dt = clock() - t0
            cal_after = None
            if dt > HEAVY_CALS * cal:
                t0 = clock()
                calibration_loop()
                cal_after = clock() - t0
            out.write(json.dumps([result, dt, cal, cal_after]) + "\n")
            ops += 1
        if clock() - start >= seconds * 1e9:
            exhausted = False
            break
    return {"ops": ops, "elapsed_s": (clock() - start) / 1e9, "exhausted": exhausted}


def _pass(chunk) -> tuple[list, float]:
    start = time.perf_counter()
    outputs = [_run_one(fn, args) for fn, args in chunk]
    return outputs, time.perf_counter() - start


def traced(calls, out, seconds: float, block: int) -> dict:
    """Passes of ``block`` operations, each untraced and then traced, so
    that drift on the machine affects both sides of the overhead alike."""
    import tracing

    tracer = tracing.Tracer()
    passes, ops, untraced_s, traced_s = 0, 0, 0.0, 0.0
    changed = []
    for chunk in _chunks(calls, block):
        plain, wall = _pass(chunk)
        untraced_s += wall
        replaced = tracing.install(tracer)
        try:
            spanned, wall = _pass(chunk)
        finally:
            tracing.uninstall(replaced)
        traced_s += wall
        for i, (a, b) in enumerate(zip(plain, spanned)):
            if a != b and repr(a) != repr(b):  # repr: nan == nan
                changed.append(ops + i)
            out.write(json.dumps([a]) + "\n")
        ops += len(chunk)
        passes += 1
        if untraced_s >= seconds / 2:
            break
    return {
        "ops": ops, "passes": passes, "untraced_s": untraced_s, "traced_s": traced_s,
        "summary": tracer.summary(), "changed": changed,
    }


def main() -> int:
    workload, root = sys.argv[1], sys.argv[2]
    h, oracle, cli = _load(root)
    _warm_up(workload, h, oracle, cli)
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    raw = sys.stdin.buffer.read()
    if not raw:
        return 0
    job = json.loads(raw)
    # The tracer wraps module attributes, so calls must go through them.
    runners = _runners(h, oracle)
    run = timed if job["mode"] == "timed" else traced
    with open(job["calls"]) as src, open(job["out"], "w") as out:
        calls = ((runners[c[0]], tuple(c[1:])) for c in map(json.loads, src))
        result = run(calls, out, job["seconds"], job["block"])
    result["maxrss_kb"] = _peak_rss_kb()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
