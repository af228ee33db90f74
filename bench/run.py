"""Benchmark for hugelschaffer: egg areas, their quadrature oracle, and the CLI.

Usage (from the repository root):

    python3 bench/run.py --workload {area_mix,oracle_quad,cli_cold,all}
                         --seed N --seconds S --trace {0,1}

Workloads (every one a closed loop with a single caller):

- area_mix: ``area_exact`` then ``bounds`` on eggs from three strata of k.
- oracle_quad: ``quad_area`` under Simpson and Gauss-Legendre, then
  ``quad_elliptic`` K and E, on eggs from three strata of k and scale.
- cli_cold: one fresh ``python -m hugelschaffer`` process at a time.

With ``--trace 0`` the run prints the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it prints the per-layer metrics from a
traced run and the tracing overhead.  Every operation's output is checked
against an mpmath reference or a schema before a metric is reported.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``bench/layers.json`` records which end-to-end metric each
per-layer metric should move, on which workload.

``attempted`` counts every operation; ``failed`` counts the failed ones
outside the edge strata (small k, near-one k, large scale), where every
operation is expected to pass.  The edge strata probe known defects of
the package: their failures are not hidden but measured, in ``ok_frac``
(the pass share over all strata), ``edge_accuracy_digits`` (the digits
kept inside them) and the report's per-stratum breakdown.
``bulk_ok_frac`` is the share of the operations outside the edge strata
that pass.
``correct`` is false when the checking itself cannot be trusted: a
reference fails its self-check, an output changes between repeats or
under tracing, or a golden file differs.

Every operation of a run is on a distinct egg, so no cache keyed on the
input can serve a repeat.  Each operation is timed once, relative to a
calibration timed next to it (see ``end_to_end``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

REF_AGREEMENT = 1e-30  # references at two precisions must agree this well
SETUP_REPEATS = 9
PROBE_REPEATS = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# Times are reported relative to a calibration timed next to them, in units
# of its time on the machine the bounds were set on (2 vCPU Intel Xeon,
# Python 3.11.7): worker.calibration_loop in process, a bare interpreter
# start (python -c pass) for whole processes.
CAL_REF_MS = 1.25
INTERP_REF_MS = 50.0
# An in-process operation is scaled by the median of the calibration
# samples (one per ten operations) within two samples either side of it:
# that follows the machine's speed without one sample's jitter.  A heavy
# operation (over ten calibrations long, as the tail's are) is scaled by
# the mean of the sample just before it and one run right after it, since
# the machine's speed moves within the span of a few of them.  A whole
# process is scaled by the mean of the bare starts just before and after it.
CAL_HALF_WINDOW = 20
CLI_UNIT_S = 3.5  # cli_cold: timed seconds per unit of the rotation, nominal
CALL_TIMEOUT_S = 150  # one process; a worker job gets 3 * seconds on top
EDGE_STRATA = {"small", "near", "large"}


class BenchError(RuntimeError):
    pass


def _workloads():
    import inputs

    # make(seed, n_blocks) draws the operation stream; a run stops at the
    # end of a block (ten eggs; one unit of the rotation for cli_cold, whose
    # timed runs are a fixed number of units) and a trace pass is
    # trace_block operations.  The stream holds
    # blocks_per_s * seconds blocks, many times what this commit runs in
    # that time, so only a much faster program runs out of it (the report
    # then says so).  References are computed for the operations that ran.
    return {
        "area_mix": dict(make=inputs.area_mix_ops, block=10, trace_block=200, blocks_per_s=80),
        "oracle_quad": dict(make=inputs.oracle_ops, block=40, trace_block=800, blocks_per_s=50),
        "cli_cold": dict(make=inputs.cli_ops, block=8, trace_block=8, blocks_per_s=1),
    }


# ---------------------------------------------------------------------------
# processes


class CliRunner:
    """Runs one Python process at a time on the checked-out ``src``,
    started by ``bench/spawn.py``.  ``close`` stops the spawner."""

    def __init__(self) -> None:
        WORK.mkdir(exist_ok=True)
        paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait(timeout=CALL_TIMEOUT_S)

    def python(self, args: list[str]):
        """Returns (exit code, stdout, stderr, wall seconds, peak RSS in KiB)."""
        out_path, err_path = WORK / "call.out", WORK / "call.err"
        request = {
            "argv": [sys.executable, *args], "cwd": str(ROOT), "env": self.env,
            "out": str(out_path), "err": str(err_path), "timeout": CALL_TIMEOUT_S,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise BenchError("the process spawner died")
        reply = json.loads(line)
        return reply["rc"], out_path.read_bytes(), err_path.read_bytes(), reply["wall_s"], reply["maxrss_kb"]

    def cli(self, args: list[str]):
        return self.python(["-m", "hugelschaffer", *args])

    def cli_traced(self, args: list[str], summary: Path):
        return self.python([str(BENCH / "cli_traced.py"), str(summary), *args])


def _start_worker(workload: str):
    """Start a worker; returns (process, seconds until it was ready)."""
    err = open(WORK / f"worker-{workload}.err", "wb")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), workload, str(ROOT)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
    )
    err.close()
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)  # a worker that hangs on import
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    ready = time.perf_counter() - start
    if line != b"ready\n":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {workload} failed to start: {_worker_stderr(workload)}")
    return proc, ready


def _worker_stderr(workload: str) -> str:
    return (WORK / f"worker-{workload}.err").read_text(errors="replace")[-2000:]


def setup_ratios(workload: str, runner: "CliRunner") -> list[float]:
    """Fresh worker processes: import the package and finish one warm-up
    operation.  Each is timed relative to a bare interpreter start run just
    before it.  The worker has already read its only line when ready, so
    closing stdin ends it."""
    ratios = []
    for _ in range(SETUP_REPEATS):
        interp = runner.python(["-c", "pass"])[3]
        proc, ready = _start_worker(workload)
        proc.stdin.close()
        proc.stdout.close()
        proc.wait(timeout=CALL_TIMEOUT_S)
        ratios.append(ready / interp)
    return ratios


def run_worker(workload: str, job: dict) -> dict:
    proc, _ = _start_worker(workload)
    try:
        out, _ = proc.communicate(json.dumps(job).encode(), timeout=3 * job["seconds"] + CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {workload} timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}: {_worker_stderr(workload)}")
    return json.loads(out)


# ---------------------------------------------------------------------------
# environment stamp


def interp_start_ms(runner: CliRunner) -> float:
    return statistics.median(runner.python(["-c", "pass"])[3] for _ in range(PROBE_REPEATS)) * 1e3


def import_times_ms(runner: CliRunner) -> dict[str, float]:
    """Cumulative import time of numpy and of the package, from -X importtime."""
    found = defaultdict(list)
    for _ in range(PROBE_REPEATS):
        _, _, err, _, _ = runner.python(["-X", "importtime", "-c", "import hugelschaffer"])
        seen = set()
        for line in err.decode().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name in ("numpy", "hugelschaffer") and name not in seen:
                seen.add(name)
                found[name].append(int(parts[1]) / 1e3)
    return {
        # 0 if the package no longer imports numpy at start-up
        "cli.import_numpy_ms": statistics.median(found["numpy"]) if found["numpy"] else 0.0,
        "cli.import_pkg_ms": statistics.median(found["hugelschaffer"]),
    }


def _commit() -> str:
    """The checked-out commit; a checkout without git history has none,
    and ``src_sha256`` identifies the code instead."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(runner: CliRunner) -> dict:
    from importlib import metadata

    import mpmath

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "cli.interp_start_ms": interp_start_ms(runner),
    }


# ---------------------------------------------------------------------------
# checking


class Tally:
    """Per-stratum attempts, failures, reasons and worst relative error."""

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.reasons: dict[str, Counter] = defaultdict(Counter)
        self.worst: dict[str, float] = {}
        self.bulk_attempted = 0  # operations outside the edge strata
        self.bulk_failed = 0
        self.bulk_worst = 0.0
        self.edge_digits: dict[str, list[float]] = defaultdict(list)
        self.changed = 0  # operations whose output changed between repeats

    def add(self, key: str, stratum: str, verdict, times: int = 1) -> None:
        self.attempted[key] += times
        if verdict.rel_err is not None:
            self.worst[key] = max(self.worst.get(key, 0.0), verdict.rel_err)
        if not verdict.ok:
            self.failed[key] += times
            self.reasons[key][verdict.reason] += times
        if stratum in EDGE_STRATA:
            # no finite result, no digits
            digits = 0.0 if verdict.rel_err is None else _digits(verdict.rel_err)
            self.edge_digits[stratum] += [digits] * times
            return
        self.bulk_attempted += times
        self.bulk_failed += times * (not verdict.ok)
        if verdict.rel_err is not None:
            self.bulk_worst = max(self.bulk_worst, verdict.rel_err)

    def totals(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())

    def edge_accuracy_digits(self) -> float:
        """Mean, over the edge strata, of the median digits of each.  The
        median, because a few small-k eggs with k above 1e-8 keep digits
        that the rest lose, and cli_cold sees only a few edge eggs."""
        if not self.edge_digits:
            raise BenchError("no operation of an edge stratum ran; give the run more --seconds")
        return statistics.fmean(statistics.median(d) for d in self.edge_digits.values())

    def breakdown(self) -> dict:
        return {
            key: {
                "attempted": self.attempted[key],
                "failed": self.failed[key],
                "fail_frac": self.failed[key] / self.attempted[key],
                "reasons": dict(self.reasons[key]),
                "accuracy_digits": _digits(self.worst[key]) if key in self.worst else None,
            }
            for key in sorted(self.attempted)
        }


def _digits(worst_rel_err: float) -> float:
    if worst_rel_err <= 0.0:
        return 17.0
    return min(17.0, max(0.0, -math.log10(worst_rel_err)))


def _op_key(workload: str, label: str, stratum: str) -> str:
    if workload == "area_mix":
        return stratum
    if workload == "oracle_quad" or label in ("area", "bounds"):
        return f"{label}/{stratum}"
    return label


def tally_worker(workload: str, ops: list, outputs: list, repeats: int, changed: set, refs) -> Tally:
    """Tally a worker run in which every operation ran ``repeats`` times."""
    import checks

    tally = Tally()
    for i, ((label, stratum, _, egg), out) in enumerate(zip(ops, outputs)):
        if workload == "area_mix":
            verdict = checks.check_area_mix(out, egg, refs)
        else:
            verdict = checks.check_oracle(label, out, egg, refs)
        if i in changed:
            tally.changed += 1
            verdict = checks.Verdict(False, "output changed under tracing", verdict.rel_err)
        tally.add(_op_key(workload, label, stratum), stratum, verdict, repeats)
    return tally


def references_for(ops: list):
    """Reference values for every egg and modulus, computed after timing."""
    import reference

    refs = reference.References()
    for label, _, _, egg in ops:
        if egg is None:
            continue
        refs.get("area", egg.a, egg.b, egg.w)
        if label.startswith("quad_elliptic"):
            refs.get(label[-1], egg.k)
    return refs


# ---------------------------------------------------------------------------
# metrics


def latency_summary(lat_ms: list[float]) -> dict:
    s = sorted(lat_ms)
    n = len(s)
    rank = max(0, n - 1 - TAIL_BEYOND)  # TAIL_BEYOND samples lie above it
    return {
        "latency_p50_ms": statistics.median(s),
        "latency_tail_ms": s[rank],
        "tail_percentile": 100.0 * (rank + 1) / n,
        "samples": n,
    }


def local_median(xs: list[float], half: int) -> list[float]:
    """The median of each value and ``half`` values on either side."""
    return [statistics.median(xs[max(0, i - half) : i + half + 1]) for i in range(len(xs))]


def end_to_end(tally: Tally, lat_ms: list[float], setup_s: list[float], rss_kb: float):
    """End-to-end metrics from every timed operation's scaled latency.

    An operation's latency is its time over the time of the calibration
    runs around it, times the calibration's reference time.  Other tenants
    of a shared machine slow the calibration as they slow the operation, so
    this is steadier than the raw time.  Throughput is the operations
    completed over the timed phase's scaled time, the sum of their
    latencies (the calibrations themselves left out).
    """
    attempted, failed = tally.totals()
    lat = latency_summary(lat_ms)
    metrics = {
        "throughput_ops_s": len(lat_ms) / (math.fsum(lat_ms) / 1e3),
        "latency_p50_ms": lat["latency_p50_ms"],
        "latency_tail_ms": lat["latency_tail_ms"],
        "ok_frac": (attempted - failed) / attempted,
        "bulk_ok_frac": (tally.bulk_attempted - tally.bulk_failed) / tally.bulk_attempted,
        "accuracy_digits": _digits(tally.bulk_worst),
        "edge_accuracy_digits": tally.edge_accuracy_digits(),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return metrics, lat


# ---------------------------------------------------------------------------
# workloads


def _stream(cfg: dict, seed: int, seconds: float) -> list:
    return cfg["make"](seed, math.ceil(seconds * cfg["blocks_per_s"]))


def run_in_process(name: str, cfg: dict, seed: int, seconds: float, trace: bool, runner) -> dict:
    ops = _stream(cfg, seed, seconds)
    calls_path, out_path = WORK / f"{name}-calls.jsonl", WORK / f"{name}-out.jsonl"
    calls_path.write_text("".join(json.dumps(op[2]) + "\n" for op in ops))
    job = {
        "mode": "trace" if trace else "timed", "calls": str(calls_path), "out": str(out_path),
        "seconds": seconds, "block": cfg["trace_block" if trace else "block"],
    }
    setup = None if trace else [r * INTERP_REF_MS / 1e3 for r in setup_ratios(name, runner)]
    result = run_worker(name, job)
    lines = [json.loads(line) for line in out_path.read_text().splitlines()]
    ran = ops[: result["ops"]]
    refs = references_for(ran)
    outputs = [line[0] for line in lines]

    if trace:  # every operation ran twice, untraced and traced
        tally = tally_worker(name, ran, outputs, 2, set(result["changed"]), refs)
        layers = {
            "summary": result["summary"], "passes": result["passes"],
            "untraced_s": result["untraced_s"], "traced_s": result["traced_s"], "cli_wall": None,
        }
        info = dict(ops=result["ops"], passes=result["passes"],
                    untraced_s=result["untraced_s"], traced_s=result["traced_s"])
        return dict(layers=layers, tally=tally, info=info, refs=refs, golden=[])

    tally = tally_worker(name, ran, outputs, 1, set(), refs)
    cals = local_median([cal for _, _, cal, _ in lines], CAL_HALF_WINDOW)
    lat_ms = [dt / (cal if after is None else (before + after) / 2) * CAL_REF_MS
              for (_, dt, before, after), cal in zip(lines, cals)]
    metrics, lat = end_to_end(tally, lat_ms, setup, result["maxrss_kb"])
    info = dict(lat, ops=result["ops"], timed_s=result["elapsed_s"],
                stream_exhausted=result["exhausted"], setup_samples_s=setup,
                calibration_ms=statistics.median(cal / 1e6 for _, _, cal, _ in lines))
    return dict(metrics=metrics, tally=tally, info=info, refs=refs, golden=[])


def run_cli(name: str, cfg: dict, seed: int, seconds: float, trace: bool, runner: CliRunner) -> dict:
    """Whole units of the command rotation, at least two (so that both
    edge strata are seen).

    A timed run is a fixed number of units, ``seconds / CLI_UNIT_S``: the
    tail, the 11th-largest latency, then has the same rank among the same
    command's calls in every run.  Were the run cut on time, the tail
    would jump between the slowest pi-series and the fastest sample calls
    with the machine's speed.  A trace run goes on until the untraced
    calls have taken half of ``seconds``.
    """
    import checks
    import tracing

    ops = _stream(cfg, seed, seconds)
    unit = cfg["block"]
    # Eggs are known up front; the references are computed before the
    # calls only so that the checker can look them up, never inside one.
    refs = references_for(ops)
    checker = checks.CliChecker(ROOT, refs)
    golden = checks.golden_mismatches(ROOT, lambda args: runner.cli(args)[:3])
    tally = Tally()
    first_output = {}

    def call(i, summary_path=None):
        label, stratum, args, egg = ops[i]
        if summary_path is None:
            rc, out, err, wall, rss = runner.cli(args)
        else:
            rc, out, err, wall, rss = runner.cli_traced(args, summary_path)
        verdict = checker.check(label, egg, args, rc, out, err)
        digest = hashlib.sha256(out).hexdigest()
        if first_output.setdefault(tuple(args), (rc, digest)) != (rc, digest):
            tally.changed += 1
            verdict = checks.Verdict(False, "output changed between repeats", verdict.rel_err)
        tally.add(_op_key(name, label, stratum), stratum, verdict)
        return wall, rss

    def units(done):
        for start in range(0, len(ops), unit):
            if start >= 2 * unit and done():
                return
            yield range(start, start + unit)

    if not trace:
        setup = [r * INTERP_REF_MS / 1e3 for r in setup_ratios(name, runner)]
        interps, rss, walls = [runner.python(["-c", "pass"])[3]], [], []
        n_units = max(2, round(seconds / CLI_UNIT_S))
        for block in units(lambda: len(walls) >= n_units * unit):
            for i in block:
                wall, peak = call(i)
                interps.append(runner.python(["-c", "pass"])[3])
                walls.append(wall)
                rss.append(peak)
        lat_ms = [wall / ((before + after) / 2) * INTERP_REF_MS
                  for wall, before, after in zip(walls, interps, interps[1:])]
        # The typical process's peak: sample's own peak moves by 10 MiB
        # from run to run with the allocator.
        metrics, lat = end_to_end(tally, lat_ms, setup, statistics.median(rss))
        info = dict(lat, ops=len(lat_ms), timed_s=math.fsum(walls), setup_samples_s=setup)
        return dict(metrics=metrics, tally=tally, info=info, refs=refs, golden=golden)

    # Each command runs untraced and then traced, back to back, until the
    # untraced calls have taken half of ``seconds``.
    walls = defaultdict(list)
    summaries = []
    summary_path = WORK / "cli-trace.json"
    passes, untraced_s, traced_s = 0, 0.0, 0.0
    for block in units(lambda: 2 * untraced_s >= seconds):
        for i in block:
            wall, _ = call(i)
            walls[ops[i][0]].append(wall)
            untraced_s += wall
            summary_path.unlink(missing_ok=True)
            wall, _ = call(i, summary_path)
            traced_s += wall
            if summary_path.exists():  # absent if the process died before tracing
                summaries.append(json.loads(summary_path.read_text()))
        passes += 1
    layers = {
        "summary": tracing.merge(summaries), "passes": passes,
        "untraced_s": untraced_s, "traced_s": traced_s,
        "cli_wall": {label: statistics.median(w) * 1e3 for label, w in walls.items()},
    }
    info = dict(ops=passes * unit, passes=passes, untraced_s=untraced_s, traced_s=traced_s)
    return dict(layers=layers, tally=tally, info=info, refs=refs, golden=golden)


CLI_COMMANDS = ("area", "bounds", "sample", "approx-table", "pi-series", "verify")


def per_layer(names: list[str], layers: dict, runner: CliRunner, stamp_: dict) -> dict:
    import tracing

    out = tracing.layer_metrics(names, layers["summary"], layers["passes"])
    out.update(import_times_ms(runner))
    out["cli.interp_start_ms"] = stamp_["cli.interp_start_ms"]
    for label in CLI_COMMANDS:
        name = f"cli.{label.replace('-', '_')}.wall_ms"
        # The in-process workloads start no CLI process: no wall time.
        out[name] = 0.0 if layers["cli_wall"] is None else layers["cli_wall"][label]
    out["trace.overhead_frac"] = layers["traced_s"] / layers["untraced_s"] - 1.0
    missing = [name for name in names if name not in out]
    if missing:
        raise BenchError(f"nothing computes the per-layer metrics {', '.join(missing)}")
    return {name: out[name] for name in names}


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    cfg = _workloads()[name]
    runner = CliRunner()
    try:
        stamp_ = stamp(runner)
        run = run_cli if name == "cli_cold" else run_in_process
        res = run(name, cfg, seed, seconds, trace, runner)
        if trace:
            layer_values = per_layer([m["name"] for m in spec["per_layer"]], res["layers"], runner, stamp_)
    finally:
        runner.close()
    tally: Tally = res["tally"]
    attempted, all_failed = tally.totals()
    res["info"]["reference_gap"] = ref_gap = res["refs"].self_check()
    correct = ref_gap <= REF_AGREEMENT and not res["golden"] and not tally.changed
    if trace:
        values = layer_values
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = res["metrics"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": correct, "attempted": attempted, "failed": tally.bulk_failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "fail_frac": all_failed / attempted,
        "failed_in_edges": all_failed - tally.bulk_failed,
        "strata": tally.breakdown(), "golden_mismatches": res["golden"],
        "stamp": stamp_, "info": res["info"],
    }


# ---------------------------------------------------------------------------
# output


def print_report(r: dict) -> None:
    s = r["stamp"]
    print(f"== {r['workload']}  seed {r['seed']}  seconds {r['seconds']}  trace {r['trace']}")
    print(f"   python {s['python']}  numpy {s['numpy']}  mpmath {s['mpmath']}  nproc {s['nproc']}  "
          f"cpu {s['cpu']!r}  commit {s['commit'][:12]}  src {s['src_sha256']}  "
          f"interp_start {s['cli.interp_start_ms']:.1f} ms")
    for name, m in r["metrics"].items():
        print(f"   {name:<40} {m['value']:>14.6g} {m['unit']}")
    info = r["info"]
    if "samples" in info:
        print(f"   latency_tail_ms is p{info['tail_percentile']:.2f} of {info['samples']} samples "
              f"({TAIL_BEYOND} beyond it)")
    if info.get("stream_exhausted"):
        print(f"   the input stream ran out after {info['timed_s']:.1f} s: the run measured less than --seconds")
    print(f"   correct {r['correct']}  attempted {r['attempted']}  failed outside the edge strata "
          f"{r['failed']}  in them {r['failed_in_edges']} (known defects)  "
          f"fail_frac over all {r['fail_frac']:.4f}  reference gap {info['reference_gap']:.1e}")
    for key, st in r["strata"].items():
        digits = "-" if st["accuracy_digits"] is None else f"{st['accuracy_digits']:.2f}"
        reasons = ", ".join(f"{k} {v}" for k, v in st["reasons"].items())
        print(f"   {key:<32} fail {st['failed']:>6}/{st['attempted']:<6} "
              f"({st['fail_frac']:.3f})  digits {digits:>5}  {reasons}")
    if r["golden_mismatches"]:
        print(f"   golden mismatches: {', '.join(r['golden_mismatches'])}")
    print("detail " + json.dumps({k: r[k] for k in ("workload", "seed", "strata", "stamp", "info")}))


def _preflight() -> dict:
    missing = [p for p in ("src/hugelschaffer/__init__.py", "tests/golden", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        raise BenchError(f"not a hugelschaffer checkout, missing: {', '.join(missing)}")
    for module in ("mpmath", "jsonschema"):
        try:
            __import__(module)
        except ImportError:
            raise BenchError(f"the benchmark needs {module}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predicted = set(json.loads((BENCH / "layers.json").read_text())["per_layer"])
    if predicted != {m["name"] for m in spec["per_layer"]}:
        raise BenchError("bench/layers.json and BENCHMARK.json list different per-layer metrics")
    return spec


def main(argv=None) -> int:
    names = ("area_mix", "oracle_quad", "cli_cold")
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*names, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        spec = _preflight()
        selected = names if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in selected]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for r in results:
        print_report(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
