"""Correctness checks for every operation the benchmark times.

An operation fails if it raises, returns a non-finite value, or fails its
workload's check:

- area_mix: the area within relative 1e-13 of the reference, and
  lower_coarse <= lower_refined <= exact <= upper_refined <= upper_coarse.
- oracle_quad: within relative 1e-8 of the reference, the tolerance of the
  ``verify`` battery.
- cli_cold: exit code 0, no traceback on stderr, ``--format json`` output
  valid against the shipped schema, and the numbers checked as below.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import NamedTuple, Optional

from mpmath import mp, mpf

from reference import References

AREA_TOL = 1e-13
ORACLE_TOL = 1e-8
APPROX_TOL = 1e-13  # the approx-table f column is the same closed form
ON_CURVE_TOL = 1e-9  # the verify battery's on-curve residual tolerance
PI_SERIES_TOL = 1e-11  # |partial sum - 1/pi| after 10^6 float additions
PI_TERM_TOL = 1e-8  # last term after 10^6 float recurrence steps

GOLDEN_COMMANDS = {
    "sample_a3_b2_w2_n64.csv": ["sample", "--a", "3", "--b", "2", "--w", "2", "--n", "64", "--format", "csv"],
    "pi_series_100.json": ["pi-series", "--terms", "100", "--format", "json"],
}


class Verdict(NamedTuple):
    ok: bool
    reason: str = ""
    rel_err: Optional[float] = None  # against the reference, when there is one


def _error(out) -> Optional[str]:
    if isinstance(out, dict):
        return out["error"]
    if not all(math.isfinite(v) for v in out):
        return "non-finite"
    return None


def check_area_mix(out, egg, refs: References) -> Verdict:
    err = _error(out)
    if err:
        return Verdict(False, err)
    total, lo_c, lo_r, exact, up_r, up_c = out
    rel = refs.relative_error(total, "area", egg.a, egg.b, egg.w)
    if rel > AREA_TOL:
        return Verdict(False, "tolerance", rel)
    if not (lo_c <= lo_r <= exact <= up_r <= up_c):
        return Verdict(False, "ordering", rel)
    return Verdict(True, "", rel)


def check_oracle(label: str, out, egg, refs: References) -> Verdict:
    err = _error(out)
    if err:
        return Verdict(False, err)
    if label.startswith("quad_area"):
        rel = refs.relative_error(out[0], "area", egg.a, egg.b, egg.w)
    else:
        rel = refs.relative_error(out[0], label[-1], egg.k)
    return Verdict(rel <= ORACLE_TOL, "" if rel <= ORACLE_TOL else "tolerance", rel)


class CliChecker:
    """Checks one CLI call from its exit code and captured output."""

    def __init__(self, root: Path, refs: References):
        import jsonschema

        self.refs = refs
        self.validators = {}
        for name in ("area", "bounds", "approx_table", "pi_series", "verify"):
            schema = json.loads((root / "src/hugelschaffer/schemas" / f"{name}.schema.json").read_text())
            self.validators[name.replace("_", "-")] = jsonschema.Draft7Validator(schema)

    def check(self, label: str, egg, args: list[str], rc: int, stdout: bytes, stderr: bytes) -> Verdict:
        if b"Traceback" in stderr:
            return Verdict(False, "traceback")
        if rc != 0:
            return Verdict(False, f"exit {rc}")
        if label == "sample":
            return self._sample(egg, int(args[args.index("--n") + 1]), stdout)
        try:
            doc = json.loads(stdout)
        except ValueError:
            return Verdict(False, "invalid json")
        if next(self.validators[label].iter_errors(doc), None) is not None:
            return Verdict(False, "schema")
        return getattr(self, "_" + label.replace("-", "_"))(egg, args, doc)

    def _area(self, egg, args, doc) -> Verdict:
        if not all(math.isfinite(doc[k]) for k in ("total", "part1", "part2")):
            return Verdict(False, "non-finite")
        rel = self.refs.relative_error(doc["total"], "area", egg.a, egg.b, egg.w)
        return Verdict(rel <= AREA_TOL, "" if rel <= AREA_TOL else "tolerance", rel)

    def _bounds(self, egg, args, doc) -> Verdict:
        chain = [doc[k] for k in ("lower_coarse", "lower_refined", "exact", "upper_refined", "upper_coarse")]
        if not all(math.isfinite(v) for v in chain):
            return Verdict(False, "non-finite")
        rel = self.refs.relative_error(doc["exact"], "area", egg.a, egg.b, egg.w)
        if rel > AREA_TOL:
            return Verdict(False, "tolerance", rel)
        if chain != sorted(chain):
            return Verdict(False, "ordering", rel)
        return Verdict(True, "", rel)

    def _approx_table(self, egg, args, doc) -> Verdict:
        target = args[args.index("--target") + 1]
        if doc["target"] != target or len(doc["rows"]) != 9:
            return Verdict(False, "content")
        for row in doc["rows"]:
            if self.refs.relative_error(row["f"], target, row["x"]) > APPROX_TOL:
                return Verdict(False, "tolerance")
        return Verdict(True)

    def _pi_series(self, egg, args, doc) -> Verdict:
        n = int(args[args.index("--terms") + 1])
        with mp.workdps(40):
            # abs_error is the error of the printed (shortest repr) partial sum
            gap = abs(mpf(repr(doc["partial_sum"])) - 1 / mp.pi)
            r_n = (mp.binomial(2 * n, n) / mpf(4) ** n) ** 2
            last = mpf(3) / 8 * r_n / ((2 * n - 1) * (n + 1))
            ok = (
                doc["terms"] == n
                and gap <= PI_SERIES_TOL
                and abs(doc["abs_error"] - gap) <= 1e-9 * gap
                and abs(doc["last_term"] - last) <= PI_TERM_TOL * last
            )
        return Verdict(bool(ok), "" if ok else "tolerance")

    def _verify(self, egg, args, doc) -> Verdict:
        return Verdict(doc["passed"] is True, "" if doc["passed"] else "battery failed")

    def _sample(self, egg, n: int, stdout: bytes) -> Verdict:
        rows = list(csv.reader(io.StringIO(stdout.decode())))
        if rows[0] != ["t", "x", "y"] or len(rows) != n + 1:
            return Verdict(False, "content")
        pts = [(float(x), float(y)) for _, x, y in rows[1:]]
        if pts[0] != pts[-1]:
            return Verdict(False, "not closed")
        a, b, w = egg.a, egg.b, egg.w
        worst = max(
            abs(2 * w * x * y * y + b * b * x * x + (a * a + w * w) * y * y - a * a * b * b)
            for x, y in pts
        ) / (a * a * b * b)
        return Verdict(worst <= ON_CURVE_TOL, "" if worst <= ON_CURVE_TOL else "off curve")


def golden_mismatches(root: Path, run_cli) -> list[str]:
    """Names of the golden files whose command output differs byte for byte.

    ``run_cli(args)`` returns (exit code, stdout bytes, stderr bytes).
    """
    bad = []
    for name, args in GOLDEN_COMMANDS.items():
        _, out, _ = run_cli(args)
        if out != (root / "tests/golden" / name).read_bytes():
            bad.append(name)
    return bad
