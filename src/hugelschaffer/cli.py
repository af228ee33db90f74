"""Command-line front end.

Subcommands: ``area``, ``bounds``, ``sample``, ``approx-table``,
``pi-series``, ``verify``.  Output is deterministic byte-for-byte for
fixed flags: floats are printed with 17 significant digits (or JSON's
shortest round-trip repr), keys keep a fixed order, lines end with LF.

Exit codes: 0 success, 1 domain, arithmetic or verification failure,
2 usage error.  A result that is not finite is an arithmetic failure: it
is reported on stderr and nothing is written to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from itertools import chain
from typing import TYPE_CHECKING, Optional

from . import area as area_mod
from . import curve as curve_mod
from .elliptic import DomainError, SeriesTarget, series_eval, target_value

if TYPE_CHECKING:
    from collections.abc import Callable
    from fractions import Fraction

# the --target letter of each member, in member order
_TARGETS = dict(zip("KEDA", SeriesTarget))


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ArithmeticError(f"result is not finite ({x!r})")
    return format(x, ".17g")


def _rational_pi_str(pi_coeff: Fraction, const_coeff: Fraction) -> str:
    """Exact coefficient as 'p/q + p/q*pi' style text."""
    parts = []
    if const_coeff != 0:
        parts.append(str(const_coeff))
    if pi_coeff != 0:
        mag = abs(pi_coeff)
        piece = "pi" if mag == 1 else f"{mag}*pi"
        if not parts:
            parts.append(piece if pi_coeff > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if pi_coeff > 0 else f"- {piece}")
    if not parts:
        return "0"
    return " ".join(parts)


def _emit_json(payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:  # a NaN or infinity in the payload
        raise ArithmeticError("result is not finite") from exc
    sys.stdout.write(text)
    sys.stdout.write("\n")


def _emit_csv(header: list[str], rows: list[tuple]) -> None:
    """The header, then one line of comma-joined fields per row.

    Each row holds the types of the first: a float is written as ``_fmt``
    writes it, anything else with ``str``, all through one ``%`` template.
    No field the CLI writes holds a comma, a quote or a line break, so
    none is quoted.
    """
    first = rows[0]
    flat = tuple(chain.from_iterable(rows))
    width = len(first)
    for i, v in enumerate(first):
        if isinstance(v, float) and not all(map(math.isfinite, flat[i::width])):
            # the first in row order, the one a row-by-row writer would meet
            bad = next(x for x in flat if isinstance(x, float) and not math.isfinite(x))
            raise ArithmeticError(f"result is not finite ({bad!r})")
    line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
    sys.stdout.write(",".join(header) + "\n" + (line * len(rows)) % flat)


def _text(v: object) -> str:
    return _fmt(v) if isinstance(v, float) else str(v)


def _emit_kv(pairs: list[tuple[str, object]], fmt: str) -> None:
    if fmt == "json":
        _emit_json(dict(pairs))
    elif fmt == "csv":
        _emit_csv([k for k, _ in pairs], [tuple(v for _, v in pairs)])
    else:
        for k, v in pairs:
            sys.stdout.write(f"{k} = {_text(v)}\n")


def _params(args) -> curve_mod.CurveParams:
    return curve_mod.CurveParams(a=args.a, b=args.b, w=args.w)


# ---------------------------------------------------------------------------
# subcommands


def cmd_area(args) -> int:
    params = _params(args)
    if args.method == "exact":
        result = area_mod.area_exact(params)
    elif args.method == "series":
        result = area_mod.area_series(params, tol=args.tol)
    else:
        result = area_mod.area_taylor(params, args.n, args.beta)
    shape = curve_mod.derive(params)
    pairs = [*zip(result._fields, result), *zip(shape._fields, shape)]
    _emit_kv([*pairs, ("method", args.method)], args.format)
    return 0


def cmd_bounds(args) -> int:
    cert = area_mod.bounds(_params(args))
    # exact_total prints as "exact", the key bounds.schema.json, goldens and bench/checks.py read
    names = ["exact" if f == "exact_total" else f for f in cert._fields]
    _emit_kv(list(zip(names, cert)), args.format)
    return 0


def _svg_path(xs: list[float], ys: list[float]) -> str:
    cmds = [f"M {_fmt(xs[0])} {_fmt(-ys[0])}"]
    cmds += [f"L {_fmt(x)} {_fmt(-y)}" for x, y in zip(xs[1:], ys[1:])]
    return " ".join(cmds) + " Z"


def cmd_sample(args) -> int:
    params = _params(args)
    shape = curve_mod.derive(params)
    ts, xs, ys = curve_mod.sample_egg(params, args.n)

    if args.format == "svg":
        extent = max(params.a, shape.q * params.b)
        margin = 0.1 * extent
        r = extent + margin
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{_fmt(-r)} {_fmt(-r)} {_fmt(2 * r)} {_fmt(2 * r)}">',
            f'<path d="{_svg_path(xs, ys)}" fill="none" stroke="black" '
            f'stroke-width="{_fmt(extent / 200.0)}"/>',
        ]
        if args.circles:
            lines.append(
                f'<circle cx="0" cy="0" r="{_fmt(params.a)}" fill="none" '
                f'stroke="gray" stroke-width="{_fmt(extent / 400.0)}"/>'
            )
            lines.append(
                f'<circle cx="{_fmt(shape.u)}" cy="0" r="{_fmt(shape.q * params.b)}" '
                f'fill="none" stroke="gray" stroke-width="{_fmt(extent / 400.0)}"/>'
            )
        lines.append("</svg>")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0

    if args.format == "json":
        payload = {
            "points": [{"t": t, "x": x, "y": y} for t, x, y in zip(ts, xs, ys)]
        }
        if args.circles:
            k1, k2 = curve_mod.construction_circles(params, ts)
            payload["circle1"] = [{"x": p.x, "y": p.y} for p in k1]
            payload["circle2"] = [{"x": p.x, "y": p.y} for p in k2]
        _emit_json(payload)
        return 0

    _emit_csv(["t", "x", "y"], list(zip(ts, xs, ys)))
    return 0


def cmd_approx_table(args) -> int:
    from . import taylor as taylor_mod

    target = _TARGETS[args.target]
    n = args.max_degree
    first = taylor_mod.first_taylor(target, n)
    second = taylor_mod.second_taylor(target, n, args.beta)
    beta_eff = second.beta

    coeff_dump = [
        (f"x^{t.power}", _rational_pi_str(t.pi_coeff, 0)) for t in first.terms
    ]
    corrections = [
        _rational_pi_str(c.pi_coeff, c.const_coeff) if c.is_exact() else _fmt(c.value())
        for c in taylor_mod.second_corrections(target, n, args.beta)
    ]

    grid = [beta_eff * (i + 1) / (args.grid_size + 1) for i in range(args.grid_size)]
    rows = []
    for x in grid:
        f = target_value(target, x)
        tv = taylor_mod.eval_approx(first, x)
        sv = taylor_mod.eval_approx(second, x)
        rows.append((x, f, tv, sv, tv - f, sv - f))

    header = ["x", "f", "first", "second", "err_first", "err_second"]
    if args.format == "json":
        _emit_json(
            {
                "target": args.target,
                "degree": n,
                "beta": beta_eff,
                "series_coefficients": [
                    {"power": p, "value": v} for p, v in coeff_dump
                ],
                "second_kind_corrections": [
                    {"degree": j, "value": v} for j, v in enumerate(corrections)
                ],
                "rows": [dict(zip(header, row)) for row in rows],
            }
        )
        return 0
    if args.format == "csv":
        _emit_csv(header, rows)
        return 0
    sys.stdout.write(f"target {args.target}, degree {n}, beta {_fmt(beta_eff)}\n")
    sys.stdout.write("series coefficients:\n")
    for p, v in coeff_dump:
        sys.stdout.write(f"  {p}: {v}\n")
    sys.stdout.write("second-kind correction coefficients:\n")
    for j, v in enumerate(corrections):
        sys.stdout.write(f"  degree {j}: {v}\n")
    sys.stdout.write(" ".join(h.rjust(24) for h in header) + "\n")
    for row in rows:
        sys.stdout.write(" ".join(_fmt(v).rjust(24) for v in row) + "\n")
    return 0


def cmd_pi_series(args) -> int:
    from decimal import Decimal, localcontext

    partial, last_term = area_mod._inv_pi_sum(args.terms)
    pi_30 = Decimal("3.14159265358979323846264338328")  # reference for the error
    with localcontext() as ctx:
        ctx.prec = 40
        abs_error = abs(Decimal(repr(partial)) - 1 / pi_30)
    pairs = [
        ("terms", args.terms),
        ("partial_sum", partial),
        ("abs_error", float(abs_error)),
        ("last_term", last_term),
    ]
    _emit_kv(pairs, args.format)
    return 0


# ---------------------------------------------------------------------------
# verification battery


def _verification_checks() -> list[tuple[str, Callable[[], float], float]]:
    """(name, margin function, tolerance) entries in printed order; a check
    passes iff its margin <= its tolerance.  Each function computes its
    margin from its own fixed inputs when it is called."""
    from fractions import Fraction

    from . import oracle as oracle_mod
    from . import taylor as taylor_mod
    from .elliptic import complete_E, complete_K

    grid = [i / 100.0 for i in range(5, 100, 5)]

    def oracle_elliptic() -> float:
        return max(
            max(
                abs(oracle_mod.quad_elliptic("K", k) - complete_K(k)),
                abs(oracle_mod.quad_elliptic("E", k) - complete_E(k)),
            )
            for k in grid
        )

    def series_direct(target: SeriesTarget) -> Callable[[], float]:
        return lambda: max(
            abs(series_eval(target, k, 1e-16) - target_value(target, k))
            for k in grid
            if k <= 0.9
        )

    def fixtures() -> float:
        ok = (
            SeriesTarget.K.coeff(2) == Fraction(9, 128)
            and SeriesTarget.E.coeff(2) == Fraction(-3, 128)
            and SeriesTarget.D.coeff(3) == Fraction(175, 4096)
            and SeriesTarget.AREA.coeff(5) == Fraction(-147, 131072)
        )
        return 0.0 if ok else 1.0

    def oracle_area() -> float:
        # k = 0.05, 0.15, ..., 0.95 in each regime, w = k a and w = a / k,
        # with a and b spread over [1, 4]
        worst = 0.0
        for i in range(10):
            k, a, b = (2 * i + 1) / 20.0, 1.0 + i / 3.0, 4.0 - i / 3.0
            for w in (k * a, a / k):
                params = curve_mod.CurveParams(a=a, b=b, w=w)
                exact = area_mod.area_exact(params).total
                worst = max(worst, abs(exact - oracle_mod.quad_area(params).total) / exact)
        return worst

    def j_relations() -> float:
        return max(max(area_mod.check_J_relations(k).values()) for k in (0.1, 0.5, 0.9))

    def chains() -> float:
        ok = all(
            taylor_mod.verify_chain(t, 10, beta, [0.1 * i for i in range(1, 10)]).ok
            for t, beta in zip(SeriesTarget, (0.95, 1.0, 0.95, 1.0))  # K, E, D, area
        )
        return 0.0 if ok else 1.0

    def on_curve() -> float:
        # the 5 x 5 x 8 eggs with a, b in [0.5, 4] and w in [0.2, 6], each at
        # one angle 2 pi i / 200; i steps by 123 (about 200 / golden ratio, prime
        # to 200), so every run of eggs sees angles all around [0, 2 pi)
        worst = 0.0
        for j in range(200):
            a, b = 0.5 + 0.875 * (j % 5), 0.5 + 0.875 * (j // 5 % 5)
            w = 0.2 + 5.8 * (j // 25) / 7.0
            t = 2.0 * math.pi * (123 * j % 200) / 200.0
            params = curve_mod.CurveParams(a=a, b=b, w=w)
            q = curve_mod.derive(params).q
            res = abs(curve_mod.implicit_Fq(params, curve_mod.point_at(params, t)))
            worst = max(worst, res / (a * a * b * b * q * q))
        return worst

    def bounds_order() -> float:
        # the chain is the certificate's first five fields, in order
        for a, b, w in ((4.0, 3.0, 2.0), (2.0, 3.0, 4.0), (1.5, 1.0, 1.2)):
            chain = area_mod.bounds(curve_mod.CurveParams(a=a, b=b, w=w))[:5]
            if not all(lo <= hi for lo, hi in zip(chain, chain[1:])):
                return 1.0
        return 0.0

    def inv_pi() -> float:
        return abs(area_mod.inv_pi_partial(10**4) - 1.0 / math.pi)

    return [
        ("oracle K/E agreement", oracle_elliptic, 1e-11),
        *(
            (f"series/direct agreement {name}", series_direct(target), 1e-11)
            for name, target in zip(("K", "E", "D", "area"), SeriesTarget)
        ),
        ("table coefficient fixtures", fixtures, 0.0),
        ("oracle area agreement", oracle_area, 1e-8),
        ("J-relation margins", j_relations, 1e-8),
        ("two-sided chains", chains, 0.0),
        ("on-curve residual", on_curve, 1e-9),
        ("bounds ordering", bounds_order, 0.0),
        ("1/pi partial error at N=10^4", inv_pi, 1e-8),
    ]


def cmd_verify(args) -> int:
    results = []
    for name, check, tol in _verification_checks():
        margin = check()
        results.append(
            {"name": name, "margin": margin, "tolerance": tol, "passed": margin <= tol}
        )
    all_ok = all(r["passed"] for r in results)
    if args.format == "json":
        _emit_json({"passed": all_ok, "checks": results})
    else:
        for r in results:
            status = "PASS" if r["passed"] else "FAIL"
            sys.stdout.write(
                f"{status} {r['name']}: margin {_fmt(r['margin'])} "
                f"(tol {_fmt(r['tolerance'])})\n"
            )
        sys.stdout.write(("all checks passed" if all_ok else "FAILURES present") + "\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--w", type=float, required=True)


def _add_format(p: argparse.ArgumentParser, choices=("human", "csv", "json")) -> None:
    p.add_argument("--format", choices=choices, default=choices[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hugelschaffer",
        description="Egg areas of Hügelschäffer curves via elliptic integrals "
        "and Taylor enclosures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("area", help="exact/series/Taylor area of the egg part")
    _add_params(p)
    p.add_argument("--method", choices=("exact", "series", "taylor"), default="exact")
    p.add_argument("--n", type=int, default=4, help="Taylor degree")
    p.add_argument(
        "--beta", type=float, help="second-kind anchor; without it, the first kind"
    )
    p.add_argument("--tol", type=float, default=1e-14)
    _add_format(p)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("bounds", help="two-sided area bounds certificate")
    _add_params(p)
    _add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sample", help="sample the egg parametrization")
    _add_params(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--circles", action="store_true")
    _add_format(p, choices=("csv", "json", "svg"))
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("approx-table", help="Taylor approximants and errors")
    p.add_argument("--target", choices=tuple(_TARGETS), required=True)
    p.add_argument("--max-degree", type=int, default=10)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--grid-size", type=int, default=9)
    _add_format(p)
    p.set_defaults(func=cmd_approx_table)

    p = sub.add_parser("pi-series", help="partial sums of the 1/pi series")
    p.add_argument("--terms", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_pi_series)

    p = sub.add_parser("verify", help="run the oracle cross-check battery")
    _add_format(p, choices=("human", "json"))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sample" and args.n < 2:
        parser.error("--n must be at least 2")
    if args.command == "pi-series" and args.terms < 1:
        parser.error("--terms must be at least 1")
    if args.command == "approx-table" and args.max_degree < 0:
        parser.error("--max-degree must be at least 0")
    if args.command == "approx-table" and args.grid_size < 1:
        parser.error("--grid-size must be at least 1")
    if args.command == "area" and args.method == "taylor" and args.n < 0:
        parser.error("--n must be at least 0")
    # buffered, so a command that fails part-way writes nothing to stdout
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except (DomainError, ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
