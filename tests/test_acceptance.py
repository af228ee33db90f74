"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are fixed here and must not be loosened.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from hugelschaffer.area import (
    area_exact,
    area_series_partial,
    bounds,
    check_J_relations,
    integral_I,
    inv_pi_partial,
)
from hugelschaffer.curve import (
    CurveParams,
    derive,
    implicit_Fq,
    point_at,
    q_unification_residual,
)
from hugelschaffer.elliptic import (
    SeriesTarget,
    complete_D,
    complete_E,
    complete_K,
    series_eval,
)
from hugelschaffer.oracle import quad, quad_area
from hugelschaffer.taylor import first_taylor, second_taylor, verify_chain

F = Fraction


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _twenty_triples():
    # 10 with w < a and 10 with w > a, fixed seed
    rng = random.Random(20240229)
    triples = []
    for _ in range(10):
        a = rng.uniform(1.0, 4.0)
        b = rng.uniform(1.0, 4.0)
        triples.append(CurveParams(a, b, rng.uniform(0.2, 0.95) * a))
        triples.append(CurveParams(a, b, rng.uniform(1.1, 3.0) * a))
    return triples


def test_criterion_1_table_fixtures_exact():
    K, E, D, A = SeriesTarget
    expected_first = {
        K: [F(1, 2), F(1, 8), F(9, 128), F(25, 512), F(1225, 32768), F(3969, 131072)],
        E: [F(1, 2), F(-1, 8), F(-3, 128), F(-5, 512), F(-175, 32768), F(-441, 131072)],
        D: [F(1, 4), F(3, 32), F(15, 256), F(175, 4096), F(2205, 65536), F(14553, 524288)],
        A: [F(1), F(-1, 8), F(-1, 64), F(-5, 1024), F(-35, 16384), F(-147, 131072)],
    }
    for target, coeffs in expected_first.items():
        approx = first_taylor(target, 10)
        assert [t.pi_coeff for t in approx.terms] == coeffs
        assert all(t.const_coeff == 0 for t in approx.terms)

    area_corrections = {
        1: F(-1), 3: F(-7, 8), 5: F(-55, 64), 7: F(-875, 1024), 9: F(-13965, 16384),
    }
    for degree, pi_mult in area_corrections.items():
        for j in (degree, degree + 1):
            corr = second_taylor(SeriesTarget.AREA, j, 1.0).terms[-1]
            assert corr.const_coeff == F(8, 3)
            assert corr.pi_coeff == pi_mult
    _report(1, "Taylor coefficients for j = 0..10 match the table fixtures exactly")


def test_criterion_2_identity_suite():
    worst = max(
        abs(complete_K(k) - complete_E(k) - k * k * complete_D(k))
        for k in [i / 100.0 for i in range(5, 100, 5)]
    )
    assert worst <= 1e-12
    _report(2, f"|K - E - k^2 D| <= 1e-12 on the grid (worst {worst:.2e})")


def test_criterion_3_oracle_equivalence():
    worst_area = 0.0
    for params in _twenty_triples():
        exact = area_exact(params).total
        worst_area = max(worst_area, abs(exact - quad_area(params).total) / exact)
    assert worst_area <= 1e-8

    worst_i = 0.0
    for k, tol in ((0.1, 1e-9), (0.5, 1e-9), (0.9, 1e-8)):
        k2 = k * k
        i2 = quad(
            lambda t: math.sin(t) ** 2 * math.sqrt(1.0 - k2 * math.sin(t) ** 2),
            0.0, math.pi / 2,
        )
        i3 = quad(
            lambda t: math.sin(t) ** 2 * math.cos(t) ** 2
            / math.sqrt(1.0 - k2 * math.sin(t) ** 2),
            0.0, math.pi / 2,
        )
        assert abs(integral_I(2, k) - i2) <= tol
        assert abs(integral_I(3, k) - i3) <= tol
        worst_i = max(worst_i, abs(integral_I(2, k) - i2), abs(integral_I(3, k) - i3))
        assert max(check_J_relations(k).values()) <= tol
    _report(3, f"closed forms track the quadrature oracle (worst area rel {worst_area:.2e}, worst I {worst_i:.2e})")


def test_criterion_4_theorem_algebra():
    for params in _twenty_triples():
        r = area_exact(params)
        assert r.part1 + r.part2 == pytest.approx(r.total, rel=1e-11)
        a, b, w = params.a, params.b, params.w
        expected = 8 * w * b / 3 if w < a else 8 * a**3 * b / (3 * w * w)
        assert r.part2 - r.part1 == pytest.approx(expected, rel=1e-11)
    _report(4, "subarea sum and difference identities hold in both regimes")


def test_criterion_5_sandwich_chains():
    grid = [i / 10.0 for i in range(1, 10)]
    for target, beta in (
        (SeriesTarget.K, 0.95),
        (SeriesTarget.D, 0.95),
        (SeriesTarget.E, 1.0),
        (SeriesTarget.AREA, 1.0),
    ):
        report = verify_chain(target, 10, beta, grid)
        assert report.ok, report.violations
        for x in grid:
            for margins in (report.first_margins[x], report.second_margins[x]):
                for lo, hi in zip(margins[1:], margins):
                    assert lo <= hi + 1e-14
    _report(5, "all four inequality chains hold for j <= 10 with monotone margins")


def test_criterion_6_degenerate_limits():
    params = CurveParams(2, 2, 2)  # k = 1
    exact = area_exact(params).total
    assert exact == pytest.approx(32 / 3, rel=1e-14)
    series = area_series_partial(params, 10**6).total
    assert abs(series - exact) / exact <= 1e-8
    # k -> 0 limit of the series is the ellipse value a*b*q*pi
    assert series_eval(SeriesTarget.AREA, 0.0, 1e-16) == pytest.approx(math.pi, rel=1e-15)
    _report(6, "k = 1 branch value and series limits at both endpoints agree")


def test_criterion_7_inv_pi_representation():
    assert inv_pi_partial(1) == 21 / 64  # exact dyadic value
    # confirm the ~1/(2 pi i^3) tail estimate before relying on it
    for n in (100, 1000):
        err = abs(inv_pi_partial(n) - 1 / math.pi)
        estimate = 3.0 / (32.0 * math.pi * n * n)
        assert 0.5 * estimate < err < 2.0 * estimate
    err4 = abs(inv_pi_partial(10**4) - 1 / math.pi)
    assert err4 <= 1e-8
    _report(7, f"1/pi partial sums: N=1 exact, N=1e4 error {err4:.2e} <= 1e-8")


def test_criterion_8_bounds_certificate():
    flagged = 0
    for params in _twenty_triples():
        cert = bounds(params)
        k = derive(params).k
        assert cert.lower_coarse < cert.lower_refined < cert.exact_total
        assert cert.exact_total < cert.upper_refined < cert.upper_coarse
        if k < 0.3:
            assert not cert.delta_printed_consistent
            flagged += 1
    # the documented misprint case must also be covered explicitly
    assert not bounds(CurveParams(4, 3, 0.5)).delta_printed_consistent
    _report(8, f"certificate ordering strict on 20 triples; printed margin flagged ({flagged + 1} small-k cases)")


def test_criterion_9_geometry():
    rng = random.Random(12345)
    for _ in range(10_000):
        a = rng.uniform(0.5, 4.0)
        b = rng.uniform(0.5, 4.0)
        w = rng.uniform(0.2, 6.0)
        t = rng.uniform(0.0, 2.0 * math.pi)
        params = CurveParams(a, b, w)
        q = derive(params).q
        res = abs(implicit_Fq(params, point_at(params, t)))
        assert res <= 1e-9 * a * a * b * b * q * q

    rationals = [
        (F(3), F(2), F(2)),
        (F(2), F(2), F(4)),
        (F(7, 3), F(1, 2), F(13, 5)),
        (F(1, 2), F(5), F(9, 2)),
    ]
    for a, b, w in rationals:
        assert q_unification_residual(a, b, w) == 0
    _report(9, "10^4 sampled points satisfy the unified cubic; q-unification exact")


def test_criterion_10_cli_determinism():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "hugelschaffer", *args],
            capture_output=True,
        ).stdout

    for args in (
        ("sample", "--a", "3", "--b", "2", "--w", "2", "--n", "64", "--format", "csv"),
        ("pi-series", "--terms", "100", "--format", "json"),
    ):
        assert run(*args) == run(*args)
    payload = json.loads(run("pi-series", "--terms", "100", "--format", "json"))
    assert payload["terms"] == 100
    _report(10, "CLI outputs are byte-identical across consecutive runs")
