"""Tests for the area closed forms, series, Taylor bounds, and 1/pi sums."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from hugelschaffer import elliptic
from hugelschaffer.area import (
    _inv_pi_sum,
    area_exact,
    area_series,
    area_series_partial,
    area_taylor,
    bounds,
    check_J_relations,
    integral_I,
    inv_pi_partial,
)
from hugelschaffer.curve import CurveParams, derive, point_at
from hugelschaffer.elliptic import DomainError, SeriesTarget, target_value
from hugelschaffer.oracle import quad, quad_area
from hugelschaffer.taylor import eval_approx, first_taylor
from moduli import BULK_K, NEAR_ONE_K, SMALL_K, reference_dps


def _random_triples(count=20, seed=20240229):
    rng = random.Random(seed)
    triples = []
    for _ in range(count // 2):
        a = rng.uniform(1.0, 4.0)
        b = rng.uniform(1.0, 4.0)
        triples.append(CurveParams(a, b, rng.uniform(0.2, 0.95) * a))
        triples.append(CurveParams(a, b, rng.uniform(1.1, 3.0) * a))
    return triples


class TestBuildingBlockIntegrals:
    def test_I1_is_constant(self):
        assert integral_I(1, 0.3) == pytest.approx(1 / 3)
        assert integral_I(1, 0.9) == pytest.approx(1 / 3)

    def test_I2_matches_quadrature(self):
        k = 0.5
        oracle = quad(
            lambda t: math.sin(t) ** 2
            * math.sqrt(1.0 - k * k * math.sin(t) ** 2),
            0.0,
            math.pi / 2,
        )
        assert abs(integral_I(2, k) - oracle) < 1e-10

    def test_I2_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        for k in SMALL_K + BULK_K + NEAR_ONE_K:
            with mpmath.workdps(reference_dps(k)):
                m = mpmath.mpf(k) ** 2
                bigK, bigE = mpmath.ellipk(m), mpmath.ellipe(m)
                ref = ((2 * m - 1) * bigE + (1 - m) * bigK) / (3 * m)
                worst = max(worst, float(abs((integral_I(2, k) - ref) / ref)))
        assert worst <= 1e-15, worst

    def test_I3_small_k_limit(self):
        # as k -> 0 the integrand tends to sin^2 cos^2, whose integral is
        # pi/16; the closed form cancels in k^4, so stay at moderate k
        assert abs(integral_I(3, 0.05) - math.pi / 16) < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            integral_I(2, 0.0)
        with pytest.raises(DomainError):
            integral_I(3, 1.0)
        with pytest.raises(ValueError):
            integral_I(4, 0.5)


@pytest.mark.parametrize("k,tol", [(0.1, 1e-9), (0.5, 1e-9), (0.9, 1e-8)])
def test_J_relations(k, tol):
    margins = check_J_relations(k)
    assert max(margins.values()) <= tol, margins


@pytest.mark.parametrize("k", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_J_relations_outside_the_open_interval(k):
    with pytest.raises(DomainError, match="modulus must lie in"):
        check_J_relations(k)


class TestAreaExact:
    def test_parts_difference_w_less_a(self):
        result = area_exact(CurveParams(4, 3, 2))
        assert result.part2 - result.part1 == pytest.approx(16.0)  # 8wb/3

    def test_matches_oracle(self):
        params = CurveParams(4, 3, 2)
        exact = area_exact(params).total
        assert abs(exact - quad_area(params).total) / exact < 1e-8

    def test_degenerate_branch(self):
        result = area_exact(CurveParams(2, 2, 2))
        assert result.total == pytest.approx(32 / 3)
        assert result.part1 == pytest.approx(0.0, abs=1e-12)
        assert result.part2 - result.part1 == pytest.approx(32 / 3)

    def test_near_degenerate_series_route(self):
        # k = 0.995, where the area once switched to the slow series;
        # (4/3)(K + E - D) holds its accuracy here and must track the oracle
        a = 2.0
        w = a * 0.995  # q = 1, k = 0.995
        params = CurveParams(a, 1.5, w)
        exact = area_exact(params).total
        assert abs(exact - quad_area(params).total) / exact < 1e-8


def test_decomposition_property_both_regimes():
    # every route returns the same split: part_diff is (8/3) a b q k
    # bit for bit, and the parts add up to the total
    for params in _random_triples():
        shape = derive(params)
        diff = (8 / 3) * (params.a * params.b * shape.q) * shape.k
        for result in (
            area_exact(params),
            area_series(params, 1e-14),
            area_series_partial(params, 50),
            area_taylor(params, 6),
            area_taylor(params, 6, beta=1.0),
        ):
            assert result.part_diff == diff
            assert result.part1 + result.part2 == pytest.approx(
                result.total, rel=1e-11
            )
            assert result.part2 - result.part1 == pytest.approx(diff, rel=1e-11)


def test_series_cross_method():
    for params in _random_triples():
        if derive(params).k > 0.95:
            continue
        exact = area_exact(params).total
        assert abs(area_series(params, 1e-14).total - exact) / exact < 1e-11


def test_series_area_rejects_tolerance_not_positive(monkeypatch):
    def no_terms(target, x):
        raise AssertionError("series summed")

    monkeypatch.setattr(elliptic, "_float_terms", no_terms)
    for tol in (math.nan, 0.0, -1e-14):
        with pytest.raises(ValueError, match="tol must be positive"):
            area_series(CurveParams(1.0, 1.0, 0.5), tol)


def test_series_limits():
    # k -> 0: the series constant term is a*b*q*pi (ellipse)
    params = CurveParams(4.0, 3.0, 1e-8)
    assert area_series(params, 1e-14).total == pytest.approx(12 * math.pi, rel=1e-12)
    # k = 1 with a bounded number of terms converges to the parabola value
    params = CurveParams(2, 2, 2)
    approx = area_series_partial(params, 10**6).total
    assert abs(approx - 32 / 3) / (32 / 3) < 1e-8


def test_monotone_in_k_at_fixed_scale():
    # scale-free area strictly decreases in the modulus
    values = [target_value(SeriesTarget.AREA, k / 20) for k in range(1, 20)]
    assert all(x > y for x, y in zip(values, values[1:]))


class TestAreaTaylor:
    def test_second_kind_degree_zero(self):
        assert area_taylor(CurveParams(4, 3, 2), 0, beta=1.0).total == pytest.approx(32.0)

    def test_second_kind_degree_three(self):
        params = CurveParams(4, 3, 2)  # q = 1, k = 0.5, scale 12
        got = area_taylor(params, 3, beta=1.0).total
        t2 = 12 * math.pi * (1 - 0.125 * 0.25)
        expected = t2 + 12 * (8 / 3 - 7 * math.pi / 8) * 0.5**3
        assert got == pytest.approx(expected, rel=1e-14)

    def test_sandwich_for_all_degrees(self):
        for params in _random_triples(10):
            exact = area_exact(params).total
            k = derive(params).k
            if not (0.05 < k < 0.95):
                continue
            for n in range(11):
                upper = area_taylor(params, n).total
                lower = area_taylor(params, n, beta=1.0).total
                assert lower - 1e-12 <= exact <= upper + 1e-12


class TestBounds:
    def test_coarse_bounds_434(self):
        cert = bounds(CurveParams(4, 3, 2))
        assert cert.lower_coarse == pytest.approx(32.0)
        assert cert.upper_coarse == pytest.approx(12 * math.pi)
        assert cert.lower_coarse < cert.exact_total < cert.upper_coarse

    def test_nabla_master_equals_piecewise(self):
        for params in (CurveParams(4, 3, 2), CurveParams(2, 3, 4)):
            cert = bounds(params)
            assert cert.nabla == pytest.approx(cert.nabla_piecewise, rel=1e-12)
        # w < a reduction in closed form: pi*b*w^2/(8a)
        cert = bounds(CurveParams(4, 3, 2))
        assert cert.nabla == pytest.approx(math.pi * 3 * 4 / 32, rel=1e-12)

    def test_degenerate_collapse(self):
        cert = bounds(CurveParams(2, 2, 2))
        assert cert.delta == pytest.approx(0.0, abs=1e-12)
        assert cert.lower_refined == pytest.approx(cert.exact_total, rel=1e-12)

    def test_ordering_everywhere(self):
        for params in _random_triples():
            cert = bounds(params)
            assert (
                cert.lower_coarse
                <= cert.lower_refined
                <= cert.exact_total
                <= cert.upper_refined
                <= cert.upper_coarse
            )

    def test_ordering_near_one(self):
        # 1 - k = j 2^-53, where the two lower bounds once rounded 1 ulp
        # the wrong way round; no slack
        rng = random.Random(53)
        for _ in range(2000):
            a, b = rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)
            k = 1.0 - rng.randint(1, 8) * 2.0**-53
            cert = bounds(CurveParams(a, b, a * k))
            assert cert.lower_coarse <= cert.lower_refined <= cert.exact_total

    def test_large_w_is_finite_and_ordered(self):
        # w^3 overflows here; k ~ 8e-131, where the area is pi a b q
        cert = bounds(CurveParams(2.03, 1.62, 2.6e130))
        fields = (
            cert.lower_coarse,
            cert.lower_refined,
            cert.exact_total,
            cert.upper_refined,
            cert.upper_coarse,
        )
        assert all(math.isfinite(v) for v in fields)
        assert all(math.isfinite(v) for v in (cert.nabla, cert.nabla_piecewise))
        assert list(fields) == sorted(fields)

    def test_printed_delta_flagged_at_small_k(self):
        # w << a means small k; the published margin overshoots there
        cert = bounds(CurveParams(4, 3, 0.5))
        assert not cert.delta_printed_consistent

    def test_upper_refined_is_the_degree_two_approximant(self):
        # the explicit pi - (pi/8) k^2 is Horner on the first-kind
        # degree-2 approximant of the area series, bit for bit
        approx = first_taylor(SeriesTarget.AREA, 2)
        rng = random.Random(82)
        for _ in range(2000):
            a, b = rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)
            k = rng.choice(
                (rng.uniform(0.05, 0.99), 10.0 ** rng.uniform(-300, -1.3),
                 1.0 - 10.0 ** rng.uniform(-16, -2))
            )
            params = CurveParams(a, b, a * k)
            shape = derive(params)
            cert = bounds(params)
            assert cert.upper_refined == (a * b * shape.q) * eval_approx(approx, shape.k)

    def test_same_numbers_as_area_exact_and_derive(self):
        # bounds forms its total apart from area_exact, and area_exact its
        # scale and k apart from derive; both regimes and w == a
        rng = random.Random(15)
        for _ in range(2000):
            a, b = rng.uniform(0.25, 4.0), rng.uniform(0.25, 4.0)
            k = rng.choice(
                (rng.uniform(0.05, 0.99), 10.0 ** rng.uniform(-300, -1.3),
                 1.0 - 10.0 ** rng.uniform(-16, -2))
            )
            for w in (a * k, a / k, a):
                params = CurveParams(a, b, w)
                exact, shape = area_exact(params), derive(params)
                assert bounds(params).exact_total == exact.total
                assert exact.part_diff == (8 / 3) * (a * b * shape.q) * shape.k


def test_result_records_are_immutable():
    params = CurveParams(4, 3, 2)
    for record, field in (
        (derive(params), "q"),
        (area_exact(params), "total"),
        (bounds(params), "exact_total"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)


class TestInvPi:
    def test_first_partial_exact(self):
        assert inv_pi_partial(1) == 21 / 64

    def test_converges_to_inv_pi(self):
        assert abs(inv_pi_partial(10**4) - 1 / math.pi) <= 1e-8

    def test_tail_estimate(self):
        # terms behave like 1/(2 pi i^3), so the tail after N terms is
        # about 3/(32 pi N^2); the observed error must match that scale
        for n in (100, 1000, 10**4):
            err = abs(inv_pi_partial(n) - 1 / math.pi)
            estimate = 3.0 / (32.0 * math.pi * n * n)
            assert 0.5 * estimate < err < 2.0 * estimate

    def test_strictly_decreasing(self):
        values = [inv_pi_partial(n) for n in (10, 100, 1000)]
        assert values[0] > values[1] > values[2] > 1 / math.pi

    def test_validation(self):
        with pytest.raises(ValueError):
            inv_pi_partial(0)

    def test_within_three_ulps_of_the_telescoped_closed_form(self):
        # the partial sum telescopes (Gosper): with r_N = (C(2N, N)/4^N)^2,
        # (3/8)(1 - sum_{i<=N} r_i/((2i-1)(i+1))) = r_N (2N+1)(4N+3)/(8(N+1))
        def closed_form(n):
            c = math.comb(2 * n, n)
            return Fraction(c * c * (2 * n + 1) * (4 * n + 3), 8 * (n + 1) * 16**n)

        r, acc = Fraction(1), Fraction(0)
        for i in range(1, 301):
            r *= Fraction(2 * i - 1, 2 * i) ** 2
            acc += r / ((2 * i - 1) * (i + 1))
            assert Fraction(3, 8) * (1 - acc) == closed_form(i), i
        # the float sum's rounding grows with N: 2.06 ulps at N = 241,
        # 2.33 at 1000 and 1.76 at 12345, but 433 at 180268
        for n in (*range(1, 301), 1000, 12345):
            want = closed_form(n)
            ulps = abs(Fraction(inv_pi_partial(n)) - want) / Fraction(math.ulp(float(want)))
            assert ulps <= 3, (n, float(ulps))

    def test_counted_loop_equals_the_per_index_one(self):
        # the loop as written per index i, before its factors were counted
        def reference(N):
            r = 1.0
            acc = 0.0
            for i in range(1, N + 1):
                q = (2 * i - 1) / (2 * i)
                r *= q * q
                acc += r / ((2 * i - 1) * (i + 1))
            return 0.375 * (1.0 - acc), 0.375 * r / ((2 * N - 1) * (N + 1))

        for n in (1, 2, 3, 100, 12345, 10**5, 180268, 10**6):
            got, want = _inv_pi_sum(n), reference(n)
            assert [v.hex() for v in got] == [v.hex() for v in want], n


def test_scale_limits():
    # a*b*q may run from the smallest normal float to max/4, where
    # pi * a*b*q, the largest area or bound, is still finite
    low, high = sys.float_info.min, sys.float_info.max / 4
    for b in (low, high):  # q = 1 and a = 1, so a*b*q = b
        cert = bounds(CurveParams(1.0, b, 0.5))
        assert low <= cert.lower_coarse and cert.upper_coarse < math.inf
    for b in (math.nextafter(low, 0.0), math.nextafter(high, math.inf)):
        with pytest.raises(DomainError):
            area_exact(CurveParams(1.0, b, 0.5))


# Each of a, b, w at both ends of the float range and in between.
_EXTREMES = (1e-300, 1e-150, 1e-5, 1.0, 1e5, 1e150, 1e300)


def _mp_area(mpmath, a, b, w):
    """The egg area from the exact inputs, in mpmath."""
    a, b, w = (mpmath.mpf(v) for v in (a, b, w))
    q = min(mpmath.mpf(1), a / w)
    k = q * q * w / a
    if k == 1:
        return a * b * q * 8 / 3
    with mpmath.workdps(40 + 2 * int(-mpmath.log10(k))):
        m = k * k
        return a * b * q * 4 / 3 * (
            (1 - 1 / m) * mpmath.ellipk(m) + (1 + 1 / m) * mpmath.ellipe(m)
        )


def test_extreme_scales_raise_or_stay_normal():
    # where a*b*q is outside the normal floats, an area would be inf, 0.0
    # or subnormal, so every route raises; elsewhere each area is a
    # normal float and the exact one matches mpmath
    mpmath = pytest.importorskip("mpmath")
    tiny = sys.float_info.min
    returned = 0
    for a, b, w in itertools.product(_EXTREMES, repeat=3):
        params = CurveParams(a, b, w)
        for t in (0.0, 0.7, 2.0, 4.0):
            assert all(math.isfinite(v) for v in point_at(params, t)), (a, b, w, t)
        routes = (
            lambda: area_exact(params),
            lambda: area_series(params, 1e-10),
            lambda: area_taylor(params, 4),
            lambda: area_taylor(params, 4, beta=1.0),
            lambda: bounds(params),
        )
        results = []
        for route in routes:
            try:
                results.append(route())
            except DomainError:
                pass
        if not results:
            continue
        assert len(results) == len(routes), (a, b, w)
        returned += 1
        exact, series, first, second, cert = results
        areas = (
            exact.total, series.total, first.total, second.total, cert.lower_coarse,
            cert.lower_refined, cert.exact_total, cert.upper_refined,
            cert.upper_coarse,
        )
        assert all(tiny <= v < math.inf for v in areas), (a, b, w, areas)
        # the margins scale with 1 - k or k^2 and may underflow
        margins = (cert.delta, cert.nabla, cert.delta_printed, cert.nabla_piecewise)
        assert all(0.0 <= v < math.inf for v in margins), (a, b, w, margins)
        with mpmath.workdps(50):
            ref = _mp_area(mpmath, a, b, w)
            assert abs(exact.total - ref) <= 1e-15 * ref, (a, b, w)
            # pi b w^2/(8a) for w < a, pi a^4 b/(8w^3) for w > a: the
            # smaller of the two; where it is a normal float, so is the margin
            A, B, W = (mpmath.mpf(v) for v in (a, b, w))
            ref = mpmath.pi * B * min(W * W / A, A**4 / W**3) / 8
            if ref >= tiny:
                assert abs(cert.nabla_piecewise - ref) <= 1e-15 * ref, (a, b, w)
    assert returned == 248
