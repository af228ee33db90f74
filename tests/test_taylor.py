"""Tests for the first/second Taylor approximations and inequality chains.

The coefficient fixtures are compared as exact rationals, never through
floating point.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from hugelschaffer.elliptic import (
    DomainError,
    SeriesTarget,
    complete_K,
    target_value,
)
from hugelschaffer import taylor
from hugelschaffer.taylor import (
    ChainReport,
    PolyTerm,
    eval_approx,
    first_taylor,
    second_corrections,
    second_taylor,
    verify_chain,
)

F = Fraction

# pi-multiples of x^0, x^2, ..., x^10 in the degree-10 Maclaurin truncations
FIRST_KIND_COEFFS = {
    "K": [F(1, 2), F(1, 8), F(9, 128), F(25, 512), F(1225, 32768), F(3969, 131072)],
    "E": [F(1, 2), F(-1, 8), F(-3, 128), F(-5, 512), F(-175, 32768), F(-441, 131072)],
    "D": [F(1, 4), F(3, 32), F(15, 256), F(175, 4096), F(2205, 65536), F(14553, 524288)],
    "A": [F(1), F(-1, 8), F(-1, 64), F(-5, 1024), F(-35, 16384), F(-147, 131072)],
}

TARGETS = dict(zip("KEDA", SeriesTarget))

# (const, pi-multiple) of the endpoint correction at beta = 1, per degree
SECOND_KIND_CORRECTIONS_E = {
    1: (F(1), F(-1, 2)),
    2: (F(1), F(-1, 2)),
    3: (F(1), F(-3, 8)),
    4: (F(1), F(-3, 8)),
    5: (F(1), F(-45, 128)),
    6: (F(1), F(-45, 128)),
    7: (F(1), F(-175, 512)),
    8: (F(1), F(-175, 512)),
    9: (F(1), F(-11025, 32768)),
    10: (F(1), F(-11025, 32768)),
}
SECOND_KIND_CORRECTIONS_A = {
    1: (F(8, 3), F(-1)),
    2: (F(8, 3), F(-1)),
    3: (F(8, 3), F(-7, 8)),
    4: (F(8, 3), F(-7, 8)),
    5: (F(8, 3), F(-55, 64)),
    6: (F(8, 3), F(-55, 64)),
    7: (F(8, 3), F(-875, 1024)),
    8: (F(8, 3), F(-875, 1024)),
    9: (F(8, 3), F(-13965, 16384)),
    10: (F(8, 3), F(-13965, 16384)),
}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_first_kind_table_fixtures_exact(name):
    approx = first_taylor(TARGETS[name], 10)
    assert [t.pi_coeff for t in approx.terms] == FIRST_KIND_COEFFS[name]
    assert all(t.const_coeff == 0 and t.float_coeff is None for t in approx.terms)
    assert [t.power for t in approx.terms] == [0, 2, 4, 6, 8, 10]


@pytest.mark.parametrize(
    "fixtures,name",
    [(SECOND_KIND_CORRECTIONS_E, "E"), (SECOND_KIND_CORRECTIONS_A, "A")],
)
def test_second_kind_correction_fixtures_exact(fixtures, name):
    target = TARGETS[name]
    for degree, (const, pi_mult) in fixtures.items():
        corr = second_taylor(target, degree, 1.0).terms[-1]
        assert corr.power == degree
        assert corr.const_coeff == const
        assert corr.pi_coeff == pi_mult
        assert corr.float_coeff is None


def test_first_taylor_examples():
    # degree 4 of K: pi/2 + pi/8 x^2 + 9pi/128 x^4
    k4 = first_taylor(SeriesTarget.K, 4)
    assert [t.pi_coeff for t in k4.terms] == [F(1, 2), F(1, 8), F(9, 128)]
    # degree 1 of E is still the constant pi/2
    e1 = first_taylor(SeriesTarget.E, 1)
    assert [t.pi_coeff for t in e1.terms] == [F(1, 2)]
    # degree 10 of D, full row
    d10 = first_taylor(SeriesTarget.D, 10)
    assert [t.pi_coeff for t in d10.terms] == FIRST_KIND_COEFFS["D"]


def test_second_taylor_examples():
    # constant approximation of E at beta = 1
    e0 = second_taylor(SeriesTarget.E, 0, 1.0)
    assert eval_approx(e0, 0.3) == 1.0
    # degree 3 of E: pi/2 - pi/8 x^2 + (1 - 3pi/8) x^3
    e3 = second_taylor(SeriesTarget.E, 3, 1.0)
    coeffs = e3.coefficients()
    assert coeffs[0] == pytest.approx(math.pi / 2)
    assert coeffs[2] == pytest.approx(-math.pi / 8)
    assert coeffs[3] == pytest.approx(1 - 3 * math.pi / 8)
    # degree 1 of K anchored at beta = 0.5 reproduces K(0.5)
    k1 = second_taylor(SeriesTarget.K, 1, 0.5)
    assert eval_approx(k1, 0.5) == pytest.approx(complete_K(0.5), abs=1e-12)


@pytest.mark.parametrize("name", sorted(TARGETS))
@pytest.mark.parametrize("i", range(5))
def test_even_degree_collapse(name, i):
    target = TARGETS[name]
    even = first_taylor(target, 2 * i)
    odd = first_taylor(target, 2 * i + 1)
    for x in (0.1, 0.35, 0.8):
        assert eval_approx(even, x) == eval_approx(odd, x)


@pytest.mark.parametrize("name,beta", [("K", 0.7), ("E", 1.0), ("D", 0.9), ("A", 1.0)])
@pytest.mark.parametrize("n", range(1, 8))
def test_endpoint_interpolation(name, beta, n):
    target = TARGETS[name]
    approx = second_taylor(target, n, beta)
    assert eval_approx(approx, beta) == pytest.approx(
        target_value(target, beta), abs=1e-12
    )


def test_eval_examples():
    assert eval_approx(first_taylor(SeriesTarget.K, 2), 0.0) == pytest.approx(math.pi / 2)
    assert eval_approx(second_taylor(SeriesTarget.E, 3, 1.0), 1.0) == pytest.approx(1.0, abs=1e-12)
    # area truncation of degree 2 at the parabola endpoint: 7pi/8
    assert eval_approx(first_taylor(SeriesTarget.AREA, 2), 1.0) == pytest.approx(
        7 * math.pi / 8
    )


def test_approximations_are_immutable_and_round_trip():
    # the dense coefficients are summed from the terms on each call, so an
    # approximant is its four fields and compares by value
    approx = second_taylor(SeriesTarget.D, 5, 0.9)
    for name in ("terms", "degree", "other"):
        with pytest.raises(AttributeError):
            setattr(approx, name, None)
    assert approx == second_taylor(SeriesTarget.D, 5, 0.9)
    assert approx != second_taylor(SeriesTarget.D, 5, 0.8)
    for clone in (copy.copy(approx), copy.deepcopy(approx), pickle.loads(pickle.dumps(approx))):
        assert clone == approx and type(clone) is type(approx)
        assert clone.coefficients() == approx.coefficients()
        assert eval_approx(clone, 0.5) == eval_approx(approx, 0.5)


def test_kind_is_whether_beta_is_set():
    assert first_taylor(SeriesTarget.E, 4).beta is None
    assert second_taylor(SeriesTarget.E, 4, 0.5).beta == 0.5
    assert not hasattr(first_taylor(SeriesTarget.K, 2), "kind")
    # the second kind is valid up to its beta, the first up to the radius
    eval_approx(first_taylor(SeriesTarget.E, 4), 0.75)
    with pytest.raises(DomainError):
        eval_approx(second_taylor(SeriesTarget.E, 4, 0.5), 0.75)


def test_degree_zero_second_kind_is_the_endpoint_value():
    # T_{-1} has no terms, so the correction at power 0 is f(beta) itself
    assert second_taylor(SeriesTarget.E, 0, 1.0).terms == (PolyTerm(0, const_coeff=F(1)),)
    assert second_taylor(SeriesTarget.AREA, 0, 1.0).terms == (PolyTerm(0, const_coeff=F(8, 3)),)
    for beta in (0.3, 0.9, 1.0):
        approx = second_taylor(SeriesTarget.K, 0, beta)
        assert approx.terms == (PolyTerm(0, float_coeff=complete_K(approx.beta)),)
        assert approx.coefficients() == [complete_K(approx.beta)]


def test_beta_one_redirected_for_divergent_targets():
    approx = second_taylor(SeriesTarget.K, 2, 1.0)
    assert approx.beta == pytest.approx(0.999999)
    with pytest.raises(DomainError):
        second_taylor(SeriesTarget.K, 2, 1.2)
    with pytest.raises(DomainError):
        second_taylor(SeriesTarget.E, 2, 1.0001)


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_approx(first_taylor(SeriesTarget.K, 4), 1.0)  # K has no endpoint value
    with pytest.raises(DomainError):
        eval_approx(second_taylor(SeriesTarget.E, 3, 0.5), 0.6)
    # allowed: first-kind area polynomial at the closed endpoint
    eval_approx(first_taylor(SeriesTarget.AREA, 4), 1.0)


def test_negative_degree_is_an_error():
    for target in SeriesTarget:
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            first_taylor(target, -1)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            second_taylor(target, -1, 0.5)
        with pytest.raises(ValueError, match="max_degree must be nonnegative"):
            verify_chain(target, -1, 0.5, [0.25])


@pytest.mark.parametrize("x", [0.0, -0.25, 0.95, math.nan])
def test_chain_grid_point_outside_zero_to_beta_is_an_error(x):
    with pytest.raises(DomainError, match="outside"):
        verify_chain(SeriesTarget.E, 4, 0.9, [0.25, x])


GRID_09 = [i / 10.0 for i in range(1, 10)]


@pytest.mark.parametrize(
    "name,beta,grid",
    [
        ("E", 1.0, GRID_09),
        ("A", 1.0, [0.25, 0.5, 0.75]),
        ("K", 0.9, [i / 10.0 for i in range(1, 9)]),
        ("D", 0.9, [i / 10.0 for i in range(1, 9)]),
    ],
)
def test_chains_hold(name, beta, grid):
    report = verify_chain(TARGETS[name], 10, beta, grid)
    assert report.ok, report.violations


def test_chain_report_is_a_record(monkeypatch):
    report = verify_chain(SeriesTarget.K, 4, 0.9, [0.2, 0.4])
    assert isinstance(report, ChainReport) and isinstance(report, tuple)
    assert (report.ok, report.violations, report.grid) == (True, (), (0.2, 0.4))
    with pytest.raises(AttributeError):
        report.ok = False
    # a slack below zero fails every comparison: ok follows the violations
    monkeypatch.setattr(taylor, "_CHAIN_SLACK", -1.0)
    report = verify_chain(SeriesTarget.K, 4, 0.9, [0.2, 0.4])
    assert report.ok is False
    assert report.violations and {v.x for v in report.violations} == {0.2, 0.4}


def test_chain_margins_shrink_with_degree():
    report = verify_chain(SeriesTarget.E, 10, 1.0, GRID_09)
    for x in GRID_09:
        for margins in (report.first_margins[x], report.second_margins[x]):
            for lo, hi in zip(margins[1:], margins):
                assert lo <= hi + 1e-14


def test_chain_area_constant_second_is_endpoint_value():
    # the degree-0 endpoint-corrected approximant is the constant A(beta)
    a0 = second_taylor(SeriesTarget.AREA, 0, 1.0)
    assert eval_approx(a0, 0.5) == pytest.approx(8.0 / 3.0)


@pytest.mark.parametrize("target", list(SeriesTarget))
@pytest.mark.parametrize("beta", [1.0, 0.9, 0.5])
def test_one_pass_corrections_equal_the_per_degree_ones(target, beta):
    corrections = second_corrections(target, 40, beta)
    assert len(corrections) == 41
    for j, corr in enumerate(corrections):
        reference = second_taylor(target, j, beta).terms[-1]
        assert corr == reference, (j, corr, reference)
        # repr tells -0.0 from 0.0, and None (an exact term) from both
        assert repr(corr.float_coeff) == repr(reference.float_coeff)


def test_a_float_correction_that_cancels_to_zero_is_not_exact():
    # from some degree on f(beta) - T_{j-1}(beta) cancels to 0.0; the term
    # is still a float correction, not the exact zero of the beta = 1 path
    cancelled = second_corrections(SeriesTarget.K, 60, 0.5)[55]
    assert cancelled == PolyTerm(55, float_coeff=0.0)
    assert not cancelled.is_exact()
    assert cancelled.value() == 0.0
    K, E, D, A = SeriesTarget
    for target, beta in ((K, 0.5), (E, 0.5), (E, 0.7), (A, 0.5)):
        corrections = second_corrections(target, 200, beta)
        assert any(c.float_coeff == 0.0 for c in corrections), (target, beta)
        assert not any(c.is_exact() for c in corrections), (target, beta)


def test_chain_margins_equal_the_per_degree_evaluations():
    grid = [0.1 * i for i in range(1, 10)] + [0.95]
    K, E, D, A = SeriesTarget
    for target, beta in ((K, 0.95), (D, 0.95), (E, 1.0), (A, 1.0), (A, 0.95), (E, 0.97)):
        report = verify_chain(target, 12, beta, grid)
        for x in grid:
            f = target_value(target, x)
            first = [abs(eval_approx(first_taylor(target, j), x) - f) for j in range(13)]
            second = [abs(eval_approx(second_taylor(target, j, beta), x) - f) for j in range(13)]
            assert report.first_margins[x] == first
            assert report.second_margins[x] == second


def test_underflowing_beta_power_is_a_domain_error():
    from hugelschaffer.area import area_taylor
    from hugelschaffer.curve import CurveParams

    # 0.5**1100 underflows to 0, so the correction cannot be scaled
    with pytest.raises(DomainError, match=r"degree 1100 at beta=0\.5"):
        second_taylor(SeriesTarget.K, 1100, 0.5)
    with pytest.raises(DomainError, match=r"degree 1100 at beta=0\.5"):
        area_taylor(CurveParams(1, 1, 0.25), 1100, 0.5)
    with pytest.raises(DomainError, match="underflows"):
        second_corrections(SeriesTarget.E, 3, 1e-320)
    # a subnormal power is still a number
    assert math.isfinite(second_taylor(SeriesTarget.K, 1070, 0.5).terms[-1].float_coeff)


def test_second_kind_rejects_nan():
    # NaN fails every comparison, so a check written as "abs(x) > beta"
    # lets it through; the first kind and series_eval already raise
    for target in SeriesTarget:
        approx = second_taylor(target, 3, 0.5)
        with pytest.raises(DomainError):
            eval_approx(approx, math.nan)
        assert math.isfinite(eval_approx(approx, -0.5))
