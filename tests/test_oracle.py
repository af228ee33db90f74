"""Tests for the quadrature oracle itself."""

import itertools
import math
import random

import pytest

from hugelschaffer.curve import CurveParams
from hugelschaffer.elliptic import DomainError
from hugelschaffer.oracle import (
    DEFAULT_SPEC,
    DepthExhausted,
    QuadratureSpec,
    Rule,
    _NODES,
    _WEIGHTS,
    quad,
    quad_area,
    quad_elliptic,
)
from moduli import BULK_K


def test_constant_integrand():
    assert quad(lambda t: 1.0, 0.0, math.pi / 2) == pytest.approx(
        math.pi / 2, abs=1e-12
    )


def test_I1_and_J1():
    f = lambda t: math.sin(t) ** 2 * math.cos(t)
    assert quad(f, 0.0, math.pi / 2) == pytest.approx(1 / 3, abs=1e-11)
    assert quad(f, math.pi / 2, math.pi) == pytest.approx(-1 / 3, abs=1e-11)


def test_gauss_rule_agrees_with_simpson():
    spec = QuadratureSpec(rule=Rule.GAUSS_LEGENDRE)
    f = lambda t: math.exp(-t) * math.sin(3 * t)
    assert quad(f, 0.0, 2.0, spec) == pytest.approx(quad(f, 0.0, 2.0), abs=1e-10)


def test_determinism():
    f = lambda t: math.sin(t) ** 2 * math.sqrt(1.0 - 0.25 * math.sin(t) ** 2)
    assert quad(f, 0.0, math.pi) == quad(f, 0.0, math.pi)


def test_depth_exhaustion():
    # the peak is 1e-14 wide, narrower than 40 bisections of [-1, 1] reach
    with pytest.raises(DepthExhausted) as info:
        quad(lambda t: 1.0 / math.sqrt(abs(t) + 1e-14), -1.0, 1.0)
    assert math.isfinite(info.value.best)
    # 1/t is not integrable on [0, 1]: each halving toward 0 adds log 2
    with pytest.raises(DepthExhausted) as info:
        quad(lambda t: 1.0 / t, 0.0, 1.0, QuadratureSpec(rule=Rule.GAUSS_LEGENDRE))
    assert math.isfinite(info.value.best)
    assert info.value.err_bound == pytest.approx(math.log(2.0), rel=1e-9)


def test_empty_interval_is_zero_without_evaluating():
    def f(t):
        raise AssertionError(f"integrand evaluated at {t!r}")

    for rule in Rule:
        assert quad(f, 0.75, 0.75, QuadratureSpec(rule=rule)) == 0.0


def test_quad_elliptic_values():
    # E at modulus 1 is the integral of |cos|, i.e. exactly 1
    assert quad_elliptic("E", 1.0) == pytest.approx(1.0, abs=1e-11)
    assert quad_elliptic("K", 0.0) == pytest.approx(math.pi / 2, abs=1e-12)
    with pytest.raises(ValueError):
        quad_elliptic("K", 1.0)
    with pytest.raises(ValueError):
        quad_elliptic("F", 0.5)


@pytest.mark.parametrize("kind,k", [("K", 1.0), ("K", -0.5), ("E", 1.5), ("E", math.nan)])
def test_quad_elliptic_modulus_outside_its_domain_is_a_domain_error(kind, k):
    with pytest.raises(DomainError, match="outside the domain"):
        quad_elliptic(kind, k)


def test_quad_elliptic_matches_agm():
    from hugelschaffer.elliptic import complete_E, complete_K

    assert abs(quad_elliptic("K", 0.5) - complete_K(0.5)) < 1e-11
    assert abs(quad_elliptic("E", 0.5) - complete_E(0.5)) < 1e-11


def test_quad_area_degenerate_case():
    # a = b = w gives the parabola-plus-line region of area 8abq/3 = 32/3
    result = quad_area(CurveParams(2, 2, 2))
    assert result.total == pytest.approx(32 / 3, abs=1e-6)


def test_quad_area_halves_difference():
    result = quad_area(CurveParams(4, 3, 2))
    assert result.part2 - result.part1 == pytest.approx(16.0, rel=1e-9)


def test_quad_area_matches_closed_form():
    from hugelschaffer.area import area_exact

    # unit-scale bulk eggs, half with w < a and half with w > a; large
    # eggs, once DepthExhausted under an absolute tolerance; and eggs where
    # Gauss once accepted the unsplit root, 8e-10 and 8e-12 off
    rng = random.Random(11)
    eggs = [
        *(CurveParams(4, 3, 2), CurveParams(2, 3, 4)),
        *(CurveParams(1e3, 1e3, 1), CurveParams(3e3, 1e3, 10)),
        CurveParams(2.3182702719907264, 3.239388675936377, 2.5463580324056645),
        CurveParams(1.423289193586743, 3.266841057386919, 1.8673841822535608),
    ]
    for k in BULK_K[:50]:
        a, b = rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0)
        eggs.append(CurveParams(a, b, k * a if rng.random() < 0.5 else a / k))
    for spec in (DEFAULT_SPEC, QuadratureSpec(rule=Rule.GAUSS_LEGENDRE)):
        for params in eggs:
            exact = area_exact(params).total
            err = abs(quad_area(params, spec).total - exact) / exact
            assert err < 1e-13, (spec.rule, params, err)


def test_quad_area_has_the_domain_of_area_exact():
    # where a*b*q lies outside the normal floats, as for (1e300, 1e300, 1)
    # (inf), (1e-200, 1e-200, 1e-200) (0.0) or (1e-160, 1e-160, 1e-160) (a
    # subnormal), both raise; elsewhere they agree
    from hugelschaffer.area import area_exact

    extremes = (1e-300, 1e-200, 1e-160, 1e-5, 1.0, 1e5, 1e150, 1e300)
    returned = 0
    for a, b, w in itertools.product(extremes, repeat=3):
        params = CurveParams(a, b, w)
        try:
            exact = area_exact(params).total
        except DomainError:
            with pytest.raises(DomainError, match="outside the normal floats"):
                quad_area(params)
            continue
        returned += 1
        assert abs(quad_area(params).total - exact) <= 1e-13 * exact, (a, b, w)
    assert returned == 330


def test_simpson_evaluates_each_abscissa_once():
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 / math.sqrt(1.0 - 0.81 * math.sin(t) ** 2)

    quad(f, 0.0, math.pi / 2)
    assert len(calls) > 100  # the recursion went deep
    assert len(calls) == len(set(calls))


def _mpmath_ellip(kind, k):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ellip = mpmath.ellipk if kind == "K" else mpmath.ellipe
        return float(ellip(mpmath.mpf(k) ** 2))


# Moduli where Simpson's S/15 estimate once met the tolerance by a
# coincidence of its sample points, 1e-9 to 8e-6 away from the integral.
@pytest.mark.parametrize(
    "kind, k",
    [
        ("E", 0.8142303228192636),
        ("K", 0.7414000877013012),
        ("E", 0.8670390240252784),
        ("K", 0.3766853873533353),
    ],
)
@pytest.mark.parametrize("rule", list(Rule))
def test_quad_elliptic_no_false_convergence(kind, k, rule):
    ref = _mpmath_ellip(kind, k)
    value = quad_elliptic(kind, k, QuadratureSpec(rule=rule))
    assert abs(value - ref) / ref < 1e-13


# Near one, 1 - k^2 sin^2 t once cancelled and raised DepthExhausted.
@pytest.mark.parametrize("kind", ["K", "E"])
@pytest.mark.parametrize("k", [1.0 - 1e-10, 1.0 - 1e-14])
@pytest.mark.parametrize("rule", list(Rule))
def test_quad_elliptic_near_one(kind, k, rule):
    value = quad_elliptic(kind, k, QuadratureSpec(rule=rule))
    assert abs(value / _mpmath_ellip(kind, k) - 1.0) < 1e-11


def test_gauss_nodes_are_the_newton_values_bit_for_bit():
    # what Newton's method gave when the nodes were computed per order on
    # demand; computing them once at import must not move a bit
    nodes = ("0x1.ebab1cb0acc67p-1", "0x1.97e4ab249f41fp-1",
             "0x1.0d129583284b4p-1", "0x1.77ac94f3c7344p-3")
    weights = ("0x1.9ea1d04ca036ep-4", "0x1.c76fb531d2b95p-3",
               "0x1.413c50a255617p-2", "0x1.736360b199343p-2")
    assert [x.hex() for x in _NODES] == ["-" + h for h in nodes] + list(reversed(nodes))
    assert [w.hex() for w in _WEIGHTS] == list(weights) + list(reversed(weights))


def test_gauss_nodes_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    order = 8
    assert len(_NODES) == len(_WEIGHTS) == order
    with mpmath.workdps(40):
        roots = []
        for x, w in zip(_NODES, _WEIGHTS):
            # 40-digit Newton refinement of the root of P_8 nearest x
            root = mpmath.mpf(x)
            for _ in range(3):
                p = mpmath.legendre(order, root)
                p_prev = mpmath.legendre(order - 1, root)
                root -= p * (root**2 - 1) / (order * (root * p - p_prev))
            assert abs(mpmath.legendre(order, root)) < mpmath.mpf(10) ** -35, x
            ref_w = 2 * (1 - root**2) / (order * mpmath.legendre(order - 1, root)) ** 2
            assert abs(x - root) <= 2e-16, x
            assert abs((w - ref_w) / ref_w) <= 2e-15, x
            roots.append(root)
        # distinct ascending roots: every root of P_8 is matched once
        assert all(a < b for a, b in zip(roots, roots[1:]))
