"""Tests for the curve model, derived quantities, and the parametrization."""

import copy
import math
import pickle
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hugelschaffer.curve import (
    CurveParams,
    PlanePoint,
    construction_circles,
    derive,
    implicit_F,
    implicit_Fq,
    point_at,
    q_unification_residual,
    sample_egg,
    sample_grid,
)


def test_params_validation():
    with pytest.raises(ValueError):
        CurveParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        CurveParams(1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        CurveParams(1.0, 1.0, math.inf)


def _positive_finite_reference(a, b, w):
    """The parameter check as a per-name loop, to hold the range test to."""
    for name, v in (("a", a), ("b", b), ("w", w)):
        if not (v > 0 and math.isfinite(v)):
            # nan, an infinity or a value past the float range is not finite
            must = "positive" if -math.inf < v <= 0 else "finite"
            raise ValueError(f"parameter {name} must be {must}, got {v!r}")


def _outcome(f, *args):
    try:
        f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_params_contract():
    p = CurveParams(4.0, 3.0, 2.0)
    assert (p.a, p.b, p.w) == (4.0, 3.0, 2.0)
    for name in ("a", "b", "w"):
        for bad in (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf):
            args = {"a": 4.0, "b": 3.0, "w": 2.0, name: bad}
            must = "positive" if math.isfinite(bad) else "finite"
            message = f"parameter {name} must be {must}, got {bad!r}"
            with pytest.raises(ValueError) as info:
                CurveParams(**args)
            assert str(info.value) == message
    # the first bad name is the one reported
    with pytest.raises(ValueError, match="^parameter b must be positive"):
        CurveParams(4.0, -3.0, math.nan)
    # ints and fractions are kept as given
    for args in ((4, 3, 2), (Fraction(4), Fraction(3, 2), Fraction(1, 3)), (1, 2.5, Fraction(7, 2))):
        kept = CurveParams(*args)
        assert (kept.a, kept.b, kept.w) == args
        assert [type(v) for v in (kept.a, kept.b, kept.w)] == [type(v) for v in args]
    # accepted and rejected exactly as the per-name loop does, at the ends
    # of the float range and past it: an int that rounds to the largest
    # float is accepted, one past it overflows
    largest = int(sys.float_info.max)
    values = (
        5e-324, sys.float_info.max, 1.0, 0.0, -0.0, math.nan, math.inf,
        1, 0, -1, True, False, largest, largest + 2**969, 2**1024, 10**400,
        Fraction(1, 3), Fraction(0), Fraction(-1, 2), Fraction(largest), Fraction(10**400),
        Decimal("1e400"), Decimal("Infinity"), Decimal("1e-400"),
    )
    for name in ("a", "b", "w"):
        for v in values:
            args = {"a": 4.0, "b": 3.0, "w": 2.0, name: v}
            want = _outcome(_positive_finite_reference, *args.values())
            assert _outcome(CurveParams, *args.values()) == want, (name, v)
        for v in ("4", None, 4j):  # not ordered against a number
            args = {"a": 4.0, "b": 3.0, "w": 2.0, name: v}
            with pytest.raises(TypeError):
                CurveParams(**args)
    # value equality and hash, but never equal to a tuple
    assert p == CurveParams(a=4.0, b=3.0, w=2.0)
    assert hash(p) == hash(CurveParams(4, 3, 2))
    assert p != CurveParams(4.0, 3.0, 2.5)
    assert p != (4.0, 3.0, 2.0)
    assert len({p, CurveParams(4.0, 3.0, 2.0)}) == 1
    assert repr(p) == "CurveParams(a=4.0, b=3.0, w=2.0)"
    for name in ("a", "b", "w", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1.0)
    with pytest.raises(AttributeError):
        del p.a
    assert p.a == 4.0
    for clone in (
        copy.copy(p),
        copy.deepcopy(p),
        *(pickle.loads(pickle.dumps(p, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert clone == p and type(clone) is CurveParams
        assert repr(clone) == repr(p)


def test_derive_w_less_a():
    shape = derive(CurveParams(3, 2, 2))
    assert shape.q == 1.0
    assert shape.k == pytest.approx(2 / 3)
    assert shape.u == -2.0
    assert shape.gamma == pytest.approx(-13 / 4)


def test_derive_w_greater_a():
    shape = derive(CurveParams(2, 2, 4))
    assert shape.q == 0.5
    assert shape.k == pytest.approx(0.5)
    assert shape.u == -1.0
    assert shape.gamma == pytest.approx(-5 / 2)


def test_derive_degenerate():
    shape = derive(CurveParams(2, 1, 2))
    assert shape.q == 1.0
    assert shape.k == 1.0


def test_implicit_F_vertices():
    p = CurveParams(3, 2, 2)
    assert implicit_F(p, PlanePoint(3, 0)) == 0.0
    assert implicit_F(p, PlanePoint(-3, 0)) == 0.0
    assert implicit_F(p, PlanePoint(0, 0)) == -36.0


def test_implicit_Fq_reduces_to_F_for_q_one():
    p = CurveParams(3, 2, 2)  # w < a, so q = 1
    assert implicit_Fq(p, PlanePoint(3, 0)) == pytest.approx(0.0, abs=1e-12)
    for point in (PlanePoint(1.3, -0.7), PlanePoint(-2.0, 1.1)):
        assert implicit_Fq(p, point) == pytest.approx(implicit_F(p, point))


def test_Fq_vanishes_on_roots_of_F():
    # solve the original cubic for y^2 at chosen x and substitute into
    # the unified one; w > a regime so the two cubics genuinely differ
    p = CurveParams(2, 2, 4)
    for x in (-1.5, -0.5, 0.0, 0.7, 1.9):
        y2 = (p.a**2 * p.b**2 - p.b**2 * x * x) / (2 * p.w * x + p.a**2 + p.w**2)
        y = math.sqrt(y2)
        assert abs(implicit_F(p, PlanePoint(x, y))) < 1e-10
        assert abs(implicit_Fq(p, PlanePoint(x, y))) < 1e-10


def test_q_unification_residual_exact():
    assert q_unification_residual(Fraction(3), Fraction(2), Fraction(2)) == 0
    assert q_unification_residual(Fraction(2), Fraction(2), Fraction(4)) == 0
    assert q_unification_residual(Fraction(5, 2), Fraction(1), Fraction(7, 3)) == 0


def test_point_at_anchor_points():
    p = CurveParams(2, 2, 4)
    q2w = 0.25 * 4
    assert point_at(p, 0.0) == pytest.approx((2.0, 0.0))
    assert point_at(p, math.pi / 2) == pytest.approx((-q2w, 0.5 * 2))
    assert point_at(p, math.pi) == pytest.approx((-2.0, 0.0), abs=1e-14)


def test_sample_egg_closure_and_quarter_points():
    p = CurveParams(3, 2, 2)
    _, xs, ys = sample_egg(p, 2)
    assert (xs[0], ys[0]) == (xs[1], ys[1]) == (3.0, 0.0)
    _, xs, ys = sample_egg(p, 5)
    assert (xs[1], ys[1]) == pytest.approx((-2.0, 2.0), abs=1e-14)  # t = pi/2
    assert (xs[3], ys[3]) == pytest.approx((-2.0, -2.0), abs=1e-14)  # t = 3pi/2
    # every point but the closing one is the point at its own t
    ts, xs, ys = sample_egg(p, 9)
    assert ts == sample_grid(9)
    assert list(zip(xs, ys))[:-1] == [point_at(p, t) for t in ts[:-1]]
    for n in (1, 0, -3):
        with pytest.raises(ValueError):
            sample_egg(p, n)


def test_samples_satisfy_implicit_equation():
    for params in (CurveParams(3, 2, 2), CurveParams(2, 2, 4), CurveParams(2, 1, 2)):
        q = derive(params).q
        scale = params.a**2 * params.b**2 * q * q
        for x, y in zip(*sample_egg(params, 101)[1:]):
            assert abs(implicit_Fq(params, PlanePoint(x, y))) <= 1e-9 * scale


def test_sample_egg_columns_match_point_at_bit_for_bit():
    for params in (CurveParams(4, 3, 2), CurveParams(1e150, 1e150, 5e149), CurveParams(2, 2, 2)):
        ts, xs, ys = sample_egg(params, 1000)
        assert len(xs) == len(ys) == len(ts)
        for t, x, y in zip(ts[:-1], xs, ys):
            px, py = point_at(params, t)
            assert (x.hex(), y.hex()) == (px.hex(), py.hex()), t
        assert (xs[-1], ys[-1]) == (xs[0], ys[0]) == (params.a, 0.0)


def test_sample_grid_ends_within_one_ulp_of_two_pi():
    two_pi = 2.0 * math.pi
    ends = {sample_grid(n)[-1] for n in range(2, 2000)}
    assert two_pi in ends and math.nextafter(two_pi, 0.0) in ends  # n = 12 is one below
    assert all(abs(end - two_pi) <= math.ulp(two_pi) for end in ends)


def test_sample_grid():
    assert sample_grid(2) == [0.0, 2.0 * math.pi]
    assert sample_grid(5) == [0.0, math.pi / 2, math.pi, 1.5 * math.pi, 2.0 * math.pi]
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            sample_grid(n)


def test_construction_circles():
    p = CurveParams(3, 2, 2)
    k1, k2 = construction_circles(p, sample_grid(5))
    assert k1[0] == pytest.approx((3.0, 0.0))
    assert k2[1] == pytest.approx((-2.0, 2.0), abs=1e-14)  # t = pi/2
    assert k2[0] == pytest.approx((0.0, 0.0))  # -q^2 w + q b = -2 + 2
    # K2 is centred on the extremum abscissa u of ``derive``
    for params in (CurveParams(2, 3, 4), CurveParams(1.5, 1, 1.2)):
        shape = derive(params)
        _, k2 = construction_circles(params, sample_grid(5))
        assert k2[0] == (shape.u + shape.q * params.b, 0.0)


params_st = st.builds(
    CurveParams,
    a=st.floats(0.2, 5.0),
    b=st.floats(0.2, 5.0),
    w=st.floats(0.2, 8.0),
)


@given(params=params_st, t=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=300, deadline=None)
def test_on_curve_property(params, t):
    q = derive(params).q
    residual = implicit_Fq(params, point_at(params, t))
    assert abs(residual) <= 1e-9 * params.a**2 * params.b**2 * q * q


@given(params=params_st, t=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=200, deadline=None)
def test_symmetry_and_range(params, t):
    p1 = point_at(params, t)
    p2 = point_at(params, 2.0 * math.pi - t)
    assert p1.x == pytest.approx(p2.x, abs=1e-12)
    assert p1.y == pytest.approx(-p2.y, abs=1e-12)
    assert -params.a - 1e-12 <= p1.x <= params.a + 1e-12


def test_extremum_at_half_pi():
    params = CurveParams(2, 2, 4)
    shape = derive(params)
    top = point_at(params, math.pi / 2)
    assert top.x == pytest.approx(shape.u, abs=1e-14)
    ymax = max(abs(point_at(params, t).y) for t in [i * 0.01 for i in range(629)])
    assert ymax <= abs(top.y) + 1e-12
