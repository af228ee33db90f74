"""Hügelschäffer curve model: parameters, derived shape quantities,
implicit cubics, and the egg-part parametrization.

The curve 2wxy^2 + b^2 x^2 + (a^2 + w^2) y^2 - a^2 b^2 = 0 splits into an
egg-shaped oval over [-a, a] and a hyperbolic part left of the asymptote
abscissa gamma.  A unification parameter q (1 when w < a, a/w when w > a)
collapses the two construction regimes into a single equation, and the
modulus k = q^2 w / a is the one shape parameter the area depends on.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from collections.abc import Iterable
    from fractions import Fraction

__all__ = [
    "CurveParams",
    "DerivedShape",
    "PlanePoint",
    "derive",
    "implicit_F",
    "implicit_Fq",
    "point_at",
    "sample_grid",
    "sample_egg",
    "construction_circles",
    "q_unification_residual",
]


class PlanePoint(NamedTuple):
    x: float
    y: float


class CurveParams:
    """The three positive Hügelschäffer parameters.

    a, b are the semi-axes along x and y; w is the distance between the
    two construction-circle centers.  Instances are immutable and compare
    and hash by value, but never equal a plain tuple.
    """

    __slots__ = ("a", "b", "w")
    __match_args__ = ("a", "b", "w")

    a: float
    b: float
    w: float

    def __init__(self, a: float, b: float, w: float) -> None:
        # for a float, 0 < v <= max is v > 0 and finite; anything the range
        # test turns away, an int past the largest float included, gets the
        # full test
        if not (0.0 < a <= _MAX and 0.0 < b <= _MAX and 0.0 < w <= _MAX):
            _check_positive(a, b, w)
        _set_a(self, a)
        _set_b(self, b)
        _set_w(self, w)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # slot state would be restored through the blocked __setattr__
        return (CurveParams, (self.a, self.b, self.w))

    def __repr__(self) -> str:
        return f"CurveParams(a={self.a!r}, b={self.b!r}, w={self.w!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.w) == (other.a, other.b, other.w)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.w))


_MAX = sys.float_info.max

# Every area and bound of an egg is at most pi*a*b*q, so for a scale a*b*q
# in this range each is a normal float; area and oracle raise outside it.
_MIN_SCALE = sys.float_info.min
_MAX_SCALE = _MAX / 4

# the slot setters, which the blocked __setattr__ does not reach
_set_a = CurveParams.a.__set__
_set_b = CurveParams.b.__set__
_set_w = CurveParams.w.__set__


def _check_positive(a: float, b: float, w: float) -> None:
    """Raise ``ValueError`` naming the first of a, b, w that is not a
    positive finite number."""
    for name, v in (("a", a), ("b", b), ("w", w)):
        if -math.inf < v <= 0:
            raise ValueError(f"parameter {name} must be positive, got {v!r}")
        if not (v > 0 and math.isfinite(v)):  # nan or an infinity
            raise ValueError(f"parameter {name} must be finite, got {v!r}")


class DerivedShape(NamedTuple):
    q: float
    k: float
    u: float  # extremum abscissa, -q^2 w
    gamma: float  # hyperbolic-branch asymptote abscissa


def _q_and_k(a: float, w: float) -> tuple[float, float]:
    """The unification parameter q and the modulus k = q^2 w / a."""
    q = a / w if w > a else 1.0
    return q, q * q * w / a


def derive(params: CurveParams) -> DerivedShape:
    """Derive q, k, the extremum abscissa and gamma from the parameters."""
    a, w = params.a, params.w
    q, k = _q_and_k(a, w)
    u = -(q * q) * w
    gamma = -0.5 * (a * (a / w) + w)  # -(a^2 + w^2) / (2w), free of a^2 or w^2 overflow
    return DerivedShape(q, k, u, gamma)


def implicit_F(params: CurveParams, p: PlanePoint) -> float:
    """Left side of 2wxy^2 + b^2 x^2 + (a^2 + w^2) y^2 - a^2 b^2 at p."""
    a, b, w = params.a, params.b, params.w
    x, y = p
    return 2 * w * x * y * y + b * b * x * x + (a * a + w * w) * y * y - a * a * b * b


def implicit_Fq(params: CurveParams, p: PlanePoint) -> float:
    """Left side of the q-unified cubic at p.

    With q from ``derive`` this vanishes exactly where ``implicit_F``
    does; the two cubics differ only by the factor q^2.
    """
    a, b, w = params.a, params.b, params.w
    q = derive(params).q
    q2 = q * q
    x, y = p
    return (
        2 * q2 * w * x * y * y
        + q2 * b * b * x * x
        + (a * a + q2 * q2 * w * w) * y * y
        - a * a * b * b * q2
    )


def q_unification_residual(a: Fraction, b: Fraction, w: Fraction) -> Fraction:
    """(q^2 - 1)(q^2 w^2 - a^2) in exact rational arithmetic.

    Zero iff the q-unified cubic is proportional to the original one,
    which holds for q chosen per the unification rule.
    """
    from fractions import Fraction

    del b  # the residual does not involve b
    q = Fraction(1) if w < a else Fraction(a, w)
    q2 = q * q
    return (q2 - 1) * (q2 * w * w - a * a)


def point_at(params: CurveParams, t: float) -> PlanePoint:
    """Egg-part point at parameter t in [0, 2*pi].

    x(t) = -q^2 w sin^2 t + cos t * sqrt(a^2 - q^4 w^2 sin^2 t),
    y(t) = q b sin t.  The radicand is nonnegative for k <= 1.
    """
    xs, ys = _columns(params, (t,))
    return PlanePoint(xs[0], ys[0])


def _columns(params: CurveParams, ts: Iterable[float]) -> tuple[list[float], list[float]]:
    """The x and the y of the egg point at each t of ``ts``, in one loop.

    The radicand is formed from a and q^2 w scaled by ``unit``, the power
    of two with a/unit in [1, 2), so a^2 cannot overflow or underflow;
    since q^2 w <= a, the scaled q^2 w is below 2.  Scaling by a power of
    two rounds the same way, and the root of the scaled radicand times
    ``unit`` is the unscaled root, exactly.
    """
    a = params.a
    shape = derive(params)
    q2w = -shape.u
    qb = shape.q * params.b
    e = math.frexp(a)[1] - 1
    unit = math.ldexp(1.0, e)
    a_s, q2w_s = math.ldexp(a, -e), math.ldexp(q2w, -e)
    a2, p2, neg_q2w = a_s * a_s, q2w_s * q2w_s, -q2w
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    xs: list[float] = []
    ys: list[float] = []
    x_append, y_append = xs.append, ys.append
    for t in ts:
        s = sin(t)
        radicand = a2 - p2 * s * s
        # max(radicand, 0.0) without the call; it keeps a -0.0 radicand too
        root = sqrt(0.0 if 0.0 > radicand else radicand)
        x_append(neg_q2w * s * s + cos(t) * (root * unit))
        y_append(qb * s)
    return xs, ys


_TWO_PI = 2.0 * math.pi


def sample_grid(n: int) -> list[float]:
    """The n parameters t_j = 2*pi*j/(n - 1), j = 0..n-1, of a closed sample."""
    if n < 2:
        raise ValueError("need at least 2 sample points")
    two_pi, d = _TWO_PI, n - 1
    return [two_pi * j / d for j in range(n)]


def sample_egg(
    params: CurveParams, n: int
) -> tuple[list[float], list[float], list[float]]:
    """The grid ``ts = sample_grid(n)`` and the columns ``xs, ys`` of the
    egg point at each of its t.

    The last point repeats the first, closing the egg exactly at (a, 0).
    """
    ts = sample_grid(n)
    xs, ys = _columns(params, ts[:-1])
    xs.append(xs[0])  # exact closure at t = 2*pi
    ys.append(ys[0])
    return ts, xs, ys


def construction_circles(
    params: CurveParams, ts: list[float]
) -> tuple[list[PlanePoint], list[PlanePoint]]:
    """Samples of the two construction circles at each t of ``ts``.

    K1 is centered at the origin with radius a; K2 at (u, 0) = (-q^2 w, 0)
    with radius q*b.
    """
    a = params.a
    shape = derive(params)
    r2 = shape.q * params.b
    k1 = [PlanePoint(a * math.cos(t), a * math.sin(t)) for t in ts]
    k2 = [PlanePoint(shape.u + r2 * math.cos(t), r2 * math.sin(t)) for t in ts]
    return k1, k2
