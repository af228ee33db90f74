"""Egg areas: exact closed form, series, Taylor approximants, and bounds.

The exact area of the egg part is
    (4/3) a b q [ (1 - 1/k^2) K(k) + (1 + 1/k^2) E(k) ]
      = (4/3) a b q [ K(k) + E(k) - D(k) ],
with subareas split at the extremum abscissa.  The second form, computed
by ``elliptic.scale_free_area`` from the AGM closed forms (no series), has
no 1/k^2 cancellation and holds its accuracy over the whole modulus range
0 <= k <= 1.  A power series in the modulus gives an independent route
(and, evaluated at k = 1, a series representation of 1/pi).
Taylor approximants of the series bound the area from both sides.
``bounds`` packages the low-degree ones into a certificate, written out
as explicit polynomials in k rather than built from Taylor objects.

Every area here is a*b*q times a function of k alone, at most pi*a*b*q.
The scale a*b*q is computed and checked in one place: outside the normal
floats it would turn the area into inf, 0 or a subnormal, so
``DomainError`` is raised instead.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple, Optional

from .curve import _MAX_SCALE, _MIN_SCALE, CurveParams, _q_and_k
from .elliptic import (
    DomainError,
    SeriesTarget,
    complete_D,
    complete_E,
    complete_K,
    scale_free_area,
    series_eval,
    series_partial,
)

__all__ = [
    "AreaBreakdown",
    "BoundsCertificate",
    "integral_I",
    "check_J_relations",
    "area_exact",
    "area_series",
    "area_series_partial",
    "area_taylor",
    "bounds",
    "inv_pi_partial",
]


class AreaBreakdown(NamedTuple):
    total: float
    part1: float  # subarea left of the extremum abscissa
    part2: float  # subarea right of it
    part_diff: float  # part2 - part1 = (8/3) a b q k


class BoundsCertificate(NamedTuple):
    """Two-sided area bounds with their refinement margins.

    The first five fields are the chain the certificate asserts, in order:
    lower_coarse <= lower_refined <= exact_total <= upper_refined <=
    upper_coarse.  The margins follow.  ``delta`` is the lower-refinement
    margin consistent with the degree-1 endpoint-corrected approximant,
    a*b*q*(pi - 8/3)*(1 - k).  The published form a*b*q*pi*(1 - k) is
    carried as ``delta_printed`` and flagged: added to the coarse lower
    bound it overshoots the true area for small k.  ``bounds`` in the CLI
    prints the fields in this order.
    """

    lower_coarse: float
    lower_refined: float
    exact_total: float
    upper_refined: float
    upper_coarse: float
    delta: float
    delta_printed: float
    delta_printed_consistent: bool
    nabla: float
    nabla_piecewise: float


def integral_I(index: int, k: float) -> float:
    """Closed forms of the three building-block integrals over [0, pi/2].

    I1 = 1/3; I2 and I3 are the sin^2-weighted radical integrals expressed
    through K, E and D.  I2 = (E + (1 - k^2) D)/3 has no cancellation; I3
    still divides a difference of K and E by k^4.
    """
    if index == 1:
        return 1.0 / 3.0
    if index not in (2, 3):
        raise ValueError("index must be 1, 2 or 3")
    if not (0.0 < k < 1.0):
        raise DomainError(f"modulus must lie in (0, 1) for I{index}, got {k!r}")
    if index == 2:
        return (complete_E(k) + (1.0 - k) * (1.0 + k) * complete_D(k)) / 3.0
    k2 = k * k
    bigK, bigE = complete_K(k), complete_E(k)
    return (2.0 * k2 - 2.0) / (3.0 * k2 * k2) * bigK + (2.0 - k2) / (3.0 * k2 * k2) * bigE


def check_J_relations(k: float) -> dict[str, float]:
    """Quadrature check of the [pi/2, pi] counterparts of I1..I3.

    Returns the absolute deviations from J1 = -1/3, J2 = I2, J3 = I3.
    """
    from . import oracle

    if not (0.0 < k < 1.0):
        raise DomainError(f"modulus must lie in (0, 1), got {k!r}")
    k2 = k * k
    half_pi, pi = 0.5 * math.pi, math.pi
    sin, cos, sqrt = math.sin, math.cos, math.sqrt

    def j1(t: float) -> float:
        s = sin(t)
        return s * s * cos(t)

    def j2(t: float) -> float:
        s = sin(t)
        return s * s * sqrt(1.0 - k2 * (s * s))

    def j3(t: float) -> float:
        s, c = sin(t), cos(t)
        return s * s * (c * c) / sqrt(1.0 - k2 * (s * s))

    return {
        "J1": abs(oracle.quad(j1, half_pi, pi) - (-1.0 / 3.0)),
        "J2": abs(oracle.quad(j2, half_pi, pi) - integral_I(2, k)),
        "J3": abs(oracle.quad(j3, half_pi, pi) - integral_I(3, k)),
    }


def _scale_and_k(params: CurveParams) -> tuple[float, float]:
    """The scale a*b*q and the modulus k, with the scale checked."""
    a = params.a
    q, k = _q_and_k(a, params.w)
    scale = a * params.b * q
    if not (_MIN_SCALE <= scale <= _MAX_SCALE):
        raise DomainError(
            f"area scale a*b*q = {scale!r} lies outside the normal floats"
        )
    return scale, k


def _breakdown(total: float, scale: float, k: float) -> AreaBreakdown:
    """The total split into part1 and part2 by their exact difference."""
    diff = (8.0 / 3.0) * scale * k
    return AreaBreakdown(total, 0.5 * (total - diff), 0.5 * (total + diff), diff)


def area_exact(params: CurveParams) -> AreaBreakdown:
    """Exact egg area and its two subareas.

    At k = 1 the closed form degenerates to the parabola-plus-line value
    (8/3) a b q.
    """
    scale, k = _scale_and_k(params)
    return _breakdown(scale * scale_free_area(k), scale, k)


def area_series(params: CurveParams, tol: float = 1e-14) -> AreaBreakdown:
    """Area via the modulus power series, truncated at ``tol``."""
    scale, k = _scale_and_k(params)
    return _breakdown(scale * series_eval(SeriesTarget.AREA, k, tol), scale, k)


def area_series_partial(params: CurveParams, n_terms: int) -> AreaBreakdown:
    """Area series summed over a fixed number of terms (endpoint probing)."""
    scale, k = _scale_and_k(params)
    return _breakdown(scale * series_partial(SeriesTarget.AREA, k, n_terms), scale, k)


def area_taylor(
    params: CurveParams, n: int, beta: Optional[float] = None
) -> AreaBreakdown:
    """Taylor-approximant area of degree n.

    With ``beta`` None this is the first kind, an upper bound; with a
    ``beta`` it is the second kind anchored there, a lower bound.
    """
    from . import taylor

    scale, k = _scale_and_k(params)
    if beta is None:
        approx = taylor.first_taylor(SeriesTarget.AREA, n)
    else:
        approx = taylor.second_taylor(SeriesTarget.AREA, n, beta)
    return _breakdown(scale * taylor.eval_approx(approx, k), scale, k)


def bounds(params: CurveParams) -> BoundsCertificate:
    """Coarse and refined two-sided bounds with margin diagnostics.

    Coarse: (8/3) a b q <= area <= pi a b q.  Refined: the degree-1
    endpoint-corrected approximant from below and the degree-2 Maclaurin
    truncation from above, each written out as its polynomial in k.
    """
    scale, k = _scale_and_k(params)
    total = scale * scale_free_area(k)  # as in area_exact
    pi = math.pi

    # The degree-1 approximant is written as 8/3 plus a nonnegative term,
    # so rounding cannot put it below the coarse bound; 1 - k is exact
    # for k >= 1/2.
    lower_coarse = scale * (8.0 / 3.0)
    upper_coarse = pi * scale
    lower_refined = scale * (8.0 / 3.0 + (pi - 8.0 / 3.0) * (1.0 - k))
    # Horner on the degree-2 Maclaurin coefficients [pi, 0, -pi/8]
    upper_refined = scale * (pi - (pi / 8.0) * k * k)

    delta = scale * (pi - 8.0 / 3.0) * (1.0 - k)
    nabla = (pi / 8.0) * scale * k * k
    delta_printed = scale * pi * (1.0 - k)
    a, b, w = params.a, params.b, params.w
    # The paper's pi b w^2/(8a) and pi a^4 b/(8w^3), evaluated on the
    # mantissas of a, b, w with their exponents summed apart: the margin
    # is at most pi*scale/8, but w^2, a^4 or w^3 alone may leave the floats.
    frexp = math.frexp
    ma, ea = frexp(a)
    mb, eb = frexp(b)
    mw, ew = frexp(w)
    if w < a:
        nabla_piecewise = math.ldexp(
            pi * mb * mw * mw / (8.0 * ma), eb + 2 * ew - ea
        )
    elif w > a:
        nabla_piecewise = math.ldexp(
            pi * ma * mb * (ma / mw) ** 3 / 8.0, 4 * ea + eb - 3 * ew
        )
    else:
        nabla_piecewise = pi * scale / 8.0

    return BoundsCertificate(
        lower_coarse,
        lower_refined,
        total,
        upper_refined,
        upper_coarse,
        delta,
        delta_printed,
        (lower_coarse + delta_printed) <= total,  # delta_printed_consistent
        nabla,
        nabla_piecewise,
    )


def _inv_pi_sum(N: int) -> tuple[float, float]:
    """The 1/pi partial sum over N terms and the last term it added."""
    if N < 1:
        raise ValueError("N must be at least 1")
    # own loop for speed only: r steps as in elliptic._float_terms, about 4x as fast
    r = 1.0
    acc = 0.0
    # 2i - 1 and i + 1 for i = 1..N, counted in floats: exact below 2**53,
    # so each quotient and product rounds as it would from the integers
    odd = -1.0
    succ = 1.0
    for _ in repeat(None, N):
        odd += 2.0
        succ += 1.0
        q = odd / (odd + 1.0)
        r *= q * q
        acc += r / (odd * succ)
    return 0.375 * (1.0 - acc), 0.375 * r / ((2 * N - 1) * (N + 1))


def inv_pi_partial(N: int) -> float:
    """Partial sum of the 1/pi series: (3/8)(1 - sum of the area-series tail).

    Strictly decreasing in N toward 1/pi; the coefficients come from the
    same double-factorial recurrence as the area series.
    """
    return _inv_pi_sum(N)[0]
