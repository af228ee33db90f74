"""Independent quadrature oracle.

Brute-force numerical integration of the defining integrals (elliptic
integrals, the egg-area line integral), used to validate every closed
form in the library.  Deliberately self-contained: nothing here calls the
AGM evaluators or the closed-form area code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple

from .curve import CurveParams

__all__ = [
    "Rule",
    "QuadratureSpec",
    "DepthExhausted",
    "quad",
    "quad_elliptic",
    "quad_area",
    "AreaQuadrature",
    "DEFAULT_SPEC",
]


class Rule(Enum):
    ADAPTIVE_SIMPSON = "simpson"
    GAUSS_LEGENDRE = "gauss-legendre"


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-11
    max_depth: int = 40
    rule: Rule = Rule.ADAPTIVE_SIMPSON
    gauss_order: int = 8

    def __post_init__(self) -> None:
        if self.abs_tol < 1e-15:
            raise ValueError("abs_tol must be at least 1e-15")
        if not (0 < self.max_depth <= 60):
            raise ValueError("max_depth must lie in (0, 60]")
        if self.gauss_order < 1:
            raise ValueError("gauss_order must be positive")


DEFAULT_SPEC = QuadratureSpec()


class DepthExhausted(RuntimeError):
    """Adaptive subdivision hit max_depth before reaching the tolerance."""

    def __init__(self, best: float, err_bound: float):
        super().__init__(
            f"quadrature depth exhausted; best estimate {best!r} "
            f"with error bound ~{err_bound:.3e}"
        )
        self.best = best
        self.err_bound = err_bound


# Newton converges quadratically from the cosine start; a step below the
# tolerance leaves the node exact to rounding.
_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) from the three-term recurrence, n >= 1, |x| < 1."""
    p_prev, p = 1.0, x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))


@lru_cache(maxsize=None)
def _gauss_nodes(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n (Golub & Welsch 1969; Numerical Recipes
    ``gauleg``), started for the i-th root at -cos(pi (i + 3/4) / (n + 1/2)).
    """
    nodes, weights = [], []
    for i in range(order):
        x = -math.cos(math.pi * (i + 0.75) / (order + 0.5))
        for _ in range(_NEWTON_MAX_ITER):
            p, dp = _legendre(order, x)
            step = p / dp
            x -= step
            if abs(step) <= _NEWTON_TOL:
                break
        dp = _legendre(order, x)[1]
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x) * (1.0 + x) * dp * dp))
    return tuple(nodes), tuple(weights)


def _gauss_panel(
    f: Callable[[float], float], lo: float, hi: float, order: int
) -> float:
    nodes, weights = _gauss_nodes(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return half * sum(wi * f(mid + half * xi) for xi, wi in zip(nodes, weights))


def quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Adaptive bisection quadrature of f over [lo, hi].

    Each node compares its panel with the sum of its two halves and,
    when the estimate misses its tolerance (halved per level), splits.

    - Simpson carries f at the ends and the midpoint of each panel down
      to its two halves, so a node evaluates f only at its two new
      quarter points and f is called once per abscissa.  The estimate is
      the classic S/15, added to the halves as Richardson's correction.
      A panel also needs its parent's estimate to have been within
      ``_SIMPSON_PARENT_ERR_FACTOR`` times its own tolerance, which stops
      false convergence.
    - Gauss-Legendre of order ``spec.gauss_order`` returns the sum of the
      halves; the whole-vs-halves difference is only the estimate, since
      extrapolating with it assumes a first-order rule.

    Raises ``DepthExhausted`` when ``spec.max_depth`` bisections are not
    enough.
    """
    if lo == hi:
        return 0.0
    if spec.rule is Rule.ADAPTIVE_SIMPSON:
        return _adaptive_simpson(f, lo, hi, spec)
    return _adaptive_gauss(f, lo, hi, spec)


# Simpson's error estimate shrinks about 32x per halving while the
# tolerance halves.  A panel whose parent's estimate exceeded this many
# times the panel's own tolerance is predicted to miss it by 8x, so an
# estimate that meets it anyway is a coincidence of the sample points
# (false convergence), and the panel is split again.  On K and E
# quadratures a factor of 64 behaves the same; 16 raises DepthExhausted
# more often and costs time.
_SIMPSON_PARENT_ERR_FACTOR = 256.0


def _adaptive_simpson(
    f: Callable[[float], float], lo: float, hi: float, spec: QuadratureSpec
) -> float:
    max_depth = spec.max_depth

    def recurse(
        a: float, b: float, fa: float, fm: float, fb: float,
        whole: float, tol: float, parent_err: float, depth: int,
    ) -> float:
        mid = 0.5 * (a + b)
        f_left = f(0.5 * (a + mid))
        f_right = f(0.5 * (mid + b))
        left = (mid - a) / 6.0 * (fa + 4.0 * f_left + fm)
        right = (b - mid) / 6.0 * (fm + 4.0 * f_right + fb)
        err = (left + right - whole) / 15.0
        abs_err = abs(err)
        if (
            abs_err <= tol and parent_err <= _SIMPSON_PARENT_ERR_FACTOR * tol
        ) or (b - a) < 1e-300:
            return left + right + err
        if depth >= max_depth:
            raise DepthExhausted(left + right, abs_err)
        return recurse(
            a, mid, fa, f_left, fm, left, 0.5 * tol, abs_err, depth + 1
        ) + recurse(mid, b, fm, f_right, fb, right, 0.5 * tol, abs_err, depth + 1)

    fa, fm, fb = f(lo), f(0.5 * (lo + hi)), f(hi)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(lo, hi, fa, fm, fb, whole, spec.abs_tol, 0.0, 0)


def _adaptive_gauss(
    f: Callable[[float], float], lo: float, hi: float, spec: QuadratureSpec
) -> float:
    order, max_depth = spec.gauss_order, spec.max_depth

    def recurse(a: float, b: float, whole: float, tol: float, depth: int) -> float:
        mid = 0.5 * (a + b)
        left = _gauss_panel(f, a, mid, order)
        right = _gauss_panel(f, mid, b, order)
        total = left + right
        err = abs(total - whole)
        if err <= tol or (b - a) < 1e-300:
            return total
        if depth >= max_depth:
            raise DepthExhausted(total, err)
        return recurse(a, mid, left, 0.5 * tol, depth + 1) + recurse(
            mid, b, right, 0.5 * tol, depth + 1
        )

    return recurse(lo, hi, _gauss_panel(f, lo, hi, order), spec.abs_tol, 0)


def quad_elliptic(
    kind: str, k: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Direct quadrature of the defining integral of K or E."""
    if kind not in ("K", "E"):
        raise ValueError("kind must be 'K' or 'E'")
    if not (0.0 <= k <= 1.0) or (kind == "K" and k == 1.0):
        raise ValueError(f"modulus {k!r} outside the domain of {kind}")
    k2 = k * k

    if kind == "K":
        f = lambda t: 1.0 / math.sqrt(1.0 - k2 * math.sin(t) ** 2)
    else:
        f = lambda t: math.sqrt(max(1.0 - k2 * math.sin(t) ** 2, 0.0))
    return quad(f, 0.0, 0.5 * math.pi, spec)


class AreaQuadrature(NamedTuple):
    total: float
    part1: float  # t in [pi/2, pi], mirrored to the lower half
    part2: float  # t in [0, pi/2]


def _parametrization(params: CurveParams):
    """Local x(t), y(t) and y(t) x'(t) of the egg part (independent
    re-derivation).  The product shares one sin, cos and root per point."""
    a, b, w = params.a, params.b, params.w
    q = 1.0 if w <= a else a / w
    qb = q * b
    a2 = a * a
    q2w = q * q * w
    q4w2 = q2w * q2w

    def y(t: float) -> float:
        return qb * math.sin(t)

    def x(t: float) -> float:
        s, c = math.sin(t), math.cos(t)
        return -q2w * s * s + c * math.sqrt(max(a2 - q4w2 * s * s, 0.0))

    def y_xprime(t: float) -> float:
        s, c = math.sin(t), math.cos(t)
        root = math.sqrt(max(a2 - q4w2 * s * s, 0.0))
        xprime = -2.0 * q2w * s * c - s * root
        if root > 1e-12:
            xprime -= q4w2 * s * c * c / root
        else:
            # k = 1 limit: root = a|cos t|, so the quotient stays finite
            xprime -= q4w2 * s * abs(c) / a
        return qb * s * xprime

    return x, y, y_xprime


def quad_area(
    params: CurveParams,
    spec: QuadratureSpec = DEFAULT_SPEC,
    derivative: str = "analytic",
) -> AreaQuadrature:
    """Oracle area: -2 * integral of y(t) x'(t) over [0, pi].

    Split at t = pi/2 to mirror the two subarea integrals.  ``derivative``
    selects the analytic x'(t) or a central finite difference (h = 1e-6),
    the latter guarding against mistakes in the derivative itself.
    """
    x, y, y_xprime = _parametrization(params)
    if derivative == "fd":
        h = 1e-6
        integrand = lambda t: y(t) * ((x(t + h) - x(t - h)) / (2.0 * h))
    elif derivative == "analytic":
        integrand = y_xprime
    else:
        raise ValueError("derivative must be 'analytic' or 'fd'")

    part2 = -2.0 * quad(integrand, 0.0, 0.5 * math.pi, spec)
    part1 = -2.0 * quad(integrand, 0.5 * math.pi, math.pi, spec)
    return AreaQuadrature(part1 + part2, part1, part2)
