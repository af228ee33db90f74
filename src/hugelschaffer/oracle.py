"""Independent quadrature oracle.

Brute-force numerical integration of the defining integrals (elliptic
integrals, the egg-area line integral), used to validate every closed
form in the library.  Deliberately self-contained: nothing here calls the
AGM evaluators or the closed-form area code.  It shares with them only
their domain: ``DomainError`` and the range of the area scale a*b*q.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

from .curve import _MAX_SCALE, _MIN_SCALE, CurveParams
from .elliptic import DomainError

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


class QuadratureSpec(NamedTuple):
    rule: Rule = Rule.ADAPTIVE_SIMPSON


DEFAULT_SPEC = QuadratureSpec()


# A panel at depth d accepts when its error estimate is at most
# max(_ABS_TOL * 2**-d, _ROUNDING * |root estimate|).  The first term is
# the tolerance of a scale-free integral of order one, split evenly
# between the halves; the second is the rounding of the panel sums,
# which no bisection can undercut, so it is never halved.
_ABS_TOL = 1e-11
_ROUNDING = 2.0**-52
_MAX_DEPTH = 40
_GAUSS_ORDER = 8


class DepthExhausted(RuntimeError):
    """Adaptive subdivision hit _MAX_DEPTH before reaching the tolerance."""

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


def _gauss_nodes() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] of order
    ``_GAUSS_ORDER``.

    Newton's method on P_n (Golub & Welsch 1969; Numerical Recipes
    ``gauleg``), started for the i-th root at -cos(pi (i + 3/4) / (n + 1/2)).
    """
    order = _GAUSS_ORDER
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


_NODES, _WEIGHTS = _gauss_nodes()


def _gauss_panel(f: Callable[[float], float], lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return half * sum(wi * f(mid + half * xi) for xi, wi in zip(_NODES, _WEIGHTS))


def quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Adaptive bisection quadrature of f over [lo, hi].

    Each node compares its panel with the sum of its two halves and,
    when the estimate misses its tolerance (see ``_ABS_TOL``), splits.

    - Simpson carries f at the ends and the midpoint of each panel down
      to its two halves, so a node evaluates f only at its two new
      quarter points and f is called once per abscissa.  The estimate is
      the classic S/15, added to the halves as Richardson's correction.
      A panel also needs its parent's estimate to have been within
      ``_SIMPSON_PARENT_ERR_FACTOR`` times its own tolerance, which stops
      false convergence.
    - Gauss-Legendre of order ``_GAUSS_ORDER`` returns the sum of the
      halves; the whole-vs-halves difference is only the estimate, since
      extrapolating with it assumes a first-order rule.  The root is
      always split, because no parent estimate confirms its difference.

    Raises ``DepthExhausted`` when ``_MAX_DEPTH`` bisections are not
    enough.
    """
    if lo == hi:
        return 0.0
    if spec.rule is Rule.ADAPTIVE_SIMPSON:
        return _adaptive_simpson(f, lo, hi)
    return _adaptive_gauss(f, lo, hi)


# Simpson's error estimate shrinks about 32x per halving while the
# tolerance halves.  A panel whose parent's estimate exceeded this many
# times the panel's own tolerance is predicted to miss it by 8x, so an
# estimate that meets it anyway is a coincidence of the sample points
# (false convergence), and the panel is split again.  On K and E
# quadratures a factor of 64 behaves the same; 16 raises DepthExhausted
# more often and costs time.
_SIMPSON_PARENT_ERR_FACTOR = 256.0


def _adaptive_simpson(f: Callable[[float], float], lo: float, hi: float) -> float:
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
        accept = max(tol, floor)
        if (
            abs_err <= accept and parent_err <= _SIMPSON_PARENT_ERR_FACTOR * accept
        ) or (b - a) < 1e-300:
            return left + right + err
        if depth >= _MAX_DEPTH:
            raise DepthExhausted(left + right, abs_err)
        return recurse(
            a, mid, fa, f_left, fm, left, 0.5 * tol, abs_err, depth + 1
        ) + recurse(mid, b, fm, f_right, fb, right, 0.5 * tol, abs_err, depth + 1)

    fa, fm, fb = f(lo), f(0.5 * (lo + hi)), f(hi)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    floor = _ROUNDING * abs(whole)
    return recurse(lo, hi, fa, fm, fb, whole, _ABS_TOL, 0.0, 0)


def _adaptive_gauss(f: Callable[[float], float], lo: float, hi: float) -> float:
    def recurse(a: float, b: float, whole: float, tol: float, depth: int) -> float:
        mid = 0.5 * (a + b)
        left = _gauss_panel(f, a, mid)
        right = _gauss_panel(f, mid, b)
        total = left + right
        err = abs(total - whole)
        if depth and (err <= max(tol, floor) or (b - a) < 1e-300):
            return total
        if depth >= _MAX_DEPTH:
            raise DepthExhausted(total, err)
        return recurse(a, mid, left, 0.5 * tol, depth + 1) + recurse(
            mid, b, right, 0.5 * tol, depth + 1
        )

    whole = _gauss_panel(f, lo, hi)
    floor = _ROUNDING * abs(whole)
    return recurse(lo, hi, whole, _ABS_TOL, 0)


def quad_elliptic(
    kind: str, k: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Direct quadrature of the defining integral of K or E.

    Integrates over u = pi/2 - t, where the radicand 1 - k^2 sin^2 t is
    k'^2 + k^2 sin^2 u: it does not cancel near k = 1, and K's peak of
    width k' sits at u = 0, where the abscissae are not rounded to the
    spacing of the floats near pi/2.
    """
    if kind not in ("K", "E"):
        raise ValueError("kind must be 'K' or 'E'")
    if not (0.0 <= k <= 1.0) or (kind == "K" and k == 1.0):
        raise DomainError(f"modulus {k!r} outside the domain of {kind}")
    k2, kp2 = k * k, (1.0 - k) * (1.0 + k)

    if kind == "K":
        def f(u: float) -> float:
            s = math.sin(u)
            return 1.0 / math.sqrt(kp2 + k2 * (s * s))
    else:
        def f(u: float) -> float:
            s = math.sin(u)
            return math.sqrt(kp2 + k2 * (s * s))
    return quad(f, 0.0, 0.5 * math.pi, spec)


class AreaQuadrature(NamedTuple):
    total: float
    part1: float  # t in [pi/2, pi], mirrored to the lower half
    part2: float  # t in [0, pi/2]


def _unit_y_xprime(k: float) -> Callable[[float], float]:
    """y(t) x'(t) of the unit egg x = -k sin^2 t + cos t sqrt(1 - k^2 sin^2 t),
    y = sin t (an independent re-derivation), with one sin, cos and root
    per point."""
    k2, kp2 = k * k, (1.0 - k) * (1.0 + k)

    def y_xprime(t: float) -> float:
        s, c = math.sin(t), math.cos(t)
        # root >= k|c|, and the cosine of a float in [0, pi] is never 0
        root = math.sqrt(kp2 + k2 * c * c)
        return -s * s * (2.0 * k * c + root + k2 * c * c / root)

    return y_xprime


def quad_area(
    params: CurveParams, spec: QuadratureSpec = DEFAULT_SPEC
) -> AreaQuadrature:
    """Oracle area: -2 * integral of y(t) x'(t) over [0, pi].

    The egg is the unit egg stretched by a along x and by q b along y, so
    the unit egg of modulus k is integrated and its area scaled by a b q
    once; the tolerance then means the same for every egg.  Split at
    t = pi/2 to mirror the two subarea integrals.  Raises ``DomainError``
    when a b q lies outside the normal-float range that the closed forms
    accept, where the area would be inf, 0 or a subnormal.
    """
    a, b, w = params.a, params.b, params.w
    if w <= a:
        q, k = 1.0, w / a
    else:
        q = k = a / w
    scale = a * b * q
    if not (_MIN_SCALE <= scale <= _MAX_SCALE):
        raise DomainError(f"area scale a*b*q = {scale!r} lies outside the normal floats")
    integrand = _unit_y_xprime(k)
    part2 = scale * (-2.0 * quad(integrand, 0.0, 0.5 * math.pi, spec))
    part1 = scale * (-2.0 * quad(integrand, 0.5 * math.pi, math.pi, spec))
    return AreaQuadrature(part1 + part2, part1, part2)
