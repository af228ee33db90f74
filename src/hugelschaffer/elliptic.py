"""Complete elliptic integrals K, E and the derived integral D.

Two independent evaluation routes are provided: one quadratically
convergent AGM pass that yields K and E together (used by ``complete_K``,
``complete_E``, ``complete_D`` and ``scale_free_area``) and truncated
power series with exact rational coefficients (``series_eval``).  The
series route also covers the scale-free egg-area function.

All four series share one form: the multiplier of pi * x^(2i) is
r_i * num(i) / den(i), with r_i = ((2i-1)!!/(2i)!!)^2 and one (num, den)
entry per target in ``_MULTIPLIERS``.  The exact ``Fraction`` coefficients
and the float terms summed by ``series_sum`` both read that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count
from typing import Callable, Iterator, NamedTuple, Optional

__all__ = [
    "DomainError",
    "SeriesKind",
    "SeriesTarget",
    "K_SERIES",
    "E_SERIES",
    "D_SERIES",
    "AREA_SERIES",
    "complete_K",
    "complete_E",
    "complete_D",
    "series_coeff",
    "series_eval",
    "series_partial",
    "series_sum",
    "scale_free_area",
    "target_value",
    "MAX_SERIES_TERMS",
]


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of an operation."""


# Hard cap on series summation: near the endpoint x = 1 the terms only
# decay like 1/i^3, so a tolerance may not be reachable in finite time.
MAX_SERIES_TERMS = 10_000_000

# The AGM gap can stagnate at one ulp above the target, so the loop is
# additionally capped; quadratic convergence needs well under 10 rounds.
_AGM_TOL = 1e-16
_AGM_MAX_ITER = 40

# D(x) = (K(x) - E(x))/x^2 loses relative accuracy to cancellation as
# x -> 0; below this threshold the series is used instead.
_D_SERIES_CUTOFF = 0.25


def _dblfact_ratio_sq(i: int) -> Fraction:
    """((2i-1)!!/(2i)!!)^2 = (C(2i, i) / 4^i)^2 as an exact rational."""
    return Fraction(math.comb(2 * i, i), 4**i) ** 2


class SeriesKind(Enum):
    K = "K"
    E = "E"
    D = "D"
    AREA = "Area"


# (num(i), den(i)) of each target's multiplier r_i * num(i) / den(i); every
# entry holds at i = 0 as written (E: 1/2, D: 1/4, area: 1).
_MULTIPLIERS: dict[SeriesKind, Callable[[int], tuple[int, int]]] = {
    SeriesKind.K: lambda i: (1, 2),
    SeriesKind.E: lambda i: (-1, 4 * i - 2),
    SeriesKind.D: lambda i: (2 * i + 1, 4 * i + 4),
    SeriesKind.AREA: lambda i: (-1, (2 * i - 1) * (i + 1)),
}


@dataclass(frozen=True)
class SeriesTarget:
    """A function defined by an even power series with rational coefficients.

    ``coeff(i)`` is the exact rational multiplier of pi * x^(2i); for the
    area target the series is scale-free (the a*b*q factor is applied by
    the caller).  All four targets have convergence radius 1.
    """

    kind: SeriesKind

    @property
    def value_at_one(self) -> Optional[Fraction]:
        """Exact endpoint value where the series converges at x = 1."""
        if self.kind is SeriesKind.E:
            return Fraction(1)
        if self.kind is SeriesKind.AREA:
            return Fraction(8, 3)
        return None

    def coeff(self, i: int) -> Fraction:
        """Signed rational multiplier of pi * x^(2i)."""
        if i < 0:
            raise ValueError("series index must be nonnegative")
        num, den = _MULTIPLIERS[self.kind](i)
        return _dblfact_ratio_sq(i) * Fraction(num, den)


K_SERIES = SeriesTarget(SeriesKind.K)
E_SERIES = SeriesTarget(SeriesKind.E)
D_SERIES = SeriesTarget(SeriesKind.D)
AREA_SERIES = SeriesTarget(SeriesKind.AREA)


def series_coeff(target: SeriesTarget, i: int) -> Fraction:
    """Exact rational coefficient of pi * x^(2i) in the target's series."""
    return target.coeff(i)


def _float_terms(target: SeriesTarget, x: float) -> Iterator[float]:
    """Signed series terms (including the pi factor) at the point x.

    The double-factorial ratio is carried as a float recurrence; no
    factorials are ever formed.
    """
    multiplier = _MULTIPLIERS[target.kind]
    x2 = x * x
    r = 1.0  # ((2i-1)!!/(2i)!!)^2
    xp = 1.0  # x^(2i)
    pi = math.pi
    for i in count():
        num, den = multiplier(i)
        yield pi * (r * num / den) * xp
        r *= ((2 * i + 1) / (2 * i + 2)) ** 2
        xp *= x2


class SeriesSum(NamedTuple):
    value: float
    terms_used: int
    last_term: float


def _check_series_domain(target: SeriesTarget, x: float) -> None:
    if abs(x) < 1.0:
        return
    if abs(x) == 1.0 and target.value_at_one is not None:
        return
    raise DomainError(
        f"series for {target.kind.value} does not converge at x={x!r}"
    )


def _sum_terms(
    target: SeriesTarget, x: float, tol: float, max_terms: int
) -> SeriesSum:
    """Add terms until one after the first drops below ``tol``, or ``max_terms``."""
    total = 0.0
    term = 0.0
    n = 0
    for term in _float_terms(target, x):
        total += term
        n += 1
        if n > 1 and abs(term) < tol:
            break
        if n >= max_terms:
            break
    return SeriesSum(total, n, term)


def series_sum(
    target: SeriesTarget,
    x: float,
    tol: float,
    max_terms: int = MAX_SERIES_TERMS,
) -> SeriesSum:
    """Sum the series until the current term drops below ``tol``.

    Stops at ``max_terms`` regardless; ``last_term`` reports the achieved
    truncation level (the magnitude of the final term added).
    """
    _check_series_domain(target, x)
    return _sum_terms(target, x, tol, max_terms)


def series_eval(
    target: SeriesTarget,
    x: float,
    tol: float = 1e-15,
    max_terms: int = MAX_SERIES_TERMS,
) -> float:
    """Series value of the target function at x, truncated at ``tol``."""
    return series_sum(target, x, tol, max_terms).value


def series_partial(target: SeriesTarget, x: float, n_terms: int) -> float:
    """Partial sum of exactly ``n_terms`` series terms at x.

    Unlike ``series_eval`` this never checks convergence, so it can probe
    divergence (K at x = 1) and slow endpoint convergence.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    # no term is below a zero tolerance, so exactly n_terms are added
    return _sum_terms(target, x, 0.0, n_terms).value


def _check_modulus(k: float, *, allow_one: bool, name: str) -> None:
    if not (0.0 <= k <= 1.0):
        raise DomainError(f"{name} requires a modulus in [0, 1], got {k!r}")
    if k == 1.0 and not allow_one:
        raise DomainError(f"{name} diverges at modulus 1")


def _agm(k: float) -> tuple[float, float]:
    """K(k) and E(k) for 0 <= k < 1 from one AGM pass (DLMF 19.8).

    K = pi / (2 agm(1, k')) and E = K (1 - sum_n 2^(n-1) c_n^2), c_0 = k.
    The complementary modulus k' = sqrt((1 - k)(1 + k)) keeps its
    relative accuracy as k -> 1, where 1 - k*k would not.
    """
    a, g = 1.0, math.sqrt((1.0 - k) * (1.0 + k))
    correction = 0.5 * k * k  # 2^(-1) c_0^2
    pow2 = 1.0  # 2^(n-1) for the next c_n
    for _ in range(_AGM_MAX_ITER):
        if abs(a - g) <= _AGM_TOL:
            break
        c = 0.5 * (a - g)
        a, g = 0.5 * (a + g), math.sqrt(a * g)
        correction += pow2 * c * c
        pow2 *= 2.0
    bigK = math.pi / (2.0 * a)
    return bigK, bigK * (1.0 - correction)


def _d_value(k: float, bigK: float, bigE: float) -> float:
    """D(k) given K(k) and E(k): the series below the cutoff, else the ratio."""
    if k < _D_SERIES_CUTOFF:
        return series_eval(D_SERIES, k, tol=1e-18)
    return (bigK - bigE) / (k * k)


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, 0 <= k < 1.

    AGM iteration: K(k) = pi / (2 * agm(1, sqrt(1 - k^2))).
    """
    _check_modulus(k, allow_one=False, name="K")
    return _agm(k)[0]


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind, 0 <= k <= 1.

    AGM with correction terms: E = K * (1 - sum_n 2^(n-1) c_n^2), c_0 = k.
    """
    _check_modulus(k, allow_one=True, name="E")
    if k == 1.0:
        return 1.0
    return _agm(k)[1]


def complete_D(k: float) -> float:
    """D(k) = (K(k) - E(k)) / k^2 for 0 <= k < 1, with D(0) = pi/4.

    Small moduli are routed through the series to avoid the catastrophic
    cancellation of K - E near 0.
    """
    _check_modulus(k, allow_one=False, name="D")
    return _d_value(k, *_agm(k))


def scale_free_area(k: float) -> float:
    """Egg area over a*b*q as a function of the modulus, 0 <= k <= 1.

    The closed form (4/3)((1 - 1/k^2) K + (1 + 1/k^2) E) rewritten as
    (4/3)(K + E - D), which has no 1/k^2 cancellation at either end: it is
    pi at k = 0 (ellipse) and 8/3 at k = 1 (parabola plus line).
    """
    _check_modulus(k, allow_one=True, name="area")
    if k == 1.0:
        return 8.0 / 3.0
    bigK, bigE = _agm(k)
    return (4.0 / 3.0) * (bigK + bigE - _d_value(k, bigK, bigE))


def target_value(target: SeriesTarget, x: float) -> float:
    """Direct (non-series) value of the series-defined function at x.

    For the area target this is ``scale_free_area``: the scale-free egg
    area as a function of the modulus, (4/3)(K + E - D), with the ellipse
    and parabola limits at the endpoints.
    """
    kind = target.kind
    if kind is SeriesKind.K:
        return complete_K(x)
    if kind is SeriesKind.E:
        return complete_E(x)
    if kind is SeriesKind.D:
        return complete_D(x)
    return scale_free_area(x)
