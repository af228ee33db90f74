"""Complete elliptic integrals K, E and the derived integral D.

Two independent evaluation routes are provided.  The closed forms
(``complete_K``, ``complete_E``, ``complete_D``, ``scale_free_area``) all
rest on one quadratically convergent AGM pass, ``_agm``, that yields K and
D = (K - E)/k^2 together without cancellation; E and the egg area are
identities on top of it, with Legendre's relation above k = 1/sqrt(2).
They never call the series code.  The second route is truncated power
series with exact rational coefficients (``series_eval``), which also
covers the scale-free egg-area function.

All four series share one form: the multiplier of pi * x^(2i) is
r_i * num(i) / den(i), with r_i = ((2i-1)!!/(2i)!!)^2.  Each
``SeriesTarget`` is described once, in the table ``_SERIES``: its
(num, den), its exact value at x = 1 where the series converges there,
and its closed form.  r_i is carried by the recurrence
r_{i+1} = r_i ((2i+1)/(2i+2))^2, exactly in ``SeriesTarget.coeffs`` and in
floats in the terms summed by ``series_sum``.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import count, islice
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DomainError",
    "SeriesTarget",
    "complete_K",
    "complete_E",
    "complete_D",
    "series_eval",
    "series_partial",
    "series_sum",
    "scale_free_area",
    "target_value",
]


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of an operation."""


# Hard cap on series summation: near the endpoint x = 1 the terms only
# decay like 1/i^3, so a tolerance may not be reachable in finite time;
# ``series_sum`` raises when it gets here.
_MAX_SERIES_TERMS = 10_000_000

# Safety cap on AGM rounds; the one-ulp stop test ends every pass in fewer
# than 10 rounds over the whole float domain.
_AGM_MAX_ITER = 40


class SeriesTarget(Enum):
    """A function defined by an even power series with rational coefficients.

    ``coeff(i)`` is the exact rational multiplier of pi * x^(2i); for the
    area target the series is scale-free (the a*b*q factor is applied by
    the caller).  All four targets have convergence radius 1.  What
    distinguishes them is read from ``_SERIES``.
    """

    K = "K"
    E = "E"
    D = "D"
    AREA = "Area"

    @property
    def value_at_one(self) -> Optional[Fraction]:
        """Exact endpoint value where the series converges at x = 1."""
        from fractions import Fraction

        pair = _SERIES[self].value_at_one
        return None if pair is None else Fraction(*pair)

    def check_domain(self, x: float) -> None:
        """Raise ``DomainError`` unless the series converges at x: |x| < 1,
        or |x| = 1 where the target has a value there."""
        if not (
            abs(x) < 1.0 or (abs(x) == 1.0 and _SERIES[self].value_at_one is not None)
        ):
            raise DomainError(f"series for {self.value} does not converge at x={x!r}")

    def coeffs(self, m: int) -> list[Fraction]:
        """Signed rational multipliers of pi * x^(2i) for i = 0 .. m-1."""
        from fractions import Fraction

        multiplier = _SERIES[self].multiplier
        out = []
        r = Fraction(1)  # ((2i-1)!!/(2i)!!)^2
        for i in range(m):
            num, den = multiplier(i)
            out.append(r * Fraction(num, den))
            r *= Fraction((2 * i + 1) ** 2, (2 * i + 2) ** 2)
        return out

    def coeff(self, i: int) -> Fraction:
        """Signed rational multiplier of pi * x^(2i)."""
        if i < 0:
            raise ValueError("series index must be nonnegative")
        return self.coeffs(i + 1)[-1]


def _float_terms(target: SeriesTarget, x: float) -> Iterator[float]:
    """Signed series terms (including the pi factor) at the point x.

    The double-factorial ratio is carried as a float recurrence that
    squares each ratio as a product, rounded alike on every platform; no
    factorials are ever formed.
    """
    multiplier = _SERIES[target].multiplier
    x2 = x * x
    r = 1.0  # ((2i-1)!!/(2i)!!)^2
    xp = 1.0  # x^(2i)
    pi = math.pi
    for i in count():
        num, den = multiplier(i)
        yield pi * (r * num / den) * xp
        q = (2 * i + 1) / (2 * i + 2)
        r *= q * q
        xp *= x2


class SeriesSum(NamedTuple):
    value: float
    terms_used: int
    last_term: float


def series_sum(target: SeriesTarget, x: float, tol: float) -> SeriesSum:
    """Sum the series until the current term drops below ``tol``.

    The first term is always added.  ``last_term`` is the last term added,
    not a bound on the error: the tail after it can exceed it by up to a
    factor x^2 / (1 - x^2), which is large near x = 1.  A ``tol`` that is not
    positive (NaN included) raises ``ValueError``; reaching
    ``_MAX_SERIES_TERMS`` before a term drops below ``tol`` raises
    ``DomainError`` rather than return a truncated sum.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    target.check_domain(x)
    total = 0.0
    terms = islice(_float_terms(target, x), _MAX_SERIES_TERMS)
    for n, term in enumerate(terms, 1):
        total += term
        if n > 1 and abs(term) < tol:
            return SeriesSum(total, n, term)
    raise DomainError(
        f"series for {target.value} at x={x!r} did not reach tol={tol!r} "
        f"within {_MAX_SERIES_TERMS} terms"
    )


def series_eval(target: SeriesTarget, x: float, tol: float = 1e-15) -> float:
    """Series value of the target function at x, truncated at ``tol``."""
    return series_sum(target, x, tol).value


def series_partial(target: SeriesTarget, x: float, n_terms: int) -> float:
    """Partial sum of exactly ``n_terms`` series terms at x.

    Unlike ``series_eval`` this never checks convergence, so it can probe
    divergence (K at x = 1) and slow endpoint convergence.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    total = 0.0
    for term in islice(_float_terms(target, x), n_terms):
        total += term
    return total


def _check_modulus(k: float, *, allow_one: bool, name: str) -> None:
    if not (0.0 <= k <= 1.0):
        raise DomainError(f"{name} requires a modulus in [0, 1], got {k!r}")
    if k == 1.0 and not allow_one:
        raise DomainError(f"{name} diverges at modulus 1")


def _complement(k: float) -> float:
    """k' = sqrt((1 - k)(1 + k)), which keeps its relative accuracy as k -> 1."""
    return math.sqrt((1.0 - k) * (1.0 + k))


def _agm(k: float, kp: float) -> tuple[float, float]:
    """K(k) and D(k) for 0 <= k < 1 from one AGM pass started at (1, k').

    K = pi / (2 a_N) and D = K (1/2 + sum_{n>=1} 2^(n-1) (c_n/k)^2) (DLMF
    19.8), with c_n/k carried by c_{n+1} = c_n^2 / (4 a_{n+1}) from
    c_0/k = 1, so that nothing cancels as k -> 0.
    """
    a, g = 1.0, kp
    ck = 1.0  # c_n / k
    pow2 = 1.0  # 2^(n-1) for the next c_n
    total = 0.5
    for _ in range(_AGM_MAX_ITER):
        if abs(a - g) <= 2.0**-52 * a:  # one ulp of a
            break
        a, g = 0.5 * (a + g), math.sqrt(a * g)
        ck *= ck * k / (4.0 * a)
        total += pow2 * ck * ck
        pow2 *= 2.0
    bigK = math.pi / (2.0 * a)
    return bigK, bigK * total


def _e_value(k: float, kp: float, bigK: float, bigD: float) -> float:
    """E(k) from K(k) and D(k).

    E = K - k^2 D while k <= k'.  Above, K - k^2 D cancels, and Legendre's
    relation (DLMF 19.7.1) with the AGM pass on the complementary modulus
    gives E = (pi/2 + K k'^2 D(k')) / K(k').
    """
    if k <= kp:
        return bigK - k * k * bigD
    compK, compD = _agm(kp, k)
    return (0.5 * math.pi + bigK * kp * kp * compD) / compK


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, 0 <= k < 1.

    AGM iteration: K(k) = pi / (2 * agm(1, sqrt(1 - k^2))).
    """
    _check_modulus(k, allow_one=False, name="K")
    return _agm(k, _complement(k))[0]


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind, 0 <= k <= 1.

    E = K - k^2 D for k <= 1/sqrt(2), and Legendre's relation through the
    complementary modulus above it; see ``_e_value``.
    """
    _check_modulus(k, allow_one=True, name="E")
    if k == 1.0:
        return 1.0
    kp = _complement(k)
    return _e_value(k, kp, *_agm(k, kp))


def complete_D(k: float) -> float:
    """D(k) = (K(k) - E(k)) / k^2 for 0 <= k < 1, with D(0) = pi/4.

    Summed from the AGM pass as K (1/2 + sum 2^(n-1) (c_n/k)^2), which
    never forms the cancelling difference K - E.
    """
    _check_modulus(k, allow_one=False, name="D")
    return _agm(k, _complement(k))[1]


def scale_free_area(k: float) -> float:
    """Egg area over a*b*q as a function of the modulus, 0 <= k <= 1.

    The closed form (4/3)((1 - 1/k^2) K + (1 + 1/k^2) E) rewritten as
    (4/3)(K + E - D), which has no 1/k^2 cancellation: it is pi at k = 0
    (ellipse) and 8/3 at k = 1 (parabola plus line).  Above k = k', where
    K - D cancels, the equal form (4/3)(2E - k'^2 D) is used.
    """
    if not 0.0 <= k < 1.0:
        _check_modulus(k, allow_one=True, name="area")  # raises unless k == 1
        return 8.0 / 3.0
    kp = _complement(k)
    bigK, bigD = _agm(k, kp)
    bigE = _e_value(k, kp, bigK, bigD)
    if k <= kp:
        return (4.0 / 3.0) * (bigK + bigE - bigD)
    return (4.0 / 3.0) * (2.0 * bigE - kp * kp * bigD)


class _Series(NamedTuple):
    """One series target: the (num(i), den(i)) of its multiplier
    r_i * num(i) / den(i), its exact value at x = 1 as (numerator,
    denominator) (None where the series diverges there) and its closed
    form."""

    multiplier: Callable[[int], tuple[int, int]]
    value_at_one: Optional[tuple[int, int]]
    closed_form: Callable[[float], float]


# Every multiplier holds at i = 0 as written (E: 1/2, D: 1/4, area: 1).
_SERIES: dict[SeriesTarget, _Series] = {
    SeriesTarget.K: _Series(lambda i: (1, 2), None, complete_K),
    SeriesTarget.E: _Series(lambda i: (-1, 4 * i - 2), (1, 1), complete_E),
    SeriesTarget.D: _Series(lambda i: (2 * i + 1, 4 * i + 4), None, complete_D),
    SeriesTarget.AREA: _Series(
        lambda i: (-1, (2 * i - 1) * (i + 1)), (8, 3), scale_free_area
    ),
}


def target_value(target: SeriesTarget, x: float) -> float:
    """Direct (non-series) value of the series-defined function at x.

    For the area target this is ``scale_free_area``: the scale-free egg
    area as a function of the modulus, (4/3)(K + E - D), with the ellipse
    and parabola limits at the endpoints.
    """
    return _SERIES[target].closed_form(x)
