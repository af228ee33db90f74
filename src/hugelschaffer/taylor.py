"""First and second Taylor approximations of series-defined functions.

The first approximation is the truncated Maclaurin polynomial; the second
adds an endpoint-matching correction term so that the polynomial agrees
with the function at a chosen point ``beta``.  Together they sandwich the
function from both sides, and ``verify_chain`` checks the full interleaved
inequality chain on a grid.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

from .elliptic import DomainError, SeriesTarget, target_value

__all__ = [
    "PolyTerm",
    "TaylorApprox",
    "ChainReport",
    "first_taylor",
    "second_taylor",
    "second_corrections",
    "eval_approx",
    "verify_chain",
]

# Divergent-at-1 targets get this stand-in when a caller asks for beta = 1.
_NEAR_ONE_BETA = 0.999999

# Rounding slack for the non-strict chain inequalities, relative to max(1, |f|).
_CHAIN_SLACK = 1e-14


class PolyTerm(NamedTuple):
    """One polynomial term: (pi_coeff * pi + const_coeff + float_coeff) * x^power.

    The two Fraction slots keep table fixtures exactly representable.
    ``float_coeff`` is None on an exact term.  It is set only on a
    second-kind correction term built from a float f(beta): for every target
    at beta < 1, and for K and D at the stand-in for beta = 1.  Such a term
    is never exact, even where its float cancels to 0.0.
    """

    power: int
    pi_coeff: Fraction = Fraction(0)
    const_coeff: Fraction = Fraction(0)
    float_coeff: Optional[float] = None

    def value(self) -> float:
        exact = math.pi * float(self.pi_coeff) + float(self.const_coeff)
        return exact + (self.float_coeff or 0.0)

    def is_exact(self) -> bool:
        return self.float_coeff is None


class TaylorApprox(NamedTuple):
    """A polynomial enclosure of a series-defined function.

    ``beta`` is None for the first kind and the resolved endpoint for the
    second.
    """

    target: SeriesTarget
    degree: int
    beta: Optional[float]
    terms: tuple[PolyTerm, ...]

    def coefficients(self) -> list[float]:
        """Dense float coefficient list, index = power, summed from ``terms``."""
        dense = [0.0] * (self.degree + 1)
        for t in self.terms:
            dense[t.power] += t.value()
        return dense


def _maclaurin(target: SeriesTarget, n: int) -> TaylorApprox:
    """Degree-n truncation; at n = -1 it has no terms."""
    coeffs = target.coeffs(n // 2 + 1)
    terms = tuple(PolyTerm(2 * i, pi_coeff=c) for i, c in enumerate(coeffs))
    return TaylorApprox(target, n, None, terms)


def first_taylor(target: SeriesTarget, n: int) -> TaylorApprox:
    """Truncated Maclaurin polynomial of degree n (even powers only)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return _maclaurin(target, n)


def _resolve_beta(target: SeriesTarget, beta: float) -> float:
    closed = target.value_at_one is not None
    if beta == 1.0 and not closed:
        return _NEAR_ONE_BETA
    if not (0.0 < beta < 1.0 or (closed and beta == 1.0)):
        interval = "(0, 1]" if closed else "(0, 1)"
        raise DomainError(f"beta must lie in {interval} for {target.value}, got {beta!r}")
    return beta


def second_taylor(target: SeriesTarget, n: int, beta: float) -> TaylorApprox:
    """T_{n-1} plus the correction (x/beta)^n * (f(beta) - T_{n-1}(beta)).

    For n = 0, T_{-1} has no terms and the approximation is the constant
    f(beta).  When beta = 1 and the target has an exact endpoint value, the
    correction coefficient is carried exactly (rational plus rational
    multiple of pi).
    """
    beta, base, (corr,) = _second(target, n, beta, (n,))
    return TaylorApprox(target, n, beta, base.terms + (corr,))


def second_corrections(target: SeriesTarget, n: int, beta: float) -> list[PolyTerm]:
    """The correction term of ``second_taylor(target, j, beta)`` for j = 0..n,
    all from one Maclaurin pass and with the same bits."""
    return _second(target, n, beta, range(n + 1))[2]


def _second(
    target: SeriesTarget, n: int, beta: float, degrees: Sequence[int]
) -> tuple[float, TaylorApprox, list[PolyTerm]]:
    """The resolved beta, T_{n-1}, and the correction at each j in ``degrees``.

    Every j is at most n, so T_{j-1} is the first (j + 1) // 2 terms of
    T_{n-1}; ``degrees`` ascends.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    beta = _resolve_beta(target, beta)
    base = _maclaurin(target, n - 1)
    if beta == 1.0 and target.value_at_one is not None:
        # T_{j-1}(1) = pi * sum of its rational coefficients
        pi_sums = list(accumulate((t.pi_coeff for t in base.terms), initial=Fraction(0)))
        one = target.value_at_one
        return beta, base, [PolyTerm(j, -pi_sums[(j + 1) // 2], one) for j in degrees]
    if beta ** degrees[-1] == 0.0:
        raise DomainError(
            f"no second-kind approximation of degree {degrees[-1]} at "
            f"beta={beta!r}: beta**{degrees[-1]} underflows to 0"
        )
    f_beta = target_value(target, beta)
    dense = base.coefficients()
    return beta, base, [
        PolyTerm(j, float_coeff=(f_beta - _horner(dense[:j], beta)) / beta**j)
        for j in degrees
    ]


def _horner(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def eval_approx(approx: TaylorApprox, x: float) -> float:
    """Evaluate the polynomial at x (Horner), with domain checks."""
    if approx.beta is not None:
        if not abs(x) <= approx.beta:  # written so that NaN fails it
            raise DomainError(
                f"second approximation valid on [-{approx.beta}, {approx.beta}], got {x!r}"
            )
    else:
        approx.target.check_domain(x)
    return _horner(approx.coefficients(), x)


class ChainViolation(NamedTuple):
    x: float
    description: str


class ChainReport(NamedTuple):
    """Result of checking the interleaved two-sided inequality chain."""

    target: SeriesTarget
    max_degree: int
    beta: float
    grid: tuple[float, ...]
    ok: bool
    violations: tuple[ChainViolation, ...]
    # per grid point: |T_j(x) - f(x)| and |second_j(x) - f(x)| for j = 0..max_degree
    first_margins: dict[float, list[float]]
    second_margins: dict[float, list[float]]


def verify_chain(
    target: SeriesTarget,
    max_degree: int,
    beta: float,
    grid: Sequence[float],
) -> ChainReport:
    """Check T_0, T_1, ..., f(x), ..., second_1, second_0 ordering on a grid.

    Where the series coefficients past the first are positive (K, D) the
    first approximations lie below the function and the second ones above;
    where they are negative (E, the area function) the directions are
    reversed.  ``_CHAIN_SLACK`` absorbs rounding at coincidence points.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    # T_j is the prefix dense[: j + 1] of T_{max_degree}; the second kind
    # of degree j is dense[:j] with its correction on top
    degrees = range(max_degree + 1)
    beta_eff, base, corrections = _second(target, max_degree + 1, beta, degrees)
    dense = base.coefficients()
    tops = [c.value() for c in corrections]
    # every coefficient past the first has the sign of c_1
    sign = 1.0 if target.coeff(1) > 0 else -1.0
    violations: list[ChainViolation] = []
    first_margins: dict[float, list[float]] = {}
    second_margins: dict[float, list[float]] = {}

    for x in grid:
        if not (0.0 < x <= beta_eff):
            raise DomainError(f"grid point {x!r} outside (0, beta]")
        f = target_value(target, x)
        tvals = [_horner(dense[: j + 1], x) for j in degrees]
        svals = [_horner(dense[:j] + [tops[j]], x) for j in degrees]
        eps = _CHAIN_SLACK * max(1.0, abs(f))
        failed = []
        # monotone approach of the first family toward f
        for j in range(max_degree):
            if sign * (tvals[j + 1] - tvals[j]) < -eps:
                failed.append(f"first-kind degrees {j},{j + 1} out of order")
        # monotone approach of the second family toward f
        for j in range(max_degree):
            if sign * (svals[j] - svals[j + 1]) < -eps:
                failed.append(f"second-kind degrees {j},{j + 1} out of order")
        # the function separates the two families
        for j in range(max_degree + 1):
            if sign * (f - tvals[j]) < -eps:
                failed.append(f"first-kind degree {j} on the wrong side of f")
            if sign * (svals[j] - f) < -eps:
                failed.append(f"second-kind degree {j} on the wrong side of f")
        violations += (ChainViolation(x, msg) for msg in failed)

        first_margins[x] = [abs(v - f) for v in tvals]
        second_margins[x] = [abs(v - f) for v in svals]

    return ChainReport(
        target, max_degree, beta_eff, tuple(grid), not violations,
        tuple(violations), first_margins, second_margins,
    )
