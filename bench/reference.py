"""High-precision references on mpmath.

The benchmark imports mpmath; the package under test does not.  Inputs are
taken as exact binary floats, so a reference is the true value for the
egg or modulus the program was given.  Precision grows with |log10 k| to
survive the 1/k^2 cancellation of the closed form down to k = 1e-300, and
with |log10(1 - k)| near k = 1.  ``self_check`` recomputes every value at
a higher precision and reports the largest disagreement.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

BASE_DPS = 40
CHECK_EXTRA_DPS = 25


def _dps(k: float) -> int:
    k = float(k)
    extra = 0
    if 0.0 < k < 1.0:
        extra += 2 * max(0, -int(mpmath.floor(mpmath.log10(k))))
        extra += max(0, -int(mpmath.floor(mpmath.log10(1 - mpf(k)))))
    return BASE_DPS + extra


def _scale_free_area(k):
    """(4/3)[(1 - 1/k^2) K(k) + (1 + 1/k^2) E(k)], with its limits."""
    if k == 0:
        return mp.pi
    if k == 1:
        return mpf(8) / 3
    m = k * k
    inv2 = 1 / m
    return mpf(4) / 3 * ((1 - inv2) * mpmath.ellipk(m) + (1 + inv2) * mpmath.ellipe(m))


def _egg_area(a: float, b: float, w: float):
    A, B, W = mpf(a), mpf(b), mpf(w)
    q = A / W if W > A else mpf(1)
    k = q * q * W / A
    return A * B * q * _scale_free_area(k)


def _egg_k(a: float, w: float) -> float:
    return w / a if w <= a else a / w


def _value(kind: str, args: tuple):
    if kind == "area":
        return _egg_area(*args)
    (x,) = args
    m = mpf(x) ** 2
    if kind == "K":
        return mpmath.ellipk(m)
    if kind == "E":
        return mpmath.ellipe(m)
    if kind == "D":
        return mpf(mp.pi) / 4 if x == 0 else (mpmath.ellipk(m) - mpmath.ellipe(m)) / m
    if kind == "A":
        return _scale_free_area(mpf(x))
    raise ValueError(f"unknown reference kind {kind!r}")


def _modulus(kind: str, args: tuple) -> float:
    return _egg_k(args[0], args[2]) if kind == "area" else args[0]


class References:
    """Memoised references keyed by (kind, args); kinds are area, K, E, D, A."""

    def __init__(self) -> None:
        self._values: dict[tuple, mpf] = {}

    def get(self, kind: str, *args: float) -> float:
        key = (kind, args)
        if key not in self._values:
            with mp.workdps(_dps(_modulus(kind, args))):
                self._values[key] = +_value(kind, args)
        return self._values[key]

    def relative_error(self, got: float, kind: str, *args: float) -> float:
        ref = self.get(kind, *args)
        with mp.workdps(BASE_DPS):
            return float(abs((mpf(got) - ref) / ref))

    def self_check(self) -> float:
        """Largest relative gap between each value and a recomputation at
        ``CHECK_EXTRA_DPS`` more digits."""
        worst = 0.0
        for (kind, args), value in self._values.items():
            with mp.workdps(_dps(_modulus(kind, args)) + CHECK_EXTRA_DPS):
                again = _value(kind, args)
                worst = max(worst, float(abs((value - again) / again)))
        return worst
