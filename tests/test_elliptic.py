"""Tests for the complete elliptic integrals and their series machinery."""

import itertools
import math
import types
from fractions import Fraction

import pytest

import hugelschaffer
from hugelschaffer import elliptic
from hugelschaffer.elliptic import (
    DomainError,
    SeriesTarget,
    complete_D,
    complete_E,
    complete_K,
    scale_free_area,
    series_eval,
    series_partial,
    series_sum,
    target_value,
)
from hugelschaffer.oracle import quad_elliptic
from hugelschaffer.taylor import eval_approx, first_taylor
from moduli import BULK_K, NEAR_ONE_K, SMALL_K, reference_dps

# Frozen oracle values: adaptive Simpson quadrature of the defining
# integrals at the oracle's one tolerance, 1e-11 at the root panel.
ORACLE_K_05 = 1.6857503548125963
ORACLE_E_05 = 1.4674622093394252

GRID = [i / 100.0 for i in range(5, 100, 5)]  # 0.05 .. 0.95


class TestCompleteK:
    def test_zero(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_against_frozen_oracle(self):
        assert complete_K(0.5) == pytest.approx(ORACLE_K_05, abs=1e-12)

    def test_against_live_oracle(self):
        assert abs(complete_K(0.5) - quad_elliptic("K", 0.5)) < 1e-11

    def test_against_series_at_09(self):
        series = series_eval(SeriesTarget.K, 0.9, tol=1e-16)
        assert abs(complete_K(0.9) - series) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            complete_K(1.0)
        with pytest.raises(DomainError):
            complete_K(-0.1)


class TestCompleteE:
    def test_zero(self):
        assert complete_E(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_one(self):
        assert complete_E(1.0) == 1.0

    def test_against_frozen_oracle(self):
        assert complete_E(0.5) == pytest.approx(ORACLE_E_05, abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            complete_E(1.5)
        with pytest.raises(DomainError):
            complete_E(-1e-9)


class TestCompleteD:
    def test_zero_is_quarter_pi(self):
        assert complete_D(0.0) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_ratio_form_at_half(self):
        expected = (complete_K(0.5) - complete_E(0.5)) / 0.25
        assert complete_D(0.5) == pytest.approx(expected, abs=1e-12)

    def test_series_vs_cancelling_ratio_small_k(self):
        # the ratio (K - E)/k^2 loses digits here; the AGM sum for D does not
        k = 0.1
        ratio = (complete_K(k) - complete_E(k)) / (k * k)
        assert abs(complete_D(k) - ratio) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            complete_D(1.0)


def test_identity_K_E_D_on_grid():
    for k in GRID:
        lhs = complete_K(k) - complete_E(k) - k * k * complete_D(k)
        assert abs(lhs) < 1e-12, k


def test_monotonicity_on_grid():
    ks = [complete_K(k) for k in GRID]
    es = [complete_E(k) for k in GRID]
    assert all(x < y for x, y in zip(ks, ks[1:]))
    assert all(x > y for x, y in zip(es, es[1:]))


def test_series_direct_agreement():
    for target, f in zip(SeriesTarget, (complete_K, complete_E, complete_D)):
        for k in GRID:
            if k > 0.9:
                continue
            assert abs(series_eval(target, k, 1e-16) - f(k)) < 1e-11


def _exact_dblfact_ratio_sq(i):
    dd_odd = math.factorial(2 * i) // (2**i * math.factorial(i))
    dd_even = 2**i * math.factorial(i)
    return Fraction(dd_odd, dd_even) ** 2


# each target's coefficient over ((2i-1)!!/(2i)!!)^2, written out apart
# from the multiplier table
_FACTORIAL_FORMS = {
    SeriesTarget.K: lambda i: Fraction(1, 2),
    SeriesTarget.E: lambda i: Fraction(-1, 4 * i - 2),
    SeriesTarget.D: lambda i: Fraction(2 * i + 1, 4 * (i + 1)),
    SeriesTarget.AREA: lambda i: Fraction(-1, (2 * i - 1) * (i + 1)),
}


# i = 3000 is deeper than the interpreter's recursion limit
@pytest.mark.parametrize("i", [*range(21), 3000])
def test_K_coefficient_recurrence_matches_factorials(i):
    assert SeriesTarget.K.coeff(i) == _exact_dblfact_ratio_sq(i) / 2


@pytest.mark.parametrize(
    "target", [SeriesTarget.E, SeriesTarget.D, SeriesTarget.AREA], ids=lambda t: t.value
)
@pytest.mark.parametrize("i", [*range(21), 3000])
def test_coefficient_recurrence_matches_factorials(target, i):
    assert target.coeff(i) == _exact_dblfact_ratio_sq(i) * _FACTORIAL_FORMS[target](i)


def test_spot_coefficients():
    assert SeriesTarget.K.coeff(2) == Fraction(9, 128)
    assert SeriesTarget.D.coeff(3) == Fraction(175, 4096)
    assert abs(SeriesTarget.AREA.coeff(5)) == Fraction(147, 131072)
    assert SeriesTarget.AREA.coeff(5) < 0  # negative in the sum
    # constant terms
    assert SeriesTarget.K.coeff(0) == Fraction(1, 2)
    assert SeriesTarget.E.coeff(0) == Fraction(1, 2)
    assert SeriesTarget.D.coeff(0) == Fraction(1, 4)
    assert SeriesTarget.AREA.coeff(0) == Fraction(1)


def test_series_eval_constant_term_only():
    assert series_eval(SeriesTarget.K, 0.0, 1e-3) == pytest.approx(math.pi / 2, abs=1e-16)


def test_series_E_endpoint():
    # terms shrink like 1/(4 pi i^2) at x = 1, so a term cutoff of tol
    # leaves a tail near sqrt(tol)/4; tightening tol must shrink the error
    value = series_eval(SeriesTarget.E, 1.0, tol=1e-10)
    assert abs(value - 1.0) < 1e-4
    tighter = series_eval(SeriesTarget.E, 1.0, tol=1e-12)
    assert abs(tighter - 1.0) < abs(value - 1.0)


def test_series_area_cross_method():
    # series at k = 0.5 against the closed form through K and E
    k = 0.5
    closed = target_value(SeriesTarget.AREA, k)
    assert abs(series_eval(SeriesTarget.AREA, k, 1e-14) - closed) < 1e-12


def test_K_series_diverges_at_one():
    # partial sums grow without bound, but only logarithmically:
    # S_N ~ pi/2 + (ln N)/2, so 1e6 terms reaches ~8.6
    s4 = series_partial(SeriesTarget.K, 1.0, 10**4)
    s6 = series_partial(SeriesTarget.K, 1.0, 10**6)
    assert s6 > s4 > 5.0
    assert s6 > 8.0


def test_series_domain_errors():
    with pytest.raises(DomainError):
        series_eval(SeriesTarget.K, 1.0, 1e-10)
    with pytest.raises(DomainError):
        series_eval(SeriesTarget.E, 1.5, 1e-10)
    for target in SeriesTarget:
        with pytest.raises(ValueError, match="series index must be nonnegative"):
            target.coeff(-1)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n_terms must be positive"):
                series_partial(target, 0.5, n)


def test_series_rejects_a_tolerance_that_is_not_positive(monkeypatch):
    # a NaN, zero or negative tol is never met, and summing would run to the
    # 10^7-term cap; it must be rejected before any term is formed
    def no_terms(target, x):
        raise AssertionError(f"series summed for {target.value} at {x!r}")

    monkeypatch.setattr(elliptic, "_float_terms", no_terms)
    for tol in (math.nan, 0.0, -0.0, -1e-14, -math.inf):
        for target in SeriesTarget:
            with pytest.raises(ValueError, match="tol must be positive"):
                series_sum(target, 0.5, tol)
            with pytest.raises(ValueError, match="tol must be positive"):
                series_eval(target, 0.5, tol)


def test_series_targets_are_one_enum():
    assert [t.value for t in SeriesTarget] == ["K", "E", "D", "Area"]
    assert [t.value_at_one for t in SeriesTarget] == [None, 1, None, Fraction(8, 3)]
    assert SeriesTarget.AREA.coeff(1) == Fraction(-1, 8)
    assert not hasattr(elliptic, "SeriesKind")
    # each member has one name: no module-level alias beside the enum
    for target in SeriesTarget:
        assert not hasattr(hugelschaffer, f"{target.name}_SERIES")
        assert not hasattr(elliptic, f"{target.name}_SERIES")
    # the endpoint value is the closed form's value at 1
    for target in (SeriesTarget.E, SeriesTarget.AREA):
        assert float(target.value_at_one) == target_value(target, 1.0)


@pytest.mark.parametrize("target", list(SeriesTarget), ids=lambda t: t.value)
def test_coefficients_past_the_first_have_the_sign_of_c1(target):
    # verify_chain reads which side the first kind lies on from c_1 alone
    c = target.coeffs(201)
    assert all(ci != 0 and (ci > 0) == (c[1] > 0) for ci in c[1:])


def test_series_and_first_kind_share_one_domain():
    below_one = 1.0 - 2.0**-53
    for target in SeriesTarget:
        approx = first_taylor(target, 6)
        for x in (1.0, -1.0, below_one, -below_one, 1.5, math.nan):
            # tol 10 stops after two terms, so only the domain rule decides
            accepted = []
            for evaluate in (lambda: series_eval(target, x, 10.0),
                             lambda: eval_approx(approx, x)):
                try:
                    evaluate()
                    accepted.append(True)
                except DomainError:
                    accepted.append(False)
            closed_at_one = target in (SeriesTarget.E, SeriesTarget.AREA)
            expected = abs(x) == below_one or (abs(x) == 1.0 and closed_at_one)
            assert accepted == [expected, expected], (target, x)


def test_series_cap_is_an_error_not_a_truncated_sum(monkeypatch):
    # at k = 0.999 the K terms fall below 1e-15 only after thousands of
    # terms; a cap before that must raise rather than return the sum
    monkeypatch.setattr(elliptic, "_MAX_SERIES_TERMS", 200)
    with pytest.raises(DomainError, match="did not reach tol"):
        series_sum(SeriesTarget.K, 0.999, 1e-15)
    with pytest.raises(DomainError, match="did not reach tol"):
        series_eval(SeriesTarget.K, 0.999, 1e-15)
    # a sum that converges within the cap is unchanged, and a partial sum
    # still adds exactly the terms asked for, past the cap
    assert series_sum(SeriesTarget.K, 0.5, 1e-15).terms_used < 200
    total = 0.0
    for term in itertools.islice(elliptic._float_terms(SeriesTarget.K, 0.999), 500):
        total += term
    assert series_partial(SeriesTarget.K, 0.999, 500) == total


def test_float_terms_square_each_ratio_as_a_product():
    # r_{i+1} = r_i * q * q with q = (2i + 1)/(2i + 2): one correctly rounded
    # product on every platform.  glibc's pow rounds (9593/9594)**2 an ulp
    # away from it, and from index 180268 on the K terms at x = 1 then differ.
    n = 180_300
    want = []
    r = 1.0
    for i in range(n):
        want.append(math.pi * (r * 1 / 2))
        q = (2 * i + 1) / (2 * i + 2)
        r *= q * q
    got = list(itertools.islice(elliptic._float_terms(SeriesTarget.K, 1.0), n))
    first_bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert first_bad is None, f"term {first_bad} differs"


def test_series_sum_reports_truncation():
    result = series_sum(SeriesTarget.E, 0.5, 1e-12)
    assert abs(result.last_term) < 1e-12
    assert result.terms_used > 3


def test_scale_free_area_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for k in SMALL_K + BULK_K + NEAR_ONE_K:
        with mpmath.workdps(reference_dps(k)):
            m = mpmath.mpf(k) ** 2
            ref = mpmath.mpf(4) / 3 * (
                (1 - 1 / m) * mpmath.ellipk(m) + (1 + 1 / m) * mpmath.ellipe(m)
            )
            rel = float(abs((scale_free_area(k) - ref) / ref))
        assert target_value(SeriesTarget.AREA, k) == scale_free_area(k)
        worst = max(worst, rel)
    assert worst <= 1e-15, worst


def test_complete_K_E_D_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    bounds = {"K": 1e-15, "E": 1e-15, "D": 1e-15}
    worst = dict.fromkeys(bounds, 0.0)
    for k in SMALL_K + BULK_K + NEAR_ONE_K:
        with mpmath.workdps(reference_dps(k)):
            m = mpmath.mpf(k) ** 2
            ref_K, ref_E = mpmath.ellipk(m), mpmath.ellipe(m)
            refs = {"K": ref_K, "E": ref_E, "D": (ref_K - ref_E) / m}
            values = {"K": complete_K(k), "E": complete_E(k), "D": complete_D(k)}
            for name, ref in refs.items():
                rel = float(abs((values[name] - ref) / ref))
                worst[name] = max(worst[name], rel)
    for name, bound in bounds.items():
        assert worst[name] <= bound, (name, worst[name])


def test_scale_free_area_endpoints():
    assert scale_free_area(1.0) == 8.0 / 3.0
    assert scale_free_area(0.0) == pytest.approx(math.pi, rel=1e-15)
    with pytest.raises(DomainError):
        scale_free_area(1.5)


def test_closed_forms_never_sum_series(monkeypatch):
    def no_series(target, x):
        raise AssertionError(f"series summed for {target.value} at {x!r}")

    monkeypatch.setattr(elliptic, "_float_terms", no_series)
    for k in SMALL_K + BULK_K + NEAR_ONE_K:
        for f in (complete_K, complete_E, complete_D, scale_free_area):
            f(k)


def test_agm_stops_within_ten_square_roots(monkeypatch):
    # a stop tolerance below one ulp of the mean may never be met, and the
    # pass would then run to its 40-round cap (41 square roots)
    calls = 0

    def counting_sqrt(x):
        nonlocal calls
        calls += 1
        return math.sqrt(x)

    namespace = types.SimpleNamespace(**vars(math))
    namespace.sqrt = counting_sqrt
    monkeypatch.setattr(elliptic, "math", namespace)
    rounds_seen = 0
    for k in [0.0, 0.24, *GRID, *SMALL_K, *BULK_K, *NEAR_ONE_K]:
        calls = 0
        complete_K(k)
        assert calls <= 10, (k, calls)
        if not 0.0 < k < 1.0:
            continue
        # the roots must be seen to be counted: k' takes one, and each AGM
        # round one more; the pass stops at once only where k' rounds to
        # within an ulp of 1, which takes k below about 2e-8
        assert calls >= 1, k
        kp = elliptic._complement(k)
        calls = 0
        elliptic._agm(k, kp)
        if k >= 1e-7:
            assert calls >= 1, k
            rounds_seen += 1
    assert rounds_seen > 200


def test_series_sum_stops_at_the_first_small_term_after_the_first():
    for target in SeriesTarget:
        for x in (0.0, -0.5, 0.3, 0.9, 0.99):
            for tol in (1e-16, 1e-8, 10.0):
                total, n = 0.0, 0
                for term in elliptic._float_terms(target, x):
                    total += term
                    n += 1
                    if n > 1 and abs(term) < tol:
                        break
                assert series_sum(target, x, tol) == (total, n, term)
                assert series_partial(target, x, n) == total
