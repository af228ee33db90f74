"""Moduli at both ends of the domain and in the bulk, for the mpmath tests."""

import math
import random


def _log_spaced(lo, hi, n):
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(n)]


# Both ends of the modulus domain, k down to 1e-300 and 1 - k down to one
# ulp below 1, where naive forms of K, E, D and the area cancel; and a
# seeded sample of the bulk.
SMALL_K = _log_spaced(1e-300, 0.05, 100)
NEAR_ONE_K = [1.0 - d for d in _log_spaced(2.0**-53, 1e-2, 100)]
_rng = random.Random(5)
BULK_K = [_rng.uniform(0.05, 0.99) for _ in range(100)]


def reference_dps(k):
    """mpmath digits with room for the 1/k^2 cancellation of the reference
    forms and for the logarithmic growth of K near k = 1."""
    return 40 + 2 * max(0, -math.floor(math.log10(k))) + max(
        0, -math.floor(math.log10(1.0 - k))
    )
