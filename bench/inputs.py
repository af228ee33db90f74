"""Seeded inputs for the three workloads.

Every workload draws its eggs from one generator.  Each egg gets a modulus
k from its stratum, the regime w < a or w > a with equal odds, and a, b
log-uniformly; then w = k*a or w = a/k.  Eggs come in blocks of ten with a
fixed stratum pattern (eight bulk, one of each edge stratum), so that every
run sees the strata in their stated shares.

Within a stratum every coordinate (k, a, b, the regime, or a*b and a/b)
comes from a low-discrepancy sequence with a seeded start.  It covers the
stratum evenly, so the cost, the failures and the worst error of a run do
not hinge on a few lucky draws, and runs with different seeds measure the
same mix on different eggs.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

BLOCK = 10
_PATTERN = (0, 0, 0, 0, 1, 0, 0, 0, 0, 2)  # index into a workload's strata

NEAR_ONE_MIN = 2.0**-53
NEAR_ONE_MAX = 1e-2
SMALL_K_MIN = 1e-300
BULK_K = (0.05, 0.99)

# Fractional parts of the golden ratio, sqrt 2, sqrt 3 and sqrt 7: linearly
# independent over the rationals, so the points fill [0, 1)^4, and each
# coordinate alone is evenly spread too.  The golden ratio, the best step
# in one dimension, goes to coordinate 0, the modulus k, on which the cost
# of an operation depends most.
_STEPS = ((1 + math.sqrt(5)) / 2 - 1, math.sqrt(2) - 1, math.sqrt(3) - 1, math.sqrt(7) - 2)

AREA_MIX_STRATA = ("bulk", "small", "near")
ORACLE_STRATA = ("unit", "near", "large")
APPROX_TARGETS = ("K", "E", "D", "A")
CLI_UNITS_PER_BLOCK = 5  # each unit uses four area_mix eggs


class Egg(NamedTuple):
    stratum: str
    a: float
    b: float
    w: float
    k: float  # the drawn modulus; the library derives its own from a, b, w


class _Points:
    """Low-discrepancy points in [0, 1)^4 with a seeded start: a Kronecker
    sequence, each step adding ``_STEPS[i]`` to coordinate i, modulo 1."""

    def __init__(self, rng: random.Random):
        self.u = [rng.random() for _ in _STEPS]

    def __call__(self) -> list[float]:
        self.u = [(u + s) % 1.0 for u, s in zip(self.u, _STEPS)]
        return self.u


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _egg(stratum: str, k: float, a: float, b: float, u_regime: float) -> Egg:
    w = k * a if u_regime < 0.5 else a / k
    return Egg(stratum, a, b, w, k)


def _bulk_k(u: float) -> float:
    return BULK_K[0] + u * (BULK_K[1] - BULK_K[0])


def _near_one_k(u: float) -> float:
    return 1.0 - _log_uniform(u, NEAR_ONE_MIN, NEAR_ONE_MAX)


def area_mix_eggs(rng: random.Random, n_blocks: int) -> list[Egg]:
    """80% bulk k in [0.05, 0.99]; 10% k log-uniform in [1e-300, 0.05];
    10% 1 - k log-uniform in [2^-53, 1e-2]; a, b log-uniform in [0.25, 4]."""
    points = [_Points(rng) for _ in AREA_MIX_STRATA]
    draw_k = (
        _bulk_k,
        lambda u: _log_uniform(u, SMALL_K_MIN, BULK_K[0]),
        _near_one_k,
    )
    eggs = []
    for _ in range(n_blocks):
        for s in _PATTERN:
            u = points[s]()
            a = _log_uniform(u[1], 0.25, 4.0)
            b = _log_uniform(u[2], 0.25, 4.0)
            eggs.append(_egg(AREA_MIX_STRATA[s], draw_k[s](u[0]), a, b, u[3]))
    return eggs


def oracle_eggs(rng: random.Random, n_blocks: int) -> list[Egg]:
    """80% unit scale (a, b in [1, 4], bulk k, as in the verify battery);
    10% near-one k at unit scale; 10% bulk k with a*b log-uniform in
    [1e2, 1e6] and a/b log-uniform in [1/4, 4]."""
    points = [_Points(rng) for _ in ORACLE_STRATA]
    eggs = []
    for _ in range(n_blocks):
        for s in _PATTERN:
            u = points[s]()
            if s == 2:
                ab = _log_uniform(u[1], 1e2, 1e6)
                r = _log_uniform(u[2], 0.5, 2.0)
                a, b = math.sqrt(ab) * r, math.sqrt(ab) / r
                k = _bulk_k(u[0])
            else:
                a, b = 1.0 + 3.0 * u[1], 1.0 + 3.0 * u[2]
                k = _bulk_k(u[0]) if s == 0 else _near_one_k(u[0])
            eggs.append(_egg(ORACLE_STRATA[s], k, a, b, u[3]))
    return eggs


def rng_for(workload: str, seed: int) -> random.Random:
    # random.Random hashes a str seed with SHA-512, so this is stable
    # across processes whatever PYTHONHASHSEED is.
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# operation lists
#
# An operation is (label, stratum, call, egg): call is a JSON-friendly list
# the worker runs (or the CLI arguments), egg the input it is checked on.


def area_mix_ops(seed: int, n_blocks: int) -> list[tuple]:
    eggs = area_mix_eggs(rng_for("area_mix", seed), n_blocks)
    return [("area+bounds", e.stratum, ["area_mix", e.a, e.b, e.w], e) for e in eggs]


def oracle_ops(seed: int, n_blocks: int) -> list[tuple]:
    ops = []
    for e in oracle_eggs(rng_for("oracle_quad", seed), n_blocks):
        ops.append(("quad_area.simpson", e.stratum, ["quad_area", "simpson", e.a, e.b, e.w], e))
        ops.append(("quad_area.gauss", e.stratum, ["quad_area", "gauss", e.a, e.b, e.w], e))
        ops.append(("quad_elliptic.K", e.stratum, ["quad_elliptic", "K", e.k], e))
        ops.append(("quad_elliptic.E", e.stratum, ["quad_elliptic", "E", e.k], e))
    return ops


def _egg_args(e: Egg) -> list[str]:
    return ["--a", repr(e.a), "--b", repr(e.b), "--w", repr(e.w)]


# Slot 4*unit + j holds the egg of the unit's j-th command (area, bounds,
# area, bounds): small k under area in unit 0 and bounds in unit 2, near-one
# k under bounds in unit 1 and area in unit 3.
_CLI_EDGE_SLOTS = (0, 5, 11, 14)


def _cli_eggs(rng: random.Random, n_blocks: int) -> list[Egg]:
    """area_mix eggs, reordered within every five units so that the first
    two units already hold one small-k and one near-one egg, and each edge
    stratum goes once to ``area`` and once to ``bounds``."""
    eggs = []
    per_block = 4 * CLI_UNITS_PER_BLOCK
    drawn = area_mix_eggs(rng, n_blocks * per_block // BLOCK)
    for start in range(0, len(drawn), per_block):
        chunk = drawn[start : start + per_block]
        edges = [e for e in chunk if e.stratum != "bulk"]  # small, near, small, near
        bulk = iter(e for e in chunk if e.stratum == "bulk")
        eggs += [edges[_CLI_EDGE_SLOTS.index(i)] if i in _CLI_EDGE_SLOTS else next(bulk)
                 for i in range(per_block)]
    return eggs


def cli_ops(seed: int, n_blocks: int) -> list[tuple]:
    """Rotation of CLI commands, one subprocess each.

    A unit is area, bounds, area, bounds on four eggs, one approx-table,
    then the heavy sample, pi-series and verify.  Five of the eight
    commands in a unit are light, so the median falls among them; the
    heavy three make up the tail.  Sample runs on a separate bulk egg: its
    cost does not depend on the egg, and its on-curve check needs a finite
    cubic.
    """
    rng = rng_for("cli_cold", seed)
    units = n_blocks * CLI_UNITS_PER_BLOCK
    eggs = _cli_eggs(rng, n_blocks)
    sample_eggs = [e for e in area_mix_eggs(rng, n_blocks) if e.stratum == "bulk"]
    ops = []
    for u in range(units):
        for label, e in zip(("area", "bounds", "area", "bounds"), eggs[4 * u : 4 * u + 4]):
            ops.append((label, e.stratum, [label, *_egg_args(e), "--format", "json"], e))
        target = APPROX_TARGETS[u % len(APPROX_TARGETS)]
        ops.append(("approx-table", target, ["approx-table", "--target", target, "--format", "json"], None))
        s = sample_eggs[u]
        ops.append(("sample", "bulk", ["sample", *_egg_args(s), "--n", "100000", "--format", "csv"], s))
        ops.append(("pi-series", "-", ["pi-series", "--terms", "1000000", "--format", "json"], None))
        ops.append(("verify", "-", ["verify", "--format", "json"], None))
    return ops
