"""Bit-for-bit contract of the closed-form hot path.

Each line of ``golden/closed_form_bits.jsonl`` holds either an egg (a, b, w)
with every field of its ``area_exact`` breakdown and ``bounds`` certificate,
or a modulus k with K, E, D and ``scale_free_area`` there.  Floats are kept
as ``float.hex``, so a single moved ulp is a failure; a call that raises is
kept as its exception class and message.

The eggs cover the bulk, k down to 1e-300, 1 - k down to 2**-53, w = a,
both regimes, and scales that leave the normal floats.  The moduli are the
ones ``moduli.py`` gives the mpmath tests, plus both endpoints.

A change that moves these bits on purpose rewrites the file with

    PYTHONPATH=src python tests/test_closed_form_golden.py

and lists each moved value and the reason for it in CHANGES.md.  The
script prints how many lines moved and the egg or modulus of the first 20
before it writes.
"""

import json
import random
import sys
from pathlib import Path

from hugelschaffer.area import area_exact, bounds
from hugelschaffer.curve import CurveParams
from hugelschaffer.elliptic import complete_D, complete_E, complete_K, scale_free_area
from moduli import BULK_K, NEAR_ONE_K, SMALL_K

GOLDEN = Path(__file__).parent / "golden" / "closed_form_bits.jsonl"

_EXTREMES = (1e-300, 1e-150, 1.0, 1e150, 1e300)


def _eggs() -> list[tuple[float, float, float]]:
    rng = random.Random(22)
    eggs = []
    for _ in range(50):  # the bulk, both regimes
        a, b = rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)
        eggs.append((a, b, a * rng.uniform(0.05, 0.99)))
        eggs.append((a, b, a / rng.uniform(0.05, 0.99)))
    for k in SMALL_K:  # k = w/a and k = a/w down to 1e-300
        eggs.append((1.0, 1.5, k))
        eggs.append((1.0, 1.5, 1.0 / k))
    for k in NEAR_ONE_K:  # 1 - k down to 2**-53
        eggs.append((1.0, 2.0, k))
        eggs.append((k, 2.0, 1.0))
    for a in (1e-5, 0.3, 1.0, 2.0, 7.5, 1e5):  # w = a, so k = 1
        eggs.append((a, 1.0, a))
        eggs.append((a, 3.25, a))
    for a in _EXTREMES:  # extreme scales, in range and out of it
        for b in (1e-300, 1.0, 1e300):
            for w in _EXTREMES:
                eggs.append((a, b, w))
    low, high = sys.float_info.min, sys.float_info.max / 4
    for b in (low, high, low * (1.0 - 2.0**-52), high * (1.0 + 2.0**-52)):
        eggs.append((1.0, b, 0.5))
    return eggs


def _moduli() -> list[float]:
    return [0.0, *SMALL_K, *BULK_K, *NEAR_ONE_K, 1.0]


def _bits(f, *args):
    """The result of ``f(*args)`` as hex strings, or the exception it raised."""
    try:
        value = f(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, tuple):
        return [v if isinstance(v, bool) else v.hex() for v in value]
    return value.hex()


def egg_line(egg: list[str]) -> dict:
    p = CurveParams(*(float.fromhex(v) for v in egg))
    return {"egg": egg, "area_exact": _bits(area_exact, p), "bounds": _bits(bounds, p)}


def modulus_line(k: str) -> dict:
    x = float.fromhex(k)
    line = {"k": k}
    for name, f in (("K", complete_K), ("E", complete_E), ("D", complete_D), ("area", scale_free_area)):
        line[name] = _bits(f, x)
    return line


def _read() -> list[dict]:
    return [json.loads(text) for text in GOLDEN.read_text().splitlines()]


def test_the_golden_covers_its_inputs():
    lines = _read()
    eggs = [line["egg"] for line in lines if "egg" in line]
    moduli = [line["k"] for line in lines if "k" in line]
    assert eggs == [[v.hex() for v in egg] for egg in _eggs()]
    assert moduli == [k.hex() for k in _moduli()]
    # values and scale errors are both pinned, as are both answers of
    # delta_printed_consistent
    assert any(isinstance(line.get("area_exact"), str) for line in lines)
    assert any(isinstance(line.get("area_exact"), list) for line in lines)
    certificates = [line["bounds"] for line in lines if isinstance(line.get("bounds"), list)]
    assert {cert[7] for cert in certificates} == {True, False}


def test_every_value_is_unchanged_bit_for_bit():
    changed = []
    for line in _read():
        now = egg_line(line["egg"]) if "egg" in line else modulus_line(line["k"])
        if now != line:
            changed.append(json.dumps(line))
    assert not changed, f"{len(changed)} lines changed:\n" + "\n".join(changed[:20])


if __name__ == "__main__":
    # rewrite every line from the present code, first naming each line that moves
    old = _read()
    rows = [egg_line([v.hex() for v in egg]) for egg in _eggs()]
    rows += [modulus_line(k.hex()) for k in _moduli()]
    moved = [row for i, row in enumerate(rows) if i >= len(old) or old[i] != row]
    sys.stdout.write(f"{len(moved)} of {len(rows)} lines changed\n")
    for row in moved[:20]:
        key = "egg" if "egg" in row else "k"
        sys.stdout.write(f"  {key} {row[key]}\n")
    if len(moved) > 20:
        sys.stdout.write(f"  ... and {len(moved) - 20} more\n")
    GOLDEN.write_text("".join(json.dumps(row) + "\n" for row in rows))
    sys.stdout.write(f"wrote {len(rows)} lines to {GOLDEN}\n")
