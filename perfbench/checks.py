"""Task outputs as comparable records, and the comparison against a reference.

Every task reduces its output to a list of records.  A record is a JSON list
whose first item names the rule that compares it with the reference record
at the same position:

- ``["q", digest]``: an exact rational; it must equal the reference.
- ``["h", digest]``: an exact structure (a generated family); it must equal
  the reference.
- ``["e", lo, hi, digest]``: a certified enclosure, with endpoints rounded
  outward to floats; it must intersect the reference.  ``digest`` is set
  when the enclosure is an exact rational point, and then two exact points
  must be equal.
- ``["f", x, rel]``: a float estimate; it must lie within ``rel`` of the
  reference, relative to the reference.
- ``["r", ratio, indicator]``: a norm-ratio estimate; it must lie within its
  own quadrature indicator of the reference, relative to the reference.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _down(x) -> float:
    f = float(x)
    if isinstance(x, Fraction) and math.isfinite(f) and Fraction(f) > x:
        f = math.nextafter(f, -math.inf)
    return f


def _up(x) -> float:
    f = float(x)
    if isinstance(x, Fraction) and math.isfinite(f) and Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return f


def exact(value: Fraction) -> list:
    value = Fraction(value)
    return ["q", _digest(f"{value.numerator}/{value.denominator}")]


def structure(payload) -> list:
    return ["h", _digest(json.dumps(payload, sort_keys=True))]


def enclosure(lo, hi) -> list:
    """Record for an enclosure with Fraction or float endpoints."""
    point = None
    if isinstance(lo, Fraction) and lo == hi:
        point = exact(lo)[1]
    return ["e", _down(lo), _up(hi), point]


def estimate(x: float, rel: float) -> list:
    return ["f", float(x), rel]


def norm_ratio(ratio: float, indicator: float) -> list:
    return ["r", float(ratio), float(indicator)]


def compare(got: list, ref: list) -> str | None:
    """None when `got` agrees with `ref`, else a one-line reason."""
    kind = got[0]
    if kind != ref[0]:
        return f"record kind {kind!r} where the reference has {ref[0]!r}"
    if kind in ("q", "h"):
        return None if got[1] == ref[1] else "differs from the reference"
    if kind == "e":
        if got[1] > ref[2] or ref[1] > got[2]:
            return f"[{got[1]!r}, {got[2]!r}] misses the reference [{ref[1]!r}, {ref[2]!r}]"
        if got[3] is not None and ref[3] is not None and got[3] != ref[3]:
            return "exact value differs from the reference"
        return None
    if kind == "f":
        if abs(got[1] - ref[1]) <= got[2] * abs(ref[1]):
            return None
        return f"{got[1]!r} is not within {got[2]} of the reference {ref[1]!r}"
    if kind == "r":
        if abs(got[1] - ref[1]) <= got[2] * abs(ref[1]):
            return None
        return f"ratio {got[1]!r} is not within its indicator {got[2]!r} of {ref[1]!r}"
    return f"unknown record kind {kind!r}"


def compare_all(got: list, ref: list) -> list[str]:
    if len(got) != len(ref):
        return [f"{len(got)} records where the reference has {len(ref)}"]
    problems = []
    for i, (g, r) in enumerate(zip(got, ref)):
        reason = compare(g, r)
        if reason is not None:
            problems.append(f"record {i}: {reason}")
    return problems
