"""Deterministic report rows, CSV/JSON writers, and small fit helpers.

CSV bodies contain no timestamps and fixed column orders, so identical
configurations reproduce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from .enclosure import qstr


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return qstr(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def fit_loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    return fit_slope([math.log(v) for v in xs], [math.log(v) for v in ys])


def fit_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of y against x (no logs)."""
    if len(xs) < 2:
        raise ValueError("need at least two points")
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    den = sum((a - mx) ** 2 for a in xs)
    return sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / den


def logspace(lo: float, hi: float, n: int) -> list[float]:
    if not (0 < lo < hi) or n < 2:
        raise ValueError("need 0 < lo < hi and n >= 2")
    a, b = math.log10(lo), math.log10(hi)
    return [10 ** (a + (b - a) * i / (n - 1)) for i in range(n)]


def write_csv(path: Path, rows: list[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: fmt(row.get(k)) for k in columns})


def write_json(path: Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    def default(obj):
        if isinstance(obj, Fraction):
            return qstr(obj)
        raise TypeError(f"cannot serialize {type(obj)}")

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")
