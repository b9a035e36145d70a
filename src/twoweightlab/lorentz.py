"""Distribution functions, Lorentz norms, Luxemburg norms and bump products.

Distribution functions of the constructed weights are exact step functions
with one of two analytic tails: a geometric high-threshold tail for w (the
plateaus shrink by 3 while thresholds grow by rho) and a low-threshold band
for sigma (thresholds shrink geometrically while plateaus saturate).  Lorentz
norms integrate phi(N(t)) over the steps exactly and close the tail either in
closed form (for phi of the shape s*(A + B*log(1/s))) or by a ratio test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import nextafter
from typing import Callable

from .enclosure import FZERO, Enclosure, FloatInterval, LN3, Q, add_bounds, log_interval
from .measures import carrier_generation
from .triadic import TriadicCell
from .weights import WeightModel

_PAD = 8
_INF = float("inf")
_NINF = -_INF


def _pad_out(lo: float, hi: float) -> FloatInterval:
    for _ in range(_PAD):
        lo = math.nextafter(lo, -_INF)
        hi = math.nextafter(hi, _INF)
    return FloatInterval(lo, hi)


def _as_float_pair(s) -> tuple[float, float]:
    if isinstance(s, FloatInterval):
        return s.lo, s.hi
    if isinstance(s, Fraction):
        fi = FloatInterval.from_fraction(s)
        return fi.lo, fi.hi
    f = float(s)
    return f, f


# ---------------------------------------------------------------------------
# Quasiconcave functions (Lorentz fundamental functions).

@dataclass
class QuasiConcaveFn:
    """Increasing phi with phi(0)=0 and phi(s)/s decreasing, on (0, 1].

    `linear_log_form` = (A, B) asserts phi(s) = s*(A + B*log(1/s)) exactly,
    which unlocks closed-form geometric tails.  `log_form_eval` is
    G(u) = phi(exp(-u))*exp(u), needed for tails whose plateaus underflow
    floats.  `slow_ratio` asserts that s -> phi(s/3)/phi(s) is decreasing as
    s decreases (true for all shipped functions; sampled at construction),
    which the ratio-test tail needs.
    """

    name: str
    point_eval: Callable[[float], float]
    linear_log_form: tuple[Fraction, Fraction] | None = None
    log_form_eval: Callable[[float], float] | None = None
    slow_ratio: bool = True

    def __post_init__(self):
        self.validate()

    def eval_interval(self, s) -> FloatInterval:
        lo, hi = _as_float_pair(s)
        if lo < 0:
            raise ValueError(f"{self.name} evaluated at negative {lo}")
        vlo = self.point_eval(lo) if lo > 0 else 0.0
        vhi = self.point_eval(hi) if hi > 0 else 0.0
        if vhi < vlo:
            vlo, vhi = vhi, vlo
        return _pad_out(vlo, vhi)

    def validate(self, grid_points: int = 60):
        grid = [10 ** (-12 + 12 * i / (grid_points - 1)) for i in range(grid_points)]
        prev_v, prev_ratio, prev_slow = -1.0, None, None
        for s in grid:
            v = self.point_eval(s)
            if not v > 0:
                raise ValueError(f"{self.name} must be positive on (0,1], got {v} at {s}")
            if v < prev_v * (1 - 1e-9):
                raise ValueError(f"{self.name} is not increasing near s={s}")
            ratio = v / s
            if prev_ratio is not None and ratio > prev_ratio * (1 + 1e-9):
                raise ValueError(f"{self.name}: phi(s)/s not decreasing near s={s}")
            if self.slow_ratio:
                slow = self.point_eval(s / 3) / v
                if prev_slow is not None and slow < prev_slow * (1 - 1e-9):
                    raise ValueError(f"{self.name}: phi(s/3)/phi(s) not decreasing as s drops")
                prev_slow = slow
            prev_v, prev_ratio = v, ratio
        if self.linear_log_form is not None:
            a, b = self.linear_log_form
            for s in (1e-9, 1e-3, 0.5, 1.0):
                want = s * (float(a) + float(b) * math.log(1 / s))
                if abs(self.point_eval(s) - want) > 1e-9 * max(1.0, abs(want)):
                    raise ValueError(f"{self.name}: linear_log_form does not match evaluator")
        if self.log_form_eval is not None:
            for s in (1e-12, 1e-6, 0.2, 1.0):
                want = self.point_eval(s) / s
                got = self.log_form_eval(math.log(1 / s))
                if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                    raise ValueError(f"{self.name}: log_form_eval does not match evaluator")


def phi0() -> QuasiConcaveFn:
    """s*(1 - log s): the fundamental function of L log L."""
    return QuasiConcaveFn("phi0", lambda s: s * (1.0 - math.log(s)),
                          linear_log_form=(Q(1), Q(1)))


def psi(r: Fraction) -> QuasiConcaveFn:
    """s*(12 - log s)*(log(12 - log s))^r, the triadic bump gauge."""
    rf = float(r)

    def ev(s: float) -> float:
        u = 12.0 - math.log(s)
        return s * u * math.log(u) ** rf

    def gev(u: float) -> float:
        v = 12.0 + u
        return v * math.log(v) ** rf

    return QuasiConcaveFn(f"psi[r={r}]", ev, log_form_eval=gev)


def fundamental_of(young: "YoungFn") -> QuasiConcaveFn:
    """s -> 1/Phi^{-1}(1/s), the fundamental function of the Orlicz space."""

    def ev(s: float) -> float:
        t, _res = young.inverse(1.0 / s)
        return 1.0 / t

    return QuasiConcaveFn(f"fundamental[{young.name}]", ev, slow_ratio=False)


# ---------------------------------------------------------------------------
# Young functions and Luxemburg norms.

@dataclass
class YoungFn:
    """Convex increasing Phi with Phi(0)=0 and Phi(t)/t -> infinity (sampled)."""

    name: str
    point_eval: Callable[[float], float]

    def __post_init__(self):
        self.validate()

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("Young functions take nonnegative arguments")
        return self.point_eval(t) if t > 0 else 0.0

    def inverse(self, y: float, tol: float = 1e-12, max_iter: int = 128) -> tuple[float, float]:
        """Right-continuous inverse sup{t : Phi(t) <= y}; returns (t, rel residual)."""
        if y < 0:
            raise ValueError("inverse of negative value")
        if y == 0:
            hi = 1.0
            while self(hi) > 0 and hi > 1e-300:
                hi /= 2
            return hi, 0.0
        lo, hi = 0.0, 1.0
        for _ in range(max_iter):
            if self(hi) > y:
                break
            lo = hi
            hi *= 2
        else:
            raise ArithmeticError(f"{self.name}: inverse bracket for {y} not found")
        if lo == 0.0:
            lo = hi / 2
            while self(lo) > y:
                hi = lo
                lo /= 2
                if lo < 1e-300:
                    break
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            if self(mid) <= y:
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol * max(lo, 1e-300):
                break
        residual = abs(self(lo) - y) / max(y, 1e-300)
        return lo, residual

    def validate(self, samples: int = 40):
        if self(0.0) != 0.0:
            raise ValueError(f"{self.name}: Phi(0) must be 0")
        ts = [10 ** (-6 + 12 * i / (samples - 1)) for i in range(samples)]
        prev = 0.0
        for t in ts:
            v = self(t)
            if v < prev * (1 - 1e-12):
                raise ValueError(f"{self.name} not increasing near t={t}")
            prev = v
        for t in ts:
            left, right, mid = self(t), self(3 * t), self(2 * t)
            if mid > (left + right) / 2 + 1e-9 * max(1.0, right):
                raise ValueError(f"{self.name} fails midpoint convexity near t={t}")
        if self(1e12) / 1e12 < 1.5 * max(self(100.0) / 100.0, 1e-300):
            raise ValueError(f"{self.name}: Phi(t)/t does not grow")


def phi_r_young(r: Fraction) -> YoungFn:
    """t*log(e+t)*(log(log(e^e+t)))^r."""
    rf = float(r)
    ee = math.exp(math.e)

    def ev(t: float) -> float:
        return t * math.log(math.e + t) * math.log(math.log(ee + t)) ** rf

    return YoungFn(f"Phi[r={r}]", ev)


def llogl_young() -> YoungFn:
    """t*(log t)^+ ; vanishes on [0,1] but is a valid gauge for L log L."""
    return YoungFn("LlogL", lambda t: t * math.log(t) if t > 1.0 else 0.0)


def luxemburg_norm(atoms: list[tuple], young: YoungFn, tol: float = 1e-12) -> float:
    """Luxemburg norm of a nonnegative step function on a probability space.

    `atoms` lists (value, measure) pairs; measures must be nonnegative with
    total <= 1 (the remainder is where the function vanishes).  The bracket
    and the bisection run until they close, however far the largest value
    lies from the norm; ArithmeticError if a float cannot be doubled, halved
    or split any further before they do.
    """
    pairs = [(float(v), float(m)) for v, m in atoms if float(m) > 0 and float(v) > 0]
    if not pairs:
        return 0.0
    total = sum(m for _, m in pairs)
    if total > 1 + 1e-9:
        raise ValueError(f"total measure {total} exceeds 1")

    def g(lam: float) -> float:
        return sum(m * young(v / lam) for v, m in pairs)

    hi = max(v for v, _ in pairs)
    while g(hi) > 1.0:
        hi *= 2
        if hi == _INF:
            raise ArithmeticError("Luxemburg bracketing failed (upper)")
    lo = hi
    while True:
        cand = lo / 2
        if cand <= 0:
            raise ArithmeticError("Luxemburg bracketing failed (lower)")
        if g(cand) > 1.0:
            break
        lo = cand
    lo = lo / 2
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ArithmeticError(f"Luxemburg bisection cannot reach tol={tol}")
        if g(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * hi:
            return hi


# ---------------------------------------------------------------------------
# Exact step distributions.

@dataclass(frozen=True)
class WTail:
    """For l >= l0: plateau coeff*3^-l on thresholds [rho^l, rho^(l+1))."""

    l0: int
    rho: Fraction
    coeff: Fraction


@dataclass(frozen=True)
class BandTail:
    """On (0, t_end): plateau trapped in [n_lo, n_hi] (low-threshold band)."""

    t_end: Fraction
    n_lo: Fraction
    n_hi: Fraction


@dataclass(frozen=True)
class DistributionSteps:
    """Right-continuous decreasing step function t -> N(t), exact rationals.

    `steps` are contiguous (t0, t1, N) pieces in increasing t; beyond the
    last listed piece N is 0 unless `tail` is a WTail continuing upward; a
    BandTail covers (0, t_end) below the first listed piece.
    """

    steps: tuple[tuple[Fraction, Fraction, Fraction], ...]
    tail: WTail | BandTail | None = None

    def __post_init__(self):
        prev_t = None
        prev_n = None
        for t0, t1, n in self.steps:
            if t0 >= t1 or n < 0:
                raise ValueError("malformed distribution step")
            if prev_t is not None:
                if t0 != prev_t:
                    raise ValueError("distribution steps must be contiguous")
                if n > prev_n:
                    raise ValueError("distribution must be decreasing")
            prev_t, prev_n = t1, n
        if isinstance(self.tail, WTail):
            start = self.tail.rho ** self.tail.l0
            if self.steps and self.steps[-1][1] != start:
                raise ValueError("WTail must continue the last step")
        if isinstance(self.tail, BandTail):
            if self.steps and self.steps[0][0] != self.tail.t_end:
                raise ValueError("BandTail must end where the steps begin")

    def layer_cake(self) -> Enclosure:
        """Integral of N over t; equals the mean of the function (layer cake)."""
        total = Enclosure.exact(0)
        for t0, t1, n in self.steps:
            total = total + Enclosure.exact(n * (t1 - t0))
        t = self.tail
        if isinstance(t, WTail):
            q = t.rho / 3
            s0 = q ** t.l0 / (1 - q)
            total = total + Enclosure.exact((t.rho - 1) * t.coeff * s0)
        elif isinstance(t, BandTail):
            total = total + Enclosure(t.n_lo * t.t_end, t.n_hi * t.t_end)
        return total


def distribution(model: WeightModel, carrier: TriadicCell, which: str = "w",
                 band_levels: int = 24) -> DistributionSteps:
    """Exact distribution of w or sigma over a carrier cell (normalized measure)."""
    gen = carrier_generation(model, carrier)
    k = model.k
    rho = model.rho
    n0 = Q(3, 2) / 3 ** k
    if which == "w":
        steps = ((Q(0), rho ** (gen + 1), n0),)
        return DistributionSteps(steps, WTail(gen + 1, rho, n0 * 3 ** gen))
    if which != "sigma":
        raise ValueError("distribution supports which in {w, sigma}")
    if not model.b.is_exact:
        raise ValueError("sigma distribution needs an exact dual value (integer p)")
    b = model.b.lo
    top = gen + 1 + band_levels
    steps = []
    for l in range(top, gen, -1):
        steps.append((b ** (l + 1), b ** l, n0 * (1 - Q(3) ** (gen - l))))
    return DistributionSteps(tuple(steps),
                             BandTail(b ** (top + 1), n0 * (1 - Q(3) ** (gen - top)), n0))


def blowup_distribution(model: WeightModel) -> DistributionSteps:
    """Distribution of w over the probe window R = I(J) u K' (generation 1).

    R glues the generation-1 support cell to the adjacent carrier tile inside
    the core, so N is half the indicator plateau plus half the tile's own
    distribution.
    """
    k = model.k
    rho = model.rho
    n0 = Q(3, 2) / 3 ** k
    steps = (
        (Q(0), rho, Q(1, 2) * (1 + n0)),
        (rho, rho ** 2, Q(1, 2) * n0),
    )
    return DistributionSteps(steps, WTail(2, rho, Q(9, 4) / 3 ** k))


# ---------------------------------------------------------------------------
# Lorentz norms over step distributions.

def lorentz_norm(dist: DistributionSteps, phi: QuasiConcaveFn,
                 rel_tol: float = 1e-9, max_terms: int = 400_000) -> Enclosure:
    """Enclosure of the Lorentz norm: integral of phi(N(t)) dt over the steps."""
    acc = FZERO
    for t0, t1, n in dist.steps:
        if n == 0:
            continue
        acc = acc + phi.eval_interval(n) * FloatInterval.from_fraction(t1 - t0)
    tail = dist.tail
    if isinstance(tail, BandTail):
        lo = phi.eval_interval(tail.n_lo).lo if tail.n_lo > 0 else 0.0
        hi = phi.eval_interval(tail.n_hi).hi
        acc = acc + FloatInterval(lo, hi) * FloatInterval.from_fraction(tail.t_end)
    elif isinstance(tail, WTail):
        acc = acc + _wtail_norm(tail, phi, rel_tol, max_terms)
    return acc.to_enclosure()


def _wtail_norm(tail: WTail, phi: QuasiConcaveFn, rel_tol: float, max_terms: int) -> FloatInterval:
    # sum over l >= l0 of (rho-1) rho^l phi(C 3^-l); with G(u) = phi(e^-u) e^u and
    # u_l = log(1/C) + l log 3 this is (rho-1) C sum q^l G(u_l), q = rho/3 < 1.
    if phi.linear_log_form is not None:
        return _wtail_closed_form(tail, phi)
    g = phi.log_form_eval
    if g is None or not phi.slow_ratio:
        raise ValueError(f"{phi.name} cannot certify a geometric tail")
    rho, coeff, l0 = tail.rho, tail.coeff, tail.l0
    q = rho / 3
    q_fi = FloatInterval.from_fraction(q)
    q_lo, q_hi = q_fi.lo, q_fi.hi
    lead = FloatInterval.from_fraction((rho - 1) * coeff * q ** l0)
    lead_lo, lead_hi = lead.lo, lead.hi
    u0 = (-log_interval(coeff)).mid + l0 * LN3.mid
    ln3 = LN3.mid
    # The loop runs on (lo, hi) floats with the rounding of `add_bounds` and
    # `mul_bounds` written out.  Every factor is positive (G >= phi(1) > 0 on
    # the tail), so a product's least candidate is lo*lo and its greatest
    # hi*hi.  Each G(u) is padded by 1e-12 relative, then 8 ulp outward.
    acc_lo = acc_hi = 0.0
    qp_lo = qp_hi = 1.0
    for count in range(max_terms):
        u = u0 + count * ln3
        v = g(u)
        pad = 1e-12 * abs(v) + 5e-324
        g_lo = v - pad
        g_hi = v + pad
        g_lo = nextafter(nextafter(nextafter(nextafter(g_lo, _NINF), _NINF), _NINF), _NINF)
        g_lo = nextafter(nextafter(nextafter(nextafter(g_lo, _NINF), _NINF), _NINF), _NINF)
        g_hi = nextafter(nextafter(nextafter(nextafter(g_hi, _INF), _INF), _INF), _INF)
        g_hi = nextafter(nextafter(nextafter(nextafter(g_hi, _INF), _INF), _INF), _INF)
        if not g_lo <= g_hi:
            raise ValueError(f"{phi.name}: G({u!r}) = {v!r} is not a finite number")
        t_lo = nextafter(lead_lo * qp_lo, _NINF)
        t_hi = nextafter(lead_hi * qp_hi, _INF)
        t_lo = nextafter(t_lo * g_lo, _NINF)
        t_hi = nextafter(t_hi * g_hi, _INF)
        if count % 32 == 31:
            # term ratio is q*G(u+log3)/G(u): at least q by quasiconcavity and
            # decreasing toward q under slow_ratio, so it caps all later ratios
            v = g(u + ln3)
            n_hi = v + (1e-12 * abs(v) + 5e-324)
            n_hi = nextafter(nextafter(nextafter(nextafter(n_hi, _INF), _INF), _INF), _INF)
            n_hi = nextafter(nextafter(nextafter(nextafter(n_hi, _INF), _INF), _INF), _INF)
            kappa = q_hi * n_hi / g_lo
            if kappa < 1.0:
                tail_lo = t_lo / (1.0 - q_lo)
                tail_hi = t_hi / (1.0 - kappa)
                if tail_hi - tail_lo <= rel_tol * max(acc_lo + tail_lo, 1e-300):
                    return FloatInterval(*add_bounds(acc_lo, acc_hi, tail_lo, tail_hi))
        acc_lo = nextafter(acc_lo + t_lo, _NINF)
        acc_hi = nextafter(acc_hi + t_hi, _INF)
        qp_lo = nextafter(qp_lo * q_lo, _NINF)
        qp_hi = nextafter(qp_hi * q_hi, _INF)
    raise ArithmeticError(f"Lorentz tail did not close within {max_terms} terms")


def _wtail_closed_form(tail: WTail, phi: QuasiConcaveFn) -> FloatInterval:
    # sum over l>=l0 of (rho-1) rho^l phi(C 3^-l) with phi(s)=s(A+B log(1/s))
    a, b = phi.linear_log_form
    rho, c, l0 = tail.rho, tail.coeff, tail.l0
    q = rho / 3
    s0 = q ** l0 / (1 - q)
    s1 = q ** l0 * (Q(l0) / (1 - q) + q / (1 - q) ** 2)
    lead = FloatInterval.from_fraction((rho - 1) * c)
    log_inv_c = -log_interval(c)
    const_part = FloatInterval.from_fraction(a * s0) + log_inv_c * FloatInterval.from_fraction(b * s0)
    lin_part = LN3 * FloatInterval.from_fraction(b * s1)
    return lead * (const_part + lin_part)


def rearrangement_atoms(dist: DistributionSteps, value_cap_terms: int = 200) -> list[tuple]:
    """Value/measure atoms of the function behind a step distribution.

    A WTail is expanded for `value_cap_terms` levels; the leftover measure is
    assigned to the next threshold value, slightly undervaluing the top tail
    (callers needing certified results must not rely on the truncated atoms).
    """
    atoms = []
    steps = list(dist.steps)
    for i, (t0, t1, n) in enumerate(steps):
        n_next = steps[i + 1][2] if i + 1 < len(steps) else None
        if n_next is None:
            if isinstance(dist.tail, WTail):
                n_next = dist.tail.coeff * Q(1, 3 ** dist.tail.l0)
            else:
                n_next = Q(0)
        drop = n - n_next
        if drop > 0 and t1 > 0:
            atoms.append((t1, drop))
    t = dist.tail
    if isinstance(t, WTail):
        n_cur = t.coeff * Q(1, 3 ** t.l0)
        for l in range(t.l0, t.l0 + value_cap_terms):
            n_next = n_cur / 3
            atoms.append((t.rho ** (l + 1), n_cur - n_next))
            n_cur = n_next
        atoms.append((t.rho ** (t.l0 + value_cap_terms + 1), n_cur))
    return atoms


def step_function_distribution(atoms: list[tuple]) -> DistributionSteps:
    """Distribution steps of a finite nonnegative step function given as atoms."""
    clean = [(Fraction(v), Fraction(m)) for v, m in atoms if m > 0]
    total = sum(m for _, m in clean)
    if total > 1:
        raise ValueError("atoms exceed a probability space")
    by_value: dict[Fraction, Fraction] = {}
    for v, m in clean:
        by_value[v] = by_value.get(v, Q(0)) + m
    values = sorted(v for v in by_value if v > 0)
    steps = []
    prev_t = Q(0)
    n = sum(by_value[v] for v in values)
    for v in values:
        steps.append((prev_t, v, n))
        n -= by_value[v]
        prev_t = v
    return DistributionSteps(tuple(steps))


def rearrangement_lorentz(atoms: list[tuple], phi: QuasiConcaveFn) -> FloatInterval:
    """Stieltjes form of the Lorentz norm: sum f*(s) dphi(s) for a step function."""
    clean = sorted(((Fraction(v), Fraction(m)) for v, m in atoms if m > 0 and v > 0),
                   key=lambda t: t[0], reverse=True)
    acc = FZERO
    cum = Q(0)
    for v, m in clean:
        lo = phi.eval_interval(cum) if cum > 0 else FZERO
        cum += m
        hi = phi.eval_interval(cum)
        acc = acc + FloatInterval.from_fraction(v) * (hi - lo)
    return acc


# ---------------------------------------------------------------------------
# Appendix-style numeric comparisons.

def fundamental_compare(young: YoungFn, gauge: QuasiConcaveFn, s_grid: list[float],
                        tol: float = 1e-12) -> dict:
    """Window of gauge(s) * Phi^{-1}(1/s) over a grid in (0, 1]."""
    rows = []
    worst_res = 0.0
    for s in s_grid:
        if not 0 < s <= 1:
            raise ValueError(f"grid point {s} outside (0,1]")
        y, res = young.inverse(1.0 / s, tol=tol)
        worst_res = max(worst_res, res)
        product = gauge.point_eval(s) * y
        rows.append({"s": s, "inverse": y, "product": product, "residual": res})
    products = [r["product"] for r in rows]
    return {"min": min(products), "max": max(products),
            "max_residual": worst_res, "rows": rows}


def series_ratio(r: Fraction, x: float, mode: str = "first", tol: float = 1e-9,
                 max_terms: int = 2_000_000) -> dict:
    """Partial power-log series against its closed-form majorant.

    mode "first": sum (log n)^r x^n  vs  (-log(1-x))^r / (1-x)
    mode "second": sum n (log n)^r x^n  vs  (-log(1-x))^r / (1-x)^2
    The geometric tail certificate must close below `tol`, else this raises.
    """
    if mode not in ("first", "second"):
        raise ValueError("mode must be first|second")
    if not 0 < x < 1:
        raise ValueError("x must lie in (0,1)")
    rf = float(r)
    if not 1 < rf < 2:
        raise ValueError("exponent r must lie in (1,2)")
    partial = 0.0
    n = 2
    tail_bound = None
    while n < max_terms:
        term = math.log(n) ** rf * x ** n
        if mode == "second":
            term *= n
        partial += term
        kappa = x * (math.log(n + 1) / math.log(n)) ** rf
        if mode == "second":
            kappa *= (n + 1) / n
        if kappa < 1.0:
            nxt = math.log(n + 1) ** rf * x ** (n + 1)
            if mode == "second":
                nxt *= n + 1
            bound = nxt / (1.0 - kappa)
            if bound < tol:
                tail_bound = bound
                break
        n += 1
    if tail_bound is None:
        raise ArithmeticError(f"series tail not closed below {tol} within {max_terms} terms")
    major = (-math.log(1.0 - x)) ** rf / (1.0 - x)
    if mode == "second":
        major /= 1.0 - x
    return {"partial": partial, "tail_bound": tail_bound, "terms": n,
            "majorant": major, "ratio": (partial + tail_bound) / major}


# ---------------------------------------------------------------------------
# Bump products and the blow-up sweep.

def bump_product(model: WeightModel, cell: TriadicCell | str, norm: str = "entropyPhi0",
                 direction: str = "forward", rel_tol: float = 1e-9) -> Enclosure:
    """Bumped two-weight product over a carrier cell or the probe window "Rk".

    forward: ||w||_{norm} * <sigma>; dual: ||sigma||_{norm} * <w>.
    """
    if direction not in ("forward", "dual"):
        raise ValueError("direction must be forward|dual")
    if norm == "entropyPhi0":
        gauge = phi0()
    elif norm == "lorentzPsi":
        gauge = psi(model.params.r)
    elif norm == "orliczPhi":
        gauge = None
    else:
        raise ValueError(f"unknown norm {norm!r}")
    if cell == "Rk":
        if direction == "dual":
            raise ValueError("the probe window ships the forward product only")
        dist = blowup_distribution(model)
        other_avg = blowup_sigma_average(model)
    else:
        gen = carrier_generation(model, cell)
        which, other = ("w", "sigma") if direction == "forward" else ("sigma", "w")
        dist = distribution(model, cell, which)
        other_avg = (model.avg_sigma_carrier(gen) if other == "sigma"
                     else Enclosure.exact(model.avg_w_carrier(gen)))
    if gauge is not None:
        norm_enc = lorentz_norm(dist, gauge, rel_tol=rel_tol)
    else:
        atoms = rearrangement_atoms(dist)
        value = luxemburg_norm(atoms, phi_r_young(model.params.r))
        norm_enc = Enclosure.hull(Q(value) * Q(1 - 1e-6), Q(value) * Q(1 + 1e-6))
    return norm_enc * other_avg


def blowup_sigma_average(model: WeightModel) -> Enclosure:
    # <sigma> over R = I(J) u K': (sigma(I) + sigma(K')) / (2 |I|)
    return model.b * (1 + model.c * Q(1, 3 ** model.k)) * Q(1, 2)


def blowup_w_average(model: WeightModel) -> Fraction:
    return model.rho


def blowup_suite(models: list[WeightModel], rel_tol: float = 1e-9) -> list[dict]:
    """Per-k blow-up table: B_k = k^-r * ||w||*_{R_k} * <sigma>_{R_k}."""
    rows = []
    for m in models:
        dist = blowup_distribution(m)
        norm_r = lorentz_norm(dist, phi0(), rel_tol=rel_tol)
        avg_w = blowup_w_average(m)
        avg_s = blowup_sigma_average(m)
        ap = Enclosure.exact(avg_w) * avg_s
        bk = m.scale * norm_r * avg_s
        k1 = distribution(m, m.kcell(1, 0), "w")
        norm_k1 = lorentz_norm(k1, phi0(), rel_tol=rel_tol)
        rows.append({
            "k": m.k,
            "norm_R": norm_r,
            "norm_K1": norm_k1,
            "avg_w_R": avg_w,
            "avg_sigma_R": avg_s,
            "ap_R": ap,
            "B_k": bk,
            "halving_ok": norm_r.hi * 2 >= norm_k1.lo,
            "entropy_ratio_R": float(norm_r.mid) / (3 ** m.k * float(avg_w)),
        })
    return rows


def entropy_ratio(model: WeightModel, gen: int = 0, rel_tol: float = 1e-9) -> Enclosure:
    """||w||*_K / (3^k <w>_K) over a generation-`gen` carrier; gen-independent."""
    dist = distribution(model, model.kcell(gen, 0), "w")
    norm = lorentz_norm(dist, phi0(), rel_tol=rel_tol)
    return norm * Q(1, 3 ** model.k * model.rho ** gen)
