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
from functools import cached_property, lru_cache
from math import nextafter
from typing import Callable

from .enclosure import FZERO, Enclosure, FloatInterval, LN3, Q, add_bounds, log_interval
from .measures import carrier_generation
from .triadic import TriadicCell
from .weights import WeightModel

_PAD = 8
_INF = float("inf")
_NINF = -_INF
_ROOT_TOL = 1e-12  # relative width at which `_bracket` stops
_ATOM_LEVELS = 200  # w-tail levels expanded into atoms
_SERIES_TERMS = 2_000_000  # terms of `series_ratio` before it gives up


def _pad_out(lo: float, hi: float) -> FloatInterval:
    for _ in range(_PAD):
        lo = math.nextafter(lo, -_INF)
        hi = math.nextafter(hi, _INF)
    return FloatInterval(lo, hi)


# ---------------------------------------------------------------------------
# Quasiconcave functions (Lorentz fundamental functions).

@dataclass
class QuasiConcaveFn:
    """Increasing phi with phi(0)=0 and phi(s)/s decreasing, on (0, 1].

    `linear_log_form` = (A, B) asserts phi(s) = s*(A + B*log(1/s)) exactly,
    which unlocks closed-form geometric tails.  `log_form_eval` is
    G(u) = phi(exp(-u))*exp(u), needed for tails whose plateaus underflow
    floats; a gauge that has it must also have s -> phi(s/3)/phi(s)
    decreasing as s decreases (sampled at construction), which the
    ratio-test tail needs.  `log_form_derivs` is u -> (G'(u), G''(u)), with
    G'' nan below some u where the gauge makes no claim; from the first u
    where G'' is a number it asserts that G'' is positive and nonincreasing
    (sampled at construction, with G' and G'' against differences of G and
    G'), which lets the tail sum blocks of terms there by a second-order
    Taylor bound.
    """

    name: str
    point_eval: Callable[[float], float]
    linear_log_form: tuple[Fraction, Fraction] | None = None
    log_form_eval: Callable[[float], float] | None = None
    log_form_derivs: Callable[[float], tuple[float, float]] | None = None

    def __post_init__(self):
        self.validate()

    def eval_interval(self, s: Fraction) -> FloatInterval:
        bounds = FloatInterval.from_fraction(s)
        lo, hi = bounds.lo, bounds.hi
        if lo < 0:
            raise ValueError(f"{self.name} evaluated at negative {lo}")
        vlo = self.point_eval(lo) if lo > 0 else 0.0
        vhi = self.point_eval(hi) if hi > 0 else 0.0
        if vhi < vlo:
            vlo, vhi = vhi, vlo
        return _pad_out(vlo, vhi)

    def validate(self):
        grid = [10 ** (-12 + 12 * i / 59) for i in range(60)]
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
            if self.log_form_eval is not None:
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
        if self.log_form_derivs is not None:
            g, derivs = self.log_form_eval, self.log_form_derivs
            if g is None:
                raise ValueError(f"{self.name}: log_form_derivs needs log_form_eval")
            # u up to 1e12, past the ~3e10 that a k = 20 tail reaches at 1e-9.
            # Over [u, u + h], a difference quotient of G lies between G'(u)
            # and G'(u + h), and one of G' between G''(u + h) and G''(u).
            prev_d2 = _INF
            for u in [0.0] + [10 ** (-2 + i / 2) for i in range(29)]:
                h = 1e-3 * (1.0 + u)
                d1, d2 = derivs(u)
                e1, e2 = derivs(u + h)
                checks = [((g(u + h) - g(u)) / h, d1, e1)]
                if not math.isnan(d2) or prev_d2 < _INF:
                    if not (0 < e2 <= d2 * (1 + 1e-9) and d2 <= prev_d2 * (1 + 1e-9)):
                        raise ValueError(f"{self.name}: G'' is not positive and "
                                         f"nonincreasing near u={u}")
                    checks.append(((e1 - d1) / h, e2, d2))
                    prev_d2 = e2
                for slope, lo, hi in checks:
                    if not lo * (1 - 1e-6) <= slope <= hi * (1 + 1e-6):
                        raise ValueError(f"{self.name}: log_form_derivs does not match "
                                         f"log_form_eval near u={u}")


# gauges are built and validated once; nothing mutates them after that
@lru_cache(maxsize=None)
def phi0() -> QuasiConcaveFn:
    """s*(1 - log s): the fundamental function of L log L."""
    return QuasiConcaveFn("phi0", lambda s: s * (1.0 - math.log(s)),
                          linear_log_form=(Q(1), Q(1)))


@lru_cache(maxsize=None, typed=True)
def psi(r: Fraction) -> QuasiConcaveFn:
    """s*(12 - log s)*(log(12 - log s))^r, the triadic bump gauge."""
    rf = float(r)

    def ev(s: float) -> float:
        u = 12.0 - math.log(s)
        return s * u * math.log(u) ** rf

    def gev(u: float) -> float:
        v = 12.0 + u
        return v * math.log(v) ** rf

    # with L = log v >= log 12: G' = L^(r-1) (L + r), G'' = r L^(r-2) (L + r - 1) / v > 0
    # and G''' = r L^(r-3) / v^2 ((r-1)(r-2) - L^2), which is negative once L^2 > (r-1)(r-2)
    # (always when (r-1)(r-2) < (log 12)^2); below that G'' is left nan
    l_peak = math.sqrt(max(float((r - 1) * (r - 2)), 0.0)) * (1 + 1e-9)

    def dev(u: float) -> tuple[float, float]:
        v = 12.0 + u
        lg = math.log(v)
        p = lg ** (rf - 2.0)
        return p * lg * (lg + rf), rf * p * (lg + rf - 1.0) / v if lg > l_peak else math.nan

    return QuasiConcaveFn(f"psi[r={r}]", ev, log_form_eval=gev, log_form_derivs=dev)


def fundamental_of(young: "YoungFn") -> QuasiConcaveFn:
    """s -> 1/Phi^{-1}(1/s), the fundamental function of the Orlicz space."""
    return _Fundamental(young)


class _Fundamental(QuasiConcaveFn):
    def __init__(self, young: "YoungFn"):
        def ev(s: float) -> float:
            t, _res = young.inverse(1.0 / s)
            return 1.0 / t

        self.young = young
        super().__init__(f"fundamental[{young.name}]", ev)

    def eval_interval(self, s: Fraction) -> FloatInterval:
        # phi(s) = 1/Phi^{-1}(1/s) increases in s, and Phi(t_lo) <= y < Phi(t_hi):
        # the lower end is 1/t_hi at y = 1/s_lo rounded up, the upper 1/t_lo at
        # y = 1/s_hi rounded down, each rounded outward
        if s <= 0:
            return super().eval_interval(s)
        bounds = FloatInterval.from_fraction(s)
        y_hi, y_lo = nextafter(1.0 / bounds.lo, _INF), nextafter(1.0 / bounds.hi, _NINF)
        t_hi = _bracket(lambda t: self.young(t) > y_hi, 1.0)[1]
        t_lo = _bracket(lambda t: self.young(t) > y_lo, 1.0)[0]
        return _pad_out(nextafter(1.0 / t_hi, _NINF), nextafter(1.0 / t_lo, _INF))


# ---------------------------------------------------------------------------
# Young functions and Luxemburg norms.

def _bracket(above: Callable[[float], bool], start: float) -> tuple[float, float]:
    """(lo, hi) with above(lo) false, above(hi) true and hi - lo <= _ROOT_TOL*lo.

    `above` is false below a boundary in (0, inf) and true above it.  The
    search doubles or halves from `start` until the predicate flips, then
    bisects; ArithmeticError if a float cannot be doubled, halved or split
    any further before the bracket closes.
    """
    lo = hi = start
    if above(start):
        while above(lo):
            hi, lo = lo, lo / 2
            if lo == 0.0:
                raise ArithmeticError(f"bracket cannot reach tol={_ROOT_TOL}: no lower end")
    else:
        while not above(hi):
            lo, hi = hi, hi * 2
            if hi == _INF:
                raise ArithmeticError(f"bracket cannot reach tol={_ROOT_TOL}: no upper end")
    while hi - lo > _ROOT_TOL * lo:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ArithmeticError(f"bisection cannot reach tol={_ROOT_TOL}")
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


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

    def inverse(self, y: float) -> tuple[float, float]:
        """Right-continuous inverse sup{t : Phi(t) <= y} of y > 0; returns
        (t, rel residual)."""
        if y <= 0:
            raise ValueError(f"inverse of nonpositive value {y}")
        t, _ = _bracket(lambda t: self(t) > y, 1.0)
        return t, abs(self(t) - y) / y

    def validate(self):
        if self(0.0) != 0.0:
            raise ValueError(f"{self.name}: Phi(0) must be 0")
        ts = [10 ** (-6 + 12 * i / 39) for i in range(40)]
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


def luxemburg_norm(atoms: list[tuple], young: YoungFn) -> float:
    """Luxemburg norm of a nonnegative step function on a probability space.

    `atoms` lists (value, measure) pairs; measures must be nonnegative with
    total <= 1 (the remainder is where the function vanishes).  The search
    starts at the largest value and closes however far that lies from the
    norm (see `_bracket`).
    """
    pairs = [(float(v), float(m)) for v, m in atoms if float(m) > 0 and float(v) > 0]
    if not pairs:
        return 0.0
    total = sum(m for _, m in pairs)
    if total > 1 + 1e-9:
        raise ValueError(f"total measure {total} exceeds 1")

    def g(lam: float) -> float:
        return sum(m * young(v / lam) for v, m in pairs)

    return _bracket(lambda lam: g(lam) <= 1.0, max(v for v, _ in pairs))[1]


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
    BandTail covers (0, t_end) below the first listed piece.  Frozen and
    made of tuples, so `distribution` shares one per (generation, which).
    `widths` bound each step's t1 - t0, then a BandTail's t_end, in floats
    rounded outward; cached on first read, they are no field of `==` or `hash`.
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

    @cached_property
    def widths(self) -> tuple[FloatInterval, ...]:
        ends = [t1 - t0 for t0, t1, _ in self.steps]
        if isinstance(self.tail, BandTail):
            ends.append(self.tail.t_end)
        return tuple(FloatInterval.from_fraction(x) for x in ends)


def distribution(model: WeightModel, carrier: TriadicCell, which: str = "w") -> DistributionSteps:
    """Exact distribution of w or sigma over a carrier cell (normalized measure).

    It depends on the carrier's generation alone, so each (generation, which)
    is built once, on first use, and kept in the model's own namespace; every
    later call returns that same immutable object.  A call that raises keeps
    nothing.
    """
    gen = carrier_generation(model, carrier)
    if which not in ("w", "sigma"):
        raise ValueError("distribution supports which in {w, sigma}")
    if which == "sigma" and not model.b.is_exact:
        raise ValueError("sigma distribution needs an exact dual value (integer p)")
    cache = vars(model).setdefault("_distributions", {})
    dist = cache.get((gen, which))
    if dist is None:
        dist = cache[gen, which] = _build_distribution(model, gen, which)
    return dist


def _build_distribution(model: WeightModel, gen: int, which: str) -> DistributionSteps:
    rho = model.rho
    n0 = Q(3, 2) / 3 ** model.k
    if which == "w":
        steps = ((Q(0), rho ** (gen + 1), n0),)
        return DistributionSteps(steps, WTail(gen + 1, rho, n0 * 3 ** gen))
    b = model.b.lo
    top = gen + 1 + 24  # sigma levels listed as steps before the band tail
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

def lorentz_norm(dist: DistributionSteps, phi: QuasiConcaveFn, rel_tol: float = 1e-9) -> Enclosure:
    """Enclosure of the Lorentz norm: integral of phi(N(t)) dt over the steps.

    Step widths are `dist.widths`, float bounds cached on the shared, frozen
    distribution, so each is rounded from its rational once, not per norm.
    A w tail without a closed form is summed in steps of one term or, for a
    gauge with `log_form_derivs`, of one block of terms, at most 400,000
    steps; ArithmeticError says when the tail did not close within them.
    """
    acc = FZERO
    for (_, _, n), width in zip(dist.steps, dist.widths):
        if n == 0:
            continue
        acc = acc + phi.eval_interval(n) * width
    tail = dist.tail
    if isinstance(tail, BandTail):
        lo = phi.eval_interval(tail.n_lo).lo if tail.n_lo > 0 else 0.0
        hi = phi.eval_interval(tail.n_hi).hi
        acc = acc + FloatInterval(lo, hi) * dist.widths[-1]
    elif isinstance(tail, WTail):
        acc = acc + _wtail_norm(tail, phi, rel_tol, 400_000)
    return acc.to_enclosure()


def _g_bound(v: float) -> tuple[float, float]:
    # a value v of G, G' or G'' padded outward: 1e-12 relative, then 8 ulp;
    # nan, which no comparison accepts, stays nan
    pad = 1e-12 * abs(v) + 5e-324
    lo = nextafter(nextafter(nextafter(nextafter(v - pad, _NINF), _NINF), _NINF), _NINF)
    hi = nextafter(nextafter(nextafter(nextafter(v + pad, _INF), _INF), _INF), _INF)
    return (nextafter(nextafter(nextafter(nextafter(lo, _NINF), _NINF), _NINF), _NINF),
            nextafter(nextafter(nextafter(nextafter(hi, _INF), _INF), _INF), _INF))


# h = log 3, the step of u between terms, and h^2/2
_H_LO, _H_HI = LN3.lo, LN3.hi
_HH_LO, _HH_HI = nextafter(_H_LO * _H_LO, _NINF) / 2, nextafter(_H_HI * _H_HI, _INF) / 2

# (q^m, S0(m), S1(m), S2(m)) with Sj(m) = sum_{i<m} i^j q^i, each a lo and a
# hi float: q_lo, q_hi, s0_lo, s0_hi, s1_lo, s1_hi, s2_lo, s2_hi
_GeomRow = tuple[float, float, float, float, float, float, float, float]


def _doubled(row: _GeomRow, m: int) -> _GeomRow:
    """The row of 2m from the row of m, one ulp outward per operation.

    S0(2m) = S0(m)(1 + q^m), S1(2m) = S1(m)(1 + q^m) + m q^m S0(m) and
    S2(2m) = S2(m)(1 + q^m) + m (2 q^m S1(m) + m q^m S0(m)): every term is
    positive, so lo combines with lo and hi with hi.
    """
    qm_lo, qm_hi, s0_lo, s0_hi, s1_lo, s1_hi, s2_lo, s2_hi = row
    f_lo = nextafter(1.0 + qm_lo, _NINF)
    f_hi = nextafter(1.0 + qm_hi, _INF)
    c_lo = nextafter(nextafter(m * qm_lo, _NINF) * s0_lo, _NINF)
    c_hi = nextafter(nextafter(m * qm_hi, _INF) * s0_hi, _INF)
    d_lo = nextafter(m * nextafter(nextafter(2.0 * qm_lo * s1_lo, _NINF) + c_lo, _NINF), _NINF)
    d_hi = nextafter(m * nextafter(nextafter(2.0 * qm_hi * s1_hi, _INF) + c_hi, _INF), _INF)
    return (nextafter(qm_lo * qm_lo, _NINF), nextafter(qm_hi * qm_hi, _INF),
            nextafter(s0_lo * f_lo, _NINF), nextafter(s0_hi * f_hi, _INF),
            nextafter(nextafter(s1_lo * f_lo, _NINF) + c_lo, _NINF),
            nextafter(nextafter(s1_hi * f_hi, _INF) + c_hi, _INF),
            nextafter(nextafter(s2_lo * f_lo, _NINF) + d_lo, _NINF),
            nextafter(nextafter(s2_hi * f_hi, _INF) + d_hi, _INF))


def _taylor_block(g_lo: float, g_hi: float, d1_lo: float, d1_hi: float,
                  d2_lo: float, d2_hi: float, row: _GeomRow) -> tuple[float, float]:
    """Enclose sum_{i<m} q^i G(u + i h), h = log 3, for `row` the row of m.

    G(u + x) = G(u) + x G'(u) + (x^2/2) G''(xi) with xi in [u, u + x], and
    G'' is nonincreasing, so G''(xi) lies between G'' at the block's last
    term (`d2_lo`) and at its first (`d2_hi`).  `g_*` and `d1_*` bound G and
    G' at u.  G, G' and G'' are nonnegative, so lo goes with lo.
    """
    _, _, s0_lo, s0_hi, s1_lo, s1_hi, s2_lo, s2_hi = row
    lo = nextafter(g_lo * s0_lo, _NINF)
    lo = nextafter(lo + nextafter(nextafter(_H_LO * d1_lo, _NINF) * s1_lo, _NINF), _NINF)
    lo = nextafter(lo + nextafter(nextafter(_HH_LO * d2_lo, _NINF) * s2_lo, _NINF), _NINF)
    hi = nextafter(g_hi * s0_hi, _INF)
    hi = nextafter(hi + nextafter(nextafter(_H_HI * d1_hi, _INF) * s1_hi, _INF), _INF)
    hi = nextafter(hi + nextafter(nextafter(_HH_HI * d2_hi, _INF) * s2_hi, _INF), _INF)
    return lo, hi


def _wtail_norm(tail: WTail, phi: QuasiConcaveFn, rel_tol: float, max_steps: int) -> FloatInterval:
    # sum over l >= l0 of (rho-1) rho^l phi(C 3^-l); with G(u) = phi(e^-u) e^u and
    # u_l = log(1/C) + l log 3 this is (rho-1) C sum q^l G(u_l), q = rho/3 < 1.
    if phi.linear_log_form is not None:
        return _wtail_closed_form(tail, phi)
    g = phi.log_form_eval
    if g is None:
        raise ValueError(f"{phi.name} cannot certify a geometric tail")
    derivs = phi.log_form_derivs
    rho, coeff, l0 = tail.rho, tail.coeff, tail.l0
    q = rho / 3
    q_fi = FloatInterval.from_fraction(q)
    q_lo, q_hi = q_fi.lo, q_fi.hi
    lead = FloatInterval.from_fraction((rho - 1) * coeff * q ** l0)
    lead_lo, lead_hi = lead.lo, lead.hi
    u0 = (-log_interval(coeff)).mid + l0 * LN3.mid
    ln3 = LN3.mid
    # Each step adds the 2^e terms from term a on, on (lo, hi) floats with the
    # rounding of `add_bounds` and `mul_bounds` written out; every factor is
    # positive, so a product's least candidate is lo*lo and its greatest hi*hi.
    # A single term (e = 0) is (lead q^a) G(u_a); a block is (lead q^a) times
    # `_taylor_block`.  Without `log_form_derivs` every step is one term, and
    # so is a step where G'' is nan: its block bounds are nan, which no width
    # test accepts.  Otherwise e is the largest exponent, at most one above
    # the last step's, whose block keeps its relative width within rel_tol/2.
    # The first try to grow e waits for term 32, so a block always follows a
    # single term, and a try that fails waits for a to grow by a/8 + 32.
    rows = [(q_lo, q_hi, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)]
    budget = 0.5 * rel_tol
    grow_at = 32 if derivs is not None else _INF
    acc_lo = acc_hi = 0.0
    qp_lo = qp_hi = 1.0
    a = e = 0
    for _ in range(max_steps):
        u = u0 + a * ln3
        v = g(u)
        g_lo, g_hi = _g_bound(v)
        if not g_lo <= g_hi:
            raise ValueError(f"{phi.name}: G({u!r}) = {v!r} is not a finite number")
        if e or a >= grow_at:
            d1, d2 = derivs(u)
            d1_lo, d1_hi = _g_bound(d1)
            d2_hi = _g_bound(d2)[1]
            grow = a >= grow_at
            e += grow
            while e:
                if e == len(rows):
                    rows.append(_doubled(rows[-1], 1 << (e - 1)))
                d2_lo = _g_bound(derivs(u0 + (a + (1 << e) - 1) * ln3)[1])[0]
                b_lo, b_hi = _taylor_block(g_lo, g_hi, d1_lo, d1_hi, d2_lo, d2_hi, rows[e])
                if b_hi - b_lo <= budget * b_lo:
                    break
                if grow:
                    grow = False
                    grow_at = a + (a >> 3) + 32
                e -= 1
        p_lo = nextafter(lead_lo * qp_lo, _NINF)
        p_hi = nextafter(lead_hi * qp_hi, _INF)
        t_lo = nextafter(p_lo * g_lo, _NINF)
        t_hi = nextafter(p_hi * g_hi, _INF)
        n = a + (1 << e)
        if n > a | 31:
            # once per step that holds a term of index 31 mod 32: the term
            # ratio is q*G(u+log3)/G(u), at least q by quasiconcavity and
            # decreasing toward q (sampled by `validate`), so it caps all later ratios
            kappa = q_hi * _g_bound(g(u + ln3))[1] / g_lo
            if kappa < 1.0:
                tail_lo = t_lo / (1.0 - q_lo)
                tail_hi = t_hi / (1.0 - kappa)
                if tail_hi - tail_lo <= rel_tol * max(acc_lo + tail_lo, 1e-300):
                    return FloatInterval(*add_bounds(acc_lo, acc_hi, tail_lo, tail_hi))
        if e:
            t_lo = nextafter(p_lo * b_lo, _NINF)
            t_hi = nextafter(p_hi * b_hi, _INF)
        acc_lo = nextafter(acc_lo + t_lo, _NINF)
        acc_hi = nextafter(acc_hi + t_hi, _INF)
        q_m = rows[e]
        qp_lo = nextafter(qp_lo * q_m[0], _NINF)
        qp_hi = nextafter(qp_hi * q_m[1], _INF)
        a = n
    raise ArithmeticError(f"Lorentz tail did not close within {max_steps} steps")


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


def rearrangement_atoms(dist: DistributionSteps) -> list[tuple]:
    """Value/measure atoms of the function behind a step distribution.

    A WTail is expanded for `_ATOM_LEVELS` levels; the leftover measure is
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
        for l in range(t.l0, t.l0 + _ATOM_LEVELS):
            n_next = n_cur / 3
            atoms.append((t.rho ** (l + 1), n_cur - n_next))
            n_cur = n_next
        atoms.append((t.rho ** (t.l0 + _ATOM_LEVELS + 1), n_cur))
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


# ---------------------------------------------------------------------------
# Appendix-style numeric comparisons.

def fundamental_compare(young: YoungFn, gauge: QuasiConcaveFn, s_grid: list[float]) -> dict:
    """Window of gauge(s) * Phi^{-1}(1/s) over a grid in (0, 1]."""
    rows = []
    worst_res = 0.0
    for s in s_grid:
        if not 0 < s <= 1:
            raise ValueError(f"grid point {s} outside (0,1]")
        y, res = young.inverse(1.0 / s)
        worst_res = max(worst_res, res)
        product = gauge.point_eval(s) * y
        rows.append({"s": s, "inverse": y, "product": product, "residual": res})
    products = [r["product"] for r in rows]
    return {"min": min(products), "max": max(products),
            "max_residual": worst_res, "rows": rows}


def series_ratio(r: Fraction, x: float, mode: str = "first", tol: float = 1e-9) -> dict:
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
    while n < _SERIES_TERMS:
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
        raise ArithmeticError(f"series tail not closed below {tol} within {_SERIES_TERMS} terms")
    major = (-math.log(1.0 - x)) ** rf / (1.0 - x)
    if mode == "second":
        major /= 1.0 - x
    return {"partial": partial, "tail_bound": tail_bound, "terms": n,
            "majorant": major, "ratio": (partial + tail_bound) / major}


# ---------------------------------------------------------------------------
# Bump products and the blow-up sweep.

def bump_product(model: WeightModel, cell: TriadicCell, norm: str = "entropyPhi0",
                 direction: str = "forward") -> Enclosure:
    """Bumped two-weight product over a carrier cell.

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
    gen = carrier_generation(model, cell)
    if direction == "forward":
        dist = distribution(model, cell, "w")
        other_avg = model.avg_sigma_carrier(gen)
    else:
        dist = distribution(model, cell, "sigma")
        other_avg = Enclosure.exact(model.w_value(gen))
    if gauge is not None:
        norm_enc = lorentz_norm(dist, gauge)
    else:
        atoms = rearrangement_atoms(dist)
        value = luxemburg_norm(atoms, phi_r_young(model.params.r))
        norm_enc = Enclosure.hull(Q(value) * Q(1 - 1e-6), Q(value) * Q(1 + 1e-6))
    return norm_enc * other_avg


def blowup_sigma_average(model: WeightModel) -> Enclosure:
    # <sigma> over R = I(J) u K': (sigma(I) + sigma(K')) / (2 |I|)
    return model.b * (1 + model.c * Q(1, 3 ** model.k)) * Q(1, 2)


def blowup_suite(models: list[WeightModel]) -> list[dict]:
    """Per-k blow-up table: B_k = k^-r * ||w||*_{R_k} * <sigma>_{R_k}."""
    rows = []
    for m in models:
        dist = blowup_distribution(m)
        norm_r = lorentz_norm(dist, phi0())
        avg_w = m.rho
        avg_s = blowup_sigma_average(m)
        ap = Enclosure.exact(avg_w) * avg_s
        bk = m.scale * norm_r * avg_s
        k1 = distribution(m, m.kcell(1, 0), "w")
        norm_k1 = lorentz_norm(k1, phi0())
        rows.append({
            "k": m.k,
            "norm_R": norm_r,
            "norm_K1": norm_k1,
            "avg_w_R": avg_w,
            "avg_sigma_R": avg_s,
            "ap_R": ap,
            "B_k": bk,
            "halving_ok": norm_r.hi * 2 >= norm_k1.lo,
        })
    return rows


def entropy_ratio(model: WeightModel) -> Enclosure:
    """||w||*_K / (3^k <w>_K) over the root carrier K; the same at every generation."""
    dist = distribution(model, model.kcell(0, 0), "w")
    norm = lorentz_norm(dist, phi0())
    return norm * Q(1, 3 ** model.k)
