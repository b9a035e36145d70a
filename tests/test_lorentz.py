"""Distributions, Lorentz/Luxemburg norms, bump products, series bounds."""

import math
import random
from fractions import Fraction as Q

import pytest

from twoweightlab import lorentz
from twoweightlab.enclosure import FZERO, LN3, Enclosure, FloatInterval, log_interval
from twoweightlab.lorentz import (WTail, blowup_distribution, blowup_suite,
                                  bump_product, distribution, entropy_ratio,
                                  fundamental_compare, fundamental_of, llogl_young,
                                  lorentz_norm, luxemburg_norm, phi0, phi_r_young,
                                  psi, QuasiConcaveFn, rearrangement_atoms,
                                  rearrangement_lorentz,
                                  series_ratio, step_function_distribution)
from twoweightlab.triadic import TriadicCell
from twoweightlab.weights import ConstructionParams, build_construction


def model(k=2, depth=2):
    return build_construction(ConstructionParams(k=k, depth=depth))


def test_distribution_plateaus_frozen():
    m = model()
    dist = distribution(m, TriadicCell(""), "w")
    (t0, t1, n0), = dist.steps
    assert (t0, t1, n0) == (0, Q(9, 4), Q(1, 6))
    tail = dist.tail
    assert isinstance(tail, WTail) and tail.l0 == 1
    # plateau on [9/4, 81/16) is 1/18
    assert tail.coeff * Q(1, 3) == Q(1, 18)
    assert tail.rho ** 2 == Q(81, 16)


def test_layer_cake_identity():
    m = model()
    for gen in (0, 1):
        cell = m.kcell(gen, 0)
        dist = distribution(m, cell, "w")
        assert dist.layer_cake().contains(m.avg_w_carrier(gen))
        sig = distribution(m, cell, "sigma")
        enc = sig.layer_cake()
        want = m.avg_sigma_carrier(gen).lo
        assert enc.lo <= want <= enc.hi
        assert float(enc.width) < 1e-9


def test_lorentz_indicator_and_constant():
    gauge = phi0()
    # f = 1_E with relative measure s: norm phi(s)
    s = Q(1, 5)
    dist = step_function_distribution([(Q(1), s)])
    enc = lorentz_norm(dist, gauge)
    want = float(s) * (1 - math.log(float(s)))
    assert abs(float(enc.mid) - want) < 1e-12
    # f == c: norm c * phi(1)
    dist = step_function_distribution([(Q(3), Q(1))])
    assert abs(float(lorentz_norm(dist, gauge).mid) - 3.0) < 1e-12


def test_entropy_norm_closed_form_vs_direct_sum():
    """The closed-form geometric tail equals a long explicit partial sum."""
    m = model()
    dist = distribution(m, TriadicCell(""), "w")
    enc = lorentz_norm(dist, phi0())
    rho = Q(9, 4)
    direct = float(rho) * (1 / 6) * (1 - math.log(1 / 6))
    for l in range(1, 400):
        t0, t1 = float(rho) ** l, float(rho) ** (l + 1)
        n = (1 / 6) * 3.0 ** (-l)
        direct += (t1 - t0) * n * (1 - math.log(n))
    assert abs(float(enc.mid) - direct) / direct < 1e-6


def test_rearrangement_consistency():
    atoms = [(Q(5), Q(1, 8)), (Q(2), Q(1, 4)), (Q(1, 2), Q(1, 2))]
    gauge = phi0()
    via_distribution = lorentz_norm(step_function_distribution(atoms), gauge)
    via_rearrangement = rearrangement_lorentz(atoms, gauge)
    assert abs(via_distribution.mid - Q(via_rearrangement.mid)) < Q(1, 10 ** 9)


def test_entropy_ratio_window():
    vals = [float(entropy_ratio(model(k=k, depth=1)).mid) for k in (3, 8)]
    assert 0.3 < min(vals) and max(vals) < 0.5


def test_luxemburg_constant_and_indicator():
    young = phi_r_young(Q(3, 2))
    c = 5.0
    want = c / young.inverse(1.0)[0]
    assert abs(luxemburg_norm([(c, 1.0)], young) - want) < 1e-9 * want
    s = 0.25
    want = 1.0 / young.inverse(1.0 / s)[0]
    assert abs(luxemburg_norm([(1.0, s)], young) - want) < 1e-9 * want
    assert luxemburg_norm([], young) == 0.0


def test_luxemburg_grid_oracle():
    """Bisection agrees with a brute-force scan of the defining infimum."""
    young = phi_r_young(Q(3, 2))
    atoms = [(2.0, 0.3), (7.0, 0.1)]
    val = luxemburg_norm(atoms, young)

    def integral(lam):
        return sum(mm * young(v / lam) for v, mm in atoms)

    lo, hi = val / 4, val * 4
    best = hi
    steps = 20000
    for i in range(steps + 1):
        lam = lo + (hi - lo) * i / steps
        if lam > 0 and integral(lam) <= 1.0:
            best = min(best, lam)
    assert abs(val - best) < 2 * (hi - lo) / steps + 1e-12


@pytest.mark.parametrize("k", range(2, 7))
def test_luxemburg_norm_of_carrier_atoms_is_the_infimum(k):
    """On the atoms of a carrier's w or sigma, whose largest values exceed
    the norm by ~1e71 at k=2, the bracket and the bisection close: the norm
    meets the defining infimum, and the orliczPhi bump product is that norm
    times the other weight's average."""
    m = model(k=k, depth=1)
    young = phi_r_young(m.params.r)
    rng = random.Random(f"luxemburg|{k}")
    for gen in (0, 1):
        cell = m.kcell(gen, rng.randrange(m.kcell_count(gen)))
        for which, direction in (("w", "forward"), ("sigma", "dual")):
            atoms = rearrangement_atoms(distribution(m, cell, which))
            lux = luxemburg_norm(atoms, young)
            pairs = [(float(v), float(mm)) for v, mm in atoms
                     if float(mm) > 0 and float(v) > 0]

            def g(lam):
                return sum(mm * young(v / lam) for v, mm in pairs)

            assert g(lux) <= 1.0 < g(lux * (1 - 1e-9)), (gen, which)
            avg = (m.avg_sigma_carrier(gen) if which == "w"
                   else Enclosure.exact(m.avg_w_carrier(gen)))
            product = bump_product(m, cell, "orliczPhi", direction)
            assert 0 < product.lo and math.isfinite(float(product.hi))
            assert product.contains(Q(lux) * avg.lo) and product.contains(Q(lux) * avg.hi)


def test_orlicz_bump_product_on_the_root_carrier():
    """||w||_Phi = 4.8856 on the k=2 root carrier, so the product is 0.2832,
    below the entropy bump's 0.321."""
    m = model(k=2, depth=1)
    product = bump_product(m, m.kcell(0, 0), "orliczPhi", "forward")
    assert abs(float(product.mid) - 0.28322) < 1e-5
    assert product.hi < bump_product(m, m.kcell(0, 0), "entropyPhi0", "forward").lo


def test_luxemburg_norm_raises_when_the_bisection_cannot_close():
    young = phi_r_young(Q(3, 2))
    with pytest.raises(ArithmeticError, match="cannot reach tol"):
        luxemburg_norm([(2.0, 0.3), (7.0, 0.1)], young, tol=0.0)


def test_bump_product_on_support_cell_is_one():
    m = model()
    support = m.support_cells(1)[0].cell
    # constant function on its own cell: norm = value, product = value*sigma = 1
    from twoweightlab.lorentz import step_function_distribution
    dist = step_function_distribution([(m.w_value(1), Q(1))])
    norm = lorentz_norm(dist, phi0())
    assert abs(float(norm.mid) - 2.25) < 1e-9  # value * phi0(1) = 9/4
    product = float(norm.mid) * float(m.sigma_value(1).lo)
    assert abs(product - 1.0) < 1e-9


def test_blowup_window_frozen():
    m = model()
    dist = blowup_distribution(m)
    steps = dist.steps
    assert steps[0][2] == Q(1, 2) * (1 + Q(1, 6))
    assert steps[1][2] == Q(1, 12)
    # <w>_R = rho = 9/4 for k=2, and the layer cake returns exactly that
    assert m.rho == Q(9, 4)
    assert dist.layer_cake().contains(Q(9, 4))


def test_blowup_suite_growth_and_halving():
    models = [model(k=k, depth=1) for k in (6, 8, 10)]
    rows = blowup_suite(models)
    bs = [float(r["B_k"].mid) for r in rows]
    assert bs[0] < bs[1] < bs[2]
    for r in rows:
        assert r["halving_ok"]
        assert Q(1, 2) <= r["ap_R"].lo and r["ap_R"].hi <= 2


def test_bump_product_carrier_and_probe_window():
    m = model()
    enc = bump_product(m, m.kcell(1, 0), "entropyPhi0", "forward")
    assert enc.lo > 0
    rk = bump_product(m, "Rk", "entropyPhi0", "forward")
    assert rk.lo > 0
    with pytest.raises(ValueError):
        bump_product(m, "Rk", "entropyPhi0", "dual")
    with pytest.raises(ValueError):
        bump_product(m, m.kcell(1, 0), "nonsense")


def test_fundamental_window_spot_values():
    r = Q(3, 2)
    young = phi_r_young(r)
    gauge = psi(r)
    # s = 1: gauge(1) = 12 (log 12)^r
    want = 12 * math.log(12.0) ** 1.5
    assert abs(gauge.point_eval(1.0) - want) < 1e-9
    res = fundamental_compare(young, gauge, [1e-12, 1e-6, 1.0])
    assert 1 / 64 <= res["min"] and res["max"] <= 64
    sub = fundamental_compare(young, gauge, [1e-6, 1.0])
    assert res["min"] <= sub["min"] and sub["max"] <= res["max"]


def test_series_ratio_examples():
    r = Q(3, 2)
    assert series_ratio(r, 1e-3, "first")["ratio"] < 1
    for x in (0.9, 0.99):
        first = series_ratio(r, x, "first")
        second = series_ratio(r, x, "second")
        assert first["ratio"] <= 10 and second["ratio"] <= 10
        assert second["ratio"] >= first["ratio"]
        assert first["tail_bound"] < 1e-9
    with pytest.raises(ValueError):
        series_ratio(Q(5, 2), 0.5, "first")
    with pytest.raises(ValueError):
        series_ratio(r, 1.5, "first")


def test_orlicz_dominated_by_lorentz_of_fundamental():
    young = phi_r_young(Q(3, 2))
    gauge = fundamental_of(young)
    atoms = [(Q(4), Q(1, 8)), (Q(1), Q(1, 2))]
    lux = luxemburg_norm(atoms, young)
    lor = lorentz_norm(step_function_distribution(atoms), gauge)
    assert lux <= 2 * float(lor.hi) * (1 + 1e-9)


def test_llogl_equivalent_to_entropy_norm():
    young = llogl_young()
    gauge = phi0()
    for atoms in ([(Q(9), Q(1, 9))], [(Q(2), Q(1, 3)), (Q(8), Q(1, 9))]):
        lux = luxemburg_norm(atoms, young)
        ent = float(lorentz_norm(step_function_distribution(atoms), gauge).mid)
        assert 1 / 8 <= lux / ent <= 8


def test_halving_lower_bound():
    # ||f||* over a doubled window is at least half the one-sided norm
    m = model(k=6, depth=1)
    r_norm = lorentz_norm(blowup_distribution(m), phi0())
    k_norm = lorentz_norm(distribution(m, m.kcell(1, 0), "w"), phi0())
    assert 2 * float(r_norm.hi) >= float(k_norm.lo)


def test_gauge_validation_rejects_bad_functions():
    with pytest.raises(ValueError):
        QuasiConcaveFn("bad-decreasing", lambda s: 1.0 / (1.0 + s))
    with pytest.raises(ValueError):
        QuasiConcaveFn("bad-convex", lambda s: s * s, slow_ratio=False)


def test_distribution_requires_carrier_and_exact_dual():
    m = model()
    with pytest.raises(ValueError):
        distribution(m, TriadicCell("0"), "w")
    frac = build_construction(ConstructionParams(k=2, p=Q(5, 2), r=Q(7, 6), depth=1))
    with pytest.raises(ValueError):
        distribution(frac, TriadicCell(""), "sigma")


# ---------------------------------------------------------------------------
# The term-by-term w tail: the float-pair loop against the FloatInterval loop
# it replaced, and both tails against a 40-digit direct sum.

def _ref_g_eval(g, u):
    v = g(u)
    pad = 1e-12 * abs(v) + 5e-324
    lo, hi = v - pad, v + pad
    for _ in range(8):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
    return FloatInterval(lo, hi)


def reference_wtail_norm(tail, phi, rel_tol, max_terms):
    """The w tail summed on `FloatInterval` objects, three per term."""
    g = phi.log_form_eval
    rho, coeff, l0 = tail.rho, tail.coeff, tail.l0
    q = rho / 3
    q_fi = FloatInterval.from_fraction(q)
    lead = FloatInterval.from_fraction((rho - 1) * coeff * q ** l0)
    u0 = (-log_interval(coeff)).mid + l0 * LN3.mid
    ln3 = LN3.mid
    acc = FZERO
    q_pow = FloatInterval(1.0, 1.0)
    for count in range(max_terms):
        u = u0 + count * ln3
        g_cur = _ref_g_eval(g, u)
        term = lead * q_pow * g_cur
        if count % 32 == 31:
            g_next = _ref_g_eval(g, u + ln3)
            kappa = q_fi.hi * g_next.hi / g_cur.lo
            if kappa < 1.0:
                tail_lo = term.lo / (1.0 - q_fi.lo)
                tail_hi = term.hi / (1.0 - kappa)
                if tail_hi - tail_lo <= rel_tol * max(acc.lo + tail_lo, 1e-300):
                    return acc + FloatInterval(tail_lo, tail_hi)
        acc = acc + term
        q_pow = q_pow * q_fi
    raise ArithmeticError(f"Lorentz tail did not close within {max_terms} terms")


def sqrt_log_gauge(cutoff=math.inf):
    """s*sqrt(5 + log(1/s)), with G(u) = sqrt(5 + u); G is nan beyond `cutoff`."""
    return QuasiConcaveFn(
        "sqrtlog", lambda s: s * math.sqrt(5.0 - math.log(s)),
        log_form_eval=lambda u: math.sqrt(5.0 + u) if u <= cutoff else math.nan)


def _w_tail(k, gen):
    m = model(k=k, depth=2)
    return distribution(m, m.kcell(gen, 0), "w").tail


def _same_tail(tail, gauge, rel_tol, max_terms=400_000):
    got = lorentz._wtail_norm(tail, gauge, rel_tol, max_terms)
    want = reference_wtail_norm(tail, gauge, rel_tol, max_terms)
    return (repr(got.lo), repr(got.hi)) == (repr(want.lo), repr(want.hi))


@pytest.mark.parametrize("k", range(2, 10))
def test_wtail_matches_floatinterval_reference(k):
    gauge = psi(Q(3, 2))
    for gen in range(3):
        tail = _w_tail(k, gen)
        for rel_tol in (1e-7, 1e-9):
            assert _same_tail(tail, gauge, rel_tol), (k, gen, rel_tol)


def test_wtail_matches_reference_for_a_user_gauge():
    gauge = sqrt_log_gauge()
    for k in (2, 4, 6):
        for gen in range(3):
            for rel_tol in (1e-7, 1e-9):
                assert _same_tail(_w_tail(k, gen), gauge, rel_tol), (k, gen, rel_tol)


def test_wtail_fails_where_the_reference_fails():
    tail = _w_tail(9, 0)
    for tail_sum in (lorentz._wtail_norm, reference_wtail_norm):
        with pytest.raises(ArithmeticError):
            tail_sum(tail, psi(Q(3, 2)), 1e-7, 1000)
        # G turns nan at u > 40, inside the k=2 tail's first 50 terms
        with pytest.raises(ValueError):
            tail_sum(_w_tail(2, 0), sqrt_log_gauge(cutoff=40.0), 1e-9, 1000)


def test_psi_tail_range():
    """At rel_tol 1e-7 the psi w tail closes for k=10 within the 400,000-term
    cap; at the default 1e-9 it closes for k=9 and runs out for k=10."""
    gauge = psi(Q(3, 2))
    m = model(k=10, depth=1)
    dist = distribution(m, m.kcell(0, 0), "w")
    enc = lorentz_norm(dist, gauge, rel_tol=1e-7)
    # the tail's width is within rel_tol; the summed terms add their G pads
    assert 0 < enc.width <= Q(2, 10 ** 7) * enc.lo
    with pytest.raises(ArithmeticError):
        lorentz_norm(dist, gauge)


def _mp_w_norm(mpmath, dist, phi):
    """The Lorentz norm of a w distribution, summed term by term.

    `phi(s, log_s)` is the gauge at s, given log s too (the sum tracks log s
    by subtracting log 3 per level).  Returns (S, R): the norm lies in
    [S, S + R].  The tail terms
    (rho-1) rho^l phi(C 3^-l) have ratios q G(u+log 3)/G(u) with
    G(u) = phi(e^-u) e^u and q = rho/3; log G is concave for both gauges
    tested, so the ratios do not increase and the remainder after term L is
    at most term_L / (1 - ratio_L).
    """
    mpf = mpmath.mpf

    def mpq(x):
        return mpf(x.numerator) / x.denominator

    (t0, t1, n), = dist.steps
    tail = dist.tail
    total = mpq(t1 - t0) * phi(mpq(n), mpmath.log(mpq(n)))
    rho = mpq(tail.rho)
    rho_l = rho ** tail.l0
    s = mpq(tail.coeff) / 3 ** tail.l0
    log_s, ln3 = mpmath.log(s), mpmath.log(3)
    term = (rho - 1) * rho_l * phi(s, log_s)
    while True:
        rho_l *= rho
        s /= 3
        log_s -= ln3
        nxt = (rho - 1) * rho_l * phi(s, log_s)
        ratio = nxt / term
        if ratio < 1 and term / (1 - ratio) < mpf(10) ** -32:
            return total, term / (1 - ratio)
        total += term
        term = nxt


@pytest.mark.parametrize("k", range(2, 7))
def test_lorentz_norms_contain_a_40_digit_direct_sum(k):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    m = model(k=k, depth=2)
    with mp.workdps(40):
        def psi_mp(s, log_s):  # s (12 - log s) (log(12 - log s))^(3/2)
            ll = mpmath.log(12 - log_s)
            return s * (12 - log_s) * ll * mpmath.sqrt(ll)

        oracles = (
            (psi(Q(3, 2)), psi_mp),
            (phi0(), lambda s, log_s: s * (1 - log_s)),
        )
        for gen in range(3):
            dist = distribution(m, m.kcell(gen, 0), "w")
            for gauge, phi in oracles:
                total, remainder = _mp_w_norm(mpmath, dist, phi)
                assert remainder < mpmath.mpf(10) ** -30
                enc = lorentz_norm(dist, gauge)
                lo, hi = mpmath.mpf(float(enc.lo)), mpmath.mpf(float(enc.hi))
                assert lo <= total and total + remainder <= hi, (k, gen, gauge.name)
