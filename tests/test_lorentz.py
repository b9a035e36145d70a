"""Distributions, Lorentz/Luxemburg norms, bump products, series bounds."""

import gc
import math
import random
import weakref
from fractions import Fraction as Q

import pytest

from twoweightlab import lorentz
from twoweightlab.enclosure import FZERO, LN3, Enclosure, FloatInterval, log_interval
from twoweightlab.lorentz import (BandTail, WTail, blowup_distribution, blowup_suite,
                                  bump_product, distribution, entropy_ratio,
                                  fundamental_compare, fundamental_of, llogl_young,
                                  lorentz_norm, luxemburg_norm, phi0, phi_r_young,
                                  psi, QuasiConcaveFn, rearrangement_atoms,
                                  series_ratio, step_function_distribution)
from twoweightlab.weights import ConstructionParams, build_construction

from oracles import carrier_level_set, cell_from_address


def model(k=2, depth=2):
    return build_construction(ConstructionParams(k=k, depth=depth))


def layer_cake(dist) -> Enclosure:
    """Integral of N over t; equals the mean of the function (layer cake)."""
    total = Enclosure.exact(0)
    for t0, t1, n in dist.steps:
        total = total + Enclosure.exact(n * (t1 - t0))
    t = dist.tail
    if isinstance(t, WTail):
        q = t.rho / 3
        s0 = q ** t.l0 / (1 - q)
        total = total + Enclosure.exact((t.rho - 1) * t.coeff * s0)
    elif isinstance(t, BandTail):
        total = total + Enclosure(t.n_lo * t.t_end, t.n_hi * t.t_end)
    return total


def rearrangement_lorentz(atoms: list[tuple], phi: QuasiConcaveFn) -> FloatInterval:
    """Stieltjes form of the Lorentz norm: sum f*(s) dphi(s) for a step function."""
    clean = sorted(((Q(v), Q(m)) for v, m in atoms if m > 0 and v > 0),
                   key=lambda t: t[0], reverse=True)
    acc = FZERO
    cum = Q(0)
    for v, m in clean:
        lo = phi.eval_interval(cum) if cum > 0 else FZERO
        cum += m
        hi = phi.eval_interval(cum)
        acc = acc + FloatInterval.from_fraction(v) * (hi + -lo)
    return acc


def test_distribution_plateaus_frozen():
    m = model()
    dist = distribution(m, cell_from_address(""), "w")
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
        enc = layer_cake(dist)
        assert enc.lo <= m.w_value(gen) <= enc.hi
        sig = distribution(m, cell, "sigma")
        enc = layer_cake(sig)
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
    dist = distribution(m, cell_from_address(""), "w")
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
                   else Enclosure.exact(m.w_value(gen)))
            product = bump_product(m, cell, "orliczPhi", direction)
            assert 0 < product.lo and math.isfinite(float(product.hi))
            assert product.lo <= Q(lux) * avg.lo and Q(lux) * avg.hi <= product.hi


def test_orlicz_bump_product_on_the_root_carrier():
    """||w||_Phi = 4.8856 on the k=2 root carrier, so the product is 0.2832,
    below the entropy bump's 0.321."""
    m = model(k=2, depth=1)
    product = bump_product(m, m.kcell(0, 0), "orliczPhi", "forward")
    assert abs(float(product.mid) - 0.28322) < 1e-5
    assert product.hi < bump_product(m, m.kcell(0, 0), "entropyPhi0", "forward").lo


def test_luxemburg_norm_raises_when_the_bisection_cannot_close(monkeypatch):
    young = phi_r_young(Q(3, 2))
    monkeypatch.setattr(lorentz, "_ROOT_TOL", 0.0)
    with pytest.raises(ArithmeticError, match="cannot reach tol"):
        luxemburg_norm([(2.0, 0.3), (7.0, 0.1)], young)


@pytest.mark.parametrize("young", [phi_r_young(Q(3, 2)), llogl_young()],
                         ids=["phi_r", "llogl"])
def test_young_inverse_brackets_its_value(young):
    """Phi(t) <= y < Phi(t(1 + 2e-12)) where the search halves from 1
    (y below Phi(1), none for LlogL, which vanishes on [0, 1]) and where it
    doubles (y up to 1e12)."""
    halving = [young(1.0) * v for v in (1e-6, 0.2, 0.5, 0.999) if young(1.0) > 0]
    doubling = [young(1.0) + v for v in (1e-9, 1.0, 1e3, 1e9, 1e12)]
    for y in halving + doubling:
        t, residual = young.inverse(y)
        assert young(t) <= y < young(t * (1 + 2e-12)), y
        assert residual == abs(young(t) - y) / y


@pytest.mark.parametrize("y", [0.0, -1.0])
def test_young_inverse_rejects_nonpositive_values(y):
    with pytest.raises(ValueError, match="nonpositive"):
        phi_r_young(Q(3, 2)).inverse(y)


def test_young_inverse_raises_when_the_bisection_cannot_close(monkeypatch):
    young = phi_r_young(Q(3, 2))
    monkeypatch.setattr(lorentz, "_ROOT_TOL", 0.0)
    with pytest.raises(ArithmeticError, match="cannot reach tol"):
        young.inverse(3.7)


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
    enc = layer_cake(dist)
    assert enc.lo <= Q(9, 4) <= enc.hi


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
    # blowup_suite scales the probe window's forward product by k^-r into B_k
    row, = blowup_suite([m])
    assert row["B_k"].lo > 0
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
        QuasiConcaveFn("bad-convex", lambda s: s * s)


def test_log_form_derivs_are_sampled():
    # G(u) = sqrt(5 + u) is concave: its G'' is negative
    with pytest.raises(ValueError, match="positive and nonincreasing"):
        sqrt_log_gauge(derivs=True)
    # G(u) = (5 + u)^3: its G'' = 6(5 + u) increases
    with pytest.raises(ValueError, match="positive and nonincreasing"):
        QuasiConcaveFn("cubelog", lambda s: s * (5.0 - math.log(s)) ** 3,
                       log_form_eval=lambda u: (5.0 + u) ** 3,
                       log_form_derivs=lambda u: (3 * (5.0 + u) ** 2, 6 * (5.0 + u)))
    # psi's G with a G'' one percent low, then a G' one percent high
    good = psi(Q(3, 2)).log_form_derivs
    for wrong in (lambda u: (good(u)[0], 0.99 * good(u)[1]),
                  lambda u: (1.01 * good(u)[0], good(u)[1])):
        with pytest.raises(ValueError, match="does not match"):
            QuasiConcaveFn("psi-wrong", psi(Q(3, 2)).point_eval,
                           log_form_eval=psi(Q(3, 2)).log_form_eval, log_form_derivs=wrong)
    # G'' may be nan only before it is a number
    with pytest.raises(ValueError, match="positive and nonincreasing"):
        QuasiConcaveFn("psi-late-nan", psi(Q(3, 2)).point_eval,
                       log_form_eval=psi(Q(3, 2)).log_form_eval,
                       log_form_derivs=lambda u: (good(u)[0], good(u)[1] if u < 100 else math.nan))
    with pytest.raises(ValueError, match="needs log_form_eval"):
        QuasiConcaveFn("nolog", lambda s: s * (1.0 - math.log(s)), log_form_derivs=good)
    assert sqrt_log_gauge().log_form_derivs is None
    # psi's G'' falls once log(12 + u)^2 > (r-1)(r-2), at u ~ 40.9 for r = 11/2
    late = psi(Q(11, 2)).log_form_derivs
    assert math.isnan(late(30.0)[1]) and late(50.0)[1] > 0


def test_gauges_are_built_once():
    assert psi(Q(3, 2)) is psi(Q(3, 2)) and phi0() is phi0()
    assert psi(Q(3, 2)) is not psi(Q(2))


def test_distribution_requires_carrier_and_exact_dual():
    """A non-carrier cell, an unknown `which` and sigma without an exact dual
    value raise on every call, before and after the model caches a
    distribution, and a call that raises caches nothing."""
    m = model()
    frac = build_construction(ConstructionParams(k=2, p=Q(5, 2), r=Q(7, 6), depth=1))
    calls = [(m, cell_from_address("0"), "w"), (m, cell_from_address(""), "x"),
             (frac, cell_from_address(""), "sigma")]
    for _ in range(2):
        for args in calls:
            with pytest.raises(ValueError):
                distribution(*args)
    assert "_distributions" not in vars(m) and "_distributions" not in vars(frac)
    distribution(m, cell_from_address(""), "w")
    for args in calls[:2]:
        with pytest.raises(ValueError):
            distribution(*args)
    assert list(vars(m)["_distributions"]) == [(0, "w")]


@pytest.mark.parametrize("which", ["w", "sigma"])
@pytest.mark.parametrize("k", range(2, 6))
def test_distribution_matches_the_level_set_oracle(k, which):
    """Every listed step and the first two plateaus of the tail, at both ends
    and the middle of each, against N(t) summed from the weight's values."""
    m = model(k=k)
    for gen in range(3):
        dist = distribution(m, m.kcell(gen, m.kcell_count(gen) - 1), which)
        pieces = list(dist.steps)
        tail = dist.tail
        if which == "w":
            assert isinstance(tail, WTail)
            pieces += [(tail.rho ** l, tail.rho ** (l + 1), tail.coeff / 3 ** l)
                       for l in (tail.l0, tail.l0 + 1)]
        else:
            assert isinstance(tail, BandTail)
            b = m.sigma_value(1).lo
            for t0, t1 in ((b * tail.t_end, tail.t_end), (b * b * tail.t_end, b * tail.t_end)):
                n = carrier_level_set(m, gen, which, t0)
                assert tail.n_lo <= n <= tail.n_hi
                assert carrier_level_set(m, gen, which, (t0 + t1) / 2) == n
        for t0, t1, n in pieces:
            for t in (t0, (t0 + t1) / 2, t1 - (t1 - t0) / 10 ** 6):
                assert carrier_level_set(m, gen, which, t) == n, (gen, t0, t1)


def test_distribution_is_built_once_per_generation():
    """Carriers of one generation share one object, equal to a fresh build;
    it lives on the model, so a dropped model frees it."""
    m = model(k=3)
    assert "_distributions" not in vars(m)
    for gen in range(3):
        for which in ("w", "sigma"):
            first = distribution(m, m.kcell(gen, 0), which)
            assert distribution(m, m.kcell(gen, m.kcell_count(gen) - 1), which) is first
            fresh = distribution(model(k=3), m.kcell(gen, 0), which)
            assert fresh == first and fresh is not first
    assert sorted(vars(m)["_distributions"]) == [(g, w) for g in range(3) for w in ("sigma", "w")]
    ref = weakref.ref(m)
    del m, first
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# The w tail: the float-pair loop against the term-by-term FloatInterval loop
# it replaced (bit for bit where every step is one term), its blocks against
# exact and 40-digit sums, and whole tails against a 40-digit direct sum.

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


def sqrt_log_gauge(cutoff=math.inf, derivs=False):
    """s*sqrt(5 + log(1/s)), with G(u) = sqrt(5 + u); G is nan beyond `cutoff`.

    `derivs` supplies its true G' and G'', which is negative.
    """
    return QuasiConcaveFn(
        "sqrtlog", lambda s: s * math.sqrt(5.0 - math.log(s)),
        log_form_eval=lambda u: math.sqrt(5.0 + u) if u <= cutoff else math.nan,
        log_form_derivs=(lambda u: (0.5 / math.sqrt(5.0 + u), -0.25 / (5.0 + u) ** 1.5))
        if derivs else None)


def _w_tail(k, gen):
    m = model(k=k, depth=2)
    return distribution(m, m.kcell(gen, 0), "w").tail


def _same_tail(tail, gauge, rel_tol, max_terms=400_000):
    got = lorentz._wtail_norm(tail, gauge, rel_tol, max_terms)
    want = reference_wtail_norm(tail, gauge, rel_tol, max_terms)
    return (repr(got.lo), repr(got.hi)) == (repr(want.lo), repr(want.hi))


@pytest.mark.parametrize("k", range(2, 10))
def test_wtail_matches_floatinterval_reference(k):
    """psi sums blocks of terms, so its tail only has to meet the reference
    and stay within 2 rel_tol of its own lower end."""
    gauge = psi(Q(3, 2))
    for gen in range(3):
        tail = _w_tail(k, gen)
        for rel_tol in (1e-7, 1e-9):
            got = lorentz._wtail_norm(tail, gauge, rel_tol, 400_000)
            want = reference_wtail_norm(tail, gauge, rel_tol, 400_000)
            assert got.lo <= want.hi and want.lo <= got.hi, (k, gen, rel_tol)
            assert got.hi - got.lo <= 2 * rel_tol * got.lo, (k, gen, rel_tol)


def test_wtail_matches_reference_for_a_user_gauge():
    gauge = sqrt_log_gauge()
    for k in (2, 4, 6):
        for gen in range(3):
            for rel_tol in (1e-7, 1e-9):
                assert _same_tail(_w_tail(k, gen), gauge, rel_tol), (k, gen, rel_tol)


def test_wtail_fails_where_the_reference_fails():
    # the cap counts steps: k = 9 closes at 1e-7 after 942 steps (blocks
    # or single terms) here and ~128,000 terms in the reference
    tail = _w_tail(9, 0)
    for tail_sum in (lorentz._wtail_norm, reference_wtail_norm):
        with pytest.raises(ArithmeticError):
            tail_sum(tail, psi(Q(3, 2)), 1e-7, 500)
        # G turns nan at u > 40, inside the k=2 tail's first 50 terms
        with pytest.raises(ValueError):
            tail_sum(_w_tail(2, 0), sqrt_log_gauge(cutoff=40.0), 1e-9, 1000)


def test_psi_tail_range():
    """At the default rel_tol 1e-9 the psi w tail closes for k = 10, 11, 12;
    k = 12 sums its ~4.3M terms in ~5,100 steps, under the 400,000 cap."""
    gauge = psi(Q(3, 2))
    for k in (10, 11, 12):
        m = model(k=k, depth=1)
        enc = lorentz_norm(distribution(m, m.kcell(0, 0), "w"), gauge)
        assert 0 < enc.width <= Q(2, 10 ** 9) * enc.lo, k


@pytest.mark.parametrize("p, r", [(Q(5, 4), Q(9, 2)), (Q(11, 10), Q(21, 2))])
def test_psi_tail_starts_blocks_where_g2_falls(p, r):
    """For r with (r-1)(r-2) > (log 12)^2, G'' rises up to u ~ 7 (r = 9/2) or
    ~8,000 (r = 21/2) and psi leaves it nan there: the tail sums single terms
    until G'' falls, meets the term-by-term reference, and closes at k = 10."""
    gauge = psi(r)
    for k in (4, 5, 10):
        m = build_construction(ConstructionParams(k=k, p=p, r=r, depth=1))
        tail = distribution(m, m.kcell(0, 0), "w").tail
        got = lorentz._wtail_norm(tail, gauge, 1e-9, 400_000)
        assert got.hi - got.lo <= 2e-9 * got.lo, k
        if k < 10:
            want = reference_wtail_norm(tail, gauge, 1e-9, 400_000)
            assert got.lo <= want.hi and want.lo <= got.hi, k


def test_psi_bump_product_closes_at_k10():
    m = model(k=10, depth=1)
    enc = bump_product(m, m.kcell(0, 0), "lorentzPsi", "forward")
    assert 0 < enc.lo and enc.width <= Q(2, 10 ** 9) * enc.lo


def _q_of(k):
    # q = rho/3 of a w tail: rho = 3^k / (3^(k-1) + 1)
    return Q(3 ** (k - 1), 3 ** (k - 1) + 1)


def _rows(q, e_max):
    q_fi = FloatInterval.from_fraction(q)
    rows = [(q_fi.lo, q_fi.hi, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)]
    for e in range(1, e_max + 1):
        rows.append(lorentz._doubled(rows[-1], 1 << (e - 1)))
    return rows


def test_doubled_geometric_sums_contain_the_exact_sums():
    """q^m and Sj(m) = sum_{i<m} i^j q^i, j = 0, 1, 2, in closed form."""
    for k in range(2, 13):
        q = _q_of(k)
        for e, row in enumerate(_rows(q, 12)):
            m = 1 << e
            qm = q ** m
            exact = (qm, (1 - qm) / (1 - q), (q - m * qm + (m - 1) * qm * q) / (1 - q) ** 2,
                     (q + q * q - m * m * qm + (2 * m * m - 2 * m - 1) * qm * q
                      - (m - 1) ** 2 * qm * q * q) / (1 - q) ** 3)
            for i, want in enumerate(exact):
                lo, hi = row[2 * i], row[2 * i + 1]
                assert Q(lo) <= want <= Q(hi), (k, m, i)
                # q itself is one ulp wide, so q^m is about m ulp wide
                assert hi - lo <= 4 * m * 2.0 ** -52 * hi + 1e-300, (k, m, i)


def test_blocks_contain_a_40_digit_sum_of_their_terms():
    """Seeded Taylor blocks of psi's w tails, from G, G' and G'' padded as the
    tail pads them, against sum_{i<m} q^i G(u_a + i log 3) at the same float u_a."""
    mpmath = pytest.importorskip("mpmath")
    gauge = psi(Q(3, 2))
    g, derivs = gauge.log_form_eval, gauge.log_form_derivs
    ln3 = LN3.mid
    rng = random.Random(10)
    with mpmath.mp.workdps(40):
        mp_ln3 = mpmath.log(3)
        for _ in range(60):
            k, gen, e = rng.randint(2, 14), rng.randint(0, 2), rng.randint(1, 13)
            a = rng.choice((1, 2, rng.randint(3, 200), rng.randint(200, 100_000),
                            rng.randint(100_000, 10 ** 7)))
            m = 1 << e
            tail = WTail(gen + 1, 3 * _q_of(k), Q(3, 2 * 3 ** k) * 3 ** gen)
            u_a = (-log_interval(tail.coeff)).mid + (tail.l0 + a) * ln3
            g_a = _ref_g_eval(g, u_a)
            d1 = _ref_g_eval(lambda u: derivs(u)[0], u_a)
            d2_hi = _ref_g_eval(lambda u: derivs(u)[1], u_a).hi
            d2_lo = _ref_g_eval(lambda u: derivs(u)[1], u_a + (m - 1) * ln3).lo
            lo, hi = lorentz._taylor_block(g_a.lo, g_a.hi, d1.lo, d1.hi, d2_lo, d2_hi,
                                           _rows(tail.rho / 3, e)[e])
            q = mpmath.mpf(tail.rho.numerator) / (3 * tail.rho.denominator)
            total, q_i, v = mpmath.mpf(0), mpmath.mpf(1), 12 + mpmath.mpf(u_a)
            for _ in range(m):
                total += q_i * v * mpmath.log(v) ** mpmath.mpf(1.5)
                q_i *= q
                v += mp_ln3
            assert lo <= total <= hi, (k, gen, a, m)


def test_psi_log_form_and_its_derivatives_are_within_their_pad():
    """psi's G, G' and G'' at seeded u in [0, 1e12] against 50-digit values:
    the tail pads each by 1e-12 relative and 8 ulp (`_g_bound`), which holds
    while libm's `log` and `**` are accurate to far less than that."""
    mpmath = pytest.importorskip("mpmath")
    gauge = psi(Q(3, 2))
    rng = random.Random("psi-derivs")
    us = [0.0] + [rng.uniform(0, 100) for _ in range(500)]
    us += [10 ** rng.uniform(-3, 12) for _ in range(1500)]
    with mpmath.mp.workdps(50):
        for u in us:
            v = 12 + mpmath.mpf(u)
            lg = mpmath.log(v)
            want = (v * lg ** mpmath.mpf(1.5), mpmath.sqrt(lg) * (lg + mpmath.mpf(1.5)),
                    mpmath.mpf(1.5) * (lg + mpmath.mpf(0.5)) / (mpmath.sqrt(lg) * v))
            got = (gauge.log_form_eval(u),) + gauge.log_form_derivs(u)
            for x, y in zip(got, want):
                lo, hi = lorentz._g_bound(x)
                assert lo <= y <= hi, (u, x)
                # the pad is loose: libm's error is about 1e-15 relative
                assert abs(x - y) <= 1e-14 * y, (u, x)


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


@pytest.mark.parametrize("k", range(2, 8))
def test_lorentz_norms_contain_a_40_digit_direct_sum(k):
    # k = 7 checks generation 2 alone: its direct sum takes ~60,000 terms
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
        for gen in range(3) if k < 7 else (2,):
            dist = distribution(m, m.kcell(gen, 0), "w")
            for gauge, phi in oracles:
                total, remainder = _mp_w_norm(mpmath, dist, phi)
                assert remainder < mpmath.mpf(10) ** -30
                enc = lorentz_norm(dist, gauge)
                lo, hi = mpmath.mpf(float(enc.lo)), mpmath.mpf(float(enc.hi))
                assert lo <= total and total + remainder <= hi, (k, gen, gauge.name)
