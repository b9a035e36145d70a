"""Sparse families: validators, generators, testing sums, exact inequalities."""

import math
import random
from fractions import Fraction as Q

import pytest

from twoweightlab.acceptance import _chain_length_oracle
from twoweightlab.sparse import (FamilyError, SparseFamily, carleson_check,
                                 chain_decay_check, children_map,
                                 gen_adversarial, gen_random_martingale,
                                 is_martingale_sparse, restricted_packing_check,
                                 sparse_packing_check, transplant_family)
from twoweightlab.sparse import testing_report as run_testing_report
from twoweightlab.sparse import testing_sum as run_testing_sum
from twoweightlab.triadic import IntervalQ, cell_from_index, cell_of
from twoweightlab.weights import ConstructionParams, build_construction

from oracles import cell_from_address, weight_on_cell

UNIT = IntervalQ(Q(0), Q(1))


def model(k=2, p=2, depth=2):
    return build_construction(ConstructionParams(k=k, p=Q(p), depth=depth))


def iv(a, b):
    return IntervalQ(Q(a), Q(b))


def family(members, eps):
    return SparseFamily(tuple(members), Q(eps))


def test_martingale_validator_trivial_cases():
    ok, _ = is_martingale_sparse(family([iv(0, 1), IntervalQ(Q(0), Q(1, 3))], Q(1, 3)))
    assert ok
    ok, report = is_martingale_sparse(family(
        [iv(0, 1), IntervalQ(Q(0), Q(1, 3)), IntervalQ(Q(1, 3), Q(2, 3))], Q(1, 3)))
    assert not ok and report["excess"] == Q(1, 3)
    chain = [IntervalQ(Q(0), Q(1, 3 ** i)) for i in range(4)]
    ok, _ = is_martingale_sparse(family(chain, Q(1, 3)))
    assert ok


def test_validator_rejects_overlap():
    with pytest.raises(FamilyError, match="overlap"):
        is_martingale_sparse(family([iv(0, Q(2, 3)), iv(Q(1, 3), 1)], Q(1, 2)))


def test_children_map_forest():
    members = [iv(0, 1), IntervalQ(Q(0), Q(1, 3)), IntervalQ(Q(0), Q(1, 9)),
               IntervalQ(Q(2, 3), Q(1))]
    ch = children_map(members)
    assert set(ch[iv(0, 1)]) == {IntervalQ(Q(0), Q(1, 3)), IntervalQ(Q(2, 3), Q(1))}
    assert ch[IntervalQ(Q(0), Q(1, 3))] == [IntervalQ(Q(0), Q(1, 9))]


def _brute_force_children(members):
    """Each member's parent is the smallest member that strictly contains it."""
    out = {m: set() for m in members}
    for child in members:
        holders = [c for c in members if c != child and c.contains(child)]
        if holders:
            out[min(holders, key=lambda c: c.length)].add(child)
    return out


def test_children_map_matches_brute_force_parents():
    m = model(k=4)
    support = m.support_cells(1)[0].cell
    families = []
    for seed in range(40):
        fam = gen_random_martingale(5, (Q(1, 3), Q(1, 2), Q(2, 3))[seed % 3], seed)
        families += [fam, transplant_family(fam, support)]
    for kind in ("chainToward_IJ", "S1", "S2", "S3", "S4", "boundaryChain"):
        for eps in (Q(1, 3), Q(1, 2)):
            families.append(gen_adversarial(m, kind, cell_from_address(""), eps))
    assert sum(len(f.members) > 3 for f in families) > 40
    for fam in families:
        got = children_map(fam.members)
        assert list(got) == list(fam.members)
        assert {parent: set(kids) for parent, kids in got.items()} == \
            _brute_force_children(fam.members)


def test_children_map_rejects_overlap_after_a_popped_sibling():
    # [1/9, 2/9) pops [0, 1/9) off the stack; [1/6, 1/2) then overlaps it
    members = [iv(0, 1), iv(0, Q(1, 9)), iv(Q(1, 9), Q(2, 9)), iv(Q(1, 6), Q(1, 2))]
    with pytest.raises(FamilyError, match="overlap without nesting"):
        children_map(members)
    with pytest.raises(FamilyError, match="overlap without nesting"):
        is_martingale_sparse(family(members, Q(1, 2)))


def test_random_generator_validates_and_is_deterministic():
    for seed in range(30):
        fam = gen_random_martingale(3, Q(1, 3), seed)
        if fam.members:
            ok, _ = is_martingale_sparse(fam)
            assert ok
        again = gen_random_martingale(3, Q(1, 3), seed)
        assert fam.members == again.members
    tight = gen_random_martingale(3, Q(1, 100), 7)
    if tight.members:
        ok, _ = is_martingale_sparse(tight)
        assert ok


def test_adversarial_kinds_validate():
    m = model(k=4)
    for kind in ("chainToward_IJ", "S1", "S2", "S3", "S4", "boundaryChain"):
        for eps in (Q(1, 3), Q(1, 2)):
            fam = gen_adversarial(m, kind, cell_from_address(""), eps)
            if fam.members:
                ok, report = is_martingale_sparse(fam)
                assert ok, (kind, eps, report)


def test_s3_chain_length_law():
    for k in (4, 6, 8, 10, 12):
        m = model(k=k, depth=1)
        for eps in (Q(1, 3), Q(1, 2)):
            fam = gen_adversarial(m, "S3", cell_from_address(""), eps)
            # maximal by construction: lengths eps^n while >= 2*3^-k
            n = 0
            length = eps
            while length >= 2 * Q(1, 3 ** k):
                n += 1
                length *= eps
            assert len(fam.members) == n
            bound = (k * math.log(3) - math.log(2)) / math.log(1 / float(eps)) + 1
            assert len(fam.members) <= bound


@pytest.mark.parametrize("placement,gen", [("left", 0), ("alternating", 1)])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_boundary_chains_on_the_left_of_the_core(k, placement, gen):
    # the core's support cell sits on its left: placement "left" at the
    # root, and generation-1 carriers of alternating models
    m = build_construction(ConstructionParams(k=k, placement=placement, depth=2))
    eps = Q(1, 3)
    for carrier in (m.kcell(gen, 0), m.kcell(gen, m.kcell_count(gen) - 1)):
        core = carrier.middle_child()
        placed, side = m.place_core(core, gen + 1)
        assert side == "left" and placed.right == core.left
        fams = {kind: gen_adversarial(m, kind, carrier, eps)
                for kind in ("S3", "S4", "boundaryChain")}
        for kind, fam in fams.items():
            ok, report = is_martingale_sparse(fam)
            assert ok, (kind, report)
        assert len(fams["S3"].members) == _chain_length_oracle(k, eps)
        for member in fams["S3"].members + fams["S4"].members:
            assert member.left < core.left < member.right
            inside = member.intersect(core.interval())
            assert inside.length == Q(2, 3) * member.length


@pytest.mark.parametrize("eps", [Q(1, 4), Q(2, 9), Q(1, 10), Q(1, 27)])
def test_thin_chains_below_one_third(eps):
    # below eps = 1/3 a chain keeps every step-th cell, with step the least
    # integer such that 3^-step <= eps
    step = 1
    while Q(1, 3 ** step) > eps:
        step += 1
    m = model(k=6)
    for carrier in (cell_from_address(""), m.kcell(1, 0)):
        for kind in ("chainToward_IJ", "S1", "S2"):
            fam = gen_adversarial(m, kind, carrier, eps)
            assert len(fam.members) >= 2, (kind, carrier)
            ok, report = is_martingale_sparse(fam)
            assert ok, (kind, carrier, report)
            for big, small in zip(fam.members, fam.members[1:]):
                assert big.contains(small) and small.length == big.length / 3 ** step


def test_singleton_budget_chain():
    m = model(k=3)
    fam = gen_adversarial(m, "chainToward_IJ", cell_from_address(""), Q(1, 3))
    assert fam.members[0] == UNIT


def test_testing_sum_frozen_values():
    m = model()
    fam = SparseFamily((UNIT,), Q(1, 2))
    enc = run_testing_sum(m, fam, UNIT)
    assert enc.is_exact and enc.lo == Q(4, 69)
    assert run_testing_sum(m, SparseFamily((iv(0, Q(1, 3)),), Q(1, 2)),
                       UNIT).lo == 0  # vanishing region: zero averages
    empty = run_testing_sum(m, SparseFamily(tuple(), Q(1, 2)), UNIT)
    assert empty.lo == 0 and empty.hi == 0


def test_testing_report_ratio_example():
    m = model()
    fam = SparseFamily((UNIT,), Q(1, 2))
    rep = run_testing_report(m, fam, UNIT)
    assert abs(rep.ratio - 1 / 69) < 1e-12
    assert rep.kfree_ratio is not None


def test_testing_report_flags_zero_mass_violation():
    m = model()
    fam = SparseFamily((iv(0, Q(1, 3)),), Q(1, 2))
    rep = run_testing_report(m, fam, iv(0, Q(1, 3)))
    assert rep.ratio == 0.0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dual_testing_sums_are_exact(k):
    # sum over I of <sigma>_I^p' <w>_I |I> at [0,1) and in a support cell,
    # against the masses that weight_on_cell gives each member
    m = model(k=k)
    support = m.support_cells(1)[0].cell
    p_dual = m.params.p_prime
    for eps in (Q(1, 3), Q(1, 2), Q(2, 3)):
        for seed in range(6):
            fam = gen_random_martingale(5, eps, 700 + seed)
            if not fam.members:
                continue
            for cell, local in ((cell_from_address(""), fam),
                                (support, transplant_family(fam, support))):
                got = run_testing_sum(m, local, cell.interval(), "dual", max_depth=400)
                assert got.is_exact
                want = Q(0)
                for member in local.members:
                    masses = [weight_on_cell(m, cell_of(member), which).mass
                              for which in ("sigma", "w")]
                    assert all(enc.is_exact for enc in masses)
                    sig, w = (enc.lo / member.length for enc in masses)
                    want += sig ** p_dual * w * member.length
                assert got.lo == want, (k, eps, seed, cell)
                sigma_l = weight_on_cell(m, cell, "sigma").mass
                rep = run_testing_report(m, local, cell.interval(), "dual", max_depth=400)
                assert rep.bound.is_exact
                assert rep.bound.lo == sigma_l.lo * k / (1 - eps)


def test_transplant_preserves_sparseness():
    m = model(k=3)
    fam = gen_random_martingale(4, Q(1, 2), 3)
    support = m.support_cells(1)[0].cell
    local = transplant_family(fam, support)
    ok, _ = is_martingale_sparse(local)
    assert ok
    assert all(support.interval().contains(mem) for mem in local.members)


def test_transplant_rejects_off_grid_members():
    # triadic length, but the left end is off the grid of its length
    fam = SparseFamily((iv(Q(1, 18), Q(1, 6)),), Q(1, 3))
    with pytest.raises(FamilyError, match="transplant needs triadic members"):
        transplant_family(fam, cell_from_address(""))


def test_sparse_packing_and_chain_inequalities():
    for seed in range(50):
        fam = gen_random_martingale(4, Q(1, 2), seed)
        if not fam.members:
            continue
        res = sparse_packing_check(fam, UNIT)
        assert res["ok"]
    chain = [IntervalQ(Q(0), Q(1, 2 ** i)) for i in range(6)]
    res = chain_decay_check(chain, Q(1, 32), 2, Q(1, 2))
    assert res["ok"]
    with pytest.raises(FamilyError):
        chain_decay_check([iv(0, Q(1, 2)), iv(Q(1, 2), 1)], Q(1, 4), 2, Q(1, 2))


def test_carleson_trivial_and_named_rejection():
    root, left = cell_from_address(""), cell_from_address("0")
    res = carleson_check(0, {root: Q(1)}, [Q(1)], 2, 1)
    assert res["ok"] and res["lhs"] == 1 and res["rhs"] == 4
    res = carleson_check(1, {root: Q(1), left: Q(3)}, [Q(1), Q(0), Q(0)], 2, 1)
    assert not res["ok"] and res["stage"] == "precondition" and res["cell"] == "0"


def test_carleson_rejects_keys_off_the_grid():
    root = cell_from_address("")
    with pytest.raises(ValueError, match="'00' lies below depth 1"):
        carleson_check(1, {root: 1, cell_from_address("00"): 50}, [1, 1, 1], 2, 2)
    res = carleson_check(1, {root: 1, cell_from_address("2"): 1}, [1, 1, 1], 2, 2)
    assert res["ok"] and res["lhs"] == Q(4, 3)


def test_carleson_reproduces_restricted_packing():
    rng = random.Random(5)
    for seed in range(25):
        fam = gen_random_martingale(3, Q(1, 2), 900 + seed, max_members=12)
        if not fam.members:
            continue
        coeffs = {}
        for member in fam.members:
            depth = 0
            length = member.length
            while length < 1:
                length *= 3
                depth += 1
            coeffs[cell_from_index(depth, int(member.left * 3 ** depth))] = Q(1)
        pieces = [cell_from_index(3, rng.randrange(27)).interval()
                  for _ in range(rng.randint(1, 4))]
        f = [Q(0)] * 27
        for i in range(27):
            leaf = cell_from_index(3, i).interval()
            f[i] = sum((1 for p in pieces if p.intersect(leaf) is not None and
                        p.intersect(leaf).length == leaf.length), Q(0))
            f[i] = min(f[i], Q(1))
        res = carleson_check(3, coeffs, f, 3, Q(2))
        assert res["ok"]
        rp = restricted_packing_check(fam, pieces, UNIT, 2)
        assert rp["ok"]
