"""Acceptance suite: every numbered criterion at its stated scale.

One PASS/FAIL line prints per criterion (run pytest with -s to see them
live; they also appear in the captured output of each test).

Known red: the forward half of criterion 14 fails as stated.  The sup of
the psi-bump product divided by k^r varies by about 11x over k in {2..8}
because the additive constant inside the gauge dominates small k; the
variation over k in {4..8} is ~1.5x and the dual half holds.  See the
README ("Known red") for the analysis.  The test is
marked strict-xfail so the defect stays visible without masking anything:
the CLI scenario still reports FAIL and exits nonzero.
"""

import pytest

from twoweightlab.acceptance import run_criterion
from twoweightlab.cli import run_scenario

_cache: dict[str, dict] = {}


def result(cid: str) -> dict:
    if cid not in _cache:
        res = run_criterion(cid)
        _cache[cid] = res
        state = "PASS" if res["passed"] else "FAIL"
        print(f"{cid:>4}  {state}  {res['name']}  ({res['elapsed']:.1f}s)")
    return _cache[cid]


def test_c01_exact_averages():
    res = result("C1")
    assert res["passed"]
    assert res["elapsed"] < 10


def test_c02_mass_conservation():
    assert result("C2")["passed"]


def test_c03_packing():
    assert result("C3")["passed"]


def test_c04_ap_uniformity():
    assert result("C4")["passed"]


def test_c05_testing_triadic():
    res = result("C5")
    assert res["passed"]
    assert res["elapsed"] < 60
    assert res["details"]["cross_k_spread"] <= 1.5


def test_c06_testing_linear_in_k():
    res = result("C6")
    assert res["passed"]
    assert res["details"]["loglog_slope"] <= 1.1


def test_c07_rescaled_non_increasing():
    res = result("C7")
    assert res["passed"]
    assert res["details"]["fitted_slope"] <= 0


def test_c08_exact_inequalities():
    res = result("C8")
    assert res["passed"]
    assert res["details"]["violations"] == []


def test_c09_hilbert_growth():
    res = result("C9")
    assert res["passed"]
    meds = res["details"]["medians"]
    assert all(b > a for a, b in zip(meds, meds[1:]))
    assert all(row["max_rel_width"] <= 0.01 for row in res["rows"])


# C10's per-k ratios as recorded in ROADMAP.md's baseline
_C10_BASELINE = {6: 1.52377860158, 10: 1.81418872769, 12: 1.98708907725,
                 14: 2.06745746123}


def test_c10_norm_exponent():
    res = result("C10")
    assert res["passed"]
    assert 0.1 <= res["details"]["slope"] <= 0.5
    assert all(row["indicator"] < 1e-3 for row in res["rows"])
    # each ratio lies within its own quadrature indicator of the baseline
    rows = {row["k"]: row for row in res["rows"]}
    for k, ratio in _C10_BASELINE.items():
        assert abs(rows[k]["ratio"] - ratio) <= rows[k]["indicator"] * ratio, k


def test_c11_maximal_bound():
    res = result("C11")
    assert res["passed"]
    assert all(row["worst_ratio"] <= 13 for row in res["rows"])


def test_c12_entropy_window():
    res = result("C12")
    assert res["passed"]
    assert res["details"]["window"] <= 4


def test_c13_blowup():
    res = result("C13")
    assert res["passed"]
    assert res["details"]["B_last_over_B_first"] >= 2


def test_c14_dual_bound_and_stable_tail():
    # the parts of criterion 14 that hold at desk scale
    res = result("C14")
    assert res["details"]["dual_max"] <= res["details"]["dual_constant"]
    assert res["details"]["spread_k_ge_4"] <= 2


@pytest.mark.xfail(strict=True,
                   reason="criterion 14 forward spread over k in {2..8} is ~11x; "
                          "small-k preasymptotics of the bump gauge (see README)")
def test_c14_forward_spread_as_specified():
    res = result("C14")
    assert res["details"]["forward_cross_k_spread"] <= 2
    assert res["passed"]


def test_c15_fundamental_window():
    res = result("C15")
    assert res["passed"]
    assert res["details"]["max_residual"] < 1e-10


def test_c16_series_ratios():
    res = result("C16")
    assert res["passed"]
    assert all(row["ratio"] <= 10 and row["tail"] < 1e-9 for row in res["rows"])


def test_c17_orlicz_domination():
    assert result("C17")["passed"]


def test_c18_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cfg = {"scenario": "averages-exact", "criteria": {"C1": {"ks": (2,), "ps": (2,),
                                                             "depth": 2}}}
    run_scenario(cfg, out1)
    run_scenario(cfg, out2)
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes()
                    for n in names)
    print(f" C18  {'PASS' if identical else 'FAIL'}  scenario reruns byte-identical")
    assert identical
