import math
from dataclasses import replace

import numpy as np
import pytest

import gammaclutter.detector as det
import gammaclutter.mgf_core as mc
import gammaclutter.saddlepoint as sp
import gammaclutter.texture as tx
from gammaclutter.errors import InvalidScenario, NoConvergence

from oracles import compound_bromwich


def test_threshold_unit_exponential_closed_form():
    p = mc.scenario(M=1, kappa=1, S=0.0, q=0.0, nu=np.inf)
    for pfa in (1e-2, 1e-4, 1e-6):
        vb = det.threshold_for_pfa(p, pfa)
        assert vb == pytest.approx(-math.log(pfa), rel=2e-3)


def test_threshold_degenerate_pfa_one():
    p = mc.scenario(M=3, kappa=1, S=0.0, q=0.5, nu=np.inf)
    assert det.threshold_for_pfa(p, 1.0) == 0.0


def test_threshold_matches_oracle_root():
    p = mc.scenario(M=10, kappa=2, S=0.0, q=1.0, nu=10.0, rho_c=0.75)
    pfa = 1e-6
    vb = det.threshold_for_pfa(p, pfa)
    # independent root-find on the contour-integration oracle
    rule = tx.gamma_texture_rule(p.nu, 32)
    ctx = mc.ScenarioContext(p)

    def f(v):
        return compound_bromwich(v, p, rule, ctx) - pfa

    lo, hi = 0.5 * vb, 2.0 * vb
    assert f(lo) > 0 > f(hi)
    for _ in range(16):        # bracket down to ~2e-5 relative width
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    v_oracle = 0.5 * (lo + hi)
    assert vb == pytest.approx(v_oracle, rel=1.2e-3)


def test_pd_curve_null_coincidence_and_saturation():
    p = mc.scenario(M=5, kappa=2, S=0.0, q=0.8, nu=3.0,
                    rho_c=0.5, rho_s=0.7)
    pfa = 1e-4
    for method in ("eff-sdp", "eff-sp", "dmg-sdp", "diag-sdp"):
        curve = det.pd_curve(p, pfa, [0.0, 5.0, 5000.0], method)
        assert curve.pd[0] == pytest.approx(pfa, abs=1e-6)
        assert curve.pd[-1] > 0.999
        assert np.all(np.diff(curve.pd) >= -1e-6)
        assert curve.threshold > 0


def test_pd_curve_equals_per_sir_calls():
    # pd_curve inverts every (SIR, texture node) pair in one batched call;
    # it must agree with one compound_survival call per SIR value at the
    # same threshold, with S = 0 in the grid and for every method
    sirs = np.array([0.0, 0.5, 2.0, 8.0, 30.0])
    for kappa in (1, 2, math.inf):
        p = mc.scenario(M=6, kappa=kappa, S=0.0, q=0.7, nu=2.5,
                        rho_c=0.6, rho_s=0.85)
        rule = tx.gamma_texture_rule(p.nu, 8)
        for method in tx.ALL_METHODS:
            curve = det.pd_curve(p, 1e-4, sirs, method, texture_order=8)
            v_b = det.threshold_for_pfa(p, 1e-4, method, rule)
            assert curve.threshold == v_b
            single = [tx.compound_survival(v_b, replace(p, S=float(S)),
                                           method, rule) for S in sirs]
            assert np.max(np.abs(curve.pd - single)) <= 1e-15


def test_pd_failure_names_sir_and_node(monkeypatch):
    p = mc.scenario(M=4, kappa=2, S=0.0, q=0.8, nu=3.0,
                    rho_c=0.5, rho_s=0.7)
    sirs = [0.0, 1.0, 2.0, 4.0]
    rule = tx.gamma_texture_rule(p.nu, 8)
    monkeypatch.setattr(det, "threshold_for_pfa", lambda *a, **k: 3.0)

    def failing(v, tab, *args):
        raise sp._at(NoConvergence("forced"), 2 * rule.order + 3)

    monkeypatch.setattr(sp, "_survival_block", failing)
    with pytest.raises(NoConvergence,
                       match=rf"S=2\.0, power level v=3\.0, "
                             rf"texture node u={rule.nodes[3]}\]"):
        det.pd_curve(p, 1e-4, sirs, "eff-sp", texture_order=8)


def test_pd_grid_must_be_sorted():
    p = mc.scenario(M=5, kappa=2, S=0.0, q=0.8, nu=3.0)
    with pytest.raises(InvalidScenario):
        det.pd_curve(p, 1e-4, [3.0, 1.0], "eff-sdp")


def test_pd_sdp_vs_sp_stay_close():
    # kappa=2 correlated K-clutter detection curve at P_FA = 1e-6.  The
    # basic saddle-point approximation deviates from the exact path
    # integral by up to a few times 1e-2 around the distribution mean, so
    # the curves coincide to plot line width but not to 1e-2.
    p = mc.scenario(M=10, kappa=2, S=0.0, q=0.5, nu=2.0,
                    rho_c=0.75, rho_s=0.9)
    sirs = det.db_to_linear(np.linspace(0.0, 15.0, 9))
    a = det.pd_curve(p, 1e-6, sirs, "eff-sdp")
    b = det.pd_curve(p, 1e-6, sirs, "eff-sp")
    assert np.max(np.abs(a.pd - b.pd)) < 0.05


def test_pd_diag_within_one_percent_of_eff():
    p = mc.scenario(M=10, kappa=2, S=0.0, q=1.0, nu=2.0,
                    rho_c=0.9, rho_s=0.3)
    sirs = det.db_to_linear(np.linspace(0.0, 14.0, 8))
    a = det.pd_curve(p, 1e-3, sirs, "eff-sdp")
    b = det.pd_curve(p, 1e-3, sirs, "diag-sdp")
    mask = a.pd > 1e-3
    assert np.max(np.abs(a.pd[mask] - b.pd[mask]) / a.pd[mask]) < 0.01


def test_db_round_trip():
    s = np.array([0.5, 1.0, 10.0])
    assert np.allclose(det.db_to_linear(det.linear_to_db(s)), s, rtol=1e-14)
