import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import gammaclutter.detector as det
import gammaclutter.mgf_core as mc
import gammaclutter.saddlepoint as sp
import gammaclutter.texture as tx
from gammaclutter.errors import BracketFail, InvalidScenario, NoConvergence
from gammaclutter.fpm_mc import McConfig, simulate_returns

from oracles import compound_bromwich


def test_threshold_unit_exponential_closed_form():
    p = mc.scenario(M=1, kappa=1, S=0.0, q=0.0, nu=np.inf)
    for pfa in (1e-2, 1e-4, 1e-6, 1e-75, 1e-300):
        vb = det.threshold_for_pfa(p, pfa)
        assert vb == pytest.approx(-math.log(pfa), rel=2e-3)


def test_threshold_bisects_back_from_an_underflowed_start(monkeypatch):
    # a start so far out that the survival underflows to 0 there (F = e^-v
    # at v = 1e6): the search bisects back down to the closed form
    p = mc.scenario(M=1, kappa=1, S=0.0, q=0.0, nu=np.inf)
    monkeypatch.setattr(det, "gammainccinv", lambda a, y: 1e6)
    for pfa in (1e-4, 1e-75, 1e-300):
        vb = det.threshold_for_pfa(p, pfa)
        assert vb == pytest.approx(-math.log(pfa), rel=2e-3)


def _engine_calls(monkeypatch):
    calls = []
    pairs = sp.survival_pairs
    monkeypatch.setattr(sp, "survival_pairs",
                        lambda v, *a: calls.append(len(v)) or pairs(v, *a))
    return calls


def test_threshold_search_engine_calls(monkeypatch):
    # the pd benchmark's scenarios: F > F_FLOOR, so each survival
    # evaluation is one engine call; the bracket-and-secant search made
    # 5.6-5.9 of them per search.  The S = 0 pole table is built once per
    # search, by the search, and never by the texture sum.
    calls, tables = _engine_calls(monkeypatch), []
    build = mc.pole_table
    for mod in (det, tx):
        monkeypatch.setattr(mod, "pole_table", lambda *a, mod=mod:
                            tables.append(mod.__name__) or build(*a))
    counts = []
    for kappa in (1, 2, math.inf):
        p = mc.scenario(M=10, kappa=kappa, S=0.0, q=0.5, nu=2.0,
                        rho_c=0.75, rho_s=0.9)
        for method in tx.ALL_METHODS:
            for pfa in (1e-4, 1e-6, 1e-8):
                calls.clear()
                tables.clear()
                det.threshold_for_pfa(p, pfa, method)
                counts.append(len(calls))
                assert tables == [det.__name__]
    assert np.mean(counts) <= 3.5 and max(counts) <= 5, counts


def test_threshold_envelope():
    # from P_FA 0.9 (threshold below the mean) down to 1e-20, light and
    # heavy textures, M = 1 to 100: every threshold meets its tolerance on
    # an independent survival evaluation
    for M, nu, kappa in itertools.product((1, 10, 100), (0.3, 2.0, math.inf),
                                          (1, math.inf)):
        p = mc.scenario(M=M, kappa=kappa, S=0.0, q=0.5, nu=nu,
                        rho_c=0.75, rho_s=0.9)
        rule = tx.gamma_texture_rule(nu, 128 if nu < tx.HEAVY_TAIL_NU else 32)
        for method in ("eff-sdp", "diag-sp"):
            for pfa in (0.9, 0.5, 1e-2, 1e-6, 1e-12, 1e-20):
                vb = det.threshold_for_pfa(p, pfa, method, rule)
                sf = tx.compound_survival(vb, p, method, rule)
                assert abs(sf - pfa) < det.PFA_REL_TOL * pfa, \
                    (M, nu, kappa, method, pfa, sf)


def test_threshold_fails_fast_at_a_survival_jump(monkeypatch):
    # the sp survival switches tails at a texture node's mean, so here F
    # jumps over pfa = 1e-2, from 0.010334 to 0.009993 at v = 9.8858; the
    # bracket-and-secant search spent 204 engine calls before giving up
    p = mc.scenario(M=10, kappa=1, S=0.0, q=1.0, nu=0.3,
                    rho_c=0.75, rho_s=0.9)
    rule = tx.gamma_texture_rule(p.nu, 128)
    calls = _engine_calls(monkeypatch)
    for method in ("eff-sp", "diag-sp"):
        calls.clear()
        with pytest.raises(BracketFail,
                           match=r"jumps across pfa=0\.01 between "
                                 r"v=9\.8858\d* \(F=0\.01033\d*\) and "
                                 r"v=9\.8858\d* \(F=0\.00999\d*\)"):
            det.threshold_for_pfa(p, 1e-2, method, rule)
        assert len(calls) <= 60


def test_threshold_degenerate_pfa_one():
    p = mc.scenario(M=3, kappa=1, S=0.0, q=0.5, nu=np.inf)
    assert det.threshold_for_pfa(p, 1.0) == 0.0


def test_survival_quantile_at_a_signal_level(monkeypatch):
    # the first seed-1 bench draw (M = 100) and the pd benchmark's scenario
    # at S = 5: the level where eff-sdp crosses 1e-3, in a few texture
    # sums (a scalar ladder and bisection made 12), each building its own
    # pole table, since the finite-kappa effective model decomposes per pair
    rng = np.random.default_rng(1)
    draw = mc.scenario(M=100, kappa=2, S=rng.uniform(1.0, 10.0),
                       q=rng.uniform(0.5, 1.0), nu=rng.uniform(1.0, 10.0),
                       rho_s=0.95, rho_c=0.75)
    pd_s5 = mc.scenario(M=10, kappa=2, S=5.0, q=0.5, nu=2.0,
                        rho_c=0.75, rho_s=0.9)
    sums, tables = [], []
    texture_sum, build = det._texture_sum, mc.pole_table
    monkeypatch.setattr(det, "_texture_sum", lambda v, *a:
                        sums.append(v) or texture_sum(v, *a))
    for mod in (det, tx):
        monkeypatch.setattr(mod, "pole_table", lambda *a, mod=mod:
                            tables.append(mod.__name__) or build(*a))
    for p in (draw, pd_s5):
        sums.clear()
        tables.clear()
        rule = tx.gamma_texture_rule(p.nu)
        v = det.survival_quantile(p, 1e-3, "eff-sdp", rule)
        assert len(sums) <= 5 and det.__name__ not in tables, (sums, tables)
        F = tx.compound_survival(v, p, "eff-sdp", rule)
        assert abs(F / 1e-3 - 1.0) < det.PFA_REL_TOL, (p, F)


def test_survival_quantile_raises_beyond_search_range():
    # exponential survival with mean 2e5: still e^-4.5 at v = 9e5
    p = mc.scenario(M=1, kappa=1, S=2e5, q=0.0, nu=np.inf)
    with pytest.raises(NoConvergence, match="stays above 0.001"):
        det.survival_quantile(p, 1e-3)


@pytest.mark.slow
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
            curve = det.pd_curve(p, 1e-4, sirs, method, rule=rule)
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
        det.pd_curve(p, 1e-4, sirs, "eff-sp", rule=rule)


def test_pd_grid_must_be_sorted():
    p = mc.scenario(M=5, kappa=2, S=0.0, q=0.8, nu=3.0)
    with pytest.raises(InvalidScenario):
        det.pd_curve(p, 1e-4, [3.0, 1.0], "eff-sdp")


def test_pd_grid_must_be_finite(monkeypatch):
    # a NaN SIR once reached the eigensolver and failed inside numpy; the
    # grid is checked before the threshold search, not after it
    def search(*a, **k):
        raise AssertionError("threshold search ran on a bad SIR grid")

    monkeypatch.setattr(det, "threshold_for_pfa", search)
    p = mc.scenario(M=10, kappa=2, S=0.0, q=0.5, nu=2.0,
                    rho_c=0.75, rho_s=0.9)
    for s in (math.nan, -1.0, math.inf):
        with pytest.raises(InvalidScenario, match="finite"):
            det.pd_curve(p, 1e-6, [1.0, s])


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


def test_correlation_raises_the_required_sir():
    # the paper's headline claim: a model that ignores correlation
    # under-states the SIR a given P_D needs.  The README scenario at
    # P_FA 1e-6, over a (rho_c, rho_s) ladder, with the required SIR for
    # P_D 0.5 and 0.9 read off a 0.25 dB grid
    s_db = np.linspace(0.0, 20.0, 81)
    ladder = ((0.0, 0.0), (0.75, 0.0), (0.75, 0.9), (0.95, 0.95))
    for kappa in (1, 2, math.inf):
        need = {}
        for method in ("eff-sdp", "diag-sdp"):
            need[method] = np.array([
                np.interp((0.5, 0.9), det.pd_curve(
                    mc.scenario(M=10, kappa=kappa, S=0.0, q=0.5, nu=2.0,
                                rho_c=rho_c, rho_s=rho_s),
                    1e-6, det.db_to_linear(s_db), method).pd, s_db)
                for rho_c, rho_s in ladder])
            assert np.all(np.diff(need[method], axis=0) >= 0.0), need
            assert np.all(need[method][2] - need[method][0] >= 2.0), need
        assert np.abs(need["eff-sdp"] - need["diag-sdp"]).max() <= 0.05, need


def test_pd_matches_the_monte_carlo_model():
    # the headline claim against the independent model: in the README
    # scenario, eff-sdp's P_D at its own P_FA 1e-6 threshold matches the
    # fraction of 2e5 quadrature-level MC draws above that threshold; the
    # correlation-blind model (rho_c = rho_s = 0, its own threshold)
    # over-states P_D, and dmg-sdp is further from the MC than eff-sdp
    sirs, n = det.db_to_linear(np.array([10.0, 12.0, 14.0])), 200_000
    z = []
    for i, kappa in enumerate((1, 2, math.inf)):
        p = mc.scenario(M=10, kappa=kappa, S=0.0, q=0.5, nu=2.0,
                        rho_c=0.75, rho_s=0.9)
        eff = det.pd_curve(p, 1e-6, sirs, "eff-sdp")
        dmg = det.pd_curve(p, 1e-6, sirs, "dmg-sdp").pd
        blind = det.pd_curve(mc.scenario(M=10, kappa=kappa, S=0.0, q=0.5,
                                         nu=2.0), 1e-6, sirs[:1]).pd
        for j, S in enumerate(sirs):
            draws = simulate_returns(McConfig(n, 7, replace(p, S=float(S))),
                                     3 * i + j)
            pd_mc = np.count_nonzero(draws > eff.threshold) / n
            sigma = math.sqrt(eff.pd[j] * (1.0 - eff.pd[j]) / n)
            z.append((eff.pd[j] - pd_mc) / sigma)
            assert abs(eff.pd[j] - pd_mc) < abs(dmg[j] - pd_mc), (kappa, S)
            if j == 0:
                assert blind[0] - pd_mc >= 0.3, (kappa, blind[0], pd_mc)
    assert np.max(np.abs(z)) <= 4.0, z


def test_db_round_trip():
    s_db = np.array([-10.0, 0.0, 3.0, 20.0])
    s = det.db_to_linear(s_db)
    assert s == pytest.approx([0.1, 1.0, 10.0 ** 0.3, 100.0], rel=1e-15)
    assert np.allclose(10.0 * np.log10(s), s_db, rtol=1e-14, atol=1e-14)
