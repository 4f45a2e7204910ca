import math

import numpy as np
import pytest

import gammaclutter.detector as det
import gammaclutter.mgf_core as mc
import gammaclutter.saddlepoint as sp
import gammaclutter.texture as tx
from gammaclutter.errors import InvalidShape, NoConvergence, OrderTooLarge

import oracles
from oracles import bromwich_oracle, gamma_moment


def test_rule_normalization_and_mean():
    for nu in (0.7, 1.0, 5.0, 37.5):
        rule = tx.gamma_texture_rule(nu, 32)
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        assert abs(np.dot(rule.weights, rule.nodes) - 1.0) < 1e-10
        assert np.all(rule.nodes > 0)


def test_rule_second_moment_texture_variance():
    for nu in (1.0, 4.0, 25.0):
        rule = tx.gamma_texture_rule(nu, 32)
        m2 = np.dot(rule.weights, rule.nodes ** 2)
        assert m2 == pytest.approx(1.0 + 1.0 / nu, abs=1e-10)


def test_rule_third_moment_exponential():
    rule = tx.gamma_texture_rule(1.0, 32)
    assert np.dot(rule.weights, rule.nodes ** 3) == pytest.approx(6.0, abs=1e-8)


def test_rule_gamma_moments_grid():
    for nu in (0.5, 1.0, 5.0, 10.0, 100.0):
        rule = tx.gamma_texture_rule(nu, 32)
        for k in range(5):
            got = np.dot(rule.weights, rule.nodes ** k)
            assert got == pytest.approx(gamma_moment(nu, k), abs=1e-9)


def test_rule_degenerate_texture():
    rule = tx.gamma_texture_rule(math.inf, 32)
    assert rule.order == 1 and rule.nodes[0] == 1.0

    proxy = tx.gamma_texture_rule(1e8, 32)
    assert np.dot(proxy.weights, np.abs(proxy.nodes - 1.0)) < 1e-3


def test_rule_guards():
    with pytest.raises(InvalidShape):
        tx.gamma_texture_rule(0.0, 32)
    with pytest.raises(OrderTooLarge):
        tx.gamma_texture_rule(2.0, 300)
    with pytest.warns(UserWarning):
        rule = tx.gamma_texture_rule(0.3, 32)
    assert rule.order == 128


def test_method_parsing():
    m = tx.Method.parse("dmg-sp")
    assert m.scheme is mc.Scheme.DMG and m.integrator == "sp"
    assert m.name == "dmg-sp"
    with pytest.raises(ValueError):
        tx.Method.parse("foo-sdp")
    with pytest.raises(ValueError):
        tx.Method.parse("eff-bogus")


def test_compound_survival_degenerate_texture_single_node():
    p = mc.scenario(M=5, kappa=2, S=2.0, q=0.7, nu=np.inf,
                    rho_c=0.4, rho_s=0.6)
    co = mc.speckle_coeffs(p, 1.0)
    for v in (0.5, 3.0, 6.0):
        assert tx.compound_survival(v, p) == pytest.approx(
            sp.survival_sdp(v, co), abs=1e-14)
    assert tx.compound_survival(0.0, p) == 1.0


def test_compound_survival_monotone_bounded():
    p = mc.scenario(M=8, kappa=2, S=3.0, q=0.8, nu=1.5,
                    rho_c=0.6, rho_s=0.85)
    grid = np.linspace(0.0, 15.0, 60)
    vals = tx.survival_curve(grid, p)
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert vals[0] == 1.0


def test_order_doubling_stability():
    p = mc.scenario(M=6, kappa=2, S=2.0, q=0.9, nu=0.8,
                    rho_c=0.5, rho_s=0.7)
    ctx = mc.ScenarioContext(p)
    r32 = tx.gamma_texture_rule(p.nu, 32)
    r64 = tx.gamma_texture_rule(p.nu, 64)
    for v in (0.5, 2.0, 4.0, 8.0):
        a = tx.compound_survival(v, p, "eff-sdp", r32, ctx)
        b = tx.compound_survival(v, p, "eff-sdp", r64, ctx)
        if a >= 1e-6:
            assert abs(a - b) < 1e-8


def test_effective_curve_decomposes_once_per_pair(monkeypatch):
    # the finite-kappa effective model decomposes its aggregated matrix at
    # every (v > 0, texture node) pair, and no other curve decomposes it;
    # criterion 10's diag-sdp < eff-sdp ordering rests on that cost.  The
    # decompositions are stacked, so each row of a stack counts as one.
    calls = []
    original = mc.ScenarioContext.aggregated_eigenvalues

    def counting(self, S, u):
        calls.extend(zip(S, u))
        return original(self, S, u)

    monkeypatch.setattr(mc.ScenarioContext, "aggregated_eigenvalues",
                        counting)
    base = dict(M=6, q=0.8, nu=2.0, rho_c=0.5, rho_s=0.8)
    grid = np.array([0.0, 1.0, 2.5, 4.0, 7.0])
    order = 8
    p = mc.scenario(kappa=2, S=2.0, **base)
    for method in ("eff-sdp", "eff-sp"):
        calls.clear()
        tx.survival_curve(grid, p, method, texture_order=order)
        assert len(calls) == 4 * order
        assert len({u for _, u in calls}) == order
    for params, method in ((p, "dmg-sdp"), (p, "diag-sdp"),
                           (mc.scenario(kappa=np.inf, S=2.0, **base),
                            "eff-sdp"),
                           (mc.scenario(kappa=2, S=0.0, **base), "eff-sdp")):
        calls.clear()
        tx.survival_curve(grid, params, method, texture_order=order)
        assert calls == []
    # a P_D curve decomposes once per (S > 0, texture node) pair; its
    # threshold search runs at S = 0 and decomposes nothing
    calls.clear()
    det.pd_curve(mc.scenario(kappa=2, S=0.0, **base), 1e-3,
                 [0.0, 1.0, 3.0], "eff-sdp", texture_order=order)
    assert len(calls) == len(set(calls)) == 2 * order
    assert {S for S, _ in calls} == {1.0, 3.0}


def test_bromwich_erlang_and_single_pole():
    from scipy.special import gammaincc
    p = mc.scenario(M=4, kappa=3, S=0.0, q=0.0, nu=np.inf)
    for v in (0.5, 1.0, 2.5):
        got = bromwich_oracle(v, p, 1.0)
        assert got == pytest.approx(gammaincc(4, 4 * v), abs=1e-8)

    p1 = mc.scenario(M=1, kappa=1, S=3.0, q=0.0, nu=np.inf)
    for v in (1.0, 4.0, 10.0):
        got = bromwich_oracle(v, p1, 1.0)
        assert got == pytest.approx(math.exp(-v / 4.0), abs=1e-9)


def test_bromwich_agrees_with_sdp_correlated():
    p = mc.scenario(M=10, kappa=2, S=5.0, q=1.0, nu=2.0,
                    rho_c=0.75, rho_s=0.95)
    ctx = mc.ScenarioContext(p)
    co = mc.speckle_coeffs(p, 0.8, ctx=ctx)
    for v in (2.0, 6.0, 12.0):
        a = sp.survival_sdp(v, co)
        b = bromwich_oracle(v, p, 0.8, ctx=ctx)
        assert abs(a - b) < 1e-6


def test_survival_interpolator_accuracy():
    p = mc.scenario(M=6, kappa=2, S=3.0, q=0.6, nu=2.0,
                    rho_c=0.5, rho_s=0.8)
    sf = tx.survival_interpolator(p, "eff-sdp", n_points=300)
    ctx = mc.ScenarioContext(p)
    rule = tx.gamma_texture_rule(p.nu, 32)
    # monotone cubic interpolation error is far below the 1/sqrt(n) KS
    # resolution the interpolant exists to serve
    for v in (0.01, 0.9, 2.7, 5.3, 9.9):
        direct = tx.compound_survival(v, p, "eff-sdp", rule, ctx)
        assert float(sf(v)) == pytest.approx(direct, abs=1e-4)
    assert float(sf(0.0)) == 1.0
    assert float(sf(-1.0)) == 1.0
    v = np.linspace(0, 30, 500)
    out = sf(v)
    assert np.all(np.diff(out) <= 1e-12)


def test_survival_curve_equals_per_level_calls():
    p = mc.scenario(M=12, kappa=3, S=2.0, q=0.8, nu=3.0,
                    rho_c=0.6, rho_s=0.9)
    rule = tx.gamma_texture_rule(p.nu, 8)
    grid = np.array([0.0, 0.7, 2.0, 3.0, 5.5, 9.0])
    for method in ("eff-sdp", "dmg-sp", "diag-sdp"):
        curve = tx.survival_curve(grid, p, method, rule, mc.ScenarioContext(p))
        single = [tx.compound_survival(v, p, method, rule,
                                       mc.ScenarioContext(p)) for v in grid]
        assert np.max(np.abs(curve - single)) <= 1e-14
        assert tx.survival_curve([0.0, -1.0], p, method, rule).tolist() == \
            [1.0, 1.0]


def test_curve_march_fallback_matches(monkeypatch):
    p = mc.scenario(M=10, kappa=2, S=3.0, q=0.7, nu=2.0,
                    rho_c=0.6, rho_s=0.9)
    rule = tx.gamma_texture_rule(p.nu, 4)
    grid = np.array([0.5, 2.0, 4.0, 9.0])
    want = tx.survival_curve(grid, p, "eff-sdp", rule, mc.ScenarioContext(p))
    calls = []
    march = sp._march_to
    monkeypatch.setattr(sp, "_march_to",
                        lambda *a, **k: calls.append(1) or march(*a, **k))
    monkeypatch.setattr(sp, "NEWTON_MAX_ITER", 3)
    got = tx.survival_curve(grid, p, "eff-sdp", rule, mc.ScenarioContext(p))
    assert len(calls) > 100
    assert np.max(np.abs(got - want)) <= 1e-12


def test_failure_names_power_level_and_node(monkeypatch):
    p = mc.scenario(M=6, kappa=2, S=2.0, q=0.9, nu=2.0,
                    rho_c=0.5, rho_s=0.7)
    rule = tx.gamma_texture_rule(p.nu, 4)
    monkeypatch.setattr(sp, "SADDLE_MAX_ITER", 0)
    with pytest.raises(NoConvergence,
                       match=rf"v=4\.0, texture node u={rule.nodes[0]}\]"):
        tx.survival_curve([4.0, 6.0], p, "eff-sdp", rule)


def test_bromwich_oracle_raises_when_unconverged(monkeypatch):
    # three halvings cannot bring successive estimates within 1e-30; the
    # default twelve would take minutes to find that out
    p = mc.scenario(M=4, kappa=3, S=0.0, q=0.0, nu=np.inf)
    monkeypatch.setattr(oracles, "_ORACLE_HALVINGS", 3)
    with pytest.raises(NoConvergence, match="3 step halvings"):
        bromwich_oracle(1.0, p, 1.0, tol=1e-30)


def test_survival_interpolator_raises_beyond_search_range():
    # S = 50 dB: the exponential survival is still e^-7.5 at v = 7.5e5,
    # the last level the expanding search reaches below 1e6
    p = mc.scenario(M=1, kappa=1, S=1e5, q=0.0, nu=np.inf)
    with pytest.raises(NoConvergence):
        tx.survival_interpolator(p, "eff-sp")
