import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import gammaclutter.corrmodel as cm
import gammaclutter.detector as det
import gammaclutter.mgf_core as mc
import gammaclutter.saddlepoint as sp
import gammaclutter.texture as tx
from gammaclutter.errors import (DegenerateV, InvalidScenario, InvalidShape,
                                 NoConvergence, OrderTooLarge)

import oracles
from oracles import bromwich_oracle, floor_rung_walk, gamma_moment


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
    for order in ("8", 8.5, 8.0, 0):
        with pytest.raises(InvalidShape, match="integer >= 1"):
            tx.gamma_texture_rule(2.0, order)
    with pytest.raises(OrderTooLarge):
        tx.gamma_texture_rule(2.0, 300)
    with pytest.warns(UserWarning):
        rule = tx.gamma_texture_rule(0.3, 32)
    assert rule.order == 128


def test_rule_for_another_nu_is_rejected():
    # a nu = 5 rule on the nu = 2 scenario once gave eff-sp F(12) = 0.04806
    # instead of 0.04851 without a word
    p = mc.scenario(M=10, kappa=2, S=5.0, q=0.5, nu=2.0,
                    rho_c=0.75, rho_s=0.9)
    rule = tx.gamma_texture_rule(5.0, 8)
    for call in (lambda: tx.survival_curve([12.0], p, "eff-sp", rule),
                 lambda: tx.compound_survival(12.0, p, "eff-sp", rule),
                 lambda: tx.survival_interpolator(p, "eff-sp", rule=rule),
                 lambda: det.threshold_for_pfa(p, 1e-4, "eff-sp", rule),
                 lambda: det.pd_curve(p, 1e-4, [1.0], "eff-sp", rule)):
        with pytest.raises(InvalidScenario, match="nu=5.0 .* nu=2.0"):
            call()


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
    rule = tx.gamma_texture_rule(base["nu"], order)
    p = mc.scenario(kappa=2, S=2.0, **base)
    for method in ("eff-sdp", "eff-sp"):
        calls.clear()
        tx.survival_curve(grid, p, method, rule=rule)
        assert len(calls) == 4 * order
        assert len({u for _, u in calls}) == order
    for params, method in ((p, "dmg-sdp"), (p, "diag-sdp"),
                           (mc.scenario(kappa=np.inf, S=2.0, **base),
                            "eff-sdp"),
                           (mc.scenario(kappa=2, S=0.0, **base), "eff-sdp")):
        calls.clear()
        tx.survival_curve(grid, params, method, rule=rule)
        assert calls == []
    # a P_D curve decomposes once per (S > 0, texture node) pair; its
    # threshold search runs at S = 0 and decomposes nothing
    calls.clear()
    det.pd_curve(mc.scenario(kappa=2, S=0.0, **base), 1e-3,
                 [0.0, 1.0, 3.0], "eff-sdp", rule=rule)
    assert len(calls) == len(set(calls)) == 2 * order
    assert {S for S, _ in calls} == {1.0, 3.0}


def test_finite_kappa_curves_build_no_eigensystem(monkeypatch):
    # the diagonal scheme and the finite-kappa effective model read only
    # spectra, which need no eigenvectors; the steady effective model's
    # weights read both rotations
    calls = []
    original = cm.eigen_decompose

    def counting(C):
        calls.append(C.shape)
        return original(C)

    monkeypatch.setattr(cm, "eigen_decompose", counting)
    rule = tx.gamma_texture_rule(2.0, 8)
    grid = np.array([0.5, 2.0, 6.0])
    base = dict(M=100, S=3.0, q=0.8, nu=2.0, rho_c=0.75, rho_s=0.95)
    for kappa, methods in ((2, ("diag-sp", "diag-sdp", "eff-sp", "eff-sdp")),
                           (np.inf, ("diag-sp", "diag-sdp"))):
        p = mc.scenario(kappa=kappa, **base)
        for method in methods:
            vals = tx.survival_curve(grid, p, method, rule=rule)
            assert np.all((0.0 < vals) & (vals < 1.0))
    assert calls == []
    tx.survival_curve(grid, mc.scenario(kappa=np.inf, **base), "eff-sp",
                      rule=rule)
    assert calls == [(100, 100), (100, 100)]


def test_dmg_curves_build_no_eigensystem(monkeypatch):
    # DMG spectra come from the effective looks alone, so neither the
    # scenario eigensystems nor an aggregated matrix are decomposed (the
    # texture rule, an eigenproblem of its own, is built first)
    def refuse(*args, **kwargs):
        raise AssertionError("DMG decomposed a matrix")

    rule = tx.gamma_texture_rule(2.0, 8)
    monkeypatch.setattr(cm, "eigen_decompose", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    grid = np.array([0.5, 2.0, 6.0])
    for kappa in (2, np.inf):
        p = mc.scenario(M=100, kappa=kappa, S=3.0, q=0.8, nu=2.0,
                        rho_c=0.75, rho_s=0.95)
        for method in ("dmg-sdp", "dmg-sp"):
            vals = tx.survival_curve(grid, p, method, rule=rule)
            assert np.all((0.0 < vals) & (vals < 1.0))
    p = mc.scenario(M=100, kappa=2, S=0.0, q=0.8, nu=2.0,
                    rho_c=0.75, rho_s=0.95)
    curve = det.pd_curve(p, 1e-4, [1.0, 10.0], "dmg-sp", rule=rule)
    assert 0.0 < curve.pd[0] < curve.pd[1] < 1.0


@pytest.mark.parametrize("method", ["eff-sdp", "eff-sp"])
def test_null_effective_curve_builds_one_row_per_node(monkeypatch, method):
    # at S = 0 there is no aggregated matrix, so the finite-kappa effective
    # table needs one row per texture node, not one per (level, node) pair
    rows = []

    def counting(params, S, u, *args):
        rows.append(np.broadcast(S, u).size)
        return mc.pole_table(params, S, u, *args)

    monkeypatch.setattr(tx, "pole_table", counting)
    p = mc.scenario(M=6, kappa=2, S=0.0, q=0.8, nu=2.0,
                    rho_c=0.5, rho_s=0.8)
    rule = tx.gamma_texture_rule(p.nu, 8)
    tx.survival_curve([0.5, 1.0, 2.5, 4.0], p, method, rule)
    assert rows == [rule.order]


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


def test_wide_row_uncapped_input_matches_oracle():
    # A slowly fluctuating (kappa=30), nearly fully correlated target at
    # M=100 without clutter: the widest rows of the Tier-1 set, whose
    # tau-Newton residuals come near the evaluator's rounding floor.
    p = mc.scenario(M=100, kappa=30, S=15.0, q=0.0, nu=math.inf,
                    rho_s=0.9999)
    got = tx.survival_curve([16.16], p, "eff-sdp")[0]
    assert abs(got - oracles.compound_bromwich(16.16, p)) <= 1e-10


def test_failure_names_power_level_and_node(monkeypatch):
    p = mc.scenario(M=6, kappa=2, S=2.0, q=0.9, nu=2.0,
                    rho_c=0.5, rho_s=0.7)
    rule = tx.gamma_texture_rule(p.nu, 4)
    # an unsolved saddle, then an unsolved tau element
    for cap in ("SADDLE_MAX_ITER", "NEWTON_MAX_ITER"):
        with monkeypatch.context() as m:
            m.setattr(sp, cap, 0)
            with pytest.raises(NoConvergence, match=rf"v=4\.0, texture node "
                               rf"u={rule.nodes[0]}\]"):
                tx.survival_curve([4.0, 6.0], p, "eff-sdp", rule)


@pytest.mark.parametrize("method", ["eff-sdp", "eff-sp"])
@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_survival_curve_rejects_non_finite_level(method, v):
    p = mc.scenario(M=10, kappa=2, S=5.0, q=0.5, nu=2.0,
                    rho_c=0.75, rho_s=0.9)
    with pytest.raises(DegenerateV, match=f"power level v={v}, texture node"):
        tx.survival_curve([4.0, v], p, method)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_survival_interpolator_rejects_non_finite_level(v):
    grid = np.linspace(0.0, 10.0, 11)
    sf = tx.SurvivalInterpolator(grid, -grid)
    assert sf([0.0, 3.0]) == pytest.approx([1.0, math.exp(-3.0)])
    with pytest.raises(DegenerateV, match="finite"):
        sf([1.0, v, 3.0])


@st.composite
def _ln_sf_grids(draw):
    """A grid from v = 0, uniform or not, of 2 to 60 knots, and ln F on it
    from 0: decreasing, with flat runs (zero secants), or changing sign."""
    n = draw(st.integers(2, 60))
    if draw(st.booleans()):
        x = np.linspace(0.0, draw(st.floats(0.01, 100.0)), n)
    else:
        gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1,
                             max_size=n - 1))
        x = np.concatenate(([0.0], np.cumsum(gaps)))
    step = {"decreasing": st.floats(-5.0, -1e-6),
            "flat runs": st.sampled_from([0.0, -0.5, -1e-9]),
            "sign changes": st.floats(-5.0, 5.0)}[
        draw(st.sampled_from(["decreasing", "flat runs", "sign changes"]))]
    y = np.concatenate(([0.0], np.cumsum(
        draw(st.lists(step, min_size=n - 1, max_size=n - 1)))))
    return x, y, draw(st.integers(0, 2 ** 32 - 1))


def _assert_pchip_bits(x, y, sf, rng):
    """sf equals exp of scipy's PCHIP of (x, y) bit for bit on [0, x_end]:
    at random points, at every knot and the floats on either side."""
    v = np.concatenate((rng.uniform(0.0, x[-1], 500), x,
                        np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                        [0.0, sf.v_max]))
    v = np.clip(v, 0.0, x[-1])
    want = np.exp(PchipInterpolator(x, y, extrapolate=False)(v))
    assert np.array_equal(sf(v), want)


@settings(max_examples=300, deadline=None)
@given(_ln_sf_grids())
@example((np.array([0.0, 1.0]), np.array([0.0, -1.0]), 0))
@example((np.array([0.0, 0.5, 2.0]), np.array([0.0, -1.0, -1.0]), 1))
@example((np.array([0.0, 0.5, 2.0]), np.array([0.0, -1.0, 3.0]), 2))
def test_pchip_matches_scipy_bit_for_bit(grid):
    x, y, seed = grid
    _assert_pchip_bits(x, y, tx.SurvivalInterpolator(x, y),
                       np.random.default_rng(seed))


def test_pchip_matches_scipy_on_the_readme_scenario(monkeypatch):
    built = []

    class Recorded(tx.SurvivalInterpolator):
        def __init__(self, v_grid, log_sf):
            built.append((v_grid, log_sf))
            super().__init__(v_grid, log_sf)

    monkeypatch.setattr(tx, "SurvivalInterpolator", Recorded)
    p = mc.scenario(M=10, kappa=2, S=5.0, q=0.5, nu=2.0,
                    rho_c=0.75, rho_s=0.9)
    sf = tx.survival_interpolator(p, "eff-sdp", n_points=50)
    (x, y), = built
    assert x.size == 50
    _assert_pchip_bits(x, y, sf, np.random.default_rng(5))


@pytest.mark.parametrize("grid, log_sf", [
    ([0.0, 2.0, 1.0], [0.0, -1.0, -2.0]),            # not increasing
    ([0.0, 1.0, 1.0], [0.0, -1.0, -2.0]),            # a repeated knot
    ([0.0, 1.0, math.inf], [0.0, -1.0, -2.0]),       # a non-finite knot
    ([0.0, 1.0, math.nan], [0.0, -1.0, -2.0]),
    ([0.0, 1.0, 2.0], [0.0, -1.0, -math.inf]),       # a non-finite value
    ([0.0], [0.0]),                                  # one point
    ([0.0, 1.0, 2.0], [0.0, -1.0]),                  # lengths differ
])
def test_survival_interpolator_rejects_what_pchip_rejects(grid, log_sf):
    with pytest.raises(ValueError):
        PchipInterpolator(grid, log_sf)
    with pytest.raises(ValueError):
        tx.SurvivalInterpolator(np.array(grid), np.array(log_sf))


def test_bromwich_oracle_raises_when_unconverged(monkeypatch):
    # three halvings cannot bring successive estimates within 1e-30; the
    # default twelve would take minutes to find that out
    p = mc.scenario(M=4, kappa=3, S=0.0, q=0.0, nu=np.inf)
    monkeypatch.setattr(oracles, "_ORACLE_HALVINGS", 3)
    with pytest.raises(NoConvergence, match="3 step halvings"):
        bromwich_oracle(1.0, p, 1.0, tol=1e-30)


def test_survival_interpolator_raises_beyond_search_range():
    # S = 50 dB: the exponential survival is still e^-7.5 at v = 7.5e5,
    # the last level the expanding search reaches below 1e6; at S = 2e6 the
    # first rung is already past it
    for S in (1e5, 2e6):
        p = mc.scenario(M=1, kappa=1, S=S, q=0.0, nu=np.inf)
        with pytest.raises(NoConvergence, match="up to v=1e"):
            tx.survival_interpolator(p, "eff-sp")


def _floor_rung_calls(monkeypatch, p, method):
    """_floor_rung's end and the power levels of each texture sum it made."""
    calls = []
    texture_sum = tx._texture_sum

    def counting(v, *args, **kwargs):
        calls.append(np.atleast_1d(v).copy())
        return texture_sum(v, *args, **kwargs)

    monkeypatch.setattr(tx, "_texture_sum", counting)
    rule = tx.gamma_texture_rule(p.nu)
    hi = tx._floor_rung(p, tx.Method.parse(method), rule,
                        mc.ScenarioContext(p))
    monkeypatch.undo()
    return hi, calls


@pytest.mark.parametrize("method", ["eff-sdp", "dmg-sp"])
def test_floor_rung_matches_the_rung_walk(monkeypatch, method):
    # the tangent only picks which rungs to sum: the end is the same float
    # as the rung-by-rung walk's, and the ks-m10 scenario takes two sums
    ks = mc.scenario(M=10, kappa=2, S=5.0, q=0.5, nu=2.0,
                     rho_c=0.75, rho_s=0.9)
    # the first tangent stops short of the crossing (convex K tail) ...
    short = mc.scenario(M=10, kappa=2, S=0.0, q=0.9, nu=0.6,
                        rho_c=0.5, rho_s=0.5)
    # ... or passes the rung below it (concave tail of a steady target), so
    # a chord of ln F picks among the skipped rungs
    over = mc.scenario(M=10, kappa=np.inf, S=11.0, q=0.2, nu=np.inf,
                       rho_c=0.5, rho_s=0.5)
    rng = np.random.default_rng(16)
    draws = [mc.scenario(M=int(rng.choice([1, 2, 4, 10])),
                         kappa=rng.choice([1, 2, 3, np.inf]),
                         S=float(rng.choice([0.0, rng.uniform(0, 20)])),
                         q=float(rng.uniform(0, 1)),
                         nu=float(rng.choice([0.6, 1.0, 2.0, 8.0, np.inf])),
                         rho_c=float(rng.uniform(0, 0.95)),
                         rho_s=float(rng.uniform(0, 0.95)))
             for _ in range(6)]
    # under dmg-sp the first chord pick leaves the crossing unconfirmed and
    # a second chord pick sums the one rung left: 1 + 2 + 2 + 1 levels
    refine = mc.scenario(M=10, kappa=2, S=141.9731404675582,
                         q=0.7041834017619223, nu=2.0,
                         rho_c=0.47034884953616884,
                         rho_s=0.06025556648838332)
    draws.append(refine)
    for p in [ks, short, over] + draws:
        rule = tx.gamma_texture_rule(p.nu)
        want = floor_rung_walk(p, method, rule, mc.ScenarioContext(p))
        hi, calls = _floor_rung_calls(monkeypatch, p, method)
        assert hi == want
        if p is refine:
            assert hi == 549.2456164201715
            assert sum(c.size for c in calls) <= 6
        first_pick = calls[1] if len(calls) > 1 else calls[0]
        if p is ks:
            assert len(calls) <= 2
        elif p is short:
            assert first_pick.max() < want
        elif p is over:
            assert first_pick.min() >= want and len(calls) == 3


def test_floor_rung_narrows_the_fill_in_after_an_overshoot(monkeypatch):
    # the tangent from the mean overshoots here by several rungs; the chord
    # of ln F to the overshooting rung picks the crossing, where a fill-in
    # of every skipped rung summed 1 + 2 + 6 levels against the walk's 8
    p = mc.scenario(M=1, kappa=3, S=14.51, q=0.32, nu=2.0)
    hi, calls = _floor_rung_calls(monkeypatch, p, "eff-sdp")
    assert hi == 163.49634470399994
    assert sum(c.size for c in calls) <= 8


def test_texture_sum_slope_matches_finite_difference():
    # the slope from the saddles, d ln T_l/dv ~ s0_l - 1/v per node, is
    # within 6 % of a central difference of ln F on both tails, for the
    # exact and the basic saddle-point survival alike
    p = mc.scenario(M=10, kappa=2, S=0.0, q=0.5, nu=2.0,
                    rho_c=0.75, rho_s=0.9)
    rule, ctx = tx.gamma_texture_rule(p.nu), mc.ScenarioContext(p)
    for method in (tx.Method.parse("eff-sdp"), tx.Method.parse("diag-sp")):
        v = np.array([0.3, 3.0, 5.0, 8.0, 20.0])
        F, slope = tx._texture_sum(v, 0.0, p, method, rule, ctx)
        up, _ = tx._texture_sum(v * (1.0 + 1e-5), 0.0, p, method, rule, ctx)
        down, _ = tx._texture_sum(v * (1.0 - 1e-5), 0.0, p, method, rule, ctx)
        fd = (np.log(up) - np.log(down)) / (2e-5 * v)
        assert F[0] > 0.9 and F[-1] < 1e-8
        assert np.all(np.abs(slope / fd - 1.0) < 0.06), slope / fd


def _all_node_sum(grid, p, method, rule):
    # every (level, node) pair inverted in one call, then summed
    m = tx.Method.parse(method)
    n = rule.order
    table = mc.pole_table(p, np.full(grid.size * n, p.S),
                          np.tile(rule.nodes, grid.size), m.scheme,
                          mc.ScenarioContext(p))
    vals = sp.survival_pairs(np.repeat(grid, n), table,
                             np.arange(grid.size * n), m.integrator)
    return np.clip(vals.reshape(grid.size, n) @ rule.weights, 0.0, 1.0)


def _counting_engine(monkeypatch):
    # the power levels of each survival_pairs call and the rows of each
    # pole table the texture sum builds
    calls, rows = [], []
    pairs, table = sp.survival_pairs, mc.pole_table
    monkeypatch.setattr(sp, "survival_pairs",
                        lambda v, *a: calls.append(np.copy(v)) or
                        pairs(v, *a))
    monkeypatch.setattr(tx, "pole_table", lambda params, S, u, *a:
                        rows.append(np.broadcast(S, u).size) or
                        table(params, S, u, *a))
    return calls, rows


@pytest.mark.parametrize("nu", [0.3, 1.0, 2.0, 5.0, 10.0])
def test_texture_sum_within_4_ulp_of_all_nodes(nu):
    # the skipped nodes weigh at most 2^-53 F, from F ~ 1 down to the far
    # tail, where the light nodes dominate; nu = 0.3 takes the order-128
    # heavy-tail rule
    rule = tx.gamma_texture_rule(nu, 128 if nu < tx.HEAVY_TAIL_NU else 32)
    reach = {0.3: 450.0, 1.0: 170.0, 2.0: 115.0, 5.0: 95.0, 10.0: 80.0}[nu]
    grid = np.geomspace(0.3, reach, 10)
    for kappa in (1, 2, np.inf):
        p = mc.scenario(M=4, kappa=kappa, S=2.0, q=0.8, nu=nu,
                        rho_c=0.5, rho_s=0.8)
        for method in [m.name for m in tx.ALL_METHODS]:
            want = _all_node_sum(grid, p, method, rule)
            assert want[0] > 0.5 and 0.0 < want[-1] < 1e-12
            got = tx.survival_curve(grid, p, method, rule)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), \
                (kappa, method)


def test_far_tail_point_takes_a_second_pass(monkeypatch):
    p = mc.scenario(M=4, kappa=2, S=2.0, q=0.8, nu=1.0,
                    rho_c=0.5, rho_s=0.8)
    rule = tx.gamma_texture_rule(p.nu, 32)
    grid = np.array([2.0, 150.0])
    want = _all_node_sum(grid, p, "eff-sdp", rule)
    assert want[0] > tx.F_FLOOR > want[1]
    calls, rows = _counting_engine(monkeypatch)
    got = tx.survival_curve(grid, p, "eff-sdp", rule)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    # the first pass covers both levels alike; the second only the far one,
    # at nodes the first skipped
    first, second = calls
    assert np.sum(first == 2.0) == np.sum(first == 150.0) < rule.order
    assert np.all(second == 150.0)
    assert len(first) + len(second) <= 2 * rule.order
    assert rows == [len(first), len(second)]


def test_texture_sum_skips_light_nodes(monkeypatch):
    p = mc.scenario(M=100, kappa=2, S=5.0, q=0.75, nu=5.0,
                    rho_s=0.95, rho_c=0.75)
    mom = mc.analytic_moments(p)
    sd = math.sqrt(mom.variance)
    grid = np.linspace(mom.mean - sd, mom.mean + 4.0 * sd, 6)
    calls, rows = _counting_engine(monkeypatch)
    vals = tx.survival_curve(grid, p, "eff-sp")
    assert vals.min() >= 1e-9
    # one pass, whose effective table holds only the pairs it inverts
    assert len(calls) == 1 and rows == [calls[0].size] and \
        calls[0].size <= 6 * 27
    heavy = mc.scenario(M=4, kappa=2, S=2.0, q=0.8, nu=0.3,
                        rho_c=0.5, rho_s=0.8)
    rule = tx.gamma_texture_rule(heavy.nu, 128)
    calls.clear()
    assert tx.survival_curve([3.0], heavy, "diag-sdp", rule) > tx.F_FLOOR
    assert sum(c.size for c in calls) < 64


@pytest.mark.parametrize("n_points", [0, 1, 2.5, 3.0])
def test_survival_interpolator_rejects_too_few_points(n_points):
    p = mc.scenario(M=4, kappa=2, S=1.0, q=0.5, nu=2.0)
    with pytest.raises(InvalidScenario, match="n_points"):
        tx.survival_interpolator(p, n_points=n_points)
