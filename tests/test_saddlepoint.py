import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from scipy.optimize import brentq
from scipy.special import gammaincc

import gammaclutter.mgf_core as mc
import gammaclutter.saddlepoint as sp
from gammaclutter import detector, texture
from gammaclutter.errors import DegenerateV, NoConvergence
from oracles import (ExactTauRow, dlog, effsw0_survival, exact_tau_survival,
                     phase)


def fig_scenario():
    """Correlated K-clutter scenario exercised throughout (kappa = 2)."""
    return mc.scenario(M=10, kappa=2, S=5.0, q=1.0, nu=2.0,
                       rho_c=0.75, rho_s=0.95)


class _StateEv:
    """Element evaluator (tau, tau') over one state's exact phase, with the
    per-row constants the Newton reads, from the state's own row: the
    Taylor coefficients a_2..a_4 and the curvature constants W and G.  Its
    rows are narrow, so the Newton tolerance needs no rounding floor."""

    def __init__(self, state):
        self.state = state
        self.floor = np.zeros(1)
        c, w, g = state.c, state.w, state.g
        self.taylor = np.array([[-np.dot(w, c ** k) / k
                                 - np.dot(g, c ** (k - 1))]
                                for k in (2, 3, 4)])
        self.curv = np.array([[np.abs(w).sum()],
                              [2.0 * np.sum(np.abs(g) / (c * c))]])

    def __call__(self, z, p):
        return self.state.tau(z), self.state.dtau(z)


def _invert(tau, st):
    """Root z of tau(z) = tau on the steepest-descent branch (Im z > 0)."""
    z = sp._invert_nodes(_StateEv(st), np.array([tau]), np.array([st.r2]),
                         np.zeros(1, dtype=int))
    return complex(z[0, 0])


def test_single_pole_saddle_quadratic_oracle():
    # M=1, kappa=1, S=0, q=0: v = 1/s + 1/(1+s)  =>  v s^2 + (v-2) s - 1 = 0
    p = mc.scenario(M=1, kappa=1, S=0.0, q=0.0, nu=np.inf)
    co = mc.speckle_coeffs(p, 1.0)
    for v in (1.5, 2.0, 5.0):
        s0, _, left = sp.solve_saddle(v, co)
        a, b, c = v, v - 2.0, -1.0
        root = (-b - math.sqrt(b * b - 4 * a * c)) / (2 * a)
        assert s0 == pytest.approx(root, abs=1e-12)
        assert not left


def test_phase_is_minimum_along_real_axis():
    p = fig_scenario()
    mgf = mc.speckle_coeffs(p, 1.0)
    s0, _, left = sp.solve_saddle(9.0, mgf)
    base = phase(s0, 9.0, mgf, left)
    for ds in (-1e-5, 1e-5):
        assert phase(s0 + ds, 9.0, mgf, left) > base


def test_saddle_residual_and_r1_across_grid():
    # the steady target covers dlog's beta term and r1's g terms
    steady = mc.scenario(M=10, kappa=math.inf, S=5.0, q=1.0, nu=2.0,
                         rho_c=0.75, rho_s=0.95)
    for p in (fig_scenario(), steady):
        ctx = mc.ScenarioContext(p)
        for u in (0.3, 1.0, 2.5):
            mgf = mc.speckle_coeffs(p, u, ctx=ctx)
            for v in np.linspace(0.2, 20.0, 40):
                st = ExactTauRow(v, mgf)
                resid = dlog(mgf, st.s0) - 1.0 / st.s0 + v
                assert abs(resid) < 1e-10 * max(1.0, v)
                assert abs(st.r1 - 1.0) < 1e-8
                assert st.r2 > 0


def test_saddle_side_selection():
    p = fig_scenario()
    mgf = mc.speckle_coeffs(p, 1.0)
    mean = mgf.mean
    s0, _, left = sp.solve_saddle(mean * 1.2, mgf)
    assert not left
    assert s0 < 0
    s0, _, left = sp.solve_saddle(mean * 0.8, mgf)
    assert left
    assert s0 > 0
    with pytest.raises(DegenerateV):
        sp.solve_saddle(0.0, mgf)


def test_tau_at_zero_and_small_tau_leading_order():
    p = fig_scenario()
    co = mc.speckle_coeffs(p, 1.0)
    st = ExactTauRow(10.0, co)
    assert _invert(0.0, st) == 0.0
    z = _invert(1e-6, st)
    z0 = 1j * math.sqrt(2e-6 / st.r2)
    assert abs(z - z0) < 0.1 * abs(z)


def test_tau_round_trip_on_quadrature_nodes():
    from scipy.special import roots_genlaguerre
    p = fig_scenario()
    ctx = mc.ScenarioContext(p)
    co = mc.speckle_coeffs(p, 1.0, ctx=ctx)
    st = ExactTauRow(12.0, co)
    t, _ = roots_genlaguerre(64, 0.5)
    for tau in t:
        z = _invert(float(tau), st)
        assert abs(st.tau(z) - tau) < 1e-10 * max(1.0, tau)
        assert z.imag > 0


def test_tau_series_quadratic_leading_term():
    # tau(z) + r2 z^2 / 2 = O(z^3): the linear term cancels at the saddle
    p = fig_scenario()
    co = mc.speckle_coeffs(p, 1.0)
    st = ExactTauRow(10.0, co)
    for z in (1e-3, 1e-3j, (1 + 1j) * 1e-3):
        resid = st.tau(z) + st.r2 * z * z / 2.0
        assert abs(resid) < 10.0 * abs(z) ** 3 * max(1.0, st.r2)


def test_sdp_erlang_closed_form_both_tails():
    for kappa in (1, 2, 4):
        for M in (1, 3, 10):
            p = mc.scenario(M=M, kappa=kappa, S=0.0, q=0.0, nu=np.inf)
            co = mc.speckle_coeffs(p, 1.0)
            for v in (0.2, 0.7, 1.0, 2.0, 4.0):
                got = sp.survival_sdp(v, co)
                assert got == pytest.approx(gammaincc(M, M * v), abs=1e-8)


def test_sdp_monotone_on_grid():
    p = fig_scenario()
    co = mc.speckle_coeffs(p, 1.0)
    grid = np.linspace(0.05, 25.0, 200)
    vals = [sp.survival_sdp(v, co) for v in grid]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= x <= 1.0 for x in vals)


def test_sp_worst_near_mean_and_single_pulse_form():
    p = fig_scenario()
    co = mc.speckle_coeffs(p, 1.0)
    vbar = co.mean
    grid = np.linspace(0.3 * vbar, 2.5 * vbar, 120)
    err = [abs(sp.survival_sp(v, co) - sp.survival_sdp(v, co)) for v in grid]
    v_star = grid[int(np.argmax(err))]
    assert abs(v_star - vbar) <= 0.3 * vbar

    p1 = mc.scenario(M=1, kappa=1, S=0.0, q=0.0, nu=np.inf)
    co1 = mc.speckle_coeffs(p1, 1.0)
    for v in (2.0, 4.0):
        # basic SP error of the unit exponential is ~8% at these levels
        assert sp.survival_sp(v, co1) == pytest.approx(math.exp(-v), rel=0.1)


def test_sdp_invariant_under_node_doubling(monkeypatch):
    p = fig_scenario()
    ctx = mc.ScenarioContext(p)
    co = mc.speckle_coeffs(p, 1.0, ctx=ctx)
    grid = (2.0, 6.0, 12.0, 18.0)
    a = [sp.survival_sdp(v, co) for v in grid]
    # twice the nodes of the 32-node rule over the same window
    monkeypatch.setattr(sp, "_TAU_RULE", sp._tau_rule(64, 5.9))
    for x, v in zip(a, grid):
        if x >= 1e-8:
            assert abs(x - sp.survival_sdp(v, co)) < 1e-9


def test_tau_rule_integrates_gamma_moments():
    # integral_0^inf sqrt(tau) e^{-tau} tau^j dtau = Gamma(j + 3/2)
    t, w = sp._TAU_RULE
    for j in (0, 1, 2):
        assert w @ (np.sqrt(t) * t ** j) == pytest.approx(math.gamma(j + 1.5),
                                                          rel=1e-12, abs=0.0)


def test_sdp_matches_high_order_laguerre_reference(monkeypatch):
    # the same engine on a 160-node generalized Gauss-Laguerre rule (weight
    # sqrt(tau) e^{-tau}, nodes of negligible weight dropped), per pair
    # over both tails and the whole texture rule
    from scipy.special import roots_genlaguerre
    t, w = roots_genlaguerre(160, 0.5)
    keep = w > 1e-24 * w.max()
    lag = (t[keep], w[keep] / np.sqrt(t[keep]))
    for M, kappa in ((1, 1), (2, 2), (3, math.inf), (10, 1), (10, 2),
                     (10, math.inf), (100, 2)):
        p = mc.scenario(M=M, kappa=kappa, S=3.0, q=0.8, nu=2.0,
                        rho_c=0.75, rho_s=0.9)
        rule = texture.gamma_texture_rule(p.nu, 32)
        tab = mc.pole_table(p, np.full(32, p.S), rule.nodes)
        v = np.repeat(mc.analytic_moments(p).mean
                      * np.geomspace(0.3, 5.0, 8), 32)
        rows = np.tile(np.arange(32), 8)
        got = sp.survival_pairs(v, tab, rows)
        with monkeypatch.context() as m:
            m.setattr(sp, "_TAU_RULE", lag)
            want = sp.survival_pairs(v, tab, rows)
        assert np.all(want > 0.0)
        assert np.max(np.abs(got - want) / want) <= 2e-12


def test_steady_phase_survival_matches_closed_form():
    S, M = 5.0, 10
    p = mc.scenario(M=M, kappa=np.inf, S=S, q=1.0, nu=np.inf,
                    rho_s=0.0, rho_c=1.0)
    co = mc.steady_coeffs(p, 1.0)
    for v in (1.0, 4.6, 5.5, 8.0, 12.0):
        want = effsw0_survival(v, S, M)
        assert sp.survival_sdp(v, co) == pytest.approx(want, abs=1e-10)


def test_log_kernel_matches_numpy_complex_log():
    # real z beyond a pole (1 - c z < 0) with both signed zeros, c = 0,
    # negative c (the right-tail 1/(s0 v) term) and generic points
    zs = np.array([2.5 + 0.0j, complex(2.5, -0.0), -3.0 + 0.0j,
                   complex(-3.0, -0.0), 0.3 + 0.8j, 1.7 - 0.2j, -0.4 - 2.5j,
                   1e-9j, 40.0 + 3.0j])
    cs = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.3, 0.01, 3.0])
    x, y = zs.real[:, None], zs.imag[:, None]
    *_, lr, li = sp._log1m(cs, x, y, np.empty((5, zs.size, cs.size)))
    ref = np.log(1.0 - np.multiply.outer(zs, cs))
    assert np.max(np.abs(0.5 * lr - ref.real)) <= 1e-15
    assert np.max(np.abs(li - ref.imag)) <= 1e-15
    assert np.array_equal(np.signbit(li), np.signbit(ref.imag))


def _stack(mgfs):
    """One zero-padded MGF table from rows of any widths."""
    tab = np.zeros((3, len(mgfs), max(m.a.size for m in mgfs)))
    for i, m in enumerate(mgfs):
        for dst, src in zip(tab, (m.a, m.alpha, m.beta)):
            dst[i, :src.size] = src
    return mc.PoleMgf(*tab)


def _mixed_batch():
    """(v, mgf) pairs over kappa 1, 2, inf, M 1..100, q 0 and 1, all three
    schemes and both tails; the rows differ in width, so padding is used."""
    pairs = []
    for M, kappa, q, scheme in ((1, 1, 0.0, mc.Scheme.EFFECTIVE),
                                (2, 2, 1.0, mc.Scheme.DMG),
                                (10, 2, 1.0, mc.Scheme.EFFECTIVE),
                                (10, math.inf, 0.0, mc.Scheme.DIAGONAL),
                                (10, math.inf, 1.0, mc.Scheme.EFFECTIVE),
                                (100, 2, 1.0, mc.Scheme.EFFECTIVE),
                                (100, 1, 0.0, mc.Scheme.DIAGONAL)):
        p = mc.scenario(M=M, kappa=kappa, S=3.0, q=q, nu=2.0,
                        rho_c=0.75, rho_s=0.9)
        mgf = mc.speckle_coeffs(p, 1.3, scheme)
        for frac in (0.6, 0.95, 1.4, 2.5):     # both sides of the mean
            pairs.append((frac * mgf.mean, mgf))
    return pairs


@pytest.mark.parametrize("integrator", ["sdp", "sp"])
def test_batch_equals_one_pair_calls(integrator):
    pairs = _mixed_batch()
    mgfs = [m for _, m in pairs]
    v = np.array([x for x, _ in pairs])
    got = sp.survival_pairs(v, _stack(mgfs), np.arange(len(pairs)),
                            integrator)
    one = sp.survival_sdp if integrator == "sdp" else sp.survival_sp
    want = np.array([one(x, m) for x, m in pairs])
    assert np.all((got > 0.0) & (got < 1.0))
    assert np.max(np.abs(got - want)) <= 1e-14
    # the same pairs reversed, and with each MGF given once for its 4 v
    rev = sp.survival_pairs(v[::-1], _stack(mgfs[::-1]),
                            np.arange(len(pairs)), integrator)
    assert np.max(np.abs(rev[::-1] - want)) <= 1e-14
    shared = sp.survival_pairs(v, _stack(mgfs[::4]),
                               np.repeat(np.arange(len(pairs) // 4), 4),
                               integrator)
    assert np.max(np.abs(shared - want)) <= 1e-14


def test_batch_returns_each_pair_saddle():
    # the saddles survival_pairs hands back are the one-pair solver's, and
    # a pair at its support shift (survival exactly 1) leaves its entry
    pairs = _mixed_batch()
    mgfs = [m for _, m in pairs]
    v = np.array([x for x, _ in pairs])
    saddles = np.full(v.size, np.nan)
    sp.survival_pairs(v, _stack(mgfs), np.arange(len(pairs)), "sp", saddles)
    want = [sp.solve_saddle(x, m)[0] for x, m in pairs]
    assert np.allclose(saddles, want, rtol=1e-12, atol=0.0)
    # the steady target in fully correlated clutter has a positive shift
    steady = mc.speckle_coeffs(mc.scenario(M=10, kappa=math.inf, S=3.0,
                                           q=1.0, nu=2.0, rho_c=1.0,
                                           rho_s=0.9), 1.0)
    shift = float(sp.support_shift(steady))
    assert shift > 0.0
    out = np.full(2, np.nan)
    sp.survival_pairs([0.5 * shift, 2.0 * float(steady.mean)], steady,
                      [0, 0], "sp", out)
    assert np.isnan(out[0]) and out[1] < 0.0


@pytest.mark.parametrize("integrator", ["sdp", "sp"])
def test_blocking_does_not_change_results(monkeypatch, integrator):
    pairs = _mixed_batch()
    mgfs = _stack([m for _, m in pairs])
    v = np.array([x for x, _ in pairs])
    rows = np.arange(len(pairs))
    want = sp.survival_pairs(v, mgfs, rows, integrator)
    # saddle blocks of 7 pairs and, on the widest rows, evaluator chunks
    # of 7 elements, which split the nodes of a pair in both Newton passes
    monkeypatch.setattr(sp, "_BLOCK_ELEMENTS", 7 * (1 + mgfs.a.shape[1]))
    nodes = sp._TAU_RULE[0].size
    for group in (1, 5):
        monkeypatch.setattr(sp, "_NEWTON_ELEMENTS", group * nodes)
        got = sp.survival_pairs(v, mgfs, rows, integrator)
        assert np.all(np.abs(got - want) <= 1e-15 * want)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_non_finite_power_level_raises(v):
    mgf = mc.speckle_coeffs(fig_scenario(), 1.0)
    with pytest.raises(DegenerateV):
        sp.survival_sdp(v, mgf)
    with pytest.raises(DegenerateV):
        sp.solve_saddle(v, mgf)
    with pytest.raises(DegenerateV) as err:
        sp.survival_pairs([12.0, v], mgf, [0, 0], "sp")
    assert err.value.pair == 1


def test_batch_failure_names_its_pair(monkeypatch):
    pairs = _mixed_batch()
    monkeypatch.setattr(sp, "SADDLE_MAX_ITER", 0)
    with pytest.raises(NoConvergence) as err:
        sp.survival_pairs([x for x, _ in pairs],
                          _stack([m for _, m in pairs]), np.arange(len(pairs)))
    assert err.value.pair == 0


def test_tau_rows_match_exact_phase_near_and_far():
    # the steady S>0 row carries the g z / (1 - c z) terms, and the steady
    # S=0 row has none
    for M, kappa, S in ((100, 2, 3.0), (100, 1, 3.0), (10, math.inf, 3.0),
                        (100, math.inf, 0.0)):
        p = mc.scenario(M=M, kappa=kappa, S=S, q=0.8, nu=2.0,
                        rho_c=0.75, rho_s=0.9)
        mgf = mc.speckle_coeffs(p, 0.7)
        for v in (0.7 * mgf.mean, 1.6 * mgf.mean):
            st = ExactTauRow(v, mgf)
            tab = mgf.take([0])
            s0, _, _, _ = sp._solve_saddles(np.array([v]), tab)
            rows = sp._TauRows(np.array([v]), tab, s0)
            top = 10.0
            z = np.array([0.3j, 0.4 * top * (0.2 + 1j), 0.9 * top * 1j,
                          1.5 * top * (0.1 + 1j), 3.0 * top * 1j])
            tau, dtau = rows(z, np.zeros(z.size, dtype=int))
            ref, dref = st.tau(z), st.dtau(z)
            assert np.all(np.abs(tau - ref) <= 1e-12 * np.maximum(1.0, abs(ref)))
            assert np.all(np.abs(dtau - dref)
                          <= 1e-12 * np.maximum(1.0, abs(dref)))


@pytest.mark.parametrize("M, kappa", [(10, 2), (10, math.inf), (100, 2)])
def test_tau_rows_call_allocates_no_element_by_column_arrays(M, kappa):
    # a warm evaluator call writes its (element x column) temporaries into
    # the instance's work arrays: over its outputs it allocates less than
    # two such arrays' worth, where fresh temporaries took 8 to 13
    p = mc.scenario(M=M, kappa=kappa, S=3.0, q=0.5, nu=2.0,
                    rho_c=0.75, rho_s=0.9)
    u = np.tile(texture.gamma_texture_rule(p.nu).nodes, 4)
    tab = mc.pole_table(p, np.full(u.size, p.S), u)
    v = tab.mean * np.repeat([0.7, 1.3, 2.0, 3.0], u.size // 4)
    s0, r2, _, _ = sp._solve_saddles(v, tab)
    t = sp._TAU_RULE[0][:24]
    z = (1j * np.sqrt(2.0 * t / r2[:, None])).ravel()
    pairs = np.repeat(np.arange(v.size), t.size)
    assert z.size == 3072
    ev = sp._TauRows(v, tab, s0)
    ev(z, pairs)
    tracemalloc.start()
    try:
        tau, dtau = ev(z, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - tau.nbytes - dtau.nbytes < 2 * sp._BLOCK_ELEMENTS * 8


def test_newton_step_halving_recovers_poor_starts():
    # full Newton steps from these starts leave the upper half plane or
    # raise the residual; only the step halving brings them in
    p = fig_scenario()
    st = ExactTauRow(12.0, mc.speckle_coeffs(p, 1.0))
    t, _ = sp._TAU_RULE
    ev = _StateEv(st)
    leading = np.sqrt(2.0 * t / st.r2)       # |z| to leading order
    want = np.array([_invert(float(x), st) for x in t])
    for scale, re in ((0.05, 0.0), (0.2, 1.0), (3.0, -1.0)):
        z0 = scale * (re + 1j) * leading
        z, _ = sp._newton(t, z0, ev, np.zeros(t.size, dtype=int))
        assert np.all(z.imag > 0.0)
        assert np.max(np.abs(z - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("kw, v, u, scheme", [
    # M=300, kappa=30, rho_s=0.9999: 301 poles of weight 30, whose rounding
    # floor (2u sum|w| = 2e-12) is above the 1e-13 tolerance; nu = inf
    # gives one texture node, u = 1
    (dict(M=300, kappa=30, S=15.0, q=0.0, nu=math.inf, rho_s=0.9999),
     24.19, 1.0, mc.Scheme.EFFECTIVE),
    # weights -1485 and +1386 on nearly equal poles: Newton stops 1.3 %
    # above u sum|w|, inside the 2u sum|w| floor
    (dict(M=100, kappa=15, S=18.81495138665463, q=0.001, nu=1.0,
          rho_s=0.9999, rho_c=0.9),
     19.81495138665463, 0.5768846293018907, mc.Scheme.DMG),
], ids=["eff-m300", "dmg-m100"])
def test_far_envelope_point_matches_mpmath_reference(kw, v, u, scheme):
    mgf = mc.speckle_coeffs(mc.scenario(**kw), u, scheme)
    got = sp.survival_pairs([v], mgf, [0])[0]
    tab = mgf.take([0])
    s0, r2, _, _ = sp._solve_saddles(np.array([v]), tab)
    t, w = sp._TAU_RULE
    z = sp._invert_nodes(sp._TauRows(np.array([v]), tab, s0), t, r2,
                         np.zeros(1, dtype=int))[0]
    want = exact_tau_survival(v, mgf, z, t, w)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _row(kw, v, u=1.0, scheme=mc.Scheme.EFFECTIVE):
    """The one-pair tau row of a scenario's MGF row at v, and its r2."""
    tab = mc.speckle_coeffs(mc.scenario(**kw), u, scheme).take([0])
    s0, r2, _, _ = sp._solve_saddles(np.array([v]), tab)
    return sp._TauRows(np.array([v]), tab, s0), r2


_STEADY = dict(q=0.8, nu=2.0, rho_c=0.75, rho_s=0.9, kappa=math.inf, S=3.0)


@pytest.mark.parametrize("kw, v", [
    (dict(M=10, kappa=2, S=5.0, q=1.0, nu=2.0, rho_c=0.75, rho_s=0.95), 4.0),
    (dict(M=10, kappa=2, S=5.0, q=1.0, nu=2.0, rho_c=0.75, rho_s=0.95), 30.0),
    (dict(_STEADY, M=10), 3.0), (dict(_STEADY, M=10), 12.0),
    (dict(_STEADY, M=100), 9.0), (dict(_STEADY, M=1, S=5.0, q=1.0), 2.0),
])
def test_taylor_coefficients_match_the_row(kw, v):
    # a_2 is -r2/2 from the saddle solve; a_3 and a_4 match the exact
    # complex-log row's own coefficients
    ev, r2 = _row(kw, v)
    assert ev.taylor[0, 0] == pytest.approx(-0.5 * r2[0], rel=1e-14, abs=0.0)
    mgf = mc.speckle_coeffs(mc.scenario(**kw), 1.0)
    want = _StateEv(ExactTauRow(v, mgf)).taylor[:, 0]
    assert ev.taylor[:, 0] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_series_start_falls_back_to_leading_order():
    # one pole, far in the tail: at the largest nodes the reversion's
    # correction C zeta^2 passes 1 and its z0 leaves the upper half plane
    ev, r2 = _row(dict(M=1, kappa=1, S=0.0, q=0.0, nu=2.0), 20.0)
    t = sp._TAU_RULE[0]
    z0 = sp._series_start(ev, t, r2, np.zeros(1, dtype=int))[0]
    zeta = 1j * np.sqrt(2.0 * t / r2[0])
    a2, a3, a4 = ev.taylor[:, 0]
    p, q = a3 / a2, a4 / a2
    raw = zeta * (1.0 - 0.5 * p * zeta + (0.625 * p * p - 0.5 * q) * zeta ** 2)
    out = raw.imag <= 0.0
    assert out.any() and not out.all()
    assert np.array_equal(z0[out], zeta[out])
    assert np.all(z0.imag > 0.0)
    # near the saddle the reversion is the start, and it is closer to the
    # root than the leading order
    near = np.abs(0.5 * p * zeta) < 0.1
    assert near.any() and np.array_equal(z0[near], raw[near])
    st = ExactTauRow(20.0, mc.speckle_coeffs(
        mc.scenario(M=1, kappa=1, S=0.0, q=0.0, nu=2.0), 1.0))
    root = np.array([_invert(float(x), st) for x in t[near]])
    assert np.all(np.abs(z0[near] - root) < np.abs(zeta[near] - root))


class _Recorder:
    """An evaluator that remembers every (pair, z) it evaluates."""

    def __init__(self, ev):
        self.ev, self.seen = ev, set()

    def __getattr__(self, name):
        return getattr(self.ev, name)

    def __call__(self, z, p):
        self.seen.update(zip(p.tolist(), z.tolist()))
        return self.ev(z, p)


@pytest.mark.parametrize("kw, v, u, scheme", [
    (dict(_STEADY, M=10), 12.0, 1.0, mc.Scheme.EFFECTIVE),
    (dict(_STEADY, M=100), 9.0, 1.0, mc.Scheme.EFFECTIVE),
    (dict(_STEADY, M=1, S=5.0, q=1.0), 20.0, 1.0, mc.Scheme.EFFECTIVE),
    (dict(M=300, kappa=30, S=15.0, q=0.0, nu=math.inf, rho_s=0.9999),
     24.19, 1.0, mc.Scheme.EFFECTIVE),
    (dict(M=100, kappa=15, S=18.81495138665463, q=0.001, nu=1.0,
          rho_s=0.9999, rho_c=0.9),
     19.81495138665463, 0.5768846293018907, mc.Scheme.DMG),
    # DMG weights -8970 and +8700 on nearly equal poles, whose floor
    # (3.9e-12) leaves the bound room below the tolerance at v=12 only at
    # the largest |z|
    (dict(M=300, kappa=30, S=7.756, q=0.01, nu=math.inf, rho_s=0.9999),
     12.0, 1.0, mc.Scheme.DMG),
], ids=["steady-m10", "steady-m100", "steady-m1", "eff-m300", "dmg-m100",
        "dmg-m300"])
def test_unevaluated_fill_steps_are_solved(kw, v, u, scheme):
    # every fill-pass z taken without an evaluation, evaluated afresh, is
    # within the tau-Newton's tolerance
    ev, r2 = _row(kw, v, u, scheme)
    if kw.get("kappa") == math.inf:
        assert ev.curv[1, 0] > 0.0          # beta terms: G is in the bound
    rec = _Recorder(ev)
    t = sp._TAU_RULE[0]
    z = sp._invert_nodes(rec, t, r2, np.zeros(1, dtype=int))[0]
    skipped = np.array([(0, complex(x)) not in rec.seen for x in z])
    assert skipped.any()
    zs, ts = z[skipped], t[skipped]
    tau, _ = ev(zs, np.zeros(zs.size, dtype=int))
    assert np.all(np.abs(tau - ts)
                  <= 1e-13 * np.maximum(1.0, ts) + 2e-14 * np.abs(zs))


def _inversions(monkeypatch, run):
    """Every z array _invert_nodes returns while run() runs."""
    out = []

    def invert(*a):
        out.append(inner(*a))
        return out[-1]

    inner = sp._invert_nodes
    with monkeypatch.context() as m:
        m.setattr(sp, "_invert_nodes", invert)
        run()
    return out


@pytest.mark.parametrize("run", [
    lambda: _pd_curve("eff-sdp"),
    lambda: _m100_curve("diag-sdp"),
], ids=["pd", "m100"])
def test_unevaluated_fill_steps_change_no_bit(monkeypatch, run):
    # with the bound at +inf every step is evaluated, as before the skip
    got = _inversions(monkeypatch, run)
    monkeypatch.setattr(sp, "_step_bound", lambda *a: np.inf)
    want = _inversions(monkeypatch, run)
    assert len(got) == len(want) > 0
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=200, deadline=None)
@given(kappa=hs.sampled_from([1, 2, math.inf]),
       q=hs.sampled_from([0.0, 0.5, 1.0]), M=hs.sampled_from([1, 2, 10, 100]),
       S=hs.sampled_from([0.0, 3.0]), rho_c=hs.sampled_from([0.75, 1.0]),
       u=hs.floats(1e-6, 3.0), e=hs.floats(-3.0, math.log10(50.0)))
@example(kappa=2, q=1.0, M=100, S=0.0, rho_c=0.75, u=7.81e-6, e=-2.86)
def test_saddle_newton_matches_scalar_root(kappa, q, M, S, rho_c, u, e):
    # v from just above the support shift (nonzero for the steady target
    # in fully correlated clutter), through the left tail, out to 50x the
    # mean; the root is checked against a scalar bracketing solver.  The
    # example has v well below 1, where an acceptance of |f| < 1e-11 that
    # does not scale with v left s0 6.3e-10 relative from the root
    p = mc.scenario(M=M, kappa=kappa, S=S, q=q, nu=2.0, rho_c=rho_c,
                    rho_s=0.9)
    mgf = mc.speckle_coeffs(p, u)
    shift = float(sp.support_shift(mgf))
    v = shift + (mgf.mean - shift) * 10.0 ** e
    s0, r2, _, left = sp._solve_saddles(np.array([v]), mgf.take([0]))
    s0 = float(s0[0])

    def f(s):
        return dlog(mgf, s) - 1.0 / s + v

    if left[0]:
        assert s0 > 0.0
        lo, hi = 1e-300, 1.0
        while f(hi) <= 0.0:
            hi *= 2.0
    else:
        assert -1.0 / float(mgf.a_max) < s0 < 0.0
        lo, hi = -(1.0 - 1e-15) / float(mgf.a_max), -1e-300
    root = brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    assert abs(f(s0)) < 1e-11 * max(1.0, abs(v))
    assert r2[0] > 0.0
    assert s0 == pytest.approx(root, rel=1e-10, abs=0.0)


def _engine_counts(monkeypatch):
    """Running counts of tau evaluations and evaluator calls, (pair, tau
    node) elements and inversion calls, saddle derivative calls and saddle
    solves."""
    n = dict.fromkeys(("tau", "evals", "elements", "inverts", "derivatives",
                       "solves"), 0)

    def one(*a):
        return 1

    def counted(fn, **sizes):
        def call(*a, **k):
            for key, size in sizes.items():
                n[key] += size(*a)
            return fn(*a, **k)
        return call

    monkeypatch.setattr(sp._TauRows, "__call__", counted(
        sp._TauRows.__call__, tau=lambda rows, z, p: z.size, evals=one))
    monkeypatch.setattr(mc.PoleMgf, "derivatives", counted(
        mc.PoleMgf.derivatives, derivatives=one))
    monkeypatch.setattr(sp, "_invert_nodes", counted(
        sp._invert_nodes, inverts=one,
        elements=lambda ev, t, r2, pairs: t.size * pairs.size))
    monkeypatch.setattr(sp, "_solve_saddles", counted(
        sp._solve_saddles, solves=one))
    return n


def _pd_curve(method):
    """A P_D curve of the pd command's default grid in the kappa=2, M=10
    README scenario at P_FA 1e-6."""
    p = mc.scenario(M=10, kappa=2, S=0.0, q=0.5, nu=2.0,
                    rho_c=0.75, rho_s=0.9)
    sirs = detector.db_to_linear(np.linspace(0.0, 20.0, 41))
    return detector.pd_curve(p, 1e-6, sirs, method)


def test_pd_curve_tau_evaluations_per_element(monkeypatch):
    n = _engine_counts(monkeypatch)
    _pd_curve("eff-sdp")
    assert n["elements"] > 0 and n["tau"] <= 2.75 * n["elements"]


def test_pd_curve_derivative_calls_per_saddle_solve(monkeypatch):
    n = _engine_counts(monkeypatch)
    _pd_curve("eff-sp")
    assert n["solves"] > 0 and n["derivatives"] <= 10 * n["solves"]
    assert n["tau"] == 0


def _m100_curve(method):
    """Six survival values of an M=100 scenario, from one sd below the mean
    to four above."""
    p = mc.scenario(M=100, kappa=2, S=5.0, q=0.75, nu=5.0,
                    rho_s=0.95, rho_c=0.75)
    mom = mc.analytic_moments(p)
    sd = math.sqrt(mom.variance)
    return texture.survival_curve(
        np.linspace(mom.mean - sd, mom.mean + 4.0 * sd, 6), p, method)


def test_m100_curve_tau_evaluations_per_element(monkeypatch):
    n = _engine_counts(monkeypatch)
    _m100_curve("diag-sdp")
    assert n["elements"] > 0 and n["tau"] <= 2.7 * n["elements"]
    # each Newton pass runs on a whole group of pairs, not a few
    assert n["inverts"] <= 4 and n["evals"] <= 40
