import math

import numpy as np
import pytest
from scipy.special import gammaincc

import gammaclutter.mgf_core as mc
import gammaclutter.saddlepoint as sp
from gammaclutter.errors import DegenerateV, NoConvergence


def fig_scenario():
    """Correlated K-clutter scenario exercised throughout (kappa = 2)."""
    return mc.scenario(M=10, kappa=2, S=5.0, q=1.0, nu=2.0,
                       rho_c=0.75, rho_s=0.95)


def _invert(tau, st):
    """Root z of tau(z) = tau on the steepest-descent branch (Im z > 0)."""
    z = sp._invert_nodes(sp._state_ev(st), np.array([tau]), np.array([st.r2]),
                         np.zeros(1, dtype=int))
    return complex(z[0, 0])


def test_single_pole_saddle_quadratic_oracle():
    # M=1, kappa=1, S=0, q=0: v = 1/s + 1/(1+s)  =>  v s^2 + (v-2) s - 1 = 0
    p = mc.scenario(M=1, kappa=1, S=0.0, q=0.0, nu=np.inf)
    co = mc.speckle_coeffs(p, 1.0)
    for v in (1.5, 2.0, 5.0):
        st = sp.solve_saddle(v, co)
        a, b, c = v, v - 2.0, -1.0
        root = (-b - math.sqrt(b * b - 4 * a * c)) / (2 * a)
        assert st.s0 == pytest.approx(root, abs=1e-12)
        assert st.side is sp.Side.RIGHT_TAIL


def test_phase_is_minimum_along_real_axis():
    p = fig_scenario()
    mgf = mc.speckle_coeffs(p, 1.0)
    st = sp.solve_saddle(9.0, mgf)
    base = sp.phase(st.s0, 9.0, mgf, st.side)
    for ds in (-1e-5, 1e-5):
        assert sp.phase(st.s0 + ds, 9.0, mgf, st.side) > base


def test_saddle_residual_and_r1_across_grid():
    # the steady target covers dlog's beta term and r1's g terms
    steady = mc.scenario(M=10, kappa=math.inf, S=5.0, q=1.0, nu=2.0,
                         rho_c=0.75, rho_s=0.95)
    for p in (fig_scenario(), steady):
        ctx = mc.ScenarioContext(p)
        for u in (0.3, 1.0, 2.5):
            mgf = mc.speckle_coeffs(p, u, ctx=ctx)
            for v in np.linspace(0.2, 20.0, 40):
                st = sp.solve_saddle(v, mgf)
                resid = mgf.dlog(st.s0) - 1.0 / st.s0 + v
                assert abs(resid) < 1e-10 * max(1.0, v)
                assert abs(st.r1 - 1.0) < 1e-8
                assert st.r2 > 0


def test_saddle_side_selection():
    p = fig_scenario()
    mgf = mc.speckle_coeffs(p, 1.0)
    mean = mgf.mean
    assert sp.solve_saddle(mean * 1.2, mgf).side is sp.Side.RIGHT_TAIL
    assert sp.solve_saddle(mean * 1.2, mgf).s0 < 0
    assert sp.solve_saddle(mean * 0.8, mgf).side is sp.Side.LEFT_TAIL
    assert sp.solve_saddle(mean * 0.8, mgf).s0 > 0
    with pytest.raises(DegenerateV):
        sp.solve_saddle(0.0, mgf)


def test_tau_at_zero_and_small_tau_leading_order():
    p = fig_scenario()
    co = mc.speckle_coeffs(p, 1.0)
    st = sp.solve_saddle(10.0, co)
    assert _invert(0.0, st) == 0.0
    z = _invert(1e-6, st)
    z0 = 1j * math.sqrt(2e-6 / st.r2)
    assert abs(z - z0) < 0.1 * abs(z)


def test_tau_round_trip_on_quadrature_nodes():
    from scipy.special import roots_genlaguerre
    p = fig_scenario()
    ctx = mc.ScenarioContext(p)
    co = mc.speckle_coeffs(p, 1.0, ctx=ctx)
    st = sp.solve_saddle(12.0, co)
    t, _ = roots_genlaguerre(64, 0.5)
    for tau in t:
        z = _invert(float(tau), st)
        assert abs(sp.tau_phase(z, st) - tau) < 1e-10 * max(1.0, tau)
        assert z.imag > 0


def test_tau_series_quadratic_leading_term():
    # tau(z) + r2 z^2 / 2 = O(z^3): the linear term cancels at the saddle
    p = fig_scenario()
    co = mc.speckle_coeffs(p, 1.0)
    st = sp.solve_saddle(10.0, co)
    for z in (1e-3, 1e-3j, (1 + 1j) * 1e-3):
        resid = sp.tau_phase(z, st) + st.r2 * z * z / 2.0
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


def test_sdp_invariant_under_node_doubling():
    p = fig_scenario()
    ctx = mc.ScenarioContext(p)
    co = mc.speckle_coeffs(p, 1.0, ctx=ctx)
    for v in (2.0, 6.0, 12.0, 18.0):
        a = sp.survival_sdp(v, co, order=48)
        b = sp.survival_sdp(v, co, order=96)
        if a >= 1e-8:
            assert abs(a - b) < 1e-9


def test_steady_phase_survival_matches_closed_form():
    S, M = 5.0, 10
    p = mc.scenario(M=M, kappa=np.inf, S=S, q=1.0, nu=np.inf,
                    rho_s=0.0, rho_c=1.0)
    co = mc.steady_coeffs(p, 1.0)
    for v in (1.0, 4.6, 5.5, 8.0, 12.0):
        want = mc.effsw0_survival(v, S, M)
        assert sp.survival_sdp(v, co) == pytest.approx(want, abs=1e-10)


def test_log_kernel_matches_numpy_complex_log():
    # real z beyond a pole (1 - c z < 0) with both signed zeros, c = 0,
    # negative c (the right-tail 1/(s0 v) term) and generic points
    zs = np.array([2.5 + 0.0j, complex(2.5, -0.0), -3.0 + 0.0j,
                   complex(-3.0, -0.0), 0.3 + 0.8j, 1.7 - 0.2j, -0.4 - 2.5j,
                   1e-9j, 40.0 + 3.0j])
    cs = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.3, 0.01, 3.0])
    x, y = zs.real[:, None], zs.imag[:, None]
    lr, li = sp._log1m(*sp._one_minus(cs, x, y))
    ref = np.log(1.0 - np.multiply.outer(zs, cs))
    assert np.max(np.abs(lr - ref.real)) <= 1e-15
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


def test_march_fallback_inside_batch_matches(monkeypatch):
    pairs = _mixed_batch()
    mgfs = _stack([m for _, m in pairs])
    v = np.array([x for x, _ in pairs])
    rows = np.arange(len(pairs))
    want = sp.survival_pairs(v, mgfs, rows)
    calls = []
    march = sp._march_to
    monkeypatch.setattr(sp, "_march_to",
                        lambda *a, **k: calls.append(1) or march(*a, **k))
    monkeypatch.setattr(sp, "NEWTON_MAX_ITER", 3)
    got = sp.survival_pairs(v, mgfs, rows)
    assert len(calls) > 100
    assert np.max(np.abs(got - want)) <= 1e-12


def test_batch_failure_names_its_pair(monkeypatch):
    pairs = _mixed_batch()
    monkeypatch.setattr(sp, "SADDLE_MAX_ITER", 0)
    with pytest.raises(NoConvergence) as err:
        sp.survival_pairs([x for x, _ in pairs],
                          _stack([m for _, m in pairs]), np.arange(len(pairs)))
    assert err.value.pair == 0


def test_tau_rows_match_exact_phase_near_and_far():
    # M=100 takes the power-series bulk for |z| <= z_top and the full row
    # beyond it; the steady S>0 row carries the g z / (1 - c z) terms, and
    # the steady S=0 row has none, so it takes the bulk too
    for M, kappa, S in ((100, 2, 3.0), (100, 1, 3.0), (10, math.inf, 3.0),
                        (100, math.inf, 0.0)):
        p = mc.scenario(M=M, kappa=kappa, S=S, q=0.8, nu=2.0,
                        rho_c=0.75, rho_s=0.9)
        mgf = mc.speckle_coeffs(p, 0.7)
        for v in (0.7 * mgf.mean, 1.6 * mgf.mean):
            st = sp.solve_saddle(v, mgf)
            tab = sp._PoleTable(mgf, [0])
            s0, r2, _, _ = sp._solve_saddles(np.array([v]), tab)
            t_top = float(sp._kept_nodes(sp.DEFAULT_TAU_ORDER)[0][-1])
            rows = sp._TauRows(np.array([v]), tab, s0, r2, t_top)
            assert rows.has_bulk == (M == 100)
            top = rows.z_top[0] if rows.has_bulk else 10.0
            z = np.array([0.3j, 0.4 * top * (0.2 + 1j), 0.9 * top * 1j,
                          1.5 * top * (0.1 + 1j), 3.0 * top * 1j])
            tau, dtau = rows(z, np.zeros(z.size, dtype=int))
            ref, dref = sp.tau_phase(z, st), sp._tau_prime(z, st)
            assert np.all(np.abs(tau - ref) <= 1e-12 * np.maximum(1.0, abs(ref)))
            assert np.all(np.abs(dtau - dref)
                          <= 1e-12 * np.maximum(1.0, abs(dref)))


def test_newton_step_halving_recovers_poor_starts():
    # full Newton steps from these starts leave the upper half plane or
    # raise the residual; only the step halving brings them in
    p = fig_scenario()
    st = sp.solve_saddle(12.0, mc.speckle_coeffs(p, 1.0))
    t, _ = sp._kept_nodes(sp.DEFAULT_TAU_ORDER)
    ev = sp._state_ev(st)
    leading = np.sqrt(2.0 * t / st.r2)       # |z| to leading order
    want = np.array([_invert(float(x), st) for x in t])
    for scale, re in ((0.05, 0.0), (0.2, 1.0), (3.0, -1.0)):
        z0 = scale * (re + 1j) * leading
        z, ok = sp._newton(t, z0, ev, np.zeros(t.size, dtype=int))
        assert ok.all() and np.all(z.imag > 0.0)
        assert np.max(np.abs(z - want)) <= 1e-10 * np.max(np.abs(want))
