import math
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gammaclutter.mgf_core as mc
import gammaclutter.saddlepoint as sp
import gammaclutter.texture as tx
from gammaclutter.corrmodel import CorrelationSpec
from gammaclutter.errors import DegenerateMix, InvalidScenario

from oracles import (cgf_moment_check, decimal_rational_mgf,
                     effsw0_survival, gm_matrix, mgf_first_principles_steady,
                     mgf_fully_correlated, pulse_coeffs, swerling0_survival,
                     target_context, worst_case_mgf)


def test_scenario_validation():
    with pytest.raises(InvalidScenario):
        mc.scenario(M=4, kappa=2.5, S=1, q=0.5, nu=2)
    with pytest.raises(InvalidScenario):
        mc.scenario(M=4, kappa=0, S=1, q=0.5, nu=2)
    with pytest.raises(InvalidScenario):
        mc.scenario(M=4, kappa=2, S=-1, q=0.5, nu=2)
    with pytest.raises(InvalidScenario):
        mc.scenario(M=4, kappa=2, S=1, q=1.5, nu=2)
    with pytest.raises(InvalidScenario):
        mc.scenario(M=4, kappa=2, S=1, q=0.5, nu=0)
    p = mc.scenario(M=4, kappa=np.inf, S=1, q=0.5, nu=2)
    assert p.steady


@pytest.mark.parametrize("build", [
    lambda: mc.scenario(M=4.5, kappa=2, S=1, q=0.5, nu=2),
    lambda: mc.scenario(M=True, kappa=2, S=1, q=0.5, nu=2),
    lambda: mc.scenario(M=4.5, kappa=2, S=1, q=0.5, nu=2,
                        spec_s=CorrelationSpec.gauss_markov(0.5, 4),
                        spec_c=CorrelationSpec.gauss_markov(0.5, 4)),
    lambda: CorrelationSpec.gauss_markov(0.5, 3.7)],
    ids=["float", "bool", "float-with-specs", "gauss-markov"])
def test_pulse_count_must_be_an_integer(build):
    # int() would turn a float or bool M into another scenario without a word
    with pytest.raises(InvalidScenario, match="M must be an integer"):
        build()


@pytest.mark.parametrize("S", [math.nan, math.inf])
def test_scenario_rejects_non_finite_S(S):
    with pytest.raises(InvalidScenario, match="finite"):
        mc.scenario(M=4, kappa=2, S=S, q=0.5, nu=2)


@pytest.mark.parametrize("kappa", [-math.inf, math.nan])
def test_scenario_rejects_non_finite_kappa_other_than_inf(kappa):
    # -inf raised OverflowError and nan a ValueError naming no key
    with pytest.raises(InvalidScenario, match="kappa"):
        mc.scenario(M=4, kappa=kappa, S=1, q=0.5, nu=2)
    spec = CorrelationSpec.gauss_markov(0.0, 4)
    with pytest.raises(InvalidScenario, match="kappa"):
        mc.ScenarioParams(4, kappa, 1.0, 0.5, 2.0, spec, spec)


@pytest.mark.parametrize("S", [math.nan, math.inf])
def test_pole_table_rejects_non_finite_S(S):
    p = mc.scenario(M=4, kappa=2, S=1.0, q=0.5, nu=2, rho_c=0.5, rho_s=0.7)
    with pytest.raises(InvalidScenario, match="finite"):
        mc.pole_table(p, [1.0, S], [1.0, 0.5])


def test_aggregated_corr_limits():
    Cc, Cs = np.eye(2), np.ones((2, 2))
    assert np.allclose(mc.aggregated_corr(Cc, Cs, 0.7, 1.3, 0.0, 2), Cc)
    assert np.allclose(mc.aggregated_corr(Cc, Cs, 0.0, 1.3, 2.0, 2), Cs)
    mixed = mc.aggregated_corr(Cc, Cs, 1.0, 1.0, 1.0, 1)
    assert np.allclose(mixed, [[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(DegenerateMix):
        mc.aggregated_corr(Cc, Cs, 0.0, 1.0, 0.0, 1)


def test_speckle_coeffs_null_signal():
    p = mc.scenario(M=6, kappa=3, S=0.0, q=0.8, nu=2, rho_c=0.5, rho_s=0.7)
    a, aq = pulse_coeffs(p, 1.2)
    assert np.array_equal(a, aq)


def test_speckle_coeffs_uncorrelated_white():
    p = mc.scenario(M=5, kappa=2, S=3.0, q=0.0, nu=np.inf)
    a, aq = pulse_coeffs(p, 1.0)
    assert np.allclose(aq, 0.2)
    assert np.allclose(a, (1.0 + 1.5) / 5.0)


def test_speckle_sum_rule_from_independent_matrices():
    # coefficients rebuilt from scratch: direct eigenvalues of the hand-built
    # matrices must satisfy sum(a - aq) = S/kappa
    M, kap, S, q, u = 10, 2, 5.0, 1.0, 1.0
    Cc, Cs = gm_matrix(0.75, M), gm_matrix(0.95, M)
    p = mc.scenario(M=M, kappa=kap, S=S, q=q, nu=2, rho_c=0.75, rho_s=0.95)
    co_a, co_aq = pulse_coeffs(p, u)
    assert abs(np.sum(co_a - co_aq) - S / kap) < 1e-10
    gam_c = np.linalg.eigvalsh(Cc)
    gam_sc = np.linalg.eigvalsh((q * u * Cc + (S / kap) * Cs) / (q * u + S / kap))
    aq = (1 - q + q * u * gam_c) / M
    a = (1 - q + (q * u + S / kap) * gam_sc) / M
    assert np.max(np.abs(a - co_a)) < 1e-12
    assert np.max(np.abs(aq - co_aq)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(M=st.integers(2, 20), kap=st.integers(1, 4),
       S=st.floats(0.0, 10.0), q=st.floats(0.0, 1.0),
       rc=st.floats(0.0, 0.95), rs=st.floats(0.0, 0.95),
       u=st.floats(0.05, 4.0))
def test_sum_rule_randomized(M, kap, S, q, rc, rs, u):
    p = mc.scenario(M=M, kappa=kap, S=S, q=q, nu=2, rho_c=rc, rho_s=rs)
    a, aq = pulse_coeffs(p, u)
    assert abs(np.sum(a - aq) - S / kap) < 1e-10


def _node_row(p, S, u, scheme, ctx):
    """One pole row built node by node: the per-pulse coefficients from a
    one-pair decomposition of the node's aggregated matrix, merged by
    np.unique."""
    M, q, k = p.M, p.q, p.kappa
    dmg = scheme is mc.Scheme.DMG
    gam_c = ctx.dmg_gamma_c if dmg else ctx.eig_c.eigenvalues
    gam_s = ctx.dmg_gamma_s if dmg else ctx.eig_s.eigenvalues
    aq = (1.0 - q + q * u * gam_c) / M
    if p.steady:
        b = ctx.b_weights if scheme is mc.Scheme.EFFECTIVE else gam_s / M
        return aq, np.full(M, -1.0), -S * b
    if S == 0.0:
        a = aq.copy()
    elif scheme is mc.Scheme.EFFECTIVE:
        gam = gam_s
        if q * u != 0.0:
            gam = ctx.aggregated_eigenvalues([S], [u])[0]
        a = (1.0 - q + (q * u + S / k) * gam) / M
    else:
        a = aq + S * gam_s / (k * M)
    a, wa = np.unique(a, return_counts=True)
    if k == 1:
        return a, -wa, np.zeros(a.size)
    aq, wq = np.unique(aq, return_counts=True)
    return (np.concatenate((a, aq)), np.concatenate((-k * wa, (k - 1) * wq)),
            np.zeros(a.size + aq.size))


def test_pole_table_rows_equal_per_node_rows():
    # the table builder decomposes stacks of matrices and merges equal
    # coefficients per row in one vectorized pass; each row must equal the
    # node-by-node row bit for bit, followed by zero padding only
    S = np.repeat([0.0, 3.0], 3)
    u = np.tile([0.0, 0.3, 1.7], 2)
    for M in (1, 2, 10, 100):
        for kappa in (1, 2, math.inf):
            for q in (0.0, 0.5, 1.0):
                p = mc.scenario(M=M, kappa=kappa, S=0.0, q=q, nu=2.0,
                                rho_c=0.75, rho_s=0.9)
                ctx = mc.ScenarioContext(p)
                for scheme in mc.Scheme:
                    tab = mc.pole_table(p, S, u, scheme, ctx)
                    assert tab.a.shape[0] == S.size
                    for i in range(S.size):
                        want = _node_row(p, S[i], u[i], scheme, ctx)
                        w = want[0].size
                        for got, ref in zip((tab.a, tab.alpha, tab.beta),
                                            want):
                            assert got[i, :w].tobytes() == \
                                np.asarray(ref, dtype=float).tobytes()
                            assert not got[i, w:].any()
                    empty = mc.pole_table(p, [], [], scheme, ctx)
                    assert empty.a.shape[0] == 0
                    assert empty.mean.shape == empty.a_max.shape == (0,)
                    assert sp.survival_pairs([], empty, []).shape == (0,)


def test_aggregated_eigenvalues_match_full_decomposition():
    # the centrosymmetric split gives the spectrum of the full aggregated
    # matrix, ascending, at even and odd M, at the rho = 0 / 1 extremes and
    # for a first row outside the Gauss-Markov family
    row = [1.0, 0.6, 0.1, -0.2, -0.1, 0.05, 0.0, 0.02, 0.0, 0.0]
    for M in (1, 2, 3, 10, 11, 100, 101):
        specs = [(CorrelationSpec.gauss_markov(rs, M),
                  CorrelationSpec.gauss_markov(rc, M))
                 for rs, rc in ((0.0, 0.0), (1.0, 1.0), (0.95, 0.75),
                                (0.0, 1.0), (1.0, 0.0))]
        if M == 10:
            specs.append((CorrelationSpec.toeplitz(row),
                          CorrelationSpec.gauss_markov(0.5, M)))
        for kappa in (1, 3):
            for spec_s, spec_c in specs:
                p = mc.scenario(M=M, kappa=kappa, S=0.0, q=0.5, nu=2.0,
                                spec_s=spec_s, spec_c=spec_c)
                ctx = mc.ScenarioContext(p)
                u = np.repeat([1e-3, 0.1, 1.0, 5.0], 2) / p.q
                S = np.tile([0.5, 4.0], 4)
                got = ctx.aggregated_eigenvalues(S, u)
                want = np.clip(np.linalg.eigvalsh(mc.aggregated_corr(
                    ctx.C_c, ctx.C_s, p.q, u, S, kappa)), 0.0, None)
                assert np.all(np.diff(got, axis=1) >= 0.0)
                assert np.abs(got - want).max() <= 1e-13 * want.max()


def test_mgf_eval_normalization_and_kappa1():
    p = mc.scenario(M=4, kappa=1, S=2.0, q=0.6, nu=2, rho_c=0.4, rho_s=0.8)
    mgf = mc.speckle_coeffs(p, 0.9)
    assert np.exp(mgf.log_mgf(0.0)) == 1.0
    s = 1.7
    a, _ = pulse_coeffs(p, 0.9)
    direct = np.prod(1.0 / (1.0 + a * s))
    assert np.exp(mgf.log_mgf(s)) == pytest.approx(direct, rel=1e-14)


def test_mgf_eval_against_decimal_oracle():
    p = mc.scenario(M=2, kappa=2, S=1.5, q=0.5, nu=np.inf,
                    rho_c=0.3, rho_s=0.9)
    a, aq = pulse_coeffs(p, 1.0)
    want = decimal_rational_mgf(a, aq, 2, 1.0)
    mgf = mc.speckle_coeffs(p, 1.0)
    assert np.exp(mgf.log_mgf(1.0)) == pytest.approx(want, rel=1e-13)


def test_table_rows_evaluate_as_single_rows():
    # finite-kappa rows (beta = 0) and steady rows of several widths in one
    # zero-padded table, two spare columns wider than any row
    rows = [mc.speckle_coeffs(mc.scenario(M=M, kappa=kappa, S=S, q=0.8,
                                          nu=2.0, rho_c=0.75, rho_s=0.9), u)
            for M, kappa, S, u in ((1, 1, 3.0, 0.7), (10, 2, 3.0, 1.3),
                                   (3, math.inf, 3.0, 0.4),
                                   (10, math.inf, 0.0, 1.1),
                                   (10, math.inf, 3.0, 2.0), (3, 2, 0.0, 0.9))]
    widths = [m.a.size for m in rows]
    assert len(set(widths)) > 2
    tab = np.zeros((3, len(rows), max(widths) + 2))
    for i, m in enumerate(rows):
        for dst, src in zip(tab, (m.a, m.alpha, m.beta)):
            dst[i, :src.size] = src
    table = mc.PoleMgf(*tab)
    for pick in ([0, 5, 1], [4, 2, 2, 3], [5, 0], list(range(len(rows)))):
        blk = table.take(pick)
        assert blk.a.shape == (len(pick), max(widths[i] for i in pick))
        assert blk.has_beta == any(rows[i].has_beta for i in pick)
        for s_frac in (-0.6, 0.4):
            s = np.array([s_frac / float(rows[i].a_max) for i in pick])
            val = blk.log_mgf(s)
            d1, d2 = blk.derivatives(np.arange(len(pick)), s)
            for k, i in enumerate(pick):
                one = rows[i].take([0])
                want = rows[i].log_mgf(s[k])
                w1, w2 = one.derivatives(np.zeros(1, dtype=int), s[k:k + 1])
                assert abs(val[k] - want) <= 1e-15 * abs(want)
                assert abs(d1[k] - w1[0]) <= 1e-15 * abs(w1[0])
                assert abs(d2[k] - w2[0]) <= 1e-15 * abs(w2[0])


def test_analytic_moments_special_cases():
    p = mc.scenario(M=8, kappa=2, S=0.0, q=0.0, nu=np.inf)
    rep = mc.analytic_moments(p)
    assert rep.mean == pytest.approx(1.0, abs=1e-12)
    assert rep.variance == pytest.approx(1.0 / 8.0, rel=1e-12)

    p = mc.scenario(M=8, kappa=2, S=0.0, q=1.0, nu=np.inf)
    assert mc.analytic_moments(p).variance == pytest.approx(1 / 8, rel=1e-12)

    p = mc.scenario(M=8, kappa=2, S=0.0, q=1.0, nu=5.0)
    want = 1.0 / 8.0 + (8.0 + 1.0) / (8.0 * 5.0)
    assert mc.analytic_moments(p).variance == pytest.approx(want, rel=1e-12)


def test_analytic_moments_against_mc_oracle():
    # S=0, q=1, finite nu, white speckle: var = 1/M + (M+1)/(M nu)
    M, nu, n = 8, 5.0, 10 ** 6
    rng = np.random.default_rng(123)
    U = rng.standard_gamma(nu, n) / nu
    z = U * rng.standard_gamma(M, n) / M       # white speckle sum, mean 1
    p = mc.scenario(M=M, kappa=2, S=0.0, q=1.0, nu=nu)
    rep = mc.analytic_moments(p)
    sample_var = z.var(ddof=1)
    # standard error of a sample variance from fourth moments
    m4 = np.mean((z - z.mean()) ** 4)
    se = math.sqrt((m4 - sample_var ** 2) / n)
    assert abs(sample_var - rep.variance) < 3.0 * se


@settings(max_examples=50, deadline=None)
@given(M=st.integers(1, 30), kap=st.integers(1, 5), S=st.floats(0, 20),
       q=st.floats(0, 1), rc=st.floats(0, 0.9), rs=st.floats(0, 0.9))
def test_moment_report_invariants(M, kap, S, q, rc, rs):
    p = mc.scenario(M=M, kappa=kap, S=S, q=q, nu=3.0, rho_c=rc, rho_s=rs)
    rep = mc.analytic_moments(p)
    assert rep.mean == pytest.approx(1.0 + S, abs=1e-12)
    assert rep.variance > 0


def test_cgf_moment_check_trivial_and_consistency():
    p = mc.scenario(M=6, kappa=2, S=0.0, q=0.0, nu=np.inf)
    mean, var = cgf_moment_check(p)
    assert mean == pytest.approx(1.0, rel=1e-6)
    # second difference of the CGF carries a ~4 eps / h^2 roundoff floor
    assert var == pytest.approx(1.0 / 6.0, rel=1e-5)

    p = mc.scenario(M=10, kappa=2, S=5.0, q=1.0, nu=2.0,
                    rho_c=0.75, rho_s=0.95)
    rep = mc.analytic_moments(p)
    mean, var = cgf_moment_check(p)
    assert mean == pytest.approx(rep.mean, rel=1e-6)
    assert var == pytest.approx(rep.variance, rel=1e-5)


def test_cgf_moment_check_nu_continuity():
    p_inf = mc.scenario(M=5, kappa=2, S=2.0, q=0.7, nu=np.inf,
                        rho_c=0.5, rho_s=0.5)
    p_big = mc.scenario(M=5, kappa=2, S=2.0, q=0.7, nu=1e6,
                        rho_c=0.5, rho_s=0.5)
    m1, v1 = cgf_moment_check(p_inf)
    m2, v2 = cgf_moment_check(p_big)
    assert abs(m1 - m2) < 1e-5 and abs(v1 - v2) < 1e-5


def test_mgf_kappa_inf_normalization_and_steady_weights():
    p = mc.scenario(M=6, kappa=np.inf, S=2.0, q=0.8, nu=2.0,
                    rho_c=0.6, rho_s=1.0)
    ctx = mc.ScenarioContext(p)
    mgf = mc.steady_coeffs(p, 1.0, ctx=ctx)
    assert np.exp(mgf.log_mgf(0.0)) == pytest.approx(1.0, abs=1e-15)
    # fully correlated target: b_m = (1/M) (sum_n [R_c]_mn)^2
    want = (ctx.eig_c.rotation.sum(axis=1)) ** 2 / p.M
    assert np.max(np.abs(ctx.b_weights - want)) < 1e-12


def test_kappa_inf_limit_consistency():
    base = dict(M=6, S=3.0, q=0.8, nu=np.inf, rho_c=0.5, rho_s=0.9)
    p_inf = mc.scenario(kappa=np.inf, **base)
    v_inf = np.exp(mc.steady_coeffs(p_inf, 1.0).log_mgf(1.0))
    p_fin = mc.scenario(kappa=10 ** 4, **base)
    v_fin = np.exp(mc.speckle_coeffs(p_fin, 1.0).log_mgf(1.0))
    assert abs(v_fin - v_inf) / abs(v_inf) < 1e-3


def test_kappa_inf_monotone_approach():
    base = dict(M=5, S=2.0, q=0.7, nu=np.inf, rho_c=0.4, rho_s=0.8)
    p_inf = mc.scenario(kappa=np.inf, **base)
    target = np.exp(mc.steady_coeffs(p_inf, 1.0).log_mgf(1.0))
    gaps = []
    for k in range(4, 15):
        p = mc.scenario(kappa=2 ** k, **base)
        mgf = mc.speckle_coeffs(p, 1.0)
        gaps.append(abs(np.exp(mgf.log_mgf(1.0)) - target))
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


@settings(max_examples=40, deadline=None)
@given(rc=st.floats(0, 0.95), rs=st.floats(0, 0.95), M=st.integers(2, 16))
def test_steady_weights_sum_rule(rc, rs, M):
    p = mc.scenario(M=M, kappa=np.inf, S=1.0, q=0.5, nu=2.0,
                    rho_c=rc, rho_s=rs)
    b = mc.ScenarioContext(p).b_weights
    assert abs(b.sum() - 1.0) < 1e-12
    assert b.min() >= -1e-14


def test_steady_weights_do_not_depend_on_blas_threads():
    # OpenBLAS splits M=100 products over its threads and rounds them
    # differently with the thread count; the weights must not move
    code = ("import sys, gammaclutter.mgf_core as mc; "
            "p = mc.scenario(M=100, kappa=mc.KAPPA_INF, S=3.0, q=0.8, "
            "nu=2.0, rho_s=0.95, rho_c=0.75); "
            "b = mc.ScenarioContext(p).b_weights; "
            "sys.stdout.write(b.tobytes().hex())")
    src = str(Path(mc.__file__).resolve().parents[1])
    got = [subprocess.run([sys.executable, "-c", code], check=True, text=True,
                          capture_output=True,
                          env={**os.environ, "PYTHONPATH": src,
                               "OPENBLAS_NUM_THREADS": n}).stdout
           for n in ("1", "2")]
    assert got[0] and got[0] == got[1]


def test_fully_correlated_matches_effective():
    for s in np.linspace(0.05, 4.0, 20):
        p = mc.scenario(M=4, kappa=3, S=2.5, q=0.7, nu=np.inf,
                        rho_c=0.6, rho_s=1.0)
        ctx = mc.ScenarioContext(p)
        a = np.exp(mc.speckle_coeffs(p, 1.0, ctx=ctx).log_mgf(s))
        b = mgf_fully_correlated(p, 1.0, s, ctx)
        assert abs(a - b) < 1e-12
    assert mgf_fully_correlated(p, 1.0, 0.0, ctx) == pytest.approx(1.0)


def test_fully_correlated_no_clutter_single_pole():
    p = mc.scenario(M=3, kappa=2, S=4.0, q=0.0, nu=np.inf, rho_s=1.0)
    ctx = mc.ScenarioContext(p)
    for s in (0.3, 1.0, 2.0):
        a = np.exp(mc.speckle_coeffs(p, 1.0, ctx=ctx).log_mgf(s))
        b = mgf_fully_correlated(p, 1.0, s, ctx)
        assert abs(a - b) < 1e-12


def test_first_principles_steady_reductions():
    # fully correlated target: cosh factors vanish, equals the kappa-inf MGF
    p = mc.scenario(M=5, kappa=np.inf, S=2.0, q=1.0, nu=np.inf,
                    rho_s=1.0, rho_c=0.7)
    ctx = mc.ScenarioContext(p)
    for s in (0.0, 0.5, 2.0):
        a = mgf_first_principles_steady(p, 1.0, s, ctx)
        b = np.exp(mc.steady_coeffs(p, 1.0, ctx=ctx).log_mgf(s))
        assert abs(a - b) < 1e-13

    # uncorrelated target, M=2, fully correlated clutter: worst-case form
    # under the phase-uncorrelated (identity) rotation convention
    p2 = mc.scenario(M=2, kappa=np.inf, S=5.0, q=1.0, nu=np.inf,
                     rho_s=0.0, rho_c=1.0)
    ctx2 = mc.ScenarioContext(p2)
    identity = target_context(p2, "identity")
    for s in (0.4, 1.5):
        a = mgf_first_principles_steady(p2, 1.0, s, identity)
        assert abs(a - worst_case_mgf(5.0, 2, s)) < 1e-14
    assert mgf_first_principles_steady(p2, 1.0, 0.0, ctx2) == \
        pytest.approx(1.0, abs=1e-15)


def test_worst_case_mgf_normalization():
    assert worst_case_mgf(5.0, 10, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_effsw0_survival_below_shift_is_one():
    S, M = 5.0, 10
    shift = (1.0 - 1.0 / M) * S
    assert effsw0_survival(shift - 0.1, S, M) == 1.0
    assert effsw0_survival(0.0, S, M) == 1.0
    vals = effsw0_survival(np.linspace(0, 20, 50), S, M)
    assert np.all(np.diff(vals) <= 1e-15)


def test_swerling0_survival_null_is_erlang():
    from scipy.special import gammaincc
    v = np.linspace(0.1, 3.0, 7)
    got = swerling0_survival(v, 0.0, 4)
    assert np.allclose(got, gammaincc(4, 4 * v), rtol=1e-13)


def test_context_construction_decomposes_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigen solver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    p = mc.scenario(M=100, kappa=2, S=3.0, q=0.8, nu=2.0,
                    rho_c=0.75, rho_s=0.95)
    ctx = mc.ScenarioContext(p)
    assert vars(ctx) == {"params": p}


@pytest.mark.parametrize("kappa", [2, np.inf])
def test_lazy_context_fields_do_not_change_results(kappa):
    # a curve on a fresh context matches one on a context whose every field
    # was read first, byte for byte: no field depends on the reading order
    p = mc.scenario(M=10, kappa=kappa, S=3.0, q=0.8, nu=2.0,
                    rho_c=0.75, rho_s=0.95)
    fields = [name for name, attr in vars(mc.ScenarioContext).items()
              if isinstance(attr, (property, cached_property))]
    assert {"eig_c", "eig_s", "b_weights", "dmg_gamma_c"} <= set(fields)
    rule = tx.gamma_texture_rule(p.nu, 8)
    grid = np.array([0.5, 2.0, 5.0, 9.0])
    for method in tx.ALL_METHODS:
        warm = mc.ScenarioContext(p)
        for name in fields:
            getattr(warm, name)
        fresh = tx.survival_curve(grid, p, method, rule, mc.ScenarioContext(p))
        read = tx.survival_curve(grid, p, method, rule, warm)
        assert fresh.tobytes() == read.tobytes(), method.name
