import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

import gammaclutter.fpm_mc as fp
import gammaclutter.mgf_core as mc
from gammaclutter.errors import InvalidScenario
from oracles import (WorstCaseLaw, mgf_first_principles_steady,
                     simulate_gaussian_target_channel, worst_case_mgf)

def _cfg(n, seed, **kw):
    p = mc.scenario(**kw)
    return fp.McConfig(n, seed, p)


def test_pure_noise_moments():
    M, n = 4, 200000
    cfg = _cfg(n, 1, M=M, kappa=1, S=0.0, q=0.0, nu=np.inf)
    dist = fp.simulate_returns(cfg)
    assert abs(dist.mean - 1.0) < 4.0 / math.sqrt(M * n)
    se_var = math.sqrt(2.0 / (M * n)) * 3.0
    assert abs(dist.variance - 1.0 / M) < se_var


def test_full_scenario_moments_match_analytic():
    p = mc.scenario(M=8, kappa=2, S=4.0, q=0.7, nu=2.0,
                    rho_c=0.6, rho_s=0.85)
    rep = mc.analytic_moments(p)
    n = 200000
    dist = fp.simulate_returns(fp.McConfig(n, 9, p))
    z = dist.sorted_samples
    se_mean = math.sqrt(rep.variance / n)
    assert abs(dist.mean - rep.mean) < 3.0 * se_mean
    m4 = np.mean((z - z.mean()) ** 4)
    se_var = math.sqrt((m4 - dist.variance ** 2) / n)
    assert abs(dist.variance - rep.variance) < 3.0 * se_var


def test_reproducibility_bit_identical():
    cfg = _cfg(5000, 42, M=4, kappa=2, S=2.0, q=0.6, nu=3.0,
               rho_c=0.5, rho_s=0.7)
    a = fp.simulate_returns(cfg)
    b = fp.simulate_returns(cfg)
    assert np.array_equal(a.sorted_samples, b.sorted_samples)
    c = fp.simulate_returns(cfg, stream=1)
    assert not np.array_equal(a.sorted_samples, c.sorted_samples)


def test_golden_vector_seed42():
    cfg = _cfg(8, 42, M=2, kappa=2, S=1.0, q=0.5, nu=2.0,
               rho_c=0.5, rho_s=0.5)
    got = fp.simulate_returns(cfg).sorted_samples
    want = np.array([
        1.0417566633903597, 1.090847944881956, 1.3071010605693243,
        1.9383504080352703, 2.4146790520944883, 2.432888351577264,
        3.133864731827892, 3.3820923989368734,
    ])
    assert np.array_equal(got, want)


def test_gaussian_channel_matches_nakagami_route():
    kw = dict(M=4, kappa=1, S=3.0, q=0.5, nu=2.0, rho_c=0.4, rho_s=0.8)
    n = 100000
    a = fp.simulate_returns(_cfg(n, 3, **kw))
    b = simulate_gaussian_target_channel(_cfg(n, 101, **kw))
    stat, pval = ks_2samp(a.sorted_samples, b.sorted_samples)
    assert pval > 0.01


def test_gaussian_channel_requires_kappa_one():
    with pytest.raises(InvalidScenario):
        simulate_gaussian_target_channel(
            _cfg(10, 1, M=2, kappa=2, S=1.0, q=0.5, nu=2.0))


def test_target_quadrature_sign_symmetry_and_unit_power():
    rng = fp._rng(7, 0)
    n = 250000
    Y = fp._target_quadrature(rng, n, 4, 3, np.eye(4))
    flat = Y.ravel()
    assert abs(flat.mean()) < 4.0 / math.sqrt(flat.size)
    m2 = flat ** 2
    assert abs(m2.mean() - 1.0) < 3.0 * m2.std() / math.sqrt(m2.size)


def test_ar1_lag_one_autocorrelation():
    rho = 0.65
    from gammaclutter.corrmodel import CorrelationSpec
    spec = CorrelationSpec.gauss_markov(rho, 64)
    rng = fp._rng(11, 0)
    X = fp._clutter_speckle(rng, 1600, 64, spec, None).reshape(-1, 64)
    x0 = X[:, :-1].ravel()
    x1 = X[:, 1:].ravel()
    r = np.mean(x0 * x1)
    se = np.std(x0 * x1) / math.sqrt(x0.size / 64.0)   # rows are dependent
    assert abs(r - rho) < 3.0 * se


def test_target_covariance_matches_spec():
    p = mc.scenario(M=8, kappa=2, S=1.0, q=0.0, nu=np.inf, rho_s=0.75)
    ctx = mc.ScenarioContext(p)
    rng = fp._rng(13, 0)
    n = 100000
    X = fp._target_quadrature(rng, n, 8, 2, ctx.loading_s).reshape(-1, 8)
    C = (X.T @ X) / X.shape[0]
    want = np.array([[0.75 ** abs(i - j) for j in range(8)]
                     for i in range(8)])
    se = 3.0 / math.sqrt(X.shape[0])
    assert np.max(np.abs(C - want)) < 3.0 * se + 0.01


def test_compound_factorization_variance():
    # S=0, q=1: var(Z) = zeta / L with zeta = 1 + (L+1)/nu
    p = mc.scenario(M=6, kappa=1, S=0.0, q=1.0, nu=3.0, rho_c=0.7)
    rep = mc.analytic_moments(p)
    n = 200000
    dist = fp.simulate_returns(fp.McConfig(n, 17, p))
    z = dist.sorted_samples
    m4 = np.mean((z - z.mean()) ** 4)
    se_var = math.sqrt((m4 - dist.variance ** 2) / n)
    assert abs(dist.variance - rep.variance) < 3.0 * se_var


def test_target_rotation_conventions_differ_only_when_degenerate():
    # non-degenerate target: rotation option is inert
    p = mc.scenario(M=4, kappa=3, S=2.0, q=0.5, nu=np.inf,
                    rho_c=0.5, rho_s=0.6)
    a = fp.simulate_returns(fp.McConfig(256, 3, p))
    b = fp.simulate_returns(fp.McConfig(256, 3, p, target_rotation="clutter"))
    assert np.array_equal(a.sorted_samples, b.sorted_samples)

    # degenerate target, kappa > 1: conventions give different laws
    p0 = mc.scenario(M=4, kappa=np.inf, S=2.0, q=1.0, nu=np.inf,
                     rho_c=1.0, rho_s=0.0)
    x = fp.simulate_returns(fp.McConfig(256, 3, p0))
    y = fp.simulate_returns(fp.McConfig(256, 3, p0, target_rotation="identity"))
    assert not np.array_equal(x.sorted_samples, y.sorted_samples)


def _worst_case_law(M, rotation, rho_s=0.0):
    p = mc.scenario(M=M, kappa=np.inf, S=5.0, q=1.0, nu=np.inf,
                    rho_s=rho_s, rho_c=1.0)
    ctx = mc.ScenarioContext(p)
    return p, ctx, WorstCaseLaw(ctx.fp_loading(rotation), 5.0)


def test_worst_case_law_oracle_self_check():
    # clutter rotation: the target shares the coherent clutter mode, so the
    # enumerated law is the effective (shifted single-pulse Rician) one
    _, _, law = _worst_case_law(10, "clutter")
    v = np.linspace(0.0, 20.0, 401)
    assert np.max(np.abs(law.sf(v) - mc.effsw0_survival(v, 5.0, 10))) <= 1e-10

    # M = 2: one pulse pair, so the cosh product is exact
    for rotation in ("limit", "identity", "clutter"):
        p, ctx, law = _worst_case_law(2, rotation)
        for s in (0.3, 1.0, 2.5):
            want = mgf_first_principles_steady(p, 1.0, s, ctx,
                                               target_rotation=rotation)
            assert law.mgf(s) == pytest.approx(want.real, rel=1e-12)
            if rotation == "identity":
                assert law.mgf(s) == pytest.approx(
                    worst_case_mgf(5.0, 2, s).real, rel=1e-12)

    # a survival function, and its interpolated table follows it
    _, _, law = _worst_case_law(10, "limit", rho_s=1e-4)
    v = np.linspace(0.0, 30.0, 3001)
    sf = law.sf(v)
    assert np.all((sf >= 0.0) & (sf <= 1.0))
    assert np.all(np.diff(sf) <= 1e-15)
    assert sf[0] == 1.0
    x = np.random.default_rng(5).uniform(0.0, 30.0, 5000)
    assert np.max(np.abs(law.sf_table()(x) - law.sf(x))) <= 1e-6
