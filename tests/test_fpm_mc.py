import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

import gammaclutter.fpm_mc as fp
import gammaclutter.mgf_core as mc
from gammaclutter.corrmodel import CorrelationSpec
from gammaclutter.errors import InvalidScenario
from oracles import (WorstCaseLaw, effsw0_survival,
                     mgf_first_principles_steady,
                     simulate_gaussian_target_channel, target_context,
                     worst_case_mgf)

def _cfg(n, seed, **kw):
    p = mc.scenario(**kw)
    return fp.McConfig(n, seed, p)


def test_pure_noise_moments():
    M, n = 4, 200000
    cfg = _cfg(n, 1, M=M, kappa=1, S=0.0, q=0.0, nu=np.inf)
    z = fp.simulate_returns(cfg)
    assert abs(z.mean() - 1.0) < 4.0 / math.sqrt(M * n)
    se_var = math.sqrt(2.0 / (M * n)) * 3.0
    assert abs(z.var(ddof=1) - 1.0 / M) < se_var


def test_full_scenario_moments_match_analytic():
    p = mc.scenario(M=8, kappa=2, S=4.0, q=0.7, nu=2.0,
                    rho_c=0.6, rho_s=0.85)
    rep = mc.analytic_moments(p)
    n = 200000
    z = fp.simulate_returns(fp.McConfig(n, 9, p))
    se_mean = math.sqrt(rep.variance / n)
    assert abs(z.mean() - rep.mean) < 3.0 * se_mean
    m4 = np.mean((z - z.mean()) ** 4)
    se_var = math.sqrt((m4 - z.var(ddof=1) ** 2) / n)
    assert abs(z.var(ddof=1) - rep.variance) < 3.0 * se_var


def test_reproducibility_bit_identical():
    cfg = _cfg(5000, 42, M=4, kappa=2, S=2.0, q=0.6, nu=3.0,
               rho_c=0.5, rho_s=0.7)
    a = fp.simulate_returns(cfg)
    b = fp.simulate_returns(cfg)
    assert np.array_equal(a, b)
    c = fp.simulate_returns(cfg, stream=1)
    assert not np.array_equal(a, c)


def test_golden_vector_seed42():
    cfg = _cfg(8, 42, M=2, kappa=2, S=1.0, q=0.5, nu=2.0,
               rho_c=0.5, rho_s=0.5)
    got = fp.simulate_returns(cfg)
    want = np.array([
        1.0417566633903597, 1.090847944881956, 1.3071010605693243,
        1.9383504080352703, 2.4146790520944883, 2.432888351577264,
        3.133864731827892, 3.3820923989368734,
    ])
    assert np.array_equal(got, want)


def test_golden_vector_degenerate_target_seed42():
    # rho_s=0: the sampler colours the target with the rho_s -> 0+ limit
    # basis, a free convention that no other frozen vector reaches
    cfg = _cfg(8, 42, M=4, kappa=math.inf, S=2.0, q=1.0, nu=2.0,
               rho_c=1.0, rho_s=0.0)
    got = fp.simulate_returns(cfg)
    want = np.array([
        1.6349171332390213, 1.9726185621402395, 2.3923157456668003,
        2.6018787219437973, 3.0756262734846507, 3.288577073319619,
        3.843757225212202, 5.807766565326606,
    ])
    assert np.array_equal(got, want)


# _draw_block at seed 2024, stream 3, n=4, one case per branch of the
# sampler: each departs from _BRANCH_BASE in the named parameter.  The values were
# recorded from the textbook form of the sampler (zero-initialized sum,
# astype signs, out-of-place AR(1)) and pin the Philox call order and the
# arithmetic around it bit for bit.
_BRANCH_BASE = dict(M=3, kappa=2, S=2.0, q=0.5, nu=2.0, rho_s=0.6, rho_c=0.5)
_BRANCH_CASES = {
    "kappa1": dict(kappa=1),
    "kappa2": dict(),
    "kappa_inf": dict(kappa=math.inf),
    "q0": dict(q=0.0),
    "q1": dict(q=1.0),
    "rho_c0": dict(rho_c=0.0),
    "nu_inf": dict(nu=math.inf),
    "S0": dict(S=0.0),
    "M1": dict(M=1, rho_s=0.0, rho_c=0.0),
    "toeplitz_c": dict(spec_c=CorrelationSpec.toeplitz([1.0, 0.5, 0.2])),
}
_BRANCH_DRAWS = {
    "kappa1": [3.106469921304075, 4.672407712412993,
               2.276829959709359, 1.0772787297373954],
    "kappa2": [2.1064255607986793, 1.5926121562890474,
               1.3045784954668944, 2.400207796223343],
    "kappa_inf": [1.9402650655786806, 1.6118422626858904,
                  1.5187531659735305, 1.6092175560033952],
    "q0": [4.3764134876401855, 4.877809783923912,
           4.849132378266771, 2.6622743750862914],
    "q1": [2.778792356539928, 4.505738053865266,
           6.804912384364115, 2.218369973720394],
    "rho_c0": [2.1497835472391205, 1.6701158852066518,
               1.9128293645382122, 2.4973228302953867],
    "nu_inf": [3.4557241651352215, 3.7347310401199323,
               2.689160392093486, 1.9515926747921737],
    "S0": [1.482271879120595, 1.2302639826440707,
           1.6852811189321655, 1.1269322621589026],
    "M1": [0.4392747125089762, 5.605111485568177,
           3.8556475390251648, 5.350419341509876],
    "toeplitz_c": [0.91817647608116, 0.8982364264489965,
                   1.6648215589808952, 2.393232184607731],
}


@pytest.mark.parametrize("case", sorted(_BRANCH_CASES))
def test_draw_block_frozen_per_branch(case):
    p = mc.scenario(**{**_BRANCH_BASE, **_BRANCH_CASES[case]})
    got = fp._draw_block(fp._rng(2024, 3), 4, p, mc.ScenarioContext(p))
    assert np.array_equal(got, np.array(_BRANCH_DRAWS[case]))


@pytest.mark.parametrize("case", sorted(_BRANCH_CASES) + ["ks_m10"])
def test_reused_workspace_draws_as_fresh(case):
    # consecutive streams drawn into one workspace equal fresh draws bit for
    # bit: no block carries state from the previous draw into the next (a
    # steady target's block keeping the last draw's sign bits, say)
    if case == "ks_m10":
        p, n = mc.scenario(M=10, kappa=2, S=5.0, q=0.5, nu=2.0,
                           rho_c=0.75, rho_s=0.9), 10000
    else:
        p, n = mc.scenario(**{**_BRANCH_BASE, **_BRANCH_CASES[case]}), 64
    ctx = mc.ScenarioContext(p)
    work = fp._workspace(n, p.M)
    for stream in range(4):
        reused = fp._draw_block(fp._rng(2024, stream), n, p, ctx, work)
        fresh = fp._draw_block(fp._rng(2024, stream), n, p, ctx)
        assert np.array_equal(reused, fresh), stream


def test_non_integer_seed_or_count_is_rejected():
    # a float seed was truncated (1.5 drew seed 1's stream), a negative one
    # raised OverflowError and a float count leaked numpy's TypeError
    p = mc.scenario(M=2, kappa=2, S=1.0, q=0.5, nu=2.0)
    for n, seed in ((10, 1.5), (10, -1), (10, 2 ** 64), (10, True),
                    (10.0, 1), (2.5, 1), (0, 1)):
        with pytest.raises(InvalidScenario, match="must be an integer"):
            fp.McConfig(n, seed, p)
    for seed, stream in ((1.5, 0), (-1, 0), (1, 0.5), (1, -2)):
        with pytest.raises(InvalidScenario, match="must be an integer"):
            fp._rng(seed, stream)
    # numpy integers are integers
    cfg = fp.McConfig(np.int64(8), np.uint64(42), p)
    assert fp.simulate_returns(cfg, stream=np.int64(0)).size == 8


def test_gaussian_channel_matches_nakagami_route():
    kw = dict(M=4, kappa=1, S=3.0, q=0.5, nu=2.0, rho_c=0.4, rho_s=0.8)
    n = 100000
    a = fp.simulate_returns(_cfg(n, 3, **kw))
    b = simulate_gaussian_target_channel(_cfg(n, 101, **kw))
    stat, pval = ks_2samp(a, b)
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
    z = fp.simulate_returns(fp.McConfig(n, 17, p))
    m4 = np.mean((z - z.mean()) ** 4)
    se_var = math.sqrt((m4 - z.var(ddof=1) ** 2) / n)
    assert abs(z.var(ddof=1) - rep.variance) < 3.0 * se_var


def test_target_rotation_conventions_differ_only_when_degenerate():
    # non-degenerate target: the loading convention is inert
    p = mc.scenario(M=4, kappa=3, S=2.0, q=0.5, nu=np.inf,
                    rho_c=0.5, rho_s=0.6)
    a = fp.simulate_returns(fp.McConfig(256, 3, p))
    b = fp.simulate_returns(fp.McConfig(256, 3, p), 0,
                            target_context(p, "clutter"))
    assert np.array_equal(a, b)

    # degenerate target, kappa > 1: conventions give different laws
    p0 = mc.scenario(M=4, kappa=np.inf, S=2.0, q=1.0, nu=np.inf,
                     rho_c=1.0, rho_s=0.0)
    x = fp.simulate_returns(fp.McConfig(256, 3, p0))
    y = fp.simulate_returns(fp.McConfig(256, 3, p0), 0,
                            target_context(p0, "identity"))
    assert not np.array_equal(x, y)


def _worst_case_law(M, rotation, rho_s=0.0):
    p = mc.scenario(M=M, kappa=np.inf, S=5.0, q=1.0, nu=np.inf,
                    rho_s=rho_s, rho_c=1.0)
    ctx = target_context(p, rotation)
    return p, ctx, WorstCaseLaw(ctx.loading_s, 5.0)


def test_worst_case_law_oracle_self_check():
    # clutter rotation: the target shares the coherent clutter mode, so the
    # enumerated law is the effective (shifted single-pulse Rician) one
    _, _, law = _worst_case_law(10, "clutter")
    v = np.linspace(0.0, 20.0, 401)
    assert np.max(np.abs(law.sf(v) - effsw0_survival(v, 5.0, 10))) <= 1e-10

    # M = 2: one pulse pair, so the cosh product is exact
    for rotation in ("limit", "identity", "clutter"):
        p, ctx, law = _worst_case_law(2, rotation)
        for s in (0.3, 1.0, 2.5):
            want = mgf_first_principles_steady(p, 1.0, s, ctx)
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
