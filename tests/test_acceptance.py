"""Acceptance gate: every shipped claim exercised at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line with the measured
numbers.

Criterion 8 takes the quadrature-level worst case: steady target, fully
correlated Rayleigh clutter, q=1, M=10, S=5.  8a pins the sampler's
discrepancy from the effective model (the shifted single-pulse Rician curve)
at rho_s=0 under the `limit` rotation convention.  8b takes rho_s=1e-4.
There the target spectrum is not degenerate, so no rotation convention
applies, and its eigenbasis is the discrete-sine basis that `limit` uses as
the rho_s -> 0+ limit; the law at 1e-4 is continuous with 8a's.  8b scores
the sampler against that law, enumerated exactly over the sign patterns
(`oracles.WorstCaseLaw`), at the KS noise floor.

The effective model is not reachable at that floor for this target family.
Mean KS against it over 30 streams (seed 808, n=1e4) is 0.0425 at rho_s=0
(`limit`), 1e-6 and 1e-4, 0.0589 at rho_s=0 under `identity`, and 0.0084
only for a target basis that holds the coherent clutter mode: rho_s=0 under
`clutter`, or an equicorrelated Toeplitz target row at 1e-4.  PAPER.md holds
only the abstract, so which target family and loading the paper's
small-correlation example used is an open question.
"""

import time

import numpy as np
import pytest

import gammaclutter as gc
from gammaclutter import detector, gof_stats, texture
from gammaclutter.mgf_core import (
    ScenarioContext,
    Scheme,
    speckle_coeffs,
)
from gammaclutter.texture import (
    gamma_texture_rule,
    survival_curve,
    survival_interpolator,
)
from oracles import (ExactTauRow, WorstCaseLaw, cgf_moment_check,
                     compound_bromwich, effsw0_survival, gm_matrix,
                     pulse_coeffs)

_SF_CACHE = {}


def fig45_params(kappa):
    """Correlated target in correlated K-clutter, the replicated-KS regime."""
    return gc.scenario(M=10, kappa=kappa, S=5.0, q=0.5, nu=2.0,
                       rho_c=0.75, rho_s=0.9)


def cached_sf(kappa, method):
    key = (kappa, method)
    if key not in _SF_CACHE:
        _SF_CACHE[key] = survival_interpolator(fig45_params(kappa), method)
    return _SF_CACHE[key]


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.mark.slow
def test_criterion_01_moment_identities():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst_mean = worst_var = 0.0
    for _ in range(200):
        M = int(rng.choice([2, 5, 10, 50]))
        kappa = int(rng.choice([1, 2, 3]))
        nu = float(rng.choice([1.0, 10.0, np.inf]))
        p = gc.scenario(M=M, kappa=kappa, S=rng.uniform(0, 10),
                        q=rng.uniform(0, 1), nu=nu,
                        rho_s=rng.uniform(0, 0.99), rho_c=rng.uniform(0, 0.99))
        rep = gc.analytic_moments(p)
        mean, var = cgf_moment_check(p)
        worst_mean = max(worst_mean, abs(mean - rep.mean) / rep.mean)
        worst_var = max(worst_var, abs(var - rep.variance) / rep.variance)
    dt = time.time() - t0
    ok = worst_mean < 1e-6 and worst_var < 1e-5 and dt < 120.0
    assert report(1, ok, f"max rel mean err {worst_mean:.2e}, "
                         f"max rel var err {worst_var:.2e}, {dt:.1f}s")


@pytest.mark.slow
def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(2002)
    t0 = time.time()
    worst = 0.0
    for i in range(20):
        M = int(rng.choice([2, 5, 10]))
        nu = float(rng.choice([np.inf, 2.0, 5.0]))
        p = gc.scenario(M=M, kappa=int(rng.choice([1, 2, 3])),
                        S=rng.uniform(0.5, 8), q=rng.uniform(0.2, 1.0), nu=nu,
                        rho_s=rng.uniform(0, 0.95), rho_c=rng.uniform(0, 0.95))
        order = 1 if nu == np.inf else 12
        rule = gamma_texture_rule(p.nu, order)
        ctx = ScenarioContext(p)
        hi = 1.0 + p.S
        while texture.compound_survival(hi, p, "eff-sdp", rule, ctx) > 5e-7:
            hi *= 1.5
        grid = np.linspace(hi / 50.0, hi, 50)
        for v in grid:
            a = texture.compound_survival(float(v), p, "eff-sdp", rule, ctx)
            if a < 1e-6:
                continue
            b = compound_bromwich(float(v), p, rule, ctx)
            worst = max(worst, abs(a - b))
    dt = time.time() - t0
    ok = worst < 1e-6 and dt < 300.0
    assert report(2, ok, f"max |sdp - contour oracle| {worst:.2e}, {dt:.1f}s")


def test_criterion_03_diagonal_exact_special_cases():
    cases = [
        dict(M=6, kappa=2, S=3.0, q=0.8, nu=2.0, rho_c=0.0, rho_s=0.7),
        dict(M=6, kappa=2, S=3.0, q=0.8, nu=2.0, rho_c=0.7, rho_s=0.0),
        dict(M=6, kappa=3, S=2.0, q=0.9, nu=3.0, rho_c=0.6, rho_s=0.6),
        dict(M=2, kappa=2, S=4.0, q=0.7, nu=2.0, rho_c=0.3, rho_s=0.9),
        dict(M=8, kappa=2, S=0.0, q=0.9, nu=2.0, rho_c=0.8, rho_s=0.5),
        dict(M=8, kappa=2, S=3.0, q=0.0, nu=2.0, rho_c=0.8, rho_s=0.5),
    ]
    worst = 0.0
    for kw in cases:
        p = gc.scenario(**kw)
        rule = gamma_texture_rule(p.nu, 16)
        ctx = ScenarioContext(p)
        grid = np.linspace(0.3, 2.8 * (1 + p.S), 8)
        a = survival_curve(grid, p, "eff-sdp", rule, ctx)
        b = survival_curve(grid, p, "diag-sdp", rule, ctx)
        worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst < 1e-8
    assert report(3, ok, f"max |diag - eff| over exact cases {worst:.2e}")


def test_criterion_04_diagonal_accuracy_amplified():
    # Amplified-deviation regime: S = 5 so the mean sits at 6; the deviation
    # metric is the base-10 log-survival gap (what the deviation plots show).
    worst_log = worst_rel = 0.0
    for rho_c, rho_s in ((0.75, 0.95), (0.9, 0.5), (0.95, 0.3)):
        p = gc.scenario(M=10, kappa=2, S=5.0, q=1.0, nu=2.0,
                        rho_c=rho_c, rho_s=rho_s)
        rule = gamma_texture_rule(p.nu, 32)
        ctx = ScenarioContext(p)
        grid = np.linspace(0.5, 30.0, 60)
        eff = survival_curve(grid, p, "eff-sdp", rule, ctx)
        diag = survival_curve(grid, p, "diag-sdp", rule, ctx)
        mask = eff >= 1e-3
        gap = np.abs(np.log10(diag[mask]) - np.log10(eff[mask]))
        worst_log = max(worst_log, float(gap.max()))
        worst_rel = max(worst_rel, float(np.max(
            np.abs(diag[mask] - eff[mask]) / eff[mask])))
    ok = worst_log < 0.01
    assert report(4, ok, f"max |log10 deviation| (sf >= 1e-3) "
                         f"{worst_log:.3e} (plain relative {worst_rel:.3e})")


@pytest.mark.slow
def test_criterion_05_sp_deviation_band_and_location():
    rng = np.random.default_rng(5005)
    max_devs, loc_offsets = [], []
    for _ in range(10):
        p = gc.scenario(M=100, kappa=2, S=rng.uniform(1, 10),
                        q=rng.uniform(0.5, 1.0), nu=rng.uniform(1, 10),
                        rho_c=0.75, rho_s=0.95)
        rule = gamma_texture_rule(p.nu, 24)
        ctx = ScenarioContext(p)
        vbar = 1.0 + p.S
        hi = detector.survival_quantile(p, 1e-3, "eff-sdp", rule)
        grid = np.linspace(0.0, hi, 51)[1:]
        eff = survival_curve(grid, p, "eff-sdp", rule, ctx)
        spv = survival_curve(grid, p, "eff-sp", rule, ctx)
        dev = np.abs(spv - eff)
        max_devs.append(float(dev.max()))
        loc_offsets.append(abs(grid[int(np.argmax(dev))] - vbar) / vbar)
    mean_dev = float(np.mean(max_devs))
    frac_near = float(np.mean(np.asarray(loc_offsets) <= 0.30))
    ok = 1e-3 <= mean_dev <= 1e-1 and frac_near >= 0.9
    assert report(5, ok, f"mean max |sp - sdp| {mean_dev:.3e} "
                         f"(band 1e-3..1e-1), {frac_near:.0%} of draws "
                         f"peak within 30% of the mean")


@pytest.mark.slow
def test_criterion_06_ks_null_non_rejection():
    t0 = time.time()
    outcomes = {}
    for kappa in (1, 2):
        p = fig45_params(kappa)
        sf = cached_sf(kappa, "eff-sdp")
        ens = gof_stats.ks_ensemble(p, sf, K=400, n=10000, seed=606,
                                    alpha=0.01, threads=2)
        outcomes[kappa] = (ens.rejected, float(ens.statistics.mean()))
    dt = time.time() - t0
    ok = not outcomes[1][0] and not outcomes[2][0] and dt < 600.0
    assert report(6, ok, f"rejections: kappa1={outcomes[1][0]} "
                         f"kappa2={outcomes[2][0]}; mean KS "
                         f"{outcomes[1][1]:.4f}/{outcomes[2][1]:.4f}; "
                         f"{dt:.0f}s")


def test_criterion_07_ks_rejects_dmg():
    p = fig45_params(2)
    sf = cached_sf(2, "dmg-sdp")
    ens = gof_stats.ks_ensemble(p, sf, K=400, n=10000, seed=707,
                                alpha=0.01, threads=2)
    ok = ens.rejected
    assert report(7, ok, f"dmg-sdp rejected={ens.rejected}, "
                         f"mean KS {ens.statistics.mean():.4f}")


def _worst_case_params(rho_s):
    return gc.scenario(M=10, kappa=np.inf, S=5.0, q=1.0, nu=np.inf,
                       rho_s=rho_s, rho_c=1.0)


def _worst_case_mean_ks(rho_s, reps=100, sf=None, **cfg_kw):
    """Mean KS of `reps` sampled streams against `sf`, by default the
    effective model."""
    p = _worst_case_params(rho_s)
    ctx = ScenarioContext(p)
    if sf is None:
        sf = lambda v: effsw0_survival(v, 5.0, 10)
    stats = []
    for r in range(reps):
        cfg = gc.McConfig(10000, 808, p, **cfg_kw)
        stats.append(gc.ks_statistic(
            gc.simulate_returns(cfg, stream=r, ctx=ctx), sf))
    return float(np.mean(stats))


def test_criterion_08a_worst_case_discrepancy():
    mean_ks = _worst_case_mean_ks(0.0)
    ok = 0.03 <= mean_ks <= 0.05
    assert report("8a", ok, f"worst-case mean KS {mean_ks:.4f} "
                            f"(band 0.04 +- 0.01)")


def test_criterion_08b_small_correlation_agreement():
    """Small-correlation agreement with the exact quadrature-level law.

    The sampler at rho_s=1e-4 must match the enumerated law at the KS noise
    floor (0.87/sqrt(n) ~ 0.0087 at n=1e4).  The law's mass below the
    effective model's shift (1-1/M)S, which here is the whole of its exact
    sup deviation from the effective model, must stay within 1e-3 of its
    rho_s=0 value (0.042).  The sampler's discrepancy from the effective
    model must sit in 8a's band.
    """
    S, M = 5.0, 10
    loadings = {rho_s: ScenarioContext(_worst_case_params(rho_s)).loading_s
                for rho_s in (0.0, 1e-4)}
    # the oracle is fed the Gauss-Markov target it claims to describe
    L = loadings[1e-4]
    assert np.allclose(L.T @ L, gm_matrix(1e-4, M), atol=1e-12)
    laws = {rho_s: WorstCaseLaw(L, S) for rho_s, L in loadings.items()}
    mean_ks = _worst_case_mean_ks(1e-4, sf=laws[1e-4].sf_table())
    mean_ks_eff = _worst_case_mean_ks(1e-4)
    shift = (1.0 - 1.0 / M) * S
    mass = {rho_s: 1.0 - law.sf(shift) for rho_s, law in laws.items()}
    ok = (0.004 <= mean_ks <= 0.012
          and abs(mass[1e-4] - mass[0.0]) <= 1e-3
          and 0.03 <= mean_ks_eff <= 0.05)
    assert report("8b", ok, f"rho_s=1e-4 mean KS vs exact law {mean_ks:.4f} "
                            f"(band 0.008 +- 0.004); exact P(Z < (1-1/M)S) "
                            f"{mass[1e-4]:.5f} vs {mass[0.0]:.5f} at "
                            f"rho_s=0 (within 1e-3); mean KS vs effective "
                            f"model {mean_ks_eff:.4f} (8a band 0.04 +- 0.01)")


@pytest.mark.slow
def test_criterion_09_power_study():
    t0 = time.time()
    p = fig45_params(2)
    sf = cached_sf(2, "eff-sdp")
    power, null_rate = gof_stats.power_study(
        p, (0.003, 0.0), K=400, n=10000, alpha=0.01, seed=909, trials=20,
        sf=sf, threads=2)
    dt = time.time() - t0
    ok = power >= 0.95 and null_rate <= 0.05
    assert report(9, ok, f"power(delta=0.003)={power:.2f} (need >=0.95), "
                         f"null rate={null_rate:.2f} (need <=0.05); {dt:.0f}s")


@pytest.mark.slow
def test_criterion_10_benchmark_orderings():
    table = detector.bench(8, 60, 100, 1010, 32)
    mt = {m: float(np.mean(rows[0])) for m, rows in table.items()}
    diag_err = float(np.mean(table["diag-sdp"][1]))
    ok = (mt["dmg-sp"] < mt["dmg-sdp"] < mt["eff-sdp"]
          and mt["diag-sdp"] < mt["eff-sdp"]
          and mt["dmg-sp"] == min(mt.values())
          and diag_err <= 1e-3)
    assert report(10, ok,
                  "mean times " +
                  " ".join(f"{m}={t:.3f}s" for m, t in mt.items()) +
                  f"; diag-sdp max abs err {diag_err:.2e} (need <=1e-3)")


def test_criterion_11_property_suite():
    # r1 = 1 at every accepted saddle over a survival grid
    p = fig45_params(2)
    ctx = ScenarioContext(p)
    r1_worst = 0.0
    for u in (0.37, 1.0, 2.2):
        mgf = speckle_coeffs(p, u, Scheme.EFFECTIVE, ctx)
        for v in np.linspace(0.2, 25.0, 30):
            st = ExactTauRow(float(v), mgf)
            r1_worst = max(r1_worst, abs(st.r1 - 1.0))

    # coefficient sum rule over 500 randomized scenarios
    rng = np.random.default_rng(1111)
    sum_worst = 0.0
    for _ in range(500):
        kap = int(rng.choice([1, 2, 3, 4]))
        pr = gc.scenario(M=int(rng.integers(2, 24)), kappa=kap,
                         S=rng.uniform(0, 10), q=rng.uniform(0, 1), nu=2.0,
                         rho_s=rng.uniform(0, 0.97), rho_c=rng.uniform(0, 0.97))
        a, aq = pulse_coeffs(pr, float(rng.uniform(0.05, 3.0)))
        sum_worst = max(sum_worst, abs(float(np.sum(a - aq)) - pr.S / kap))

    # steady-target weights sum rule
    b_worst = 0.0
    for _ in range(60):
        pr = gc.scenario(M=int(rng.integers(2, 16)), kappa=np.inf,
                         S=1.0, q=0.5, nu=2.0,
                         rho_s=rng.uniform(0, 0.97), rho_c=rng.uniform(0, 0.97))
        b = ScenarioContext(pr).b_weights
        b_worst = max(b_worst, abs(float(b.sum()) - 1.0))
        assert b.min() >= -1e-14

    # texture rule moments k <= 4
    from oracles import gamma_moment
    mom_worst = 0.0
    for nu in (0.5, 1.0, 5.0, 10.0, 100.0):
        rule = gamma_texture_rule(nu, 32)
        for k in range(5):
            mom_worst = max(mom_worst,
                            abs(float(np.dot(rule.weights, rule.nodes ** k))
                                - gamma_moment(nu, k)))

    # curve monotonicity/bounds on an emitted grid
    grid = np.linspace(0.0, 25.0, 80)
    curve = survival_curve(grid, p, "eff-sdp",
                           gamma_texture_rule(p.nu, 32), ctx)
    monotone = bool(np.all(np.diff(curve) <= 1e-12)
                    and curve.min() >= 0.0 and curve.max() <= 1.0)

    # bit-identical reruns at different worker counts
    sf = cached_sf(2, "eff-sdp")
    e1 = gof_stats.ks_ensemble(p, sf, K=16, n=1000, seed=4, threads=1)
    e2 = gof_stats.ks_ensemble(p, sf, K=16, n=1000, seed=4, threads=2)
    bitwise = bool(np.array_equal(e1.statistics, e2.statistics))

    ok = (r1_worst < 1e-8 and sum_worst < 1e-10 and b_worst < 1e-12
          and mom_worst < 1e-9 and monotone and bitwise)
    assert report(11, ok,
                  f"r1 err {r1_worst:.1e}; sum-rule err {sum_worst:.1e}; "
                  f"b-sum err {b_worst:.1e}; texture moment err "
                  f"{mom_worst:.1e}; monotone={monotone}; "
                  f"thread-invariant={bitwise}")
