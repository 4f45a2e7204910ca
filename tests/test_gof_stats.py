import json
import math

import numpy as np
import pytest
from scipy.special import kolmogi

import gammaclutter.gof_stats as gs
import gammaclutter.mgf_core as mc
from gammaclutter.errors import InvalidScenario, NonMonotoneSF
from oracles import delta_max


def test_ks_single_sample_at_median():
    d = gs.ks_statistic(np.array([math.log(2.0)]),
                        lambda v: np.exp(-np.asarray(v)))
    assert d == pytest.approx(0.5, abs=1e-12)


def test_ks_nonmonotone_sf_rejected():
    # cos^2 rises again between v=2 and v=3
    with pytest.raises(NonMonotoneSF):
        gs.ks_statistic(np.array([0.5, 2.0, 3.0]),
                        lambda v: np.cos(np.asarray(v)) ** 2)


def test_ks_null_median_matches_kolmogorov():
    # samples drawn from the model itself: median of sqrt(n) D over
    # replicates approaches the Kolmogorov median 0.8276
    rng = np.random.default_rng(77)
    n, reps = 10000, 120
    stats = []
    for _ in range(reps):
        x = np.sort(rng.exponential(size=n))
        stats.append(gs.ks_statistic(x, lambda v: np.exp(-np.asarray(v))))
    med = np.median(np.array(stats)) * math.sqrt(n)
    want = kolmogi(0.5)
    assert want == pytest.approx(0.82757, abs=1e-4)
    assert abs(med - want) < 0.06


def test_ks_invariant_under_monotone_transform():
    rng = np.random.default_rng(5)
    x = np.sort(rng.exponential(size=500))
    d1 = gs.ks_statistic(x, lambda v: np.exp(-np.asarray(v)))
    y = x ** 3
    d2 = gs.ks_statistic(np.sort(y),
                         lambda v: np.exp(-np.asarray(v) ** (1.0 / 3.0)))
    assert d1 == pytest.approx(d2, abs=1e-15)


def test_perturbation_identities():
    assert delta_max(0.0) == 0.0
    eps = gs.epsilon_from_delta(0.003)
    assert abs(eps - math.e * 0.003) < 3e-4          # seed is e*delta
    assert delta_max(eps) == pytest.approx(0.003, rel=1e-12)

    # extremum of sf - sf^(1+eps) sits where sf = (1/(1+eps))^(1/eps)
    sf = lambda x: np.exp(-np.asarray(x, dtype=float))
    g = gs.PerturbedSF(sf, eps)
    xs = np.linspace(0.0, 12.0, 200001)
    diff = sf(xs) - g(xs)
    x_star = xs[np.argmax(diff)]
    sf_star = (1.0 / (1.0 + eps)) ** (1.0 / eps)
    assert sf(x_star) == pytest.approx(sf_star, abs=1e-4)
    assert diff.max() == pytest.approx(0.003, rel=1e-6)

    # survival axioms preserved
    assert g(0.0) == pytest.approx(1.0)
    out = g(xs)
    assert np.all(np.diff(out) <= 0) and out[-1] < 1e-5


def test_ensemble_null_coverage_and_json():
    # null-true synthetic: pure-noise scenario against its exact survival
    from scipy.special import gammaincc
    M = 4
    p = mc.scenario(M=M, kappa=1, S=0.0, q=0.0, nu=np.inf)
    sf = lambda v: gammaincc(M, M * np.clip(np.asarray(v, float), 0, None))
    ens = gs.ks_ensemble(p, sf, K=120, n=2000, seed=11, alpha=0.01)
    assert not ens.rejected
    # theoretical curve inside the Greenwood band except a small fraction
    inside = (ens.kolmogorov_curve >= ens.green_lo - 1e-12) & \
             (ens.kolmogorov_curve <= ens.green_hi + 1e-12)
    interior = (ens.ensemble_sf > 0) & (ens.ensemble_sf < 1)
    frac_out = 1.0 - inside[interior].mean()
    assert frac_out <= 0.15
    # band ordering and serialization round trip
    assert np.all(ens.boot_lo <= ens.boot_hi)
    assert np.all(ens.green_lo <= ens.green_hi)
    payload = json.loads(ens.to_json())
    assert payload["K"] == 120 and payload["n"] == 2000
    assert len(payload["statistics"]) == 120
    assert len(payload["greenwood"]["lower"]) == len(payload["grid"])
    assert payload["rejected"] is False


class ErlangSF:
    """Picklable null survival for the pure-noise scenario."""

    def __init__(self, M):
        self.M = M

    def __call__(self, v):
        from scipy.special import gammaincc
        return gammaincc(self.M,
                         self.M * np.clip(np.asarray(v, float), 0, None))


def test_ensemble_threaded_matches_serial():
    M = 3
    p = mc.scenario(M=M, kappa=1, S=0.0, q=0.0, nu=np.inf)
    sf = ErlangSF(M)
    a = gs.ks_ensemble(p, sf, K=24, n=500, seed=2, alpha=0.01)
    b = gs.ks_ensemble(p, sf, K=24, n=500, seed=2, alpha=0.01, threads=2)
    assert np.array_equal(a.statistics, b.statistics)
    assert a.rejected == b.rejected


def test_ensemble_draws_do_not_page_fault_per_replicate():
    # a fresh (n, 2, M) block per replicate sits above glibc's mmap
    # threshold and page-faults back in at every draw; the ensemble's one
    # workspace is paged in once per call, so replicates beyond the first
    # touch a small fraction of one block each.  The bound also relies on
    # glibc's dynamic mmap threshold for the sign integers, still a fresh
    # int64 block per draw: glibc serves it from the heap once an earlier
    # one was freed.  With a fixed threshold (MALLOC_MMAP_THRESHOLD_) or
    # another allocator that block alone would fault past the bound.
    resource = pytest.importorskip("resource")
    p = mc.scenario(M=10, kappa=2, S=5.0, q=0.5, nu=2.0,
                    rho_c=0.75, rho_s=0.9)
    n, sf = 10000, ErlangSF(10)

    def faults(K):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        gs._replicate_stats(p, [sf], K, n, 3, 0)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    if faults(2) == 0:
        pytest.skip("this platform does not count minor faults")
    block_pages = n * 2 * p.M * 8 / resource.getpagesize()
    extra = faults(60) - faults(20)
    assert extra < 40 * block_pages / 10, extra


def test_ensemble_rejects_alpha_outside_unit_interval():
    # alpha >= 1 collapses or inverts the bands; alpha <= 0 has no quantile
    p = mc.scenario(M=3, kappa=1, S=0.0, q=0.0, nu=np.inf)
    for alpha in (-0.1, 0.0, 1.0, 1.5):
        with pytest.raises(InvalidScenario):
            gs.ks_ensemble(p, ErlangSF(3), K=4, n=50, seed=2, alpha=alpha)


def test_ensemble_rejects_non_integer_counts_and_seeds():
    # K=4.5 leaked numpy's TypeError, seed=2.5 drew seed 2's stream
    p = mc.scenario(M=3, kappa=1, S=0.0, q=0.0, nu=np.inf)
    for K, n, seed in ((4.5, 50, 2), (4, 50.0, 2), (4, 50, 2.5),
                       (4, 50, -1)):
        with pytest.raises(InvalidScenario, match="must be an integer"):
            gs.ks_ensemble(p, ErlangSF(3), K=K, n=n, seed=seed)


def test_power_study_rejects_bad_trials_and_delta():
    # trials=0 divided by zero; a negative delta tested the untilted model
    p = mc.scenario(M=3, kappa=1, S=0.0, q=0.0, nu=np.inf)
    for trials in (0, 1.5):
        with pytest.raises(InvalidScenario, match="trials must be an integer"):
            gs.power_study(p, [0.01], ErlangSF(3), K=4, n=50, trials=trials)
    for deltas in ([-0.01], [math.nan], [0.0, -0.01], []):
        with pytest.raises(InvalidScenario, match="need one or more deltas"):
            gs.power_study(p, deltas, ErlangSF(3), K=4, n=50, trials=1)


def test_power_study_scores_every_tilt_on_one_draw():
    # one power per delta, each equal to the rejection rate of the
    # ensembles ks_ensemble builds for that tilt alone
    M = 3
    p = mc.scenario(M=M, kappa=1, S=0.0, q=0.0, nu=np.inf)
    sf = ErlangSF(M)
    deltas = (0.0, 0.05, 0.2)
    K, n, trials = 20, 400, 3
    power = gs.power_study(p, deltas, sf, K=K, n=n, seed=4, trials=trials)
    for d, got in zip(deltas, power):
        g = gs.PerturbedSF(sf, gs.epsilon_from_delta(d)) if d else sf
        ens = [gs._ensemble(gs._ensemble_stats(p, [g], K, n, 4, t * K, 0)[0],
                            n, 4, 0.01, {}) for t in range(trials)]
        assert got == np.mean([e.rejected for e in ens])
    assert power[0] == 0.0 and power[2] == 1.0
    assert np.array_equal(
        gs.power_study(p, deltas, sf, K=K, n=n, seed=4, trials=trials,
                       threads=2), power)


def test_greenwood_decision_matches_full_ensemble():
    # power_study reads the rejection decision without the bootstrap band;
    # it and the limits it rests on must be the full ensemble's
    n = 400
    null = kolmogi(np.linspace(0.02, 0.98, 30)) / math.sqrt(n)
    for stats in (null, 2.5 * null, null + 0.1):
        grid, ens_sf, lo, hi, dkw, rejected = gs._greenwood(stats, n, 0.01)
        ens = gs._ensemble(stats, n, 4, 0.01, {})
        assert rejected == ens.rejected
        for got, want in ((grid, ens.grid), (ens_sf, ens.ensemble_sf),
                          (lo, ens.green_lo), (hi, ens.green_hi),
                          (dkw, ens.dkw_curve)):
            assert got.tobytes() == want.tobytes()
    assert not gs._greenwood(null, n, 0.01)[-1]
    assert gs._greenwood(null + 0.1, n, 0.01)[-1]


def test_rejection_scan_consecutive_rule():
    need = gs.CONSECUTIVE_EXITS
    dkw = np.full(12, 0.5)
    below = np.full(12, 0.4)
    # one short of the calibrated run length: not enough
    lo = below.copy()
    lo[2:2 + need - 1] = 0.6
    assert not gs.rejection_scan(dkw, lo)
    # exactly the calibrated run length triggers
    lo = below.copy()
    lo[2:2 + need] = 0.6
    assert gs.rejection_scan(dkw, lo)
