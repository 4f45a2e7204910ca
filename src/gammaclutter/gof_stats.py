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
from scipy.special import kolmogorov, ndtri

from .errors import InvalidScenario, NonMonotoneSF, check_integer
from .fpm_mc import _draw_block, _rng, _workspace
from .mgf_core import ScenarioContext, ScenarioParams

BOOTSTRAP_RESAMPLES = 1000
BAND_GRID_POINTS = 200
CONSECUTIVE_EXITS = 4


# --- KS statistic -------------------------------------------------------------

def ks_statistic(x: np.ndarray, sf) -> float:
    """sup_v |empirical CDF - model CDF| over the samples ``x``, which
    must be sorted ascending (as ``simulate_returns`` returns them).

    ``sf`` must be a vectorized monotone nonincreasing survival function
    with sf(0) = 1; F = 1 - sf is compared with the step empirical CDF.
    """
    n = x.size
    F = 1.0 - np.asarray(sf(x), dtype=float)
    if np.any(np.diff(F) < -1e-9):
        raise NonMonotoneSF("model survival function is not monotone on "
                            "the sample points")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - F)
    d_minus = np.max(F - (i - 1) / n)
    return float(max(d_plus, d_minus))


# --- perturbed survival functions --------------------------------------------

class PerturbedSF:
    """G(x) = sf(x)^(1+eps): the tilted alternative for power studies."""

    def __init__(self, sf, eps: float):
        self.sf = sf
        self.eps = float(eps)

    def __call__(self, x):
        return np.asarray(self.sf(x), dtype=float) ** (1.0 + self.eps)


def epsilon_from_delta(delta: float) -> float:
    """The tilt eps whose peak difference
    sup_x |sf - sf^(1+eps)| = eps (1/(1+eps))^(1+1/eps) is delta, exactly
    by Newton, seeded with eps ~ e * delta."""
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

    def to_json(self) -> str:
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
        return json.dumps(payload, indent=2)


def _replicate_stats(params, sfs, K, n, seed, first_stream):
    """(len(sfs), K) KS statistics: each replicate draw is scored against
    every survival function in ``sfs``.

    Replicate r is stream first_stream + r of ``seed``, drawn and sorted
    as ``simulate_returns`` draws it, in one workspace that every
    replicate of the call reuses (see ``fpm_mc``); a threaded ensemble
    makes one call per worker process."""
    out = np.empty((len(sfs), K))
    ctx = ScenarioContext(params)
    work = _workspace(n, params.M)
    for r in range(K):
        x = _draw_block(_rng(seed, first_stream + r), n, params, ctx, work)
        x.sort()
        for i, sf in enumerate(sfs):
            out[i, r] = ks_statistic(x, sf)
    return out


def _stats_worker(args):
    params, sfs, k_lo, k_hi, n, seed, first_stream = args
    return _replicate_stats(params, sfs, k_hi - k_lo, n, seed,
                            first_stream + k_lo)


def _ensemble_stats(params, sfs, K, n, seed, first_stream, threads):
    """_replicate_stats, with the replicates split over ``threads`` worker
    processes when threads > 1; a replicate's stream does not depend on
    the split."""
    if not threads or threads <= 1:
        return _replicate_stats(params, sfs, K, n, seed, first_stream)
    chunks = np.array_split(np.arange(K), threads)
    jobs = [(params, sfs, int(ch[0]), int(ch[-1]) + 1, n, seed, first_stream)
            for ch in chunks if ch.size]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return np.concatenate(list(pool.map(_stats_worker, jobs)), axis=1)


def rejection_scan(dkw_curve, band_lo) -> bool:
    """White-space rule: theory-side DKW curve under the ensemble's lower
    envelope on >= CONSECUTIVE_EXITS adjacent grid points."""
    exits = dkw_curve < band_lo
    run = 0
    for e in exits:
        run = run + 1 if e else 0
        if run >= CONSECUTIVE_EXITS:
            return True
    return False


def check_ensemble(K: int, n: int, alpha: float, seed: int) -> None:
    """Raise InvalidScenario unless K and n are integers >= 1, the seed an
    integer in [0, 2^64) and 0 < alpha < 1."""
    check_integer("K", K, 1)
    check_integer("n", n, 1)
    check_integer("seed", seed, 0, 64)
    if not 0.0 < alpha < 1.0:
        raise InvalidScenario(f"need 0 < alpha < 1; got alpha={alpha}")


def ks_ensemble(params: ScenarioParams, method_sf, K: int, n: int, seed: int,
                alpha: float = 0.01, threads: int = 0,
                config_echo: dict | None = None) -> KSEnsemble:
    """K replicate KS statistics of n-sample MC runs against ``method_sf``.

    Returns the ensemble with its bootstrap band, Greenwood limits, the
    Kolmogorov theoretical curve (as function of the raw statistic), the DKW
    tracking curve, and the rejection decision.  Replicate r draws stream r
    of ``seed`` at any thread count, the bootstrap band stream 2^31."""
    check_ensemble(K, n, alpha, seed)
    stats = _ensemble_stats(params, [method_sf], K, n, seed, 0, threads)[0]
    return _ensemble(stats, n, seed, alpha, config_echo or {})


def _greenwood(stats, n, alpha):
    """Grid, ensemble survival, Greenwood limits and DKW curve of K replicate
    statistics, and the rejection decision, which reads only these."""
    K = stats.size
    grid = np.linspace(0.0, 1.2 * float(stats.max()), BAND_GRID_POINTS)
    ens_sf = (K - np.searchsorted(np.sort(stats), grid, side="right")) / K
    z = ndtri(1.0 - alpha / 2.0)
    se = np.sqrt(ens_sf * (1.0 - ens_sf) / K)
    green_lo = np.clip(ens_sf - z * se, 0.0, 1.0)
    green_hi = np.clip(ens_sf + z * se, 0.0, 1.0)
    dkw = np.minimum(1.0, 2.0 * np.exp(-2.0 * n * grid ** 2))
    return (grid, ens_sf, green_lo, green_hi, dkw,
            rejection_scan(dkw, green_lo))


def _ensemble(stats, n, seed, alpha, config_echo) -> KSEnsemble:
    """The bands, curves and rejection decision of K replicate statistics;
    the bootstrap stream is keyed by (seed, 2^31)."""
    K = stats.size
    grid, ens_sf, green_lo, green_hi, dkw, rejected = _greenwood(stats, n,
                                                                 alpha)
    rng = Generator(Philox(key=np.uint64(seed),
                           counter=[0, 0, 1, np.uint64(2 ** 31)]))
    boot = np.empty((BOOTSTRAP_RESAMPLES, grid.size))
    for b in range(BOOTSTRAP_RESAMPLES):
        res = np.sort(stats[rng.integers(0, K, K)])
        boot[b] = (K - np.searchsorted(res, grid, side="right")) / K
    boot_lo = np.quantile(boot, alpha / 2.0, axis=0)
    boot_hi = np.quantile(boot, 1.0 - alpha / 2.0, axis=0)
    return KSEnsemble(stats, grid, ens_sf, boot_lo, boot_hi, green_lo,
                      green_hi, kolmogorov(grid * math.sqrt(n)), dkw, n, K,
                      alpha, rejected, config_echo)


def power_study(params: ScenarioParams, deltas, sf, K: int = 400,
                n: int = 10000, alpha: float = 0.01, seed: int = 1,
                trials: int = 20, threads: int = 0) -> np.ndarray:
    """Fraction of replicate ensembles that reject the tilted survival
    model, one per peak deviation in ``deltas``.

    The null being tested is G = sf^(1+eps) with eps chosen so the peak
    deviation from the true curve equals delta; samples always come from
    the untilted first-principles simulator.  Every tilt is scored on the
    same replicate draws, and each gets the rejection decision that
    ks_ensemble would make for it alone; no bootstrap band is built.
    """
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    check_integer("trials", trials, 1)
    if deltas.size == 0 or not np.all(deltas >= 0.0):
        raise InvalidScenario(f"need one or more deltas, each >= 0; got "
                              f"{deltas.tolist()}")
    check_ensemble(K, n, alpha, seed)
    sfs = [PerturbedSF(sf, epsilon_from_delta(d)) if d > 0.0 else sf
           for d in deltas]
    hits = np.zeros(deltas.size)
    for t in range(trials):
        stats = _ensemble_stats(params, sfs, K, n, seed, t * K, threads)
        for i, row in enumerate(stats):
            hits[i] += _greenwood(row, n, alpha)[-1]
    return hits / trials
