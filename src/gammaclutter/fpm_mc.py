"""Monte Carlo simulation of the quadrature-level return model.

Each draw realizes the normalized averaged power

    Z = (1/2M) sum_m sum_eta (sqrt(1-q) H + sqrt(qU) Xc + sqrt(S) Xs)^2

with one gamma texture value U per draw shared by all pulses and both
quadrature channels, AR(1) clutter speckle for Gauss-Markov correlation
(loading-matrix coloring for general Toeplitz rows), and target quadrature
components Xs = L_s^T Y where the Y_m are iid two-sided Nakagami variates:
a Rademacher sign times the square root of a unit-mean gamma of shape
kappa/2 (reducing to a standard normal at kappa = 1 and to a pure sign at
kappa = inf).

Streams are counter-based (Philox) keyed by (seed, stream), with draws
generated in a fixed vectorized order per stream, so results are bit
identical no matter how streams are distributed over threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .corrmodel import loading_matrix
from .errors import InvalidScenario
from .mgf_core import KAPPA_INF, ScenarioContext, ScenarioParams


@dataclass(frozen=True)
class McConfig:
    n_samples: int
    seed: int
    params: ScenarioParams
    # loading convention for a degenerate (uncorrelated) target spectrum:
    # "limit" (vanishing-correlation eigenbasis), "identity", or "clutter"
    target_rotation: str = "limit"

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidScenario("n_samples must be >= 1")
        if self.target_rotation not in ("limit", "identity", "clutter"):
            raise InvalidScenario(
                f"unknown target rotation '{self.target_rotation}'")


@dataclass(frozen=True)
class EmpiricalDistribution:
    sorted_samples: np.ndarray
    n: int

    @property
    def mean(self) -> float:
        return float(self.sorted_samples.mean())

    @property
    def variance(self) -> float:
        return float(self.sorted_samples.var(ddof=1))


def _rng(seed: int, stream: int = 0) -> Generator:
    return Generator(Philox(key=np.uint64(seed) & np.uint64(0xFFFFFFFFFFFFFFFF),
                            counter=[0, 0, 0, int(stream)]))


def _clutter_speckle(rng, n, M, spec_c, eig_c):
    """(n, 2, M) unit-variance correlated clutter quadrature components."""
    H = rng.standard_normal((n, 2, M))
    if spec_c.kind == "gauss-markov":
        rho = spec_c.rho
        if rho == 0.0:
            return H
        X = np.empty_like(H)
        X[..., 0] = H[..., 0]
        fac = math.sqrt(1.0 - rho * rho)
        for m in range(1, M):
            X[..., m] = rho * X[..., m - 1] + fac * H[..., m]
        return X
    return H @ loading_matrix(eig_c)


def _target_quadrature(rng, n, M, kappa, L_s):
    """(n, 2, M) two-sided-Nakagami target components colored by L_s."""
    signs = 2.0 * rng.integers(0, 2, size=(n, 2, M)).astype(float) - 1.0
    if kappa == KAPPA_INF:
        Y = signs
    else:
        shape = kappa / 2.0
        G = rng.standard_gamma(shape, size=(n, 2, M)) * (2.0 / kappa)
        Y = signs * np.sqrt(G)
    return Y @ L_s


def _draw_block(rng, n, params: ScenarioParams, ctx: ScenarioContext,
                target_rotation: str = "limit") -> np.ndarray:
    M, S, q, nu = params.M, params.S, params.q, params.nu
    if nu == math.inf:
        U = np.ones(n)
    else:
        U = rng.standard_gamma(nu, size=n) / nu
    total = np.zeros((n, 2, M))
    if q < 1.0:
        total += math.sqrt(1.0 - q) * rng.standard_normal((n, 2, M))
    if q > 0.0:
        Xc = _clutter_speckle(rng, n, M, params.spec_c, ctx.eig_c)
        total += np.sqrt(q * U)[:, None, None] * Xc
    if S > 0.0:
        L_s = ctx.fp_loading(target_rotation)
        Xs = _target_quadrature(rng, n, M, params.kappa, L_s)
        total += math.sqrt(S) * Xs
    return np.sum(total * total, axis=(1, 2)) / (2.0 * M)


def simulate_returns(config: McConfig, stream: int = 0,
                     ctx: ScenarioContext | None = None
                     ) -> EmpiricalDistribution:
    """Draw n_samples realizations of the averaged power and sort them."""
    if ctx is None:
        ctx = ScenarioContext(config.params)
    rng = _rng(config.seed, stream)
    n = config.n_samples
    z = _draw_block(rng, n, config.params, ctx, config.target_rotation)
    z.sort()
    return EmpiricalDistribution(z, n)
