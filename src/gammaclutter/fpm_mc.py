"""Monte Carlo simulation of the quadrature-level return model.

Each draw realizes the normalized averaged power

    Z = (1/2M) sum_m sum_eta (sqrt(1-q) H + sqrt(qU) Xc + sqrt(S) Xs)^2

with one gamma texture value U per draw shared by all pulses and both
quadrature channels, AR(1) clutter speckle for Gauss-Markov correlation
(loading-matrix coloring for general Toeplitz rows), and target
quadratures Xs = L_s^T Y where the Y_m are iid two-sided Nakagami variates:
a Rademacher sign times the square root of a unit-mean gamma of shape
kappa/2 (reducing to a standard normal at kappa = 1 and to a pure sign at
kappa = inf).

Streams are counter-based (Philox) keyed by (seed, stream), with draws
generated in a fixed vectorized order per stream, so results are bit
identical no matter how streams are distributed over threads.  That order
is frozen: texture, noise block, clutter block, target sign integers,
target gammas, each one call over the whole (n, 2, M) block (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).  Chunking over n or
a narrower integer dtype would reorder the stream.

The arithmetic around the draws works in place on the drawn blocks and
forms the same products and sums as the textbook expressions: the sum
starts from the first scaled block, the AR(1) recursion overwrites its
normal block, and a target sign is applied by flipping the float sign bit,
which is exact negation.  A run returns its draws as one array sorted
ascending, the form ``gof_stats.ks_statistic`` scores; the sample count is
the array's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .corrmodel import loading_matrix
from .errors import check_integer
from .mgf_core import KAPPA_INF, ScenarioContext, ScenarioParams


@dataclass(frozen=True)
class McConfig:
    """n_samples draws of params; the target is coloured by loading_s."""

    n_samples: int
    seed: int
    params: ScenarioParams

    def __post_init__(self):
        check_integer("n_samples", self.n_samples, 1)
        check_integer("seed", self.seed, 0, 64)


def _rng(seed: int, stream: int = 0) -> Generator:
    check_integer("seed", seed, 0, 64)
    check_integer("stream", stream, 0, 64)
    return Generator(Philox(key=np.uint64(seed),
                            counter=[0, 0, 0, int(stream)]))


def _clutter_speckle(rng, n, M, spec_c, eig_c):
    """(n, 2, M) unit-variance correlated clutter quadratures."""
    X = rng.standard_normal((n, 2, M))
    if spec_c.kind == "gauss-markov":
        rho = spec_c.rho
        if rho == 0.0:
            return X
        # X[m] = rho X[m-1] + fac H[m], overwriting H; X[0] = H[0]
        fac = math.sqrt(1.0 - rho * rho)
        for m in range(1, M):
            X[..., m] *= fac
            X[..., m] += rho * X[..., m - 1]
        return X
    return X @ loading_matrix(eig_c)


def _target_quadrature(rng, n, M, kappa, L_s):
    """(n, 2, M) two-sided-Nakagami target quadratures colored by L_s."""
    flip = rng.integers(0, 2, size=(n, 2, M))
    if kappa == KAPPA_INF:
        Y = np.ones((n, 2, M))
    else:
        Y = rng.standard_gamma(kappa / 2.0, size=(n, 2, M))
        Y *= 2.0 / kappa
        np.sqrt(Y, out=Y)
    # drawn bit 0 is the sign -1: set the sign bit where it was drawn
    flip ^= 1
    flip <<= 63
    Y.view(np.int64)[...] ^= flip
    return Y @ L_s


def _draw_block(rng, n, params: ScenarioParams, ctx: ScenarioContext
                ) -> np.ndarray:
    M, S, q, nu = params.M, params.S, params.q, params.nu
    if nu == math.inf:
        U = np.ones(n)
    else:
        U = rng.standard_gamma(nu, size=n) / nu
    total = None
    if q < 1.0:
        total = rng.standard_normal((n, 2, M))
        total *= math.sqrt(1.0 - q)
    if q > 0.0:
        Xc = _clutter_speckle(rng, n, M, params.spec_c, ctx.eig_c)
        Xc *= np.sqrt(q * U)[:, None, None]
        if total is None:
            total = Xc
        else:
            total += Xc
    if S > 0.0:
        Xs = _target_quadrature(rng, n, M, params.kappa, ctx.loading_s)
        Xs *= math.sqrt(S)
        total += Xs
    total *= total
    z = np.sum(total, axis=(1, 2))
    z /= 2.0 * M
    return z


def simulate_returns(config: McConfig, stream: int = 0,
                     ctx: ScenarioContext | None = None) -> np.ndarray:
    """Draw n_samples realizations of the averaged power, sorted ascending."""
    if ctx is None:
        ctx = ScenarioContext(config.params)
    rng = _rng(config.seed, stream)
    z = _draw_block(rng, config.n_samples, config.params, ctx)
    z.sort()
    return z
