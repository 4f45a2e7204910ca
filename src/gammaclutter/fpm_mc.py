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

A draw works in three (n, 2, M) float blocks, its workspace.  The noise
normals start the sum in the first, the clutter normals go to the second
and a Toeplitz row colours them into the third; the target gammas and
their coloured product go to the two blocks that do not hold the sum,
whose contents have been added to it by then.  A KS ensemble allocates
one workspace and reuses it for every replicate: a fresh 1.6 MB block
(n = 1e4, M = 10) lies above glibc's mmap threshold, so every replicate
would page-fault its three float blocks back in.  The sign integers
still come in a fresh block (``Generator.integers`` has no ``out=``);
whether it faults depends on the allocation history, since glibc raises
its mmap threshold once a block that size has been freed.  Reuse changes no output bit: ``standard_normal(out=)`` and
``standard_gamma(out=)`` take the same Philox draws as a fresh call, every
block is overwritten before it is read (a steady target's block is
refilled with ones, so no sign bit survives from the previous replicate),
and the arithmetic is the same.  ``simulate_returns`` draws through the
same code with a workspace of its own.
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


def _workspace(n, M):
    """Three uninitialised (n, 2, M) blocks for ``_draw_block`` to work in."""
    return [np.empty((n, 2, M)) for _ in range(3)]


def _clutter_speckle(rng, n, M, spec_c, eig_c, X=None, out=None):
    """(n, 2, M) unit-variance correlated clutter quadratures: the normals
    are drawn into ``X`` and a Toeplitz row colours them into ``out``
    (fresh blocks where None)."""
    X = rng.standard_normal((n, 2, M), out=X)
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
    return np.matmul(X, loading_matrix(eig_c), out=out)


def _target_quadrature(rng, n, M, kappa, L_s, Y=None, out=None):
    """(n, 2, M) two-sided-Nakagami target quadratures colored by L_s: the
    magnitudes are drawn into ``Y`` and coloured into ``out`` (fresh blocks
    where None)."""
    flip = rng.integers(0, 2, size=(n, 2, M))
    if Y is None:
        Y = np.empty((n, 2, M))
    if kappa == KAPPA_INF:
        Y.fill(1.0)
    else:
        rng.standard_gamma(kappa / 2.0, size=(n, 2, M), out=Y)
        Y *= 2.0 / kappa
        np.sqrt(Y, out=Y)
    # drawn bit 0 is the sign -1: set the sign bit where it was drawn
    flip ^= 1
    flip <<= 63
    Y.view(np.int64)[...] ^= flip
    return np.matmul(Y, L_s, out=out)


def _draw_block(rng, n, params: ScenarioParams, ctx: ScenarioContext,
                work=None) -> np.ndarray:
    """n draws of the averaged power, worked out in ``work`` (a fresh
    ``_workspace`` where None)."""
    M, S, q, nu = params.M, params.S, params.q, params.nu
    if work is None:
        work = _workspace(n, M)
    if nu == math.inf:
        U = np.ones(n)
    else:
        U = rng.standard_gamma(nu, size=n) / nu
    total = None
    if q < 1.0:
        total = rng.standard_normal((n, 2, M), out=work[0])
        total *= math.sqrt(1.0 - q)
    if q > 0.0:
        Xc = _clutter_speckle(rng, n, M, params.spec_c, ctx.eig_c, work[1],
                              work[2])
        Xc *= np.sqrt(q * U)[:, None, None]
        if total is None:
            total = Xc
        else:
            total += Xc
    if S > 0.0:
        Y, out = (w for w in work if w is not total)
        Xs = _target_quadrature(rng, n, M, params.kappa, ctx.loading_s, Y,
                                out)
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
