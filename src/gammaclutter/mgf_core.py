"""Moment generating functions of the integrated power return.

All quantities live in normalized units: the power variable is the pulse
average divided by the mean interference (noise + mean clutter), so the null
distribution has unit mean and the target adds S.  For fluctuation class
kappa and texture value u the speckle MGF is the rational form

    M(s; u) = prod_m [1 + aq_m(u) s]^(kappa-1) / prod_m [1 + a_m(u) s]^kappa

with per-pulse coefficients built from the eigenvalues of the clutter
correlation matrix and of the aggregated target/clutter matrix.
The steady target (kappa -> inf) swaps the rational form for

    ln M(s; u) = -sum_m [ln(1 + a_m s) + S b_m s / (1 + a_m s)].

The builder ``pole_table`` returns both as a ``PoleMgf`` table with one
pole row per (S, u) pair,
ln M(s) = sum_j alpha_j ln(1 + a_j s) + beta_j s / (1 + a_j s), the
only MGF type the saddle-point engine reads; ``speckle_coeffs`` and
``steady_coeffs`` are its one-row calls.

Three schemes: the full effective model (aggregated eigenvalues per (S, u)
pair), the commuting "diagonal" approximation, and the one-spike DMG
spectra, which come from the effective looks alone and decompose no
matrix.  Every spectrum comes from ``corrmodel.toeplitz_spectra``
(Cantoni & Butler's centrosymmetric split, no eigenvectors); only the
steady effective model's weights read eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from . import corrmodel
from .corrmodel import CorrelationSpec, EigenSystem, loading_matrix
from .errors import DegenerateMix, InvalidScenario, PoleHit, check_integer

KAPPA_INF = math.inf


class Scheme(Enum):
    EFFECTIVE = "eff"
    DMG = "dmg"
    DIAGONAL = "diag"


@dataclass(frozen=True)
class ScenarioParams:
    """Complete detection scenario in normalized units.

    M       pulses integrated
    kappa   target fluctuation class (integer >= 1, or math.inf for steady)
    S       signal-to-interference ratio
    q       clutter-to-interference ratio in [0, 1]
    nu      texture shape (math.inf for Rayleigh-only clutter)
    spec_s  target correlation
    spec_c  clutter speckle correlation
    """

    M: int
    kappa: float
    S: float
    q: float
    nu: float
    spec_s: CorrelationSpec
    spec_c: CorrelationSpec

    def __post_init__(self):
        check_integer("M", self.M, 1)
        if self.kappa != KAPPA_INF and not (
                1 <= self.kappa < KAPPA_INF and self.kappa == int(self.kappa)):
            raise InvalidScenario(
                f"kappa: expected an integer >= 1 or inf, got {self.kappa}")
        if not 0.0 <= self.S < math.inf:
            raise InvalidScenario(f"S {self.S} must be finite and >= 0")
        if not 0.0 <= self.q <= 1.0:
            raise InvalidScenario(f"q {self.q} outside [0, 1]")
        if not self.nu > 0:
            raise InvalidScenario(f"nu {self.nu} must be positive")
        if self.spec_s.M != self.M or self.spec_c.M != self.M:
            raise InvalidScenario("correlation specs disagree with M")

    @property
    def steady(self) -> bool:
        return self.kappa == KAPPA_INF


def scenario(M, kappa, S, q, nu, rho_s=0.0, rho_c=0.0,
             spec_s=None, spec_c=None) -> ScenarioParams:
    """Convenience constructor for Gauss-Markov correlated scenarios."""
    check_integer("M", M, 1)
    if spec_s is None:
        spec_s = CorrelationSpec.gauss_markov(rho_s, M)
    if spec_c is None:
        spec_c = CorrelationSpec.gauss_markov(rho_c, M)
    kappa = float(kappa)
    if math.isfinite(kappa) and kappa == int(kappa):
        kappa = int(kappa)
    return ScenarioParams(int(M), kappa, float(S), float(q), float(nu),
                          spec_s, spec_c)


class ScenarioContext:
    """Geometry of one scenario: matrices, spectra, looks, loadings.

    Every field is built on first read and cached, so a method pays only
    for what it reads: DMG reads the looks (O(M^2) sums over the matrices),
    the diagonal scheme and the finite-kappa effective model the spectra
    gamma_c and gamma_s (``corrmodel.toeplitz_spectra``, no eigenvectors),
    and only the steady effective model and the MC sampler the rotations
    of the eigensystems eig_c and eig_s.  Each spec's matrix is built once
    (a Toeplitz row is checked there) and every field derives from it.
    """

    def __init__(self, params: ScenarioParams):
        self.params = params

    @cached_property
    def C_c(self) -> np.ndarray:
        return corrmodel.build_matrix(self.params.spec_c)

    @cached_property
    def C_s(self) -> np.ndarray:
        return corrmodel.build_matrix(self.params.spec_s)

    @cached_property
    def eig_c(self) -> EigenSystem:
        return corrmodel.eigen_decompose(self.C_c)

    @cached_property
    def eig_s(self) -> EigenSystem:
        return corrmodel.eigen_decompose(self.C_s)

    @cached_property
    def gamma_c(self) -> np.ndarray:
        return corrmodel.toeplitz_spectra(self.C_c[:1])[0]

    @cached_property
    def gamma_s(self) -> np.ndarray:
        return corrmodel.toeplitz_spectra(self.C_s[:1])[0]

    @cached_property
    def clutter_looks(self) -> float:
        return corrmodel.effective_looks(self.C_c)

    @cached_property
    def target_looks(self) -> float:
        return corrmodel.effective_looks(self.C_s)

    @cached_property
    def cross(self) -> float:
        return corrmodel.cross_looks(self.C_c, self.C_s)

    @cached_property
    def loading_s(self) -> np.ndarray:
        """The sampler's target loading, L_s^T L_s = C_s; an exactly
        uncorrelated target, whose rotation is free, gets the Gauss-Markov
        rho_s -> 0+ eigenbasis (right-continuous in rho_s)."""
        if self.params.spec_s.is_identity:
            return corrmodel.gauss_markov_limit_basis(self.params.M)
        return loading_matrix(self.eig_s)

    @cached_property
    def b_weights(self) -> np.ndarray:
        """Steady-target weights b_m = (1/M) [R_c C_s R_c^T]_mm (paired with
        the ascending clutter eigenvalues); they sum to one.  einsum sums
        without BLAS, whose threaded products round differently with the
        thread count."""
        W = np.einsum("ik,jk->ij", self.eig_c.rotation, self.eig_s.rotation)
        b = np.einsum("ij,ij,j->i", W, W, self.eig_s.eigenvalues) \
            / self.params.M
        if abs(b.sum() - 1.0) > 1e-10 or b.min() < -1e-14:
            raise InvalidScenario("steady-target weights failed sum rule")
        return b

    @cached_property
    def dmg_gamma_c(self) -> np.ndarray:
        return corrmodel.dmg_spectrum(self.clutter_looks, self.params.M)[1]

    @cached_property
    def dmg_gamma_s(self) -> np.ndarray:
        return corrmodel.dmg_spectrum(self.target_looks, self.params.M)[1]

    def sc_eigenvalues(self, u: float) -> np.ndarray:
        """Ascending eigenvalues of the aggregated matrix C_sc(u)."""
        return self.aggregated_eigenvalues([self.params.S], [u])[0]

    def aggregated_eigenvalues(self, S, u) -> np.ndarray:
        """Ascending eigenvalues of C_sc at every pair (S[i], u[i]).

        Decomposed afresh for every pair, the effective model's defining
        cost; C_sc is symmetric Toeplitz with a first row mixed in O(M).
        """
        p = self.params
        return corrmodel.toeplitz_spectra(aggregated_corr(
            self.C_c[:1], self.C_s[:1], p.q, np.atleast_1d(u),
            np.atleast_1d(S), p.kappa)[:, 0])


def aggregated_corr(Cc, Cs, q, u, S, kappa) -> np.ndarray:
    """(q u Cc + (S/kappa) Cs) / (q u + S/kappa); unit trace ratio kept.

    Arrays u and S of one shape give the stack of matrices."""
    w_c = q * np.asarray(u, dtype=float)[..., None, None]
    w_s = np.asarray(S, dtype=float)[..., None, None]
    w_s = w_s / kappa if kappa != KAPPA_INF else 0.0 * w_s
    tot = w_c + w_s
    if np.any(tot <= 0.0):
        raise DegenerateMix("q*u + S/kappa vanished; no aggregated matrix")
    return (w_c * np.asarray(Cc) + w_s * np.asarray(Cs)) / tot


def _pulse_rows(params: ScenarioParams, S, u, scheme, ctx):
    """Per-pulse coefficients at every pair (S[i], u[i]), as (pairs, M)
    arrays: (a, aq) for a finite kappa, (aq, -S b) for a steady target.

    aq_m = [1 - q + q u gamma_c_m] / M always; the scheme decides how the
    target enters a_m: aggregated eigenvalues for the effective model, or an
    additive S gamma_s_m / (kappa M) shift for the commuting approximations.
    """
    M, q, kap = params.M, params.q, params.kappa
    dmg = scheme is Scheme.DMG
    gam_c = ctx.dmg_gamma_c if dmg else ctx.gamma_c
    gam_s = ctx.dmg_gamma_s if dmg else ctx.gamma_s
    qu = q * u
    aq = (1.0 - q + qu[:, None] * gam_c) / M
    if params.steady:
        b = ctx.b_weights if scheme is Scheme.EFFECTIVE else gam_s / M
        return aq, -S[:, None] * b
    a = aq.copy()
    sig = S != 0.0
    if scheme is Scheme.EFFECTIVE:
        gam_sc = np.tile(gam_s, (u.size, 1))
        mix = sig & (qu != 0.0)
        gam_sc[mix] = ctx.aggregated_eigenvalues(S[mix], u[mix])
        a[sig] = (1.0 - q + (qu[sig] + S[sig] / kap)[:, None]
                  * gam_sc[sig]) / M
    else:
        a[sig] = aq[sig] + S[sig, None] * gam_s / (kap * M)
    return a, aq


def _merged(a, aq, k) -> PoleMgf:
    """Rational MGF rows of the (pairs, M) coefficients: per row the
    distinct a_m, then (k > 1) the distinct aq_m, each ascending with
    alpha = -k or k - 1 times its count, as ``np.unique`` gives them."""
    parts = (a,) if k == 1 else (a, aq)
    x = np.concatenate([np.sort(p, axis=1) for p in parts], axis=1)
    new = np.ones(x.shape, dtype=bool)
    new[:, 1:] = x[:, 1:] != x[:, :-1]
    new[:, ::a.shape[1]] = True       # no run spans the a and aq parts
    pos = np.cumsum(new, axis=1) - 1  # column of each value's merged entry
    n, width = len(x), 1 + int(pos.max(initial=-1))
    flat = np.arange(n)[:, None] * width + pos
    tab = np.zeros((3, n * width))
    tab[0, flat[new]] = x[new]
    wt = np.repeat([-k, k - 1][:len(parts)], a.shape[1])
    tab[1] = np.bincount(flat.ravel(), np.tile(wt, n), n * width)
    return PoleMgf(*tab.reshape(3, n, width))


def pole_table(params: ScenarioParams, S, u,
               scheme: Scheme = Scheme.EFFECTIVE,
               ctx: ScenarioContext | None = None) -> PoleMgf:
    """Speckle MGFs at the pairs (S[i], u[i]) as one table, for any kappa.

    Row i is the MGF at signal-to-interference ratio S[i] and texture value
    u[i], left-packed and zero-padded.  For finite kappa equal coefficients
    are merged with integer weights (the DMG spectra reduce to two or three
    poles this way); a steady target has poles a_m, alpha = -1 and
    beta = -S b_m.
    """
    S, u = np.broadcast_arrays(np.atleast_1d(np.asarray(S, dtype=float)),
                               np.atleast_1d(np.asarray(u, dtype=float)))
    bad = S[~((0.0 <= S) & (S < np.inf))]
    if bad.size:
        raise InvalidScenario(f"S {bad[0]} must be finite and >= 0")
    x, y = _pulse_rows(params, S, u, scheme, ctx or ScenarioContext(params))
    if params.steady:
        return PoleMgf(x, np.full(x.shape, -1.0), y)
    if np.any(y < -1e-15) or np.any(x <= -1e-15):
        raise InvalidScenario("speckle coefficients must be nonnegative")
    return _merged(x, y, params.kappa)


def speckle_coeffs(params: ScenarioParams, u: float,
                   scheme: Scheme = Scheme.EFFECTIVE,
                   ctx: ScenarioContext | None = None) -> PoleMgf:
    """Speckle MGF at texture value u as one pole row, for any kappa."""
    t = pole_table(params, params.S, u, scheme, ctx)
    return PoleMgf(t.a[0], t.alpha[0], t.beta[0])


def steady_coeffs(params: ScenarioParams, u: float,
                  scheme: Scheme = Scheme.EFFECTIVE,
                  ctx: ScenarioContext | None = None) -> PoleMgf:
    """Steady-target (kappa -> inf) MGF at texture value u as one pole row."""
    return speckle_coeffs(replace(params, kappa=KAPPA_INF), u, scheme, ctx)


class PoleMgf:
    """ln M(s) = sum_j alpha_j ln(1 + a_j s) + beta_j s / (1 + a_j s).

    A term with alpha_j < 0 is a pole of M, one with alpha_j > 0 a zero.
    The rational form has beta = 0; the steady form has alpha = -1 and
    beta = -S b.  One MGF is a row of 1-D arrays; a table of MGFs holds
    (pairs, width) arrays, one left-packed row per pair, padded with
    entries a = alpha = beta = 0 that contribute nothing.
    """

    __slots__ = ("a", "alpha", "beta", "has_beta")

    def __init__(self, a, alpha, beta):
        self.a = np.asarray(a, dtype=float)
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)
        self.has_beta = bool(self.beta.any())

    @property
    def a_max(self):
        """Largest pole coefficient of each row."""
        return np.max(np.where(self.alpha < 0.0, self.a, -np.inf), axis=-1,
                      initial=-np.inf)

    @property
    def mean(self):
        return -_rowdot(self.alpha, self.a) - self.beta.sum(axis=-1)

    def take(self, rows) -> PoleMgf:
        """Rows ``rows`` of the table (or of the single row) as a table,
        trimmed to the widest of them."""
        tab = np.stack([np.atleast_2d(x)[rows]
                        for x in (self.a, self.alpha, self.beta)])
        width = 1 + np.flatnonzero(tab.any(axis=(0, 1))).max(initial=-1)
        return PoleMgf(*tab[:, :, :width])

    def derivatives(self, i, s):
        """d ln M / ds and d^2 ln M / ds^2 of table rows i at real s."""
        a = self.a[i]
        inv = 1.0 / (1.0 + a * s[:, None])
        t = a * inv
        al = self.alpha[i]
        d1, d2 = _rowdot(al, t), -_rowdot(al, t * t)
        if self.has_beta:
            be = self.beta[i] * inv * inv
            d1 += be.sum(axis=1)
            d2 -= 2.0 * _rowdot(be, t)
        return d1, d2

    def log_mgf(self, s):
        """ln M: of table row i at s[i], or of a single row at every s
        (real or complex)."""
        s = np.asarray(s)[..., None]
        d = 1.0 + self.a * s
        if np.any(np.abs(d) < 1e-300):
            raise PoleHit("MGF evaluated at a pole")
        val = _rowdot(self.alpha, np.log(d))
        if self.has_beta:
            val += _rowdot(self.beta, s / d)
        return val


def _rowdot(a, b):
    return np.einsum("...j,...j->...", a, b)


@dataclass(frozen=True)
class MomentReport:
    mean: float
    variance: float


def analytic_moments(params: ScenarioParams) -> MomentReport:
    """Mean 1 + S and the five-term variance of the averaged return.

    var = (1-q^2)/M + zeta q^2/L + S^2/(kappa B) + 2S[(1-q)/M + q/N]
    with the trace-based looks L, B, N and the texture inflation
    zeta = 1 + (L+1)/nu.
    """
    ctx = ScenarioContext(params)
    M, S, q = params.M, params.S, params.q
    L, B, N = ctx.clutter_looks, ctx.target_looks, ctx.cross
    zeta = 1.0 if params.nu == math.inf else 1.0 + (L + 1.0) / params.nu
    target = 0.0 if params.steady else S * S / (params.kappa * B)
    var = (1.0 - q * q) / M + zeta * q * q / L + target \
        + 2.0 * S * (1.0 - q) / M + 2.0 * S * q / N
    return MomentReport(1.0 + S, var)

