"""Moment generating functions of the integrated power return.

All quantities live in normalized units: the power variable is the pulse
average divided by the mean interference (noise + mean clutter), so the null
distribution has unit mean and the target adds S.  For fluctuation class
kappa and texture value u the speckle MGF is the rational form

    M(s; u) = prod_m [1 + aq_m(u) s]^(kappa-1) / prod_m [1 + a_m(u) s]^kappa

with per-pulse coefficients (``pulse_coeffs``) built from the eigenvalues of
the clutter correlation matrix and of the aggregated target/clutter matrix.
The steady target (kappa -> inf) swaps the rational form for

    ln M(s; u) = -sum_m [ln(1 + a_m s) + S b_m s / (1 + a_m s)].

The builder ``pole_table`` returns both as a ``PoleMgf`` table with one
pole row per (S, u) pair,
ln M(s) = sum_j alpha_j ln(1 + a_j s) + beta_j s / (1 + a_j s);
``speckle_coeffs`` and ``steady_coeffs`` are its one-row calls.

Three coefficient schemes are supported: the full effective model (fresh
aggregated eigenvalues per texture node), the commuting "diagonal"
approximation, and the simplified one-spike DMG spectra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.special import gammaincc
from scipy.stats import ncx2

from . import corrmodel
from .corrmodel import CorrelationSpec, eigen_system, loading_matrix
from .errors import DegenerateMix, InvalidScenario, PoleHit

KAPPA_INF = math.inf
# Matrix entries per stacked eigvalsh call of the effective model.
_EIG_CHUNK = 1 << 16


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
        if self.M < 1:
            raise InvalidScenario(f"M {self.M} must be >= 1")
        if self.kappa != KAPPA_INF:
            if self.kappa < 1 or self.kappa != int(self.kappa):
                raise InvalidScenario(
                    f"kappa {self.kappa} must be an integer >= 1 or inf")
        if self.S < 0:
            raise InvalidScenario(f"S {self.S} must be >= 0")
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
    if spec_s is None:
        spec_s = CorrelationSpec.gauss_markov(rho_s, M)
    if spec_c is None:
        spec_c = CorrelationSpec.gauss_markov(rho_c, M)
    if kappa == KAPPA_INF:
        kappa = math.inf
    elif float(kappa) == int(kappa):
        kappa = int(kappa)
    return ScenarioParams(int(M), kappa, float(S), float(q), float(nu),
                          spec_s, spec_c)


class ScenarioContext:
    """Cached geometry for one scenario: matrices, spectra, looks, loadings."""

    def __init__(self, params: ScenarioParams):
        self.params = params
        self.eig_c = eigen_system(params.spec_c)
        self.eig_s = eigen_system(params.spec_s)
        self.C_c = corrmodel.build_matrix(params.spec_c)
        self.C_s = corrmodel.build_matrix(params.spec_s)
        self.gamma_c = self.eig_c.eigenvalues
        self.gamma_s = self.eig_s.eigenvalues
        self.clutter_looks = corrmodel.effective_looks(self.C_c)
        self.target_looks = corrmodel.effective_looks(self.C_s)
        self.cross = corrmodel.cross_looks(self.C_c, self.C_s)
        self._loading_s = None
        self._b_weights = None
        self._dmg_c = None
        self._dmg_s = None

    @property
    def loading_s(self) -> np.ndarray:
        if self._loading_s is None:
            self._loading_s = loading_matrix(self.eig_s)
        return self._loading_s

    def fp_loading(self, rotation: str = "limit") -> np.ndarray:
        """Target loading matrix for the first-principles constructions.

        For a degenerate (exactly uncorrelated) target spectrum the rotation
        is a free convention; ``limit`` uses the vanishing-correlation
        eigenbasis of the Gauss-Markov family (right-continuous in rho),
        ``identity`` the fully phase-uncorrelated choice, and ``clutter``
        substitutes the clutter rotation, which brings the first-principles
        model into exact agreement with the effective one.
        """
        if not self.eig_s.is_identity:
            return self.loading_s
        if rotation == "limit":
            return corrmodel.gauss_markov_limit_basis(self.params.M)
        if rotation == "identity":
            return np.eye(self.params.M)
        if rotation == "clutter":
            return self.eig_c.rotation
        raise InvalidScenario(f"unknown target rotation '{rotation}'")

    @property
    def b_weights(self) -> np.ndarray:
        """Steady-target weights b_m = (1/M) [R_c C_s R_c^T]_mm (paired with
        the ascending clutter eigenvalues); they sum to one."""
        if self._b_weights is None:
            W = self.eig_c.rotation @ self.eig_s.rotation.T
            b = (W * W) @ self.gamma_s / self.params.M
            if abs(b.sum() - 1.0) > 1e-10 or b.min() < -1e-14:
                raise InvalidScenario("steady-target weights failed sum rule")
            self._b_weights = b
        return self._b_weights

    @property
    def dmg_gamma_c(self) -> np.ndarray:
        if self._dmg_c is None:
            _, self._dmg_c = corrmodel.dmg_spectrum(self.clutter_looks,
                                                    self.params.M)
        return self._dmg_c

    @property
    def dmg_gamma_s(self) -> np.ndarray:
        if self._dmg_s is None:
            _, self._dmg_s = corrmodel.dmg_spectrum(self.target_looks,
                                                    self.params.M)
        return self._dmg_s

    def sc_eigenvalues(self, u: float) -> np.ndarray:
        """Ascending eigenvalues of the aggregated matrix C_sc(u)."""
        return self.aggregated_eigenvalues([self.params.S], [u])[0]

    def aggregated_eigenvalues(self, S, u) -> np.ndarray:
        """Ascending eigenvalues of C_sc at every pair (S[i], u[i]).

        Decomposed afresh for every pair: the survival pipeline does this
        per (power level, texture node) pair, which is the effective model's
        defining extra cost relative to the commuting approximations.  The
        stacks given to LAPACK hold at most _EIG_CHUNK matrix entries, so
        they stay small at large M.
        """
        p = self.params
        S, u = np.atleast_1d(S), np.atleast_1d(u)
        per = max(1, _EIG_CHUNK // (p.M * p.M))
        got = np.empty((u.size, p.M))
        for i in range(0, u.size, per):
            got[i:i + per] = np.linalg.eigvalsh(aggregated_corr(
                self.C_c, self.C_s, p.q, u[i:i + per], S[i:i + per], p.kappa))
        np.clip(got, 0.0, None, out=got)
        return got


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
    if np.any(S < 0.0):
        raise InvalidScenario("S must be >= 0")
    x, y = _pulse_rows(params, S, u, scheme, ctx or ScenarioContext(params))
    if params.steady:
        return PoleMgf(x, np.full(x.shape, -1.0), y)
    if np.any(y < -1e-15) or np.any(x <= -1e-15):
        raise InvalidScenario("speckle coefficients must be nonnegative")
    return _merged(x, y, params.kappa)


def pulse_coeffs(params: ScenarioParams, u: float,
                 scheme: Scheme = Scheme.EFFECTIVE,
                 ctx: ScenarioContext | None = None):
    """Per-pulse coefficients (a_m(u), aq_m(u)) of a finite fluctuation
    class, unmerged."""
    if params.steady:
        raise InvalidScenario("finite-kappa coefficients requested for "
                              "steady target; use steady_coeffs")
    a, aq = _pulse_rows(params, np.array([params.S]), np.array([float(u)]),
                        scheme, ctx or ScenarioContext(params))
    return a[0], aq[0]


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
    entries a = alpha = beta = 0 that contribute nothing.  ``log_mgf`` and
    ``dlog`` take one row.
    """

    __slots__ = ("a", "alpha", "beta")

    def __init__(self, a, alpha, beta):
        self.a = np.asarray(a, dtype=float)
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)

    @property
    def a_max(self):
        """Largest pole coefficient of each row."""
        return np.max(np.where(self.alpha < 0.0, self.a, -np.inf), axis=-1,
                      initial=-np.inf)

    @property
    def mean(self):
        return (-np.einsum("...j,...j->...", self.alpha, self.a)
                - self.beta.sum(axis=-1))

    def log_mgf(self, s):
        s = np.asarray(s)
        d = 1.0 + np.multiply.outer(s, self.a)
        if np.any(np.abs(d) < 1e-300):
            raise PoleHit("MGF evaluated at a pole")
        frac = np.multiply.outer(s, self.beta) / d
        return np.log(d) @ self.alpha + frac.sum(axis=-1)

    def dlog(self, s):
        with np.errstate(over="ignore"):
            d = 1.0 + self.a * s
            return float(np.dot(self.alpha, self.a / d)
                         + np.sum(self.beta / d ** 2))


@dataclass(frozen=True)
class MomentReport:
    mean: float
    variance: float
    components: dict


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
    comp = {
        "noise_speckle": (1.0 - q * q) / M,
        "clutter_texture": zeta * q * q / L,
        "target_fluctuation": target,
        "cross_noise": 2.0 * S * (1.0 - q) / M,
        "cross_clutter": 2.0 * S * q / N,
    }
    return MomentReport(1.0 + S, sum(comp.values()), comp)


def compound_log_mgf(params: ScenarioParams, s, rule,
                     scheme: Scheme = Scheme.EFFECTIVE,
                     ctx: ScenarioContext | None = None):
    """ln of the texture-averaged MGF: ln sum_l w_l M(s; u_l)."""
    if ctx is None:
        ctx = ScenarioContext(params)
    acc = 0.0
    for u, w in zip(rule.nodes, rule.weights):
        mgf = speckle_coeffs(params, u, scheme, ctx)
        acc = acc + w * np.exp(mgf.log_mgf(s))
    return np.log(acc)


def cgf_moment_check(params: ScenarioParams, order: int = 32,
                     h: float = 1e-4) -> tuple[float, float]:
    """Mean and variance from centered finite differences of the compound CGF.

    One Richardson extrapolation step (h and h/2) is applied to both the
    first and second derivative at the origin.
    """
    from .texture import gamma_texture_rule  # deferred: texture imports us

    rule = gamma_texture_rule(params.nu, order)
    ctx = ScenarioContext(params)

    def K(s):
        return float(compound_log_mgf(params, s, rule, Scheme.EFFECTIVE, ctx))

    def d1(step):
        return (K(step) - K(-step)) / (2.0 * step)

    def d2(step):
        return (K(step) + K(-step)) / (step * step)

    mean = -(4.0 * d1(h / 2) - d1(h)) / 3.0
    var = (4.0 * d2(h / 2) - d2(h)) / 3.0
    return mean, var


def mgf_fully_correlated(params: ScenarioParams, u: float, s,
                         ctx: ScenarioContext | None = None):
    """Closed-form MGF for a fully correlated target (C_s all ones).

    prod(1 + aq_m s)^-1 * [1 + (S/kappa) sum_m b_m s/(1 + aq_m s)]^-kappa,
    valid for any finite kappa; agrees with the rational effective form.
    """
    if not params.spec_s.is_all_ones:
        raise InvalidScenario("fully-correlated form requires C_s = all ones")
    if params.steady:
        raise InvalidScenario("use steady_coeffs for the steady target")
    if ctx is None:
        ctx = ScenarioContext(params)
    aq = (1.0 - params.q + params.q * u * ctx.gamma_c) / params.M
    b = ctx.b_weights
    denom = 1.0 + aq * s
    if np.any(np.abs(denom) < 1e-300):
        raise PoleHit("MGF evaluated at a pole")
    det_part = np.sum(np.log(denom))
    core = 1.0 + (params.S / params.kappa) * np.sum(b * s / denom)
    if isinstance(core, complex) or np.iscomplexobj(core):
        return np.exp(-det_part) * np.exp(-params.kappa * cmath.log(core))
    return math.exp(-det_part) * core ** (-params.kappa)


def _log_cosh(z):
    z = np.asarray(z, dtype=complex)
    flip = np.where(z.real < 0, -z, z)
    return flip + np.log(1.0 + np.exp(-2.0 * flip)) - math.log(2.0)


def mgf_first_principles_steady(params: ScenarioParams, u: float, s,
                                ctx: ScenarioContext | None = None,
                                target_rotation: str = "limit"):
    """Quadrature-level steady-target MGF in the pairwise cosh approximation.

    Differs from the kappa -> inf effective MGF by the factor
    prod_{i<j} cosh^2((S/M) A_ij) with A = L_s N(s) L_s^T, which vanishes
    identically for a fully correlated target.  ``target_rotation`` picks the
    loading convention for a degenerate (uncorrelated) target spectrum.

    The product averages each pair's sign product Y_i Y_j as if the pairs
    were independent, which they are not once M > 2 (Y_1 Y_2 and Y_2 Y_3
    fix Y_1 Y_3).  It is exact only for M <= 2 or a diagonal A, and a
    pairwise approximation otherwise.  In the worst case (q=1, fully
    correlated clutter, M=10, S=5) it falls below the MGF enumerated over
    the 2^M sign patterns by a relative 9e-5 at s=1 and 4e-3 at s=2.5 under
    ``limit``, and by 4e-3 and 0.25 under ``identity``.  Use an enumerated
    law, not this product, as an exact reference.
    """
    if ctx is None:
        ctx = ScenarioContext(params)
    M, S, q = params.M, params.S, params.q
    aq = (1.0 - q + q * u * ctx.gamma_c) / M
    denom = 1.0 + aq * s
    if np.any(np.abs(denom) < 1e-300):
        raise PoleHit("MGF evaluated at a pole")
    d = s / denom
    V = ctx.eig_c.rotation @ ctx.fp_loading(target_rotation).T
    trace = np.sum(d * np.sum(V * V, axis=1))
    A = V.T @ (d[:, None] * V)
    i, j = np.triu_indices(M, k=1)
    cosh_part = 2.0 * np.sum(_log_cosh((S / M) * A[i, j]))
    val = -np.sum(np.log(denom)) - (S / M) * trace + cosh_part
    return np.exp(val)


def worst_case_mgf(S: float, M: int, s):
    """Steady-target MGF at q=1, fully correlated clutter, uncorrelated phases:

    (1+s)^-1 exp(-(1-1/M) S s) exp(-(S/M) s/(1+s)) cosh^{M(M-1)}((S/M^2) s^2/(1+s)).

    This is ``mgf_first_principles_steady`` under the ``identity`` target
    rotation, so it carries the same pairwise cosh approximation: exact for
    M <= 2, and at M=10, S=5 below the enumerated MGF by a relative 4e-3
    at s=1 and 0.25 at s=2.5.
    """
    s = np.asarray(s) if np.ndim(s) else s
    base = -np.log(1.0 + s) - (1.0 - 1.0 / M) * S * s \
        - (S / M) * s / (1.0 + s)
    cosh_arg = (S / (M * M)) * s * s / (1.0 + s)
    return np.exp(base + M * (M - 1) * _log_cosh(cosh_arg))


def swerling0_survival(v, S: float, M: int):
    """M-pulse steady-target (Rician) survival of the normalized average."""
    v = np.asarray(v, dtype=float)
    two_mv = 2.0 * M * np.clip(v, 0.0, None)
    if S == 0.0:
        out = gammaincc(M, M * np.clip(v, 0.0, None))
    else:
        out = ncx2.sf(two_mv, 2 * M, 2.0 * M * S)
    return out if out.ndim else float(out)


def effsw0_survival(v, S: float, M: int):
    """Shifted single-pulse Rician survival: the worst-case effective model.

    F(v) = Fsw0(v - (1 - 1/M) S; S/M, 1), equal to 1 below the shift.
    """
    v = np.asarray(v, dtype=float)
    shifted = v - (1.0 - 1.0 / M) * S
    out = np.where(shifted <= 0.0, 1.0,
                   swerling0_survival(np.clip(shifted, 0.0, None), S / M, 1))
    return out if out.ndim else float(out)
