"""Independent reference computations used to freeze expected test values.

These deliberately avoid the library's own code paths: eigenvalues from the
characteristic polynomial, products in 50-digit decimal arithmetic, traces
by direct matrix multiplication, laws by enumerating every sign pattern,
survival by the Bromwich integral on a vertical contour (from the
library's MGF coefficients, independent of its saddle-point engine),
Monte Carlo returns with a plain normal target in place of the library's
two-sided Nakagami one, moments from finite differences of the compound
CGF, the closed-form fully correlated target MGF, the survival
interpolator's grid end by a rung-by-rung walk, and the steepest-descent
phase tau(z) of one saddle as an exact complex-log row (``ExactTauRow``,
apart from the engine's real-arithmetic rows), with the survival it gives
at 40 digits (``exact_tau_survival``).  The pairwise-cosh
steady-target MGFs are exact only for M <= 2 and serve as references there
alone.  Small closed forms the library does not need live here too: the
steady-target (Rician) laws, the saddle phase, d ln M/ds term by term, the
unmerged per-pulse coefficients and the tilt's peak survival difference.
"""

import cmath
import itertools
import math
from decimal import Decimal, getcontext

import mpmath
import numpy as np
from scipy.special import gammaincc
from scipy.stats import ncx2

from gammaclutter import fpm_mc
from gammaclutter.corrmodel import EigenSystem
from gammaclutter.errors import (GammaClutterError, InvalidCorrelation,
                                 InvalidScenario, NoConvergence, PoleHit)
from gammaclutter.mgf_core import (
    ScenarioContext,
    ScenarioParams,
    Scheme,
    _pulse_rows,
    pole_table,
    speckle_coeffs,
)
from gammaclutter.saddlepoint import solve_saddle
from gammaclutter.texture import (SF_FLOOR, V_SEARCH_MAX, compound_survival,
                                  gamma_texture_rule)

# Step halvings of the contour oracle's trapezoid rule.
_ORACLE_HALVINGS = 12


class ContourTooClose(GammaClutterError):
    """Bromwich contour abscissa too close to an MGF pole."""


def reconstruct(es: EigenSystem) -> np.ndarray:
    return es.rotation.T @ (es.eigenvalues[:, None] * es.rotation)


def gm_effective_looks_closed_form(rho: float, M: int) -> float:
    """Closed-form effective looks for the Gauss-Markov family.

    Equals M^2 / Tr{C^2} with [C]_mn = rho^|m-n|:

        M * [1 + (2 rho^2/(1-rho^2)) (1 - (1 - rho^(2M))/(M (1-rho^2)))]^-1

    with limits M at rho=0 and 1 at rho=1.
    """
    if not 0.0 <= rho <= 1.0:
        raise InvalidCorrelation(f"rho {rho} outside [0, 1]")
    if rho == 0.0:
        return float(M)
    if rho == 1.0:
        return 1.0
    x = rho * rho
    if 1.0 - x < 1e-6:
        # Direct trace sum avoids the cancellation in the rational form.
        k = np.arange(1, M)
        return M / (1.0 + 2.0 * np.sum((1.0 - k / M) * x ** k))
    inner = 1.0 - (1.0 - x ** M) / (M * (1.0 - x))
    return M / (1.0 + 2.0 * x / (1.0 - x) * inner)


def gm_matrix(rho: float, M: int) -> np.ndarray:
    """rho^|i-j| built index by index (no library calls)."""
    return np.array([[rho ** abs(i - j) for j in range(M)]
                     for i in range(M)], dtype=float)


def cubic_eigenvalues_gm3(rho: float) -> np.ndarray:
    """Eigenvalues of the 3x3 Gauss-Markov matrix from its characteristic
    cubic, solved with the trigonometric formula."""
    r, r2 = rho, rho * rho
    # det(C - x I) = -x^3 + c2 x^2 + c1 x + c0
    c2 = 3.0
    c1 = -(3.0 - 2.0 * r2 - r2 * r2)   # -(sum of 2x2 principal minors)
    det = 1.0 + 2.0 * r2 * r2 - r2 * r2 - 2.0 * r2  # det(C)
    # monic form x^3 - 3x^2 - c1' x - det = 0
    b = -c2
    c = -c1
    d = -det
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    m = 2.0 * math.sqrt(-p / 3.0)
    theta = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
    roots = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) - b / 3.0
             for k in range(3)]
    return np.sort(np.array(roots))


def decimal_rational_mgf(a, aq, kappa: int, s: float, digits: int = 50) -> float:
    """prod (1+aq s)^(kappa-1) / prod (1+a s)^kappa in high-precision decimal."""
    getcontext().prec = digits
    sd = Decimal(repr(float(s)))
    num = Decimal(1)
    for x in aq:
        num *= (Decimal(1) + Decimal(repr(float(x))) * sd) ** (kappa - 1)
    den = Decimal(1)
    for x in a:
        den *= (Decimal(1) + Decimal(repr(float(x))) * sd) ** kappa
    return float(num / den)


def trace_product(A: np.ndarray, B: np.ndarray) -> float:
    """Tr{A B} via the explicit O(M^3) product."""
    return float(np.trace(np.asarray(A) @ np.asarray(B)))


def gamma_moment(nu: float, k: int) -> float:
    """k-th raw moment of the unit-mean gamma: (nu)_k / nu^k."""
    out = 1.0
    for j in range(k):
        out *= (nu + j) / nu
    return out


class WorstCaseLaw:
    """Exact law of the averaged power in the quadrature-level worst case.

    Steady target (pure signs), fully correlated Rayleigh clutter, q = 1,
    no texture.  Per quadrature channel eta the clutter is g_eta * 1 and the
    target x_eta = Y_eta L_s with Y_eta in {-1, +1}^M, so with
    mu_eta = x_eta . 1 / M,

        Z = (S/2M) sum_eta (|x_eta|^2 - M mu_eta^2)
            + 1/2 chi'^2_2(S (mu_1^2 + mu_2^2)).

    The law is enumerated over the 2^M sign patterns of each channel and
    the pairs of channel patterns: a finite mixture of shifted, halved
    non-central chi-square(2) laws.  It neither samples nor uses the
    pairwise cosh product.  Atoms whose shift and mean square agree to
    nine decimal places are merged at their probability-weighted mean; this
    removes eigensolver noise (the ~1e-11 residue of the antisymmetric
    modes at rho_s = 1e-4, which are exactly orthogonal to 1).  At M = 10,
    S = 5 the merged survival is within 1e-15 of the unmerged one.
    """

    def __init__(self, loading: np.ndarray, S: float):
        L = np.asarray(loading, dtype=float)
        M = L.shape[0]
        X = np.array(list(itertools.product((1.0, -1.0), repeat=M))) @ L
        mu = X.sum(axis=1) / M
        c = (S / (2.0 * M)) * (np.sum(X * X, axis=1) - M * mu * mu)
        p = np.full(X.shape[0], 1.0 / X.shape[0])
        c, m2, p = _merge_atoms(c, mu * mu, p)
        shift, m2, p = _merge_atoms((c[:, None] + c[None, :]).ravel(),
                                    (m2[:, None] + m2[None, :]).ravel(),
                                    (p[:, None] * p[None, :]).ravel())
        self.shift = shift          # (S/2M) sum_eta (|x_eta|^2 - M mu_eta^2)
        self.lam = S * m2           # non-centrality S (mu_1^2 + mu_2^2)
        self.prob = p

    def sf(self, v):
        """P(Z > v), summed atom by atom."""
        v = np.asarray(v, dtype=float)
        x = 2.0 * (v[..., None] - self.shift)
        per_atom = np.where(x > 0.0,
                            ncx2.sf(np.clip(x, 0.0, None), 2, self.lam), 1.0)
        return per_atom @ self.prob

    def mgf(self, s: float) -> float:
        """E exp(-s Z) for real s > -1."""
        atoms = np.exp(-s * self.shift - self.lam * s / (2.0 * (1.0 + s)))
        return float(atoms @ self.prob) / (1.0 + s)

    def sf_table(self):
        """Piecewise-linear interpolant of sf on a grid that holds every
        atom's shift, where the density jumps.  Exact below the smallest
        shift; at M = 10, S = 5 it is within 1e-6 of ``sf`` elsewhere."""
        lo = self.shift.min()
        hi = self.shift.max() + 0.5 * ncx2.isf(1e-15, 2, self.lam.max())
        grid = np.union1d(np.linspace(lo, hi, 20001), self.shift)
        table = self.sf(grid)
        return lambda v: np.interp(v, grid, table)


def _merge_atoms(shift, m2, prob):
    key = np.round(np.column_stack([shift, m2]), 9)
    _, inv = np.unique(key, axis=0, return_inverse=True)
    inv = inv.ravel()
    p = np.bincount(inv, prob)
    return (np.bincount(inv, prob * shift) / p,
            np.bincount(inv, prob * m2) / p, p)


def _log_cosh(z):
    z = np.asarray(z, dtype=complex)
    flip = np.where(z.real < 0, -z, z)
    return flip + np.log(1.0 + np.exp(-2.0 * flip)) - math.log(2.0)


def target_context(params: ScenarioParams, convention: str
                   ) -> ScenarioContext:
    """A context whose target loading ``loading_s`` follows ``convention``
    when the target is exactly uncorrelated, where the loading is free.

    ``limit`` keeps the sampler's vanishing-correlation eigenbasis,
    ``identity`` is the fully phase-uncorrelated choice, and ``clutter``
    substitutes the clutter rotation, which brings the first-principles
    model into exact agreement with the effective one.  A correlated target
    keeps its own loading under every convention.
    """
    if convention not in ("limit", "identity", "clutter"):
        raise ValueError(f"unknown target loading convention {convention!r}")
    ctx = ScenarioContext(params)
    if convention != "limit" and params.spec_s.is_identity:
        ctx.loading_s = (np.eye(params.M) if convention == "identity"
                         else ctx.eig_c.rotation)
    return ctx


def mgf_first_principles_steady(params: ScenarioParams, u: float, s,
                                ctx: ScenarioContext | None = None):
    """Quadrature-level steady-target MGF in the pairwise cosh approximation.

    Differs from the kappa -> inf effective MGF by the factor
    prod_{i<j} cosh^2((S/M) A_ij) with A = L_s N(s) L_s^T, which vanishes
    identically for a fully correlated target.  L_s is ``ctx.loading_s``;
    ``target_context`` builds a ctx with another convention for a
    degenerate (uncorrelated) target spectrum.

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
    aq = (1.0 - q + q * u * ctx.eig_c.eigenvalues) / M
    denom = 1.0 + aq * s
    if np.any(np.abs(denom) < 1e-300):
        raise PoleHit("MGF evaluated at a pole")
    d = s / denom
    V = ctx.eig_c.rotation @ ctx.loading_s.T
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


def dlog(mgf, s: float) -> float:
    """d ln M / ds of one MGF row at real s, term by term."""
    with np.errstate(over="ignore"):
        d = 1.0 + mgf.a * s
        return float(np.dot(mgf.alpha, mgf.a / d) + np.sum(mgf.beta / d ** 2))


def phase(s, v: float, mgf, left: bool = False):
    """Helstrom phase ln M(s) - ln(-+s) + s v: the survival branch, or the
    CDF branch (ln s) when ``left``."""
    return mgf.log_mgf(s) - np.log(s if left else -s) + s * v


class ExactTauRow:
    """Saddle point and exact tau row of one (v, MGF row) pair:

        tau(z) = lam z + sum_j w_j ln(1 - c_j z) - sum_j g_j z / (1 - c_j z)

    with the ln(-+s) term (c = 1/(s0 v), w = 1) first in the row, built
    from the MGF and ``solve_saddle``'s s0 and evaluated with numpy's
    complex log.
    """

    def __init__(self, v: float, mgf):
        self.s0, self.r2, self.left = solve_saddle(v, mgf)
        d0 = 1.0 + mgf.a * self.s0
        g = -mgf.beta / (v * d0 * d0)
        # Zero-eigenvalue poles carry exactly linear tau terms; fold them
        # into the linear coefficient to avoid catastrophic cancellation.
        nz = mgf.a > 0.0
        self.c = np.concatenate(([1.0 / (self.s0 * v)],
                                 mgf.a[nz] / (v * d0[nz])))
        self.w = np.concatenate(([1.0], -mgf.alpha[nz]))
        self.g = np.concatenate(([0.0], g[nz]))
        self.lam = 1.0 - float(g[~nz].sum())

    @property
    def r1(self) -> float:
        """tau'(0), which is 1 at the saddle."""
        return float((1.0 - self.lam) + np.dot(self.w, self.c) + self.g.sum())

    def tau(self, z):
        """tau(z) = Phi(s0) - Phi(s0 - z/v), upper branch."""
        z = np.asarray(z, dtype=complex)
        one_m = 1.0 - np.multiply.outer(z, self.c)
        return (self.lam * z + np.log(one_m) @ self.w
                - (np.multiply.outer(z, self.g) / one_m).sum(axis=-1))

    def dtau(self, z):
        """tau'(z), the derivative of ``tau``."""
        one_m = 1.0 - np.multiply.outer(np.asarray(z, dtype=complex), self.c)
        return (self.lam - (self.c / one_m) @ self.w
                - (self.g / one_m ** 2).sum(axis=-1))


def exact_tau_survival(v: float, mgf, z_start, t, weights) -> float:
    """Survival of one (v, MGF row) pair, right tail, by a quadrature rule
    (nodes t, weights) of e^{-tau} Im z(tau), with every z(tau_k) solved
    at 40 digits by ``mpmath.findroot`` from z_start[k].

    The row is ``ExactTauRow``'s (c, w, g, lam) and the phase at the saddle
    is summed from the MGF's own (a, alpha, beta), both in mpmath, so the
    value carries no roundoff from the double-precision evaluator.
    """
    st = ExactTauRow(v, mgf)
    if st.left:
        raise ValueError("exact_tau_survival takes the right tail only")
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        row = [(mpf(c), mpf(w), mpf(g)) for c, w, g in zip(st.c, st.w, st.g)]
        lam, s0 = mpf(st.lam), mpf(st.s0)

        def tau(z):
            return lam * z + mpmath.fsum(
                w * mpmath.log(1 - c * z) - g * z / (1 - c * z)
                for c, w, g in row)

        phase0 = mpmath.fsum(
            mpf(al) * mpmath.log(1 + mpf(a) * s0)
            + mpf(be) * s0 / (1 + mpf(a) * s0)
            for a, al, be in zip(mgf.a, mgf.alpha, mgf.beta))
        phase0 += s0 * mpf(v) - mpmath.log(-s0)
        corr = mpmath.fsum(
            mpf(wk) * mpmath.findroot(lambda z: tau(z) - mpf(tk),
                                      mpmath.mpc(zk)).imag
            for tk, wk, zk in zip(t, weights, z_start))
        return float(mpmath.exp(phase0) / (mpmath.pi * v) * corr)


def delta_max(eps: float) -> float:
    """Peak difference sup_x |sf - sf^(1+eps)| = eps (1/(1+eps))^(1+1/eps)."""
    if eps == 0.0:
        return 0.0
    return eps * (1.0 / (1.0 + eps)) ** (1.0 + 1.0 / eps)


def _contour_envelope(tab, c, t):
    """Complex envelope M(s) / (-s) of the MGF table's rows at s = c + i t,
    with c one value per row and t an array (rows, points).

    ln(1 + a s) is formed in real arithmetic as ln|1 + a s| + i arg(1 + a s),
    several times cheaper than numpy's complex log, and ln M is summed pole
    by pole, in the order of the complex dot product it replaces.  The
    trapezoid sum cancels heavily where a far pole puts the contour far left
    (small texture values), so that order keeps the oracle within 4e-13 of
    its complex-log form there."""
    s = c[:, None] + 1j * t
    re, im, b = np.zeros(t.shape), np.zeros(t.shape), 0.0
    for a, alpha, beta in zip(tab.a.T, tab.alpha.T, tab.beta.T):
        x, y = 1.0 + (a * c)[:, None], a[:, None] * t
        re += alpha[:, None] * np.log(np.hypot(x, y))
        im += alpha[:, None] * np.arctan2(y, x)
        if tab.has_beta:
            b = b + beta[:, None] * (s / (x + 1j * y))
    with np.errstate(under="ignore"):
        return np.exp(re + 1j * im + b) / -s


def _bromwich_rows(v: float, tab, contour_frac: float, tol: float):
    """Survival at v of every row of an MGF table by direct numerical
    inversion on a vertical contour per row (see ``bromwich_oracle``); each
    envelope evaluation covers all rows still summing."""
    rows = tab.a.shape[0]
    pole = -1.0 / tab.a_max
    c = contour_frac * pole
    if np.any((np.abs(c - pole) < 1e-6) | (np.abs(c) < 1e-6)):
        raise ContourTooClose(f"contour Re s = {c} too close to a pole")

    def tail_correction(r, T, step):
        # int_T^inf h e^{ivt} dt ~ e^{ivT} [i h/v - h'/v^2 - i h''/v^3]
        d = np.maximum(step, 1e-3 * T)
        hm, h0, hp = _contour_envelope(
            tab.take(r), c[r], T[:, None] + d[:, None] * [-1.0, 0.0, 1.0]).T
        h1 = (hp - hm) / (2.0 * d)
        h2 = (hp - 2.0 * h0 + hm) / (d * d)
        series = 1j * h0 / v - h1 / v ** 2 - 1j * h2 / v ** 3
        return (np.exp(1j * T * v) * series).real, np.abs(h2) / v ** 3

    h_step = math.pi / (20.0 * (1.0 + v + np.abs(c)))
    out, prev = np.empty(rows), None
    live = np.arange(rows)
    chunk = 4096
    for _ in range(_ORACLE_HALVINGS):
        h = h_step[live]
        total = 0.5 * _contour_envelope(tab.take(live), c[live],
                                        np.zeros((live.size, 1)))[:, 0].real
        tail = np.zeros(live.size)
        t0 = h.copy()
        go = np.arange(live.size)             # rows still summing chunks
        while go.size:
            r = live[go]
            t = t0[go, None] + h[go, None] * np.arange(chunk)
            env = _contour_envelope(tab.take(r), c[r], t)
            vals = env.real * np.cos(t * v) - env.imag * np.sin(t * v)
            total[go] += vals.sum(axis=1)
            T = t[:, -1]
            small = np.max(np.abs(vals), axis=1) < 1e-16
            tail[go[small]] = 0.0
            rest = ~small
            tail[go[rest]], tail_err = tail_correction(r[rest], T[rest],
                                                       h[go[rest]])
            end = np.zeros(go.size, dtype=bool)
            end[rest] = (tail_err < 0.1 * tol) & (T[rest] * v > 20.0)
            total[go[end]] -= 0.5 * vals[end, -1]   # trapezoid endpoint
            t0[go] = T + h[go]
            go = go[~(small | end | (T > 1e6))]
        est = np.exp(c[live] * v) / math.pi * (h * total + tail)
        done = (np.zeros(live.size, dtype=bool) if prev is None
                else np.abs(est - prev) < tol)
        out[live[done]] = np.clip(est[done], 0.0, 1.0)
        live, prev = live[~done], est[~done]
        if live.size == 0:
            return out
        h_step[live] *= 0.5
    raise NoConvergence(f"contour oracle at v={v} did not reach tol={tol} "
                        f"in {_ORACLE_HALVINGS} step halvings")


def bromwich_oracle(v: float, params: ScenarioParams, u: float,
                    scheme: Scheme = Scheme.EFFECTIVE,
                    ctx: ScenarioContext | None = None,
                    contour_frac: float = 0.5,
                    tol: float = 1e-9) -> float:
    """Speckle survival by direct numerical inversion on a vertical contour.

    Integrates M(s) e^{sv} / (-s) along Re s = c with c placed a fixed
    fraction of the way from the origin to the nearest pole -1/a_max.
    Trapezoid in t = Im s with step halving; the truncated tail (the
    envelope decays only algebraically for small pulse counts) is summed by
    integration by parts of the oscillatory factor.  Independent of the
    steepest-descent machinery.
    """
    if v <= 0.0:
        return 1.0
    tab = speckle_coeffs(params, u, scheme, ctx).take([0])
    return float(_bromwich_rows(float(v), tab, contour_frac, tol)[0])


def compound_bromwich(v, params, rule=None, ctx=None,
                      scheme: Scheme = Scheme.EFFECTIVE) -> float:
    """Texture-averaged oracle survival (dual path to compound_survival):
    ``bromwich_oracle`` at every texture node, the nodes' envelopes
    evaluated together."""
    if rule is None:
        rule = gamma_texture_rule(params.nu)
    if ctx is None:
        ctx = ScenarioContext(params)
    if v <= 0.0:
        vals = np.ones(len(rule.nodes))
    else:
        vals = _bromwich_rows(float(v), pole_table(params, params.S,
                                                  rule.nodes, scheme, ctx),
                              0.5, 1e-9)
    return float(np.dot(rule.weights, vals))


def floor_rung_walk(params, method, rule, ctx) -> float:
    """The first rung of (1 + S) 1.4^k, k = 0, 1, ..., whose compound
    survival is at most SF_FLOOR, one scalar survival per rung; raises
    NoConvergence once the next rung passes V_SEARCH_MAX."""
    hi = 1.0 + params.S
    while compound_survival(hi, params, method, rule, ctx) > SF_FLOOR:
        hi *= 1.4
        if hi > V_SEARCH_MAX:
            raise NoConvergence(f"survival stays above {SF_FLOOR:g} up to "
                                f"v={V_SEARCH_MAX:g}")
    return hi


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
    aq = (1.0 - params.q + params.q * u * ctx.eig_c.eigenvalues) \
        / params.M
    b = ctx.b_weights
    denom = 1.0 + aq * s
    if np.any(np.abs(denom) < 1e-300):
        raise PoleHit("MGF evaluated at a pole")
    det_part = np.sum(np.log(denom))
    core = 1.0 + (params.S / params.kappa) * np.sum(b * s / denom)
    if isinstance(core, complex) or np.iscomplexobj(core):
        return np.exp(-det_part) * np.exp(-params.kappa * cmath.log(core))
    return math.exp(-det_part) * core ** (-params.kappa)


def simulate_gaussian_target_channel(config: fpm_mc.McConfig,
                                     stream: int = 0) -> np.ndarray:
    """kappa = 1 returns drawn with plain normal target components.

    Statistically identical to ``fpm_mc.simulate_returns`` at kappa = 1,
    whose target goes through the sign-times-root-gamma route; the Philox
    stream, the draw order and the clutter draws are the sampler's own.
    """
    p = config.params
    if p.kappa != 1:
        raise InvalidScenario("gaussian target channel requires kappa = 1")
    ctx = ScenarioContext(p)
    rng = fpm_mc._rng(config.seed, stream)
    n, M = config.n_samples, p.M
    U = np.ones(n) if p.nu == math.inf else rng.standard_gamma(p.nu, n) / p.nu
    total = np.zeros((n, 2, M))
    if p.q < 1.0:
        total += math.sqrt(1.0 - p.q) * rng.standard_normal((n, 2, M))
    if p.q > 0.0:
        Xc = fpm_mc._clutter_speckle(rng, n, M, p.spec_c, ctx,
                                     *fpm_mc._workspace(n, M)[:2])
        total += np.sqrt(p.q * U)[:, None, None] * Xc
    if p.S > 0.0:
        Xs = rng.standard_normal((n, 2, M)) @ ctx.loading_s
        total += math.sqrt(p.S) * Xs
    return np.sort(np.sum(total * total, axis=(1, 2)) / (2.0 * M))
