"""Independent reference computations used to freeze expected test values.

These deliberately avoid the library's own code paths: eigenvalues from the
characteristic polynomial, products in 50-digit decimal arithmetic, traces
by direct matrix multiplication, laws by enumerating every sign pattern,
survival by the Bromwich integral on a vertical contour (from the
library's MGF coefficients, independent of its saddle-point engine).
"""

import itertools
import math
from decimal import Decimal, getcontext

import numpy as np
from scipy.stats import ncx2

from gammaclutter.errors import ContourTooClose, NoConvergence
from gammaclutter.mgf_core import (
    ScenarioContext,
    ScenarioParams,
    Scheme,
    speckle_coeffs,
)
from gammaclutter.texture import gamma_texture_rule

# Step halvings of the contour oracle's trapezoid rule.
_ORACLE_HALVINGS = 12


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
    mgf = speckle_coeffs(params, u, scheme, ctx)
    if v <= 0.0:
        return 1.0
    pole = -1.0 / mgf.a_max
    c = contour_frac * pole
    if abs(c - pole) < 1e-6 or abs(c) < 1e-6:
        raise ContourTooClose(f"contour Re s = {c} too close to a pole")

    def envelope(t):
        # complex envelope h(t) with integrand Re[h(t) e^{i t v}]
        s = c + 1j * np.asarray(t, dtype=float)
        with np.errstate(under="ignore"):
            return np.exp(mgf.log_mgf(s)) / (-s)

    def tail_correction(T, step):
        # int_T^inf h e^{ivt} dt ~ e^{ivT} [i h/v - h'/v^2 - i h''/v^3]
        d = max(step, 1e-3 * T)
        hm, h0, hp = envelope(np.array([T - d, T, T + d]))
        h1 = (hp - hm) / (2.0 * d)
        h2 = (hp - 2.0 * h0 + hm) / (d * d)
        series = 1j * h0 / v - h1 / v ** 2 - 1j * h2 / v ** 3
        return (np.exp(1j * T * v) * series).real, abs(h2) / v ** 3

    h_step = math.pi / (20.0 * (1.0 + v + abs(c)))
    prev = None
    for _ in range(_ORACLE_HALVINGS):
        total = 0.5 * envelope(np.array([0.0]))[0].real
        t0 = h_step
        chunk = 4096
        while True:
            t = t0 + h_step * np.arange(chunk)
            vals = (envelope(t) * np.exp(1j * t * v)).real
            total += vals.sum()
            T = float(t[-1])
            if np.max(np.abs(vals)) < 1e-16:
                tail = 0.0
                break
            tail, tail_err = tail_correction(T, h_step)
            if tail_err < 0.1 * tol and T * v > 20.0:
                total -= 0.5 * vals[-1]        # trapezoid endpoint weight
                break
            t0 = T + h_step
            if T > 1e6:
                break
        est = math.exp(c * v) / math.pi * (h_step * total + tail)
        if prev is not None and abs(est - prev) < tol:
            return float(min(max(est, 0.0), 1.0))
        prev = est
        h_step *= 0.5
    raise NoConvergence(f"contour oracle at v={v}, u={u} did not reach "
                        f"tol={tol} in {_ORACLE_HALVINGS} step halvings")


def compound_bromwich(v, params, rule=None, ctx=None, texture_order=32,
                      scheme: Scheme = Scheme.EFFECTIVE) -> float:
    """Texture-averaged oracle survival (dual path to compound_survival)."""
    if rule is None:
        rule = gamma_texture_rule(params.nu, texture_order)
    if ctx is None:
        ctx = ScenarioContext(params)
    vals = [bromwich_oracle(float(v), params, float(u), scheme, ctx)
            for u in rule.nodes]
    return float(np.dot(rule.weights, vals))
