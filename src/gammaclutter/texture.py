"""Compound-clutter texture averaging and the contour-integration oracle.

The compound survival function is the texture expectation of the speckle
survival, F(v) = <F_spk(v; S, qU)>_U, evaluated with a Gaussian quadrature
rule exact against the unit-mean gamma weight of shape nu.  Nodes and
weights come from the Golub-Welsch eigenproblem of the generalized-Laguerre
Jacobi matrix (alpha = nu - 1) under the change of variable t = nu * u.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import saddlepoint
from .errors import (
    ContourTooClose,
    GammaClutterError,
    InvalidShape,
    NoConvergence,
    OrderTooLarge,
)
from .mgf_core import (
    ScenarioContext,
    ScenarioParams,
    Scheme,
    speckle_coeffs,
)

MAX_ORDER = 256
HEAVY_TAIL_NU = 0.5
HEAVY_TAIL_ORDER = 128
# Largest power level an expanding tail search may reach.
V_SEARCH_MAX = 1e6
# Step halvings of the contour oracle's trapezoid rule.
_ORACLE_HALVINGS = 12
_METHOD_NAMES = ("eff-sdp", "eff-sp", "dmg-sdp", "dmg-sp", "diag-sdp",
                 "diag-sp")


@dataclass(frozen=True)
class TextureRule:
    """Quadrature nodes/weights for the unit-mean gamma texture density."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    nu: float


@dataclass(frozen=True)
class Method:
    """Coefficient scheme + integrator selection, e.g. 'eff-sdp'."""

    scheme: Scheme
    integrator: str     # "sdp" | "sp"

    @staticmethod
    def parse(name: str) -> "Method":
        try:
            scheme_name, integ = name.lower().split("-")
            scheme = {"eff": Scheme.EFFECTIVE, "dmg": Scheme.DMG,
                      "diag": Scheme.DIAGONAL}[scheme_name]
            if integ not in ("sdp", "sp"):
                raise KeyError(integ)
        except (ValueError, KeyError):
            raise ValueError(f"unknown method '{name}'; expected one of "
                             f"{', '.join(_METHOD_NAMES)}") from None
        return Method(scheme, integ)

    @property
    def name(self) -> str:
        return f"{self.scheme.value}-{self.integrator}"


ALL_METHODS = tuple(Method.parse(n) for n in _METHOD_NAMES)


def gamma_texture_rule(nu: float, order: int = 32) -> TextureRule:
    """Gaussian quadrature of the given order for the gamma texture of shape nu.

    Exact for polynomials up to degree 2*order - 1 against
    f(u) = nu^nu u^(nu-1) e^(-nu u) / Gamma(nu).  nu = inf degenerates to a
    single unit node.  Shapes below 0.5 converge slowly, so the order is
    raised automatically there.
    """
    if not nu > 0:
        raise InvalidShape(f"texture shape nu {nu} must be positive")
    if order < 1:
        raise InvalidShape(f"quadrature order {order} must be >= 1")
    if nu == math.inf:
        return TextureRule(np.ones(1), np.ones(1), 1, nu)
    if nu < HEAVY_TAIL_NU and order < HEAVY_TAIL_ORDER:
        warnings.warn(f"heavy-tailed texture (nu={nu}); raising quadrature "
                      f"order to {HEAVY_TAIL_ORDER}", stacklevel=2)
        order = HEAVY_TAIL_ORDER
    if order > MAX_ORDER:
        raise OrderTooLarge(f"order {order} exceeds guard {MAX_ORDER}")
    alpha = nu - 1.0
    k = np.arange(order, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    vals, vecs = eigh_tridiagonal(diag, off)
    weights = vecs[0] ** 2
    weights = weights / weights.sum()
    return TextureRule(vals / nu, weights, order, nu)


def _node_survival(v_grid, params, method, rule, ctx, order):
    """Speckle survival at every (power level, texture node) pair.

    Returns an array of shape (len(v_grid), rule.order) from one batched
    inversion.  The finite-kappa effective model builds its node MGFs once
    per pair, so it decomposes its aggregated matrix at every power level
    (the cost the commuting approximations exist to avoid); the other
    schemes and the steady target build theirs once per node.
    """
    v_grid = np.asarray(v_grid, dtype=float)
    n = rule.order
    per_pair = method.scheme is Scheme.EFFECTIVE and not params.steady
    mgfs = [speckle_coeffs(params, u, method.scheme, ctx)
            for _ in range(v_grid.size if per_pair else 1)
            for u in rule.nodes]
    v = np.repeat(v_grid, n)
    rows = np.arange(v.size) % len(mgfs)
    try:
        vals = saddlepoint.survival_pairs(v, mgfs, rows, method.integrator,
                                          order)
    except GammaClutterError as exc:
        i = getattr(exc, "pair", None)
        if i is not None:
            exc.args = (f"{exc.args[0] if exc.args else exc} "
                        f"[at power level v={v[i]}, texture node "
                        f"u={rule.nodes[i % n]}]",)
        raise
    return vals.reshape(v_grid.size, n)


def compound_survival(v: float, params: ScenarioParams, method="eff-sdp",
                      rule: TextureRule | None = None,
                      ctx: ScenarioContext | None = None,
                      texture_order: int = 32,
                      tau_order: int = saddlepoint.DEFAULT_TAU_ORDER) -> float:
    """Texture-averaged survival probability at power level v."""
    return float(survival_curve([v], params, method, rule, ctx,
                                texture_order, tau_order)[0])


def survival_curve(v_grid, params: ScenarioParams, method="eff-sdp",
                   rule=None, ctx=None, texture_order=32,
                   tau_order=saddlepoint.DEFAULT_TAU_ORDER) -> np.ndarray:
    """compound_survival over a grid, in one batched inversion."""
    if isinstance(method, str):
        method = Method.parse(method)
    if rule is None:
        rule = gamma_texture_rule(params.nu, texture_order)
    if ctx is None:
        ctx = ScenarioContext(params)
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    out = np.ones(v_grid.size)
    pos = v_grid > 0.0
    vals = _node_survival(v_grid[pos], params, method, rule, ctx, tau_order)
    out[pos] = np.clip(vals @ rule.weights, 0.0, 1.0)
    return out


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


class SurvivalInterpolator:
    """Monotone log-survival interpolant of a compound survival curve.

    Evaluating the saddle-point survival at every MC sample is wasteful; a
    PCHIP fit of ln F on a dense grid reproduces it to ~1e-8 and evaluates
    vectorized.  Beyond the grid the exponential tail is extended with the
    final slope.
    """

    def __init__(self, v_grid: np.ndarray, log_sf: np.ndarray):
        from scipy.interpolate import PchipInterpolator
        self.v_max = float(v_grid[-1])
        self._pchip = PchipInterpolator(v_grid, log_sf, extrapolate=False)
        self._tail_value = float(log_sf[-1])
        self._tail_slope = float((log_sf[-1] - log_sf[-2])
                                 / (v_grid[-1] - v_grid[-2]))

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        inside = np.clip(v, 0.0, self.v_max)
        out = np.exp(self._pchip(inside))
        tail = self._tail_value + self._tail_slope * (v - self.v_max)
        out = np.where(v > self.v_max, np.exp(tail), out)
        return np.where(v <= 0.0, 1.0, out)


def survival_interpolator(params: ScenarioParams, method="eff-sdp",
                          sf_floor: float = 1e-9, n_points: int = 400,
                          texture_order: int = 32) -> SurvivalInterpolator:
    """Build a fast survival callable covering survival down to sf_floor."""
    if isinstance(method, str):
        method = Method.parse(method)
    rule = gamma_texture_rule(params.nu, texture_order)
    ctx = ScenarioContext(params)
    hi = 1.0 + params.S
    while compound_survival(hi, params, method, rule, ctx) > sf_floor:
        hi *= 1.4
        if hi > V_SEARCH_MAX:
            raise NoConvergence(f"survival stays above sf_floor={sf_floor} "
                                f"up to v={V_SEARCH_MAX:g}")
    grid = np.linspace(0.0, hi, n_points)
    vals = survival_curve(grid[1:], params, method, rule, ctx)
    log_sf = np.concatenate(([0.0], np.log(np.clip(vals, 1e-300, 1.0))))
    # enforce the monotone premise (saddle noise can tie adjacent points)
    log_sf = np.minimum.accumulate(log_sf)
    return SurvivalInterpolator(grid, log_sf)


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
