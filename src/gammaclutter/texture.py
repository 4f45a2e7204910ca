"""Compound-clutter texture averaging.

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
from .errors import (GammaClutterError, InvalidShape, NoConvergence,
                     OrderTooLarge)
from .mgf_core import ScenarioContext, ScenarioParams, Scheme, pole_table

MAX_ORDER = 256
HEAVY_TAIL_NU = 0.5
HEAVY_TAIL_ORDER = 128
# Largest power level an expanding tail search may reach.
V_SEARCH_MAX = 1e6
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


def _node_survival(v, S, params, method, rule, ctx,
                   order=saddlepoint.DEFAULT_TAU_ORDER):
    """Speckle survival at every (point, texture node) pair, point i being
    power level v[i] at signal-to-interference ratio S[i] (v and S
    broadcast against each other).

    Returns an array of shape (points, rule.order) from one pole table and
    one batched inversion.  The table has one row per (point, node) pair
    for the finite-kappa effective model, which so decomposes its
    aggregated matrix at every pair (the cost the commuting approximations
    exist to avoid), and wherever S varies over the points; otherwise one
    row per node serves every point.
    """
    v, S = np.broadcast_arrays(np.atleast_1d(np.asarray(v, dtype=float)),
                               np.asarray(S, dtype=float))
    n = rule.order
    if v.size == 0:
        return np.empty((0, n))
    per_pair = ((method.scheme is Scheme.EFFECTIVE and not params.steady)
                or np.any(S != S[0]))
    k = v.size if per_pair else 1
    table = pole_table(params, np.repeat(S[:k], n), np.tile(rule.nodes, k),
                       method.scheme, ctx)
    pairs = np.arange(v.size * n)
    try:
        vals = saddlepoint.survival_pairs(np.repeat(v, n), table,
                                          pairs % (k * n), method.integrator,
                                          order)
    except GammaClutterError as exc:
        i = getattr(exc, "pair", None)
        if i is not None:
            exc.args = (f"{exc.args[0] if exc.args else exc} "
                        f"[at S={S[i // n]}, power level v={v[i // n]}, "
                        f"texture node u={rule.nodes[i % n]}]",)
        raise
    return vals.reshape(v.size, n)


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
    vals = _node_survival(v_grid[pos], params.S, params, method, rule, ctx,
                          tau_order)
    out[pos] = np.clip(vals @ rule.weights, 0.0, 1.0)
    return out


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
