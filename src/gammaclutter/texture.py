"""Compound-clutter texture averaging.

The compound survival function is the texture expectation of the speckle
survival, F(v) = <F_spk(v; S, qU)>_U, evaluated with a Gaussian quadrature
rule exact against the unit-mean gamma weight of shape nu.  Nodes and
weights come from the Golub-Welsch eigenproblem of the generalized-Laguerre
Jacobi matrix (alpha = nu - 1) under the change of variable t = nu * u,
solved by numpy's dense symmetric ``eigh``.
The sum skips the light last nodes whose total weight is at most 2^-53 F,
which cannot move F by more than an ulp (``_texture_sum``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import saddlepoint
from .errors import (DegenerateV, GammaClutterError, InvalidScenario,
                     InvalidShape, NoConvergence, OrderTooLarge,
                     check_integer)
from .mgf_core import ScenarioContext, ScenarioParams, Scheme, pole_table

MAX_ORDER = 256
HEAVY_TAIL_NU = 0.5
HEAVY_TAIL_ORDER = 128
# Largest power level an expanding tail search may reach.
V_SEARCH_MAX = 1e6
# Survival scale above which one pass of the texture sum suffices; see
# _texture_sum.
F_FLOOR = 2.0 ** -30
# Survival down to which survival_interpolator's grid reaches.
SF_FLOOR = 1e-9
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
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) \
            or order < 1:
        raise InvalidShape(f"texture order {order!r} must be an integer >= 1")
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
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                                + np.diag(off, -1))
    weights = vecs[0] ** 2
    weights = weights / weights.sum()
    return TextureRule(vals / nu, weights, order, nu)


def _texture_sum(v, S, params, method, rule, ctx, table=None):
    """Texture average F = sum_l w_l F_spk(v[i]; S[i], u_l) at every point i
    (v and S broadcast against each other), clipped to [0, 1], and its
    slope d ln F/dv.

    Nodes ascend in u, so the light ones come last, and a suffix of nodes
    whose weights sum to at most 2^-53 F cannot move F by an ulp: it is not
    inverted.  The first pass inverts the nodes whose suffix weight
    tail[j] = sum_{l>=j} w_l exceeds 2^-53 F_FLOOR; a point whose sum falls
    below F_FLOOR gets one more pass over the later nodes with tail[j] >
    2^-53 times that sum, so the bound holds in the far tail too, where the
    light nodes dominate.

    The slope needs no inversion: by the envelope theorem a node's tail
    integral T_l (F_l right of its mean, 1 - F_l left of it) has
    d ln T_l/dv ~ s0_l - 1/v at its saddle s0_l (Daniels, Ann. Math. Stat.
    25, 1954; Lugannani & Rice, Adv. Appl. Prob. 12, 1980).

    The finite-kappa effective model at S > 0 decomposes its aggregated
    matrix at every pair it inverts (the cost the commuting approximations
    exist to avoid), so each pass builds a table of its own pairs, as it
    does where S varies over the points; otherwise (S = 0 leaves no
    aggregated matrix) one row per node serves every point and pass, and
    a caller summing at one S again and again may pass that ``table``.
    """
    if rule.nu != params.nu:
        raise InvalidScenario(f"rule nu={rule.nu} != scenario nu={params.nu}")
    v, S = np.broadcast_arrays(np.atleast_1d(np.asarray(v, dtype=float)),
                               np.asarray(S, dtype=float))
    if v.size == 0:
        return np.zeros(0), np.zeros(0)
    n = rule.order
    per_pair = ((method.scheme is Scheme.EFFECTIVE and not params.steady
                 and S[0] != 0.0) or np.any(S != S[0]))
    if table is None and not per_pair:
        table = pole_table(params, np.repeat(S[:1], n), rule.nodes,
                           method.scheme, ctx)
    tail = np.cumsum(rule.weights[::-1])[::-1]
    vals, s0 = np.zeros((v.size, n)), np.zeros((v.size, n))
    done = np.zeros(vals.shape, dtype=bool)
    F = np.full(v.size, F_FLOOR)
    for _ in range(2):
        todo = (tail > 2.0 ** -53 * np.minimum(F, F_FLOOR)[:, None]) & ~done
        pts, nodes = np.nonzero(todo)
        if pts.size:
            if per_pair:
                table = pole_table(params, S[pts], rule.nodes[nodes],
                                   method.scheme, ctx)
            saddles = np.zeros(pts.size)
            try:
                vals[todo] = saddlepoint.survival_pairs(
                    v[pts], table, np.arange(pts.size) if per_pair else nodes,
                    method.integrator, saddles)
            except GammaClutterError as exc:
                i = getattr(exc, "pair", None)
                if i is not None:
                    exc.args = (f"{exc.args[0] if exc.args else exc} "
                                f"[at S={S[pts[i]]}, power level "
                                f"v={v[pts[i]]}, texture node "
                                f"u={rule.nodes[nodes[i]]}]",)
                raise
            s0[todo] = saddles
            done |= todo
            F = vals @ rule.weights
    # dF_l/dv = +-T_l (s0_l - 1/v); s0 = 0: not summed, or F_l = 1 exactly
    T = np.where(s0 < 0.0, vals, np.where(s0 > 0.0, vals - 1.0, 0.0))
    dF = (T * (s0 - 1.0 / v[:, None])) @ rule.weights
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.clip(F, 0.0, 1.0), dF / F


def compound_survival(v: float, params: ScenarioParams, method="eff-sdp",
                      rule: TextureRule | None = None,
                      ctx: ScenarioContext | None = None) -> float:
    """Texture-averaged survival probability at power level v."""
    return float(survival_curve([v], params, method, rule, ctx)[0])


def survival_curve(v_grid, params: ScenarioParams, method="eff-sdp",
                   rule=None, ctx=None) -> np.ndarray:
    """compound_survival over a grid, in one batched inversion (and one
    more for levels whose survival is below F_FLOOR).  The rule defaults to
    gamma_texture_rule(params.nu); a rule for another nu raises
    InvalidScenario, and a non-finite power level DegenerateV."""
    if isinstance(method, str):
        method = Method.parse(method)
    if rule is None:
        rule = gamma_texture_rule(params.nu)
    if ctx is None:
        ctx = ScenarioContext(params)
    v_grid = np.atleast_1d(np.asarray(v_grid, dtype=float))
    out = np.ones(v_grid.size)
    pos = (v_grid > 0.0) | ~np.isfinite(v_grid)
    out[pos] = _texture_sum(v_grid[pos], params.S, params, method, rule,
                            ctx)[0]
    return out


class SurvivalInterpolator:
    """Monotone log-survival interpolant of a compound survival curve.

    Evaluating the saddle-point survival at every MC sample is wasteful; a
    PCHIP fit of ln F on a dense grid reproduces it to ~1e-8 and evaluates
    vectorized.  Beyond the grid the exponential tail is extended with the
    final slope.  A non-finite power level raises DegenerateV.
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
        if not np.all(np.isfinite(v)):
            raise DegenerateV("power level v must be finite")
        inside = np.clip(v, 0.0, self.v_max)
        out = np.exp(self._pchip(inside))
        tail = self._tail_value + self._tail_slope * (v - self.v_max)
        out = np.where(v > self.v_max, np.exp(tail), out)
        return np.where(v <= 0.0, 1.0, out)


def _floor_rung(params, method, rule, ctx) -> float:
    """The interpolator's grid end; see survival_interpolator."""
    rungs = [1.0 + params.S]
    while rungs[-1] * 1.4 <= V_SEARCH_MAX:
        rungs.append(rungs[-1] * 1.4)
    rungs = np.array(rungs)
    F, slope = _texture_sum(rungs[:1], params.S, params, method, rule, ctx)
    if F[0] <= SF_FLOOR:
        return float(rungs[0])
    a, b = 0, None      # highest rung above the floor, lowest one at/below
    fa, fb, chord = F[0], None, False   # F there; chord pick made
    while b != a + 1:
        if b is not None and chord:
            k = np.arange(a + 1, b)
        elif b is not None:
            # the chord of ln F from rung a to rung b picks a pair between
            chord, la = True, math.log(fa)
            lb = math.log(fb) if fb > 0.0 else -math.inf
            cross = rungs[a] + ((rungs[b] - rungs[a])
                                * (math.log(SF_FLOOR) - la) / (lb - la))
            top = a + 1 + int(np.searchsorted(rungs[a + 1:b], cross))
            k = np.arange(max(a + 1, top - 1), min(top, b - 1) + 1)
        elif a == rungs.size - 1:
            raise NoConvergence(f"survival stays above {SF_FLOOR:g} up to "
                                f"v={V_SEARCH_MAX:g}")
        else:
            cross = rungs[a]
            if slope[-1] < 0.0:
                cross += (math.log(SF_FLOOR) - math.log(F[-1])) / slope[-1]
            top = min(a + 1 + int(np.searchsorted(rungs[a + 1:], cross)),
                      rungs.size - 1)
            k = np.arange(max(a + 1, top - 1), top + 1)
        F, slope = _texture_sum(rungs[k], params.S, params, method, rule,
                                ctx)
        below = np.flatnonzero(F <= SF_FLOOR)
        if below.size == 0:
            a, fa = int(k[-1]), F[-1]
            continue
        b, fb = int(k[below[0]]), F[below[0]]
        if below[0]:
            a, fa = b - 1, F[below[0] - 1]
    return float(rungs[b])


def survival_interpolator(params: ScenarioParams, method="eff-sdp",
                          n_points: int = 400,
                          rule: TextureRule | None = None
                          ) -> SurvivalInterpolator:
    """Build a fast survival callable covering survival down to SF_FLOOR.

    The grid ends at the first rung of the ladder (1 + S) 1.4^k, each rung
    built by repeated ``*= 1.4``, whose survival is at most SF_FLOOR.  The
    rungs are not walked one by one: from the highest rung known above the
    floor, the tangent of ln F (its slope comes with F from
    ``_texture_sum``) picks the first rung at or past its crossing of
    ln SF_FLOOR, and that rung and the one before it are summed in one
    call.  The end is accepted only as F(rung k-1) > SF_FLOOR >= F(rung k):
    a tangent that stops short (convex K tails) is taken again from the new
    highest rung.  After one that overshoots (concave gamma tails), the
    chord of ln F from the highest rung above the floor to the lowest one
    at or below it picks a pair of rungs in the same way, and only when
    that pair does not confirm the end are the rungs still between summed
    in one call.  The README's scenario takes two texture sums.  No rung
    above V_SEARCH_MAX is tried, and NoConvergence is raised when every
    rung is above the floor.
    """
    check_integer("n_points", n_points, 2)
    if isinstance(method, str):
        method = Method.parse(method)
    if rule is None:
        rule = gamma_texture_rule(params.nu)
    ctx = ScenarioContext(params)
    hi = _floor_rung(params, method, rule, ctx)
    grid = np.linspace(0.0, hi, n_points)
    vals = survival_curve(grid[1:], params, method, rule, ctx)
    log_sf = np.concatenate(([0.0], np.log(np.clip(vals, 1e-300, 1.0))))
    # enforce the monotone premise (saddle noise can tie adjacent points)
    log_sf = np.minimum.accumulate(log_sf)
    return SurvivalInterpolator(grid, log_sf)
