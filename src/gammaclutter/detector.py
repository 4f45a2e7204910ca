"""Detection thresholds, P_D curves and the run-time/accuracy benchmark.

The threshold v_b solves P_FA = F(v_b; S=0) on the null (interference only)
survival curve; the detection probability is then P_D(S) = F(v_b; S) at the
same threshold across a grid of signal-to-interference ratios.

One search solves F(v; S) = p at any S (``survival_quantile``): the
threshold is its S = 0 case, and the grid end of ``bench`` (each method's
curve timed and scored against eff-sdp's) its p = 1e-3 level at the drawn
S.  It is Newton's method on the log-odds ln F - ln(1 - F) in x = sqrt(v),
where gamma-like and K-distributed tails are near-linear.  Its slope is
d ln F/dv from the saddles the texture sum solves anyway, scaled by the
ratio of the last secant to the mean of the last two slopes.  Started at
the p quantile of the gamma law with the scenario's mean and variance, it
takes about three survival evaluations."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammainccinv

from .errors import BracketFail, InvalidScenario, NoConvergence
from .mgf_core import (ScenarioContext, ScenarioParams, analytic_moments,
                       pole_table, scenario)
from .texture import (ALL_METHODS, V_SEARCH_MAX, Method, TextureRule,
                      _texture_sum, gamma_texture_rule, survival_curve)

# Relative accuracy of the threshold search in P_FA.
PFA_REL_TOL = 1e-3


@dataclass(frozen=True)
class DetectionCurve:
    pd: np.ndarray            # at each SIR of pd_curve's grid
    threshold: float


def _gamma_quantile(params: ScenarioParams, p: float) -> float:
    """Upper-p quantile of the gamma law with the return's two moments."""
    mom = analytic_moments(params)
    scale = mom.variance / mom.mean
    return scale * gammainccinv(mom.mean / scale, p)


def survival_quantile(params: ScenarioParams, p: float, method="eff-sdp",
                      rule: TextureRule | None = None) -> float:
    """Level v with |F(v; params.S) - p| < PFA_REL_TOL * p.

    The Newton iterates keep a bracket of x = sqrt(v).  A step that leaves
    it, or that follows one which did not halve the residual, bisects it
    instead (doubles x while no point is below p; a level past
    V_SEARCH_MAX raises NoConvergence).  A bracket a few ulps wide means F
    jumps across p, as the sp survival does where a texture node switches
    tails, and raises BracketFail naming both sides.  At S = 0 the search builds one
    pole table for all its sums; at S > 0 each sum builds its own.
    """
    if not 0.0 < p <= 1.0:
        raise InvalidScenario(f"pfa {p} outside (0, 1]")
    if p == 1.0:
        return 0.0
    if isinstance(method, str):
        method = Method.parse(method)
    if rule is None:
        rule = gamma_texture_rule(params.nu)
    ctx = ScenarioContext(params)
    table = None if params.S else \
        pole_table(params, 0.0, rule.nodes, method.scheme, ctx)
    target, tol = math.log(p), math.log1p(PFA_REL_TOL * 0.5)
    goal = target - math.log1p(-p)

    def at(x):
        """F at v = x^2, its log-odds less goal and that one's x-slope."""
        F, slope = _texture_sum(x * x, params.S, params, method, rule, ctx,
                                table)
        F = float(F[0])
        if not 0.0 < F < 1.0:
            return F, math.copysign(math.inf, F - p), math.nan
        return (F, math.log(F / (1.0 - F)) - goal,
                2.0 * x * slope[0] / (1.0 - F))

    x_max = math.sqrt(V_SEARCH_MAX)
    x = math.sqrt(min(_gamma_quantile(params, p), V_SEARCH_MAX))
    lo, hi, F_lo, F_hi = 0.0, math.inf, 1.0, 0.0   # F(lo^2) > p > F(hi^2)
    x_p = f_p = g_p = math.nan
    for _ in range(100):
        if x > x_max:
            raise NoConvergence(f"{method.name} survival stays above {p} up "
                                f"to v={V_SEARCH_MAX:g}")
        F, f, g = at(x)
        if F > 0.0 and abs(math.log(F) - target) < tol:
            return x * x
        if f > 0.0:
            lo, F_lo = x, F
        else:
            hi, F_hi = x, F
        if hi - lo <= 4.0 * math.ulp(lo):
            raise BracketFail(f"survival jumps across pfa={p} between "
                              f"v={lo * lo!r} (F={F_lo}) and v={hi * hi!r} "
                              f"(F={F_hi})")
        with np.errstate(all="ignore"):
            r = (f - f_p) / (0.5 * (g + g_p) * (x - x_p))
            newton = float(x - f / (g * r if 0.5 < r < 2.0 else g))
        halved = not abs(f) > 0.5 * abs(f_p)
        x_p, f_p, g_p = x, f, g
        if hi == math.inf:
            x = newton if x < newton < 2.0 * x else 2.0 * x
        else:
            x = newton if lo < newton < hi and halved else 0.5 * (lo + hi)
    raise BracketFail(f"could not bracket pfa={p}" if hi == math.inf else
                      f"threshold iteration failed to reach pfa={p}")


def threshold_for_pfa(params: ScenarioParams, pfa: float, method="eff-sdp",
                      rule: TextureRule | None = None) -> float:
    """Threshold v_b with |F(v_b; 0) - pfa| < PFA_REL_TOL * pfa: the
    survival_quantile of the null (S = 0) scenario."""
    return survival_quantile(replace(params, S=0.0), pfa, method, rule)


def pd_curve(params: ScenarioParams, pfa: float, sir_grid, method="eff-sdp",
             rule: TextureRule | None = None) -> DetectionCurve:
    """P_D over an ascending grid of linear SIR values at fixed P_FA."""
    if isinstance(method, str):
        method = Method.parse(method)
    sir_grid = np.asarray(sir_grid, dtype=float)
    if not np.all((0.0 <= sir_grid) & (sir_grid < np.inf)):
        raise InvalidScenario("sir_grid must be finite and >= 0")
    if np.any(np.diff(sir_grid) < 0):
        raise InvalidScenario("sir_grid must be sorted ascending")
    if rule is None:
        rule = gamma_texture_rule(params.nu)
    v_b = threshold_for_pfa(params, pfa, method, rule)
    pd = np.ones_like(sir_grid)
    if v_b > 0.0:
        pd = _texture_sum(v_b, sir_grid, params, method, rule,
                          ScenarioContext(params))[0]
    return DetectionCurve(pd, v_b)


def bench(draws: int, grid_points: int = 100, M: int = 100, seed: int = 1,
          order: int | None = None) -> dict[str, np.ndarray]:
    """Seconds per curve and deviation from eff-sdp of every method.

    Each of the `draws` scenarios has M pulses, kappa = 2, rho_s = 0.95,
    rho_c = 0.75 and S ~ U(1, 10), q ~ U(0.5, 1), nu ~ U(1, 10), drawn in
    that order from default_rng(seed), and one texture rule of `order`.  A
    curve spans `grid_points` levels up to eff-sdp's 1e-3 survival_quantile
    and has a fresh ScenarioContext, so its time includes the fields it
    reads.  Returns {method name: (3, draws) array} of seconds, max |F - G|
    and max |F - G| / G, G being eff-sdp, whose deviations are NaN.
    """
    rng = np.random.default_rng(seed)
    table = {m.name: np.full((3, draws), np.nan) for m in ALL_METHODS}
    for k in range(draws):
        params = scenario(M=M, kappa=2, S=rng.uniform(1.0, 10.0),
                          q=rng.uniform(0.5, 1.0), nu=rng.uniform(1.0, 10.0),
                          rho_s=0.95, rho_c=0.75)
        rule = gamma_texture_rule(params.nu) if order is None else \
            gamma_texture_rule(params.nu, order)
        v_max = survival_quantile(params, 1e-3, "eff-sdp", rule)
        grid = np.linspace(0.0, v_max, grid_points + 1)[1:]
        for name, row in table.items():     # eff-sdp, the reference, first
            ctx = ScenarioContext(params)
            t0 = time.perf_counter()
            curve = survival_curve(grid, params, name, rule, ctx)
            row[0, k] = time.perf_counter() - t0
            if name == "eff-sdp":
                ref = curve
            else:
                dev = np.abs(curve - ref)
                row[1, k] = dev.max()
                row[2, k] = (dev / np.clip(ref, 1e-300, None)).max()
    return table


def db_to_linear(s_db):
    return 10.0 ** (np.asarray(s_db, dtype=float) / 10.0)
