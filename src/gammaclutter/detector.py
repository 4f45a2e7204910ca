"""Detection thresholds and probability-of-detection curves.

The threshold v_b solves P_FA = F(v_b; S=0) on the null (interference only)
survival curve; the detection probability is then P_D(S) = F(v_b; S) at the
same threshold across a grid of signal-to-interference ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketFail, InvalidScenario
from .mgf_core import ScenarioContext, ScenarioParams
from .texture import Method, TextureRule, compound_survival, gamma_texture_rule
from .texture import _node_survival


@dataclass(frozen=True)
class DetectionCurve:
    sir_grid: np.ndarray      # linear S values
    pd: np.ndarray
    threshold: float
    pfa: float
    method: str


def _null_params(params: ScenarioParams) -> ScenarioParams:
    return replace(params, S=0.0)


def threshold_for_pfa(params: ScenarioParams, pfa: float, method="eff-sdp",
                      rule: TextureRule | None = None,
                      texture_order: int = 32,
                      rel_tol: float = 1e-3) -> float:
    """Threshold with |F(v_b; 0) - pfa| < rel_tol * pfa.

    Bracket expansion followed by a secant iteration on the log survival,
    which is near-linear in the exponential-like tail.
    """
    if not 0.0 < pfa <= 1.0:
        raise InvalidScenario(f"pfa {pfa} outside (0, 1]")
    if pfa == 1.0:
        return 0.0
    if isinstance(method, str):
        method = Method.parse(method)
    null = _null_params(params)
    if rule is None:
        rule = gamma_texture_rule(null.nu, texture_order)
    ctx = ScenarioContext(null)

    def log_sf(v):
        sf = compound_survival(v, null, method, rule, ctx)
        if sf <= 0.0:
            raise BracketFail(
                f"survival underflowed below pfa={pfa} at v={v}")
        return math.log(sf)

    target = math.log(pfa)
    n_fa = -math.log10(pfa)
    lo = 1.0                      # null mean; survival ~ 0.5 there
    hi = lo * (1.0 + 10.0 * n_fa / params.M)
    f_lo = log_sf(lo)
    if f_lo <= target:
        lo, f_lo = 1e-9, 0.0      # threshold below the mean (large pfa)
    f_hi = log_sf(hi)
    for _ in range(200):
        if f_hi <= target:
            break
        lo, f_lo = hi, f_hi
        hi *= 1.6
        f_hi = log_sf(hi)
    else:
        raise BracketFail(f"could not bracket pfa={pfa}")

    for _ in range(200):
        # secant step, clipped into the bracket
        denom = f_hi - f_lo
        v = hi - (f_hi - target) * (hi - lo) / denom if denom != 0 else \
            0.5 * (lo + hi)
        if not lo < v < hi:
            v = 0.5 * (lo + hi)
        f_v = log_sf(v)
        if abs(f_v - target) < math.log1p(rel_tol * 0.5):
            return v
        if f_v > target:
            lo, f_lo = v, f_v
        else:
            hi, f_hi = v, f_v
    raise BracketFail(f"threshold iteration failed to reach pfa={pfa}")


def pd_curve(params: ScenarioParams, pfa: float, sir_grid, method="eff-sdp",
             texture_order: int = 32) -> DetectionCurve:
    """P_D over an ascending grid of linear SIR values at fixed P_FA."""
    if isinstance(method, str):
        method = Method.parse(method)
    sir_grid = np.asarray(sir_grid, dtype=float)
    if np.any(np.diff(sir_grid) < 0):
        raise InvalidScenario("sir_grid must be sorted ascending")
    rule = gamma_texture_rule(params.nu, texture_order)
    v_b = threshold_for_pfa(params, pfa, method, rule)
    pd = np.ones_like(sir_grid)
    if v_b > 0.0:
        vals = _node_survival(v_b, sir_grid, params, method, rule,
                              ScenarioContext(params))
        pd = np.clip(vals @ rule.weights, 0.0, 1.0)
    return DetectionCurve(sir_grid, pd, v_b, pfa, method.name)


def db_to_linear(s_db):
    return 10.0 ** (np.asarray(s_db, dtype=float) / 10.0)


def linear_to_db(s):
    return 10.0 * np.log10(np.asarray(s, dtype=float))
