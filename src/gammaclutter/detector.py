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
from .texture import (Method, TextureRule, _texture_sum, compound_survival,
                      gamma_texture_rule, survival_curve)

# Relative accuracy of the threshold search in P_FA.
PFA_REL_TOL = 1e-3


@dataclass(frozen=True)
class DetectionCurve:
    sir_grid: np.ndarray      # linear S values
    pd: np.ndarray
    threshold: float
    pfa: float
    method: str


def threshold_for_pfa(params: ScenarioParams, pfa: float, method="eff-sdp",
                      rule: TextureRule | None = None) -> float:
    """Threshold with |F(v_b; 0) - pfa| < PFA_REL_TOL * pfa.

    Bracket expansion followed by a secant iteration on the log survival,
    which is near-linear in the exponential-like tail.
    """
    if not 0.0 < pfa <= 1.0:
        raise InvalidScenario(f"pfa {pfa} outside (0, 1]")
    if pfa == 1.0:
        return 0.0
    if isinstance(method, str):
        method = Method.parse(method)
    null = replace(params, S=0.0)
    if rule is None:
        rule = gamma_texture_rule(null.nu)
    ctx = ScenarioContext(null)

    def log_of(sf):
        return math.log(sf) if sf > 0.0 else -math.inf

    def log_sf(v):
        return log_of(compound_survival(v, null, method, rule, ctx))

    target = math.log(pfa)
    n_fa = -math.log10(pfa)
    lo = 1.0                      # null mean; survival ~ 0.5 there
    hi = lo * (1.0 + 10.0 * n_fa / params.M)
    # both ends of the first bracket in one engine call
    sf_lo, sf_hi = survival_curve([lo, hi], null, method, rule, ctx)
    f_lo, f_hi = log_of(sf_lo), log_of(sf_hi)
    if f_lo <= target:
        lo, f_lo = 1e-9, 0.0      # threshold below the mean (large pfa)
    for _ in range(200):
        if f_hi > target:
            lo, f_lo = hi, f_hi
            hi *= 1.6
        elif f_hi > -math.inf:
            break
        elif lo < 0.5 * (lo + hi) < hi:   # F(hi) underflowed: bisect
            hi = 0.5 * (lo + hi)
        else:
            raise BracketFail(f"survival underflowed below pfa={pfa} "
                              f"at v={hi}")
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
        if abs(f_v - target) < math.log1p(PFA_REL_TOL * 0.5):
            return v
        if f_v > target:
            lo, f_lo = v, f_v
        else:
            hi, f_hi = v, f_v
    raise BracketFail(f"threshold iteration failed to reach pfa={pfa}")


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
                          ScenarioContext(params))
    return DetectionCurve(sir_grid, pd, v_b, pfa, method.name)


def db_to_linear(s_db):
    return 10.0 ** (np.asarray(s_db, dtype=float) / 10.0)
