"""Seeded workloads of the gammaclutter benchmark.

A workload turns a seed into an endless, deterministic sequence of rounds of
operations.  Every operation calls the package function that a CLI command
calls, with the arguments that command passes, and every output is checked:
against the outputs frozen in ``reference.json`` where the seed and sizes
have frozen outputs, and against invariants of the quantity otherwise.

- ``curve-m100``: what ``bench`` does per draw: one ``survival_curve`` per
  method, a fresh ``ScenarioContext`` each, M=100.
- ``pd-m10``: what ``pd`` does: one ``pd_curve`` per method over pd's
  default SIR grid, M=10.
- ``ks-m10``: what ``compare`` does: a ``survival_interpolator`` build and
  a ``ks_ensemble`` with a single worker, each round.

Scenario parameters follow a low-discrepancy (Kronecker) sequence whose
offset comes from the seed: every prefix of it covers the parameter ranges
more evenly than independent draws, so runs of different seeds see a
similar mix of cheap and expensive scenarios.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from gammaclutter import detector, fpm_mc, gof_stats, mgf_core, saddlepoint
from gammaclutter import texture
from gammaclutter.mgf_core import ScenarioContext, analytic_moments, scenario
from tracer import Target

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

METHODS = tuple(m.name for m in texture.ALL_METHODS)
SF_TOL = 1e-6           # criterion 2's oracle gate on survival values
PFA_REL_TOL = 1e-3      # threshold_for_pfa's promise |F(v_b) - pfa| < 1e-3 pfa
ORDER_TOL = 1e-12       # roundoff allowed in "non-increasing" / "non-decreasing"
KS_TABLE_POINTS = 400   # grid of the frozen survival table the ensembles use
PD_KAPPAS = (1, 2, math.inf)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark, smaller ones are for
    the self-test."""

    curve_points: int = 6        # survival values per curve; bench uses
                                 # 100, which takes 54 s per draw
    pd_sir_db: tuple = (0.0, 20.0, 41)  # lo, hi, points: pd's default
    ks_replicates: int = 50      # K per ensemble; compare uses 400, one
                                 # 13 s ensemble
    ks_samples: int = 10000      # n per replicate: compare's default
    interp_points: int = 50      # interpolator grid; compare uses 400,
                                 # one 22 s build
    trace_rounds: int = 2        # curve draws / ensembles in a traced run

    def as_json(self) -> dict:
        return json.loads(json.dumps(asdict(self)))


DEFAULT_SIZES = Sizes()


class CheckFailed(Exception):
    """An operation's output missed its check."""


@dataclass
class Op:
    """One timed operation.

    ``call`` does the work; ``view`` turns its result into plain floats
    (compared exactly between passes and frozen as the reference);
    ``check`` raises CheckFailed when the view is wrong.
    """

    kind: str
    key: str
    items: int
    call: Callable[[], Any]
    view: Callable[[Any], Any]
    check: Callable[[Any], None]


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _fail(msg):
    raise CheckFailed(msg)


def _check_survival(vals, ref):
    v = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
        _fail(f"survival outside [0, 1]: {v}")
    if np.any(np.diff(v) > ORDER_TOL):
        _fail(f"survival increases in v: {v}")
    if ref is not None:
        dev = float(np.max(np.abs(v - np.asarray(ref))))
        if dev > SF_TOL:
            _fail(f"survival off its frozen value by {dev:.3g}")


def _check_pfa(v_b, params, pfa, method):
    """|F(v_b; 0) - pfa| < 1e-3 pfa, the promise of threshold_for_pfa."""
    got = texture.compound_survival(v_b, replace(params, S=0.0), method)
    if not abs(got - pfa) < PFA_REL_TOL * pfa:
        _fail(f"threshold {v_b} gives P_FA {got}, wanted {pfa}")


def _spread(seed, count: int, dims: int) -> np.ndarray:
    """Point ``count`` in [0, 1)^dims of the Kronecker sequence with step
    phi^-1, ..., phi^-dims, where phi^(dims+1) = phi + 1, and a seeded
    offset."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    step = phi ** -np.arange(1.0, dims + 1)
    offset = np.random.default_rng(seed).random(dims)
    return (offset + count * step) % 1.0


class Workload:
    name = ""
    block = 1           # a timed run stops only at a multiple of this
    trace_rounds = 0    # rounds in the traced list; 0: sizes.trace_rounds

    def __init__(self, seed: int, sizes: Sizes, reference: dict):
        if seed < 0:
            raise ValueError(f"seed {seed} must be >= 0")
        self.seed = seed
        self.sizes = sizes
        # frozen outputs apply only to the sizes they were made with
        self.frozen = reference["sizes"] == sizes.as_json()
        seeds = reference["seeds"] if self.frozen else {}
        self.refs = seeds.get(str(seed), {}).get(self.name, {})
        self.trace_rounds = self.trace_rounds or sizes.trace_rounds

    def round(self, r: int) -> list[Op]:
        """The operations of round ``r``, built from the seed alone."""
        raise NotImplementedError

    def trace_ops(self) -> list[Op]:
        """The fixed operation list of a traced run (and of the frozen
        reference): the first rounds."""
        return [op for r in range(self.trace_rounds) for op in self.round(r)]


class CurveM100(Workload):
    """Seeded draws of the ``bench`` scenario, six survival curves each."""

    name = "curve-m100"

    def round(self, r):
        x = _spread(self.seed, r, 3)
        params = scenario(M=100, kappa=2, S=1.0 + 9.0 * x[0],
                          q=0.5 + 0.5 * x[1], nu=1.0 + 9.0 * x[2],
                          rho_s=0.95, rho_c=0.75)
        rule = texture.gamma_texture_rule(params.nu, 32)
        mom = analytic_moments(params)
        sd = math.sqrt(mom.variance)
        grid = np.linspace(max(mom.mean - sd, 0.25 * mom.mean),
                           mom.mean + 4.0 * sd, self.sizes.curve_points)
        ops = []
        for m in METHODS:
            key = f"{r}/{m}"
            ref = self.refs.get(key)
            ops.append(Op(
                m, key, grid.size,
                lambda m=m: texture.survival_curve(
                    grid, params, m, rule, ScenarioContext(params)),
                lambda out: [float(v) for v in out],
                lambda view, ref=ref: _check_survival(view, ref)))
        return ops


class PdM10(Workload):
    """README scenario at M=10 cycling kappa over {1, 2, inf}; six P_D
    curves per scenario."""

    name = "pd-m10"
    block = trace_rounds = len(PD_KAPPAS)

    def __init__(self, seed, sizes, reference):
        lo, hi, n = sizes.pd_sir_db
        self.sirs = detector.db_to_linear(np.linspace(lo, hi, int(n)))
        super().__init__(seed, sizes, reference)

    def round(self, r):
        cycle, j = divmod(r, self.block)
        x = _spread([self.seed, j], cycle, 1)[0]
        pfa = 10.0 ** (-4.0 - 4.0 * x)
        kappa = PD_KAPPAS[j]
        params = scenario(M=10, kappa=kappa, S=0.0,
                          q=0.5, nu=2.0, rho_c=0.75, rho_s=0.9)
        ops = []
        for m in METHODS:
            key = f"{r}/{m}"
            ops.append(Op(
                m, key, self.sirs.size,
                lambda m=m: detector.pd_curve(params, pfa, self.sirs, m),
                lambda c: {"threshold": float(c.threshold),
                           "pd": [float(v) for v in c.pd]},
                lambda view, m=m, ref=self.refs.get(key):
                    self._check(view, params, pfa, m, self.sirs, ref)))
        return ops

    @staticmethod
    def _check(view, params, pfa, method, sirs, ref):
        pd = np.asarray(view["pd"])
        if not np.all(np.isfinite(pd)) or pd.min() < 0.0 or pd.max() > 1.0:
            _fail(f"P_D outside [0, 1]: {pd}")
        if np.any(np.diff(pd) < -ORDER_TOL):
            _fail(f"P_D decreases in SIR: {pd}")
        _check_pfa(view["threshold"], params, pfa, method)
        if ref is None:
            return
        # A threshold may move inside its tolerance, so the frozen threshold
        # is checked on its own, which does not depend on the search, and
        # P_D is compared with its frozen values at the frozen threshold.
        v_ref = ref["threshold"]
        _check_pfa(v_ref, params, pfa, method)
        if abs(view["threshold"] - v_ref) > 1e-12 * v_ref:
            pd = [texture.compound_survival(
                      v_ref, replace(params, S=float(s)), method)
                  for s in sirs]
        dev = float(np.max(np.abs(np.asarray(pd) - np.asarray(ref["pd"]))))
        if dev > SF_TOL:
            _fail(f"P_D off its frozen value by {dev:.3g}")


class KsM10(Workload):
    """The criterion-6/README scenario: each round one interpolator build
    and one KS ensemble.  The ensembles test against the survival table
    frozen in the reference, so their statistics depend only on the MC
    draws and the KS code and can be compared bit for bit."""

    name = "ks-m10"
    params = scenario(M=10, kappa=2, S=5.0, q=0.5, nu=2.0,
                      rho_c=0.75, rho_s=0.9)

    def __init__(self, seed, sizes, reference):
        self.model_sf = texture.SurvivalInterpolator(
            np.asarray(reference["ks_sf"]["grid"]),
            np.asarray(reference["ks_sf"]["log_sf"]))
        super().__init__(seed, sizes, reference)
        self.interp_ref = reference.get("ks_interp") if self.frozen else None

    def _interpolator(self):
        n_points = self.sizes.interp_points
        ref = self.interp_ref

        def view(sf):
            grid = np.linspace(0.0, sf.v_max, n_points)
            return {"grid": [float(v) for v in grid],
                    "sf": [float(v) for v in sf(grid)]}

        def check(v):
            if ref is not None and v["grid"] != ref["grid"]:
                _fail("interpolator grid differs from the frozen one")
            _check_survival(v["sf"], ref and ref["sf"])
            if v["sf"][0] != 1.0:
                _fail("interpolated survival at v=0 is not 1")

        return Op("interpolator", "interpolator", n_points,
                  lambda: texture.survival_interpolator(
                      self.params, "eff-sdp", n_points=n_points),
                  view, check)

    def round(self, r):
        K, n = self.sizes.ks_replicates, self.sizes.ks_samples
        seed = int(np.random.SeedSequence([self.seed, r]).generate_state(1)[0])
        key = str(r)
        ref = self.refs.get(key)

        def check(stats):
            s = np.asarray(stats)
            if s.shape != (K,) or not np.all(np.isfinite(s)) \
                    or s.min() <= 0.0 or s.max() > 1.0:
                _fail(f"KS statistics malformed: {s}")
            if ref is not None and not np.array_equal(s, np.asarray(ref)):
                _fail("KS statistics differ from the frozen vector")

        def view(ens):
            if ens.K != K or ens.n != n or ens.statistics.shape != (K,):
                _fail(f"ensemble drew K={ens.K}, n={ens.n}; wanted {K}, {n}")
            return [float(v) for v in ens.statistics]

        return [self._interpolator(),
                Op("replicate", key, K,
                   lambda: gof_stats.ks_ensemble(
                       self.params, self.model_sf, K=K, n=n, seed=seed,
                       threads=1),
                   view, check)]


WORKLOADS = {w.name: w for w in (CurveM100, PdM10, KsM10)}


def make(name: str, seed: int, sizes: Sizes = DEFAULT_SIZES,
         reference: dict | None = None) -> Workload:
    if reference is None:
        reference = load_reference()
    return WORKLOADS[name](seed, sizes, reference)


def trace_targets() -> list[Target]:
    """The traced functions, named ``<module>.<function>``."""
    Ctx = mgf_core.ScenarioContext
    return [
        Target("mgf_core.ScenarioContext", Ctx, "__init__"),
        Target("mgf_core.sc_eigenvalues", Ctx, "sc_eigenvalues",
               note=lambda ctx, u, fresh=False: (ctx.params, float(u))),
        Target("mgf_core.speckle_coeffs", mgf_core, "speckle_coeffs"),
        Target("mgf_core.steady_coeffs", mgf_core, "steady_coeffs"),
        Target("saddlepoint.solve_saddle", saddlepoint, "solve_saddle"),
        Target("saddlepoint.survival_sdp", saddlepoint, "survival_sdp"),
        Target("saddlepoint.survival_sp", saddlepoint, "survival_sp"),
        Target("texture.compound_survival", texture, "compound_survival"),
        Target("texture.survival_curve", texture, "survival_curve"),
        Target("texture.survival_interpolator", texture,
               "survival_interpolator"),
        Target("detector.threshold_for_pfa", detector, "threshold_for_pfa"),
        Target("fpm_mc.simulate_returns", fpm_mc, "simulate_returns",
               note=lambda config, *a, **k: config.n_samples),
        Target("gof_stats.ks_statistic", gof_stats, "ks_statistic"),
        Target("gof_stats.ks_ensemble", gof_stats, "ks_ensemble"),
    ]
