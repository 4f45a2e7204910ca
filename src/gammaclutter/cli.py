"""Command-line surface: survival curves, detection curves, MC comparison,
and the run-time/accuracy benchmark.  Curves are emitted as CSV with a
config-echo header; KS ensembles as JSON."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import detector, gof_stats, texture
from .corrmodel import CorrelationSpec
from .errors import (
    GammaClutterError,
    InvalidCorrelation,
    InvalidScenario,
    InvalidShape,
    NoConvergence,
)
from .mgf_core import ScenarioContext, ScenarioParams, scenario
from .texture import Method, gamma_texture_rule

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_inf(value, name):
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ValueError(f"{name}: expected number or 'inf', got {value!r}")
    return value


def load_scenario(path: str) -> dict:
    """Read and validate a scenario file; returns the normalized dict."""
    with open(path) as fh:
        raw = json.load(fh)
    required = ("M", "kappa", "q", "nu")
    for key in required:
        if key not in raw:
            raise ValueError(f"scenario missing required key '{key}'")
    out = dict(raw)
    out["kappa"] = _parse_inf(raw["kappa"], "kappa")
    out["nu"] = _parse_inf(raw["nu"], "nu")
    out.setdefault("S", 0.0)
    out.setdefault("pfa", 1e-6)
    out.setdefault("method", "eff-sdp")
    out.setdefault("texture_order", 32)
    out.setdefault("seed", 1)
    return out


def scenario_params(cfg: dict, S=None) -> ScenarioParams:
    spec_s = spec_c = None
    if "toeplitz_s" in cfg:
        spec_s = CorrelationSpec.toeplitz(cfg["toeplitz_s"])
    if "toeplitz_c" in cfg:
        spec_c = CorrelationSpec.toeplitz(cfg["toeplitz_c"])
    return scenario(int(cfg["M"]), cfg["kappa"],
                    cfg.get("S", 0.0) if S is None else S,
                    cfg["q"], cfg["nu"], float(cfg.get("rho_s", 0.0)),
                    float(cfg.get("rho_c", 0.0)), spec_s, spec_c)


def _echo_lines(cfg: dict, extra: dict | None = None):
    merged = dict(cfg)
    if extra:
        merged.update(extra)
    blob = json.dumps(merged, sort_keys=True, default=str)
    return [f"# scenario: {blob}"]


def _write(path, lines):
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _threads(args) -> int:
    n = args.threads
    if n is None:
        n = int(os.environ.get("GAMMACLUTTER_THREADS", "0"))
    if n == 0:
        n = os.cpu_count() or 1
    return n


def cmd_survival(args) -> int:
    cfg = load_scenario(args.scenario)
    params = scenario_params(cfg)
    methods = [Method.parse(m) for m in args.methods.split(",")]
    order = args.texture_order or cfg["texture_order"]
    v_max = args.v_max if args.v_max is not None else 4.0 * (1.0 + params.S)
    grid = np.linspace(args.v_min, v_max, args.v_points)
    rule = gamma_texture_rule(params.nu, order)
    ctx = ScenarioContext(params)
    cols = [texture.survival_curve(grid, params, m, rule, ctx)
            for m in methods]
    lines = _echo_lines(cfg, {"texture_order": order})
    lines.append("v," + ",".join(f"sf_{m.name}" for m in methods))
    for i, v in enumerate(grid):
        lines.append(",".join([_fmt(v)] + [_fmt(c[i]) for c in cols]))
    _write(args.out, lines)
    return 0


def cmd_pd(args) -> int:
    cfg = load_scenario(args.scenario)
    methods = [Method.parse(m) for m in args.methods.split(",")]
    order = args.texture_order or cfg["texture_order"]
    pfa = args.pfa or cfg["pfa"]
    if args.sir_grid_db:
        lo, hi, n = args.sir_grid_db.split(":")
        s_db = np.linspace(float(lo), float(hi), int(n))
    elif "S_grid_dB" in cfg:
        lo, hi, n = cfg["S_grid_dB"]
        s_db = np.linspace(float(lo), float(hi), int(n))
    else:
        s_db = np.linspace(0.0, 20.0, 41)
    sirs = detector.db_to_linear(s_db)
    params = scenario_params(cfg, S=0.0)
    curves = [detector.pd_curve(params, pfa, sirs, m, order) for m in methods]
    lines = _echo_lines(cfg, {"pfa": pfa, "texture_order": order})
    lines.append("S_dB," + ",".join(f"pd_{m.name}" for m in methods))
    for i, s in enumerate(s_db):
        lines.append(",".join([_fmt(s)] + [_fmt(c.pd[i]) for c in curves]))
    _write(args.out, lines)
    return 0


def cmd_compare(args) -> int:
    cfg = load_scenario(args.scenario)
    params = scenario_params(cfg)
    method = args.method or cfg["method"]
    order = args.texture_order or cfg["texture_order"]
    seed = args.seed if args.seed is not None else cfg["seed"]
    gof_stats.check_ensemble(args.replicates, args.samples, args.alpha)
    sf = texture.survival_interpolator(params, method, texture_order=order)
    ens = gof_stats.ks_ensemble(
        params, sf, K=args.replicates, n=args.samples, seed=seed,
        alpha=args.alpha, threads=_threads(args),
        config_echo={**cfg, "method": method, "replicates": args.replicates,
                     "samples": args.samples, "seed": seed})
    _write(args.out, [ens.to_json(indent=2)])
    return 0


def _bench_vmax(params, rule, ctx) -> float:
    lo, hi = 1.0 + params.S, 2.0 * (1.0 + params.S)
    while texture.compound_survival(hi, params, "eff-sdp", rule, ctx) > 1e-3:
        hi *= 1.5
        if hi > texture.V_SEARCH_MAX:
            raise NoConvergence("eff-sdp survival stays above 1e-3 up to "
                                f"v={texture.V_SEARCH_MAX:g}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if texture.compound_survival(mid, params, "eff-sdp", rule, ctx) > 1e-3:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-3 * hi:
            break
    return hi


def cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    names = [m.name for m in texture.ALL_METHODS]
    times = {m: [] for m in names}
    abs_dev = {m: [] for m in names}
    rel_dev = {m: [] for m in names}
    for _ in range(args.draws):
        params = scenario(M=args.M, kappa=2,
                          S=rng.uniform(1.0, 10.0),
                          q=rng.uniform(0.5, 1.0),
                          nu=rng.uniform(1.0, 10.0),
                          rho_s=0.95, rho_c=0.75)
        rule = gamma_texture_rule(params.nu, args.texture_order or 32)
        ctx = ScenarioContext(params)
        grid = np.linspace(0.0, _bench_vmax(params, rule, ctx),
                           args.grid_points + 1)[1:]
        ref = None
        for m in names:
            ctx_timed = ScenarioContext(params)   # pay eigen cost per method
            t0 = time.perf_counter()
            curve = texture.survival_curve(grid, params, m, rule, ctx_timed)
            times[m].append(time.perf_counter() - t0)
            if m == "eff-sdp":
                ref = curve
            else:
                dev = np.abs(curve - ref)
                abs_dev[m].append(float(dev.max()))
                rel_dev[m].append(float((dev / np.clip(ref, 1e-300, None))
                                        .max()))
    lines = [f"# bench: draws={args.draws} M={args.M} grid={args.grid_points} "
             f"seed={args.seed}",
             "method,mean_time_s,max_abs_dev,max_rel_dev"]
    for m in names:
        t = float(np.mean(times[m]))
        ad = float(np.mean(abs_dev[m])) if abs_dev[m] else float("nan")
        rd = float(np.mean(rel_dev[m])) if rel_dev[m] else float("nan")
        lines.append(f"{m},{_fmt(t)},{_fmt(ad)},{_fmt(rd)}")
    _write(args.out, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gammaclutter",
        description="Detection statistics for correlated gamma-fluctuating "
                    "targets in correlated compound clutter. Threshold "
                    "inversion carries a 1e-3 relative tolerance, which "
                    "dominates the P_D error budget.")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--texture-order", type=int, default=None)
    common.add_argument("--threads", type=int, default=None,
                        help="worker count; 0 = auto "
                             "(GAMMACLUTTER_THREADS fallback)")

    p = sub.add_parser("survival", parents=[common],
                       help="survival-function curves as CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--methods", default="eff-sdp")
    p.add_argument("--v-min", type=float, default=0.0)
    p.add_argument("--v-max", type=float, default=None)
    p.add_argument("--v-points", type=int, default=101)
    p.set_defaults(func=cmd_survival)

    p = sub.add_parser("pd", parents=[common],
                       help="detection-probability curves as CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--methods", default="eff-sdp")
    p.add_argument("--sir-grid-db", default=None, help="lo:hi:points")
    p.add_argument("--pfa", type=float, default=None)
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("compare", parents=[common],
                       help="replicated KS comparison of MC vs analytic SF")
    p.add_argument("--scenario", required=True)
    p.add_argument("--method", default=None)
    p.add_argument("--replicates", type=int, default=400)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.01)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", parents=[common],
                       help="run-time/accuracy table over randomized draws")
    p.add_argument("--draws", type=int, default=20)
    p.add_argument("--grid-points", type=int, default=100)
    p.add_argument("--M", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "texture_order", None) is None:
        args.texture_order = 0
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, InvalidScenario,
            InvalidCorrelation, InvalidShape) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GammaClutterError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
