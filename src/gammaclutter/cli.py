"""Command-line surface: survival curves, detection curves, MC comparison,
and the run-time/accuracy benchmark.  Curves are emitted as CSV with a
config-echo header; KS ensembles as JSON."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import detector, gof_stats, texture
from .corrmodel import CorrelationSpec
from .errors import (
    GammaClutterError,
    InvalidCorrelation,
    InvalidScenario,
    InvalidShape,
)
from .mgf_core import ScenarioContext, ScenarioParams, scenario
from .texture import Method, TextureRule, gamma_texture_rule

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _number(value, name):
    """A scenario value as a JSON number, never a bool: an integer for M,
    and for kappa and nu also 'inf'."""
    if name in ("kappa", "nu") and isinstance(value, str) \
            and value.lower() in ("inf", "infinity"):
        return math.inf
    want = "integer" if name == "M" else "number"
    if isinstance(value, bool) or \
            not isinstance(value, int if name == "M" else (int, float)):
        inf = " or 'inf'" if name in ("kappa", "nu") else ""
        raise ValueError(f"{name}: expected {want}{inf}, got {value!r}")
    return value


def _count(n, name):
    """A point or draw count: an integer >= 1, never a bool."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"{name} {n!r} must be >= 1 and an integer")
    return n


def _grid(value, name):
    """lo, hi and points of a linspace grid given as [lo, hi, points]: two
    finite numbers and a count."""
    if not (isinstance(value, (list, tuple)) and len(value) == 3 and all(
            type(x) in (int, float) and math.isfinite(x) for x in value[:2])):
        raise ValueError(f"{name}: expected [lo, hi, points], got {value!r}")
    return float(value[0]), float(value[1]), _count(value[2], f"{name} points")


def load_scenario(path: str) -> dict:
    """Read and validate a scenario file; returns the normalized dict."""
    with open(path) as fh:
        raw = json.load(fh)
    required = ("M", "kappa", "q", "nu")
    for key in required:
        if key not in raw:
            raise ValueError(f"scenario missing required key '{key}'")
    out = dict(raw)
    out.setdefault("S", 0.0)
    out.setdefault("pfa", 1e-6)
    out.setdefault("method", "eff-sdp")
    out.setdefault("seed", 1)
    for key in ("M", "kappa", "q", "nu", "S", "pfa", "rho_s", "rho_c"):
        if key in out:
            out[key] = _number(out[key], key)
    if not isinstance(out["method"], str):
        raise ValueError(f"method: expected a string, got {out['method']!r}")
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


def _texture_rule(args, cfg: dict, nu: float) -> TextureRule:
    """The command's texture rule: at --texture-order, else at the scenario's
    texture_order, else at gamma_texture_rule's default order."""
    order = args.texture_order
    if order is None:
        order = cfg.get("texture_order")
    return gamma_texture_rule(nu) if order is None else \
        gamma_texture_rule(nu, order)


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
    n, name = args.threads, "--threads"
    if n is None:
        name = "GAMMACLUTTER_THREADS"
        raw = os.environ.get(name, "0")
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"{name} {raw!r} must be an integer") from None
    if n < 0:
        raise ValueError(f"{name} {n} must be >= 0 (0 = auto)")
    return n or os.cpu_count() or 1


def cmd_survival(args) -> int:
    cfg = load_scenario(args.scenario)
    params = scenario_params(cfg)
    methods = [Method.parse(m) for m in args.methods.split(",")]
    _count(args.v_points, "--v-points")
    v_max = args.v_max if args.v_max is not None else 4.0 * (1.0 + params.S)
    for flag, v in (("--v-min", args.v_min), ("--v-max", v_max)):
        if not math.isfinite(v):
            raise ValueError(f"{flag} {v} must be a finite number")
    grid = np.linspace(args.v_min, v_max, args.v_points)
    rule = _texture_rule(args, cfg, params.nu)
    ctx = ScenarioContext(params)
    cols = [texture.survival_curve(grid, params, m, rule, ctx)
            for m in methods]
    lines = _echo_lines(cfg, {"texture_order": rule.order})
    lines.append("v," + ",".join(f"sf_{m.name}" for m in methods))
    for i, v in enumerate(grid):
        lines.append(",".join([_fmt(v)] + [_fmt(c[i]) for c in cols]))
    _write(args.out, lines)
    return 0


def cmd_pd(args) -> int:
    cfg = load_scenario(args.scenario)
    methods = [Method.parse(m) for m in args.methods.split(",")]
    pfa = cfg["pfa"] if args.pfa is None else args.pfa
    key, grid = "S_grid_dB", cfg.get("S_grid_dB", (0.0, 20.0, 41))
    if args.sir_grid_db:
        # lo:hi:points, read as JSON numbers so that a count 4.5 stays 4.5
        key, grid = "--sir-grid-db", args.sir_grid_db
        with contextlib.suppress(json.JSONDecodeError):
            grid = json.loads(f"[{grid.replace(':', ',')}]")
    s_db = np.linspace(*_grid(grid, key))
    sirs = detector.db_to_linear(s_db)
    params = scenario_params(cfg, S=0.0)
    rule = _texture_rule(args, cfg, params.nu)
    curves = [detector.pd_curve(params, pfa, sirs, m, rule) for m in methods]
    lines = _echo_lines(cfg, {"pfa": pfa, "texture_order": rule.order})
    lines.append("S_dB," + ",".join(f"pd_{m.name}" for m in methods))
    for i, s in enumerate(s_db):
        lines.append(",".join([_fmt(s)] + [_fmt(c.pd[i]) for c in curves]))
    _write(args.out, lines)
    return 0


def cmd_compare(args) -> int:
    cfg = load_scenario(args.scenario)
    params = scenario_params(cfg)
    method = cfg["method"] if args.method is None else args.method
    seed = args.seed if args.seed is not None else cfg["seed"]
    gof_stats.check_ensemble(args.replicates, args.samples, args.alpha, seed)
    threads = _threads(args)
    rule = _texture_rule(args, cfg, params.nu)
    sf = texture.survival_interpolator(params, method, rule=rule)
    ens = gof_stats.ks_ensemble(
        params, sf, K=args.replicates, n=args.samples, seed=seed,
        alpha=args.alpha, threads=threads,
        config_echo={**cfg, "method": method, "texture_order": rule.order,
                     "replicates": args.replicates, "samples": args.samples,
                     "seed": seed})
    _write(args.out, [ens.to_json()])
    return 0


def cmd_bench(args) -> int:
    _count(args.draws, "--draws")
    _count(args.grid_points, "--grid-points")
    table = detector.bench(args.draws, args.grid_points, args.M, args.seed,
                           args.texture_order)
    lines = [f"# bench: draws={args.draws} M={args.M} grid={args.grid_points} "
             f"seed={args.seed}",
             "method,mean_time_s,max_abs_dev,max_rel_dev"]
    for m, rows in table.items():
        lines.append(",".join([m] + [_fmt(np.mean(r)) for r in rows]))
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
    common.add_argument("--texture-order", type=int, default=None,
                        help="texture quadrature order (default: the "
                             "scenario's texture_order, else 32)")

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
    p.add_argument("--threads", type=int, default=None,
                   help="worker count; 0 = auto "
                        "(GAMMACLUTTER_THREADS fallback)")
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
    try:
        return args.func(args)
    except (ValueError, OSError, InvalidScenario, InvalidCorrelation,
            InvalidShape) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GammaClutterError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
