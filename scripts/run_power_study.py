#!/usr/bin/env python3
"""Statistical-power probe: how small a survival-curve tilt the replicated
KS harness still detects.  Prints power at each requested peak deviation;
every deviation is scored on the same replicate draws."""

import argparse
import os

import gammaclutter as gc
from gammaclutter import gof_stats
from gammaclutter.texture import survival_interpolator


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deltas", default="0,0.001,0.003,0.01")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--replicates", type=int, default=400)
    ap.add_argument("--samples", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--threads", type=int, default=0,
                    help="worker processes; 0 = one per CPU")
    args = ap.parse_args()
    if args.threads < 0:
        ap.error(f"--threads {args.threads} must be >= 0 (0 = auto)")

    params = gc.scenario(M=10, kappa=2, S=5.0, q=0.5, nu=2.0,
                         rho_c=0.75, rho_s=0.9)
    sf = survival_interpolator(params, "eff-sdp")
    deltas = [float(x) for x in args.deltas.split(",")]
    powers = gof_stats.power_study(
        params, deltas, K=args.replicates, n=args.samples, alpha=0.01,
        seed=args.seed, trials=args.trials, sf=sf,
        threads=args.threads or os.cpu_count() or 1)
    print("delta_max,power")
    for d, power in zip(deltas, powers):
        print(f"{d},{power}")


if __name__ == "__main__":
    main()
