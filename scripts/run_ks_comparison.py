#!/usr/bin/env python3
"""Replicated KS comparison of the quadrature-level MC model against an
analytic survival method; emits the ensemble JSON (bands + curves)."""

import argparse
import sys

import gammaclutter as gc
from gammaclutter import gof_stats
from gammaclutter.texture import survival_interpolator


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa", type=int, default=2)
    ap.add_argument("--method", default="eff-sdp")
    ap.add_argument("--replicates", type=int, default=400)
    ap.add_argument("--samples", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--threads", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    params = gc.scenario(M=10, kappa=args.kappa, S=5.0, q=0.5, nu=2.0,
                         rho_c=0.75, rho_s=0.9)
    sf = survival_interpolator(params, args.method)
    ens = gof_stats.ks_ensemble(
        params, sf, K=args.replicates, n=args.samples, seed=args.seed,
        threads=args.threads,
        config_echo={"kappa": args.kappa, "method": args.method})
    text = ens.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"rejected: {ens.rejected}; mean KS {ens.statistics.mean():.4f}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
