#!/usr/bin/env python3
"""Run-time/accuracy benchmark over randomized parameter draws
(M=100, kappa=2, rho_c=0.75, rho_s=0.95; S, q, nu drawn per draw, in that
order; see detector.bench)."""

import sys

from gammaclutter import cli

if __name__ == "__main__":
    sys.exit(cli.main(["bench"] + sys.argv[1:]))
