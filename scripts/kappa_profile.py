#!/usr/bin/env python3
"""Flow-deviation profiles of lambda-family tensor powers.

Tabulates the deviation kappa(t) over a time grid for several tensor powers m
at a fixed lambda, in long form (m, t, deviation).  As m grows the in-period
profile approaches the closed-form infinite-family peak at the half period;
the summary prints, for each m, the deviation at the half period and its gap
to kappa_max_formula(lambda), so the convergence in m can be read off.  The
default ladder reaches m = 10000 at lambda = 0.5; the profile is computed on
the binomial masses and log-positions, so larger m only costs time.
"""

import argparse
import math
import os
import sys

from entlab import InvalidInputError, family_kappa_profile, kappa_max_formula
from entlab.cli import _exit_code, _parse_int_list, emit_sweep
from entlab.embezzle import _lambda_family


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5)
    parser.add_argument("--m-list", default="1,4,16,64,256,1000,10000")
    parser.add_argument("--steps", type=int, default=121)
    parser.add_argument("--periods", type=float, default=1.5,
                        help="grid length in units of the period -log(lambda)")
    parser.add_argument("--out", default="kappa_profile.csv")
    args = parser.parse_args()

    m_values = _parse_int_list(args.m_list, "--m-list")
    for m in m_values:
        _lambda_family(args.lam, m)  # a bad lambda or m is refused before the period
    if args.steps < 2:
        raise InvalidInputError(f"--steps must be >= 2, got {args.steps}")
    period = -math.log(args.lam)
    grid = [args.periods * period * i / (args.steps - 1) for i in range(args.steps)]

    rows, halves = [], []
    for m in m_values:
        *profile, half = family_kappa_profile(args.lam, m, grid + [period / 2])
        rows.extend(
            {"m": m, "t": t, "deviation": dev} for t, dev in zip(grid, profile)
        )
        halves.append(half)
    emit_sweep(rows, ["m", "t", "deviation"], args.out)

    peak = kappa_max_formula(args.lam)
    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"closed-form peak for lambda={args.lam}: {peak:.8f}")
    print(f"{'m':>6}  {'half-period deviation':>21}  {'gap to peak':>11}")
    for m, half in zip(m_values, halves):
        print(f"{m:>6}  {half:>21.12f}  {abs(half - peak):>11.3e}")


if __name__ == "__main__":
    sys.exit(_exit_code(os.path.basename(__file__), main))
