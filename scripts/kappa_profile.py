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

from entlab import LambdaFamilySpec, family_kappa_profile, kappa_max_formula
from entlab.cli import CommandConfig, emit_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5)
    parser.add_argument("--m-list", default="1,4,16,64,256,1000,10000")
    parser.add_argument("--steps", type=int, default=121)
    parser.add_argument("--periods", type=float, default=1.5,
                        help="grid length in units of the period -log(lambda)")
    parser.add_argument("--out", default="kappa_profile.csv")
    args = parser.parse_args()

    period = -math.log(args.lam)
    m_values = [int(m) for m in args.m_list.split(",") if m.strip()]
    grid = [args.periods * period * i / (args.steps - 1) for i in range(args.steps)]

    rows = []
    for m in m_values:
        profile = family_kappa_profile(LambdaFamilySpec(args.lam, m), grid)
        rows.extend(
            {"m": m, "t": t, "deviation": dev} for t, dev in zip(grid, profile)
        )
    emit_sweep(rows, ["m", "t", "deviation"], CommandConfig(out=args.out))

    peak = kappa_max_formula(args.lam)
    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"closed-form peak for lambda={args.lam}: {peak:.8f}")
    print(f"{'m':>6}  {'half-period deviation':>21}  {'gap to peak':>11}")
    for m in m_values:
        half = family_kappa_profile(LambdaFamilySpec(args.lam, m), [period / 2])[0]
        print(f"{m:>6}  {half:>21.12f}  {abs(half - peak):>11.3e}")


if __name__ == "__main__":
    main()
