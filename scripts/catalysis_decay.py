#!/usr/bin/env python3
"""Catalytic deviation decay along the tensor-power ladder.

At the flow period t = log(1/lambda) the deviation of the m-fold family
equals the l1 distance between a binomial mass pattern and its unit shift,
which decays like 1/sqrt(m); off the period (t = half period) the atoms
interleave and the deviation saturates at 2.  Writes one row per m with both
values and prints where the on-period deviation first drops below 0.25.  The
default ladder reaches m = 2^14 = 16384; both values come in closed form from
the binomial masses, so larger m only costs time.
"""

import argparse
import os
import sys

from entlab import InvalidInputError, catalytic_deviation
from entlab.cli import _catalysis_rows, _exit_code, emit_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5)
    parser.add_argument("--exp-max", type=int, default=14,
                        help="m runs over 1, 2, 4, ..., 2^exp")
    parser.add_argument("--out", default="catalysis_decay.csv")
    args = parser.parse_args()

    if args.exp_max < 0:
        raise InvalidInputError(f"--exp-max must be >= 0, got {args.exp_max}")
    ms = [2**exp for exp in range(args.exp_max + 1)]
    rows = [{"m": row["m"], "deviation_on_period": row["deviation"],
             "deviation_off_period": catalytic_deviation(args.lam, row["m"], row["t"] / 2)}
            for row in _catalysis_rows(args.lam, ms)]
    emit_sweep(rows, ["m", "deviation_on_period", "deviation_off_period"], args.out)

    print(f"wrote {len(rows)} rows to {args.out}")
    crossing = next((row["m"] for row in rows if row["deviation_on_period"] < 0.25), None)
    for row in rows:
        print(f"  m={row['m']:>5}: on-period {row['deviation_on_period']:.6f}, "
              f"off-period {row['deviation_off_period']:.6f}")
    if crossing is None:
        print("deviation never dropped below 0.25 on this grid")
    else:
        print(f"on-period deviation first drops below 0.25 at m = {crossing}")


if __name__ == "__main__":
    sys.exit(_exit_code(os.path.basename(__file__), main))
