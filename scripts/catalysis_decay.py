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
import math
import os
import sys

from entlab import InvalidInputError, catalytic_deviation
from entlab.cli import emit_sweep
from entlab.embezzle import _lambda_family


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5)
    parser.add_argument("--exp-max", type=int, default=14,
                        help="m runs over 1, 2, 4, ..., 2^exp")
    parser.add_argument("--out", default="catalysis_decay.csv")
    args = parser.parse_args()

    rows = []
    for exp in range(args.exp_max + 1):
        lam, m = _lambda_family(args.lam, 2**exp)  # a bad lambda is refused before the period
        inverse = 1.0 / lam  # inf for lambda below 1 / sys.float_info.max
        period = math.log(inverse) if inverse < math.inf else -math.log(lam)
        rows.append({
            "m": m,
            "deviation_on_period": catalytic_deviation(lam, m, period),
            "deviation_off_period": catalytic_deviation(lam, m, period / 2),
        })
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
    try:
        main()
    except InvalidInputError as exc:  # a bad flag: one line and exit 2, as the entlab CLI does
        print(f"{os.path.basename(__file__)}: {exc}", file=sys.stderr)
        sys.exit(2)
