#!/usr/bin/env python3
"""Sweep embezzlement fidelity against resource size.

For each target dimension d, borrow a d-level maximally entangled state from
the harmonic resource of size n (starting from |00>), and compare the achieved
fidelity with the dimension-counting guarantee.  Writes a long-form CSV ready
for plotting (one row per (d, n)) and prints a short summary table.
"""

import argparse
import math
import os
import sys

from entlab import bell_state, product_basis_state
from entlab.cli import _embezzle_rows, _exit_code, _parse_int_list, emit_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d-list", default="2,3,4", help="target dimensions")
    parser.add_argument("--exp-max", type=int, default=20,
                        help="largest resource exponent: n runs over 2^2 .. 2^exp")
    parser.add_argument("--out", default="embezzle_sweep.csv")
    args = parser.parse_args()

    dims = _parse_int_list(args.d_list, "--d-list")
    ns = [2**exp for exp in range(2, args.exp_max + 1, 2)]
    rows = [{"d": d, **row} for d in dims
            for row in _embezzle_rows(ns, product_basis_state(d, d), bell_state(d))]

    columns = ["d", "n", "fidelity", "trace_error", "fidelity_bound", "epsilon", "meets_bound"]
    emit_sweep(rows, columns, args.out)

    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"{'d':>3} {'n':>9} {'fidelity':>10} {'bound':>10}")
    for row in rows:
        if row["n"] in (2**4, 2**12, 2**20) or math.log2(row["n"]) == args.exp_max:
            print(f"{row['d']:>3} {row['n']:>9} {row['fidelity']:>10.6f} "
                  f"{row['fidelity_bound']:>10.6f}")
    assert all(row["meets_bound"] for row in rows), "a sweep row undercut the bound"


if __name__ == "__main__":
    sys.exit(_exit_code(os.path.basename(__file__), main))
