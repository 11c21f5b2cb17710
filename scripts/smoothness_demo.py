#!/usr/bin/env python3
"""Show how multiplication cost crosses a power-of-two boundary.

Runs the counted benchmark around n = 2^k and prints the multiplication
tallies of the padded-transform path next to the truncated paths.  The padded
path roughly doubles at n = 2^k + 1 (x2.19 at k = 8, 4069 -> 8930 mul) and
the cyclotomic truncated path does not move (x1.000 at k = 8, 4069 -> 4070).
At n = 2^k both truncated paths are the padded product itself; at 2^k + 1
the bit-reversed path pays for the change of variable and the block split, a
step of x1.378 at k = 8 (4069 -> 5606) to 0.63x the padded cost.

Usage: python3 scripts/smoothness_demo.py [--k 8] [--window 8] [--seed 0]
"""

import argparse

from tftlib.cli import bench_rows
from tftlib.ring import DEFAULT_MODULUS, FieldCtx


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=8, help="boundary exponent (default 8)")
    parser.add_argument("--window", type=int, default=8, help="half-width around 2^k")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--modulus", type=int, default=DEFAULT_MODULUS)
    args = parser.parse_args()

    boundary = 1 << args.k
    ctx = FieldCtx(args.modulus)
    rows = bench_rows(ctx, "new", args.seed,
                      boundary - args.window, boundary + args.window)
    mul = {(r.n, r.algo): r.mul for r in rows}

    print(f"multiplication counts, product length n near 2^{args.k} = {boundary}")
    print(f"{'n':>6} {'mul-fft':>10} {'mul-ctft':>10} {'mul-brtft':>10}")
    for n in range(boundary - args.window, boundary + args.window + 1):
        marker = "  <- boundary" if n == boundary else ""
        print(f"{n:>6} {mul[n, 'mul-fft']:>10} {mul[n, 'mul-ctft']:>10} "
              f"{mul[n, 'mul-brtft']:>10}{marker}")

    fft_jump = mul[boundary + 1, "mul-fft"] / mul[boundary, "mul-fft"]
    ctft_jump = mul[boundary + 1, "mul-ctft"] / mul[boundary, "mul-ctft"]
    brtft_jump = mul[boundary + 1, "mul-brtft"] / mul[boundary, "mul-brtft"]
    print(f"\nstep ratio at {boundary} -> {boundary + 1}: "
          f"padded x{fft_jump:.2f}, truncated x{ctft_jump:.3f} "
          f"(bit-reversed path x{brtft_jump:.3f})")


if __name__ == "__main__":
    main()
