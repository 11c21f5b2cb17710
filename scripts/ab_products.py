#!/usr/bin/env python3
"""Time public products on two checkouts in alternating processes.

Usage, with both checkouts holding ``src/tftlib``:

    python3 scripts/ab_products.py PARENT CHANGE --lengths 4097,8193,65537 \
        --rounds 5

Each round runs one fresh process per checkout, one right after the other,
and the side that goes first alternates from round to round, so drift in
the machine's load falls on both sides alike.  A process imports its
checkout's ``src/`` first, and over the library's default field times
every product path at every length: ``multiply_full_fft``
(``padded``) and ``multiply_tft`` on the ``cyclotomic`` and ``bitreversed``
paths, on seeded operands whose product has that length.  A first call
builds the tables and the product plan, and the fastest of REPEATS (21)
timed calls after it is the process's time, which a burst of load on a
shared machine lifts less than it lifts a median.  The outputs of both
sides must be equal, else the script exits 1.

One line per length and path: the medians over rounds of both sides, in
microseconds, the median over rounds of the change's time over the
parent's in the same round (the two processes ran back to back), and the
rounds the change was faster in.  Then one line per path: the median of
its ratios over the lengths, and the least and the largest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PATHS = ("padded", "cyclotomic", "bitreversed")
REPEATS = 21  # timed calls per product and process

CHILD = r"""
import hashlib, json, random, sys, time
sys.path.insert(0, sys.argv[1])
import tftlib

lengths, repeats = [int(n) for n in sys.argv[2].split(",")], int(sys.argv[3])
ctx = tftlib.FieldCtx()
p = ctx.p
out = {}
for n in lengths:
    rng = random.Random(n)
    la = rng.randint(1, n)
    f = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
    g = [rng.randrange(p) for _ in range(n - la)] + [rng.randrange(1, p)]
    calls = {"padded": lambda: tftlib.multiply_full_fft(ctx, f, g),
             "cyclotomic": lambda: tftlib.multiply_tft(ctx, f, g, "cyclotomic"),
             "bitreversed": lambda: tftlib.multiply_tft(ctx, f, g, "bitreversed")}
    for path, call in calls.items():
        digest = hashlib.blake2b(repr(call()).encode(), digest_size=8).hexdigest()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        out[f"{n} {path}"] = (min(times), digest)
print(json.dumps(out))
"""


def run(checkout: Path, lengths: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, str(checkout.resolve() / "src"),
                           lengths, str(REPEATS)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--lengths", default="4097,8193,12289,16385,32769,65537",
                    help="comma-separated product lengths")
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    sides = {"parent": [], "change": []}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run(getattr(args, side), args.lengths))
    wrong = 0
    ratios = {path: [] for path in PATHS}
    print(f"{'n':>8} {'path':<12} {'parent us':>10} {'change us':>10} {'ratio':>7} won")
    for key in sides["parent"][0]:
        n, path = key.split()
        old = [run_[key][0] for run_ in sides["parent"]]
        new = [run_[key][0] for run_ in sides["change"]]
        digests = {run_[key][1] for side in sides.values() for run_ in side}
        wrong += len(digests) > 1
        ratio = statistics.median(b / a for a, b in zip(old, new))
        ratios[path].append(ratio)
        won = sum(b < a for a, b in zip(old, new))
        flag = "" if len(digests) == 1 else "  OUTPUTS DIFFER"
        print(f"{n:>8} {path:<12} {1e6 * statistics.median(old):>10.1f} "
              f"{1e6 * statistics.median(new):>10.1f} {ratio:>6.3f}x {won}/{args.rounds}{flag}")
    for path, values in ratios.items():
        print(f"{path}: median ratio {statistics.median(values):.3f}x "
              f"(least {min(values):.3f}x, largest {max(values):.3f}x)")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
