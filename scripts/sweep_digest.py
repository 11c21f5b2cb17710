#!/usr/bin/env python3
"""Print a digest of every product and transform of one checkout, for a diff.

Usage, with CHECKOUT holding ``src/tftlib``:

    python3 scripts/sweep_digest.py PARENT > parent.txt
    python3 scripts/sweep_digest.py CHANGE > change.txt
    diff parent.txt change.txt

The checkout's ``src/`` goes first on the import path.  Each prime gets one
fresh ``FieldCtx``, and the calls run in a fixed order on seeded operands,
so the row tables a field builds once land on the same call in every
checkout.  One line per (entry point, p, n): the entry point, p, n, a short
hash of the outputs, then the call's (mul, pow2, add) and the scratch
elements it reports (``alloc``).  After each prime's calls, one line per
padded length in ``ctx.row_tables``: ``row_tables``, p, N and a short hash
of the bytes of its three arrays, so a change to how the tables are built
shows even in entries no product reads.

Entry points: ``multiply_full_fft``; ``multiply_tft`` on both paths with
each engine; ``ctft_forward`` with each engine; ``ctft_inverse``;
``brtft_forward``; ``brtft_inverse``.  Lengths: 1..600 and 2^k - 1, 2^k,
2^k + 1 up to 2^14 + 1, over 2013265921, 998244353 and 2130706433, which
take the row products from their crossover length; over
2305919975027638273, where every product stays on the list path, up to
1025.
"""

import argparse
import hashlib
import random
import sys
from pathlib import Path

PRIMES = {2013265921: 2**14 + 1, 998244353: 2**14 + 1, 2130706433: 2**14 + 1,
          2305919975027638273: 1025}


def lengths(top: int) -> list[int]:
    edges = {(1 << k) + d for k in range(1, 15) for d in (-1, 0, 1)}
    return sorted(n for n in set(range(1, 601)) | edges if n <= top)


def digest(values) -> str:
    return hashlib.blake2b(repr([int(x) for x in values]).encode(), digest_size=6).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", type=Path, help="checkout whose src/ is swept")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    import tftlib as t

    for p, top in PRIMES.items():
        ctx = t.FieldCtx(p)
        for n in lengths(top):
            rng = random.Random(p * 100003 + n)
            la = rng.randint(1, n)  # a product of length n
            f = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
            g = [rng.randrange(p) for _ in range(n - la)] + [rng.randrange(1, p)]
            buf = [rng.randrange(p) for _ in range(n)]
            plan = t.plan_new(n, ctx)
            calls = [("multiply_full_fft", t.multiply_full_fft, (f, g))]
            calls += [(f"multiply_tft:{path}:{engine}", t.multiply_tft, (f, g, path, engine))
                      for path in ("cyclotomic", "bitreversed") for engine in t.ENGINES]
            calls += [(f"ctft_forward:{engine}", t.ctft_forward, (buf, plan, engine))
                      for engine in t.ENGINES]
            calls += [(fn.__name__, fn, (buf, plan))
                      for fn in (t.ctft_inverse, t.brtft_forward, t.brtft_inverse)]
            for name, fn, (a, *rest) in calls:
                if a is buf:  # a transform works in place, on a copy
                    a = list(buf)
                with ctx.count_session() as sess:
                    out = fn(ctx, a, *rest)
                print(f"{name} {p} {n} {digest(a if out is None else out)} "
                      f"{sess.mul} {sess.pow2} {sess.add} {sess.alloc}")
        for N, tables in sorted(ctx.row_tables.items()):
            h = hashlib.blake2b(digest_size=6)
            for table in tables:
                h.update(table.tobytes())
            print(f"row_tables {p} {N} {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
