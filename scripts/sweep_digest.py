#!/usr/bin/env python3
"""Print a digest of every product and transform of one checkout, for a diff.

Usage, with CHECKOUT holding ``src/tftlib``:

    python3 scripts/sweep_digest.py PARENT > parent.txt
    python3 scripts/sweep_digest.py CHANGE > change.txt
    diff parent.txt change.txt

The checkout's ``src/`` goes first on the import path.  Each prime gets one
fresh ``FieldCtx``, and the calls run in a fixed order on seeded operands,
so what a field builds once (row tables, product plans) lands on the same
call in every checkout.  One line per (entry point, p, n): the entry point,
p, n, a short hash of the outputs, then the call's (mul, pow2, add) and the
scratch elements it reports (``alloc``).  Then every product runs a second
time on the same field and operands, one line each, its entry point
prefixed ``again:``, so a product that reads what an earlier one built is
diffed too.  After each prime's calls, one line per
padded length in ``ctx.row_tables``: ``row_tables``, p, N and a short hash
of the bytes of each of its arrays, so a change to how the tables are built
shows even in entries no product reads; then, where a row product built
them, one line for each of the field's matrices, its name, p and a short
hash: the base-case matrices (``ctx.row_dft``), the int64 level parts
(``ctx.row_ints``) and the odd twist's matrices (``ctx.row_odd``), so a
change to the layout of any of them shows.

Entry points: ``multiply_full_fft``; ``multiply_tft`` on both paths;
``ctft_forward`` with each engine; ``ctft_inverse``;
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


def array_digest(table) -> str:
    return hashlib.blake2b(table.tobytes(), digest_size=6).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", type=Path, help="checkout whose src/ is swept")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    import tftlib as t

    for p, top in PRIMES.items():
        ctx = t.FieldCtx(p)

        def run(name, n, fn, a, *rest):
            with ctx.count_session() as sess:
                out = fn(ctx, a, *rest)
            print(f"{name} {p} {n} {digest(a if out is None else out)} "
                  f"{sess.mul} {sess.pow2} {sess.add} {sess.alloc}")

        products = {}
        for n in lengths(top):
            rng = random.Random(p * 100003 + n)
            la = rng.randint(1, n)  # a product of length n
            f = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
            g = [rng.randrange(p) for _ in range(n - la)] + [rng.randrange(1, p)]
            buf = [rng.randrange(p) for _ in range(n)]
            plan = t.plan_new(n, ctx)
            products[n] = [("multiply_full_fft", t.multiply_full_fft, (f, g))]
            products[n] += [(f"multiply_tft:{path}", t.multiply_tft, (f, g, path))
                            for path in ("cyclotomic", "bitreversed")]
            for name, fn, args in products[n]:
                run(name, n, fn, *args)
            for engine in t.ENGINES:  # a transform works in place, on a copy
                run(f"ctft_forward:{engine}", n, t.ctft_forward, list(buf), plan, engine)
            for fn in (t.ctft_inverse, t.brtft_forward, t.brtft_inverse):
                run(fn.__name__, n, fn, list(buf), plan)
        for n, calls in products.items():
            for name, fn, args in calls:
                run(f"again:{name}", n, fn, *args)
        for N, tables in sorted(ctx.row_tables.items()):
            print(f"row_tables {p} {N} {' '.join(array_digest(table) for table in tables)}")
        for name in ("row_dft", "row_ints", "row_odd"):
            if getattr(ctx, name, None) is not None:
                print(f"{name} {p} {array_digest(getattr(ctx, name))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
