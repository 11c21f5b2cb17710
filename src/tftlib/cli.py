"""Command-line surface: transforms, multiplication, self-test, benchmark.

Polynomial file format (bit-exact): line 1 ``p <modulus>``, line 2
``n <length>``, then n whitespace-separated decimal coefficients a_0..a_(n-1),
each in [0, p).  Lines starting with ``#`` are comments.  The writer is
canonical (one coefficient line, single spaces, LF endings), so a forward
transform followed by the inverse reproduces its input file byte for byte.

Benchmark CSV: header ``n,algo,mul,pow2,add,wall_nanos``, one row per
(length, algorithm) pair, counts taken from exactly one multiplication or one
forward transform at that length.  Input polynomials are derived from the seed
and the row's (n, role) by hashing, so rows are reproducible in any order.

Exit status: 0 success, 1 verification failure, 2 usage or format error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import random
import sys
import time
from dataclasses import dataclass

from . import oracle
from .bridge import brtft_forward, brtft_inverse, multiply_full_fft, multiply_tft
from .ctft import ENGINES, ctft_forward, ctft_inverse
from .plan import eval_points_cyclotomic, plan_new
from .ring import DEFAULT_MODULUS, FieldCtx
from .transform import fft_in_place


@dataclass
class BenchRow:
    n: int
    algo: str
    mul: int
    pow2: int
    add: int
    wall_nanos: int


class PolyFormatError(ValueError):
    def __init__(self, path: str, line_no: int, msg: str):
        super().__init__(f"{path}:{line_no}: {msg}")
        self.path = path
        self.line_no = line_no


def read_poly_file(path: str) -> tuple[int, list[int]]:
    """Parse a polynomial file into (modulus, coefficients)."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.readlines()
    fields: list[tuple[int, str]] = []  # (line_no, token)
    for no, line in enumerate(raw, start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        for tok in body.split():
            fields.append((no, tok))
    last_line = len(raw) if raw else 1

    def need(idx: int, what: str) -> tuple[int, str]:
        if idx >= len(fields):
            raise PolyFormatError(path, last_line, f"missing {what}")
        return fields[idx]

    no, tok = need(0, "'p' marker")
    if tok != "p":
        raise PolyFormatError(path, no, f"expected 'p', found {tok!r}")
    no, tok = need(1, "modulus")
    try:
        p = int(tok)
    except ValueError:
        raise PolyFormatError(path, no, f"modulus {tok!r} is not an integer") from None
    no, tok = need(2, "'n' marker")
    if tok != "n":
        raise PolyFormatError(path, no, f"expected 'n', found {tok!r}")
    no, tok = need(3, "length")
    try:
        n = int(tok)
    except ValueError:
        raise PolyFormatError(path, no, f"length {tok!r} is not an integer") from None
    if n < 1:
        raise PolyFormatError(path, no, f"length must be at least 1, got {n}")

    coeffs = []
    for idx in range(4, 4 + n):
        no, tok = need(idx, f"coefficient {idx - 4} of {n}")
        try:
            c = int(tok)
        except ValueError:
            raise PolyFormatError(path, no, f"coefficient {tok!r} is not an integer") from None
        if not 0 <= c < p:
            raise PolyFormatError(path, no, f"coefficient {c} outside [0, {p})")
        coeffs.append(c)
    if len(fields) > 4 + n:
        no, tok = fields[4 + n]
        raise PolyFormatError(path, no, f"unexpected extra token {tok!r}")
    return p, coeffs


def write_poly_file(path: str, p: int, coeffs: list[int]) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"p {p}\nn {len(coeffs)}\n")
        fh.write(" ".join(str(c) for c in coeffs))
        fh.write("\n")


def emit_csv(rows: list[BenchRow], path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "algo", "mul", "pow2", "add", "wall_nanos"])
        for row in rows:
            writer.writerow([row.n, row.algo, row.mul, row.pow2, row.add, row.wall_nanos])


def seeded_poly(seed: int, n: int, role: str, length: int, p: int) -> list[int]:
    """Deterministic random polynomial, split by (seed, n, role) so any row can
    be regenerated without replaying the others."""
    digest = hashlib.sha256(f"{seed}:{n}:{role}".encode()).digest()
    rng = random.Random(int.from_bytes(digest, "big"))
    coeffs = [rng.randrange(p) for _ in range(length)]
    if length:
        coeffs[-1] = rng.randrange(1, p)
    return coeffs


def bench_rows(ctx: FieldCtx, engine: str, seed: int,
               n_min: int, n_max: int) -> list[BenchRow]:
    """Counted runs for every n in [n_min, n_max]: three multiplication paths
    at product length n and the two forward transforms at length n."""
    rows = []
    for n in range(n_min, n_max + 1):
        deg_f = (n - 1) // 2
        f = seeded_poly(seed, n, "f", deg_f + 1, ctx.p)
        g = seeded_poly(seed, n, "g", n - deg_f, ctx.p)
        h = seeded_poly(seed, n, "h", n, ctx.p)
        plan = plan_new(n, ctx)
        jobs = (
            ("mul-fft", lambda: multiply_full_fft(ctx, f, g)),
            ("mul-ctft", lambda: multiply_tft(ctx, f, g, "cyclotomic", engine)),
            ("mul-brtft", lambda: multiply_tft(ctx, f, g, "bitreversed", engine)),
            ("ctft-fwd", lambda: ctft_forward(ctx, list(h), plan, engine)),
            ("brtft-fwd", lambda: brtft_forward(ctx, list(h), plan)),
        )
        for algo, job in jobs:
            with ctx.count_session() as sess:
                t0 = time.perf_counter_ns()
                job()
                wall = time.perf_counter_ns() - t0
            rows.append(BenchRow(n, algo, sess.mul, sess.pow2, sess.add, wall))
    return rows


def selftest(ctx: FieldCtx, seed: int, out=None) -> int:
    """Compact oracle-equivalence run; returns 0 if everything matches."""
    if out is None:
        out = sys.stdout
    p = ctx.p
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        tag = "ok" if ok else "FAIL"
        print(f"selftest: {name}: {tag}{(' ' + detail) if detail else ''}", file=out)

    sizes = sorted(set(range(1, 41)) | {63, 64, 65, 86, 100, 127, 128, 129, 255, 256, 257})
    eval_ok = bridge_ok = round_ok = True
    for n in sizes:
        plan = plan_new(n, ctx)
        pts = eval_points_cyclotomic(plan)
        for trial in range(3):
            f = seeded_poly(seed, n, f"selftest{trial}", n, p)
            want = oracle.eval_batch([f], list(pts), p)[0]
            for engine in ENGINES:
                buf = list(f)
                ctft_forward(ctx, buf, plan, engine)
                eval_ok &= buf == want
                ctft_inverse(ctx, buf, plan)
                round_ok &= buf == f
            padded = f + [0] * (plan.N - n)
            fft_in_place(ctx, padded, plan.N)
            buf = list(f)
            brtft_forward(ctx, buf, plan)
            bridge_ok &= buf == padded[:n]
            brtft_inverse(ctx, buf, plan)
            round_ok &= buf == f
    report("block transform matches naive evaluation", eval_ok)
    report("bit-reversed transform matches padded full transform", bridge_ok)
    report("forward/inverse round trips", round_ok)

    mul_ok = True
    for trial in range(5):
        f = seeded_poly(seed, trial, "mulf", 3 + 11 * trial, p)
        g = seeded_poly(seed, trial, "mulg", 2 + 7 * trial, p)
        want = oracle.schoolbook_mul(f, g, p)
        mul_ok &= multiply_full_fft(ctx, f, g) == want
        mul_ok &= multiply_tft(ctx, f, g, "cyclotomic") == want
        mul_ok &= multiply_tft(ctx, f, g, "bitreversed") == want
    report("products match the schoolbook oracle", mul_ok)

    plan86 = plan_new(86, ctx)
    rows = {20: [4, 0], 33: [0, 0], 23: [0, p - 4]}
    crt_ok = True
    for e, want in rows.items():
        f = oracle.crt_basis_poly(plan86, 3, 1, e)
        c3 = oracle.combined_image(f, plan86, 3).image
        crt_ok &= oracle.naive_mod_reduce(c3, 2, p - 1, p) == want
    report("combined-image example rows", crt_ok)

    w8 = ctx.roots[3]
    w2 = w8 * w8 % p
    kernel = [p - 1, 0, 0, (1 - w2) % p, p - 1, (1 + w2) % p]
    report("pruned grid kernel vector",
           oracle.pruned_dft(kernel, {0, 3, 4, 5}, w8, 8, p) == [0, 0, 0, 0])

    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tft",
        description="Truncated Fourier transforms and polynomial multiplication "
                    "over an NTT-friendly prime field.")
    parser.add_argument("--modulus", type=int, default=None,
                        help=f"prime modulus (default {DEFAULT_MODULUS}; "
                             "file-based commands take the file's modulus)")
    parser.add_argument("--engine", choices=ENGINES, default="new",
                        help="block decomposition engine of ctft-fwd and both "
                             "TFT mul paths (default new)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for generated polynomials (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("ctft-fwd", "forward block transform of a polynomial file"),
            ("ctft-inv", "inverse block transform"),
            ("brtft-fwd", "forward bit-reversed truncated transform"),
            ("brtft-inv", "inverse bit-reversed truncated transform")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input")
        cmd.add_argument("output")

    mul = sub.add_parser("mul", help="multiply two polynomial files")
    mul.add_argument("lhs")
    mul.add_argument("rhs")
    mul.add_argument("output")
    mul.add_argument("--path", choices=("cyclotomic", "bitreversed", "fft"),
                     default="cyclotomic")

    bench = sub.add_parser("bench", help="operation-count benchmark, CSV output")
    bench.add_argument("--min", type=int, required=True, dest="n_min")
    bench.add_argument("--max", type=int, required=True, dest="n_max")
    bench.add_argument("--csv", required=True, dest="csv_path")

    sub.add_parser("selftest", help="run the oracle equivalence suites")
    return parser


def _file_ctx(args, p: int) -> FieldCtx:
    if args.modulus is not None and args.modulus != p:
        raise PolyFormatError("<args>", 0, f"--modulus {args.modulus} "
                                           f"conflicts with file modulus {p}")
    return FieldCtx(p)


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    transforms = {
        "ctft-fwd": lambda ctx, a, plan: ctft_forward(ctx, a, plan, args.engine),
        "ctft-inv": ctft_inverse,
        "brtft-fwd": brtft_forward,
        "brtft-inv": brtft_inverse,
    }
    try:
        if args.command in transforms:
            p, coeffs = read_poly_file(args.input)
            ctx = _file_ctx(args, p)
            plan = plan_new(len(coeffs), ctx)
            transforms[args.command](ctx, coeffs, plan)
            write_poly_file(args.output, p, coeffs)
            return 0

        if args.command == "mul":
            p, f = read_poly_file(args.lhs)
            p2, g = read_poly_file(args.rhs)
            if p != p2:
                print(f"error: moduli differ: {p} vs {p2}", file=sys.stderr)
                return 2
            ctx = _file_ctx(args, p)
            if args.path == "fft":
                result = multiply_full_fft(ctx, f, g)
            else:
                result = multiply_tft(ctx, f, g, args.path, args.engine)
            write_poly_file(args.output, p, result)
            return 0

        if args.command == "bench":
            if args.n_min < 1 or args.n_max < args.n_min:
                print(f"error: bad range [{args.n_min}, {args.n_max}]", file=sys.stderr)
                return 2
            ctx = FieldCtx(args.modulus if args.modulus is not None else DEFAULT_MODULUS)
            rows = bench_rows(ctx, args.engine, args.seed, args.n_min, args.n_max)
            emit_csv(rows, args.csv_path)
            return 0

        if args.command == "selftest":
            ctx = FieldCtx(args.modulus if args.modulus is not None else DEFAULT_MODULUS)
            return selftest(ctx, args.seed)
    except (OSError, ValueError) as exc:  # PolyFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command")


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
