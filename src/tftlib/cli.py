"""Command-line surface: transforms, multiplication, self-test, benchmark.

Polynomial file format (bit-exact, ASCII): line 1 ``p <modulus>``, line 2
``n <length>``, then n whitespace-separated decimal coefficients a_0..a_(n-1),
each in [0, p).  Every number is made of the digits 0-9 alone (no sign, no
underscore).  Lines starting with ``#`` are comments.  The writer is
canonical (one coefficient line, single spaces, LF endings), so a forward
transform followed by the inverse reproduces its input file byte for byte.

Benchmark CSV: header ``n,algo,mul,pow2,add,wall_nanos``, one row per
(length, algorithm) pair, counts taken from exactly one multiplication or one
forward transform at that length.  Input polynomials are derived from the seed
and the row's (n, role) by hashing, so rows are reproducible in any order.

Every failure of a command is one stderr line, ``error: <message>``, whose
message starts ``<path>:<line>:`` for a malformed file.  Exit status: 0
success, 1 verification failure, 2 usage or format error.
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
    with open(path, "rb") as fh:
        raw = fh.read().splitlines()
    fields: list[tuple[int, str]] = []  # (line_no, token)
    for no, line in enumerate(raw, start=1):
        if not line.isascii():
            raise PolyFormatError(path, no, "line is not ASCII")
        body = line.decode().strip()
        if body and not body.startswith("#"):
            fields.extend((no, tok) for tok in body.split())
    tokens = iter(fields)
    last_line = len(raw) if raw else 1

    def take(what: str, marker: str = "") -> tuple[int, int]:
        """The line and value of the next token: the marker if one is given
        (value 0), else a decimal integer of ASCII digits."""
        no, tok = next(tokens, (last_line, ""))
        if not tok:
            raise PolyFormatError(path, no, f"missing {what}")
        if marker:
            if tok != marker:
                raise PolyFormatError(path, no, f"expected {marker!r}, found {tok!r}")
            return no, 0
        if tok.isdigit():
            try:
                return no, int(tok)
            except ValueError:  # more digits than int() converts
                pass
        raise PolyFormatError(path, no, f"{what} is {tok!r}, not a decimal integer")

    take("'p' marker", "p")
    p = take("modulus")[1]
    take("'n' marker", "n")
    no, n = take("length")
    if n < 1:
        raise PolyFormatError(path, no, f"length must be at least 1, got {n}")
    coeffs = []
    for k in range(n):
        no, c = take(f"coefficient {k} of {n}")
        if c >= p:
            raise PolyFormatError(path, no, f"coefficient {c} outside [0, {p})")
        coeffs.append(c)
    extra = next(tokens, None)
    if extra:
        raise PolyFormatError(path, extra[0], f"unexpected extra token {extra[1]!r}")
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
            ("mul-ctft", lambda: multiply_tft(ctx, f, g, "cyclotomic")),
            ("mul-brtft", lambda: multiply_tft(ctx, f, g, "bitreversed")),
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


def selftest(ctx: FieldCtx, seed: int) -> int:
    """Compact oracle-equivalence run; returns 0 if everything matches."""
    p = ctx.p
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        tag = "ok" if ok else "FAIL"
        print(f"selftest: {name}: {tag}{(' ' + detail) if detail else ''}")

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
                        help="block decomposition engine of ctft-fwd and of the "
                             "ctft-fwd rows of bench (default new)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for generated polynomials (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    # each transform is called as (ctx, a, plan, engine)
    for name, transform, help_text in (
            ("ctft-fwd", ctft_forward, "forward block transform of a polynomial file"),
            ("ctft-inv", lambda ctx, a, plan, _: ctft_inverse(ctx, a, plan),
             "inverse block transform"),
            ("brtft-fwd", lambda ctx, a, plan, _: brtft_forward(ctx, a, plan),
             "forward bit-reversed truncated transform"),
            ("brtft-inv", lambda ctx, a, plan, _: brtft_inverse(ctx, a, plan),
             "inverse bit-reversed truncated transform")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input")
        cmd.add_argument("output")
        cmd.set_defaults(run=_transform_file, transform=transform)

    mul = sub.add_parser("mul", help="multiply two polynomial files")
    mul.add_argument("lhs")
    mul.add_argument("rhs")
    mul.add_argument("output")
    mul.add_argument("--path", choices=("cyclotomic", "bitreversed", "fft"),
                     default="cyclotomic")
    mul.set_defaults(run=_mul)

    bench = sub.add_parser("bench", help="operation-count benchmark, CSV output")
    bench.add_argument("--min", type=int, required=True, dest="n_min")
    bench.add_argument("--max", type=int, required=True, dest="n_max")
    bench.add_argument("--csv", required=True, dest="csv_path")
    bench.set_defaults(run=_bench)

    sub.add_parser("selftest", help="run the oracle equivalence suites").set_defaults(
        run=lambda args: selftest(_field(args), args.seed))
    return parser


def _field(args, p: int | None = None) -> FieldCtx:
    """The field of a command: the file's modulus p, which ``--modulus`` must
    match if it is given; else ``--modulus``; else the default."""
    if p is None:
        p = DEFAULT_MODULUS if args.modulus is None else args.modulus
    elif args.modulus is not None and args.modulus != p:
        raise ValueError(f"--modulus {args.modulus} conflicts with file modulus {p}")
    return FieldCtx(p)


def _transform_file(args) -> int:
    p, coeffs = read_poly_file(args.input)
    ctx = _field(args, p)
    args.transform(ctx, coeffs, plan_new(len(coeffs), ctx), args.engine)
    write_poly_file(args.output, p, coeffs)
    return 0


def _mul(args) -> int:
    p, f = read_poly_file(args.lhs)
    p2, g = read_poly_file(args.rhs)
    if p != p2:
        raise ValueError(f"moduli differ: {p} vs {p2}")
    ctx = _field(args, p)
    if args.path == "fft":
        result = multiply_full_fft(ctx, f, g)
    else:
        result = multiply_tft(ctx, f, g, args.path)
    write_poly_file(args.output, p, result)
    return 0


def _bench(args) -> int:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValueError(f"bad range [{args.n_min}, {args.n_max}]")
    emit_csv(bench_rows(_field(args), args.engine, args.seed, args.n_min, args.n_max),
             args.csv_path)
    return 0


def run_command(argv: list[str]) -> int:
    """Parse argv and run its command's handler; every failure of a command
    is one ``error:`` line on stderr and exit status 2."""
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse has printed its usage message
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:  # PolyFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
