#!/usr/bin/env python3
"""Print a digest of what the ``tft`` command line does in one checkout, for a diff.

Usage, with CHECKOUT holding ``src/tftlib``:

    python3 scripts/cli_digest.py PARENT > parent.txt
    python3 scripts/cli_digest.py CHANGE > change.txt
    diff parent.txt change.txt

The checkout's ``src/`` goes first on the import path, and each invocation
calls its ``tftlib.cli.run_command`` in a scratch directory, so every path
in an argv or a message is relative and the same in every checkout.  One
line per invocation: the argv, the exit code, a short hash of what it
printed to stdout, a short hash of each output file (``-`` when it wrote
none) and its stderr.  The benchmark CSV is hashed with its ``wall_nanos``
column dropped.

Invocations: ``ctft-fwd`` with each engine, ``ctft-inv``, ``brtft-fwd`` and
``brtft-inv`` at n = 1..70 and 2^k - 1, 2^k, 2^k + 1 up to 1025; ``mul``
once on each path at the same product lengths; ``bench --min 20
--max 40``; ``selftest``; then the malformed files and usage errors of
``tests/test_cli.py`` and the field errors of ``--modulus``.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

P = 2013265921
ENGINES = ("new", "sergeev", "mateer")
PATHS = ("cyclotomic", "bitreversed", "fft")

# (file name, bytes) of the malformed files; each is read by ctft-fwd
MALFORMED = [
    ("empty.poly", b""),
    ("q.poly", b"q 97\nn 2\n1 2\n"),
    ("len.poly", b"p 97\nn two\n1 2\n"),
    ("missing.poly", b"p 97\nn 2\n1\n"),
    ("range.poly", b"p 97\nn 2\n1 99\n"),
    ("extra.poly", b"p 97\nn 2\n1 2 3\n"),
    ("zero.poly", b"p 97\nn 0\n"),
    ("banana.poly", b"p 97\nn 2\n1 banana\n"),
    ("under.poly", b"p 97\nn 3\n1_0 5 0\n"),
    ("plus.poly", b"p 97\nn 3\n10 +5 0\n"),
    ("byte.poly", b"p 97\nn 3\n1 2\n\xff 0\n"),
    ("crlf.poly", b"# c\r\np 97\r\nn 2\r\n1 2\r\n"),
    ("p15.poly", b"p 15\nn 2\n1 2\n"),
]


def lengths() -> list[int]:
    edges = {(1 << k) + d for k in range(1, 11) for d in (-1, 0, 1)}
    return sorted(set(range(1, 71)) | edges)


def short(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=6).hexdigest()


def file_hash(name: str) -> str:
    """Short hash of an output file, which is then removed, or ``-``."""
    if not os.path.isfile(name):
        return "-"
    data = Path(name).read_bytes()
    if name.endswith(".csv"):
        rows = csv.reader(io.StringIO(data.decode()))
        data = "\n".join(",".join(r[:-1]) for r in rows).encode()
    os.remove(name)
    return short(data)


def write_poly(name: str, coeffs: list[int], p: int = P) -> str:
    Path(name).write_text(f"p {p}\nn {len(coeffs)}\n{' '.join(map(str, coeffs))}\n")
    return name


def invocations() -> list[tuple[list[str], list[str]]]:
    """(argv, output files) in run order; writes the input files as it goes."""
    runs = []
    for n in lengths():
        rng = random.Random(n)
        src = write_poly(f"in{n}.poly", [rng.randrange(P) for _ in range(n)])
        for engine in ENGINES:
            runs.append((["--engine", engine, "ctft-fwd", src, "out.poly"], ["out.poly"]))
        for cmd in ("ctft-inv", "brtft-fwd", "brtft-inv"):
            runs.append(([cmd, src, "out.poly"], ["out.poly"]))
        la = rng.randint(1, n)  # a product of length n
        lhs = write_poly(f"f{n}.poly", [rng.randrange(P) for _ in range(la - 1)] + [1])
        rhs = write_poly(f"g{n}.poly", [rng.randrange(P) for _ in range(n - la)] + [1])
        for path in PATHS:  # mul takes no engine
            runs.append((["mul", lhs, rhs, "out.poly", "--path", path], ["out.poly"]))
    runs.append((["bench", "--min", "20", "--max", "40", "--csv", "b.csv"], ["b.csv"]))
    runs.append((["selftest"], []))

    for name, body in MALFORMED:
        Path(name).write_bytes(body)
        runs.append((["ctft-fwd", name, "out.poly"], ["out.poly"]))
    small = write_poly("p97.poly", [1, 2, 3], 97)
    runs += [
        (["ctft-fwd", "nope.poly", "out.poly"], ["out.poly"]),
        (["frobnicate"], []),
        ([], []),
        (["ctft-fwd", small], []),
        (["--engine", "fast", "ctft-fwd", small, "out.poly"], ["out.poly"]),
        (["--modulus", "13", "ctft-fwd", small, "out.poly"], ["out.poly"]),
        (["--modulus", "97", "ctft-fwd", small, "out.poly"], ["out.poly"]),
        (["ctft-fwd", write_poly("p17.poly", [1] * 16, 17), "out.poly"], ["out.poly"]),
        (["mul", small, "in3.poly", "out.poly"], ["out.poly"]),
        (["mul", small, small, "out.poly", "--path", "fast"], ["out.poly"]),
        (["ctft-fwd", small, "."], []),
        (["bench", "--min", "5", "--max", "3", "--csv", "b.csv"], ["b.csv"]),
        (["bench", "--min", "0", "--max", "3", "--csv", "b.csv"], ["b.csv"]),
        (["bench", "--min", "2", "--max", "2", "--csv", "."], []),
    ]
    for modulus in ("0", "15", "97"):
        runs.append((["--modulus", modulus, "bench", "--min", "2", "--max", "3",
                      "--csv", "b.csv"], ["b.csv"]))
        runs.append((["--modulus", modulus, "selftest"], []))
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", type=Path, help="checkout whose src/ is run")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from tftlib.cli import run_command

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for cmd, outputs in invocations():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command(cmd)
            hashes = " ".join(file_hash(name) for name in outputs) or "-"
            print(f"{' '.join(cmd)} | exit {code} | stdout {short(out.getvalue().encode())} "
                  f"| files {hashes} | stderr {err.getvalue()!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
