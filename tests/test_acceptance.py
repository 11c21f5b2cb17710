"""Acceptance suite: every shipped guarantee, at its stated tolerance.

Each criterion prints one pass/fail line (shown via the -rP summary or -s).
All comparisons are exact; the operation-count criteria use the stated
closed-form budgets.  Sweep sizes can be trimmed for quick runs via
TFTLIB_ACCEPT_MAX_N / TFTLIB_ACCEPT_POLYS / TFTLIB_ACCEPT_CRT_MAX_N.
"""

import csv
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from tftlib import (ENGINES, FieldCtx, brtft_forward, brtft_inverse,
                    ctft_forward, ctft_inverse, eval_points_cyclotomic,
                    fft_in_place, find_root_of_unity, plan_new,
                    reduce_to_remainders, add_contribution)
from tftlib import oracle

import dense_oracle
from tftlib.bitops import bit, nonzero_criterion
from tftlib.cli import run_command

MAX_N = int(os.environ.get("TFTLIB_ACCEPT_MAX_N", "512"))
POLYS_PER_N = int(os.environ.get("TFTLIB_ACCEPT_POLYS", "20"))
CRT_MAX_N = int(os.environ.get("TFTLIB_ACCEPT_CRT_MAX_N", "256"))
SEED = 20130707
COUNT_SIZES = (86, 255, 256, 257, 1000, 4096)


def _criterion(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@dataclass
class SweepOutcome:
    engine_bad: list = field(default_factory=list)
    bridge_bad: list = field(default_factory=list)
    trip_bad: list = field(default_factory=list)
    fwd_seconds: float = 0.0
    cases: int = 0


@pytest.fixture(scope="module")
def ctx():
    return FieldCtx()


@pytest.fixture(scope="module")
def sweep(ctx):
    """One pass over n in [1, MAX_N] driving criteria 1-3."""
    p = ctx.p
    out = SweepOutcome()
    t_fwd = 0.0
    for n in range(1, MAX_N + 1):
        plan = plan_new(n, ctx)
        pts = list(eval_points_cyclotomic(plan))
        rng = np.random.default_rng([SEED, n])
        polys = rng.integers(0, p, size=(POLYS_PER_N, n), dtype=np.int64).tolist()

        t0 = time.perf_counter()
        wants = oracle.eval_batch(polys, pts, p)
        results = {}
        for engine in ENGINES:
            for f, want in zip(polys, wants):
                a = list(f)
                ctft_forward(ctx, a, plan, engine)
                if a != want:
                    out.engine_bad.append((n, engine))
                    break
                results[id(f), engine] = a
                out.cases += 1
        t_fwd += time.perf_counter() - t0

        for f in polys:
            a = results.get((id(f), "new"))
            if a is None:
                continue
            a = list(a)
            ctft_inverse(ctx, a, plan)
            if a != f:
                out.trip_bad.append((n, "ctft"))
                break

        for f in polys:
            padded = f + [0] * (plan.N - n)
            fft_in_place(ctx, padded, plan.N)
            b = list(f)
            brtft_forward(ctx, b, plan)
            if b != padded[:n]:
                out.bridge_bad.append(n)
                break
            brtft_inverse(ctx, b, plan)
            if b != f:
                out.trip_bad.append((n, "brtft"))
                break
    out.fwd_seconds = t_fwd
    return out


def test_criterion_1_oracle_equivalence(sweep):
    ok = not sweep.engine_bad and sweep.fwd_seconds <= 60.0
    _criterion(1, ok,
               f"all engines match naive evaluation for n in [1, {MAX_N}], "
               f"{POLYS_PER_N} polynomials each ({sweep.cases} cases, "
               f"{sweep.fwd_seconds:.1f}s <= 60s)"
               + (f"; mismatches {sweep.engine_bad[:5]}" if sweep.engine_bad else ""))


def test_criterion_2_bridge_master(sweep):
    ok = not sweep.bridge_bad
    _criterion(2, ok,
               f"bit-reversed transform equals the padded transform prefix for "
               f"n in [1, {MAX_N}]"
               + (f"; mismatches at n={sweep.bridge_bad[:5]}" if sweep.bridge_bad else ""))


def test_criterion_3_round_trips(sweep):
    ok = not sweep.trip_bad
    _criterion(3, ok,
               f"forward/inverse round trips are exact for n in [1, {MAX_N}]"
               + (f"; failures {sweep.trip_bad[:5]}" if sweep.trip_bad else ""))


def test_criterion_4_counted_bounds(ctx):
    p = ctx.p
    problems = []
    for n in COUNT_SIZES:
        plan = plan_new(n, ctx)
        rng = np.random.default_rng([SEED, 4, n])
        f = rng.integers(0, p, size=n, dtype=np.int64).tolist()

        a = list(f)
        with ctx.count_session() as sess:
            from tftlib import break_in_place
            break_in_place(ctx, a, plan)
        if not (sess.add <= 3 * n and sess.pow2 <= 2 * n and sess.mul == 0):
            problems.append((n, "break", sess.ops))

        b = list(f)
        reduce_to_remainders(ctx, b, plan)
        contrib_add = contrib_mul = 0
        for i in range(2, plan.s + 1):
            with ctx.count_session() as sess:
                add_contribution(ctx, b, plan, i)
            contrib_add += sess.add
            contrib_mul += sess.mul
        if not (contrib_add <= 2 * n and contrib_mul == 0):
            problems.append((n, "contribution", (contrib_add, contrib_mul)))

        size = plan.N
        logn = size.bit_length() - 1
        c = f + [0] * (size - n)
        with ctx.count_session() as sess:
            fft_in_place(ctx, c, size)
        if not (sess.mul <= size * logn // 2 + 2 * size and sess.add == size * logn):
            problems.append((n, "fft", sess.ops))

        d = list(f)
        with ctx.count_session() as sess:
            ctft_forward(ctx, d, plan, "new")
        if sess.mul > 0.5 * n * math.log2(n) + 4 * n:
            problems.append((n, "forward", sess.mul))
    _criterion(4, not problems,
               f"operation counts within budget at n in {COUNT_SIZES}"
               + (f"; violations {problems}" if problems else ""))


def test_criterion_5_smoothness(tmp_path):
    lo, hi = 2**8 - 8, 2**8 + 8
    path = str(tmp_path / "bench.csv")
    status = run_command(["bench", "--min", str(lo), "--max", str(hi),
                          "--csv", path])
    mul = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            mul[int(row["n"]), row["algo"]] = int(row["mul"])
    fft_ratio = mul[257, "mul-fft"] / mul[256, "mul-fft"]
    tft_ratio = mul[257, "mul-ctft"] / mul[256, "mul-ctft"]
    ok = status == 0 and fft_ratio >= 1.8 and tft_ratio <= 1.15
    _criterion(5, ok,
               f"bench over [{lo}, {hi}]: padded-transform multiplication jumps "
               f"x{fft_ratio:.2f} at 256->257 while the truncated path moves "
               f"x{tft_ratio:.3f}")


def test_criterion_6_survival_criterion_sweeps(ctx):
    p = ctx.p
    problems = []
    checked = 0
    for n in range(2, CRT_MAX_N + 1):
        plan = plan_new(n, ctx)
        for i in range(1, plan.s):
            for j in range(1, i + 1):
                for e, cyc, neg in dense_oracle.basis_image_sweep(plan, i, j):
                    survives = nonzero_criterion(e, j, i + 1, plan)
                    wt = pow(2, i - j, p)
                    for m, got in cyc.items():
                        want = [0] * m
                        if survives:
                            want[e % m] = wt
                        if got != want:
                            problems.append((n, i, j, e, ("cyc", m)))
                    for k, got in neg.items():
                        nk = plan.size(k)
                        want = [0] * nk
                        if survives:
                            want[e % nk] = wt if bit(e, plan.exp(k)) == 0 else -wt % p
                        if got != want:
                            problems.append((n, i, j, e, ("neg", k)))
                    checked += 1
        # survivor density: exactly n_j / 2^(k-1-j) exponents reach block k
        for j in range(1, plan.s):
            for k in range(j + 1, plan.s + 1):
                count = sum(nonzero_criterion(e, j, k, plan)
                            for e in range(plan.size(j)))
                if count != plan.size(j) >> (k - 1 - j):
                    problems.append((n, j, k, "density"))

    plan86 = plan_new(86, ctx)
    example_rows = {20: [4, 0], 33: [0, 0], 23: [0, p - 4]}
    for e, want in example_rows.items():
        f = oracle.crt_basis_poly(plan86, 3, 1, e)
        c3 = oracle.combined_image(f, plan86, 3).image
        if oracle.naive_mod_reduce(c3, 2, p - 1, p) != want:
            problems.append((86, "example", e))

    _criterion(6, not problems,
               f"survival-criterion sweeps for n <= {CRT_MAX_N} "
               f"({checked} basis rows) incl. the worked n=86 rows and densities"
               + (f"; violations {problems[:5]}" if problems else ""))


def test_criterion_7_pruned_kernel_vector(ctx):
    p = ctx.p
    w = find_root_of_unity(ctx, 8)
    w2 = w * w % p
    f = [p - 1, 0, 0, (1 - w2) % p, p - 1, (1 + w2) % p]
    values = oracle.pruned_dft(f, {0, 3, 4, 5}, w, 8, p)
    _criterion(7, values == [0, 0, 0, 0],
               f"size-8 pruned map on {{0,3,4,5}} kills the kernel vector "
               f"(values {values})")


def test_criterion_8_space_accounting(ctx):
    p = ctx.p
    problems = []
    for n in (86, 255, 256, 257, 1000):
        plan = plan_new(n, ctx)
        rng = np.random.default_rng([SEED, 8, n])
        f = rng.integers(0, p, size=n, dtype=np.int64).tolist()
        for engine in ENGINES:
            a = list(f)
            with ctx.count_session() as sess:
                ctft_forward(ctx, a, plan, engine)
            if engine == "mateer":
                if sess.alloc != (plan.N if plan.s > 1 else 0):
                    problems.append((n, engine, sess.alloc))
            elif sess.alloc > 16:
                problems.append((n, engine, sess.alloc))
    _criterion(8, not problems,
               "single-buffer engines allocate no tracked scratch (<= 16 "
               "elements allowed); the full-buffer engine allocates exactly N "
               "from two blocks on and none at n = 2^k"
               + (f"; violations {problems}" if problems else ""))
