import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tftlib import (ENGINES, FieldCtx, add_contribution, break_in_place,
                    ctft_forward, ctft_inverse, eval_points_cyclotomic,
                    fft_in_place, mateer_break, plan_new, reduce_to_remainders,
                    sergeev_break, unbreak_in_place)
from tftlib import oracle
from tftlib.ctft import break_counts

SWEEP_SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 11, 15, 16, 21, 31, 32, 33, 48, 86,
               100, 127, 128, 129, 171, 255, 256, 257, 300, 341, 500, 512]


def naive_images(f, plan, p):
    return [oracle.naive_mod_reduce(f, plan.size(i), p - 1, p)
            for i in range(1, plan.s + 1)]


def blocks_of(a, plan):
    return [a[plan.offset(i):plan.offset(i) + plan.size(i)]
            for i in range(1, plan.s + 1)]


def break_doublings(plan):
    """Block i is doubled once per earlier image, in both directions."""
    return sum((i - 1) * plan.size(i) for i in range(2, plan.s + 1))


def break_additions(plan):
    """The fold's tails plus n_j >> (i-1-j) survivors of each image j < i."""
    return (sum(plan.tail(i) for i in range(1, plan.s))
            + sum(plan.size(j) >> (i - 1 - j)
                  for i in range(2, plan.s + 1) for j in range(1, i)))


def sergeev_tallies(plan):
    """(mul, pow2, add) of sergeev_break, step by step down the chain z^K - 1.

    With images 1..i extracted, a step at a set bit (K/2 = n_(i+1)) adds
    2 tail(i+1) for its butterflies and rebuilds K/2 - tail(i+1) coefficients
    when i >= 1; a step at a zero bit rebuilds tail(i).  Each rebuilt
    coefficient costs its surviving terms plus one additions and i - 1
    doublings.  Image j contributes r_j 2^popcount(free_j) terms: runs of
    r_j = (lowest bit of mask_j) / K exponents, or n_j / K when the mask
    n_(j+1) + ... + n_i is 0, one run per subset of the free bits above them.
    """
    pow2 = add = 0
    i, k = 0, plan.N
    while k > plan.size(plan.s):
        kh = k >> 1
        block = i < plan.s and kh == plan.size(i + 1)
        if block:
            add += 2 * plan.tail(i + 1)
            rebuilt = kh - plan.tail(i + 1) if i else 0
        else:
            rebuilt = plan.tail(i)
        terms = 0
        for j in range(1, i + 1):
            mask = plan.tail(j) - plan.tail(i)
            run = mask & -mask or plan.size(j)
            free = (plan.size(j) - 1) & ~mask & -run
            terms += run // k << bin(free).count("1")
        add += rebuilt * (terms + 1)
        pow2 += rebuilt * (i - 1)
        i += block
        k = kh
    return 0, pow2, add


# 2^k - 1 (k blocks) and 2^k + 1 (two blocks) for k <= 16
EDGE_SIZES = [2**k + d for k in range(1, 17) for d in (-1, 1)]
# several zero bits between set bits, so that Sergeev's rebuilt coefficients
# gather many survivor runs (2^16 + 2^8 + 1: 128 runs each from image 1)
MANY_RUN_SIZES = [2**12 + 2**5 + 1, 2**11 + 2**10 + 2**3 + 1, 0b1001001001,
                  0b110000000011, 0b101010101011, 2**16 + 2**8 + 1]


def test_reduce_to_remainders_example(ctx5):
    plan = plan_new(3, ctx5)
    a = [1, 2, 3]
    reduce_to_remainders(ctx5, a, plan)
    assert a == [3, 2, 3]  # r_1 = 3 + 2z, r_2 = q_1 = 3


def test_reduce_single_block_is_identity(ctx):
    plan = plan_new(64, ctx)
    f = list(range(64))
    a = list(f)
    reduce_to_remainders(ctx, a, plan)
    assert a == f


def test_reduce_zero(ctx):
    plan = plan_new(86, ctx)
    a = [0] * 86
    reduce_to_remainders(ctx, a, plan)
    assert a == [0] * 86


def test_add_contribution_n3_trace(ctx5):
    plan = plan_new(3, ctx5)
    a = [1, 2, 3]
    reduce_to_remainders(ctx5, a, plan)
    assert a == [3, 2, 3]                 # r_2 = 3
    add_contribution(ctx5, a, plan, 2)    # 2*r_2 = 1, survivors of f_1: +3 (e=0), -2 (e=1)
    assert a == [3, 2, 2]                 # f_2 = f(-1) = 2


def test_add_contribution_zero_sources(ctx):
    plan = plan_new(86, ctx)
    a = [0] * 86
    a[84] = 5
    a[85] = 7
    add_contribution(ctx, a, plan, 4)
    assert a[84] == 40 and a[85] == 56  # zero images contribute nothing: 2^3 * r_4


def test_add_contribution_n86_basis_term(ctx):
    # f_1 = z^20, f_2 = f_3 = 0, block 4 zeroed: the only survivor lands in
    # slot 0 of block 4 with weight 2^(4-1-1), the oracle's row 4*z^0
    plan = plan_new(86, ctx)
    a = [0] * 86
    a[20] = 1
    with ctx.count_session() as sess:
        add_contribution(ctx, a, plan, 4)
    assert a[plan.offset(4):] == [4, 0]
    assert sess.mul == 0


def test_break_example_and_inverse(ctx5):
    plan = plan_new(3, ctx5)
    a = [1, 2, 3]
    break_in_place(ctx5, a, plan)
    assert a == [3, 2, 2]  # f mod (z^2+1) = 3+2z, f mod (z+1) = 2
    unbreak_in_place(ctx5, a, plan)
    assert a == [1, 2, 3]


def _single_block_is_identity(ctx, n):
    # at n = N every engine leaves f, its one image, as it is and counts
    # nothing; mateer_break's N slots are the n slots
    plan = plan_new(n, ctx)
    f = list(range(n))
    for engine in (break_in_place, sergeev_break, mateer_break):
        a = list(f)
        with ctx.count_session() as sess:
            engine(ctx, a, plan)
        assert a == f, engine.__name__
        assert (sess.mul, sess.pow2, sess.add) == (0, 0, 0), engine.__name__


def test_break_single_block_identity(ctx):
    _single_block_is_identity(ctx, 128)


def test_break_zero(ctx):
    plan = plan_new(21, ctx)
    a = [0] * 21
    break_in_place(ctx, a, plan)
    assert a == [0] * 21


@pytest.mark.parametrize("n", SWEEP_SIZES)
def test_break_matches_naive_reduction(ctx, n):
    p = ctx.p
    plan = plan_new(n, ctx)
    rng = random.Random(n)
    for trial in range(5):
        f = [rng.randrange(p) for _ in range(n)]
        a = list(f)
        break_in_place(ctx, a, plan)
        assert blocks_of(a, plan) == naive_images(f, plan, p)
        unbreak_in_place(ctx, a, plan)
        assert a == f


def test_break_linearity(ctx):
    p = ctx.p
    plan = plan_new(100, ctx)
    rng = random.Random(10)
    f = [rng.randrange(p) for _ in range(100)]
    g = [rng.randrange(p) for _ in range(100)]
    alpha, beta = rng.randrange(p), rng.randrange(p)
    combo = [(alpha * x + beta * y) % p for x, y in zip(f, g)]
    for buf in (f, g, combo):
        buf_broken = list(buf)
        break_in_place(ctx, buf_broken, plan)
        buf[:] = buf_broken
    assert combo == [(alpha * x + beta * y) % p for x, y in zip(f, g)]


@pytest.mark.parametrize("n", SWEEP_SIZES)
def test_engines_agree_on_images(ctx, n):
    p = ctx.p
    plan = plan_new(n, ctx)
    rng = random.Random(1000 + n)
    for trial in range(5):
        f = [rng.randrange(p) for _ in range(n)]
        ref = list(f)
        break_in_place(ctx, ref, plan)

        srg = list(f)
        sergeev_break(ctx, srg, plan)
        assert srg == ref

        buf = f + [0] * (plan.N - n)
        with ctx.count_session() as sess:
            mateer_break(ctx, buf, plan)
        assert sess.mul == 0 and sess.pow2 == 0
        if plan.s == 1:
            assert buf[:n] == ref
        else:
            for i in range(1, plan.s + 1):
                ni = plan.size(i)
                assert buf[ni:2 * ni] == ref[plan.offset(i):plan.offset(i) + ni]


def test_mateer_requires_full_buffer(ctx):
    plan = plan_new(86, ctx)
    with pytest.raises(ValueError):
        mateer_break(ctx, [0] * 86, plan)


def test_sergeev_single_block_identity(ctx):
    _single_block_is_identity(ctx, 32)


def test_sergeev_uses_no_general_multiplications(ctx):
    p = ctx.p
    plan = plan_new(86, ctx)
    rng = random.Random(11)
    a = [rng.randrange(p) for _ in range(86)]
    with ctx.count_session() as sess:
        sergeev_break(ctx, a, plan)
    assert sess.mul == 0
    assert sess.alloc == 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n", SWEEP_SIZES)
def test_forward_matches_naive_evaluation(ctx, n, engine):
    p = ctx.p
    plan = plan_new(n, ctx)
    pts = list(eval_points_cyclotomic(plan))
    rng = random.Random(2000 + n)
    polys = [[rng.randrange(p) for _ in range(n)] for _ in range(3)]
    wants = oracle.eval_batch(polys, pts, p)
    for f, want in zip(polys, wants):
        a = list(f)
        ctft_forward(ctx, a, plan, engine)
        assert a == want


def test_forward_constant_n1(ctx):
    plan = plan_new(1, ctx)
    a = [7]
    ctft_forward(ctx, a, plan)
    assert a == [7]  # f constant: f(-1) = a_0


def test_unknown_engine_rejected(ctx):
    with pytest.raises(ValueError):
        ctft_forward(ctx, [1, 2, 3], plan_new(3, ctx), "fancy")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n", SWEEP_SIZES)
def test_forward_inverse_round_trip(ctx, n, engine):
    p = ctx.p
    plan = plan_new(n, ctx)
    rng = random.Random(3000 + n)
    f = [rng.randrange(p) for _ in range(n)]
    a = list(f)
    ctft_forward(ctx, a, plan, engine)
    ctft_inverse(ctx, a, plan)  # one inverse serves every engine
    assert a == f


def test_inverse_constant(ctx):
    plan = plan_new(86, ctx)
    a = [5] + [0] * 85
    ctft_forward(ctx, a, plan)
    ctft_inverse(ctx, a, plan)
    assert a == [5] + [0] * 85


@pytest.mark.parametrize("n", [86, 255, 256, 257, 1000])
def test_break_operation_bounds(ctx, n):
    p = ctx.p
    plan = plan_new(n, ctx)
    rng = random.Random(n)
    f = [rng.randrange(p) for _ in range(n)]
    a = list(f)
    with ctx.count_session() as sess:
        break_in_place(ctx, a, plan)
    assert sess.mul == 0
    assert sess.add <= 3 * n
    assert sess.pow2 <= 2 * n
    assert sess.alloc == 0


@pytest.mark.parametrize("n", [86, 255, 257, 1000])
def test_cumulative_contribution_bounds(ctx, n):
    p = ctx.p
    plan = plan_new(n, ctx)
    rng = random.Random(n)
    a = [rng.randrange(p) for _ in range(n)]
    reduce_to_remainders(ctx, a, plan)
    total_add = total_mul = 0
    for i in range(2, plan.s + 1):
        with ctx.count_session() as sess:
            add_contribution(ctx, a, plan, i)
        total_add += sess.add
        total_mul += sess.mul
    assert total_mul == 0
    assert total_add <= 2 * n


@pytest.mark.parametrize("sizes", [range(1, 601), (1000, 4096), EDGE_SIZES])
def test_break_doublings_are_nested(ctx, sizes):
    p = ctx.p
    for n in sizes:
        plan = plan_new(n, ctx)
        want = break_doublings(plan)
        assert want <= n - 1
        rng = random.Random(n)
        f = [rng.randrange(p) for _ in range(n)]
        a = list(f)
        with ctx.count_session() as fwd:
            break_in_place(ctx, a, plan)
        with ctx.count_session() as inv:
            unbreak_in_place(ctx, a, plan)
        # both directions tally what ctft's closed form predicts
        assert (fwd.pow2, inv.pow2, break_counts(plan)[1]) == (want, want, want), n
        assert a == f


@pytest.mark.parametrize("sizes", [range(1, 601), (4095, 21845, 65535), EDGE_SIZES])
def test_break_additions_closed_form(ctx, sizes):
    p = ctx.p
    for n in sizes:
        plan = plan_new(n, ctx)
        want = break_additions(plan)
        rng = random.Random(n)
        a = [rng.randrange(p) for _ in range(n)]
        with ctx.count_session() as fwd:
            break_in_place(ctx, a, plan)
        with ctx.count_session() as inv:
            unbreak_in_place(ctx, a, plan)
        assert (fwd.add, inv.add, break_counts(plan)[0]) == (want, want, want), n


# runs of many short chunks, folded by strided sums: n_i > 1 (4098..4104,
# 65538), several blocks with many runs per source image (4161 = 4096 + 64 + 1)
# and a plan mixing both loop orders (4353 = 4096 + 256 + 1: 8 chunk pairs per
# run into block 2, 128 into block 3)
@pytest.mark.parametrize("n", [4097, 4098, 4100, 4104, 4161, 4353, 65538])
def test_break_of_short_chunk_runs(ctx, n):
    p = ctx.p
    plan = plan_new(n, ctx)
    rng = random.Random(n)
    f = [rng.randrange(p) for _ in range(n)]
    a = list(f)
    with ctx.count_session() as fwd:
        break_in_place(ctx, a, plan)
    assert blocks_of(a, plan) == naive_images(f, plan, p)
    with ctx.count_session() as inv:
        unbreak_in_place(ctx, a, plan)
    assert a == f
    want = (0, break_doublings(plan), break_additions(plan))
    assert (fwd.mul, fwd.pow2, fwd.add) == want
    assert (inv.mul, inv.pow2, inv.add) == want


def traced_scratch(ctx, n, run):
    """Traced peak of run(a), above the larger of the buffer before and after it.

    CPython sizes an int's memory block by the operation that made it, not
    by its value, and randrange makes smaller blocks than the engines' sums
    and reductions do.  Rewriting such slots would grow the buffer by a few
    bytes each, so the buffer is loaded through arithmetic, as the engines
    write it.
    """
    rng = random.Random(n)
    tracemalloc.start()
    try:
        a = [(rng.randrange(ctx.p) + 1) - 1 for _ in range(n)]
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(a)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - max(before, after)


@pytest.mark.parametrize("n", [4161, 65537])
def test_break_and_unbreak_scratch_is_constant(ctx, n):
    # the passes read sources through iterators: a slice or list temporary of
    # the buffer would show in the peak (half of it is 262 kB at 65537)
    plan = plan_new(n, ctx)

    def round_trip(a):
        break_in_place(ctx, a, plan)
        unbreak_in_place(ctx, a, plan)

    assert traced_scratch(ctx, n, round_trip) < 4096


# one long strided run per rebuilt coefficient (65537), 128 short runs per
# coefficient (2^16 + 2^8 + 1) and k blocks at 2^k - 1: the runs are walked,
# never stored
@pytest.mark.parametrize("n", [1023, 4095, 65535, 65537, 2**16 + 2**8 + 1])
def test_sergeev_scratch_is_constant(ctx, n):
    plan = plan_new(n, ctx)
    assert traced_scratch(ctx, n, lambda a: sergeev_break(ctx, a, plan)) < 4096


def test_sergeev_additions_at_power_of_two_plus_one(ctx):
    # one butterfly (2 additions), then each of the k halvings rebuilds one
    # coefficient from image 1 alone: its n_1 / K terms plus one addition into
    # its slot, n_1 - 1 + k in all; nothing is rebuilt before the first image
    # exists
    p = ctx.p
    for k in range(1, 15):
        n = (1 << k) + 1
        plan = plan_new(n, ctx)
        rng = random.Random(n)
        a = [rng.randrange(p) for _ in range(n)]
        with ctx.count_session() as sess:
            sergeev_break(ctx, a, plan)
        assert (sess.mul, sess.pow2, sess.add) == (0, 0, n + k), n


@pytest.mark.parametrize("sizes", [SWEEP_SIZES,
                                   [2**k + d for k in range(1, 15) for d in (-1, 1)],
                                   MANY_RUN_SIZES])
def test_sergeev_tallies_closed_form(ctx, sizes):
    p = ctx.p
    for n in sizes:
        plan = plan_new(n, ctx)
        rng = random.Random(n)
        a = [rng.randrange(p) for _ in range(n)]
        with ctx.count_session() as sess:
            sergeev_break(ctx, a, plan)
        assert (sess.mul, sess.pow2, sess.add) == sergeev_tallies(plan), n


@pytest.mark.parametrize("n", [65535, 21845, 65537] + MANY_RUN_SIZES)
def test_engines_match_naive_reduction_at_scale(ctx, n):
    p = ctx.p
    plan = plan_new(n, ctx)
    rng = random.Random(n)
    f = [rng.randrange(p) for _ in range(n)]
    want = naive_images(f, plan, p)

    a = list(f)
    break_in_place(ctx, a, plan)
    assert blocks_of(a, plan) == want
    unbreak_in_place(ctx, a, plan)
    assert a == f

    a = list(f)
    sergeev_break(ctx, a, plan)
    assert blocks_of(a, plan) == want

    buf = f + [0] * (plan.N - n)
    mateer_break(ctx, buf, plan)
    assert [buf[plan.size(i):2 * plan.size(i)] for i in range(1, plan.s + 1)] == want


@pytest.mark.parametrize("n", [86, 255, 256, 257, 1000])
def test_forward_multiplication_bound(ctx, n):
    p = ctx.p
    plan = plan_new(n, ctx)
    rng = random.Random(n)
    a = [rng.randrange(p) for _ in range(n)]
    with ctx.count_session() as sess:
        ctft_forward(ctx, a, plan, "new")
    assert sess.mul <= 0.5 * n * math.log2(n) + 4 * n


@pytest.mark.parametrize("n", [86, 255, 256, 257, 1000, 4096])
def test_forward_multiplications_are_butterflies_and_twiddles(ctx, n):
    # block butterflies total at most (n/2)*log2(n), and each block's twiddle
    # runs add n_i - 1 - log2(n_i); the twist-1 stage starts are ladder roots
    p = ctx.p
    plan = plan_new(n, ctx)
    rng = random.Random(n)
    a = [rng.randrange(p) for _ in range(n)]
    with ctx.count_session() as sess:
        ctft_forward(ctx, a, plan, "new")
    assert sess.mul == sum(plan.size(i) // 2 * plan.exp(i) + plan.size(i) - 1 - plan.exp(i)
                           for i in range(1, plan.s + 1))
    assert sess.mul <= 0.5 * n * math.log2(n) + n


@pytest.mark.parametrize("engine", ENGINES)
def test_forward_at_power_of_two_costs_fft(ctx, engine):
    # one block, evaluated with twist 1: the same (mul, pow2, add) as the FFT
    for k in range(13):
        n = 1 << k
        plan = plan_new(n, ctx)
        with ctx.count_session() as s_ctft:
            ctft_forward(ctx, [1] * n, plan, engine)
        with ctx.count_session() as s_fft:
            fft_in_place(ctx, [1] * n, n)
        assert s_ctft.ops == s_fft.ops, n


@pytest.mark.parametrize("engine", ENGINES)
def test_space_accounting(ctx, engine):
    p = ctx.p
    for n in (86, 257, 128):  # 128: one block, no copy back from mateer's N slots
        plan = plan_new(n, ctx)
        rng = random.Random(n)
        a = [rng.randrange(p) for _ in range(n)]
        with ctx.count_session() as sess:
            ctft_forward(ctx, a, plan, engine)
        if engine == "mateer":
            assert sess.alloc == plan.N
        else:
            assert sess.alloc == 0


@given(st.integers(min_value=1, max_value=200), st.data())
@settings(max_examples=40, deadline=None)
def test_break_round_trip_property(n, data):
    ctx = FieldCtx()
    plan = plan_new(n, ctx)
    f = data.draw(st.lists(st.integers(min_value=0, max_value=ctx.p - 1),
                           min_size=n, max_size=n))
    a = list(f)
    break_in_place(ctx, a, plan)
    unbreak_in_place(ctx, a, plan)
    assert a == f
