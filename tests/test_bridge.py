import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tftlib import (FieldCtx, brtft_forward, brtft_inverse, ctft_forward, ctft_inverse,
                    dwt, eval_points_bitreversed, fft_in_place, idwt, ifft_in_place,
                    multiply_full_fft, multiply_tft, plan_new)
from tftlib import oracle
from tftlib.bridge import _ROWS_MIN, _transform_length, poly_degree

from test_rows import LENGTHS, _at, _operands, _reference

SWEEP_SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
               86, 100, 127, 128, 129, 171, 255, 256, 257, 300, 500, 512]


def test_brtft_example_f5(ctx5):
    plan = plan_new(3, ctx5)
    a = [1, 2, 3]
    brtft_forward(ctx5, a, plan)
    assert a == [1, 2, 2]  # (f(1), f(4), f(2)) with omega = 2


def test_brtft_full_length_equals_fft(ctx):
    # at n = 2^k the truncated transform is the padded FFT, at the same cost
    p = ctx.p
    rng = random.Random(0)
    for k in range(13):
        n = 1 << k
        plan = plan_new(n, ctx)
        f = [rng.randrange(p) for _ in range(n)]
        a, b = list(f), list(f)
        with ctx.count_session() as s_br:
            brtft_forward(ctx, a, plan)
        with ctx.count_session() as s_fft:
            fft_in_place(ctx, b, n)
        assert a == b
        assert (s_br.mul, s_br.pow2, s_br.add) == (s_fft.mul, s_fft.pow2, s_fft.add)


@pytest.mark.parametrize("n", SWEEP_SIZES)
def test_brtft_is_prefix_of_padded_fft(ctx, n):
    # master equivalence: first n entries of the bit-reversed DFT of the
    # zero-padded input
    p = ctx.p
    plan = plan_new(n, ctx)
    rng = random.Random(n)
    for trial in range(5):
        f = [rng.randrange(p) for _ in range(n)]
        padded = f + [0] * (plan.N - n)
        fft_in_place(ctx, padded, plan.N)
        a = list(f)
        brtft_forward(ctx, a, plan)
        assert a == padded[:n]


@pytest.mark.parametrize("n", SWEEP_SIZES)
def test_brtft_round_trip(ctx, n):
    p = ctx.p
    plan = plan_new(n, ctx)
    rng = random.Random(100 + n)
    f = [rng.randrange(p) for _ in range(n)]
    a = list(f)
    brtft_forward(ctx, a, plan)
    brtft_inverse(ctx, a, plan)
    assert a == f


def test_brtft_n1_identity(ctx):
    plan = plan_new(1, ctx)
    a = [11]
    brtft_forward(ctx, a, plan)
    assert a == [11]  # f(1) for a constant
    brtft_inverse(ctx, a, plan)
    assert a == [11]


def test_length_one_transforms_reduce_into_the_field(ctx):
    p = ctx.p
    plan = plan_new(1, ctx)
    calls = {
        "fft": (lambda a: fft_in_place(ctx, a, 1), lambda a: ifft_in_place(ctx, a, 1)),
        "dwt": (lambda a: dwt(ctx, a, 1, 1), lambda a: idwt(ctx, a, 1, 1)),
        "ctft": (lambda a: ctft_forward(ctx, a, plan), lambda a: ctft_inverse(ctx, a, plan)),
        "brtft": (lambda a: brtft_forward(ctx, a, plan), lambda a: brtft_inverse(ctx, a, plan)),
    }
    for name, fns in calls.items():
        for fn in fns:
            for x, want in ((-1, p - 1), (p + 5, 5)):
                a = [x]
                fn(a)
                assert a == [want], (name, fn, x)


def test_brtft_values_match_grid_points(ctx):
    p = ctx.p
    n = 86
    plan = plan_new(n, ctx)
    pts = list(eval_points_bitreversed(plan))
    rng = random.Random(5)
    f = [rng.randrange(p) for _ in range(n)]
    want = oracle.eval_batch([f], pts, p)[0]
    a = list(f)
    brtft_forward(ctx, a, plan)
    assert a == want


def test_truncated_beats_padded_at_power_plus_one(ctx):
    # the motivating regime n = 2^k + 1: the truncated inverse pipeline costs
    # far less than transforms at the doubled padded length
    p = ctx.p
    k = 8
    n = (1 << k) + 1
    plan = plan_new(n, ctx)
    rng = random.Random(6)
    f = [rng.randrange(p) for _ in range(n)]
    a = list(f)
    with ctx.count_session() as tft_sess:
        brtft_forward(ctx, a, plan)
        brtft_inverse(ctx, a, plan)
    assert a == f
    padded = f + [0] * (plan.N - n)
    with ctx.count_session() as fft_sess:
        fft_in_place(ctx, padded, plan.N)
    # one padded forward transform alone out-multiplies the whole round trip
    assert tft_sess.mul < 2 * fft_sess.mul
    assert fft_sess.mul > 1.5 * (0.5 * n * math.log2(n))


# Worst total-op ratio, minus 1, of each truncated forward transform against
# the padded FFT of length N over n = 3..1100 (n = 511 and n = 63).  Tighten
# these as the counts fall; never loosen them.
MARGIN = {"ctft_forward": 0.060, "brtft_forward": 0.234}


def test_truncated_transforms_within_margin_of_padded(ctx):
    def total(sess):
        return sess.mul + sess.pow2 + sess.add

    padded = {}
    for n in range(3, 1101):
        plan = plan_new(n, ctx)
        if plan.N not in padded:
            with ctx.count_session() as sess:
                fft_in_place(ctx, [0] * plan.N, plan.N)
            padded[plan.N] = total(sess)
        for fn in (ctft_forward, brtft_forward):
            with ctx.count_session() as sess:
                fn(ctx, [0] * n, plan)
            assert total(sess) <= (1 + MARGIN[fn.__name__]) * padded[plan.N], (fn.__name__, n)


# Worst total-op ratio, minus 1, of each truncated product against the
# padded product of the same operands over n = 3..1100 and 2^k +- 1 up to
# 16385, at transform length exactly n (n = 511 and n = 63).  Tighten these
# as the counts fall; never loosen them.
PRODUCT_MARGIN = {"cyclotomic": 0.057, "bitreversed": 0.218}
# The same for the public product, which runs at bridge._transform_length:
# the cyclotomic one ties with the padded product where m = N, and the
# bit-reversed one is worst at n = 7.
PUBLIC_PRODUCT_MARGIN = {"cyclotomic": 0.000, "bitreversed": 0.067}


def _product_totals(ctx):
    """(path, n, total ops of multiply_tft, total ops of multiply_full_fft)
    over the sweep of the margins above."""
    def total(sess):
        return sess.mul + sess.pow2 + sess.add

    for n in [*range(3, 1101), *(2**k + d for k in range(11, 15) for d in (-1, 1))]:
        f, g = [1] * (n // 2), [2] * (n + 1 - n // 2)
        with ctx.count_session() as sess:
            multiply_full_fft(ctx, f, g)
        padded = total(sess)
        for path in PRODUCT_MARGIN:
            with ctx.count_session() as sess:
                multiply_tft(ctx, f, g, path)
            yield path, n, total(sess), padded


@pytest.mark.usefixtures("exact_length")
def test_truncated_products_within_margin_of_padded(ctx):
    for path, n, tft, padded in _product_totals(ctx):
        assert tft <= (1 + PRODUCT_MARGIN[path]) * padded, (path, n)


def test_public_products_within_margin_of_padded(ctx):
    for path, n, tft, padded in _product_totals(ctx):
        assert tft <= (1 + PUBLIC_PRODUCT_MARGIN[path]) * padded, (path, n)


def test_transform_length_is_the_least_with_three_blocks():
    for n in range(1, 5001):
        m, N = _transform_length(n), 1 << (n - 1).bit_length()
        assert n <= m <= N and m.bit_count() <= 3, n
        assert 7 * m < 8 * n or m == n, n
        assert all(k.bit_count() > 3 for k in range(n, m)), n


# 2^k - 1 runs at 2^k and 23 at 24 on the list path; LENGTHS adds the
# many-block lengths and 2^k + 1
@pytest.mark.parametrize("path", ["cyclotomic", "bitreversed"])
@pytest.mark.parametrize("n", sorted(set(LENGTHS) | {23} | {2**k - 1 for k in range(2, 15)}))
def test_public_products_are_the_composition_at_the_transform_length(ctx, n, path):
    # a product is exact at any m >= n, so f padded to length m - n + len(f)
    # gives the reference at m: the same output, and the counts the public
    # product takes
    f, g = _operands(ctx.p, n, n)
    m = _transform_length(n)
    want, counts = _reference(ctx, f + [0] * (m - n), g, path)
    with ctx.count_session() as sess:
        h = multiply_tft(ctx, f, g, path)
    assert h == want[:n]
    assert (sess.mul, sess.pow2, sess.add) == counts


@pytest.mark.parametrize("n", [29, 31, 40, 63, 255, 257, 495, 1023, 1025, 1365, 4095, 5461])
def test_public_bitreversed_product_adds_only_the_two_power_rows(n):
    # at m < N the two Omega_s power rows, of m elements each; at m = N both
    # paths run the padded product
    ctx = FieldCtx()
    f, g = _operands(ctx.p, n, n)
    multiply_tft(ctx, f, g)  # builds the tables of the padded length
    allocs = {}
    for path in ("cyclotomic", "bitreversed"):
        with ctx.count_session() as sess:
            multiply_tft(ctx, f, g, path)
        allocs[path] = sess.alloc
    m, N = _transform_length(n), 1 << (n - 1).bit_length()
    assert allocs["bitreversed"] - allocs["cyclotomic"] == (2 * m if m < N else 0)


@pytest.mark.parametrize("n", [29, 31, 40, 63, 100, 255, 257, 495, 1025, 1281, 1365, 4097])
def test_a_repeated_product_reads_its_plan(n):
    # The first product of a transform length over a field builds its plan
    # and, the first of a padded length, its row tables.  A repeat on the
    # same field returns and counts what a new field's first product does,
    # and reports only its own scratch: the 2m work buffer and the 2m
    # Omega_s power rows on the bit-reversed path at m < N.
    shared = FieldCtx()
    f, g = _operands(shared.p, n, n)
    m, N = _transform_length(n), 1 << (n - 1).bit_length()
    for path in ("padded", "cyclotomic", "bitreversed"):
        size = N if path == "padded" else m
        runs = []
        for ctx in (FieldCtx(), shared, shared):
            with ctx.count_session() as sess:
                h = (multiply_full_fft(ctx, f, g) if path == "padded"
                     else multiply_tft(ctx, f, g, path))
            runs.append((h, sess.ops, sess.alloc))
        (h, ops, _), _, (again, again_ops, alloc) = runs
        assert (again, again_ops) == (h, ops), (n, path)
        scaled = path == "bitreversed" and m < N
        assert alloc == 2 * size + (2 * m if scaled else 0), (n, path)


# bytes that the product plans of every transform length in [_ROWS_MIN,
# 4096] hold, 286 plans: measured at 508 KB, 1.8 KB a plan on average, the
# views of their turns and the tuples of their steps (Python 3.11, numpy
# 2.4); one row of m int64 in each would add 2.2 MB
PLANS_BYTES = 510_000


def test_product_plans_hold_no_elements():
    # After products at every transform length in [_ROWS_MIN, 4096] on both
    # TFT paths, the plans they leave hold no array of m elements: only
    # splits, counts, offsets, and views into the tables of N, which a
    # padded product of each N builds first, and into the field's matrices,
    # which those products and one at 4097 = 4096 + 1 (a block at twist 1
    # that reads the odd twist's pair) build first, as field set-up.
    # tracemalloc traces numpy's buffers, so a plan holding a row of m
    # elements would show.
    ctx = FieldCtx()
    for k in range(5, 13):
        multiply_full_fft(ctx, [1] * (1 << k - 1), [1] * (1 << k - 1))
    multiply_tft(ctx, *_operands(ctx.p, 4097, 4097))
    assert ctx.row_odd is not None
    lengths = [m for m in range(_ROWS_MIN, 4097) if m.bit_count() <= 3]
    operands = {m: _operands(ctx.p, m, m) for m in lengths}
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for m in lengths:
            for path in ("cyclotomic", "bitreversed"):
                multiply_tft(ctx, *operands[m], path)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert all(_transform_length(m) == m for m in lengths)
    assert held <= PLANS_BYTES, held


def test_multiply_full_fft_examples(ctx):
    assert multiply_full_fft(ctx, [1, 1], [1, 1]) == [1, 2, 1]
    f = [3, 0, 7, 9]
    assert multiply_full_fft(ctx, f, [1]) == f
    assert multiply_full_fft(ctx, f, [0]) == [0]


@pytest.mark.parametrize("path", ["cyclotomic", "bitreversed"])
def test_multiply_tft_examples(ctx, path):
    assert multiply_tft(ctx, [1, 1], [1, 1], path) == [1, 2, 1]
    assert multiply_tft(ctx, [4, 5], [0, 0], path) == [0]
    assert multiply_tft(ctx, [2], [3], path) == [6]


def test_multiply_against_schoolbook(ctx):
    p = ctx.p
    rng = random.Random(7)
    degree_pairs = [(0, 0), (1, 0), (3, 2), (8, 8), (17, 14), (40, 23),
                    (64, 63), (100, 99), (128, 128), (150, 150), (200, 100)]
    for df, dg in degree_pairs:
        f = [rng.randrange(p) for _ in range(df)] + [rng.randrange(1, p)]
        g = [rng.randrange(p) for _ in range(dg)] + [rng.randrange(1, p)]
        want = oracle.schoolbook_mul(f, g, p)
        assert multiply_full_fft(ctx, f, g) == want
        assert multiply_tft(ctx, f, g, "cyclotomic") == want
        assert multiply_tft(ctx, f, g, "bitreversed") == want


def test_multiply_commutative_bilinear(ctx):
    p = ctx.p
    rng = random.Random(8)
    f = [rng.randrange(p) for _ in range(30)]
    g = [rng.randrange(p) for _ in range(21)]
    h = [rng.randrange(p) for _ in range(21)]
    assert multiply_tft(ctx, f, g) == multiply_tft(ctx, g, f)
    alpha = rng.randrange(p)
    lhs = multiply_tft(ctx, f, [(alpha * (x + y)) % p for x, y in zip(g, h)])
    fg = multiply_tft(ctx, f, g)
    fh = multiply_tft(ctx, f, h)
    rhs = [alpha * (x + y) % p for x, y in zip(fg, fh)]
    assert lhs == rhs


def test_multiply_power_of_two_degree_beats_full_fft(ctx):
    # product degree exactly 2^k: the padded transform length doubles while
    # the truncated length is 2^k + 1
    p = ctx.p
    rng = random.Random(9)
    for k in (5, 7, 9):
        half = 1 << (k - 1)
        f = [rng.randrange(p) for _ in range(half)] + [1]
        g = [rng.randrange(p) for _ in range(half)] + [1]
        with ctx.count_session() as s_fft:
            want = multiply_full_fft(ctx, f, g)
        with ctx.count_session() as s_tft:
            got = multiply_tft(ctx, f, g, "cyclotomic")
        assert got == want
        assert s_tft.mul < s_fft.mul


def test_multiply_cost_dominated_smoothly(ctx):
    # counted multiplications of the truncated path stay under
    # 1.5 n log2 n + 12 n through the power-of-two boundary
    p = ctx.p
    rng = random.Random(10)
    for n in range(248, 265):
        df = (n - 1) // 2
        f = [rng.randrange(p) for _ in range(df)] + [1]
        g = [rng.randrange(p) for _ in range(n - 2 - df)] + [1]
        with ctx.count_session() as sess:
            multiply_tft(ctx, f, g, "cyclotomic")
        assert sess.mul <= 1.5 * n * math.log2(n) + 12 * n


def test_poly_degree(ctx):
    assert poly_degree([0, 0], ctx.p) == -1
    assert poly_degree([5], ctx.p) == 0
    assert poly_degree([1, 2, 0], ctx.p) == 1
    assert poly_degree([0, ctx.p], ctx.p) == -1  # reduced view


def test_multiply_path_validation(ctx):
    with pytest.raises(ValueError):
        multiply_tft(ctx, [1], [1], "weird")


@pytest.mark.parametrize("p, n", [(5, 4), (17, 16), (257, 256), (7681, 512),
                                  (12289, 4096), (7681, 257), (7681, 384),
                                  (12289, 2049), (12289, 3073), (65537, 65536),
                                  (65537, 49153), (5767169, 524288)])
def test_multiply_at_two_adicity_limit(p, n):
    # product length n whose padded length N = 2^a is the field's 2-adicity
    # limit, no root of order 2N in the field: n = N itself, and TFT lengths
    # with a small block (257) or a block of 256 slots (384) beside the
    # chunks, or levels at twist 1 that read the last rungs of the ladder
    # (2049, 3073, 49153 = 32768 + 16384 + 1).  The limit blocks of 65537
    # (2^16 slots) and 5767169 (2^19) run two and three steps; past 4096
    # the paths must agree, and equal f(x) g(x) at random points x, in
    # place of the schoolbook product.
    ctx_p = FieldCtx(p)
    rng = random.Random(p)
    df = n // 2
    f = [rng.randrange(p) for _ in range(df)] + [rng.randrange(1, p)]
    g = [rng.randrange(p) for _ in range(n - 1 - df)] + [rng.randrange(1, p)]
    want = multiply_full_fft(ctx_p, f, g)
    assert len(want) == n
    if n <= 4096:
        assert want == oracle.schoolbook_mul(f, g, p)
    else:
        for x in [rng.randrange(p) for _ in range(3)]:
            assert _at(want, x, p) == _at(f, x, p) * _at(g, x, p) % p, x
    for path in ("cyclotomic", "bitreversed"):
        assert multiply_tft(ctx_p, f, g, path) == want


@pytest.mark.parametrize("path", ["cyclotomic", "bitreversed"])
def test_multiply_at_power_of_two_costs_padded(path):
    # both paths take the padded product at n = 2^k, rows included; each
    # side has its own field, since a field reports its row tables once
    padded, truncated = FieldCtx(), FieldCtx()
    p = padded.p
    rng = random.Random(11)
    for k in range(13):
        n = 1 << k
        df = n // 2
        f = [rng.randrange(p) for _ in range(df)] + [1]
        g = [rng.randrange(p) for _ in range(n - 1 - df)] + [1]
        with padded.count_session() as s_fft:
            want = multiply_full_fft(padded, f, g)
        with truncated.count_session() as s_tft:
            got = multiply_tft(truncated, f, g, path)
        assert len(got) == n and got == want
        assert (s_tft.ops, s_tft.alloc) == (s_fft.ops, s_fft.alloc), k


def test_multiply_beyond_two_adicity_rejected():
    from tftlib import UnsupportedOrderError

    # product length 33 over 17 (roots up to order 16) is a rows length,
    # and 9 over 41 (roots up to order 8) one of the lists
    for ctx, f in ((FieldCtx(17), [1] * 17), (FieldCtx(41), [1] * 5)):
        assert (2 * len(f) - 1 >= _ROWS_MIN) == (ctx.p == 17)
        for path in ("padded", "cyclotomic", "bitreversed"):
            with ctx.count_session() as sess, pytest.raises(UnsupportedOrderError):
                if path == "padded":
                    multiply_full_fft(ctx, f, f)
                else:
                    multiply_tft(ctx, f, f, path)
            assert (sess.mul, sess.pow2, sess.add, sess.alloc) == (0, 0, 0, 0)
            assert ctx.product_plans == {}, (ctx.p, path)


@given(st.integers(min_value=1, max_value=160), st.data())
@settings(max_examples=30, deadline=None)
def test_brtft_round_trip_property(n, data):
    ctx = FieldCtx()
    plan = plan_new(n, ctx)
    f = data.draw(st.lists(st.integers(min_value=0, max_value=ctx.p - 1),
                           min_size=n, max_size=n))
    a = list(f)
    brtft_forward(ctx, a, plan)
    brtft_inverse(ctx, a, plan)
    assert a == f
