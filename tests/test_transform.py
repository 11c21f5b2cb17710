import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tftlib import (FieldCtx, UnsupportedOrderError, bit_reverse, dwt,
                    fft_in_place, find_root_of_unity, idwt, ifft_in_place)
from tftlib import oracle

import dense_oracle
from tftlib.transform import kernel_counts


def test_fft_example_f5():
    ctx = FieldCtx(5)
    a = [1, 1, 0, 0]
    assert find_root_of_unity(ctx, 4) == 2
    fft_in_place(ctx, a, 4)
    assert a == [2, 0, 3, 4]  # (f(1), f(4), f(2), f(3))


def test_fft_constant(ctx):
    a = [7, 0, 0, 0]
    fft_in_place(ctx, a, 4)
    assert a == [7, 7, 7, 7]


def test_fft_single_butterfly(ctx):
    p = ctx.p
    a = [123, 456]
    fft_in_place(ctx, a, 2)
    assert a == [(123 + 456) % p, (123 - 456) % p]


def test_fft_shape_and_root_errors(ctx):
    with pytest.raises(ValueError):
        fft_in_place(ctx, [1, 2, 3], 3)


@pytest.mark.parametrize("logn", range(0, 11))
def test_fft_matches_bitreversed_naive_dft(ctx, logn):
    n = 1 << logn
    p = ctx.p
    w = find_root_of_unity(ctx, n)
    rng = random.Random(logn)
    width = logn
    for trial in range(10):
        f = [rng.randrange(p) for _ in range(n)]
        a = list(f)
        fft_in_place(ctx, a, n)
        natural = dense_oracle.naive_dft(f, w, n, p)
        assert a == [natural[bit_reverse(k, width)] for k in range(n)]


def test_ifft_example_f5():
    ctx = FieldCtx(5)
    a = [2, 0, 3, 4]
    ifft_in_place(ctx, a, 4)
    assert a == [1, 1, 0, 0]


def test_ifft_constant_vector(ctx):
    a = [9, 9, 9, 9]
    ifft_in_place(ctx, a, 4)
    assert a == [9, 0, 0, 0]


@pytest.mark.parametrize("logn", range(1, 13))
def test_fft_round_trip(ctx, logn):
    n = 1 << logn
    p = ctx.p
    rng = random.Random(100 + logn)
    f = [rng.randrange(p) for _ in range(n)]
    a = list(f)
    fft_in_place(ctx, a, n)
    ifft_in_place(ctx, a, n)
    assert a == f


@pytest.mark.parametrize("logn", range(1, 13))
def test_fft_operation_counts(ctx, logn):
    n = 1 << logn
    a = [3] * n
    with ctx.count_session() as sess:
        fft_in_place(ctx, a, n)
    butterflies = (n // 2) * logn
    assert sess.add == n * logn  # exact
    assert butterflies <= sess.mul <= butterflies + 2 * n  # twiddle generation margin
    assert sess.pow2 == 0
    assert sess.alloc == 0


@pytest.mark.parametrize("logn", range(1, 13))
def test_ifft_operation_counts(ctx, logn):
    n = 1 << logn
    a = [3] * n
    with ctx.count_session() as sess:
        ifft_in_place(ctx, a, n)
    assert sess.add == n * logn
    assert sess.pow2 == n  # the single 1/n pass
    assert sess.mul <= (n // 2) * logn + 2 * n
    assert sess.alloc == 0


def test_fft_offset_window(ctx):
    p = ctx.p
    rng = random.Random(5)
    f = [rng.randrange(p) for _ in range(4)]
    whole = [111, *f, 222]
    fft_in_place(ctx, whole, 4, offset=1)
    alone = list(f)
    fft_in_place(ctx, alone, 4)
    assert whole == [111, *alone, 222]


def test_dwt_weight_one_equals_fft(ctx):
    p = ctx.p
    rng = random.Random(6)
    f = [rng.randrange(p) for _ in range(8)]
    a, b = list(f), list(f)
    with ctx.count_session() as s1:
        dwt(ctx, a, 8, 0, 0)
    with ctx.count_session() as s2:
        fft_in_place(ctx, b, 8)
    assert a == b
    assert s1.ops == s2.ops


def test_dwt_example_f5():
    ctx = FieldCtx(5)
    a = [1, 1]
    assert find_root_of_unity(ctx, 4) == 2
    dwt(ctx, a, 2, 1)
    assert a == [3, 4]  # (f(2), f(-2))


def test_dwt_negacyclic_evaluates_phi_roots(ctx):
    # twist 1 evaluates at the roots of z^n + 1, i.e. the odd powers of the
    # root w2n of order 2n, in bit-reversed order
    p = ctx.p
    n = 16
    w2n = find_root_of_unity(ctx, 2 * n)
    rng = random.Random(7)
    f = [rng.randrange(p) for _ in range(n)]
    a = list(f)
    dwt(ctx, a, n, 1)
    width = n.bit_length() - 1
    want = [oracle.naive_eval(f, pow(w2n, 2 * bit_reverse(j, width) + 1, p), p)
            for j in range(n)]
    assert a == want


def test_dwt_weight_costs_only_stage_powers(ctx):
    # the twist sits in each stage's first twiddle: no weighting pass runs,
    # and twist 1 takes every first twiddle straight from the ladder
    for logn in (1, 6, 10):
        n = 1 << logn
        a = [1] * n
        with ctx.count_session() as s_plain:
            fft_in_place(ctx, list(a), n)
        with ctx.count_session() as s_weighted:
            dwt(ctx, a, n, 1)
        assert s_weighted.ops == s_plain.ops


@pytest.mark.parametrize("logn", [0, 1, 3, 6, 9, 12])
def test_idwt_round_trip(ctx, logn):
    n = 1 << logn
    p = ctx.p
    rng = random.Random(8 + logn)
    f = [rng.randrange(p) for _ in range(n)]
    for twist in (1, -3, 12345):
        a = list(f)
        dwt(ctx, a, n, twist)
        idwt(ctx, a, n, twist)
        assert a == f


def test_idwt_weight_one_equals_ifft(ctx):
    p = ctx.p
    rng = random.Random(9)
    f = [rng.randrange(p) for _ in range(8)]
    a, b = list(f), list(f)
    idwt(ctx, a, 8, 0)
    ifft_in_place(ctx, b, 8)
    assert a == b


def test_length_one_transforms_are_identity(ctx):
    for fn in (fft_in_place, ifft_in_place):
        a = [42]
        fn(ctx, a, 1)
        assert a == [42]
    a = [42]
    dwt(ctx, a, 1, 1)
    idwt(ctx, a, 1, 1)
    assert a == [42]


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=25, deadline=None)
def test_fft_round_trip_property(logn, data):
    ctx = FieldCtx()
    n = 1 << logn
    f = data.draw(st.lists(st.integers(min_value=0, max_value=ctx.p - 1),
                           min_size=n, max_size=n))
    a = list(f)
    fft_in_place(ctx, a, n)
    ifft_in_place(ctx, a, n)
    assert a == f


@pytest.mark.parametrize("logn", range(0, 13))
def test_kernel_counts_exactly(ctx, logn):
    # twists 0 and 1 take every stage root and first twiddle from the ladder:
    # butterflies and sequential twiddle steps, nothing else; a block of
    # length 1 takes no 1/n pass
    n = 1 << logn
    want_mul = (n // 2) * logn + n - 1 - logn
    for twist in (0, 1):
        for kernel, inverse in ((dwt, False), (idwt, True)):
            a = [5] * n
            with ctx.count_session() as sess:
                kernel(ctx, a, n, twist)
            assert sess.mul == want_mul, (kernel.__name__, twist)
            assert sess.add == n * logn
            assert sess.pow2 == (n if inverse and n > 1 else 0)
            assert kernel_counts(n, inverse) == (sess.mul, sess.pow2, sess.add)


@pytest.mark.parametrize("logn", [1, 2, 5, 10])
def test_kernel_twist_costs_ladder_factors(ctx, logn):
    # stage i's first twiddle omega_(2^(i+1))**twist multiplies at most
    # ceil((i + 2) / 2) ladder roots, on roots or inv_roots: at most i // 2
    # multiplications beyond the first factor
    n = 1 << logn
    base = (n // 2) * logn + n - 1 - logn
    bound = sum(i // 2 for i in range(1, logn + 1))
    for twist in (-1, 3, -5, 0b101101, 987654321, -123456789):
        for kernel in (dwt, idwt):
            with ctx.count_session() as sess:
                kernel(ctx, [5] * n, n, twist)
            assert base <= sess.mul <= base + bound, (kernel.__name__, twist)


def test_kernel_twist_needs_the_root(ctx5):
    # 2-adicity of 5 - 1 is 2: length 4 with an odd twist needs a root of order 8
    a = [1, 2, 3, 4]
    dwt(ctx5, a, 4, 2)
    with pytest.raises(UnsupportedOrderError):
        dwt(ctx5, a, 4, 1)
    with pytest.raises(UnsupportedOrderError):
        fft_in_place(ctx5, [0] * 8, 8)
