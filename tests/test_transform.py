import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tftlib import (FieldCtx, bit_reverse, dwt, fft_in_place,
                    find_root_of_unity, idwt, ifft_in_place)
from tftlib import oracle


def test_fft_example_f5():
    ctx = FieldCtx(5)
    a = [1, 1, 0, 0]
    fft_in_place(ctx, a, 4, 2)
    assert a == [2, 0, 3, 4]  # (f(1), f(4), f(2), f(3))


def test_fft_constant(ctx):
    w = find_root_of_unity(ctx, 4)
    a = [7, 0, 0, 0]
    fft_in_place(ctx, a, 4, w)
    assert a == [7, 7, 7, 7]


def test_fft_single_butterfly(ctx):
    p = ctx.p
    a = [123, 456]
    fft_in_place(ctx, a, 2, p - 1)
    assert a == [(123 + 456) % p, (123 - 456) % p]


def test_fft_shape_and_root_errors(ctx):
    with pytest.raises(ValueError):
        fft_in_place(ctx, [1, 2, 3], 3, 1)
    w8 = find_root_of_unity(ctx, 8)
    with pytest.raises(ValueError):
        fft_in_place(ctx, [1, 2, 3, 4], 4, w8)  # wrong order for length 4


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
        fft_in_place(ctx, a, n, w)
        natural = oracle.naive_dft(f, w, n, p)
        assert a == [natural[bit_reverse(k, width)] for k in range(n)]


def test_ifft_example_f5():
    ctx = FieldCtx(5)
    a = [2, 0, 3, 4]
    ifft_in_place(ctx, a, 4, 2)
    assert a == [1, 1, 0, 0]


def test_ifft_constant_vector(ctx):
    w = find_root_of_unity(ctx, 4)
    a = [9, 9, 9, 9]
    ifft_in_place(ctx, a, 4, w)
    assert a == [9, 0, 0, 0]


@pytest.mark.parametrize("logn", range(1, 13))
def test_fft_round_trip(ctx, logn):
    n = 1 << logn
    p = ctx.p
    w = find_root_of_unity(ctx, n)
    rng = random.Random(100 + logn)
    f = [rng.randrange(p) for _ in range(n)]
    a = list(f)
    fft_in_place(ctx, a, n, w)
    ifft_in_place(ctx, a, n, w)
    assert a == f


@pytest.mark.parametrize("logn", range(1, 13))
def test_fft_operation_counts(ctx, logn):
    n = 1 << logn
    w = find_root_of_unity(ctx, n)
    a = [3] * n
    with ctx.count_session() as sess:
        fft_in_place(ctx, a, n, w)
    butterflies = (n // 2) * logn
    assert sess.add == n * logn  # exact
    assert butterflies <= sess.mul <= butterflies + 2 * n  # twiddle generation margin
    assert sess.pow2 == 0
    assert sess.alloc == 0


@pytest.mark.parametrize("logn", range(1, 13))
def test_ifft_operation_counts(ctx, logn):
    n = 1 << logn
    w = find_root_of_unity(ctx, n)
    a = [3] * n
    with ctx.count_session() as sess:
        ifft_in_place(ctx, a, n, w)
    assert sess.add == n * logn
    assert sess.pow2 == n  # the single 1/n pass
    assert sess.mul <= (n // 2) * logn + 2 * n
    assert sess.alloc == 0


def test_fft_offset_window(ctx):
    p = ctx.p
    w = find_root_of_unity(ctx, 4)
    rng = random.Random(5)
    f = [rng.randrange(p) for _ in range(4)]
    whole = [111, *f, 222]
    fft_in_place(ctx, whole, 4, w, offset=1)
    alone = list(f)
    fft_in_place(ctx, alone, 4, w)
    assert whole == [111, *alone, 222]


def test_dwt_weight_one_equals_fft(ctx):
    p = ctx.p
    w = find_root_of_unity(ctx, 8)
    rng = random.Random(6)
    f = [rng.randrange(p) for _ in range(8)]
    a, b = list(f), list(f)
    with ctx.count_session() as s1:
        dwt(ctx, a, 8, w, 1, 0)
    with ctx.count_session() as s2:
        fft_in_place(ctx, b, 8, w)
    assert a == b
    assert s1.ops == s2.ops


def test_dwt_example_f5():
    ctx = FieldCtx(5)
    a = [1, 1]
    dwt(ctx, a, 2, 4, 2)
    assert a == [3, 4]  # (f(2), f(-2))


def test_dwt_negacyclic_evaluates_phi_roots(ctx):
    # weight w of order 2n with w**2 the transform root: evaluates at the
    # roots of z^n + 1, i.e. the odd powers of w, in bit-reversed order
    p = ctx.p
    n = 16
    w2n = find_root_of_unity(ctx, 2 * n)
    rng = random.Random(7)
    f = [rng.randrange(p) for _ in range(n)]
    a = list(f)
    dwt(ctx, a, n, w2n * w2n % p, w2n)
    width = n.bit_length() - 1
    want = [oracle.naive_eval(f, pow(w2n, 2 * bit_reverse(j, width) + 1, p), p)
            for j in range(n)]
    assert a == want


def test_dwt_weight_costs_only_stage_powers(ctx):
    # the weight sits in each stage's first twiddle: no weighting pass runs
    for logn in (1, 6, 10):
        n = 1 << logn
        w = find_root_of_unity(ctx, n)
        v = find_root_of_unity(ctx, 2 * n)
        a = [1] * n
        with ctx.count_session() as s_plain:
            fft_in_place(ctx, list(a), n, w)
        with ctx.count_session() as s_weighted:
            dwt(ctx, a, n, w, v)
        assert s_weighted.mul - s_plain.mul <= 2 * logn ** 2
        assert (s_weighted.pow2, s_weighted.add) == (s_plain.pow2, s_plain.add)


@pytest.mark.parametrize("logn", [0, 1, 3, 6, 9, 12])
def test_idwt_round_trip(ctx, logn):
    n = 1 << logn
    p = ctx.p
    w = find_root_of_unity(ctx, n)
    v = find_root_of_unity(ctx, 2 * n)
    rng = random.Random(8 + logn)
    f = [rng.randrange(p) for _ in range(n)]
    a = list(f)
    dwt(ctx, a, n, w, v)
    idwt(ctx, a, n, w, v)
    assert a == f


def test_idwt_weight_one_equals_ifft(ctx):
    p = ctx.p
    w = find_root_of_unity(ctx, 8)
    rng = random.Random(9)
    f = [rng.randrange(p) for _ in range(8)]
    a, b = list(f), list(f)
    idwt(ctx, a, 8, w, 1)
    ifft_in_place(ctx, b, 8, w)
    assert a == b


def test_idwt_zero_weight_rejected(ctx):
    with pytest.raises(ZeroDivisionError):
        idwt(ctx, [1, 2], 2, ctx.p - 1, 0)


def test_length_one_transforms_are_identity(ctx):
    for fn in (fft_in_place, ifft_in_place):
        a = [42]
        fn(ctx, a, 1, 1)
        assert a == [42]
    a = [42]
    dwt(ctx, a, 1, 1, ctx.p - 1)
    idwt(ctx, a, 1, 1, ctx.p - 1)
    assert a == [42]


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=25, deadline=None)
def test_fft_round_trip_property(logn, data):
    ctx = FieldCtx()
    n = 1 << logn
    f = data.draw(st.lists(st.integers(min_value=0, max_value=ctx.p - 1),
                           min_size=n, max_size=n))
    w = find_root_of_unity(ctx, n)
    a = list(f)
    fft_in_place(ctx, a, n, w)
    ifft_in_place(ctx, a, n, w)
    assert a == f


def _kernel_pow_muls(p, n, omega, weight, inverse):
    """Multiplications of the kernel's own stage powers, recounted on a fresh context."""
    fresh = FieldCtx(p)
    stages = n.bit_length() - 1
    if inverse:
        weight = pow(weight, p - 2, p)
        omega = fresh.pow_counted(omega, n - 1)
    for i in range(1, stages + 1):
        if i >= 2:  # the u = n/2 stage is a single block and needs no stage root
            fresh.pow_counted(omega, n >> i)
        if weight % p != 1:
            fresh.pow_counted(weight, n >> i)
    return fresh.ops.mul


@pytest.mark.parametrize("logn", range(1, 13))
def test_kernel_counts_exactly(ctx, logn):
    # butterflies, sequential twiddle steps and stage powers; nothing else
    n = 1 << logn
    p = ctx.p
    w = find_root_of_unity(ctx, n)
    weights = (1, find_root_of_unity(ctx, 2 * n), 987654321)
    for v in weights:
        for kernel, inverse in ((dwt, False), (idwt, True)):
            a = [5] * n
            with ctx.count_session() as sess:
                kernel(ctx, a, n, w, v)
            want_mul = (n // 2) * logn + (n - 1 - logn)
            want_mul += _kernel_pow_muls(p, n, w, v, inverse)
            assert sess.mul == want_mul, (kernel.__name__, v)
            assert sess.add == n * logn
            assert sess.pow2 == (n if inverse else 0)
