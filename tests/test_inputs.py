"""The buffer contract at the public boundary.

Every forward and inverse entry point and every product accepts lists of
any integers - numpy int64 elements, negative or unreduced Python ints - and
returns Python ints in [0, p) equal to the result for the reduced input.
numpy int64 elements are checked at the default prime and at a 62-bit prime.
Above 2^62 a sum of two residues overflows an int64: there the entry points
that add buffer values before reducing them (the break engines, the unbreak
and ``ctft_forward`` with the ``new`` or ``sergeev`` engine) raise
ValueError on any element that is not a Python int, and every other entry
point still loads through ``int()``.  The break engines and the unbreak
promise less: residues congruent mod p to the reduced result, which are in
[0, p) when the inputs are.
"""

import random
import warnings

import numpy as np
import pytest

from tftlib import (ENGINES, FieldCtx, add_contribution, break_in_place,
                    brtft_forward, brtft_inverse, ctft_forward, ctft_inverse,
                    dwt, fft_in_place, idwt, ifft_in_place, mateer_break,
                    multiply_full_fft, multiply_tft, plan_new,
                    reduce_to_remainders, sergeev_break, unbreak_in_place)
from tftlib import oracle


def _transforms(ctx, n: int):
    """(name, in-place call, buffer length) for every transform entry point."""
    plan = plan_new(n, ctx)
    size = plan.N
    calls = [
        ("fft_in_place", lambda a: fft_in_place(ctx, a, size), size),
        ("ifft_in_place", lambda a: ifft_in_place(ctx, a, size), size),
        ("ctft_inverse", lambda a: ctft_inverse(ctx, a, plan), n),
        ("brtft_forward", lambda a: brtft_forward(ctx, a, plan), n),
        ("brtft_inverse", lambda a: brtft_inverse(ctx, a, plan), n),
    ]
    for engine in ENGINES:
        calls.append((f"ctft_forward[{engine}]",
                      lambda a, e=engine: ctft_forward(ctx, a, plan, e), n))
    for twist in (0, 1, -987654321):
        calls.append((f"dwt[{twist}]", lambda a, t=twist: dwt(ctx, a, size, t), size))
        calls.append((f"idwt[{twist}]", lambda a, t=twist: idwt(ctx, a, size, t), size))
    return calls


def _breaks(ctx, n: int):
    """(name, in-place call, buffer length) for the break engines and the unbreak."""
    plan = plan_new(n, ctx)
    return [
        ("break_in_place", lambda a: break_in_place(ctx, a, plan), n),
        ("sergeev_break", lambda a: sergeev_break(ctx, a, plan), n),
        ("mateer_break", lambda a: mateer_break(ctx, a, plan), plan.N),
        ("unbreak_in_place", lambda a: unbreak_in_place(ctx, a, plan), n),
    ]


def _products(ctx):
    return [
        ("multiply_full_fft", lambda f, g: multiply_full_fft(ctx, f, g)),
        ("multiply_tft[cyclotomic]", lambda f, g: multiply_tft(ctx, f, g, "cyclotomic")),
        ("multiply_tft[bitreversed]", lambda f, g: multiply_tft(ctx, f, g, "bitreversed")),
    ]


def _assert_field_ints(out, p, label):
    bad = [x for x in out if type(x) is not int or not 0 <= x < p]
    assert not bad, f"{label}: {bad[:3]} are not Python ints in [0, p)"


# the largest prime the numpy int64 path is tested at: 2^61 < P62 < 2^62, so
# a sum or double of two residues still fits in an int64
P62 = 2305919975027638273


def _check_numpy_buffers(ctx, n):
    p = ctx.p
    rng = random.Random(n)
    for name, call, length in _transforms(ctx, n):
        plain = [rng.randrange(p) for _ in range(length)]
        from_numpy = list(np.array(plain, dtype=np.int64))
        call(plain)
        call(from_numpy)
        assert from_numpy == plain, name
        _assert_field_ints(from_numpy, p, name)
    # operands whose product has length n
    f = [rng.randrange(1, p) for _ in range((n + 1) // 2)]
    g = [rng.randrange(1, p) for _ in range(n + 1 - len(f))]
    fn = list(np.array(f, dtype=np.int64))
    gn = list(np.array(g, dtype=np.int64))
    for name, mul in _products(ctx):
        got = mul(fn, gn)
        assert got == mul(f, g), name
        _assert_field_ints(got, p, name)


@pytest.mark.parametrize("n", [255, 256, 257, 1000])
def test_numpy_int64_buffers_match_plain_ints(ctx, n):
    _check_numpy_buffers(ctx, n)


@pytest.mark.parametrize("n", [255, 257])
def test_numpy_int64_buffers_at_62_bit_prime(n):
    _check_numpy_buffers(FieldCtx(P62), n)


# 2^52 < P52 < 2^53 (2-adicity 21): below n = 2048, n * P52 < 2^63, so the
# break engines keep numpy int64 elements as they are; at lengths with many
# images Sergeev's rebuilt coefficients double their accumulator up to i - 1
# times (the bound that keeps it in an int64 is proved in ctft._add_rebuilt)
P52 = 4503599629467649


@pytest.mark.parametrize("n", [1023, 1365, 2046])
def test_numpy_int64_sergeev_unconverted(n):
    ctx = FieldCtx(P52)
    p = ctx.p
    assert n * p < 2**63
    plan = plan_new(n, ctx)
    rng = random.Random(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an int64 overflow warning fails the test
        for plain in ([rng.randrange(p) for _ in range(n)], [p - 1] * n):
            want = [oracle.naive_mod_reduce(plain, ni, p - 1, p) for ni in plan.sizes]
            a = list(np.array(plain, dtype=np.int64))
            sergeev_break(ctx, a, plan)
            assert any(type(x) is not int for x in a)  # the elements were kept
            assert [[int(x) for x in a[o:o + ni]]
                    for o, ni in zip(plan.offsets, plan.sizes)] == want
            from_numpy = list(np.array(plain, dtype=np.int64))
            ctft_forward(ctx, from_numpy, plan, "sergeev")
            ctft_forward(ctx, plain, plan, "sergeev")
            assert from_numpy == plain
            _assert_field_ints(from_numpy, p, "ctft_forward[sergeev]")


# 2^62 < P63 < 2^63 (2-adicity 20): a residue fits in an int64, a sum of two
# may not
P63 = 9223372036836950017
# the entry points that add buffer values before they reduce them
ADD_FIRST = {"ctft_forward[new]", "ctft_forward[sergeev]", "break_in_place",
             "sergeev_break", "mateer_break", "unbreak_in_place"}


@pytest.mark.parametrize("n", [255, 257])
def test_numpy_int64_buffers_above_2_62(n):
    ctx = FieldCtx(P63)
    p = ctx.p
    rng = random.Random(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an int64 overflow warning fails the test
        for name, call, length in _transforms(ctx, n) + _breaks(ctx, n):
            plain = [rng.randrange(p) for _ in range(length)]
            from_numpy = list(np.array(plain, dtype=np.int64))
            call(plain)
            if name in ADD_FIRST:
                before = list(from_numpy)
                with pytest.raises(ValueError):
                    call(from_numpy)
                assert all(x == y for x, y in zip(from_numpy, before)), name  # untouched
            else:
                call(from_numpy)
                assert from_numpy == plain, name
                _assert_field_ints(from_numpy, p, name)
        f = [rng.randrange(1, p) for _ in range((n + 1) // 2)]
        g = [rng.randrange(1, p) for _ in range(n + 1 - len(f))]
        fn = list(np.array(f, dtype=np.int64))
        gn = list(np.array(g, dtype=np.int64))
        for name, mul in _products(ctx):
            got = mul(fn, gn)
            assert got == mul(f, g), name
            _assert_field_ints(got, p, name)


@pytest.mark.parametrize("n", [5, 37, 100])
def test_bit_reversed_transforms_reject_a_plan_over_another_field(n):
    # Omega_s and the block twists come from the plan's root ladder, so a
    # plan over another field would give wrong values
    plan = plan_new(n, FieldCtx(2013265921))
    ctx = FieldCtx(998244353)
    for call in (brtft_forward, brtft_inverse):
        a = list(range(n))
        with pytest.raises(ValueError):
            call(ctx, a, plan)
        assert a == list(range(n))


@pytest.mark.parametrize("delta", [-1, 1])
def test_break_phases_reject_a_buffer_of_the_wrong_length(delta):
    # each takes exactly n slots (mateer_break N), and a wrong length is
    # rejected before any slot is written or any operation counted
    ctx = FieldCtx()
    n = 86
    plan = plan_new(n, ctx)
    calls = _breaks(ctx, n) + [
        ("reduce_to_remainders", lambda a: reduce_to_remainders(ctx, a, plan), n),
        ("add_contribution", lambda a: add_contribution(ctx, a, plan, 2), n),
    ]
    rng = random.Random(n)
    for name, call, length in calls:
        a = [rng.randrange(ctx.p) for _ in range(length + delta)]
        before = list(a)
        with ctx.count_session() as sess:
            with pytest.raises(ValueError):
                call(a)
        assert a == before, name
        assert (sess.mul, sess.pow2, sess.add, sess.alloc) == (0, 0, 0, 0), name


def _residues(length: int, p: int, rng: random.Random) -> tuple[list[int], list[int]]:
    """Reduced values and unreduced representatives of the same residues.

    Every third representative is one of -1, p, p + 5, -3p and 2^40; the rest
    are offset by a random multiple of p, negative or positive.
    """
    specials = [-1, p, p + 5, -3 * p, 1 << 40]
    raw = []
    for k in range(length):
        if k % 3 == 0:
            raw.append(specials[(k // 3) % len(specials)])
        else:
            raw.append(rng.randrange(p) + rng.randrange(-4, 5) * p)
    return [x % p for x in raw], raw


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 4097])
def test_unreduced_inputs_give_reduced_ints(ctx, n):
    p = ctx.p
    rng = random.Random(1000 + n)
    for name, call, length in _transforms(ctx, n):
        reduced, raw = _residues(length, p, rng)
        call(reduced)
        call(raw)
        assert raw == reduced, name
        _assert_field_ints(raw, p, name)
    f, fr = _residues((n + 1) // 2, p, rng)
    g, gr = _residues(n + 1 - len(f), p, rng)
    f[-1] = g[-1] = 1  # keep the product length n
    fr[-1] = gr[-1] = 1 - 2 * p
    for name, mul in _products(ctx):
        got = mul(fr, gr)
        assert got == mul(f, g), name
        _assert_field_ints(got, p, name)


@pytest.mark.parametrize("n", [5, 6, 86, 257, 4097])
def test_breaks_of_unreduced_inputs_are_congruent(ctx, n):
    # the new and sergeev engines leave slots [tail(1), n_1) of block 1 as
    # passed, so the images and the round trip hold only up to congruence
    p = ctx.p
    plan = plan_new(n, ctx)
    for fill in (-1, p + 1):
        f = [fill] * n
        want = [oracle.naive_mod_reduce(f, plan.size(i), p - 1, p)
                for i in range(1, plan.s + 1)]
        for engine in ENGINES:
            if engine == "mateer":
                buf = f + [0] * (plan.N - n)
                mateer_break(ctx, buf, plan)
                a = [x for ni in plan.sizes for x in buf[ni:2 * ni]]
            else:
                a = list(f)
                (break_in_place if engine == "new" else sergeev_break)(ctx, a, plan)
            blocks = [a[plan.offset(i):plan.offset(i) + plan.size(i)]
                      for i in range(1, plan.s + 1)]
            assert [[x % p for x in b] for b in blocks] == want, (engine, fill)
            unbreak_in_place(ctx, a, plan)
            assert [x % p for x in a] == [fill % p] * n, (engine, fill)
