import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tftlib
from tftlib import (DEFAULT_MODULUS, FieldCtx, OpCount, UnsupportedOrderError,
                    fft_in_place, find_root_of_unity, ifft_in_place)
from tftlib.ring import _is_prime


def test_default_field_constants(ctx):
    assert ctx.p == DEFAULT_MODULUS == 15 * 2**27 + 1
    assert ctx.two_adicity == 27
    assert ctx.half * 2 % ctx.p == 1
    # generator passes the subgroup test for every prime factor of p - 1
    for q in (2, 3, 5):
        assert pow(ctx.generator, (ctx.p - 1) // q, ctx.p) != 1


def test_non_prime_and_even_moduli_rejected():
    with pytest.raises(ValueError):
        FieldCtx(15)
    with pytest.raises(ValueError):
        FieldCtx(2)


def test_inverse_examples(ctx5, ctx):
    assert ctx5.inv(2) == 3
    assert ctx5.inv(1) == 1
    assert ctx.inv(2) == (ctx.p + 1) // 2
    with pytest.raises(ZeroDivisionError):
        ctx5.inv(0)


@given(st.integers(min_value=1, max_value=DEFAULT_MODULUS - 1))
def test_inverse_involution(a):
    ctx = FieldCtx()
    assert ctx.inv(ctx.inv(a)) == a


def test_find_root_examples(ctx5, ctx):
    w = find_root_of_unity(ctx5, 4)
    assert w * w % 5 == 4  # omega**2 == -1
    assert w == 2  # deterministic: generator 2, exponent (p-1)/4 = 1
    ctx17 = FieldCtx(17)
    assert find_root_of_unity(ctx17, 2) == 16
    assert find_root_of_unity(ctx, 1) == 1


@pytest.mark.parametrize("order_log", range(1, 16))
def test_root_has_exact_order(ctx, order_log):
    n = 1 << order_log
    w = find_root_of_unity(ctx, n)
    assert pow(w, n, ctx.p) == 1
    assert pow(w, n // 2, ctx.p) == ctx.p - 1  # order exactly n, principal


def test_find_root_unsupported_order(ctx5):
    # 2-adicity of 5 - 1 is 2, so order 8 is out of reach
    with pytest.raises(UnsupportedOrderError):
        find_root_of_unity(ctx5, 8)
    with pytest.raises(ValueError):
        find_root_of_unity(ctx5, 3)


def test_root_ladder(ctx5, ctx):
    # roots[k] = generator**((p-1)/2^k), each the square of the next, and
    # inv_roots holds their inverses; both are built once, uncounted
    assert ctx5.roots == (1, 4, 2) and ctx5.inv_roots == (1, 4, 3)
    p = ctx.p
    assert len(ctx.roots) == len(ctx.inv_roots) == ctx.two_adicity + 1
    for k, (w, wi) in enumerate(zip(ctx.roots, ctx.inv_roots)):
        assert w == pow(ctx.generator, (p - 1) >> k, p)
        assert w * wi % p == 1
    assert FieldCtx(17).ops == OpCount()
    assert find_root_of_unity(ctx, 1 << 20) == ctx.roots[20]


# A length-2 transform is one butterfly: 1 mul and 2 add forward, plus the
# 2 pow2 of the 1/2 pass inverse.  The counter tests drive ctx.ops with it.

@given(st.integers(min_value=0, max_value=60))
@settings(max_examples=30)
def test_opcount_is_exact(k):
    ctx = FieldCtx()
    with ctx.count_session() as sess:
        for _ in range(k):
            fft_in_place(ctx, [3, 7], 2)
    assert sess.mul == k
    assert sess.add == 2 * k and sess.pow2 == 0


def test_opcount_kinds(ctx):
    with ctx.count_session() as sess:
        ifft_in_place(ctx, [3, 7], 2)
    assert sess.add == 2
    assert sess.pow2 == 2
    assert sess.mul == 1


def test_counts_monotone(ctx):
    with ctx.count_session() as sess:
        seen = []
        for _ in range(5):
            ifft_in_place(ctx, [2, 2], 2)
            ops = sess.ops
            seen.append((ops.mul, ops.pow2, ops.add))
    assert seen == sorted(seen)
    assert all(m >= 0 for triple in seen for m in triple)


def test_session_freezes_on_exit(ctx):
    with ctx.count_session() as sess:
        fft_in_place(ctx, [2, 3], 2)
    fft_in_place(ctx, [2, 3], 2)
    assert sess.mul == 1


def test_session_reads_live_in_the_block_and_frozen_after_it(ctx5):
    with ctx5.count_session() as sess:
        fft_in_place(ctx5, [3, 4], 2)
        assert (sess.ops, sess.alloc) == (OpCount(1, 0, 2), 0)
        ctx5.alloc(3)
        ifft_in_place(ctx5, [3, 4], 2)
        assert (sess.ops, sess.alloc) == (OpCount(2, 2, 4), 3)
    ctx5.alloc(5)
    ifft_in_place(ctx5, [3, 4], 2)
    assert (sess.ops, sess.mul, sess.pow2, sess.add, sess.alloc) == (
        OpCount(2, 2, 4), 2, 2, 4, 3)


def test_nested_sessions_see_only_their_own_blocks(ctx5):
    with ctx5.count_session() as outer:
        fft_in_place(ctx5, [3, 4], 2)
        with ctx5.count_session() as inner:
            ctx5.alloc(7)
            ifft_in_place(ctx5, [3, 4], 2)
        fft_in_place(ctx5, [3, 4], 2)
        ctx5.alloc(2)
    assert (inner.ops, inner.alloc) == (OpCount(1, 2, 2), 7)
    assert (outer.ops, outer.alloc) == (OpCount(3, 2, 6), 9)


def test_alloc_hook(ctx):
    with ctx.count_session() as sess:
        buf = ctx.alloc(37)
    assert len(buf) == 37
    assert sess.alloc == 37


def test_is_prime_matches_a_sieve():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, limit, q)))
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]


# a Carmichael number, then strong pseudoprimes to base 2, to bases 2..7 and
# to bases 2..37 (only base 41 exposes the last)
@pytest.mark.parametrize("n", [561, 2047, 3215031751, 318665857834031151167461])
def test_strong_pseudoprimes_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(ValueError):
        FieldCtx(n)


def test_fields_below_the_miller_rabin_bound_skip_sympy():
    # a fresh interpreter: importing the library and building these fields
    # must not load sympy, whose import would dominate the set-up time
    src = os.path.dirname(os.path.dirname(os.path.abspath(tftlib.__file__)))
    code = ("import sys, tftlib\n"
            "for p in (2013265921, 2305919975027638273, 9223372036836950017):\n"
            "    tftlib.FieldCtx(p)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
