"""Values beyond n = 512, checked at random slots by Horner's rule.

Each check is O(k * n): the point of a slot is computed directly from the
plan's roots (with a string bit reversal) and the input is evaluated there by
``oracle.naive_eval``.  Nothing here shares code with the fast paths.  The
inverses are pinned by exact round trips through those spot-checked forwards.
"""

import random

import pytest

from tftlib import (ENGINES, brtft_forward, brtft_inverse, ctft_forward,
                    ctft_inverse, multiply_full_fft, multiply_tft, plan_new)
from tftlib import oracle

from test_rows import _product, _reference

SIZES = [4095, 4097, 16383, 16385]
SLOTS = 8


def _rev(j: int, width: int) -> int:
    return int(format(j, f"0{width}b")[::-1], 2) if width else 0


def _cyclotomic_point(plan, slot: int) -> int:
    """Block i, position j holds f(omega_i^(2*rev(j) + 1)), rev over log2(n_i) bits."""
    for i in range(1, plan.s + 1):
        j = slot - plan.offset(i)
        if 0 <= j < plan.size(i):
            return pow(plan.roots[plan.exp(i) + 1], 2 * _rev(j, plan.exp(i)) + 1, plan.p)
    raise AssertionError(f"slot {slot} outside the plan")


@pytest.mark.parametrize("n", SIZES)
def test_forward_transforms_at_random_slots(ctx, n):
    p = ctx.p
    rng = random.Random(n)
    plan = plan_new(n, ctx)
    f = [rng.randrange(p) for _ in range(n)]
    slots = rng.sample(range(n), SLOTS)
    for engine in ENGINES:
        a = list(f)
        ctft_forward(ctx, a, plan, engine)
        for slot in slots:
            want = oracle.naive_eval(f, _cyclotomic_point(plan, slot), p)
            assert a[slot] == want, (engine, slot)
    a = list(f)
    brtft_forward(ctx, a, plan)
    bits = plan.N.bit_length() - 1
    for slot in slots:
        want = oracle.naive_eval(f, pow(plan.roots[bits], _rev(slot, bits), p), p)
        assert a[slot] == want, ("brtft", slot)


@pytest.mark.parametrize("n", SIZES)
def test_inverses_recover_the_input(ctx, n):
    p = ctx.p
    rng = random.Random(20 * n)
    plan = plan_new(n, ctx)
    f = [rng.randrange(p) for _ in range(n)]
    for engine in ENGINES:
        a = list(f)
        ctft_forward(ctx, a, plan, engine)
        ctft_inverse(ctx, a, plan)
        assert a == f, engine
    a = list(f)
    brtft_forward(ctx, a, plan)
    brtft_inverse(ctx, a, plan)
    assert a == f, "brtft"


@pytest.mark.parametrize("n", SIZES)
def test_products_at_random_points(ctx, n):
    # a product of length n agrees with f(x) * g(x) at random field points
    p = ctx.p
    rng = random.Random(10 * n)
    f = [rng.randrange(1, p) for _ in range(n // 3)]
    g = [rng.randrange(1, p) for _ in range(n + 1 - len(f))]
    points = [rng.randrange(p) for _ in range(2)]
    products = {
        "multiply_full_fft": multiply_full_fft(ctx, f, g),
        "cyclotomic": multiply_tft(ctx, f, g, "cyclotomic"),
        "bitreversed": multiply_tft(ctx, f, g, "bitreversed"),
    }
    for name, h in products.items():
        assert len(h) == n, name
        for x in points:
            want = oracle.naive_eval(f, x, p) * oracle.naive_eval(g, x, p) % p
            assert oracle.naive_eval(h, x, p) == want, (name, x)


@pytest.mark.parametrize("n", [2**16 + 1, 2**19 + 2**9 + 1])
def test_products_at_scale_at_random_points(ctx, n):
    # the row products at sizes the list path makes slow
    test_products_at_random_points(ctx, n)


@pytest.mark.usefixtures("exact_length")
@pytest.mark.parametrize("n", [2**16 - 1, 2**16 + 1])
def test_row_products_equal_the_list_composition(ctx, n):
    # products of this length compute in int64 rows; the reference composes
    # the list transforms at length exactly n (tests/test_rows.py)
    p = ctx.p
    rng = random.Random(30 * n)
    f = [rng.randrange(1, p) for _ in range(n // 2)]
    g = [rng.randrange(1, p) for _ in range(n + 1 - len(f))]
    for path in ("padded", "cyclotomic", "bitreversed"):
        want, counts = _reference(ctx, f, g, path)
        with ctx.count_session() as sess:
            h = _product(ctx, f, g, path)
        assert h == want, path
        assert (sess.mul, sess.pow2, sess.add) == counts, path
