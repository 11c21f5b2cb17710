import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tftlib import (FieldCtx, Plan, UnsupportedOrderError, eval_points_bitreversed,
                    eval_points_cyclotomic, plan_new)
from tftlib.bitops import bit_reverse


def _partials(ctx, plan):
    """Omega_0..Omega_s, the cumulative products of the block roots, from the ladder."""
    out = [1]
    for i in range(1, plan.s + 1):
        out.append(out[-1] * ctx.roots[plan.exp(i) + 1] % ctx.p)
    return out


def test_decomposition_examples(ctx):
    plan = plan_new(86, ctx)
    assert plan.s == 4
    assert plan.sizes == (64, 16, 4, 2)
    assert plan.offsets == (0, 64, 80, 84)
    assert plan.N == 128

    single = plan_new(64, ctx)
    assert single.s == 1 and single.sizes == (64,) and single.N == 64

    tiny = plan_new(3, ctx)
    assert tiny.sizes == (2, 1)
    assert tiny.N == 4
    assert tiny.tail(1) == 1


@given(st.integers(min_value=1, max_value=4096))
@settings(max_examples=60, deadline=None)
def test_blocks_partition_the_buffer(n):
    plan = plan_new(n, FieldCtx())
    assert sum(plan.sizes) == n
    covered = []
    for i in range(1, plan.s + 1):
        covered.extend(range(plan.offset(i), plan.offset(i) + plan.size(i)))
    assert covered == list(range(n))
    assert all(a > b for a, b in zip(plan.sizes, plan.sizes[1:]))
    assert plan.tail(0) == n and plan.tail(plan.s) == 0
    assert all(1 << plan.exp(i) == plan.size(i) for i in range(1, plan.s + 1))


def test_plan_holds_only_the_split(ctx):
    assert Plan._fields == ("p", "n", "N", "s", "sizes", "offsets", "tails", "roots")
    assert plan_new(86, ctx).roots is ctx.roots


def test_a_plan_is_immutable(ctx):
    plan = plan_new(86, ctx)
    for name in ("p", "n", "N", "s", "sizes", "offsets", "tails", "roots", "extra"):
        with pytest.raises(AttributeError):
            setattr(plan, name, 1)
    assert plan == plan_new(86, ctx)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 86, 128, 255, 1000])
def test_block_roots_are_phi_roots(ctx, n):
    plan = plan_new(n, ctx)
    p = ctx.p
    pts = eval_points_cyclotomic(plan)
    for i in range(1, plan.s + 1):
        wi = ctx.roots[plan.exp(i) + 1]  # the canonical root of order 2*n_i
        assert pow(wi, plan.size(i), p) == p - 1  # root of z^(n_i) + 1
        assert pts[plan.offset(i)] == wi  # slot 0 of block i is omega_i**1
    assert ctx.half * 2 % p == 1
    omega = ctx.roots[plan.N.bit_length() - 1]
    assert pow(omega, plan.N, p) == 1
    if plan.N > 1:
        assert pow(omega, plan.N // 2, p) == p - 1
        assert eval_points_bitreversed(plan)[1] == p - 1  # omega**(N/2)


@pytest.mark.parametrize("n", [3, 5, 86, 255, 257, 1000])
def test_affine_identity(ctx, n):
    # Psi_i(Omega_s z) == -Omega_(i-1)^(n_i) * Phi_i(z), checked pointwise
    p = ctx.p
    plan = plan_new(n, ctx)
    rng = random.Random(n)
    partials = _partials(ctx, plan)
    big = partials[plan.s]
    cyc, grid = eval_points_cyclotomic(plan), eval_points_bitreversed(plan)
    # Omega_s = omega_1**e_1, e_1 = sum over l of n_1/n_l (the bridge's twist at i = 1)
    e1 = sum(plan.size(1) // nl for nl in plan.sizes)
    assert big == pow(ctx.roots[plan.exp(1) + 1], e1, p)
    for i in range(1, plan.s + 1):
        ni = plan.size(i)
        om_prev = pow(partials[i - 1], ni, p)
        for _ in range(5):
            z = rng.randrange(1, p)
            lhs = (pow(big * z % p, ni, p) - om_prev) % p
            rhs = -om_prev * (pow(z, ni, p) + 1) % p
            assert lhs == rhs
        # equivalent constant-term restatement
        assert pow(big, ni, p) * pow(ctx.inv(partials[i - 1]), ni, p) % p == p - 1
        # so z -> Omega_s z maps the roots of Phi_i onto block i of the grid
        block = slice(plan.offset(i), plan.offset(i) + ni)
        assert {big * x % p for x in cyc[block]} == set(grid[block])


def test_eval_points_examples_f5(ctx5):
    plan = plan_new(3, ctx5)
    cyc = eval_points_cyclotomic(plan)
    assert set(cyc[0:2]) == {2, 3}  # roots of z^2 + 1 over F_5
    assert cyc[2] == 4              # root of z + 1

    rev = eval_points_bitreversed(plan)
    assert rev == (1, 4, 2)


@pytest.mark.parametrize("n", range(1, 257))
def test_cyclotomic_points_equal_pruned_grid_set(ctx, n):
    # as a set: {psi**rev(k) : n_i <= k < 2 n_i for some block i} on the 2N grid
    # (psi of order 2N; for n < N the indices stay below N and the identity
    # collapses to the omega grid)
    plan = plan_new(n, ctx)
    pts = eval_points_cyclotomic(plan)
    assert len(set(pts)) == n  # distinct
    bits = plan.N.bit_length() - 1
    psi = ctx.roots[bits + 1] if plan.n == plan.N else None
    grid = set()
    for i in range(1, plan.s + 1):
        for k in range(plan.size(i), 2 * plan.size(i)):
            if psi is None:
                grid.add(pow(ctx.roots[bits], bit_reverse(k, bits), ctx.p))
            else:
                grid.add(pow(psi, bit_reverse(k, bits + 1), ctx.p))
    assert set(pts) == grid


@pytest.mark.parametrize("n", range(1, 257))
def test_bitreversed_points_are_psi_roots(ctx, n):
    plan = plan_new(n, ctx)
    p = ctx.p
    rev = eval_points_bitreversed(plan)
    assert len(set(rev)) == n
    assert rev[0] == 1
    partials = _partials(ctx, plan)
    for i in range(1, plan.s + 1):
        const = pow(partials[i - 1], plan.size(i), p)
        for l in range(plan.offset(i), plan.offset(i) + plan.size(i)):
            assert pow(rev[l], plan.size(i), p) == const  # Psi_i vanishes


def test_point_families_differ_when_split(ctx):
    plan = plan_new(3, ctx)
    assert set(eval_points_cyclotomic(plan)) != \
        set(eval_points_bitreversed(plan))


def test_plan_errors():
    with pytest.raises(ValueError):
        plan_new(0, FieldCtx())
    ctx17 = FieldCtx(17)  # 2-adicity 4: leading block limited to 8
    plan_new(15, ctx17)
    with pytest.raises(UnsupportedOrderError):
        plan_new(16, ctx17)

