"""Bit-reversed truncated transform via the block engine, and multiplication.

The block transform evaluates at roots of the Phi_i; the bit-reversed
truncated transform needs the first n points of the bit-reversed DFT grid
instead, which are roots of Psi_i(z) = z^(n_i) - Omega_(i-1)^(n_i).  The two
families differ by the change of variable z -> Omega_s z, under which
Psi_i(Omega_s z) = -Omega_(i-1)^(n_i) * Phi_i(z).  So:

    1. scale coefficient k by Omega_s**k        (f(z) -> f(Omega_s z))
    2. break into images g_i modulo the Phi_i
    3. per block, a twisted transform of g_i: it evaluates g_i at
       Omega_(i-1)/Omega_s times the n_i-th roots of unity, which are roots
       of Phi_i, so f lands at the roots of Psi_i, exactly in
       bit-reversed-grid order.  Since omega_l = omega_i**(n_i/n_l) for
       l >= i, that factor is omega_i**(-e_i) with e_i = sum_(l>=i) n_i/n_l,
       so the twist is -e_i and the kernel takes its stage twiddles from
       the context's root ladder.

At i = 1 the factor is 1/Omega_s, so Omega_s = omega_1**e_1 comes from the
same twist, evaluated once per call as uncounted set-up.  When n = 2^k there
is one block, e_1 = 1 and Omega_s = omega_1, of order 2n; the twist -1
undoes that scaling, so the transforms skip both and run the plain FFT.
Every step is invertible, which gives the inverse transform, and with it
polynomial products of any target length n at a cost that grows smoothly in
n instead of jumping at powers of two.

A product never sees the order of its evaluation points: its inverse uses
the points of its forward transforms.  e_i is odd, so the twist -e_i reaches
the roots of Phi_i that twist 1 reaches, in another order, and the
bit-reversed product is the cyclotomic one between a scaling of both
operands by Omega_s**k and one of the result by Omega_s**(-k).  Each backend
writes the product once (:func:`_multiply`, ``_rows.multiply``); the padded
product, and every product at n = 2^k, is its one-block case at twist 0,
with no break and no scaling.

Over p < 2^31, where a product of two residues fits an int64, products of
length n >= _ROWS_MIN compute in int64 numpy rows (:mod:`tftlib._rows`):
padded ones, and truncated ones with the ``new`` engine.  They return the
same Python ints as the list code here, the reference and the only path for
p >= 2^31, shorter products and the other engines.  The rows count nothing:
:func:`_tally_rows` adds the list product's (mul, pow2, add) from the closed
forms of the kernel and the break (``transform.kernel_counts``,
``ctft.break_counts``).  The rows report their numpy scratch, the tables of
the padded length N included, in ``ctx.scratch_allocated``: at most 5N, 9N
and 10N elements on the padded, cyclotomic and bit-reversed paths; the list
path reports none.  numpy and the row module load with the first product that
takes them, not with ``import tftlib``.
"""

from __future__ import annotations

from .ctft import (ENGINES, _require_length, break_counts, break_in_place, ctft_forward,
                   ctft_inverse, unbreak_in_place)
from .plan import Plan, plan_new
from .ring import FieldCtx, find_root_of_unity
from .transform import dwt, fft_in_place, idwt, ifft_in_place, kernel_counts, scale_by_powers

# From this product length on, over p < 2^31, products compute in int64 rows
# (tftlib._rows).  Measured at every n in 16..64: the least n from which each
# length's t_rows / t_list (median over 41 or 81 interleaved rounds, then over
# two or three runs) is at most 1.00 on every path: 0.99 from 29, 0.82 from
# 40.  28 read 1.01 (padded), 24 1.02, 20 1.15 and 16 1.50.
_ROWS_MIN = 29
_rows = None  # tftlib._rows, bound once, by the first product that takes it


def _row_form(ctx: FieldCtx, n: int):
    """The row module if a product of length n over ctx computes in rows, else None."""
    global _rows
    if n < _ROWS_MIN or ctx.p >> 31:
        return None
    if _rows is None:
        from . import _rows as rows
        _rows = rows
    return _rows


def _tally_rows(ctx: FieldCtx, n: int, plan: Plan | None, scaled: bool) -> None:
    """Count what the list product of transform length n counts: two forward
    kernels and an inverse per block (one block of n with no ``plan``) and a
    pointwise product per slot, then for a TFT ``plan`` two breaks and an
    unbreak, and if ``scaled`` three scalings by the powers of Omega_s,
    2 (n - 1) multiplications each."""
    break_add, break_pow2 = break_counts(plan) if plan else (0, 0)
    mul, pow2, add = n + (6 * (n - 1) if scaled else 0), 3 * break_pow2, 3 * break_add
    for ni in plan.sizes if plan else (n,):
        fmul, _, fadd = kernel_counts(ni, False)
        imul, ipow2, iadd = kernel_counts(ni, True)
        mul += 2 * fmul + imul
        pow2 += ipow2
        add += 2 * fadd + iadd
    ctx.ops.mul += mul
    ctx.ops.pow2 += pow2
    ctx.ops.add += add


def _grid_twist(plan: Plan, i: int) -> int:
    # Omega_(i-1)/Omega_s = omega_i**(-e_i), e_i = sum over l >= i of n_i/n_l
    return -sum(plan.size(i) // nl for nl in plan.sizes[i - 1:])


def _grid_scale(plan: Plan, sign: int) -> int:
    # Omega_s**sign = omega_1**(sign * e_1), since Omega_0/Omega_s = omega_1**(-e_1)
    return pow(plan.roots[plan.exp(1) + 1], -sign * _grid_twist(plan, 1), plan.p)


def brtft_forward(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """In place, slot l <- f(omega**rev(l)) for l < n (rev over log2(N) bits)."""
    if plan.p != ctx.p:  # Omega_s and the twists come from the plan's ladder
        raise ValueError(f"plan over {plan.p} used with a field over {ctx.p}")
    _require_length(a, plan.n)
    if plan.s == 1:
        fft_in_place(ctx, a, plan.n)
        return
    scale_by_powers(ctx, a, plan.n, _grid_scale(plan, 1))
    break_in_place(ctx, a, plan)
    for i in range(1, plan.s + 1):
        dwt(ctx, a, plan.size(i), _grid_twist(plan, i), plan.offset(i))


def brtft_inverse(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """Recover coefficients from the first n bit-reversed grid values, in place."""
    if plan.p != ctx.p:  # Omega_s and the twists come from the plan's ladder
        raise ValueError(f"plan over {plan.p} used with a field over {ctx.p}")
    _require_length(a, plan.n)
    if plan.s == 1:
        ifft_in_place(ctx, a, plan.n)
        return
    for i in range(1, plan.s + 1):
        idwt(ctx, a, plan.size(i), _grid_twist(plan, i), plan.offset(i))
    unbreak_in_place(ctx, a, plan)
    scale_by_powers(ctx, a, plan.n, _grid_scale(plan, -1))


def poly_degree(f: list[int], p: int) -> int:
    """Degree of the coefficient list modulo p; the zero polynomial has degree -1."""
    for i in range(len(f) - 1, -1, -1):
        if f[i] % p:
            return i
    return -1


def _multiply(ctx: FieldCtx, f: list[int], g: list[int], path: str, engine: str) -> list[int]:
    """The product on ``path``: "padded", or a path of :func:`multiply_tft`.
    With no plan, the padded product at N; else the block transforms of n."""
    p = ctx.p
    df, dg = poly_degree(f, p), poly_degree(g, p)
    if df < 0 or dg < 0:
        return [0]
    n = df + dg + 1
    N = 1 << (n - 1).bit_length()  # least power of two >= n
    find_root_of_unity(ctx, N)  # UnsupportedOrderError before any work
    plan = None if path == "padded" or n == N else plan_new(n, ctx)
    # Omega_s = omega_N**e1 scales the bit-reversed path; 0 for no scaling
    e1 = -_grid_twist(plan, 1) if plan is not None and path == "bitreversed" else 0
    m = N if plan is None else n  # the transform length
    rows = _row_form(ctx, n) if plan is None or engine == "new" else None
    if rows is not None:
        h = rows.multiply(ctx, f[:df + 1], g[:dg + 1], m, plan, e1)
        _tally_rows(ctx, m, plan, e1 != 0)
        return h
    fa = [int(c) % p for c in f[:df + 1]] + [0] * (m - df - 1)
    ga = [int(c) % p for c in g[:dg + 1]] + [0] * (m - dg - 1)
    for a in (fa, ga):
        if e1:
            scale_by_powers(ctx, a, m, _grid_scale(plan, 1))
        if plan is None:
            fft_in_place(ctx, a, m)
        else:
            ctft_forward(ctx, a, plan, engine)
    for k in range(m):
        fa[k] = fa[k] * ga[k] % p
    ctx.ops.mul += m
    if plan is None:
        ifft_in_place(ctx, fa, m)
    else:
        ctft_inverse(ctx, fa, plan)
    if e1:
        scale_by_powers(ctx, fa, m, _grid_scale(plan, -1))
    del fa[n:]  # the padding
    return fa


def multiply_full_fft(ctx: FieldCtx, f: list[int], g: list[int]) -> list[int]:
    """Exact product by zero-padding to the least power of two above deg(fg).

    Two forward transforms, a pointwise product, one inverse transform.  Cost
    jumps by roughly 2x whenever the product degree crosses a power of two.
    """
    return _multiply(ctx, f, g, "padded", "new")


def multiply_tft(ctx: FieldCtx, f: list[int], g: list[int],
                 path: str = "cyclotomic", engine: str = "new") -> list[int]:
    """Exact product at transform length exactly deg(fg) + 1.

    ``cyclotomic`` multiplies the per-block evaluations (the product is
    determined modulo the product of the Phi_i, whose degree is n > deg(fg));
    ``bitreversed`` multiplies the truncated grid values, which is the same
    product between a scaling by Omega_s**k of both operands and one by
    Omega_s**(-k) of the result (see the module docstring).  Both operands
    share one plan, so the pointwise product is taken over identical
    evaluation points.  ``engine`` selects the block split on both paths.
    When n = 2^k the truncated transform is the padded one, so the product
    is :func:`multiply_full_fft`'s.
    """
    if path not in ("cyclotomic", "bitreversed"):
        raise ValueError(f"unknown path {path!r}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    return _multiply(ctx, f, g, path, engine)
