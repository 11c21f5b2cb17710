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
same twist, evaluated as uncounted set-up.  When n = 2^k there
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
with no break and no scaling.  A TFT product of length n runs at transform
length m = :func:`_transform_length` (n), the least m >= n with at most
``_MAX_BLOCKS`` = 3 set bits, on both backends: m <= N, m/n < 8/7, and a
length of at most three bits (2^k + 1 included) runs as it is.  Outputs are
those of length n, since the product is exact at any m >= n; the counts
are the length-m product's.

A product breaks by the ``new`` engine on every path.  One rule picks its
backend, from p and n alone: over p < 2^31, where a product of two residues
fits an int64, a product of length n >= _ROWS_MIN computes in int64 numpy
rows (:mod:`tftlib._rows`).  The rows return the same Python ints as the
list code here, the reference and the only path for p >= 2^31 and shorter
products.  They count nothing: the bridge adds the list product's (mul,
pow2, add), from the closed forms of the kernel and the break
(``transform.kernel_counts``, ``ctft.break_counts``).

What a product's set-up yields depends only on the field and m, so the
first product of transform length m over a context builds it once, FFTW's
plan (Frigo and Johnson), and keeps it in ``ctx.product_plans[m]`` (a
:class:`_ProductPlan`): the split of m, e_1, those counts and, once a row
product has run, what the rows read besides the tables of N.  Every later
product of length m, on any path and either backend, only reads it.  The key
is m, not n: the entries are at most the lengths of at most three set bits,
about k^3/6 below 2^k, and each holds a few Python objects per block and
per step: offsets and sizes, and views into the tables of N and into the
field's matrices.  The work buffer and the Omega_s power rows stay per
product.

Each operand element, a zero product's too, loads through its
``__index__`` (``operator.index`` here, one ``struct.pack_into`` per
operand on the rows), so a non-integral one raises TypeError, and a length
past the field's two-adicity UnsupportedOrderError, before any work and
before anything is built.  The rows report their numpy scratch, the tables
of the padded length N included, in ``ctx.scratch_allocated``: at most
4.1N, 4.1N and 6.1N elements on the padded, cyclotomic and bit-reversed
paths; the list path reports none.  numpy and the row module load with the
first product that takes them, not with ``import tftlib``.
"""

from __future__ import annotations

from operator import index

from .ctft import (_require_plan, break_counts, break_in_place, ctft_forward, ctft_inverse,
                   unbreak_in_place)
from .plan import Plan, plan_new
from .ring import FieldCtx, find_root_of_unity
from .transform import dwt, fft_in_place, idwt, ifft_in_place, kernel_counts, scale_by_powers

# From this product length on, over p < 2^31, products compute in int64 rows
# (tftlib._rows): the least n from which each length's t_rows / t_list is at
# most 1.00 on every path, the threshold set at run time.  Medians over 81
# interleaved rounds of 20 products, three runs, shared 2-core VM: the
# cyclotomic path read 1.00-1.17 at 14, 1.08-1.23 at 13 and 1.11-1.27 at 12;
# every path read at most 0.86 at 15 and 16 and 0.92 at 17
_ROWS_MIN = 15
# A TFT product runs at the least length m >= n with at most this many set
# bits, so at most this many blocks (see multiply_tft).  Read at call time.
_MAX_BLOCKS = 3
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


def _transform_length(n: int) -> int:
    """The least m >= n with at most ``_MAX_BLOCKS`` set bits; m <= N."""
    m = n
    while m.bit_count() > _MAX_BLOCKS:
        m += m & -m  # the least larger length with no set bit below m's lowest
    return m


class _ProductPlan:
    """What every product of one transform length m over one field reads.

    ``plan`` is the split of m, None at m = N (the padded product, one
    block); ``e1`` gives Omega_s = omega_N**e1 on the bit-reversed path (0
    at m = N); ``counts`` is the list product's (mul, pow2, add): per block
    three kernels, which count the same mul and add, and the inverse's pow2;
    a pointwise product per slot; with a plan two breaks and the unbreak,
    which counts what a break counts.  The bit-reversed path adds its three
    scalings by the powers of Omega_s, 2 (m - 1) mul each.  ``rows`` is what
    a row product reads besides the tables of N (``tftlib._rows._twiddles``),
    filled by the first one: views of the tables and the field's matrices,
    so a plan holds no array of its own.  (A plain class: a dataclass would
    cost about 0.5 ms of every ``import tftlib``.)
    """

    __slots__ = ("plan", "e1", "counts", "rows")

    def __init__(self, plan: Plan | None, e1: int, counts: tuple[int, int, int]):
        self.plan, self.e1, self.counts = plan, e1, counts
        self.rows = None


def _product_plan(ctx: FieldCtx, m: int) -> _ProductPlan:
    """The product plan of transform length m over ctx, built and kept."""
    plan = None if m & (m - 1) == 0 else plan_new(m, ctx)
    badd, bpow2 = break_counts(plan) if plan else (0, 0)
    kmul, kpow2, kadd = map(sum, zip(*(kernel_counts(ni, True)
                                       for ni in (plan.sizes if plan else (m,)))))
    counts = (m + 3 * kmul, 3 * bpow2 + kpow2, 3 * (badd + kadd))
    product = _ProductPlan(plan, -_grid_twist(plan, 1) if plan else 0, counts)
    ctx.product_plans[m] = product
    return product


def _grid_twist(plan: Plan, i: int) -> int:
    # Omega_(i-1)/Omega_s = omega_i**(-e_i), e_i = sum over l >= i of n_i/n_l
    return -sum(plan.size(i) // nl for nl in plan.sizes[i - 1:])


def _grid_scale(plan: Plan, sign: int) -> int:
    # Omega_s**sign = omega_1**(sign * e_1), since Omega_0/Omega_s = omega_1**(-e_1)
    return pow(plan.roots[plan.exp(1) + 1], -sign * _grid_twist(plan, 1), plan.p)


def brtft_forward(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """In place, slot l <- f(omega**rev(l)) for l < n (rev over log2(N) bits);
    a plan over another field or a buffer not of n slots raises ValueError first."""
    _require_plan(ctx, a, plan)
    if plan.s == 1:
        fft_in_place(ctx, a, plan.n)
        return
    scale_by_powers(ctx, a, plan.n, _grid_scale(plan, 1))
    break_in_place(ctx, a, plan)
    for i in range(1, plan.s + 1):
        dwt(ctx, a, plan.size(i), _grid_twist(plan, i), plan.offset(i))


def brtft_inverse(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """Recover coefficients from the first n bit-reversed grid values, in place;
    rejects what :func:`brtft_forward` rejects, before any write."""
    _require_plan(ctx, a, plan)
    if plan.s == 1:
        ifft_in_place(ctx, a, plan.n)
        return
    for i in range(1, plan.s + 1):
        idwt(ctx, a, plan.size(i), _grid_twist(plan, i), plan.offset(i))
    unbreak_in_place(ctx, a, plan)
    scale_by_powers(ctx, a, plan.n, _grid_scale(plan, -1))


def poly_degree(f: list[int], p: int) -> int:
    """Degree of the coefficient list modulo p; the zero polynomial has degree -1.
    Each element it reads loads through ``operator.index``."""
    for i in range(len(f) - 1, -1, -1):
        if index(f[i]) % p:
            return i
    return -1


def _multiply(ctx: FieldCtx, f: list[int], g: list[int], path: str) -> list[int]:
    """The product on ``path``: "padded", or a path of :func:`multiply_tft`.
    At transform length m = N on the padded path, else m =
    :func:`_transform_length` (n), by the product plan of m, built by the
    first product of length m over ctx; the backend follows n."""
    p = ctx.p
    df, dg = poly_degree(f, p), poly_degree(g, p)
    if df < 0 or dg < 0:
        for c in (*f, *g):  # still only elements with __index__
            index(c)
        return [0]
    n = df + dg + 1
    m = 1 << (n - 1).bit_length() if path == "padded" else _transform_length(n)
    product = ctx.product_plans.get(m)
    if product is None:  # UnsupportedOrderError before any work
        find_root_of_unity(ctx, 1 << (m - 1).bit_length())
    rows = _row_form(ctx, n)
    if rows is not None:
        a = rows.load(ctx, f[:df + 1], g[:dg + 1], m)  # TypeError before anything is built
    else:
        fa = [index(c) % p for c in f[:df + 1]] + [0] * (m - df - 1)
        ga = [index(c) % p for c in g[:dg + 1]] + [0] * (m - dg - 1)
    product = product or _product_plan(ctx, m)
    plan = product.plan
    # Omega_s = omega_N**e1 scales the bit-reversed path; 0 for no scaling
    e1 = product.e1 if path == "bitreversed" else 0
    if rows is not None:
        h = rows.multiply(ctx, a, n, product, e1)
        mul, pow2, add = product.counts
        ctx.ops.mul += mul + (6 * (m - 1) if e1 else 0)
        ctx.ops.pow2 += pow2
        ctx.ops.add += add
        return h
    for a in (fa, ga):
        if e1:
            scale_by_powers(ctx, a, m, _grid_scale(plan, 1))
        if plan is None:
            fft_in_place(ctx, a, m)
        else:
            ctft_forward(ctx, a, plan)
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
    return _multiply(ctx, f, g, "padded")


def multiply_tft(ctx: FieldCtx, f: list[int], g: list[int],
                 path: str = "cyclotomic") -> list[int]:
    """Exact product at transform length m, the least m >= deg(fg) + 1 = n
    with at most three set bits, so at most three blocks.

    m <= N and m/n < 8/7: 2^k - 1 runs at 2^k, a length of at most three
    bits (2^k + 1 included) as it is.  On the rows a product's time follows
    its numpy calls per block, and a few blocks cut them.  The outputs are
    the product's at any m, and the counts are the length-m product's.

    ``cyclotomic`` multiplies the per-block evaluations (the product is
    determined modulo the product of the Phi_i, whose degree is m > deg(fg));
    ``bitreversed`` multiplies the truncated grid values, which is the same
    product between a scaling by Omega_s**k of both operands and one by
    Omega_s**(-k) of the result (see the module docstring).  Both operands
    share one plan, so the pointwise product is taken over identical
    evaluation points.  Both paths break by the ``new`` engine, and count
    its break.
    When m = N the truncated transform is the padded one, so the product
    is :func:`multiply_full_fft`'s.
    """
    if path not in ("cyclotomic", "bitreversed"):
        raise ValueError(f"unknown path {path!r}")
    return _multiply(ctx, f, g, path)
