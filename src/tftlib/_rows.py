"""The product in int64 rows, for fields below 2^31.

:mod:`tftlib.bridge` hands a product here when p < 2^31 and its length n is
at least ``bridge._ROWS_MIN``, on every path.  Below 2^31 a product of two
residues fits an int64, so every butterfly, fold and scaling is a numpy
operation, and the outputs are the list path's Python ints in [0, p).  The
list path, the reference these rows are tested against, keeps the rest: the
public transforms, p >= 2^31 and shorter products.

The two operands are the rows of a (2, n) buffer, so a product's forward
transforms are one set of operations.  Each loads into its row by one
``struct.pack_into`` call (:func:`load`), the buffer is reduced only when
an element lies outside [0, p), and the pointwise product overwrites the
second row.

A block of n_i = 64R slots with 2 <= R <= 64, 128 to 4096 slots, at either
twist, runs no radix-2 stage: its stages u >= 64 are one R-point DFT across
its 64-slot chunks (Bailey's four-step FFT), a level, whose matrix is R
columns of the base case's matrix below, or for 4096 slots at twist 1 the
odd twist's matrix, at the 64 odd powers of omega_128 (:func:`_twiddles`).
When the product's first block has at most 8 chunks (every level of a
product of at most 1023 slots), the levels are int64 matrix products, one
per level over both rows and one np.remainder: their entries are balanced,
so with inputs in [0, p) a sum of R <= 4 terms is at most 2 (p - 1)^2 <
2^63, and a level of 8 chunks balances its inputs first, which bounds its
sums alike (:func:`_levels`).  Otherwise every level is a float64 matrix
product per row in the base case's limbs.  Only the blocks of 8192 slots or
more, a prefix of the row, run stages, one set of operations per stage over
every such block at once: blocks are contiguous and aligned, so at
half-length u the blocks with n_i >= 2u are a prefix that reshapes to
(rows, 2, u), and each row takes one twiddle, a power of omega_N, N the
padded length.

The six stages below u = 64 are the base case: on each row of the buffer,
one float64 matrix product over every 64-slot chunk, and one for each
smaller block.  Each 64-slot chunk c of a block of 64 slots or more
holds its polynomial modulo z^64 - lambda_c^64, lambda_c =
omega_N**rev(c); it is multiplied by its twist row lambda_c**(i - 21),
and then by the 64-point DFT matrix in bit-reversed order, zeta**(i
rev(j)), zeta = omega_64, so its values are the block's times
lambda_c**(-21), a shift that no caller sees: the pointwise product
carries lambda_c**(-42), and the inverse's twist row, the forward one read
backwards, lambda_c**(42 - i), cancels it as it untwists.  A block of n_i
< 64 slots at twist t evaluates at the points of columns [t n_i, (t + 1)
n_i) of that matrix, so it is its own row times those columns' top n_i
rows, and needs no twist.  The inverse applies the unnormalised inverse
matrix, zeta**(-i rev(j)) (a small block: rows [t n_i, (t + 1) n_i), left
n_i columns), then lambda_c**(42 - i) to the chunks, then the levels and
the stages u >= 64, and the 1/n_i pass.  The float64 matrices are kept in
16-bit limbs, so that numpy hands the products, the float levels' too, to
BLAS (FFLAS-FFPACK's way to exact finite-field products): a residue in [0,
p) times a low limb, summed over 64 slots (a level sums R <= 64 chunks), is
at most 64 (p - 1)(2^16 - 1) < 2^6 2^31 2^16 = 2^53 for every p < 2^31,
and a high limb is below 2^15, so every sum and every partial sum is an
integer that float64 holds exactly, whatever order BLAS adds in.  The two
limbs' sums then recombine in int64, lo + 2^16 (hi mod p) < 2^53 + 2^47.

The per-N tables are ``ctx.row_tables[N]``, built by the first product of
padded length N over a context: the powers of omega_N (the Omega_s
scalings), the bit-reversed base rows (only the entries below N/128, which
the stages u >= 64 read), and the twist rows, N/64 rows of 64.  The
base case's matrices and the int64 levels' parts, 132 KiB, are field
set-up like ``ctx.roots``, built once per field by its first row product
(``ctx.row_dft``, ``ctx.row_ints``, :func:`_matrices`), and so are the
odd twist's matrices, 128 KiB, by its first product that holds a
4096-slot block at twist 1 (``ctx.row_odd``, :func:`_odd`); none is
counted as scratch.  All grow from the root ladder by doubling.  What a
product of transform length m reads of them depends only on the field and
m, so the first row product of length m builds it once, into its product plan
(``bridge._ProductPlan``, :func:`_twiddles`): per block a view of the
tables, per level two views of the matrices, and per stage u >= 64 one
row of twiddles.  A stage of one block reads a view of the base rows; the
rows of a stage of several blocks are their views concatenated, at most
m/128 entries per direction at u = 64 and half as many at each next stage,
so a plan holds fewer than m/64 elements per direction.

The break and its inverse reach the list path's images without the
engines' survivor runs.  The break halves z^N - 1, as the ``mateer`` engine
does, and the unbreak undoes it by a Horner carry; each takes a few numpy
calls per bit of N or per block on contiguous slices, and reduces only at
its end, which the int64 headroom allows (``_break``, ``_unbreak``).
:func:`multiply` is the one product: the break, the blocks at twist 1 and
the unbreak, on the bit-reversed path between two Omega_s scalings (rows of
powers of omega_N); the padded product is its one-block case at twist 0.

The rows' twiddles are balanced, in (-p/2, p/2], so a product of a twiddle
and a value below 4p in magnitude stays below 2p^2 < 2^63 for every p <
2^31.  That lets the butterflies reduce lazily (Harvey 2014): each product
is reduced at once, but the forward transform reduces the stage blocks'
sums and differences only after every fourth stage, and hands the twist
values below 4p in magnitude (a level's in [0, p)), which it multiplies and
reduces for the base case; the inverse reduces its sums after every third
stage (proofs at :func:`_transform`).

The rows count nothing.  Their element work is not the list path's (lazy
reductions, twiddles read from tables, a halved break, a matrix product),
so the bridge adds the list product's (mul, pow2, add) after a row
product, from the closed forms beside the list code that counts them.

Every array this module takes besides the int64 buffer of the operands,
which takes the product, and besides the field's matrices, is reported in
``ctx.scratch_allocated``, once: each table and each plan's concatenated
stage rows by the product that builds them, and per product a work buffer
of 2m elements (the stages' products and quotients, the carries, the
float levels' and the base case's float sums, one row at a time, and the
int64 levels' sums), and on the bit-reversed path the two power rows.  The
1/n_i and the unbreak's halvings are scalars, one per block.  A product of
padded length N reports at most 4.1N elements on the padded and the
cyclotomic path and 6.1N on the bit-reversed one, tables and plan included
(``tests/test_rows.py``).
"""

from __future__ import annotations

from operator import index
from struct import error as struct_error, pack_into

import numpy as np

from .plan import Plan
from .ring import FieldCtx

# from this many elements, x - (x // p) * p beats np.remainder: on contiguous
# int64 below 2p^2, best of 41 alternating rounds of 1000 calls on a shared
# 2-core VM, 3.36-3.60 us against 3.52-3.78 at 640, 3.65 against 4.20 at 768,
# a tie at 576 and 2.99-3.34 against 2.88-3.18 at 512
_DIVIDE_MIN = 640
# chunks at most this many elements wide fold by one matmul, which costs
# about three additions an element; wider ones halve (measured)
_SUM_WIDTH = 64
_ONE = np.ones(1, np.int64)  # a row of ones of any length, as a view of stride 0
_BASE = 64  # the base case: a chunk of this many slots is one row of a matrix product
_LIMB = 16  # bits of the matrices' low limbs
# levels of at most this many 64-slot chunks take one int64 matrix product
# over both rows, when no block of the product is larger (:func:`_levels`).
# Public products, medians of 31 alternating in-process rounds on a shared
# 2-core VM: int64 levels of 8 chunks read 0.93-0.98x of float ones where
# they run (n = 449 on every path, 513 and 769 on the TFT paths), and int64
# levels of 2 and 4 chunks beside float ones 1.01-1.03x of float ones on
# the TFT paths at 1152, 1282, 1408 and 2304, 1.00-1.01x at 4352
_INTS = 8


def _counted(ctx: FieldCtx, a: np.ndarray) -> np.ndarray:
    ctx.scratch_allocated += a.size
    return a


def _mod(ctx: FieldCtx, x: np.ndarray, work: np.ndarray | None,
         out: np.ndarray | None = None) -> np.ndarray:
    """out <- x mod p, in [0, p) (out defaults to x).  numpy divides by a
    scalar several times faster than it takes a remainder, so large arrays
    take x - (x // p) * p, the quotient in ``work`` (flat, apart from x;
    None for the set-up and the levels' high sums, which take the
    remainder)."""
    if out is None:
        out = x
    if x.size < _DIVIDE_MIN or work is None:
        return np.remainder(x, ctx.p, out=out)
    q = work[:x.size].reshape(x.shape)
    np.floor_divide(x, ctx.p, out=q)
    np.multiply(q, ctx.p, out=q)
    return np.subtract(x, q, out=out)


def load(ctx: FieldCtx, f, g, n: int) -> np.ndarray:
    """Both operands as the rows of a (2, n) int64 buffer, zero-padded, not
    yet reduced.

    Each element loads through its ``__index__``, as on the list path:
    ``struct.pack_into`` writes an operand straight into its row, and an
    operand it cannot pack (struct.error) loads through ``operator.index``,
    which raises TypeError on a float, a Fraction or a numpy float and
    takes an integer outside int64, reduced.
    """
    a = np.zeros((2, n), np.int64)
    for r, c in enumerate((f, g)):  # into a itself: a row view costs about 0.5 us more
        try:
            pack_into(f"{len(c)}q", a, 8 * n * r, *c)
        except struct_error:
            a[r, :len(c)] = [index(x) % ctx.p for x in c]
    return a


def _grow(ctx: FieldCtx, row: np.ndarray, ladder, work: np.ndarray | None) -> np.ndarray:
    """Fill a row of 2^len(ladder) residues in [0, p) by doubling: entry 0
    is 1, and entries [m, 2m) are entries [0, m) times ladder[log2(m)]."""
    row[:1] = 1
    for b, w in enumerate(ladder):
        _mod(ctx, np.multiply(row[:1 << b], w, out=row[1 << b:2 << b]), work)
    return row


def _powers(ctx: FieldCtx, table: np.ndarray, work: np.ndarray | None) -> None:
    """Fill column i of ``table`` with the i-th powers of its column 1, by
    doubling: column m is column m/2 squared, and columns [m + 1, 2m) are
    columns [1, m) times column m."""
    table[:, 0] = 1
    for m in (2, 4, 8, 16, 32):
        _mod(ctx, np.multiply(table[:, m // 2], table[:, m // 2], out=table[:, m]), work)
        _mod(ctx, np.multiply(table[:, 1:m], table[:, m:m + 1], out=table[:, m + 1:2 * m]),
             work)


def _tables(ctx: FieldCtx, N: int, work: np.ndarray) -> tuple:
    """The tables of padded length N over ctx, built and reported once.

    ``powers`` holds omega_N**j for j < N, in [0, p).  ``base`` holds the
    forward and inverse base rows omega_N**(+-rev(r)) for r < N/128, rev
    over log2(N/2) bits, the entries the stages u >= 64 read (see
    :func:`_twiddles`), with a last axis of length 1, so that a slice
    multiplies the rows of a stage.  ``twists`` holds lambda_c**(i - 21)
    in row c < N/64 and column i < 64, lambda_c = omega_N**rev(c), rev
    over log2(N/64) bits: the forward reads row c as it is, and the
    inverse reads it reversed, lambda_c**(42 - i), which is
    lambda_c**(-i) times the lambda_c**(-42) that a pointwise product of
    two forward chunks carries.  base and twists are balanced into (-p/2,
    p/2].

    The tables grow from the root ladder by doubling (:func:`_grow`):
    ``powers`` by omega_N**m = roots[log2(N/m)]; as rev(m + r) = rev(m) +
    rev(r) for r < m, entries [m, 2m) of a base row are its first m
    entries times omega_N**(+-rev(m)) = omega_(4m)**(+-1), roots[log2(4m)]
    or inv_roots[log2(4m)]; the lambda_c by omega_(128m) =
    roots[log2(128m)], and the columns of ``twists`` by :func:`_powers`,
    lambda_c**i.  Column 0 then takes lambda_c**(-64), grown by
    omega_(2m)**(-1) = inv_roots[log2(2m)], times column 43, which gives
    lambda_c**(-21), and every other column is multiplied by it.
    """
    tables = ctx.row_tables.get(N)
    if tables is None:
        k = N.bit_length() - 1
        half, rows = N >> 7, N >> 6  # b rungs grow a row of 2^b entries, none an empty one
        powers = _grow(ctx, _counted(ctx, np.empty(N, np.int64)), ctx.roots[k:0:-1], work)
        base = _counted(ctx, np.empty((2, half), np.int64))
        for row, ladder in zip(base, (ctx.roots, ctx.inv_roots)):
            _grow(ctx, row, ladder[2:half.bit_length() + 1], work)
        twists = _counted(ctx, np.empty((rows, _BASE), np.int64))
        _grow(ctx, twists[:, 1], ctx.roots[7:rows.bit_length() + 6], work)
        _powers(ctx, twists, work)
        shift = twists[:, :1]  # lambda**(-64), then lambda**(-21)
        _grow(ctx, shift[:, 0], ctx.inv_roots[1:rows.bit_length()], work)
        _mod(ctx, np.multiply(shift, twists[:, 43:44], out=shift), work)
        _mod(ctx, np.multiply(twists[:, 1:], shift, out=twists[:, 1:]), work)
        for table in (base, twists):
            np.subtract(table, ctx.p, out=table, where=table > ctx.p // 2)
        tables = ctx.row_tables[N] = (powers, base[:, :, None], twists)
    return tables


def _limbs(ints: np.ndarray) -> np.ndarray:
    """A pair of (64, 64) matrices of residues in [0, p), shape (2, 64, 64),
    as float64 of shape (2, 2, 64, 64): [d, 0] holds the low 16 bits of
    matrix d, and [d, 1] the rest, shifted down."""
    mats = np.empty((2, 2, _BASE, _BASE))
    mats[:, 0] = ints & ((1 << _LIMB) - 1)
    mats[:, 1] = ints >> _LIMB
    return mats


def _matrices(ctx: FieldCtx) -> tuple:
    """The base case's matrices over ctx and the int64 levels' parts, built
    once per field.

    The matrices (``ctx.row_dft``) are the forward one, zeta**(i rev(j)) in
    row i and column j, and the unnormalised inverse, zeta**(-i rev(j)) in
    row j and column i, zeta = omega_64 and rev over six bits, in 16-bit
    limbs (:func:`_limbs`), so that their float64 products are exact: a
    residue in [0, p) times a low limb, summed over 64 terms, is at most 64
    (p - 1)(2^16 - 1) < 2^53, and a high limb is below 2^15.  Their points
    zeta**(+-rev(j)) grow from the ladder by doubling (entries [m, 2m)
    times omega_(2m)**(+-1)), and their powers by :func:`_powers`.  A field
    of two-adicity k <= 5 has no zeta: its points stop at j < 2^k, the
    others are 0, and no product reads them, since its padded lengths are
    at most 2^k.

    The parts (``ctx.row_ints``) are the top 16 rows and columns of both
    matrices' residues, as int64 balanced into (-p/2, p/2], which every
    level of at most 8 chunks reads: a sum of R <= 4 of their products
    with inputs in [0, p), or of 8 with balanced inputs, lies within 2 (p -
    1)^2 < 2^63 (:func:`_levels`).  Both, 132 KiB, are field set-up like
    ``ctx.roots``, not scratch.
    """
    if ctx.row_dft is None:
        ints = np.zeros((2, _BASE, _BASE), np.int64)  # the points' powers in row j
        for table, ladder in zip(ints, (ctx.roots, ctx.inv_roots)):
            _grow(ctx, table[:, 1], ladder[1:7], None)
            _powers(ctx, table, None)
        ints[0] = ints[0].T.copy()
        ctx.row_dft = _limbs(ints)
        small = ctx.row_ints = ints[:, :2 * _INTS, :2 * _INTS].copy()
        np.subtract(small, ctx.p, out=small, where=small > ctx.p // 2)
    return ctx.row_dft, ctx.row_ints


def _odd(ctx: FieldCtx) -> np.ndarray:
    """The odd twist's matrices over ctx, built once per field by its first
    product that holds a 4096-slot block at twist 1, the level that reads
    them (:func:`_twiddles`).

    The forward one holds omega_128**(i (1 + 2 rev(j))) in row i and column
    j, and the unnormalised inverse omega_128**(-i (1 + 2 rev(j))) in row j
    and column i: the base case's pair (:func:`_matrices`) with row (or
    column) i times omega_128**(+-i), whose points are the 64 odd powers of
    omega_128.  They are kept in 16-bit limbs, 128 KiB of field set-up,
    and their float64 products are exact as the base case's are: a residue
    times a low limb, summed over 64 terms, is at most 64 (p - 1)(2^16 - 1)
    < 2^53, and a high limb is below 2^15.
    """
    if ctx.row_odd is None:
        mats = _matrices(ctx)[0]
        ints = mats[:, 0].astype(np.int64) + (mats[:, 1].astype(np.int64) << _LIMB)
        scale = np.empty((2, _BASE), np.int64)  # omega_128**(+-i)
        for row, ladder in zip(scale, (ctx.roots, ctx.inv_roots)):
            _grow(ctx, row, ladder[7:1:-1], None)
        np.multiply(ints[0], scale[0, :, None], out=ints[0])
        np.multiply(ints[1], scale[1], out=ints[1])
        ctx.row_odd = _limbs(np.remainder(ints, ctx.p, out=ints))
    return ctx.row_odd


def _twiddles(ctx: FieldCtx, sizes, tables: tuple, twist: int) -> tuple:
    """What every product of blocks ``sizes`` at ``twist`` t (0 or 1) reads
    besides the tables of N, built once into its product plan.

    Every block reads entries [t s, (t + 1) s) of a table, s its share
    (``share``): of the base rows, its m = n_i / 2u rows at half-length u;
    of the twist rows, one per 64-slot chunk; of the matrices' columns, its
    n_i points when n_i < 64, and its R chunks when it is a level.

    A block of n_i = 64R slots with 2 <= R <= 64, 128 to 4096 slots, is a
    level: its stages u >= 64 take its chunks f_0, ..., f_(R-1) to f mod
    (z^64 - lambda_c^64), c < R, which is the sum over r of lambda_c^(64 r)
    f_r: an R-point DFT across the chunks (Bailey's four-step FFT).  Its
    points lambda_c^64 = omega_(2R)**(t + 2 rev(c)), rev over log2(R) bits,
    are omega_128**rev(tR + c), rev over seven bits.  For tR + c < 64 that
    is zeta**rev(tR + c), rev over six bits, so its matrix is columns [tR,
    (t + 1) R) of the base case's forward matrix (:func:`_matrices`), top R
    rows, and its unnormalised inverse the same part of the inverse one;
    the forward part is read transposed, on the left of the chunks.  A
    4096-slot block at twist 1 has the points omega_128**(1 + 2 rev(c)),
    and reads the odd twist's matrices whole (:func:`_odd`).  The parts are
    int64 when the product's first block has at most 8 chunks, else
    float64 limbs (:func:`_levels`).

    The blocks of more than 4096 slots are the stage blocks, a prefix of
    the row as the blocks are decreasing, and they alone run stages u >=
    64.  Row q of block i at half-length u (n_i = 2^(k-1) u) takes c *
    omega_(2^(k-1))**rev(q), where c = omega_(2^k)**t is its first twiddle
    (as in :func:`tftlib.transform.dwt`): entry q of the base row is
    omega_(2m)**rev(q) for q < m, and entry m + q is omega_(4m)**(2 rev(q)
    + 1).  The blocks of a stage have distinct m, one set bit each of n' >>
    (st + 1), n' the slots of the stage blocks, which is the stage's row
    count: a stage of one block reads its view of the base rows, and the
    views of a stage of several blocks are concatenated here, once, and
    reported, w = n' >> (st + 1) <= n/128 entries per direction.

    Returns the (forward, inverse) rows of the stages u = 64, 128, ..., each
    of shape (2, rows, 1); (offset, size, twist rows) of every block of 64
    slots or more; (offset, size, first matrix column) of every smaller
    block but those of one slot, whose transform is the identity; the slots
    of the chunks, and of every block but one of one slot; (offset from the
    first level, size, forward part, inverse part) of every level; and the
    slice of the slots the levels hold.
    """
    _, base, twists = tables
    mats, ints = _matrices(ctx)

    def share(s):
        return slice(twist * s, (twist + 1) * s)

    lead = sum(ni for ni in sizes if ni > _BASE * _BASE)  # the stage blocks' slots
    stages = []
    for st in range(_BASE.bit_length() - 1, lead.bit_length() - 1):
        w = lead >> (st + 1)
        pieces = [base[:, share(1 << b)] for b in range(w.bit_length() - 1, -1, -1) if w >> b & 1]
        stages.append(pieces[0] if len(pieces) == 1
                      else _counted(ctx, np.concatenate(pieces, axis=1)))
    whole = sizes[0] <= _INTS * _BASE  # every level takes the int64 product
    chunks, small, levels, offset = [], [], [], 0
    for ni in sizes:
        r = ni // _BASE
        if ni >= _BASE:
            chunks.append((offset, ni, twists[share(r)]))
        elif ni > 1:
            small.append((offset, ni, twist * ni))
        if 2 <= r <= _BASE:
            parts, cols = ints if whole else mats, share(r)
            if twist and r == _BASE:  # the odd twist's points
                parts, cols = _odd(ctx), slice(0, r)
            levels.append((offset - lead, ni, parts[0][..., :r, cols].swapaxes(-1, -2),
                           parts[1][..., cols, :r].swapaxes(-1, -2)))
        offset += ni
    top = sum(c[1] for c in chunks)
    return (stages, chunks, small, top, top + sum(c[1] for c in small), tuple(levels),
            slice(lead, lead + sum(level[1] for level in levels)))


def _exact(ctx: FieldCtx, a: np.ndarray, work: np.ndarray, inverse: bool, span: int,
           top: int = 0, small=(), levels=()) -> None:
    """Every row of a, its first ``span`` slots in [0, p), times the base
    case's forward or inverse matrix in 16-bit limbs, back into those slots
    in [0, p): the base case of every block, or the float levels.

    The base case multiplies the matrix by each 64-slot chunk of the first
    ``top`` slots (already twisted), and each block of ``small`` by its
    columns of the forward matrix or its rows of the inverse one.  The
    levels take the stages u >= 64 of every block of ``levels``: its forward
    or inverse R-point part times its R chunks as the rows of an (R, 64)
    matrix (:func:`_twiddles`).

    A row's slots turn into float64 where they lie, and each matmul writes
    the low and the high limbs' sums of its blocks to the two halves of the
    work buffer as float64; turned into int64 where they lie, they recombine
    into the row.  The base case reduces the high sums by :func:`_mod`, its
    quotients in the row's slots, free by then; the levels by one
    np.remainder, a call where :func:`_mod` takes three.
    """
    mats = ctx.row_dft[1 if inverse else 0]
    sums = work[:2 * span]
    fsums = sums.view(np.float64).reshape(2, span)
    lo, hi = sums[:span], sums[span:]
    for row in a:
        x = row[:span]
        fx = x.view(np.float64)
        np.copyto(fx, x, casting="unsafe")
        if top:
            np.matmul(fx[:top].reshape(-1, _BASE), mats,
                      out=fsums[:, :top].reshape(2, -1, _BASE))
        for off, ni, c in small:
            part = mats[:, c:c + ni, :ni] if inverse else mats[:, :ni, c:c + ni]
            np.matmul(fx[off:off + ni], part, out=fsums[:, off:off + ni])
        for off, ni, forward, backward in levels:
            np.matmul(backward if inverse else forward, fx[off:off + ni].reshape(-1, _BASE),
                      out=fsums[:, off:off + ni].reshape(2, -1, _BASE))
        np.copyto(sums, fsums.reshape(-1), casting="unsafe")
        _mod(ctx, hi, None if levels else x)
        np.left_shift(hi, _LIMB, out=hi)
        np.add(lo, hi, out=lo)
        _mod(ctx, lo, hi, out=x)


def _levels(ctx: FieldCtx, a: np.ndarray, levels, region: slice, work: np.ndarray,
            inverse: bool) -> None:
    """The stages u >= 64 of every level (:func:`_twiddles`), on the slots
    ``region`` of every row of a, from [0, p) into [0, p).

    Float64 parts run in :func:`_exact`, a row at a time.  Int64 parts,
    balanced into (-p/2, p/2], take one matmul per level over every row at
    once, its sums in the work buffer, and one np.remainder back into the
    rows.  No sum leaves int64: p is odd, so a part's entries have
    magnitude at most (p - 1)/2, and with inputs in [0, p) a sum of R <= 4
    products lies within 4 (p - 1)(p - 1)/2 = 2 (p - 1)^2 < 2^63, as p <
    2^31 gives (p - 1)^2 < 2^62.  A level of 8 chunks balances its inputs
    first, so its sums lie within 8 ((p - 1)/2)^2 = 2 (p - 1)^2 as well.
    """
    if not levels:
        return
    x = a[:, region]
    if levels[0][2].dtype == np.float64:
        _exact(ctx, x, work, inverse, x.shape[1], levels=levels)
        return
    if levels[0][1] == _INTS * _BASE:
        np.subtract(x, ctx.p, out=x, where=np.greater(x, ctx.p // 2))
    k = x.shape[0]
    sums = work[:x.size].reshape(x.shape)
    for off, ni, forward, backward in levels:
        np.matmul(backward if inverse else forward, x[:, off:off + ni].reshape(k, -1, _BASE),
                  out=sums[:, off:off + ni].reshape(k, -1, _BASE))
    np.remainder(sums, ctx.p, out=x)


def _transform(ctx: FieldCtx, a: np.ndarray, twiddles, work: np.ndarray,
               inverse: bool) -> None:
    """dwt (or idwt) of every block, on every row of a at once, up to a
    shift per 64-slot chunk that a product cancels.

    The blocks are those of :func:`_twiddles`, at its twist: decreasing
    powers of two whose sum is the row length, block i starting at n_1 +
    ... + n_(i-1).  The input is in [0, p), and so is every output.  The
    forward leaves each 64-slot chunk c of a block of 64 slots or more at
    dwt's values times lambda_c**(-21), the twist row's shift
    (:func:`_tables`), and the inverse is idwt of its input with each such
    chunk times lambda_c**42, so a pointwise product of two forwards
    inverts to the idwt of the product of the dwts.  The levels take the
    stages u >= 64 of every block of 128 to 4096 slots (:func:`_levels`),
    and the stages u >= 64 run on the larger blocks, a prefix of the row,
    on the prefix of those of 2u slots or more; the base case ends the
    forward transform and starts the inverse (:func:`_exact`).  The 1/n_i
    pass ends the inverse; 1/n_i, balanced, is -(p - 1)/n_i, from the
    block's size.

    Reduction is lazy (Harvey 2014), on balanced twiddles.  p is odd, so a
    twiddle, a twist or 1/n_i in (-p/2, p/2] has magnitude at most (p -
    1)/2, and for |v| < 4p a product has |v w| < 2p (p - 1) < 2p^2 < 2^63,
    as p < 2^31 gives p^2 < 2^62.  Every product of a stage is reduced into
    [0, p) at once; the sums and differences wait, and never leave [-4p,
    8p).  The two bounds below, over the stages u >= 64 of the stage
    blocks alone, show that no multiplied value reaches 4p in magnitude.  A
    level takes [0, p) and hands [0, p), both ways, so its blocks hold [0,
    p) wherever the bounds below speak of a block that runs no stage.

    Forward, u falls and the prefix grows.  Before the d-th stage every
    value of its prefix lies in [-jp, (j + 1) p), j = (d - 1) mod 4.  This
    holds at d = 1 and for the blocks that join the prefix later, which
    hold their input.  A stage multiplies y, |y| < (j + 1) p <= 4p, into
    t in [0, p); then x - t lies in [-(j + 1) p, (j + 1) p) and x + t in
    [-jp, (j + 2) p), so the bound holds with j + 1.  After every fourth
    stage (j = 3: values in [-4p, 5p)) the prefix is reduced into [0, p),
    so j restarts at 0.  After the last stage, then, every value lies in
    [-3p, 4p) or in [0, p), and a level's in [0, p): the twist multiplies
    values below 4p in magnitude, and its reduction hands the base case [0,
    p).

    Inverse, u grows and the prefix shrinks.  The base case and the twist
    leave every value in [0, p), the levels' input.  Before the d-th stage
    every value of its prefix lies in [0, cp), c = 2^((d - 1) mod 3).  This
    holds at d = 1.  A stage multiplies x - y, |x - y| < cp <= 4p, into y
    in [0, p), and x + y lies in [0, 2cp), so the next prefix, a part of
    this one, lies in [0, 2cp).  After every third stage (c = 4: sums in
    [0, 8p)) the sums are reduced into [0, p), so c restarts at 1.  A block
    that has left the prefix keeps what its last stage left, in [0, 4p) (c
    <= 2) or in [0, p) (c = 4, reduced), and a block of no stage, a level
    included, holds [0, p); so the 1/n_i pass multiplies values below 4p,
    and reduces them.
    """
    k = a.shape[0]
    stage_rows, chunks, small, top, span, levels, region = twiddles
    low = _BASE.bit_length() - 1  # stage st has half-length u = 2^st

    def stage(st):
        rows = stage_rows[st - low].shape[1]
        u = 1 << st
        view = a[:, :2 * u * rows].reshape(k, rows, 2, u)
        return view[:, :, 0], view[:, :, 1], work[:k * rows * u].reshape(k, rows, u)

    def rotate():  # every chunk times its twist row, reversed by the inverse, reduced
        for off, ni, rows in chunks:
            x = a[:, off:off + ni].reshape(k, -1, _BASE)
            np.multiply(x, rows[:, ::-1] if inverse else rows, out=x)
        if chunks:
            _mod(ctx, a[:, :top], work)

    stages = range(low, low + len(stage_rows))
    quot = work[k * top // 2:]
    if not inverse:
        _levels(ctx, a, levels, region, work, False)
        for done, st in enumerate(reversed(stages), 1):
            x, y, t = stage(st)
            np.multiply(y, stage_rows[st - low][0], out=t)
            _mod(ctx, t, quot)
            np.subtract(x, t, out=y)
            np.add(x, t, out=x)
            if done % 4 == 0:
                _mod(ctx, a[:, :x.shape[1] * 2 << st], work)
        rotate()  # lambda**(i - 21)
        _exact(ctx, a, work, False, span, top, small)
        return
    _exact(ctx, a, work, True, span, top, small)
    rotate()  # lambda**(42 - i): lambda**(-i), and cancels the product's lambda**(-42)
    for done, st in enumerate(stages, 1):
        x, y, t = stage(st)
        np.subtract(x, y, out=t)
        np.add(x, y, out=x)
        np.multiply(t, stage_rows[st - low][1], out=t)
        _mod(ctx, t, quot, out=y)
        if done % 3 == 0:
            _mod(ctx, x, quot)
    _levels(ctx, a, levels, region, work, True)
    for off, ni, *_ in chunks + small:  # times 1/n_i, balanced: -(p - 1)/n_i
        blk = a[:, off:off + ni]
        np.multiply(blk, -((ctx.p - 1) // ni), out=blk)
    _mod(ctx, a[:, :span], work)


def _fold(d: np.ndarray, width: int, out: np.ndarray) -> np.ndarray:
    """d mod (z^width - 1) in out, which may be d, on every row.  d_lo + d_hi
    goes into out, and halves again while two chunks are left or a chunk
    (over every row) is wider than _SUM_WIDTH elements; the chunks then
    left sum at once into the slots after them, by a matmul with a row of
    ones of stride 0.  A halving takes a numpy call, and np.sum over a
    reshape a pass of numpy's loop per chunk: on two columns 4096 rows fold
    to 2 in 8-11 us, against 18-26 us by halving and 44-53 us by np.sum
    (best of 15, two runs, shared 2-core VM).
    """
    h = d.shape[1] // 2
    if h < width:
        if d is not out:
            np.copyto(out[:, :width], d)
            d = out[:, :width]
        return d
    d = np.add(d[:, :h], d[:, h:], out=out[:, :h])
    while h > width and (h == 2 * width or width * d.shape[0] > _SUM_WIDTH):
        h //= 2
        d = np.add(d[:, :h], d[:, h:], out=d[:, :h])
    if h == width:
        return d
    ones = np.ndarray((h // width,), np.int64, _ONE, 0, (0,))
    return np.matmul(ones, d.reshape(len(d), h // width, width), out=out[:, h:h + width])


def _break(ctx: FieldCtx, a: np.ndarray, plan: Plan, work: np.ndarray) -> None:
    """:func:`tftlib.ctft.break_in_place` on every row of a, by halving.

    The images f_i = f mod (z^(n_i) + 1) are those of the ``mateer``
    chain: from C = f mod (z^N - 1), halving at m = n_1, ..., n_s, block i
    takes C_lo - C_hi where m = n_i, and C becomes C_lo + C_hi.  The first
    C is f, its upper half the slots y past block 1: block 1 is f_1 - y,
    and the next C, folded to 2 n_2 slots at once, is f_1 folded plus y.  C
    lives in the work buffer and only the images are reduced: after j
    halvings every value lies in (-2^j p, 2^j p), 2^j < N <= 2^(two-adicity)
    < p < 2^31, so within p^2 < 2^62.
    """
    sizes, offsets = plan.sizes, plan.offsets
    t = a.shape[1] - sizes[0]
    first, y = a[:, :sizes[0]], a[:, sizes[0]:]
    c = _fold(first, 2 * sizes[1], work[:first.size].reshape(first.shape))
    np.add(c[:, :t], y, out=c[:, :t])
    np.subtract(first[:, :t], y, out=first[:, :t])
    for i in range(2, plan.s + 1):
        ni = sizes[i - 1]
        c = _fold(c, 2 * ni, c)
        np.subtract(c[:, :ni], c[:, ni:], out=a[:, offsets[i - 1]:offsets[i - 1] + ni])
    _mod(ctx, a[:, :t], work)
    _mod(ctx, y, work)


def _unbreak(ctx: FieldCtx, a: np.ndarray, plan: Plan, work: np.ndarray) -> None:
    """:func:`tftlib.ctft.unbreak_in_place` on every row of a, by a carry.

    The list path's phase 1 leaves the remainder r_i in block i; as
    z^(n_l) + 1 = 2 mod z^(n_i) + 1 for l < i, f_i = S_i mod z^(n_i) + 1,
    S_i the sum over j <= i of 2^(j-1) r_j.  With the carry C = S_(i-1) mod
    (z^(2 n_i) - 1), 2^(i-1) r_i = f_i - C_lo + C_hi, and S_i mod (z^(n_i)
    - 1) = f_i + 2 C_hi folds to the next carry: three numpy calls a block
    and the fold.  Then every 2^(i-1) r_i is halved i - 1 times at once,
    and phase 1 is undone from the last block up.

    No carry is reduced: with every f_i in [0, p), by induction the carry
    into block i lies in [0, M_i p), 2 n_i M_i = n_1 + ... + n_(i-1) (f_1
    folds n_1 / 2 n_2 chunks, f_i + 2 C_hi then n_i / 2 n_(i+1)), so
    2^(i-1) r_i lies in (-M_i p, (M_i + 1) p), within n p < p^2 < 2^62.
    As n_(i+1) <= n_i / 2, M_(i+1) >= 2 M_i + 1, so M_s is the largest.
    The halvings 2^(-i) are balanced, in (-p/2, p/2]; while M_s <= 3 every
    value they multiply lies below 4p in magnitude, and its product below
    4p (p - 1)/2 < 2p^2 < 2^63, so it needs no reduction before them (n =
    3 2^j, 5 2^j and 7 2^j, M_s = 1, 2 and 3).  A larger M_s takes one.

    With two blocks and n_1 = 2 n_2 the fold of block 1 is a no-op, and the
    carry that the last block only reads is block 1, read where it lies.

    Both branches are common where products are short: of the 1752 operand
    pairs of perfbench's ``mul-small-many`` (seeds 1..10) whose TFT products
    take the rows, 738 (42.1%) have M_s <= 3 and skip the reduction, and
    293 (16.7%), n = 3 2^j, read the carry in place.
    """
    sizes, offsets, tails = plan.sizes, plan.offsets, plan.tails
    s = plan.s
    first = a[:, :sizes[0]]
    in_place = s == 2 and sizes[0] == 2 * sizes[1]
    c = _fold(first, 2 * sizes[1], first if in_place else work[:first.size].reshape(first.shape))
    for i in range(2, s + 1):
        ni = sizes[i - 1]
        c = _fold(c, 2 * ni, c)
        blk = a[:, offsets[i - 1]:offsets[i - 1] + ni]
        lo, hi = c[:, :ni], c[:, ni:]
        np.add(blk, hi, out=blk)
        if i < s:
            np.add(blk, hi, out=hi)  # f_i + 2 C_hi
        np.subtract(blk, lo, out=blk)
        c = hi
    rest = a[:, sizes[0]:]
    if offsets[-1] > 6 * sizes[-1]:  # M_s > 3
        _mod(ctx, rest, work)
    p = ctx.p
    halving = 1
    for i in range(1, s):  # block i + 1 times 2^(-i)
        halving = halving * ctx.half % p
        blk = a[:, offsets[i]:offsets[i] + sizes[i]]
        np.multiply(blk, halving - p if halving > p // 2 else halving, out=blk)
    _mod(ctx, rest, work)
    for i in range(s - 1, 0, -1):
        blk = a[:, offsets[i - 1]:offsets[i - 1] + tails[i]]
        np.add(blk, a[:, offsets[i]:], out=blk)
    _mod(ctx, a[:, :offsets[-2] + tails[-2]], work)  # the slots the loop added to


def multiply(ctx: FieldCtx, a: np.ndarray, n: int, product, e: int) -> list[int]:
    """:func:`tftlib.bridge._multiply` of the rows of ``a`` (:func:`load`),
    at transform length m, the rows' length, by its product plan
    (``bridge._ProductPlan``); the first n slots of the product.  With no
    ``plan`` this is one block of the padded length m at twist 0; with a
    plan (two blocks or more) the break, twist 1 and the unbreak, and
    unless ``e`` is 0 the two Omega_s scalings, Omega_s = omega_N**e.  The
    first row product of length m over a field fills the plan's ``rows``
    (:func:`_twiddles`).  The rows are reduced only when an element lies
    outside [0, p) (one unsigned maximum tells), and the pointwise product
    overwrites row 1, where the inverse, the unbreak and the last scaling
    run."""
    m = a.shape[1]
    plan = product.plan
    work = _counted(ctx, np.empty(2 * m, np.int64))
    # an element outside [0, p); the ufunc's reduce skips ndarray.max's Python
    # layer: best of 41 alternating rounds of 2000 calls, 1.82 us against 1.87
    # at 2 x 16 elements, 1.81 against 1.94 at 2 x 128, 2.41 against 2.49 at
    # 2 x 2048
    if np.maximum.reduce(a.view(np.uint64), axis=None) >= ctx.p:
        _mod(ctx, a, work)
    tables = _tables(ctx, plan.N if plan else m, work)
    if product.rows is None:
        product.rows = _twiddles(ctx, plan.sizes if plan else (m,), tables, 1 if plan else 0)
    if e:
        exps = work[:m]  # k e, then -k e, in the free work buffer
        exps[0], exps[1:] = 0, e
        np.cumsum(exps, out=exps)
        scales = _counted(ctx, np.empty((2, m), np.int64))
        low = plan.N - 1  # Omega_s**k, then Omega_s**(-k)
        tables[0].take(np.bitwise_and(exps, low, out=exps), out=scales[0], mode="clip")
        np.bitwise_and(np.negative(exps, out=exps), low, out=exps)
        tables[0].take(exps, out=scales[1], mode="clip")
        _mod(ctx, np.multiply(a, scales[0], out=a), work)
    if plan:
        _break(ctx, a, plan, work)
    _transform(ctx, a, product.rows, work, False)
    h = a[1:]  # the pointwise product, into row 1
    _mod(ctx, np.multiply(a[:1], h, out=h), work)
    _transform(ctx, h, product.rows, work, True)
    if plan:
        _unbreak(ctx, h, plan, work)
    if e:
        _mod(ctx, np.multiply(h, scales[1], out=h), work)
    return h[0, :n].tolist()
