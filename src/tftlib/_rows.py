"""The product in int64 rows, for fields below 2^31.

:mod:`tftlib.bridge` hands a product here when p < 2^31 and its length n is
at least ``bridge._ROWS_MIN``, on every path.  Below 2^31 a product of two
residues fits an int64, so every pass, fold and scaling is a numpy
operation, and the outputs are the list path's Python ints in [0, p).  The
list path, the reference these rows are tested against, keeps the rest: the
public transforms, p >= 2^31 and shorter products.

The two operands are the rows of a (2, n) buffer, so a product's forward
transforms are one set of operations.  Each loads into its row by one
``struct.pack_into`` call (:func:`load`), the buffer is reduced only when
an element lies outside [0, p), and the pointwise product overwrites the
second row.

Every block of n_i >= 2 slots, at either twist, runs no radix-2 stage:
it is a chain of matrix passes across its elements (Bailey's four-step
FFT, and his six-step from 8192 slots), down to elements of one slot.
Write n_i = 64^(L-1) R1, 2 <= R1 <= 64.  The first pass is an R1-point DFT
across the block's R1 elements of 64^(L-1) slots, whose matrix is R1
columns of the base case's matrix below, or for R1 = 64 at twist 1 the odd
twist's matrix, at the 64 odd powers of omega_128; each later pass is the
whole 64-point matrix at twist 0 across the 64 elements of every group,
after a turn: each element times a power of its group's twist row
(:func:`_twiddles`).  The passes of all blocks run in steps, one per
element width, coarse to fine; the finest, of width 1, whose elements are
slots, is the base case.  Every pass and turn takes [0, p) and hands back
[0, p).  When the product's first block has at most 8 chunks (every level
of a product of at most 1023 slots), the levels of width 64 are int64
matrix products, one per level over both rows and one np.remainder: their
entries are balanced, so with inputs in [0, p) a sum of R <= 4 terms is
at most 2 (p - 1)^2 < 2^63, and a product plan whose levels of 8 chunks
could sum past that over its field takes float64 levels instead
(:func:`_transform`).  Every other level, the base case's among them, is
a float64 matrix product per row on split inputs.

The base case's matrix is the 64-point DFT in bit-reversed order, zeta**(i
rev(j)), zeta = omega_64.  At width 1 each 64-slot chunk c of a block of
more than 64 slots (or of 64 slots behind such a block) holds its
polynomial modulo z^64 - lambda_c^64, lambda_c = omega_N**rev(c); its
turn multiplies it by its twist row lambda_c**(i - 21), and then the
matrix takes it to its values times lambda_c**(-21), a shift that no
caller sees: the pointwise product carries lambda_c**(-42), and the
inverse's twist row, the forward one read backwards, lambda_c**(42 - i),
cancels it as it untwists.  The turns of the coarser steps leave shifts of
the same kind, cancelled alike.  Every other block of n_i <= 64 slots at
twist t takes its first pass at width 1: it evaluates at the points of
columns [t n_i, (t + 1) n_i) of that matrix, so it is its own row times
those columns' top n_i rows, and needs no twist.  The inverse runs the
steps fine to coarse, each the unnormalised inverse parts, zeta**(-i
rev(j)), and then its turns read backwards, and then the 1/n_i pass.
numpy hands the float64 products to BLAS (FFLAS-FFPACK's way to exact
finite-field products), one matmul per level straight into the row's slots
and one reduction per row and step: each input in [0, p) splits into its
low 16 bits and the rest, below 2^15, and each float64 matrix is stacked
over its input axis, the entry for input i in row 2i and 2^16 times it
mod p in row 2i + 1, both balanced into (-p/2, p/2] (:func:`_stack`).  So
64 terms (a level sums R1 <= 64 elements) sum to at most 64 (p - 1)/2
((2^16 - 1) + (2^15 - 1)) < 3 2^51 < 2^53 for every p < 2^31, and every
sum and every partial sum is an integer that float64 holds exactly,
whatever order BLAS adds in (:func:`_exact`).

The per-N tables are ``ctx.row_tables[N]``, built by the first product of
padded length N over a context: the powers of omega_N (the Omega_s
scalings) and the twist rows, N/64 rows of 64.  The base case's matrices
and the int64 levels' parts, 132 KiB, are field set-up like
``ctx.roots``, built once per field by its first row product
(``ctx.row_dft``, ``ctx.row_ints``, :func:`_matrices`), and so are the odd
twist's matrices, 128 KiB, by its first product that holds a block at
twist 1 whose first pass has 64 points (64 slots with no larger block
before it, 4096, 2^18, ...; ``ctx.row_odd``, :func:`_odd`), and the
levels' parts, views of those matrices that every product plan shares
(``ctx.row_parts``, :func:`_parts`); none is counted as scratch.  All grow
from the root ladder by doubling.  What a product of transform length m
reads of them depends only on the field and m, so the first row product
of length m builds it once, into its product plan
(``bridge._ProductPlan``, :func:`_twiddles`): per turn a view of the
twist rows, and per level the field's two views.

The break and its inverse reach the list path's images without the
engines' survivor runs.  The break halves z^N - 1, as the ``mateer`` engine
does, and the unbreak undoes it by a Horner carry; each takes a few numpy
calls per bit of N or per block on contiguous slices, and reduces only at
its end, which the int64 headroom allows (``_break``, ``_unbreak``).
:func:`multiply` is the one product: the break, the blocks at twist 1 and
the unbreak, on the bit-reversed path between two Omega_s scalings (rows of
powers of omega_N); the padded product is its one-block case at twist 0.

The rows count nothing.  Their element work is not the list path's
(twiddles read from tables, a halved break, matrix products), so the
bridge adds the list product's (mul, pow2, add) after a row product, from
the closed forms beside the list code that counts them.

Every array this module takes besides the int64 buffer of the operands,
which takes the product, and besides the field's matrices, is reported in
``ctx.scratch_allocated``, once: each table by the product that builds
it, and per product a work buffer of 2m elements (the carries, the
reductions' quotients, the float levels' split inputs, one row at a
time, and the int64 levels' sums), and on the
bit-reversed path the two power rows.  The 1/n_i and the unbreak's
halvings are scalars, one per block.  A product of padded length N
reports at most 4N elements on the padded and the cyclotomic path and 6N
on the bit-reversed one, tables included (``tests/test_rows.py``).
"""

from __future__ import annotations

import sys
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
_LIMB = 16  # bits of an input's low part, against a stacked matrix (:func:`_stack`)
# the uint16 words of an int64 that hold its bits 0-15 and 16-31: its two parts in [0, 2^32)
_WORDS = slice(0, 2) if sys.byteorder == "little" else slice(3, 1, -1)
# levels of at most this many 64-slot chunks take one int64 matrix product
# over both rows, when no block of the product is larger (:func:`_transform`).
# Public products, medians of 61 alternating in-process rounds on a shared
# 2-core VM, three runs: int64 levels of 8 chunks read 0.85-0.88x of the
# stacked float ones where they run at n = 449 (every path), 0.88-0.92x at
# 513 and 0.92-0.96x at 769 (the TFT paths); int64 levels of 2 and 4 chunks
# beside float ones read 1.01-1.03x of the earlier limb-pair float ones on
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
    None for the field's matrices, :func:`_matrices` and :func:`_odd`,
    which take the remainder)."""
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

    ``powers`` holds omega_N**j for j < N, in [0, p).  ``twists`` holds
    lambda_c**(i - 21) in row c < N/64 and column i < 64, lambda_c =
    omega_N**rev(c), rev over log2(N/64) bits, in [0, p): a turn
    (:func:`_turn`) reads row c as it is, and the inverse reads it reversed,
    lambda_c**(42 - i), which is lambda_c**(-i) times the lambda_c**(-42)
    that a pointwise product of two forward values carries.

    The tables grow from the root ladder by doubling (:func:`_grow`):
    ``powers`` by omega_N**m = roots[log2(N/m)], the lambda_c by
    omega_(128m) = roots[log2(128m)], as rev(m + r) = rev(m) + rev(r) for
    r < m, and the columns of ``twists`` by :func:`_powers`, lambda_c**i.
    Column 0 then takes lambda_c**(-64), grown by omega_(2m)**(-1) =
    inv_roots[log2(2m)], times column 43, which gives lambda_c**(-21), and
    every other column is multiplied by it.
    """
    tables = ctx.row_tables.get(N)
    if tables is None:
        k = N.bit_length() - 1
        rows = N >> 6  # b rungs grow a row of 2^b entries, none an empty one
        powers = _grow(ctx, _counted(ctx, np.empty(N, np.int64)), ctx.roots[k:0:-1], work)
        twists = _counted(ctx, np.empty((rows, _BASE), np.int64))
        _grow(ctx, twists[:, 1], ctx.roots[7:rows.bit_length() + 6], work)
        _powers(ctx, twists, work)
        shift = twists[:, :1]  # lambda**(-64), then lambda**(-21)
        _grow(ctx, shift[:, 0], ctx.inv_roots[1:rows.bit_length()], work)
        _mod(ctx, np.multiply(shift, twists[:, 43:44], out=shift), work)
        _mod(ctx, np.multiply(twists[:, 1:], shift, out=twists[:, 1:]), work)
        tables = ctx.row_tables[N] = (powers, twists)
    return tables


def _stack(ctx: FieldCtx, ints: np.ndarray) -> np.ndarray:
    """A pair of (64, 64) matrices of residues in [0, p), shape (2, 64, 64),
    each stacked over its input axis (axis 1) as float64 of shape (2, 128,
    64): row 2i holds row i, and row 2i + 1 holds 2^16 times row i mod p,
    both balanced into (-p/2, p/2]."""
    p = ctx.p
    stacked = np.empty((2, _BASE, 2, _BASE), np.int64)
    stacked[:, :, 0] = ints
    np.remainder(np.left_shift(ints, _LIMB), p, out=stacked[:, :, 1])
    np.subtract(stacked, p, out=stacked, where=stacked > p // 2)
    return stacked.reshape(2, 2 * _BASE, _BASE).astype(np.float64)


def _matrices(ctx: FieldCtx) -> tuple:
    """The base case's matrices over ctx and the int64 levels' parts, built
    once per field.

    The matrices (``ctx.row_dft``) are the forward one, zeta**(i rev(j)) in
    row i and column j, and the unnormalised inverse, zeta**(-i rev(j)) in
    row j and column i, zeta = omega_64 and rev over six bits, each stacked
    over its input axis (:func:`_stack`): an input split into its low 16
    bits and the rest, interleaved, times the stacked matrix is the input
    times the matrix, mod p.  Their points zeta**(+-rev(j)) grow from the
    ladder by doubling (entries [m, 2m) times omega_(2m)**(+-1)), and their
    powers by :func:`_powers`.  A field of two-adicity k <= 5 has no zeta:
    its points stop at j < 2^k, the others are 0, and no product reads
    them, since its padded lengths are at most 2^k.

    The parts (``ctx.row_ints``) are the top 16 rows and columns of both
    matrices' residues, as int64 balanced into (-p/2, p/2], which the
    int64 levels read (:func:`_parts`).  Both, 132 KiB, are field set-up
    like ``ctx.roots``, not scratch.
    """
    if ctx.row_dft is None:
        ints = np.zeros((2, _BASE, _BASE), np.int64)  # the points' powers in row j
        for table, ladder in zip(ints, (ctx.roots, ctx.inv_roots)):
            _grow(ctx, table[:, 1], ladder[1:7], None)
            _powers(ctx, table, None)
        ints[0] = ints[0].T.copy()
        ctx.row_dft = _stack(ctx, ints)
        ctx.row_ints = ctx.row_dft[:, :4 * _INTS:2, :2 * _INTS].astype(np.int64)
    return ctx.row_dft, ctx.row_ints


def _odd(ctx: FieldCtx) -> np.ndarray:
    """The odd twist's matrices over ctx, built once per field by its first
    product that holds a block at twist 1 whose first pass has 64 points
    (64 slots with no larger block before it, 4096, 2^18, ...), the level
    that reads them (:func:`_twiddles`).

    The forward one holds omega_128**(i (1 + 2 rev(j))) in row i and column
    j, and the unnormalised inverse omega_128**(-i (1 + 2 rev(j))) in row j
    and column i: the base case's pair (:func:`_matrices`) with row (or
    column) i times omega_128**(+-i), whose points are the 64 odd powers of
    omega_128.  They are stacked as the base case's are (:func:`_stack`),
    128 KiB of field set-up.
    """
    if ctx.row_odd is None:
        ints = _matrices(ctx)[0][:, ::2].astype(np.int64)  # the residues, balanced
        scale = np.empty((2, _BASE), np.int64)  # omega_128**(+-i)
        for row, ladder in zip(scale, (ctx.roots, ctx.inv_roots)):
            _grow(ctx, row, ladder[7:1:-1], None)
        np.multiply(ints[0], scale[0, :, None], out=ints[0])
        np.multiply(ints[1], scale[1], out=ints[1])
        ctx.row_odd = _stack(ctx, np.remainder(ints, ctx.p, out=ints))
    return ctx.row_odd


def _wide(p: int, parts) -> bool:
    """Whether a row of some int64 part, its entries balanced, can sum
    outside int64 with inputs in [0, p): the larger of the sum of its
    positive entries and that of its negative ones' magnitudes, times p -
    1, reaches 2^63.  Every partial sum lies between those two extremes,
    whatever order the matmul adds in."""
    return any(max(sum(e for e in row if e > 0), -sum(e for e in row if e < 0)) * (p - 1)
               >= 1 << 63 for part in parts for row in part.tolist())


def _parts(ctx: FieldCtx, points: int, twist: int, ints: bool, right: bool) -> tuple:
    """The forward and inverse parts of a ``points``-point first pass at
    ``twist`` t (:func:`_twiddles`), int64 if ``ints`` else float64 and
    stacked: views of the field's matrices, built once per field into
    ``ctx.row_parts`` and shared by every product plan that reads them.

    The forward part is columns [t E, (t + 1) E) of the base case's forward
    matrix (:func:`_matrices`), top E rows (2E rows stacked), E =
    ``points``, and the inverse part the same rows and columns of the
    inverse one; E = 64 at twist 1 is the odd twist's pair whole
    (:func:`_odd`).  Each is read on the ``right`` of the elements, as the
    (2E, E) matrix it is, or else transposed, on their left (:func:`_exact`).
    """
    key = points, twist, ints, right
    pair = ctx.row_parts.get(key)
    if pair is None:
        mats, whole = _matrices(ctx)
        parts, step = (whole, 1) if ints else (mats, 2)
        cols = slice(twist * points, (twist + 1) * points)
        if twist and points == _BASE:  # the odd twist's points
            parts, cols = _odd(ctx), slice(0, points)
        pair = (parts[0][:step * points, cols],
                parts[1][step * cols.start:step * cols.stop, :points])
        pair = ctx.row_parts[key] = pair if right else (pair[0].T, pair[1].T)
    return pair


def _twiddles(ctx: FieldCtx, sizes, twists: np.ndarray, twist: int) -> tuple:
    """What every product of blocks ``sizes`` at ``twist`` t (0 or 1) reads
    besides the tables of N, built once into its product plan.

    Every block reads entries [t s, (t + 1) s) of a table, s its share: of
    the twist rows, one per group of a turn; of the matrices' columns, its
    E points when it is a first pass (:func:`_parts`).

    A block of n_i = 64^(L-1) R1 slots, 2 <= R1 <= 64, is a chain of L
    passes (Bailey's four-step FFT, and six-step from L = 3); a block of
    one slot is its own transform.  The first takes its R1 elements of w =
    64^(L-1) slots, f_0, ..., f_(R1-1), to f mod (z^w - mu_c), c < R1,
    which is the sum over r of mu_c^r f_r: an R1-point DFT across the
    elements, at the points mu_c = omega_(2 R1)**(t + 2 rev(c)), rev over
    log2(R1) bits, which are omega_128**rev(t R1 + c), rev over seven bits.
    For t R1 + c < 64 that is zeta**rev(t R1 + c), rev over six bits, so
    its matrix is columns [t R1, (t + 1) R1) of the base case's forward
    matrix; R1 = 64 at twist 1 has the points omega_128**(1 + 2 rev(c)),
    the odd twist's.

    Each later pass splits every group of 64 elements, holding f mod (z^W -
    mu_g) with G = n_i / W groups, into 64 elements of W/64 slots: a turn
    (:func:`_turn`) multiplies element r of group g by nu_g**(r - 21), nu_g
    = omega_(128G)**(t + 2 rev(g)) the 64th root of mu_g, and the whole
    64-point matrix at twist 0 takes the elements of each group to f mod
    (z^(W/64) - nu_g zeta**rev(c)), the points of group 64g + c of the
    next width.  nu_g is row tG + g of the twist rows, lambda =
    omega_N**rev(tG + g), rev over b = log2(N/64) bits, as that rev is
    2^(b - 1 - log2 G) (t + 2 rev(g)), and so a turn needs no table of its
    own; the finest, at element width 1 (G = n_i/64), takes each 64-slot
    chunk c to lambda_c**(i - 21).  The nu_g**(-21) a group gains is a
    shift that no caller sees, as lambda_c**(-21) is.

    The passes run in steps, one per element width w = 64^j, coarse to
    fine, down to the base case, the step of width 1: a step holds the
    blocks of at least 2w slots, a prefix of the row as the blocks are
    decreasing, so its span starts at slot 0.  Its turns are those of the
    blocks of more than 64w slots, a prefix too, and of a block of 64w
    slots behind them, whose first pass, at the points omega_128**(t + 2
    rev(c)) = nu_0 zeta**rev(c), is such a turn of its one group and the
    pass at twist 0; their passes are one 64-point level over every group
    of them.  The first passes of the others follow, a block of 64w slots
    among them only when no block turns.  The levels of widths from 64 up
    are int64 when the product's first block has at most 8 chunks and the
    int64 parts cannot sum outside int64 (:func:`_wide`), and every other
    level is float64 and stacked, two columns per element (:func:`_exact`).

    Returns the steps, each (width, turns, levels, span), and every block
    of two slots or more, for the 1/n_i pass: the base case's turns and
    first passes.  A turn is (offset, size, twist rows, shaped (G, 64,
    1)), and a level (offset, size, forward part, inverse part), its parts
    on the right of the elements at width 1 and on their left above it.
    """
    whole = sizes[0] <= _INTS * _BASE and not any(
        _wide(ctx.p, _parts(ctx, ni // _BASE, twist, True, False)) for ni in sizes if ni > _BASE)
    steps, width = [], 1
    while sizes[0] >= 2 * width:
        turns, offset = [], 0
        for ni in sizes:
            if ni > _BASE * width or ni == _BASE * width and turns:
                G = ni // (_BASE * width)  # a twist row per group of 64 elements
                turns.append((offset, ni, twists[twist * G:(twist + 1) * G, :, None]))
                offset += ni
        levels = [(0, offset) + _parts(ctx, _BASE, 0, False, width == 1)] if turns else []
        for ni in sizes[len(turns):]:
            if ni < 2 * width:
                break
            levels.append((offset, ni) + _parts(ctx, ni // width, twist, whole and width > 1,
                                                width == 1))
            offset += ni
        steps.append((width, tuple(turns), tuple(levels), offset))
        width *= _BASE
    _, turns, levels, _ = steps[0]  # every block of two slots or more, once
    return tuple(reversed(steps)), turns + levels[1 if turns else 0:]


def _exact(ctx: FieldCtx, a: np.ndarray, work: np.ndarray, inverse: bool, span: int,
           levels, width: int) -> None:
    """The float64 levels of one step of :func:`_twiddles`, forward or
    inverse, on every row of a, its first ``span`` slots in [0, p), back
    into those slots in [0, p).  A level multiplies its forward or inverse
    part, E points, by the E elements of ``width`` slots of each of its
    groups, one matmul over every group.

    A row's slots split into their low 16 bits and the rest, as float64 in
    the work buffer, so that each input's pair meets its pair of stacked
    rows (:func:`_stack`).  At width 1 the pairs interleave per slot, by
    an int64 mask and shift and one conversion, and the groups are the
    rows of one (G, 2E) @ (2E, E) product, the part on their right (a lone
    group is a vector, which needs no reshape); from width 64 they
    interleave per element, by one conversion of each slot's two low
    uint16 words, and the part, transposed, multiplies each group, a (2E,
    width) matrix, from the left.  (Per row, best of 7 runs of 3000 calls
    on a shared 2-core VM: the per-slot split takes 1.9 us at 64 slots and
    10.2 at 4096, against 2.6 and 8.9 for a mask and shift that convert as
    they write, and 0.8 and 18.4 for the words, whose copy runs pairs; per
    64-slot element the words take 0.5 and 4.8, against 3.0 and 9.0.
    Public products read 1-6% faster than with the converting mask and
    shift for both.)  Each
    matmul writes its sums straight into the row's slots, viewed as
    float64; turned into int64 where they lie, they are reduced by one
    :func:`_mod`, its quotients in the work buffer, free by then.  Every
    sum and every partial sum is an integer that float64 holds exactly,
    whatever order BLAS adds in: a stacked entry has magnitude at most (p -
    1)/2, a low part is below 2^16 and a high one below 2^15 (p < 2^31),
    so E <= 64 inputs sum to at most 64 (p - 1)/2 ((2^16 - 1) + (2^15 -
    1)) < 3 2^51 < 2^53.
    """
    split = work[:2 * span]
    fsplit = split.view(np.float64)
    halves = fsplit.reshape(-1, 2, width) if width > 1 else None
    for row in a:
        x = row[:span]
        fx = x.view(np.float64)
        if width == 1:  # each slot's low 16 bits, then the rest
            np.bitwise_and(x, (1 << _LIMB) - 1, out=split[0::2])
            np.right_shift(x, _LIMB, out=split[1::2])
            np.copyto(fsplit, split, casting="unsafe")
        else:  # each slot's two low uint16 words are its parts
            words = x.view(np.uint16).reshape(-1, width, 4)[:, :, _WORDS]
            np.copyto(halves, words.swapaxes(1, 2), casting="unsafe")
        for off, ni, forward, backward in levels:
            part = backward if inverse else forward
            y, out = fsplit[2 * off:2 * (off + ni)], fx[off:off + ni]
            e = part.shape[1] if width == 1 else len(part)  # its points
            if width > 1:
                np.matmul(part, y.reshape(-1, 2 * e, width), out=out.reshape(-1, e, width))
            elif ni > e:  # the groups as the rows of one (G, 2E) @ (2E, E) product
                np.matmul(y.reshape(-1, 2 * e), part, out=out.reshape(-1, e))
            else:  # one group, a vector
                np.matmul(y, part, out=out)
        np.copyto(x, fx, casting="unsafe")
        _mod(ctx, x, split)


def _turn(ctx: FieldCtx, a: np.ndarray, turns, work: np.ndarray, inverse: bool) -> None:
    """Element r of group g of every block of ``turns`` (:func:`_twiddles`)
    times entry r of the block's twist row g, read reversed by the
    inverse, on every row of a, from [0, p) into [0, p): an entry lies in
    [0, p), so a product lies in [0, (p - 1)^2], below 2^62 as p < 2^31,
    and one :func:`_mod` over the turned slots, a prefix, reduces them."""
    if not turns:
        return
    k = a.shape[0]
    for off, ni, rows in turns:
        x = a[:, off:off + ni].reshape(k, len(rows), _BASE, -1)
        np.multiply(x, rows[:, ::-1] if inverse else rows, out=x)
    _mod(ctx, a[:, :off + ni], work)


def _transform(ctx: FieldCtx, a: np.ndarray, twiddles, work: np.ndarray,
               inverse: bool) -> None:
    """dwt (or idwt) of every block, on every row of a at once, up to a
    shift per 64-slot chunk that a product cancels.

    The blocks are those of :func:`_twiddles`, at its twist: decreasing
    powers of two whose sum is the row length, block i starting at n_1 +
    ... + n_(i-1).  The input is in [0, p), and so is every output.  The
    forward runs the steps coarse to fine, each its turns (:func:`_turn`)
    and then its levels, down to the base case, the step of width 1, and
    leaves each 64-slot chunk c of a block of 64 slots or more at dwt's
    values times its shift s_c, the product of entry 0, lambda**(-21), of
    every twist row the chunk meets, one per turn (:func:`_tables`); the
    inverse runs the steps fine to coarse, each its levels and then its
    turns, and is idwt of its input with each such chunk times s_c**(-2),
    so a pointwise product of two forwards inverts to the idwt of the
    product of the dwts.

    Float64 levels run in :func:`_exact`, a row at a time.  Int64 parts,
    balanced into (-p/2, p/2], take one matmul per level over every row at
    once, its sums in the work buffer, and one np.remainder back into the
    rows.  No sum leaves int64: p is odd, so a part's entries have
    magnitude at most (p - 1)/2, and with inputs in [0, p) a sum of R <= 4
    products lies within 4 (p - 1)(p - 1)/2 = 2 (p - 1)^2 < 2^63, as p <
    2^31 gives (p - 1)^2 < 2^62; a product plan whose levels of 8 chunks
    could leave it takes float64 levels instead (:func:`_wide`).

    The 1/n_i pass ends the inverse: 1/n_i, balanced, is -(p - 1)/n_i, from
    the block's size, and a value in [0, p) times it lies within (p -
    1)^2/2 < 2^63; one :func:`_mod` over the finest step's span, every
    block of two slots or more, reduces them.
    """
    steps, scales = twiddles
    for width, turns, levels, span in reversed(steps) if inverse else steps:
        if not inverse:
            _turn(ctx, a, turns, work, False)  # lambda**(i - 21)
        if levels[0][2].dtype == np.float64:
            _exact(ctx, a, work, inverse, span, levels, width)
        else:
            x = a[:, :span]
            k = x.shape[0]
            sums = work[:x.size].reshape(x.shape)
            for off, ni, forward, backward in levels:
                np.matmul(backward if inverse else forward,
                          x[:, off:off + ni].reshape(k, -1, width),
                          out=sums[:, off:off + ni].reshape(k, -1, width))
            np.remainder(sums, ctx.p, out=x)
        if inverse:  # lambda**(42 - i): cancels the product's lambda**(-42)
            _turn(ctx, a, turns, work, True)
    if inverse:
        for off, ni, *_ in scales:  # times 1/n_i, balanced: -(p - 1)/n_i
            blk = a[:, off:off + ni]
            np.multiply(blk, -((ctx.p - 1) // ni), out=blk)
        _mod(ctx, a[:, :steps[-1][3]], work)


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
        product.rows = _twiddles(ctx, plan.sizes if plan else (m,), tables[1],
                                  1 if plan else 0)
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
