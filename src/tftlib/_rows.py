"""The three products in int64 rows, for fields below 2^31.

:mod:`tftlib.bridge` hands a product here when p < 2^31 and its length n is
at least ``bridge._ROWS_MIN``: ``multiply_full_fft``, and ``multiply_tft``
on the bit-reversed path and on the cyclotomic one with the ``new`` engine.
Below 2^31 a product of two residues fits an int64, so every butterfly,
fold and scaling is a numpy operation, and the outputs are the Python ints
in [0, p) of the list path.  Everything else (the public transforms, p >=
2^31, shorter products, the ``sergeev`` and ``mateer`` engines) stays on
the list path, which is the reference these rows are tested against.

The two operands are the columns of an (n, 2) buffer, so a product's
forward transforms are one set of operations.  The block transform takes
one set per butterfly stage over every block at once: blocks are contiguous
and aligned, so at half-length u the blocks with n_i >= 2u are a prefix of
the buffer that reshapes to (rows, 2, u, 2).  Each row's twiddle is a power
of omega_N, N the padded length.  The powers, the bit-reversed base rows
and their twist-1 octaves are tables of the field and N, built by the first
product of padded length N over a context and kept on it
(``ctx.row_tables``, one entry per power of two); a product slices them, or
gathers the rows of stages whose blocks do not halve one into the next.

The ``new`` break and its inverse run as a Horner carry.  After phase 1
block i holds the remainder r_i, and since Phi_l = 2 mod Phi_i for l < i,
the image is f_i = S_i mod Phi_i with S_i = sum over j <= i of 2^(j-1) r_j.
The carry C = S_(i-1) mod (z^(2 n_i) - 1), halves C_lo and C_hi, gives
f_i = C_lo - C_hi + 2^(i-1) r_i, and S_i mod (z^(n_i) - 1) =
C_lo + C_hi + 2^(i-1) r_i, whose n_i / 2 n_(i+1) chunks sum to the next
carry.  The unbreak walks the same way, r_i = 2^(1-i) (f_i - C_lo + C_hi)
with the same carries, so each block costs a few operations on contiguous
slices, and none of them depends on where the survivors of the list path's
contribution pass lie.  The bit-reversed path's Omega_s scaling is a row of
powers of omega_N.

The element work differs from the tallies.  The rows reduce lazily between
stages (Harvey 2014) and fully at the ends, take every twiddle from the
tables instead of generating it, and carry the break instead of folding
survivor runs.  None of this is counted: each product adds to ``ctx.ops``
exactly the (mul, pow2, add) that the list path adds for the same call, in
closed form from the plan, so the two paths cannot disagree on them.

Scratch is reported.  Every array this module takes besides the int64
copies of the operands and of the product, which stand in for the list
path's own lists, is added to ``ctx.scratch_allocated``: each table once,
when it is built, and per product one work buffer of 2n elements for the
stages' products and quotients, the gathered twiddle rows, the power rows
and the carries.  A product of padded length N reports at most 5N elements
on the padded path, 11N on the cyclotomic one and 15N on the bit-reversed
one, tables included; a product whose tables exist reports less
(``tests/test_rows.py``).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .plan import Plan
from .ring import FieldCtx, UnsupportedOrderError

# from this many elements, x - (x // p) * p beats np.remainder (measured)
_DIVIDE_MIN = 1024


def _scratch(ctx: FieldCtx, shape) -> np.ndarray:
    a = np.empty(shape, np.int64)
    ctx.scratch_allocated += a.size
    return a


def _counted(ctx: FieldCtx, a: np.ndarray) -> np.ndarray:
    ctx.scratch_allocated += a.size
    return a


def _mod(ctx: FieldCtx, x: np.ndarray, work: np.ndarray, out: np.ndarray | None = None
         ) -> np.ndarray:
    """out <- x mod p, in [0, p) (out defaults to x).  numpy divides by a
    scalar several times faster than it takes a remainder, so large arrays
    take x - (x // p) * p, the quotient in ``work`` (flat, apart from x)."""
    if out is None:
        out = x
    if x.size < _DIVIDE_MIN:
        return np.remainder(x, ctx.p, out=out)
    q = work[:x.size].reshape(x.shape)
    np.floor_divide(x, ctx.p, out=q)
    np.multiply(q, ctx.p, out=q)
    return np.subtract(x, q, out=out)


def _load(ctx: FieldCtx, f, g, n: int, work: np.ndarray) -> np.ndarray:
    """Both operands as the columns of an (n, 2) int64 buffer, reduced and
    zero-padded.

    Each element goes through the same int() as on the list path; only an
    int outside int64 takes the slow road.
    """
    p = ctx.p
    a = np.zeros((n, 2), np.int64)
    for col, c in enumerate((f, g)):
        c = c if type(c) is list else list(c)
        try:
            a[:len(c), col] = c
        except OverflowError:
            a[:len(c), col] = [int(x) % p for x in c]
    return _mod(ctx, a, work)


def _unit_powers(ctx: FieldCtx, N: int, work: np.ndarray) -> np.ndarray:
    """omega_N**j for j < N: the outer product of two short geometric rows."""
    p = ctx.p
    w = ctx.roots[N.bit_length() - 1]
    lo = [1]
    for _ in range((1 << (N.bit_length() - 1) // 2) - 1):
        lo.append(lo[-1] * w % p)
    w = lo[-1] * w % p
    hi = [1]
    for _ in range(N // len(lo) - 1):
        hi.append(hi[-1] * w % p)
    return _mod(ctx, _counted(ctx, np.multiply.outer(np.array(hi, np.int64),
                                                     np.array(lo, np.int64)).ravel()), work)


def _bit_reversal(bits: int) -> np.ndarray:
    """rev(r) over ``bits`` bits for r < 2^bits.  With r = i 2^a + j,
    rev(r) = rev(j) 2^b + rev(i): the outer sum of two short rows."""
    def rows(m):
        row = [0]
        for _ in range(m):
            row = [2 * x for x in row] + [2 * x + 1 for x in row]
        return np.array(row, np.int64)
    a = bits // 2
    return np.add.outer(rows(bits - a), rows(a) << (bits - a)).ravel()


def _tables(ctx: FieldCtx, N: int, work: np.ndarray) -> tuple:
    """The tables of padded length N over ctx, built and reported once.

    ``powers`` holds omega_N**j for j < N; ``base`` holds the forward and
    inverse base rows omega_N**(+-rev(r)) for r < N/2, rev over log2(N/2)
    bits; ``octaves`` holds base[:, m:2m] for m from N/4 down to 1, the
    octave of m at N/2 - 2m.  rev itself is not kept: with it the tables
    and the 2N work buffer would pass the padded product's 5N bound.
    """
    tables = ctx.row_tables.get(N)
    if tables is None:
        powers = _unit_powers(ctx, N, work)
        rev = _bit_reversal(N.bit_length() - 2)
        base = _counted(ctx, powers.take(np.stack((rev, -rev & (N - 1)))))
        half = N // 2
        octaves = _counted(ctx, np.concatenate(
            [base[:, m:2 * m] for m in (half >> e for e in range(1, half.bit_length()))], axis=1))
        tables = ctx.row_tables[N] = (powers, base, octaves)
    return tables


def _start_muls(twist: int, stages: int) -> int:
    """The multiplications :func:`tftlib.transform._stage_start` counts for
    the first twiddles omega_(2^k)**twist, k = 2..stages + 1, of one block:
    at each k one per ladder factor after the first, on the ladder whose
    exponent, twist or -twist mod 2^k, has fewer set bits."""
    up, down = twist, -twist
    ones_up = up & 1
    ones_down = down & 1
    muls = 0
    for b in range(1, stages + 1):
        ones_up += up >> b & 1
        ones_down += down >> b & 1
        muls += max(min(ones_up, ones_down) - 1, 0)
    return muls


def _twiddles(ctx: FieldCtx, sizes, tables: tuple, twist: int, grid: list | None = None
              ) -> tuple:
    """Every stage's row twiddles, forward and inverse, from the tables of N.

    Blocks of ``sizes`` take ``twist`` (0 or 1), or the bit-reversed path's
    twists ``grid`` (:func:`tftlib.bridge._grid_twist`).  At half-length u,
    row q of block i (m = n_i / 2u rows, n_i = 2^(k-1) u) takes
    c * omega_(2^(k-1))**rev(q), where c = omega_(2^k)**twist is its first
    twiddle (:func:`tftlib.transform._stage_start`).  Entry q of the base
    row is omega_(2m)**rev(q) for q < m, so twist 0 reads base[q]; its entry
    m + q is omega_(4m)**(2 rev(q) + 1), which twist 1 reads: the octave
    [m, 2m) of the base row.  The blocks of a stage have distinct m, so a
    stage whose m halve from block to block (every stage, when n is 2^k - 1
    or 2^k + 1) reads one slice of the octaves; the others concatenate their
    blocks' octaves.  On the bit-reversed path the twiddle of every block's
    row is that of the padded transform of f at the row's place r in the
    stage, scaled by Omega_s^-u = omega_N**(-e u), since the blocks hold
    f(Omega_s z): the powers of omega_N at +-(rev(r) - e u), one gather for
    all stages.  Returns the (forward, inverse) rows by log2(u), the stage
    starts' counted multiplications for one transform, and the 1/n_i of
    every slot.
    """
    p = ctx.p
    powers, base, octaves = tables
    active = [ni for ni in sizes if ni > 1]
    half = base.shape[1]
    stage_ms = [[ni >> (st + 1) for ni in active if ni >> st > 1]
                for st in range(active[0].bit_length() - 1)]
    starts_mul = 0
    if grid is not None:
        N = 2 * half
        e = -grid[0] % N  # Omega_s = omega_N**e
        widths = [sum(ms) for ms in stage_ms]
        rev = _counted(ctx, _bit_reversal(half.bit_length() - 1))
        exps = _counted(ctx, np.concatenate([rev[:w] - (e << st) for st, w in enumerate(widths)]))
        rows = _scratch(ctx, (2, len(exps)))
        for sign in range(2):
            if sign:
                np.negative(exps, out=exps)
            exps &= N - 1
            powers.take(exps, out=rows[sign])
        rows_at = [rows[:, at - w:at] for w, at in zip(widths, accumulate(widths))]
        for ni, tw in zip(sizes, grid):
            starts_mul += _start_muls(tw, ni.bit_length() - 1)
    elif not twist:
        rows_at = [base[:, :sum(ms)] for ms in stage_ms]
    else:
        rows_at = []
        for ms in stage_ms:
            width = sum(ms)
            if width == 2 * ms[0] - ms[-1]:  # m halves from block to block
                rows_at.append(octaves[:, half - 2 * ms[0]:half - 2 * ms[0] + width])
            else:
                rows_at.append(_counted(ctx, np.concatenate([base[:, m:2 * m] for m in ms],
                                                            axis=1)))
    inv_n = [p - (p - 1) // ni for ni in active]
    scale = inv_n[0] if len(active) == 1 else _counted(
        ctx, np.repeat(np.array(inv_n, np.int64), active))
    return rows_at, starts_mul, scale


def _transform(ctx: FieldCtx, a: np.ndarray, sizes, twiddles, work: np.ndarray,
               inverse: bool) -> None:
    """dwt (or idwt) of every block, on every column of a at once.

    ``sizes`` are the n_i, decreasing powers of two whose sum is len(a);
    block i starts at n_1 + ... + n_(i-1).  The twiddles, from
    :func:`_twiddles`, carry the blocks' twists.  Every output is in [0, p).
    Reduction is lazy (Harvey 2014): no multiplied value reaches 2p in
    magnitude, so no product with a twiddle reaches 2p^2 < 2^63.  Forward
    stages reduce the multiplied operand, and the whole prefix every second
    stage (values stay in (-2p, 3p)); inverse stages reduce the multiplied
    difference and bring the sums below 2p.
    """
    k = a.shape[1]
    active = [ni for ni in sizes if ni > 1]
    stage_rows, starts_mul, scale = twiddles
    span = sum(active)
    prod = work[:span // 2 * k]
    quot = work[span // 2 * k:]
    stages = active[0].bit_length() - 1
    order = range(stages) if inverse else range(stages - 1, -1, -1)
    for done, st in enumerate(order, 1):
        u = 1 << st
        tw = stage_rows[st][1 if inverse else 0][:, None, None]
        rows = len(tw)
        width = rows * 2 * u
        view = a[:width].reshape(rows, 2, u, k)
        x = view[:, 0]
        y = view[:, 1]
        t = prod[:width // 2 * k].reshape(rows, u, k)
        if inverse:  # x, y in [0, 2p)
            np.subtract(x, y, out=t)
            np.add(x, y, out=x)
            np.multiply(t, tw, out=t)
            _mod(ctx, t, quot, out=y)
            if t.size < _DIVIDE_MIN:
                np.remainder(x, ctx.p, out=x)
            else:  # [0, 4p) to [0, 2p): the smaller of x and x - 2p, unsigned
                xu = x.view(np.uint64)
                qu = quot[:t.size].reshape(t.shape).view(np.uint64)
                np.subtract(xu, np.uint64(2 * ctx.p), out=qu)
                np.minimum(xu, qu, out=xu)
        else:  # x, y in (-p, 2p), or in [0, p) after a reduced stage
            np.multiply(y, tw, out=t)
            _mod(ctx, t, quot)
            np.subtract(x, t, out=y)
            np.add(x, t, out=x)
            if done % 2 == 0 or done == stages:
                _mod(ctx, a[:width], work)
    if inverse:
        head = a[:span]
        np.multiply(head, scale if type(scale) is int else scale[:, None], out=head)
        _mod(ctx, head, work)
    ctx.ops.mul += k * starts_mul
    for ni in active:
        st = ni.bit_length() - 1
        ctx.ops.mul += k * ((ni // 2) * st + ni - 1 - st)
        ctx.ops.add += k * ni * st
        if inverse:
            ctx.ops.pow2 += k * ni


def _break_counts(plan: Plan) -> tuple[int, int]:
    """The (add, pow2) that :func:`tftlib.ctft.break_in_place` counts over
    plan, and :func:`tftlib.ctft.unbreak_in_place` too: phase 1's tail(i)
    subtractions, then for each block i >= 2 n_(i-1) additions per survivor
    run of every image j < i, and (i - 1) n_i doublings.

    Image j has one run per subset of the free bits (see
    :func:`tftlib.ctft._contribution_pass`): the 0 bits of n between
    log2(n_(i-1)) and log2(n_j), of which there are
    log2(n_j) - log2(n_(i-1)) - (i - 1 - j).  So its runs add
    n_(i-1) 2^(that) = n_j 2^j / 2^(i-1), and block i adds
    (sum over j < i of n_j 2^j) / 2^(i-1).
    """
    sizes = plan.sizes
    adds = sum(plan.tails[1:plan.s])
    pow2 = weighted = 0
    for i in range(2, plan.s + 1):
        weighted += sizes[i - 2] << (i - 2)
        adds += weighted >> (i - 2)
        pow2 += (i - 1) * sizes[i - 1]
    return adds, pow2


def _block_powers(ctx: FieldCtx, plan: Plan, base: int):
    """base**(i-1) mod p for the slots of blocks 2..s: a scalar for two blocks."""
    if plan.s == 2:
        return base
    powers = [pow(base, i, ctx.p) for i in range(1, plan.s)]
    return _counted(ctx, np.repeat(np.array(powers, np.int64), plan.sizes[1:]))[:, None]


def _fold(d: np.ndarray, width: int, out: np.ndarray) -> np.ndarray:
    """d mod (z^width - 1): d itself, or its chunks of ``width`` rows summed into out."""
    if len(d) == width:
        return d
    return np.sum(d.reshape(-1, width, d.shape[1]), axis=0, out=out[:width])


def _break(ctx: FieldCtx, a: np.ndarray, plan: Plan, counts: tuple, work: np.ndarray) -> None:
    """:func:`tftlib.ctft.break_in_place` on every column of a, by the carry.

    The remainders' subtractions read the original later blocks, so they
    run first, unreduced, and every remainder then takes its 2^(i-1) at
    once.  Block 1 is r_1 = f_1 and the first S mod (z^(n_1) - 1); from it
    each block takes the carry down, the image left in place unreduced and
    the next S in a buffer, reduced so that its chunks sum within int64.
    The images are reduced together at the end.
    """
    n, k = a.shape
    sizes, offsets, tails = plan.sizes, plan.offsets, plan.tails
    s = plan.s
    for i in range(1, s):
        o = offsets[i - 1]
        blk = a[o:o + tails[i]]
        np.subtract(blk, a[o + sizes[i - 1]:n], out=blk)
    _mod(ctx, a[:tails[1]], work)
    rest = a[sizes[0]:]  # r_i in (-p, p), times 2^(i-1) within (-p^2, p^2)
    np.multiply(rest, _block_powers(ctx, plan, 2), out=rest)
    n2 = sizes[1]
    carry = _scratch(ctx, (2 * n2, k))
    nxt = _scratch(ctx, (n2, k))
    c = _fold(a[:sizes[0]], 2 * n2, carry)
    for i in range(2, s + 1):
        o = offsets[i - 1]
        ni = sizes[i - 1]
        blk = a[o:o + ni]
        lo = c[:ni]
        hi = c[ni:]
        d = np.add(blk, lo, out=nxt[:ni])  # lo may share nxt: read by now
        np.subtract(d, hi, out=blk)
        if i < s:
            d += hi
            c = _fold(_mod(ctx, d, work), 2 * sizes[i], carry)
    _mod(ctx, rest, work)
    ctx.ops.add += k * counts[0]
    ctx.ops.pow2 += k * counts[1]


def _unbreak(ctx: FieldCtx, a: np.ndarray, plan: Plan, counts: tuple, work: np.ndarray
             ) -> None:
    """:func:`tftlib.ctft.unbreak_in_place` on every column of a, by the carry.

    The carries come from the images alone (the next S is f_i + 2 C_hi), so
    each block leaves as 2^(i-1) r_i, and all of them are halved i - 1 times
    in one pass; then phase 1 is undone from the last block up.  A carry is
    reduced before it is used, which keeps every 2^(i-1) r_i in (-p, 2p).
    """
    n, k = a.shape
    sizes, offsets, tails = plan.sizes, plan.offsets, plan.tails
    s = plan.s
    n2 = sizes[1]
    carry = _scratch(ctx, (2 * n2, k))
    nxt = _scratch(ctx, (n2, k))
    first = a[:sizes[0]]  # f_1 in [0, p)
    c = _fold(first, 2 * n2, carry)
    for i in range(2, s + 1):
        if c is not first:
            _mod(ctx, c, work)
        o = offsets[i - 1]
        ni = sizes[i - 1]
        blk = a[o:o + ni]
        lo = c[:ni]
        hi = c[ni:]
        blk -= lo
        blk += hi
        if i < s:
            d = np.add(blk, lo, out=nxt[:ni])  # lo may share nxt: read by now
            d += hi
            c = _fold(d, 2 * sizes[i], carry)
    rest = a[sizes[0]:]
    np.multiply(rest, _block_powers(ctx, plan, ctx.half), out=rest)
    _mod(ctx, rest, work)
    for i in range(s - 1, 0, -1):
        o = offsets[i - 1]
        blk = a[o:o + tails[i]]
        blk += a[o + sizes[i - 1]:n]
    _mod(ctx, a[:offsets[-2] + tails[-2]], work)  # the slots the loop added to
    ctx.ops.add += k * counts[0]
    ctx.ops.pow2 += k * counts[1]


def _pointwise(ctx: FieldCtx, a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Column 0 times column 1, as an (n, 1) buffer."""
    h = np.empty((len(a), 1), np.int64)
    np.multiply(a[:, 0], a[:, 1], out=h[:, 0])
    _mod(ctx, h, work)
    ctx.ops.mul += len(a)
    return h


def _scale(ctx: FieldCtx, a: np.ndarray, powers: np.ndarray, work: np.ndarray) -> None:
    """Every column of a times the power row; counts as scale_by_powers per column."""
    np.multiply(a, powers[:, None], out=a)
    _mod(ctx, a, work)
    ctx.ops.mul += 2 * (len(a) - 1) * a.shape[1]


def multiply_full_fft(ctx: FieldCtx, f, g, size: int) -> list[int]:
    """:func:`tftlib.bridge.multiply_full_fft` of f and g, trimmed to their
    degrees, padded to ``size``."""
    if size.bit_length() - 1 > ctx.two_adicity:
        raise UnsupportedOrderError(
            f"no root of order {size}: 2-adicity of {ctx.p} - 1 is {ctx.two_adicity}")
    work = _scratch(ctx, 2 * size)
    a = _load(ctx, f, g, size, work)
    twiddles = _twiddles(ctx, [size], _tables(ctx, size, work), 0)
    _transform(ctx, a, [size], twiddles, work, False)
    h = _pointwise(ctx, a, work)
    _transform(ctx, h, [size], twiddles, work, True)
    return h[:len(f) + len(g) - 1, 0].tolist()


def multiply_tft(ctx: FieldCtx, f, g, plan: Plan, path: str) -> list[int]:
    """:func:`tftlib.bridge.multiply_tft` of f and g, trimmed to their degrees,
    over ``plan`` (two blocks or more), with the ``new`` break."""
    work = _scratch(ctx, 2 * plan.n)
    a = _load(ctx, f, g, plan.n, work)
    tables = _tables(ctx, plan.N, work)
    if path == "cyclotomic":
        twiddles = _twiddles(ctx, plan.sizes, tables, 1)
    else:  # Omega_s**k = omega_N**(e_1 k), e_1 = -_grid_twist(plan, 1)
        grid = [-1]  # _grid_twist(plan, i) = -e_i, e_i = 1 + e_(i+1) * n_i / n_(i+1)
        for i in range(plan.s - 1, 0, -1):
            grid.append(-1 + grid[-1] * (plan.size(i) // plan.size(i + 1)))
        grid.reverse()
        e = np.arange(plan.n) * -grid[0]
        scales = _counted(ctx, tables[0].take(np.stack((e, -e)) & (plan.N - 1)))
        _scale(ctx, a, scales[0], work)
        twiddles = _twiddles(ctx, plan.sizes, tables, 0, grid)
    counts = _break_counts(plan)
    _break(ctx, a, plan, counts, work)
    _transform(ctx, a, plan.sizes, twiddles, work, False)
    h = _pointwise(ctx, a, work)
    _transform(ctx, h, plan.sizes, twiddles, work, True)
    _unbreak(ctx, h, plan, counts, work)
    if path == "bitreversed":
        _scale(ctx, h, scales[1], work)
    return h[:, 0].tolist()
