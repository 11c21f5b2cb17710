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
the buffer that reshapes to (rows, 2, u, 2).  Each row's twiddle is its
block's first stage twiddle times an entry of one bit-reversed base row,
gathered from the powers of omega_N.  The ``new`` break and its inverse
fold each block from all its survivor runs in one gather, reshaped into n_i
chunks and summed by one matrix product with the weights +-2^(i-1-j): the
Horner doublings and the chunk signs are one operation.  Block 2's run is
[0, n_1), so at n = 2^k + 1, where that run holds n_1 / 2 chunk pairs of one
slot, the sum runs over a slice of the buffer with no gather.  The
bit-reversed path's Omega_s scaling is a row of powers of omega_N.

The element work differs from the tallies.  The rows reduce lazily between
stages (Harvey 2014) and fully at the ends, take every twiddle from the
base row instead of generating it, and fold survivor chunks by a weighted
sum instead of doubling whole blocks.  None of this is counted: each
product adds to ``ctx.ops`` exactly the (mul, pow2, add) that the list path
adds for the same call, in closed form, so the two paths cannot disagree on
them.

Scratch is reported.  Every array this module takes besides the int64
copies of the operands and of the product, which stand in for the list
path's own lists, is added to ``ctx.scratch_allocated``: the powers of
omega_N, the base and twiddle rows, one work buffer of 3n elements for the
stages' products and quotients, the power rows, the gather index, the
chunk weights, the gathered runs and their sums.  A product of padded
length N reports at most 5N elements on the padded path and at most 20N on
the truncated ones (``tests/test_rows.py``).
"""

from __future__ import annotations

import numpy as np

from .plan import Plan
from .ring import FieldCtx, UnsupportedOrderError
from .transform import _stage_start

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


def _twiddles(ctx: FieldCtx, sizes, powers: np.ndarray, work: np.ndarray, twist: int,
              grid: list | None = None) -> tuple:
    """Every stage's row twiddles, forward and inverse, from bit-reversed base rows.

    Blocks of ``sizes`` take ``twist`` (0 or 1), or the bit-reversed path's
    twists ``grid`` (:func:`tftlib.bridge._grid_twist`); ``powers`` holds
    omega_N**j for j < N, the padded length.  At half-length u, row q of
    block i (m = n_i / 2u rows, n_i = 2^(k-1) u) takes
    c * omega_(2^(k-1))**rev(q), where c = omega_(2^k)**twist is its first
    twiddle (:func:`tftlib.transform._stage_start`).  The base row, gathered
    from ``powers``, holds omega_N**rev(r) for r < N/2, rev over log2(N/2)
    bits.  Its entry q is omega_(2m)**rev(q) for q < m, so twist 0 reads
    base[q]; its entry m + q is omega_(4m)**(2 rev(q) + 1), which twist 1
    reads: the octave [m, 2m) of the base row.  The blocks of a stage have
    distinct m, so with the octaves stored largest first, a stage whose m
    halve from block to block (every stage, when n is 2^k - 1 or 2^k + 1)
    reads one slice; the other stages share one gather.  On the bit-reversed
    path the twiddle of every block's row is that of the padded transform of
    f at the row's place r in the stage, scaled by Omega_s^-u, since the
    blocks hold f(Omega_s z): base[r] * Omega_s^-u.  Returns the (forward,
    inverse) rows by log2(u), the stage starts' counted multiplications for
    one transform, and the 1/n_i of every slot.
    """
    p = ctx.p
    active = [ni for ni in sizes if ni > 1]
    n1 = active[0]
    N = len(powers)
    rev = _bit_reversal(N.bit_length() - 2)
    base = _counted(ctx, powers.take(np.stack((rev, -rev & (N - 1)))))
    half = N // 2
    octaves = None  # base[:, m:2m] at half - 2m, m from half / 2 down to 1
    rows_at = {}
    starts, lengths = [], []
    at = 0
    for st in range(n1.bit_length() - 2, -1, -1):
        ms = [ni >> (st + 1) for ni in active if ni >> st > 1]
        width = sum(ms)
        if grid is not None or not twist:
            rows_at[st] = base[:, :width]
        elif len(ms) == 1:
            rows_at[st] = base[:, width:2 * width]
        elif width == 2 * ms[0] - ms[-1]:  # m halves from block to block
            if octaves is None:
                octaves = _counted(ctx, np.concatenate(
                    [base[:, m:2 * m] for m in (half >> e for e in range(1, half.bit_length()))],
                    axis=1))
            rows_at[st] = octaves[:, half - 2 * ms[0]:half - 2 * ms[0] + width]
        else:
            starts += ms
            lengths += ms
            rows_at[st] = (at, width)
            at += width
    starts_mul = 0
    if grid is not None:
        e = -grid[0]  # Omega_s = omega_N**e
        scales = [[int(powers[-e & (N - 1)]), int(powers[e & (N - 1)])]]  # Omega_s^-u, u = 1 first
        for _ in range(len(rows_at) - 1):
            scales.append([x * x % p for x in scales[-1]])
        spans = [rows_at[st].shape[1] for st in range(len(rows_at))]
        rows = _counted(ctx, np.concatenate([rows_at[st] for st in range(len(rows_at))], axis=1))
        rows *= np.repeat(np.array(scales, np.int64).T, spans, axis=1)
        _mod(ctx, rows, work)
        at = 0
        for st, span in enumerate(spans):
            rows_at[st] = rows[:, at:at + span]
            at += span
        for ni, tw in zip(sizes, grid):
            starts_mul += _start_muls(tw, ni.bit_length() - 1)
    elif at:
        offsets = np.cumsum(lengths) - lengths
        idx = _counted(ctx, np.repeat(np.array(starts) - offsets, lengths) + np.arange(at))
        rows = _counted(ctx, base.take(idx, axis=1))
        for st, span in rows_at.items():
            if type(span) is tuple:
                rows_at[st] = rows[:, span[0]:span[0] + span[1]]
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
                _mod(ctx, a[:width], quot)
    if inverse:
        head = a[:span]
        np.multiply(head, scale if type(scale) is int else scale[:, None], out=head)
        _mod(ctx, head, quot)
    ctx.ops.mul += k * starts_mul
    for ni in active:
        st = ni.bit_length() - 1
        ctx.ops.mul += k * ((ni // 2) * st + ni - 1 - st)
        ctx.ops.add += k * ni * st
        if inverse:
            ctx.ops.pow2 += k * ni


def _folds(ctx: FieldCtx, plan: Plan) -> tuple:
    """The survivor runs of every block i >= 2, and the block itself, as one
    gather, with each chunk's forward and inverse weight.

    A run of n_(i-1) exponents of image j < i starts at mask | y (see
    :func:`tftlib.ctft._contribution_pass`) and splits into n_i chunks of
    sign +, -, +, ...; its chunks weigh +-2^(i-1-j).  The block comes last,
    weighing 2^(i-1) forward.  The inverse weights negate the runs' and give
    the block weight 1.  When n has no 0 bit from log2(n_(i-1)) up to
    log2(n_j), which holds for the j nearest i, image j has one run, at
    offset(i) - n_j; the other images have one run per subset of those 0
    bits.  Block 2 gathers a slice of the buffer, its one run [0, n_1) and
    itself; the later blocks share one index.  Returns per block its source
    (the slice or its part of the index) and its forward and inverse chunk
    weights, then the index length and the break's counted additions and
    doublings.
    """
    sizes, offsets, tails = plan.sizes, plan.offsets, plan.tails
    s = plan.s
    weights, chunks, starts, lengths, shape = [], [], [], [], []
    adds = sum(tails[1:s])
    for i in range(2, s + 1):
        ni = sizes[i - 1]
        run = sizes[i - 2]
        # images dense..i-1 have one run each: the blocks within the run of 1
        # bits of n that starts at log2(n_(i-1))
        high = plan.n >> (run.bit_length() - 1)
        dense = max(1, i + 1 - (high ^ (high + 1)).bit_length())
        at = [offsets[i - 1] - nj for nj in sizes[dense - 1:i - 1]]
        w = [1 << (i - 1 - j) for j in range(dense, i)]
        for j in range(1, dense):  # one run per subset y of the free bits
            mask = tails[j] - tails[i - 1]
            free = (sizes[j - 1] - run) & ~mask
            y = 0
            while True:
                at.append(offsets[j - 1] + (mask | y))
                w.append(1 << (i - 1 - j))
                y = (y - free) & free
                if not y:
                    break
        runs = len(at)
        # block i's chunks start at an even place iff i is even; signs alternate
        sign = 1 if i % 2 == 0 else -1
        weights += [sign * x for x in w] + [sign << (i - 1)]
        chunks += [run // ni] * runs + [1]
        if i > 2:
            starts += at + [offsets[i - 1]]
            lengths += [run] * runs + [ni]
        shape.append((runs * run + ni, runs * (run // ni) + 1))
        adds += runs * run
    forward = _counted(ctx, np.repeat(np.array(weights, np.int64), chunks))
    forward[1::2] *= -1
    inverse = _counted(ctx, -forward)
    total = 0
    if starts:
        lengths = np.array(lengths, np.int64)
        total = int(lengths.sum())
        idx = _counted(ctx, np.repeat(np.array(starts, np.int64) - (np.cumsum(lengths) - lengths),
                                      lengths) + np.arange(total))
    blocks = []
    at = chunk_at = 0
    for i, (size, c) in enumerate(shape, 2):
        if i == 2:
            source = slice(0, size)
        else:
            source = idx[at:at + size]
            at += size
        chunk_at += c
        inverse[chunk_at - 1] = 1
        blocks.append((source, forward[chunk_at - c:chunk_at], inverse[chunk_at - c:chunk_at]))
    doublings = sum((i - 1) * sizes[i - 1] for i in range(2, s + 1))
    return blocks, total, adds, doublings


def _gather(a: np.ndarray, source, ni: int) -> np.ndarray:
    """The chunks of a fold, (chunks, n_i * columns): a view of a slice or a take."""
    src = a[source] if type(source) is slice else a.take(source, axis=0)
    return src.reshape(-1, ni * a.shape[1])


def _break(ctx: FieldCtx, a: np.ndarray, plan: Plan, folds, work: np.ndarray) -> None:
    """:func:`tftlib.ctft.break_in_place` on every column of a.

    The remainders' subtractions read the original later blocks, so they
    run first, unreduced; then, block after block, each image is its
    weighted gather.
    """
    p = ctx.p
    n, k = a.shape
    sizes, offsets, tails = plan.sizes, plan.offsets, plan.tails
    for i in range(1, plan.s):
        o = offsets[i - 1]
        blk = a[o:o + tails[i]]
        np.subtract(blk, a[o + sizes[i - 1]:n], out=blk)
    _mod(ctx, a[:tails[1]], work)
    blocks, gathered, adds, doublings = folds
    sums = _scratch(ctx, sizes[1] * k)
    for i, (source, forward, _) in enumerate(blocks, 2):
        o = offsets[i - 1]
        ni = sizes[i - 1]
        np.matmul(forward, _gather(a, source, ni), out=sums[:ni * k])
        np.remainder(sums[:ni * k].reshape(ni, k), p, out=a[o:o + ni])
    ctx.scratch_allocated += k * gathered
    ctx.ops.add += k * adds
    ctx.ops.pow2 += k * doublings


def _unbreak(ctx: FieldCtx, a: np.ndarray, plan: Plan, folds, work: np.ndarray) -> None:
    """:func:`tftlib.ctft.unbreak_in_place` on every column of a.

    Every block's remainder comes from the images before it, so all of them
    are gathered first, then halved i - 1 times in one pass.
    """
    p = ctx.p
    n, k = a.shape
    sizes, offsets, tails = plan.sizes, plan.offsets, plan.tails
    blocks, gathered, adds, doublings = folds
    n1 = sizes[0]
    sums = _scratch(ctx, (n - n1) * k)
    for i, (source, _, inverse) in enumerate(blocks, 2):
        o = (offsets[i - 1] - n1) * k
        np.matmul(inverse, _gather(a, source, sizes[i - 1]), out=sums[o:o + sizes[i - 1] * k])
    ctx.scratch_allocated += k * gathered
    halves = [pow(ctx.half, i - 1, p) for i in range(2, plan.s + 1)]
    if len(halves) > 1:
        halves = _counted(ctx, np.repeat(np.array(halves, np.int64), sizes[1:]))[:, None]
    rest = a[n1:]
    _mod(ctx, sums.reshape(n - n1, k), work, out=rest)
    np.multiply(rest, halves, out=rest)
    _mod(ctx, rest, work)
    for i in range(plan.s - 1, 0, -1):
        o = offsets[i - 1]
        blk = a[o:o + tails[i]]
        blk += a[o + sizes[i - 1]:n]
    _mod(ctx, a[:offsets[-2] + tails[-2]], work)  # the slots the loop added to
    ctx.ops.add += k * adds
    ctx.ops.pow2 += k * doublings


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
    work = _scratch(ctx, 3 * size)
    a = _load(ctx, f, g, size, work)
    twiddles = _twiddles(ctx, [size], _unit_powers(ctx, size, work), work, 0)
    _transform(ctx, a, [size], twiddles, work, False)
    h = _pointwise(ctx, a, work)
    _transform(ctx, h, [size], twiddles, work, True)
    return h[:len(f) + len(g) - 1, 0].tolist()


def multiply_tft(ctx: FieldCtx, f, g, plan: Plan, path: str) -> list[int]:
    """:func:`tftlib.bridge.multiply_tft` of f and g, trimmed to their degrees,
    over ``plan`` (two blocks or more), with the ``new`` break."""
    work = _scratch(ctx, 3 * plan.n)
    a = _load(ctx, f, g, plan.n, work)
    powers = _unit_powers(ctx, plan.N, work)
    if path == "cyclotomic":
        twiddles = _twiddles(ctx, plan.sizes, powers, work, 1)
    else:  # Omega_s**k = omega_N**(e_1 k), e_1 = -_grid_twist(plan, 1)
        grid = [-1]  # _grid_twist(plan, i) = -e_i, e_i = 1 + e_(i+1) * n_i / n_(i+1)
        for i in range(plan.s - 1, 0, -1):
            grid.append(-1 + grid[-1] * (plan.size(i) // plan.size(i + 1)))
        grid.reverse()
        e = np.arange(plan.n) * -grid[0]
        scales = _counted(ctx, powers.take(np.stack((e, -e)) & (plan.N - 1)))
        _scale(ctx, a, scales[0], work)
        twiddles = _twiddles(ctx, plan.sizes, powers, work, 0, grid)
    folds = _folds(ctx, plan)
    _break(ctx, a, plan, folds, work)
    _transform(ctx, a, plan.sizes, twiddles, work, False)
    h = _pointwise(ctx, a, work)
    _transform(ctx, h, plan.sizes, twiddles, work, True)
    _unbreak(ctx, h, plan, folds, work)
    if path == "bitreversed":
        _scale(ctx, h, scales[1], work)
    return h[:, 0].tolist()
