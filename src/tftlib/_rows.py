"""The product in int64 rows, for fields below 2^31.

:mod:`tftlib.bridge` hands a product here when p < 2^31 and its length n is
at least ``bridge._ROWS_MIN``: a padded one, and a truncated one with the
``new`` engine.  Below 2^31 a product of two residues fits an int64, so every
butterfly, fold and scaling is a numpy operation, and the outputs are the
list path's Python ints in [0, p).  The list path, the reference these rows
are tested against, keeps the rest: the public transforms, p >= 2^31,
shorter products and the other engines' truncated products.

The two operands are the columns of an (n, 2) buffer, so a product's
forward transforms are one set of operations.  The block transform takes
one set per butterfly stage over every block at once: blocks are contiguous
and aligned, so at half-length u the blocks with n_i >= 2u are a prefix of
the buffer that reshapes to (rows, 2, u k), k its columns, and each row
takes one twiddle, a power of omega_N, N the padded length.  The powers,
the bit-reversed base rows and their twist-1 octaves are tables of the
field and N that grow from the root ladder by doubling, built by the first
product of padded length N over a context and kept on it (``ctx.row_tables``,
one entry per power of two); a product slices them, or gathers the rows of
stages whose blocks do not halve one into the next.

The ``new`` break and its inverse reach the list path's images without
its survivor runs.  The break halves z^N - 1, as the ``mateer`` engine
does, and the unbreak undoes it by a Horner carry; each takes a few numpy
calls per bit of N or per block on contiguous slices, and reduces only at
its end, which the int64 headroom allows (``_break``, ``_unbreak``).
:func:`multiply` is the one product: the break, the blocks at twist 1 and
the unbreak, on the bit-reversed path between two Omega_s scalings (rows of
powers of omega_N); the padded product is its one-block case at twist 0.

The rows' twiddles are balanced, in (-p/2, p/2], so a product of a twiddle
and a value below 4p in magnitude stays below 2p^2 < 2^63 for every p <
2^31.  That lets the butterflies reduce lazily (Harvey 2014): each product
is reduced at once, but the forward transform reduces its sums and
differences only after every fourth stage and its last, and the inverse its
sums after every third stage (proofs at :func:`_transform`).

The rows count nothing.  Their element work is not the list path's (lazy
reductions, twiddles read from tables, a halved break), so the bridge adds
the list product's (mul, pow2, add) after a row product, from the closed
forms beside the list code that counts them.

Every array this module takes besides the int64 copies of the operands
and of the product is reported in ``ctx.scratch_allocated``: each table
once, and per product a work buffer of 2n elements (the stages' products
and quotients, the carries), the concatenated twiddle rows and on the
bit-reversed path the two power rows.  A product of padded length N
reports at most 5N elements on the padded path, 9N on the cyclotomic one
and 10N on the bit-reversed one, tables included (``tests/test_rows.py``).
"""

from __future__ import annotations

import numpy as np

from .plan import Plan
from .ring import FieldCtx

# from this many elements, x - (x // p) * p beats np.remainder (measured)
_DIVIDE_MIN = 1024
# chunks at most this many elements wide fold by one matmul, which costs
# about three additions an element; wider ones halve (measured)
_SUM_WIDTH = 64
_ONE = np.ones(1, np.int64)  # a row of ones of any length, as a view of stride 0


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


def _grow(ctx: FieldCtx, row: np.ndarray, ladder, work: np.ndarray) -> np.ndarray:
    """Fill a row of 2^len(ladder) residues in [0, p) by doubling: entry 0
    is 1, and entries [m, 2m) are entries [0, m) times ladder[log2(m)]."""
    row[0] = 1
    for b, w in enumerate(ladder):
        _mod(ctx, np.multiply(row[:1 << b], w, out=row[1 << b:2 << b]), work)
    return row


def _tables(ctx: FieldCtx, N: int, work: np.ndarray) -> tuple:
    """The tables of padded length N over ctx, built and reported once.

    ``powers`` holds omega_N**j for j < N, in [0, p); ``base`` holds the
    forward and inverse base rows omega_N**(+-rev(r)) for r < N/2, rev over
    log2(N/2) bits, balanced into (-p/2, p/2] (see :func:`_transform`);
    ``octaves`` holds base[:, m:2m] for m from N/4 down to 1, the octave of
    m at N/2 - 2m.  Both keep a last axis of length 1, so that a slice
    multiplies the rows of a stage.  The tables grow from the root ladder by
    doubling (:func:`_grow`): ``powers`` by omega_N**m = roots[log2(N/m)],
    and as rev(m + r) = rev(m) + rev(r) for r < m, entries [m, 2m) of a
    base row are its first m entries times omega_N**(+-rev(m)) =
    omega_(4m)**(+-1), roots[log2(4m)] or inv_roots[log2(4m)].
    """
    tables = ctx.row_tables.get(N)
    if tables is None:
        k = N.bit_length() - 1
        half = N // 2
        powers = _grow(ctx, _counted(ctx, np.empty(N, np.int64)), ctx.roots[k:0:-1], work)
        base = _counted(ctx, np.empty((2, half), np.int64))
        for row, ladder in zip(base, (ctx.roots, ctx.inv_roots)):
            _grow(ctx, row, ladder[2:k + 1], work)
        np.subtract(base, ctx.p, out=base, where=base > ctx.p // 2)
        octaves = _counted(ctx, np.concatenate(
            [base[:, m:2 * m] for m in (half >> e for e in range(1, half.bit_length()))], axis=1))
        tables = ctx.row_tables[N] = (powers, base[:, :, None], octaves[:, :, None])
    return tables


def _twiddles(ctx: FieldCtx, sizes, tables: tuple, twist: int) -> tuple:
    """Every stage's row twiddles, forward and inverse, from the tables of N.

    Blocks of ``sizes`` take ``twist``, 0 or 1.  At half-length u, row q
    of block i (m = n_i / 2u rows, n_i = 2^(k-1) u) takes
    c * omega_(2^(k-1))**rev(q), where c = omega_(2^k)**twist is its first
    twiddle (as in :func:`tftlib.transform.dwt`).  Entry q of the base
    row is omega_(2m)**rev(q) for q < m, so twist 0 reads base[q]; its
    entry m + q is omega_(4m)**(2 rev(q) + 1), which twist 1 reads: the
    octave [m, 2m) of the base row.  The blocks of a stage have distinct m,
    one set bit each of n >> (st + 1), which is the stage's row count, so a
    stage whose m halve from block to block (its bits are contiguous: every
    stage, when n is 2^k - 1 or 2^k + 1) reads one slice of the octaves;
    the others concatenate their blocks' octaves.

    Returns the (forward, inverse) rows by log2(u), each of shape
    (2, rows, 1), and the 1/n_i of every slot, balanced as the rows are:
    -(p - 1)/n_i.
    """
    _, base, octaves = tables
    n = sum(sizes)
    half = base.shape[1]
    rows_at = []
    for st in range(n.bit_length() - 1):
        w = n >> (st + 1)
        if not twist:
            rows = base[:, :w]
        elif w & (w + (w & -w)) == 0:  # m halves from block to block
            top = 1 << (w.bit_length() - 1)
            rows = octaves[:, half - 2 * top:half - 2 * top + w]
        else:
            rows = _counted(ctx, np.concatenate(
                [base[:, 1 << b:2 << b] for b in range(w.bit_length() - 1, -1, -1) if w >> b & 1],
                axis=1))
        rows_at.append(rows)
    active = [ni for ni in sizes if ni > 1]
    inv_n = [-((ctx.p - 1) // ni) for ni in active]
    scale = inv_n[0] if len(active) == 1 else _counted(
        ctx, np.repeat(np.array(inv_n, np.int64), active))[:, None]
    return rows_at, scale


def _transform(ctx: FieldCtx, a: np.ndarray, sizes, twiddles, work: np.ndarray,
               inverse: bool) -> None:
    """dwt (or idwt) of every block, on every column of a at once.

    ``sizes`` are the n_i, decreasing powers of two whose sum is len(a);
    block i starts at n_1 + ... + n_(i-1).  The twiddles, from
    :func:`_twiddles`, carry the blocks' twists.  The input is in [0, p),
    and so is every output.

    Reduction is lazy (Harvey 2014), on balanced twiddles.  p is odd, so a
    twiddle or 1/n_i in (-p/2, p/2] has magnitude at most (p - 1)/2, and
    for |v| < 4p a product has |v w| < 2p (p - 1) < 2p^2 < 2^63, as p < 2^31
    gives p^2 < 2^62.  Every product is reduced into [0, p) at once; the
    sums and differences wait, and never leave [-4p, 8p).  The two bounds
    below show that no multiplied value reaches 4p in magnitude.

    Forward, u falls and the prefix grows.  Before the d-th stage every
    value of its prefix lies in [-jp, (j + 1) p), j = (d - 1) mod 4.  This
    holds at d = 1 and for the blocks that join the prefix later, which
    hold their input.  A stage multiplies y, |y| < (j + 1) p <= 4p, into
    t in [0, p); then x - t lies in [-(j + 1) p, (j + 1) p) and x + t in
    [-jp, (j + 2) p), so the bound holds with j + 1.  After every fourth
    stage (j = 3: values in [-4p, 5p)) the prefix is reduced into [0, p),
    so j restarts at 0, and after the last stage, whose prefix holds every
    block, too.

    Inverse, u grows and the prefix shrinks.  Before the d-th stage every
    value of its prefix lies in [0, cp), c = 2^((d - 1) mod 3).  This holds
    at d = 1, the input being in [0, p).  A stage multiplies x - y,
    |x - y| < cp <= 4p, into y in [0, p), and x + y lies in [0, 2cp), so
    the next prefix, a part of this one, lies in [0, 2cp).  After every
    third stage (c = 4: sums in [0, 8p)) the sums are reduced into [0, p),
    so c restarts at 1.  A block that has left the prefix keeps what its
    last stage left, in [0, 4p) (c <= 2) or in [0, p) (c = 4, reduced); so
    the 1/n_i pass multiplies values below 4p, and reduces them.
    """
    k = a.shape[1]
    active = [ni for ni in sizes if ni > 1]
    stage_rows, scale = twiddles
    span = sum(active)
    prod = work[:span // 2 * k]
    quot = work[span // 2 * k:]
    stages = span.bit_length() - 1
    order = range(stages) if inverse else range(stages - 1, -1, -1)
    for done, st in enumerate(order, 1):
        tw = stage_rows[st][1 if inverse else 0]
        rows = len(tw)
        width = rows << (st + 1)
        view = a[:width].reshape(rows, 2, -1)
        x = view[:, 0]
        y = view[:, 1]
        t = prod[:width // 2 * k].reshape(rows, -1)
        if inverse:
            np.subtract(x, y, out=t)
            np.add(x, y, out=x)
            np.multiply(t, tw, out=t)
            _mod(ctx, t, quot, out=y)
            if done % 3 == 0:
                _mod(ctx, x, quot)
        else:
            np.multiply(y, tw, out=t)
            _mod(ctx, t, quot)
            np.subtract(x, t, out=y)
            np.add(x, t, out=x)
            if done % 4 == 0 or done == stages:
                _mod(ctx, a[:width], work)
    if inverse:
        head = a[:span]
        np.multiply(head, scale, out=head)
        _mod(ctx, head, work)


def _fold(d: np.ndarray, width: int, out: np.ndarray) -> np.ndarray:
    """d mod (z^width - 1) in out, which may be d.  d_lo + d_hi goes into
    out, and halves again while two chunks are left or a chunk is wider
    than _SUM_WIDTH elements; the chunks then left sum at once into the
    rows after them, by a matmul with a row of ones of stride 0.  A halving
    takes a numpy call, and np.sum over a reshape a pass of numpy's loop
    per chunk: on two columns 4096 rows fold to 2 in 8-11 us, against
    18-26 us by halving and 44-53 us by np.sum (best of 15, two runs,
    shared 2-core VM).
    """
    h = len(d) // 2
    if h < width:
        if d is not out:
            np.copyto(out[:width], d)
            d = out[:width]
        return d
    d = np.add(d[:h], d[h:], out=out[:h])
    while h > width and (h == 2 * width or width * d.shape[1] > _SUM_WIDTH):
        h //= 2
        d = np.add(d[:h], d[h:], out=d[:h])
    if h == width:
        return d
    ones = np.ndarray((h // width,), np.int64, _ONE, 0, (0,))
    return np.matmul(ones, d.reshape(h // width, -1), out=out[h:h + width].reshape(-1)
                     ).reshape(width, -1)


def _break(ctx: FieldCtx, a: np.ndarray, plan: Plan, work: np.ndarray) -> None:
    """:func:`tftlib.ctft.break_in_place` on every column of a, by halving.

    The images f_i = f mod (z^(n_i) + 1) are those of the ``mateer``
    chain: from C = f mod (z^N - 1), halving at m = n_1, ..., n_s, block i
    takes C_lo - C_hi where m = n_i, and C becomes C_lo + C_hi.  The first
    C is f, its upper half the rows y past block 1: block 1 is f_1 - y, and
    the next C, folded to 2 n_2 rows at once, is f_1 folded plus y.  C
    lives in the work buffer and only the images are reduced: after j
    halvings every value lies in (-2^j p, 2^j p), 2^j < N <= 2^(two-adicity)
    < p < 2^31, so within p^2 < 2^62.
    """
    sizes, offsets = plan.sizes, plan.offsets
    t = len(a) - sizes[0]
    first, y = a[:sizes[0]], a[sizes[0]:]
    c = _fold(first, 2 * sizes[1], work[:first.size].reshape(first.shape))
    c[:t] += y
    first[:t] -= y
    for i in range(2, plan.s + 1):
        ni = sizes[i - 1]
        c = _fold(c, 2 * ni, c)
        np.subtract(c[:ni], c[ni:], out=a[offsets[i - 1]:offsets[i - 1] + ni])
    _mod(ctx, a[:t], work)
    _mod(ctx, y, work)


def _unbreak(ctx: FieldCtx, a: np.ndarray, plan: Plan, work: np.ndarray) -> None:
    """:func:`tftlib.ctft.unbreak_in_place` on every column of a, by a carry.

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
    It is reduced once, before the halvings multiply it.
    """
    k = a.shape[1]
    sizes, offsets, tails = plan.sizes, plan.offsets, plan.tails
    s = plan.s
    c = _fold(a[:sizes[0]], 2 * sizes[1], work[:sizes[0] * k].reshape(-1, k))
    for i in range(2, s + 1):
        ni = sizes[i - 1]
        c = _fold(c, 2 * ni, c)
        blk = a[offsets[i - 1]:offsets[i - 1] + ni]
        lo, hi = c[:ni], c[ni:]
        blk += hi
        if i < s:
            np.add(blk, hi, out=hi)  # f_i + 2 C_hi
        blk -= lo
        c = hi
    rest = a[sizes[0]:]
    _mod(ctx, rest, work)
    halvings = [pow(ctx.half, i, ctx.p) for i in range(1, s)]
    rest *= halvings[0] if s == 2 else _counted(ctx, np.repeat(halvings, sizes[1:]))[:, None]
    _mod(ctx, rest, work)
    for i in range(s - 1, 0, -1):
        blk = a[offsets[i - 1]:offsets[i - 1] + tails[i]]
        blk += a[offsets[i]:]
    _mod(ctx, a[:offsets[-2] + tails[-2]], work)  # the slots the loop added to


def multiply(ctx: FieldCtx, f, g, n: int, plan: Plan | None, e: int) -> list[int]:
    """:func:`tftlib.bridge._multiply` of f and g, trimmed to their degrees,
    at transform length n.  With no ``plan`` this is one block of the padded
    length n at twist 0; with a plan (two blocks or more) the ``new`` break,
    twist 1 and the unbreak, and unless ``e`` is 0 the two Omega_s scalings,
    Omega_s = omega_N**e (``bridge._grid_twist``)."""
    sizes = plan.sizes if plan else (n,)
    work = _counted(ctx, np.empty(2 * n, np.int64))
    a = _load(ctx, f, g, n, work)
    tables = _tables(ctx, plan.N if plan else n, work)
    if e:
        exps = work[:n]  # k e, then -k e, in the free work buffer
        exps[0], exps[1:] = 0, e
        np.cumsum(exps, out=exps)
        scales = _counted(ctx, np.empty((2, n), np.int64))
        for row in scales:  # Omega_s**k, then Omega_s**(-k)
            tables[0].take(np.bitwise_and(exps, plan.N - 1, out=exps), out=row, mode="clip")
            np.negative(exps, out=exps)
        _mod(ctx, np.multiply(a, scales[0, :, None], out=a), work)
    twiddles = _twiddles(ctx, sizes, tables, 1 if plan else 0)
    if plan:
        _break(ctx, a, plan, work)
    _transform(ctx, a, sizes, twiddles, work, False)
    h = _mod(ctx, np.multiply(a[:, :1], a[:, 1:]), work)  # the pointwise product
    _transform(ctx, h, sizes, twiddles, work, True)
    if plan:
        _unbreak(ctx, h, plan, work)
    if e:
        _mod(ctx, np.multiply(h, scales[1, :, None], out=h), work)
    return h[:len(f) + len(g) - 1, 0].tolist()
