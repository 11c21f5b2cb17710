"""In-place radix-2 transforms over a prime field.

One kernel, :func:`dwt`, evaluates a window at omega_2n**twist * omega_n**j
and leaves the value in slot rev(j), where omega_m is the context's canonical
root of order m (``ctx.roots``).  It walks the factorisation tree of
z^n - c^n: a block reduced modulo z^(2m) - c^2 splits into its images modulo
z^m - c and z^m + c by m butterflies with twiddle c.  The twist therefore
only changes the first twiddle of each stage, from 1 to omega_(2n/u)**twist,
and no weighting pass runs.  With twist 0 this is the plain FFT; twist 1
evaluates a negacyclic image at the roots of z^n + 1.  The inverse,
:func:`idwt`, consumes that order, runs the inverted butterflies with the
stages reversed, and defers the accumulated factor of 1/n to a single final
scaling pass (counted as pow2 operations).

Every root the kernel needs comes from the context's ladder, built once as
set-up: the stage root omega_(n/u) is ``roots[i]`` at stage i, and a stage's
first twiddle omega_(2n/u)**twist is a product of ladder roots, one per set
bit of the twist (one counted multiplication per factor after the first).
The run of twiddles c * omega_(n/u)**j inside a stage is generated one
multiplication at a time, so no table of twiddles is built and scratch usage
stays at O(1) field elements.  The price is a non-sequential traversal of
the buffer: butterflies sharing a twiddle are visited together.  Block j of a
stage starts at rev(j) * u, kept in a bit-reversed counter: stepping j flips
its trailing ones and the next zero bit, which in reversed order are the
counter's top bits, one XOR per block.

Reduction is lazy (Harvey, "Faster arithmetic for number-theoretic
transforms", 2014): a butterfly reduces only the operand it multiplies, and
the forward sums and differences are reduced in the last stage (u = 1, run
without an inner loop), the inverse sums by the final 1/n pass.  Python ints
do not overflow, so this costs no range checks.  The first stage loads the
caller's integers through ``int()``, so any integers are accepted and every
output is a Python int in [0, p).
"""

from __future__ import annotations

from .ring import FieldCtx, find_root_of_unity


def _check_window(ctx: FieldCtx, a: list[int], n: int, twist: int, offset: int) -> None:
    if n < 1 or n & (n - 1):
        raise ValueError(f"transform length {n} is not a power of two")
    if offset < 0 or offset + n > len(a):
        raise ValueError(f"window [{offset}, {offset + n}) exceeds buffer of {len(a)}")
    find_root_of_unity(ctx, n << (twist & 1))  # an odd twist needs omega_2n


def _stage_start(ctx: FieldCtx, twist: int, k: int) -> int:
    """omega_(2^k)**twist as a product of ladder roots, counted.

    Bit b of e = twist mod 2^k contributes roots[k - b] = omega_(2^k)**(2^b).
    When -e mod 2^k has fewer set bits, its bits are taken on ``inv_roots``
    instead.  One multiplication per factor after the first.
    """
    mask = (1 << k) - 1
    e = twist & mask
    ladder = ctx.roots
    if (-e & mask).bit_count() < e.bit_count():
        e, ladder = -e & mask, ctx.inv_roots
    if e & (e - 1):
        ctx.ops.mul += e.bit_count() - 1
    p = ctx.p
    x = 1
    while e:
        low = e & -e
        x = x * ladder[k + 1 - low.bit_length()] % p
        e ^= low
    return x


def kernel_counts(n: int, inverse: bool) -> tuple[int, int, int]:
    """(mul, pow2, add) that :func:`dwt`, or :func:`idwt` if ``inverse``,
    counts at length n and twist 0 or 1: (n/2) log2(n) butterfly and
    n - 1 - log2(n) twiddle-generation multiplications, n log2(n) additions,
    and for the inverse the 1/n pass, which a block of length 1 skips."""
    stages = n.bit_length() - 1
    return (n // 2 * stages + n - 1 - stages, n if inverse and n > 1 else 0, n * stages)


def dwt(ctx: FieldCtx, a: list[int], n: int, twist: int, offset: int = 0) -> None:
    """Twisted transform: a[offset + rev(j)] <- f(omega_2n**twist * omega_n**j), in place.

    omega_m is the canonical root of order m, ``ctx.roots[log2(m)]``.  Twist 0
    is the plain FFT; twist 1 evaluates a negacyclic image at all roots of
    z**n + 1.  Counts :func:`kernel_counts`; a twist other than 0 or 1 adds
    one multiplication per extra ladder factor of each stage's first twiddle.

    Any integers are accepted: the first stage loads them through ``int()``,
    and every output is a Python int in [0, p).  Sums and differences are
    left unreduced until the last stage; only the multiplied operand is
    reduced, so from inputs in [0, p) every value stays below
    (log2(n) + 1) * p in magnitude.
    """
    _check_window(ctx, a, n, twist, offset)
    p = ctx.p
    if n <= 2:  # a lone stage is both first and last: coerce before it
        for k in range(offset, offset + n):
            a[k] = int(a[k]) % p
        if n == 1:
            return
    roots = ctx.roots
    stages = n.bit_length() - 1
    for i in range(1, stages):
        u = n >> i
        tw = _stage_start(ctx, twist, i + 1)
        if i == 1:  # one block, so no stage root: load the caller's integers as int
            for k in range(offset, offset + u):
                x = int(a[k])
                y = int(a[k + u]) * tw % p
                a[k] = x + y
                a[k + u] = x - y
            continue
        wu = roots[i]
        r = 0
        for j in range(1 << (i - 1)):
            if j:
                tw = tw * wu % p
                # r = rev(j) * u: mirror the bits that stepping j flips
                r ^= n - (n >> (j ^ (j - 1)).bit_length())
            t = offset + r
            for k in range(t, t + u):
                x = a[k]
                y = a[k + u] * tw % p
                a[k] = x + y
                a[k + u] = x - y
    # u = 1: one butterfly per block, outputs reduced into [0, p)
    wu = roots[stages]
    tw = _stage_start(ctx, twist, stages + 1)
    r = 0
    for j in range(n >> 1):
        if j:
            tw = tw * wu % p
            r ^= n - (n >> (j ^ (j - 1)).bit_length())
        k = offset + r
        x = a[k]
        y = a[k + 1] * tw % p
        a[k] = (x + y) % p
        a[k + 1] = (x - y) % p
    mul, _, add = kernel_counts(n, False)
    ctx.ops.mul += mul
    ctx.ops.add += add


def idwt(ctx: FieldCtx, a: list[int], n: int, twist: int, offset: int = 0) -> None:
    """Inverse of :func:`dwt`: bit-reversed evaluations back to coefficients.

    Runs the inverted butterflies, whose stage roots come from
    ``ctx.inv_roots`` and whose first twiddles are omega_(2n/u)**-twist, in
    reversed stage order, then multiplies every slot by 1/n in one final pass
    (n pow2 operations).  Counts match :func:`dwt`'s.  The first stage
    (u = 1) loads the caller's integers through ``int()``; sums are left
    unreduced (below n * p in magnitude from inputs in [0, p)), multiplied
    differences are reduced, and the 1/n pass reduces every slot, so every
    output is a Python int in [0, p).
    """
    _check_window(ctx, a, n, twist, offset)
    p = ctx.p
    if n == 1:
        a[offset] = int(a[offset]) % p
        return
    inv_roots = ctx.inv_roots
    stages = n.bit_length() - 1
    # u = 1: one butterfly per block, loads coerced to int
    wu = inv_roots[stages]
    tw = _stage_start(ctx, -twist, stages + 1)
    r = 0
    for j in range(n >> 1):
        if j:
            tw = tw * wu % p
            r ^= n - (n >> (j ^ (j - 1)).bit_length())
        k = offset + r
        x = int(a[k])
        y = int(a[k + 1])
        a[k] = x + y
        a[k + 1] = (x - y) * tw % p
    for i in range(stages - 1, 0, -1):
        u = n >> i
        wu = inv_roots[i]
        tw = _stage_start(ctx, -twist, i + 1)
        r = 0
        for j in range(1 << (i - 1)):
            if j:
                tw = tw * wu % p
                r ^= n - (n >> (j ^ (j - 1)).bit_length())
            t = offset + r
            for k in range(t, t + u):
                x = a[k]
                y = a[k + u]
                a[k] = x + y
                a[k + u] = (x - y) * tw % p
    inv_n = p - (p - 1) // n  # n divides p - 1
    for k in range(offset, offset + n):
        a[k] = a[k] * inv_n % p
    mul, pow2, add = kernel_counts(n, True)
    ctx.ops.mul += mul
    ctx.ops.pow2 += pow2
    ctx.ops.add += add


def fft_in_place(ctx: FieldCtx, a: list[int], n: int, offset: int = 0) -> None:
    """In place, a[offset + rev(j)] <- f(omega_n**j) for the window of length n."""
    dwt(ctx, a, n, 0, offset)


def ifft_in_place(ctx: FieldCtx, a: list[int], n: int, offset: int = 0) -> None:
    """Inverse of :func:`fft_in_place`, with one final 1/n pass (n pow2 operations)."""
    idwt(ctx, a, n, 0, offset)


def scale_by_powers(ctx: FieldCtx, a: list[int], n: int, base: int) -> None:
    """a[k] *= base**k for k < n, powers generated sequentially.

    2*(n - 1) counted multiplications; base**0 is applied as the identity.
    Every slot is loaded through ``int()``.
    """
    p = ctx.p
    a[0] = int(a[0]) % p
    pw = 1
    for k in range(1, n):
        pw = pw * base % p
        a[k] = int(a[k]) * pw % p
    ctx.ops.mul += 2 * (n - 1)
