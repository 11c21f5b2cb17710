"""In-place radix-2 transforms over a prime field.

One kernel, :func:`dwt`, evaluates a window at v * omega**j and leaves f(v *
omega**j) in slot rev(j).  It walks the factorisation tree of z^n - v^n: a
block reduced modulo z^(2m) - c^2 splits into its images modulo z^m - c and
z^m + c by m butterflies with twiddle c.  The weight v therefore only changes
the first twiddle of each stage, from 1 to v**u, and no weighting pass runs.
With v = 1 this is the plain FFT.  The inverse, :func:`idwt`, consumes that
order, runs the inverted butterflies with the stages reversed, and defers the
accumulated factor of 1/n to a single final scaling pass (counted as pow2
operations).

Twiddle factors are generated sequentially inside the loops - first the stage
root w**u (only where a stage has more than one block to step through) and
the weight power v**u by square-and-multiply, then the run
v**u * w**(u*j) one multiplication at a time - so no table of roots is ever
built and scratch usage stays at O(1) field elements.  The price is a
non-sequential traversal of the buffer: butterflies sharing a twiddle are
visited together.  Block j of a stage starts at rev(j) * u, kept in a
bit-reversed counter: stepping j flips its trailing ones and the next zero
bit, which in reversed order are the counter's top bits, one XOR per block.

Reduction is lazy (Harvey, "Faster arithmetic for number-theoretic
transforms", 2014): a butterfly reduces only the operand it multiplies, and
the forward sums and differences are reduced in the last stage (u = 1, run
without an inner loop), the inverse sums by the final 1/n pass.  Python ints
do not overflow, so this costs no range checks.  The first stage loads the
caller's integers through ``int()``, so any integers are accepted and every
output is a Python int in [0, p).
"""

from __future__ import annotations

from .ring import FieldCtx


def _check_window(ctx: FieldCtx, a: list[int], n: int, omega: int, offset: int) -> None:
    if n < 1 or n & (n - 1):
        raise ValueError(f"transform length {n} is not a power of two")
    if offset < 0 or offset + n > len(a):
        raise ValueError(f"window [{offset}, {offset + n}) exceeds buffer of {len(a)}")
    if n == 1:
        if omega % ctx.p != 1:
            raise ValueError("length-1 transform requires root 1")
    elif pow(omega, n // 2, ctx.p) != ctx.p - 1:
        raise ValueError(f"root has wrong order for a length-{n} transform")


def dwt(ctx: FieldCtx, a: list[int], n: int, omega: int, weight: int, offset: int = 0) -> None:
    """Weighted transform: a[offset + rev(j)] <- f(weight * omega**j), in place.

    With omega a principal n-th root this evaluates the window at weight times
    each n-th root of unity; taking a weight of order 2n whose square is omega
    evaluates a negacyclic image at all roots of z**n + 1.  Exactly
    n*log2(n) additions and (n/2)*log2(n) butterfly multiplications, plus
    n - 1 - log2(n) twiddle-generation multiplications and the stage powers of
    omega (none at u = n/2, whose single block never steps its twiddle) and,
    for a weight other than 1, of the weight.

    Any integers are accepted: the first stage loads them through ``int()``,
    and every output is a Python int in [0, p).  Sums and differences are
    left unreduced until the last stage; only the multiplied operand is
    reduced, so from inputs in [0, p) every value stays below
    (log2(n) + 1) * p in magnitude.
    """
    _check_window(ctx, a, n, omega, offset)
    p = ctx.p
    if n <= 2:  # a lone stage is both first and last: coerce before it
        for k in range(offset, offset + n):
            a[k] = int(a[k]) % p
        if n == 1:
            return
    weighted = weight % p != 1
    stages = n.bit_length() - 1
    half = n >> 1
    for i in range(1, stages):
        u = n >> i
        tw = ctx.pow_counted(weight, u) if weighted else 1
        if i == 1:  # one block, so no stage root: load the caller's integers as int
            for k in range(offset, offset + u):
                x = int(a[k])
                y = int(a[k + u]) * tw % p
                a[k] = x + y
                a[k + u] = x - y
            continue
        wu = ctx.pow_counted(omega, u)
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
    wu = ctx.pow_counted(omega, 1)
    tw = ctx.pow_counted(weight, 1) if weighted else 1
    r = 0
    for j in range(half):
        if j:
            tw = tw * wu % p
            r ^= n - (n >> (j ^ (j - 1)).bit_length())
        k = offset + r
        x = a[k]
        y = a[k + 1] * tw % p
        a[k] = (x + y) % p
        a[k + 1] = (x - y) % p
    ctx.ops.mul += half * stages + n - 1 - stages
    ctx.ops.add += n * stages


def idwt(ctx: FieldCtx, a: list[int], n: int, omega: int, weight: int, offset: int = 0) -> None:
    """Inverse of :func:`dwt`: bit-reversed evaluations back to coefficients.

    Runs the inverted butterflies, whose twiddles start at weight**-u, in
    reversed stage order, then multiplies every slot by 1/n in one final pass
    (n pow2 operations).  Counts match :func:`dwt`'s, plus the square-and-
    multiply for omega**-1.  The first stage (u = 1) loads the caller's
    integers through ``int()``; sums are left unreduced (below n * p in
    magnitude from inputs in [0, p)), multiplied differences are reduced, and
    the 1/n pass reduces every slot, so every output is a Python int in [0, p).
    """
    vinv = ctx.inv(weight)
    _check_window(ctx, a, n, omega, offset)
    p = ctx.p
    if n == 1:
        a[offset] = int(a[offset]) % p
        return
    weighted = vinv != 1
    winv = ctx.pow_counted(omega, n - 1)  # omega**-1
    stages = n.bit_length() - 1
    half = n >> 1
    # u = 1: one butterfly per block, loads coerced to int
    wu = ctx.pow_counted(winv, 1)
    tw = ctx.pow_counted(vinv, 1) if weighted else 1
    r = 0
    for j in range(half):
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
        wu = ctx.pow_counted(winv, u) if i > 1 else 0  # i == 1: one block, no step
        tw = ctx.pow_counted(vinv, u) if weighted else 1
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
    inv_n = pow(n, p - 2, p)
    for k in range(offset, offset + n):
        a[k] = a[k] * inv_n % p
    ctx.ops.mul += half * stages + n - 1 - stages
    ctx.ops.add += n * stages
    ctx.ops.pow2 += n


def fft_in_place(ctx: FieldCtx, a: list[int], n: int, omega: int, offset: int = 0) -> None:
    """In place, a[offset + rev(j)] <- f(omega**j) for the window of length n."""
    dwt(ctx, a, n, omega, 1, offset)


def ifft_in_place(ctx: FieldCtx, a: list[int], n: int, omega: int, offset: int = 0) -> None:
    """Inverse of :func:`fft_in_place`, with one final 1/n pass (n pow2 operations)."""
    idwt(ctx, a, n, omega, 1, offset)


def scale_by_powers(ctx: FieldCtx, a: list[int], n: int, base: int, offset: int = 0) -> None:
    """a[offset + k] *= base**k for k < n, powers generated sequentially.

    2*(n - 1) counted multiplications; base**0 is applied as the identity.
    """
    p = ctx.p
    pw = 1
    for k in range(offset + 1, offset + n):
        pw = pw * base % p
        a[k] = int(a[k]) * pw % p
    if n > 1:
        ctx.ops.mul += 2 * (n - 1)
