"""Block decomposition engines and the cyclotomic truncated transform.

A length-n coefficient buffer is rewritten, in place, into the images
f_i = f mod Phi_i (Phi_i = z^(n_i) + 1 from the binary split of n), and each
image is then evaluated at the roots of its Phi_i by the kernel with twist 1.
Three engines produce the image state:

``new``     single buffer, O(1) scratch.  Phase 1 folds the buffer into the
            chain of remainders r_i = q_(i-1) mod Phi_i using subtractions
            only.  Phase 2 turns each r_i into f_i by Horner's rule over the
            earlier images: for j = 1..i-1 it doubles the block and adds the
            surviving terms of f_j, so the term of f_j lands with weight
            2^(i-1-j) and r_i with 2^(i-1).  The survivors are built, not
            searched for: runs of n_(i-1) exponents at the supersets of the
            survival mask, each folded as n_i-chunk pairs of sign +, -, or,
            from 16 pairs per run on, slot by slot in two strided sums over
            the whole run.  At most 3n additions, fewer than n
            multiplications by 2 or 1/2, no general multiplications.

``sergeev`` single buffer, O(1) scratch.  Walks the modulus chain z^K - 1
            downward, keeping the images found so far plus the leading
            coefficients of f mod (z^K - 1).  Each halving step rebuilds the
            coefficients that fell outside the stored prefix from the images,
            in one pass over their survivor runs, built as ``new`` builds
            them: while image 1 alone exists the runs land on their targets
            directly, strided or chunk by chunk; later each coefficient is
            summed by Horner's rule, the weights 2^(i-j) applied by doubling
            between images (none at the first split, before any image
            exists).

``mateer``  needs a full N-slot buffer.  Splits f mod (z^K - 1) into
            f mod (z^(K/2) - 1) and f mod (z^(K/2) + 1) by plain butterflies
            (twiddles all 1, so no multiplications), keeping each negacyclic
            image where it lands.

All three leave block i equal to f mod Phi_i in slots
[offset(i), offset(i) + n_i); the engines are interchangeable and share one
inverse.  They and the unbreak return residues congruent mod p, in [0, p)
when the inputs are: ``new`` and ``sergeev`` leave slots [tail(1), n_1) of
block 1 as passed, since reducing them would cost a full pass at 2^k + 1.

The engines and the unbreak add buffer values before they reduce them.  For
p > 2^62 a sum of two residues overflows an int64, so there they take Python
ints only and raise ValueError on any other element (numpy integers, say).
Below that, once n*p reaches 2^63 (where the strided sums of up to n/2
residues could overflow), they load such elements through int() first.
"""

from __future__ import annotations

from .bitops import survival_mask
from .plan import Plan
from .ring import FieldCtx
from .transform import dwt, idwt

ENGINES = ("new", "sergeev", "mateer")


def _require_length(a: list[int], size: int) -> None:
    if len(a) != size:
        raise ValueError(f"buffer length {len(a)} != {size}")


def _require_ints(ctx: FieldCtx, a: list[int], size: int) -> None:
    _require_length(a, size)
    # The contribution pass sums up to n/2 residues before it reduces, which
    # overflows an int64 once n*p reaches 2^63: below p = 2^62 non-int
    # elements are then loaded through int(), above it they are rejected.
    if (ctx.p > 1 << 62 or len(a) * ctx.p >> 63) and any(type(x) is not int for x in a):
        if ctx.p > 1 << 62:
            raise ValueError(f"modulus {ctx.p} > 2^62: sums of residues overflow an int64, "
                             "so the buffer must hold Python ints")
        for t in range(len(a)):
            a[t] = int(a[t])


def reduce_to_remainders(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """Phase 1: fold coefficients into r_i = q_(i-1) mod Phi_i, block by block.

    Dividing by z^(n_i) + 1 needs one subtraction per quotient coefficient, and
    the quotient is exactly the tail of the buffer, so the whole chain is
    fewer than n subtractions in place.  The last remainder is the final
    quotient itself, which already fits its block.
    """
    _require_length(a, plan.n)
    p = ctx.p
    adds = 0
    for i in range(1, plan.s):
        o = plan.offset(i)
        ni = plan.size(i)
        for t in range(o, o + plan.tail(i)):
            a[t] = (a[t] - a[t + ni]) % p
        adds += plan.tail(i)
    ctx.ops.add += adds


# chunk pairs per run from which _contribution_pass sums strided (measured)
_STRIDED_MIN_PAIRS = 16


def _contribution_pass(ctx: FieldCtx, a: list[int], plan: Plan, i: int, undo: bool) -> None:
    """Horner's rule over the images j < i, applied to block i.

    Forward, for j = 1..i-1: double block i, then add the survivors of image
    j; undo subtracts them for j = i-1..1, then halves.  A term z^e of image j
    lands in slot e mod n_i with sign (-1)**bit(e, log2(n_i)).  The survivors
    are the exponents holding every bit of the survival mask, so they come in
    runs of n_(i-1) starting at mask | y, for y over the subsets of the free
    high bits, stepped by y <- (y - free) & free.  A run start has no bits
    below log2(n_(i-1)) >= log2(n_i) + 1, so the n_i-chunks of a run alternate
    in sign +, -, +, ..., with the signs swapped by undo.

    A run is folded in one of two loop orders, chosen by the plan's shape
    alone.  With fewer than _STRIDED_MIN_PAIRS = 16 chunk pairs per run,
    n_(i-1) / (2 n_i), each chunk pair is folded in one statement per target
    slot.  With at least that many, each target slot t folds the whole run in
    one statement, ``sum(map(get, range(...)))`` over its + sources minus the
    same over its - sources (stride 2 n_i), so the loop over the sources runs
    in C.  At n = 2^k + 1 a chunk is a single slot and there are n_1 / 2
    pairs, each of which the chunk-pair order spends a Python loop on.  The
    crossover is measured, one pass over one run at n_i = 1..256 (shared
    2-core Xeon VM, Python 3.11): from 16 pairs the strided order was
    1.2-3.0x faster at every n_i; at 8 pairs it was 1.15-1.6x faster for
    n_i <= 4 but up to 12% slower for n_i >= 16; at 4 pairs and fewer it
    tied or lost.  Both orders read the sources through iterators, so
    scratch stays O(1), and add the same terms, so outputs and counts agree.
    """
    p = ctx.p
    oi = plan.offset(i)
    ni = plan.size(i)
    run = plan.size(i - 1)
    step = 2 * ni
    strided = run >= _STRIDED_MIN_PAIRS * step
    get = a.__getitem__
    half = ctx.half
    # source offsets, relative to the target slot, of the added and the
    # subtracted chunk of a pair
    plus, minus = (ni, 0) if undo else (0, ni)
    adds = 0
    for j in (range(i - 1, 0, -1) if undo else range(1, i)):
        if not undo:
            for t in range(oi, oi + ni):
                a[t] = 2 * a[t] % p
        mask = survival_mask(plan, j, i)
        free = (plan.size(j) - run) & ~mask
        y = 0
        while True:
            start = plan.offset(j) + (mask | y) - oi
            if strided:
                for t in range(oi, oi + ni):
                    s = t + start
                    a[t] = (a[t] + sum(map(get, range(s + plus, s + run, step)))
                            - sum(map(get, range(s + minus, s + run, step)))) % p
            else:
                for c in range(start, start + run, step):
                    cp = c + plus
                    cm = c + minus
                    for t in range(oi, oi + ni):
                        a[t] = (a[t] + a[t + cp] - a[t + cm]) % p
            adds += run
            y = (y - free) & free
            if not y:
                break
        if undo:
            for t in range(oi, oi + ni):
                a[t] = a[t] * half % p
    ctx.ops.add += adds
    ctx.ops.pow2 += (i - 1) * ni


def add_contribution(ctx: FieldCtx, a: list[int], plan: Plan, i: int) -> None:
    """With blocks 1..i-1 holding the images f_1..f_(i-1) and block i holding
    the remainder r_i, rewrite block i to the image f_i.  Additions and
    doublings only."""
    _require_length(a, plan.n)
    _contribution_pass(ctx, a, plan, i, undo=False)


def break_in_place(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """Rewrite coefficients into the images f_i = f mod Phi_i, in place.

    Folds the remainders, then builds f_2..f_s in order, each from the images
    before it.  At most 3n additions, sum (i-1)*n_i < n doublings, zero
    general multiplications, O(1) scratch.
    """
    _require_ints(ctx, a, plan.n)
    reduce_to_remainders(ctx, a, plan)
    for i in range(2, plan.s + 1):
        add_contribution(ctx, a, plan, i)


def break_counts(plan: Plan) -> tuple[int, int]:
    """The (add, pow2) that :func:`break_in_place` and :func:`unbreak_in_place`
    count over plan: phase 1's tail(i) subtractions, then for each block
    i >= 2 n_(i-1) additions per survivor run of every image j < i, and
    (i - 1) n_i doublings.

    Image j has one run per subset of the free bits (see
    :func:`_contribution_pass`): the 0 bits of n between log2(n_(i-1)) and
    log2(n_j), of which there are log2(n_j) - log2(n_(i-1)) - (i - 1 - j).
    So its runs add n_(i-1) 2^(that) = n_j 2^j / 2^(i-1), and block i adds
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


def unbreak_in_place(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """Exact inverse of :func:`break_in_place`, step by step in reverse."""
    _require_ints(ctx, a, plan.n)
    p = ctx.p
    for i in range(plan.s, 1, -1):
        _contribution_pass(ctx, a, plan, i, undo=True)
    adds = 0
    for i in range(plan.s - 1, 0, -1):
        o = plan.offset(i)
        ni = plan.size(i)
        for t in range(o, o + plan.tail(i)):
            a[t] = (a[t] + a[t + ni]) % p
        adds += plan.tail(i)
    ctx.ops.add += adds


def mateer_break(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """Split an N-slot buffer holding f mod (z^N - 1) into the images f_i.

    Repeated halving: each step is K/2 plain butterflies (x, y) -> (x+y, x-y),
    so no ring multiplications at all.  Image f_i is left in slots
    [n_i, 2*n_i); when n is a power of two the buffer itself is the image.
    """
    _require_ints(ctx, a, plan.N)
    p = ctx.p
    adds = 0
    k = plan.N
    n_last = plan.size(plan.s)
    while k > n_last:
        kh = k >> 1
        for t in range(kh):
            x = a[t]
            y = a[t + kh]
            a[t] = (x + y) % p
            a[t + kh] = (x - y) % p
        adds += k
        k = kh
    ctx.ops.add += adds


def _add_rebuilt(ctx: FieldCtx, a: list[int], plan: Plan, i: int, k: int,
                 lo: int, hi: int, sign: int, survivors: int) -> None:
    """Add sign * c_t to slot t for t in [lo, hi), where c_t is coefficient
    t - offset(i+1) + k/2 of the combined image of blocks 1..i mod (z^k - 1).

    c_t sums, with weight 2^(i-j), the terms z^e of each image j with e equal
    to t - offset(i+1) + k/2 mod k and holding every bit of the survival mask
    n_(j+1) + ... + n_i.  As k <= n_i divides every mask bit, they sit in
    slots t + k/2 - n_j + y, for y over the subsets of the free bits: the
    multiples of k below n_i (a run of n_i / k slots k apart) and the zero
    bits of n between n_i and n_j.  So they are enumerated, never tested, by
    y <- (y - free) & free as in :func:`_contribution_pass`.  Each coefficient
    has the same survivors / k of them, survivors = sum_j n_j >> (i - j)
    being the surviving terms of all i images.  From _STRIDED_MIN_PAIRS = 16
    slots per run on, the walk covers the run starts only and sums each run
    in C, ``sum(map(get, range(...)))``; below that it reads slot by slot.

    With one image (i = 1) there is a single run, and it lands on the targets
    directly, in one of the two loop orders of :func:`_contribution_pass`:
    strided per target, or for shorter runs chunk by chunk, one statement per
    target and run slot.  For a run of 16 slots the strided order took 0.51x
    to 0.65x the time of the chunk order at 8 to 512 targets (0.29x at one),
    and at 8 slots 0.85x to 1.03x (shared 2-core Xeon VM, Python 3.11).
    With more images each coefficient is built by Horner's rule over j, its
    accumulator doubled and reduced between images.  No int64 bound needs
    those reductions, which only keep Python ints short: image j gives
    (n_j >> (i - j)) / k terms, each doubled i - j times, so even unreduced
    the accumulator is at most (p - 1) sum_j n_j / k <= (p - 1) n / 2, as
    k >= 2 (reached when every input is p - 1), and a landing with one
    image stays below (n_1 / k + 1) p.  So numpy int64 elements, which
    :func:`_require_ints` keeps only while n p < 2^63, cannot overflow.
    Counts per coefficient, however the loops group the terms: one addition
    per term plus one into its slot, and i - 1 doublings.
    """
    p = ctx.p
    kh = k >> 1
    ni = plan.size(i)
    strided = ni >= _STRIDED_MIN_PAIRS * k
    get = a.__getitem__
    if i == 1:
        if strided:
            for t in range(lo, hi):
                s = t + kh - ni
                a[t] = (a[t] + sign * sum(map(get, range(s, s + ni, k)))) % p
        elif sign > 0:
            for c in range(kh - ni, kh, k):
                for t in range(lo, hi):
                    a[t] = (a[t] + a[t + c]) % p
        else:
            for c in range(kh - ni, kh, k):
                for t in range(lo, hi):
                    a[t] = (a[t] - a[t + c]) % p
    else:
        zeros = ~plan.n
        images = plan.sizes[:i]
        low = 0 if strided else ni - k
        for t in range(lo, hi):
            acc = 0
            for nj in images:
                free = (nj - ni) & zeros | low
                s = t + kh - nj
                acc *= 2
                y = 0
                if strided:
                    while True:
                        acc += sum(map(get, range(s + y, s + y + ni, k)))
                        y = (y - free) & free
                        if not y:
                            break
                else:
                    while True:
                        acc += a[s + y]
                        y = (y - free) & free
                        if not y:
                            break
                acc %= p
            a[t] = (a[t] + sign * acc) % p
        ctx.ops.pow2 += (i - 1) * (hi - lo)
    ctx.ops.add += (survivors // k + 1) * (hi - lo)


def sergeev_break(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """Walk the modulus chain downward, splitting off each image in place.

    Invariant entering each step with images 1..i extracted: the working
    region holds the first tail(i) coefficients of f mod (z^K - 1).  Stored
    coefficient pairs combine by one butterfly; the partner coefficients that
    were never stored are rebuilt from the extracted images, in one pass per
    step over their survivor runs (:func:`_add_rebuilt`).  Ends in exactly
    the image state of :func:`break_in_place`.
    """
    _require_ints(ctx, a, plan.n)
    p = ctx.p
    i = 0
    survivors = 0   # terms of images 1..i that hold their survival masks
    k = plan.N
    n_last = plan.size(plan.s)
    while k > n_last:
        kh = k >> 1
        o = plan.offset(i + 1)
        if i < plan.s and kh == plan.size(i + 1):
            nst = plan.tail(i + 1)
            for t in range(o, o + nst):
                x = a[t]
                y = a[t + kh]
                a[t] = (x - y) % p          # image i+1, coefficient t - o
                a[t + kh] = (x + y) % p     # f mod (z^kh - 1), coefficient t - o
            ctx.ops.add += 2 * nst
            # with no image extracted yet (i = 0) every rebuilt coefficient is 0
            if i:
                _add_rebuilt(ctx, a, plan, i, k, o + nst, o + kh, -1, survivors)
            i += 1
            survivors = survivors // 2 + kh
        else:
            _add_rebuilt(ctx, a, plan, i, k, o, o + plan.tail(i), 1, survivors)
        k = kh


def ctft_forward(ctx: FieldCtx, a: list[int], plan: Plan, engine: str = "new") -> None:
    """Evaluate the buffer at the roots of every Phi_i, in place.

    Block i ends up holding f(omega_i^(2*rev(j) + 1)) for j = 0..n_i-1 (the
    layout of :func:`tftlib.plan.eval_points_cyclotomic`).  The mateer engine
    allocates an N-slot working buffer through the context and loads it
    through ``int()``; the other two touch only the caller's n slots.
    """
    _require_length(a, plan.n)
    if engine == "new":
        break_in_place(ctx, a, plan)
    elif engine == "sergeev":
        sergeev_break(ctx, a, plan)
    elif engine == "mateer":
        buf = ctx.alloc(plan.N)
        for t in range(plan.n):
            buf[t] = int(a[t])
        mateer_break(ctx, buf, plan)
        if plan.s > 1:  # one block is its own image, which dwt loads through int()
            for i in range(1, plan.s + 1):
                o = plan.offset(i)
                ni = plan.size(i)
                for t in range(ni):
                    a[o + t] = buf[ni + t]
    else:
        raise ValueError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    # twist 1: evaluates at omega_i times the n_i-th roots, the roots of Phi_i
    for i in range(1, plan.s + 1):
        dwt(ctx, a, plan.size(i), 1, plan.offset(i))


def ctft_inverse(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """Recover the coefficients from the block evaluations, in place.

    Engine-agnostic: every engine produces the same image state, so one
    inverse (per-block inverse twisted transform, then the unbreak) serves
    them all.
    """
    _require_length(a, plan.n)
    for i in range(1, plan.s + 1):
        idwt(ctx, a, plan.size(i), 1, plan.offset(i))
    unbreak_in_place(ctx, a, plan)
