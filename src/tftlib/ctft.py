"""Block decomposition engines and the cyclotomic truncated transform.

A length-n coefficient buffer is rewritten, in place, into the images
f_i = f mod Phi_i (Phi_i = z^(n_i) + 1 from the binary split of n), and each
image is then evaluated at the roots of its Phi_i by the kernel with twist 1.
Three engines produce the image state:

``new``     single buffer, O(1) scratch.  In one pass per block i = 1..s,
            phase 1 folds the block into the remainder r_i = q_(i-1) mod
            Phi_i by subtractions, reading only blocks past i, and Horner's
            rule over the images j < i turns r_i into f_i, doubling the
            block and adding the surviving terms of f_j for j = 1..i-1
            (:func:`_contribution_pass`).  At most 3n additions, fewer than n
            multiplications by 2 or 1/2, no general multiplications.

``sergeev`` single buffer, O(1) scratch.  Walks the modulus chain z^K - 1
            downward, keeping the images found so far plus the leading
            coefficients of f mod (z^K - 1).  Each halving step rebuilds the
            coefficients that fell outside the stored prefix from the images,
            in one pass over their survivor runs (:func:`_add_rebuilt`).

``mateer``  needs a full N-slot buffer.  Splits f mod (z^K - 1) into
            f mod (z^(K/2) - 1) and f mod (z^(K/2) + 1) by plain butterflies
            (twiddles all 1, so no multiplications), keeping each negacyclic
            image where it lands.

All three leave block i equal to f mod Phi_i in slots
[offset(i), offset(i) + n_i); the engines are interchangeable and share one
inverse.  They and the unbreak return residues congruent mod p, in [0, p)
when the inputs are: ``new`` and ``sergeev`` leave slots [tail(1), n_1) of
block 1 as passed, since reducing them would cost a full pass at 2^k + 1.

The engines and the unbreak add buffer values before they reduce them.  Once
n*p reaches 2^63, where the strided sums of up to n/2 residues (or, for
p > 2^62, a sum of two) could overflow an int64, they load every element
that is not a Python int (numpy integers, say) through ``operator.index``
first.  Below that they take field elements as they are, unchecked; in
:func:`ctft_forward` a non-integral element then reaches the block kernels,
whose loads reject it.

:func:`break_counts` gives the ``new`` break's (add, pow2) in closed form,
which the unbreak shares and the bridge tallies a row product from; the
break counts itself run by run, against which the tests check it.
"""

from __future__ import annotations

from operator import index

from .bitops import survival_mask
from .plan import Plan
from .ring import FieldCtx
from .transform import dwt, idwt

ENGINES = ("new", "sergeev", "mateer")


def _require_length(a: list[int], size: int) -> None:
    if len(a) != size:
        raise ValueError(f"buffer length {len(a)} != {size}")


def _require_plan(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    # plan_new checked every root over plan.p, so no transform raises after it writes
    if plan.p != ctx.p:
        raise ValueError(f"plan over {plan.p} used with a field over {ctx.p}")
    _require_length(a, plan.n)


def _require_ints(ctx: FieldCtx, a: list[int], size: int) -> None:
    _require_length(a, size)
    # the passes' sums stay below n*p (_contribution_pass, _add_rebuilt): from
    # n*p >= 2^63 on, non-int elements are loaded through index()
    if len(a) * ctx.p >> 63 and any(type(x) is not int for x in a):
        for t in range(len(a)):
            a[t] = index(a[t])


def _fold(ctx: FieldCtx, a: list[int], plan: Plan, i: int, undo: bool) -> None:
    """Phase 1 at block i: the tail(i) slots past it come off its first tail(i) (undo: on)."""
    p = ctx.p
    o, ni, tail = plan.offsets[i - 1], plan.sizes[i - 1], plan.tails[i]
    for t in range(o, o + tail):
        a[t] = (a[t] + a[t + ni] if undo else a[t] - a[t + ni]) % p
    ctx.ops.add += tail


def reduce_to_remainders(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """Phase 1: fold coefficients into r_i = q_(i-1) mod Phi_i, block by block.

    Dividing by z^(n_i) + 1 needs one subtraction per quotient coefficient, and
    the quotient is exactly the tail of the buffer, so the whole chain is
    fewer than n subtractions in place.  The last remainder is the final
    quotient itself, which already fits its block.
    """
    _require_length(a, plan.n)
    for i in range(1, plan.s):
        _fold(ctx, a, plan, i, False)


# chunk pairs per run from which _contribution_pass sums strided (measured)
_STRIDED_MIN_PAIRS = 16


def _contribution_pass(ctx: FieldCtx, a: list[int], plan: Plan, i: int, undo: bool,
                       fold: bool) -> None:
    """Horner's rule over the images j < i, applied to block i.

    Forward, for j = 1..i-1: double block i, then add the survivors of image
    j; undo subtracts them for j = i-1..1, then halves.  A term z^e of image j
    lands in slot e mod n_i with sign (-1)**bit(e, log2(n_i)).  The survivors
    are the exponents holding every bit of the survival mask, so they come in
    runs of n_(i-1) starting at mask | y, for y over the subsets of the free
    high bits, stepped by y <- (y - free) & free.  A run start has no bits
    below log2(n_(i-1)) >= log2(n_i) + 1, so the n_i-chunks of a run alternate
    in sign +, -, +, ..., with the signs swapped by undo.

    No loop of its own doubles, halves or folds: the doubling rides on image
    j's first statement, the halving on its last, and with ``fold`` phase 1
    at block i, which reads only blocks past i, on image 1's: forward
    2 (a[t] - a[t + n_i]) for t below offset(i) + tail(i), undo the halved
    value plus a[t + n_i].  The halving takes no product: v in [0, p) halves
    to v >> 1, or (v + p) >> 1 when odd.

    With fewer than _STRIDED_MIN_PAIRS = 16 chunk pairs per run,
    n_(i-1) / (2 n_i), each pair is folded in one statement per target slot;
    from 16 on (at 2^k + 1, n_1 / 2 pairs of one slot), each target slot folds
    the whole run in one statement, its + sources' ``sum(map(get, range(...)))``
    minus its - sources', so the loop over the sources runs in C.  On one run
    at n_i = 1..256 (shared 2-core Xeon VM, Python 3.11) strided was 1.2-3.0x
    faster from 16 pairs; at 8 pairs 1.15-1.6x faster for n_i <= 4 but up to
    12% slower from n_i = 16; at 4 and fewer it tied or lost.  Both orders
    read through iterators (O(1) scratch) and add the same terms.

    With every input in [0, p), so is every slot a statement reads: an input
    or a value some statement reduced.  A statement folding m pairs then
    stays within (m + 2) p in magnitude, the doubling and the fold included:
    m = 1 in chunk order, where n >= 3, and strided m = n_(i-1) / (2 n_i)
    with n >= 2m + 1.  So it stays below n p, and numpy int64 elements, which
    :func:`_require_ints` keeps only while n p < 2^63, cannot overflow.
    """
    p = ctx.p
    offsets, sizes = plan.offsets, plan.sizes  # locals: a named tuple's fields read slowly
    oi = offsets[i - 1]
    ni = sizes[i - 1]
    run = sizes[i - 2]
    step = 2 * ni
    strided = run >= _STRIDED_MIN_PAIRS * step
    get = a.__getitem__
    # source offsets of a pair's added and subtracted chunk, from the target slot
    plus, minus = (ni, 0) if undo else (0, ni)
    adds = tail = plan.tails[i] if fold else 0
    for j in (range(i - 1, 0, -1) if undo else range(1, i)):
        mask = survival_mask(plan, j, i)
        free = (sizes[j - 1] - run) & ~mask
        first = offsets[j - 1] - oi
        # the chunk of the image's first (last) statement, and its folding slots
        edge = first + mask + (free + run - step if undo else 0)
        cut = oi + tail if j == 1 else oi
        y = 0
        while True:
            start = first + (mask | y)
            if strided:
                for t in range(oi, oi + ni):
                    s = t + start
                    v = (sum(map(get, range(s + plus, s + run, step)))
                         - sum(map(get, range(s + minus, s + run, step))))
                    if not start <= edge < start + run:
                        a[t] = (a[t] + v) % p
                    elif undo:
                        v = (a[t] + v) % p
                        v = (v + p) >> 1 if v & 1 else v >> 1
                        a[t] = (v + a[t + ni]) % p if t < cut else v
                    else:
                        a[t] = (2 * (a[t] - a[t + ni] if t < cut else a[t]) + v) % p
            else:
                for c in range(start, start + run, step):
                    cp, cm = c + plus, c + minus
                    if c != edge:
                        for t in range(oi, oi + ni):
                            a[t] = (a[t] + a[t + cp] - a[t + cm]) % p
                    elif undo:
                        for t in range(oi, oi + ni):
                            v = (a[t] + a[t + cp] - a[t + cm]) % p
                            v = (v + p) >> 1 if v & 1 else v >> 1
                            a[t] = (v + a[t + ni]) % p if t < cut else v
                    else:
                        for t in range(oi, oi + ni):
                            a[t] = (2 * (a[t] - a[t + ni] if t < cut else a[t])
                                    + a[t + cp] - a[t + cm]) % p
            adds += run
            y = (y - free) & free
            if not y:
                break
    ctx.ops.add += adds
    ctx.ops.pow2 += (i - 1) * ni


def add_contribution(ctx: FieldCtx, a: list[int], plan: Plan, i: int) -> None:
    """With blocks 1..i-1 holding the images f_1..f_(i-1) and block i holding
    the remainder r_i, rewrite block i to the image f_i, for 2 <= i <= s.
    Additions and doublings only."""
    if not 2 <= i <= plan.s:
        raise ValueError(f"need 2 <= i <= {plan.s}, got i={i}")
    _require_length(a, plan.n)
    _contribution_pass(ctx, a, plan, i, undo=False, fold=False)


def break_in_place(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """Rewrite coefficients into the images f_i = f mod Phi_i, in place.

    Block by block: folds block i's remainder and builds f_i from the images
    before it, in one pass.  At most 3n additions, sum (i-1)*n_i < n
    doublings, zero general multiplications, O(1) scratch.
    """
    _require_ints(ctx, a, plan.n)
    _fold(ctx, a, plan, 1, False)
    for i in range(2, plan.s + 1):
        _contribution_pass(ctx, a, plan, i, undo=False, fold=True)


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
    """Exact inverse of :func:`break_in_place`, block by block in reverse."""
    _require_ints(ctx, a, plan.n)
    for i in range(plan.s, 1, -1):
        _contribution_pass(ctx, a, plan, i, undo=True, fold=True)
    _fold(ctx, a, plan, 1, True)


def mateer_break(ctx: FieldCtx, a: list[int], plan: Plan) -> None:
    """Split an N-slot buffer holding f mod (z^N - 1) into the images f_i.

    Repeated halving: each step is K/2 plain butterflies (x, y) -> (x+y, x-y),
    so no ring multiplications at all.  Image f_i is left in slots
    [n_i, 2*n_i); when n is a power of two the buffer itself is the image.
    """
    _require_ints(ctx, a, plan.N)
    p = ctx.p
    k = plan.N
    while k > plan.size(plan.s):
        kh = k >> 1
        for t in range(kh):
            x = a[t]
            y = a[t + kh]
            a[t] = (x + y) % p
            a[t + kh] = (x - y) % p
        k = kh
    # the halvings add k for k = N, N/2, ..., 2 n_s
    ctx.ops.add += 2 * (plan.N - plan.size(plan.s))


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
    and at 8 slots 0.85x to 1.03x (shared 2-core Xeon VM, Python 3.11).  A
    step with one target (every step at 2^k + 1) takes it from 4 slots on:
    1.4 -> 1.0 us at 4 slots, 2.7 -> 1.2 us at 8, but 0.8 -> 0.9 us at 2.
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
        if strided or hi - lo == 1 and ni >= 4 * k:
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
        if kh == plan.size(i + 1):
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
    layout of :func:`tftlib.plan.eval_points_cyclotomic`).  With two blocks
    or more the mateer engine allocates an N-slot working buffer through the
    context and loads it through ``operator.index``; the other two, and
    mateer at one block, touch only the caller's n slots.  A plan over
    another field, a buffer not of n slots or an unknown engine raises
    ValueError before any write; a non-integral element raises TypeError
    and leaves the buffer unspecified.
    """
    _require_plan(ctx, a, plan)
    if engine == "new":
        break_in_place(ctx, a, plan)
    elif engine == "sergeev":
        sergeev_break(ctx, a, plan)
    elif engine == "mateer":
        if plan.s > 1:  # one block is its own image, which dwt loads
            buf = ctx.alloc(plan.N)
            for t in range(plan.n):
                buf[t] = index(a[t])
            mateer_break(ctx, buf, plan)
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
    them all.  Rejects what :func:`ctft_forward` rejects, before any write.
    """
    _require_plan(ctx, a, plan)
    for i in range(1, plan.s + 1):
        idwt(ctx, a, plan.size(i), 1, plan.offset(i))
    unbreak_in_place(ctx, a, plan)
