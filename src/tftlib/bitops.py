"""Bit-reversal indexing and the exponent-bit survival criterion.

When an input of length n = n_1 + ... + n_s (strictly decreasing powers of two)
is split into negacyclic images modulo Phi_i = z^(n_i) + 1, a term z^e of image
j reaches image k only if e has a 1 bit at position log2(n_l) for every l
strictly between j and k.  The sign it carries into image k is
(-1)**bit(e, log2(n_k)), and the surviving magnitude is scaled by 2^(k-1-j).
The required bits sum to the survival mask n_(j+1) + ... + n_(k-1), so the
survivors are exactly the supersets of the mask below n_j: the contribution
pass of :mod:`tftlib.ctft` steps through them directly, and this module holds
the mask and the predicate it stands for.
"""

from __future__ import annotations


def bit_reverse(j: int, width: int) -> int:
    """Reverse the low `width` bits of j (j must fit in them)."""
    if j < 0 or j >> width:
        raise ValueError(f"index {j} does not fit in {width} bits")
    r = 0
    while j:
        width -= 1
        r |= (j & 1) << width
        j >>= 1
    return r


def bit(e: int, i: int) -> int:
    """The i-th binary digit of e >= 0."""
    return (e >> i) & 1


def survival_mask(plan, j: int, k: int) -> int:
    """Bits that must all be set in an exponent of block j for it to reach block k.

    The bits are n_(j+1), ..., n_(k-1): distinct powers of two, so their OR is
    their sum, tail(j) - tail(k-1).
    """
    return plan.tail(j) - plan.tail(k - 1)


def nonzero_criterion(e: int, j: int, k: int, plan) -> bool:
    """Does the term z^e of image j survive into image k?

    True iff bit(e, log2(n_l)) == 1 for every j < l < k.  This single predicate
    serves two reductions of the combined image built from blocks 1..k-1: taken
    modulo z^m - 1 (m a power of two at most n_(k-1)) the surviving term appears
    unsigned, while modulo Phi_k it carries the sign (-1)**bit(e, log2(n_k)).
    """
    if not 1 <= j < k <= plan.s:
        raise ValueError(f"need 1 <= j < k <= {plan.s}, got j={j}, k={k}")
    if e < 0 or e >= plan.size(j):
        raise ValueError(f"exponent {e} outside block {j} of size {plan.size(j)}")
    m = survival_mask(plan, j, k)
    return e & m == m

