"""Size decomposition shared by every transform variant.

A length n is split along its binary expansion, n = n_1 + ... + n_s with
n_1 > ... > n_s powers of two.  Block i covers slots
[offset(i), offset(i) + n_i) of the working buffer and is associated with the
modulus Phi_i = z^(n_i) + 1, whose canonical root omega_i has order 2*n_i.
The plan holds no roots of its own: omega_i is ``roots[exp(i) + 1]`` on the
field's ladder (``FieldCtx.roots``), which the plan references.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .bitops import bit_reverse
from .ring import FieldCtx, find_root_of_unity


@dataclass(frozen=True)
class Plan:
    """Immutable binary split of one transform length over one field."""

    p: int
    n: int
    N: int              # least power of two >= n
    s: int              # number of blocks
    sizes: tuple[int, ...]      # n_i, strictly decreasing powers of two
    offsets: tuple[int, ...]    # block start slots
    tails: tuple[int, ...]      # tails[i] = n_(i+1) + ... + n_s for i = 0..s
    roots: tuple[int, ...]      # the field's ladder: roots[k] has order 2^k

    # 1-based block accessors, matching the mathematical indexing ----------

    def size(self, i: int) -> int:
        return self.sizes[i - 1]

    def exp(self, i: int) -> int:
        return self.sizes[i - 1].bit_length() - 1

    def offset(self, i: int) -> int:
        return self.offsets[i - 1]

    def tail(self, i: int) -> int:
        """n_i^* = n_(i+1) + ... + n_s; tail(0) == n, tail(s) == 0."""
        return self.tails[i]


def plan_new(n: int, ctx: FieldCtx) -> Plan:
    """Build the plan for length n over ctx; deterministic.

    Requires a root of order 2*n_1 in the field, i.e. the leading power of two
    of n at most 2**(two_adicity - 1): at n = 2^a the block transforms need a
    root of order 2^(a+1), where ``multiply_tft`` takes the padded FFT instead.
    """
    if n < 1:
        raise ValueError(f"transform length must be positive, got {n}")
    sizes = tuple(1 << b for b in range(n.bit_length() - 1, -1, -1) if n >> b & 1)
    # raises UnsupportedOrderError when 2*n_1 exceeds the available 2-power
    find_root_of_unity(ctx, 2 * sizes[0])
    tails = tuple(n - c for c in accumulate(sizes, initial=0))
    return Plan(
        p=ctx.p,
        n=n,
        N=1 << (n - 1).bit_length(),
        s=len(sizes),
        sizes=sizes,
        offsets=tuple(n - t for t in tails[:-1]),
        tails=tails,
        roots=ctx.roots,
    )


def eval_points_cyclotomic(plan: Plan) -> tuple[int, ...]:
    """Points of the block-structured transform, in output order.

    Block i contributes omega_i**(2*rev(j) + 1) for j = 0..n_i-1 (rev over
    log2(n_i) bits): the roots of Phi_i in the order the in-place transform of
    the block with twist 1 produces them.  As a set this equals
    {omega**rev(k) : n_i <= k < 2*n_i, 1 <= i <= s} with rev over log2(N) bits.
    """
    return tuple(pow(plan.roots[plan.exp(i) + 1], 2 * bit_reverse(j, plan.exp(i)) + 1, plan.p)
                 for i in range(1, plan.s + 1) for j in range(plan.size(i)))


def eval_points_bitreversed(plan: Plan) -> tuple[int, ...]:
    """The first n points of the bit-reversed DFT grid: omega**rev(l), l < n.

    omega = ``roots[log2(N)]``.  Slot l of block j is a root of
    Psi_j(z) = z^(n_j) - Omega_(j-1)^(n_j), Omega_j = omega_1 * ... * omega_j.
    """
    bits = plan.N.bit_length() - 1
    return tuple(pow(plan.roots[bits], bit_reverse(l, bits), plan.p) for l in range(plan.n))
