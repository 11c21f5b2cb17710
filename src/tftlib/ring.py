"""Prime-field arithmetic with power-of-two roots of unity and operation counting.

Every algorithmic ring operation performed by the transform code is tallied on
the owning :class:`FieldCtx`: general multiplications (``mul``), multiplications
by 2^k, 2^-k or 1/N (``pow2``, the "shifted" operations), and additions,
subtractions and negations (``add``).  Scalings by the constants +1 and -1 are
free: code applies them as identity or as a counted subtraction, never as a
multiplication.

Setup work is deliberately uncounted: building the context's ladder of
canonical roots ``roots[k] = generator^((p-1)/2^k)`` and its inverses (one
root per power of two the field supports, log-sized), deriving the bridge's
constant Omega_s from it, or inverting a fixed constant uses plain modular
arithmetic.  Twiddle factors generated *inside* a transform's loops are part
of the algorithm and are counted.
"""

from __future__ import annotations

DEFAULT_MODULUS = 2013265921  # 15 * 2**27 + 1, two-adicity 27


class UnsupportedOrderError(ValueError):
    """The requested root order does not divide the 2-power part of p - 1."""


class OpCount:
    """Tallies of counted ring operations, equal when all three are.

    mul   -- general ring multiplications
    pow2  -- multiplications by 2^k, 2^-k or 1/N
    add   -- additions, subtractions and negations

    (A plain class: a dataclass would cost about 0.5 ms of every ``import
    tftlib``.)
    """

    __slots__ = ("mul", "pow2", "add")

    def __init__(self, mul: int = 0, pow2: int = 0, add: int = 0):
        self.mul, self.pow2, self.add = mul, pow2, add

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.mul, self.pow2, self.add) == (other.mul, other.pow2, other.add)

    def __repr__(self) -> str:
        return f"OpCount(mul={self.mul}, pow2={self.pow2}, add={self.add})"


class CountSession:
    """Counter deltas over a block, live inside it and frozen at exit: each of
    (mul, pow2, add, alloc) is the end snapshot, or the counters now, less the start.

    >>> from tftlib import fft_in_place
    >>> ctx = FieldCtx(5)
    >>> with ctx.count_session() as sess:
    ...     fft_in_place(ctx, [3, 4], 2)
    >>> (sess.mul, sess.add)
    (1, 2)
    """

    def __init__(self, ctx: "FieldCtx"):
        self._ctx = ctx
        self._start = self._now()
        self._end: tuple[int, int, int, int] | None = None

    def _now(self) -> tuple[int, int, int, int]:
        ops = self._ctx.ops
        return ops.mul, ops.pow2, ops.add, self._ctx.scratch_allocated

    def __enter__(self) -> "CountSession":
        return self

    def __exit__(self, *exc) -> bool:
        self._end = self._now()
        return False

    def _figures(self) -> tuple[int, ...]:
        return tuple(e - s for e, s in zip(self._end or self._now(), self._start))

    @property
    def ops(self) -> OpCount:
        return OpCount(*self._figures()[:3])

    mul = property(lambda self: self._figures()[0])
    pow2 = property(lambda self: self._figures()[1])
    add = property(lambda self: self._figures()[2])

    @property
    def alloc(self) -> int:
        """Scratch elements taken in this session: what :meth:`FieldCtx.alloc`
        hands out, plus the numpy arrays a row product adds to
        ``scratch_allocated`` (its tables when built, its per-product rows)."""
        return self._figures()[3]


# The first 13 primes are a deterministic Miller-Rabin witness set for every
# n below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to every base of _MR_BASES, for odd n > 41."""
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    if n < _MR_LIMIT:
        return _strong_probable_prime(n)
    from sympy import isprime  # only reached for very large moduli

    return bool(isprime(n))


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, small factors by trial division."""
    factors = []
    m = n
    for d in range(2, 1_000_000):
        if d * d > m:
            break
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
    if m > 1:
        if _is_prime(m):
            factors.append(m)
        else:
            from sympy import factorint

            factors.extend(q for q in factorint(m) if q not in factors)
    return factors


def _smallest_generator(p: int) -> int:
    """Smallest multiplicative generator of F_p*; deterministic for a fixed p."""
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ArithmeticError(f"no generator found modulo {p}")  # unreachable for prime p


def _ladder(top: int, k: int, p: int) -> tuple[int, ...]:
    """(top^(2^k), ..., top^2, top): the successive squares of top, reversed."""
    ladder = [top]
    for _ in range(k):
        ladder.append(ladder[-1] * ladder[-1] % p)
    return tuple(reversed(ladder))


class FieldCtx:
    """The field Z/pZ for an odd prime p, with its counters.

    Immutable after construction except for the counters and what products
    build once and then only read: the product plans, one per transform
    length (``product_plans``, by :mod:`tftlib.bridge`), the row tables, one
    per padded length (``row_tables``), and the rows' base-case and level
    matrices, one set per field (``row_dft``, ``row_ints``, ``row_odd``).
    None of these is an API.  A context may be shared across threads only
    if each thread runs its own count session and transforms its own
    buffers; the library itself is single-threaded.
    """

    def __init__(self, p: int = DEFAULT_MODULUS):
        if p == 2 or not _is_prime(p):
            raise ValueError(f"modulus {p} is not an odd prime")
        self.p = p
        self.two_adicity = ((p - 1) & -(p - 1)).bit_length() - 1
        self.generator = _smallest_generator(p)
        self.half = (p + 1) // 2  # 2**-1 mod p
        # roots[k] has order 2^k; each is the square of the next
        top = pow(self.generator, (p - 1) >> self.two_adicity, p)
        self.roots = _ladder(top, self.two_adicity, p)
        self.inv_roots = _ladder(pow(top, p - 2, p), self.two_adicity, p)
        self.ops = OpCount()
        self.scratch_allocated = 0
        self.product_plans = {}  # by transform length, built by tftlib.bridge
        self.row_tables = {}  # by padded length, built by tftlib._rows
        self.row_dft = None  # the rows' base-case matrices, built by tftlib._rows
        self.row_ints = None  # the rows' int64 level matrices, likewise
        self.row_odd = None  # the rows' odd-twist matrices, likewise

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p})"

    # uncounted helpers -----------------------------------------------------

    def inv(self, a: int) -> int:
        """Multiplicative inverse; a setup operation, not counted."""
        if a % self.p == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(a, self.p - 2, self.p)

    def count_session(self) -> CountSession:
        return CountSession(self)

    def alloc(self, size: int) -> list[int]:
        """Allocate a tracked buffer of field elements (the space-accounting hook)."""
        self.scratch_allocated += size
        return [0] * size


def find_root_of_unity(ctx: FieldCtx, order: int) -> int:
    """Principal root of unity of the exact power-of-two order: ``ctx.roots[log2(order)]``.

    The returned w = generator**((p-1)/order) satisfies w**order == 1 and
    w**(order//2) == -1, which over a prime field makes it both primitive and
    principal.
    """
    if order < 1 or order & (order - 1):
        raise ValueError(f"order {order} is not a power of two")
    k = order.bit_length() - 1
    if k > ctx.two_adicity:
        raise UnsupportedOrderError(
            f"no root of order {order}: 2-adicity of {ctx.p} - 1 is {ctx.two_adicity}")
    return ctx.roots[k]
