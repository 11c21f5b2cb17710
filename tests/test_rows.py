"""Products in int64 rows, checked against the list transforms.

Over p < 2^31, every product of length n >= ``bridge._ROWS_MIN`` (15, the
measured crossover) computes in int64 rows, on every path.  Each product
here is compared with a reference composed from the list functions: the
forward transforms of both operands, a pointwise product and the inverse
transform, on the bit-reversed path between two Omega_s scalings.  The
outputs must be equal, and so must the (mul, pow2, add) each adds, the
reference's pointwise product counting one multiplication per slot as the
list path does.  Above 2^31 the list product runs, and counts what the rows
tally.  Every product here runs at transform length exactly deg(fg) + 1
(the ``exact_length`` fixture), so the many-block lengths run as they are;
``tests/test_bridge.py`` checks the public product, which runs at
``bridge._transform_length``.
"""

import os
import random
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import tftlib
from tftlib import _rows
from tftlib import (FieldCtx, brtft_forward, brtft_inverse, ctft_forward,
                    ctft_inverse, fft_in_place, ifft_in_place,
                    multiply_full_fft, multiply_tft, oracle, plan_new,
                    unbreak_in_place)
from tftlib.bitops import bit_reverse
from tftlib.bridge import _ROWS_MIN, _grid_scale
from tftlib.transform import dwt, idwt, scale_by_powers

PRIMES = (2013265921, 998244353, 2130706433)
PATHS = ("padded", "cyclotomic", "bitreversed")
# long runs of 0 bits (folds of many chunks) next to adjacent 1 bits (folds of one)
SHAPES = {2**12 + 2**5 + 1, 2**11 + 2**10 + 2**3 + 1, 0b1001001001, 0b110000000011,
          0b101010101011}
# _ROWS_MIN - 2 to _ROWS_MIN + 1: the crossover, its earlier place 14 and
# the lengths about them; 28 to 32: the lengths about the rows' earlier
# thresholds, 29 and 31, and 2^5; 448 and 1537: a step of adjacent blocks
LENGTHS = sorted({_ROWS_MIN - 2, _ROWS_MIN - 1, _ROWS_MIN, _ROWS_MIN + 1, 28, 29, 30, 31, 32, 62,
                  448, 1365, 1537, 5461}
                 | {2**k + d for k in range(6, 13) for d in (-1, 0, 1)}
                 | SHAPES | set(random.Random(10).sample(range(63, 6001), 10)))
# 2^k - 1 (k blocks, no fold), 2^k + 1 (block 1 folds to two rows) and a
# second block whose carry folds to two rows, up to the lengths above; 384,
# 320 and 448 (M_s = 1, 2, 3 in tftlib._rows._unbreak) halve their carries
# unreduced, and 288 (M_s = 4) reduces them first
HEADROOM = sorted({2**k + d for k in range(5, 13) for d in (-1, 1)}
                  | {2**k + 2**(k - 4) + 1 for k in range(5, 13)} | {288, 320, 384, 448})
# the levels of tftlib._rows._twiddles, every block of 128 slots or more:
# int64 alone at 127 to 129 (R = 2), 255 to 257 (R = 4), 385 = 256 + 128 +
# 1, 511 to 513 (R = 8) and 897 = 512 + 256 + 128 + 1; float64
# at 1282 = 1024 + 256 + 2 and 1537 = 1024 + 512 + 1 (R = 4 and 8 after a
# float level), 2049, 4095 and 4096 (R = 64); the odd twist at 4097 and
# 4609 = 4096 + 512 + 1; two steps at 8193, and a first pass beside a
# block's second at 8321 = 8192 + 128 + 1 and 12289 = 8192 + 4096 + 1
LEVELS = [127, 128, 129, 255, 256, 257, 385, 511, 512, 513, 897, 1282, 1537, 2049, 4095, 4096,
          4097, 4609, 8193, 8321, 12289]
# bound stated in the tftlib._rows docstring, in elements per padded slot:
# the tables of N, 2N (N from N = 64 up), the 2m work buffer, m <= N, and on
# the bit-reversed path the 2m power rows; a first product at every exact n
# in [_ROWS_MIN, 4200] reports at most 4.000 (n = 33), 4.000 (n = 64) and
# 5.999 (n = 4095)
ALLOC_PER_SLOT = {"padded": 4.0, "cyclotomic": 4.0, "bitreversed": 6.0}

pytestmark = pytest.mark.usefixtures("exact_length")


@pytest.fixture(scope="module", params=PRIMES)
def field(request):
    return FieldCtx(request.param)


def _operands(p: int, n: int, seed: int) -> tuple[list[int], list[int]]:
    """Two polynomials, nonzero leading coefficients, whose product has length n."""
    rng = random.Random(seed)
    la = rng.randint(1, n)
    f = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
    g = [rng.randrange(p) for _ in range(n - la)] + [rng.randrange(1, p)]
    return f, g


def _product(ctx, f, g, path):
    if path == "padded":
        return multiply_full_fft(ctx, f, g)
    return multiply_tft(ctx, f, g, path)


def _reference(ctx, f, g, path):
    """The product by the list transforms, and the counts it adds.

    A bit-reversed product is the cyclotomic one between two Omega_s
    scalings, and its counts are that composition's.  Its output is also
    checked against the one of the bit-reversed transforms, which evaluate
    on the grid itself.
    """
    p = ctx.p
    n = len(f) + len(g) - 1
    scaled = path == "bitreversed" and n & (n - 1) != 0
    if path == "padded" or n & (n - 1) == 0:
        size = 1 << (n - 1).bit_length()
        forward = lambda a: fft_in_place(ctx, a, size)
        inverse = lambda a: ifft_in_place(ctx, a, size)
    else:
        size = n
        plan = plan_new(n, ctx)

        def forward(a):
            if scaled:
                scale_by_powers(ctx, a, n, _grid_scale(plan, 1))
            ctft_forward(ctx, a, plan)

        def inverse(a):
            ctft_inverse(ctx, a, plan)
            if scaled:
                scale_by_powers(ctx, a, n, _grid_scale(plan, -1))
    fa = f + [0] * (size - len(f))
    ga = g + [0] * (size - len(g))
    with ctx.count_session() as sess:
        forward(fa)
        forward(ga)
        h = [x * y % p for x, y in zip(fa, ga)]
        inverse(h)
    if scaled:  # the grid transforms anchor the product
        fa, ga = f + [0] * (n - len(f)), g + [0] * (n - len(g))
        brtft_forward(ctx, fa, plan)
        brtft_forward(ctx, ga, plan)
        grid = [x * y % p for x, y in zip(fa, ga)]
        brtft_inverse(ctx, grid, plan)
        assert grid == h
    return h[:n], (sess.mul + size, sess.pow2, sess.add)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", LENGTHS)
def test_rows_equal_the_list_composition(field, n, path):
    f, g = _operands(field.p, n, n)
    want, counts = _reference(field, f, g, path)
    with field.count_session() as sess:
        h = _product(field, f, g, path)
    assert h == want
    assert all(type(x) is int for x in h)
    assert (sess.mul, sess.pow2, sess.add) == counts


# elements struct cannot pack as int64, and the bools, which it packs as 1 and 0
WIDE = [2**70, -2**70, 2**63, np.uint64(2**64 - 1), True, False]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", [_ROWS_MIN - 1, _ROWS_MIN, 255, 257, 1025])
def test_rows_load_elements_outside_int64(field, n, path):
    # tftlib._rows.load packs each operand into its row; an element outside
    # int64 sends that operand alone through operator.index, reduced, while
    # the other one still packs.  The list path, below the crossover, loads
    # every element through operator.index.  At the first, middle and last
    # slot of either operand, and in both operands at once, the product must
    # be that of the reduced operands.  (A False in the last slot only
    # lowers the degree.)
    p = field.p
    f, g = _operands(p, n, n)
    for x in WIDE:
        cases = []
        for which, op in enumerate((f, g)):
            for pos in (0, len(op) // 2, len(op) - 1):
                pair = [list(f), list(g)]
                pair[which][pos] = x
                cases.append(pair)
        cases.append([f[:-1] + [x], [x] + g[1:]])
        for pair in cases:
            reduced = [[int(y) % p for y in op] for op in pair]
            assert _product(field, *pair, path) == _product(field, *reduced, path), (x, n)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", HEADROOM)
def test_largest_residues_stay_within_int64(field, n, path):
    # The rows reduce the break's and the unbreak's sums only at the end.
    # Operands of p - 1 make every sum the break takes its largest; the
    # product of [1] and the polynomial whose images are all p - 1 does
    # the same for every carry of the unbreak.  Those images cancel in the
    # last block's C_hi - C_lo, so a second polynomial has images p - 1 in
    # the upper half of every 2 n_s slots and in the last block, 0 in the
    # rest: with two blocks that drives 2 r_2 to its largest, (M_2 + 1)(p -
    # 1), which the halving multiplies.
    p = field.p
    plan = plan_new(n, field)
    last = plan.sizes[-1]
    top = [p - 1] * n
    high = [p - 1 if j >= n - last or j % (2 * last) >= last else 0 for j in range(n)]
    for images in (top, high):
        unbreak_in_place(field, images, plan)
        assert images[-1] != 0  # the product has length n
    for f, g in (([p - 1] * (n // 2 + 1), [p - 1] * (n - n // 2)), ([1], top), ([1], high)):
        want, counts = _reference(field, f, g, path)
        with field.count_session() as sess, warnings.catch_warnings():
            warnings.simplefilter("error")
            h = _product(field, f, g, path)
        assert h == want
        assert (sess.mul, sess.pow2, sess.add) == counts


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", LEVELS)
def test_levels_equal_the_list_composition(field, n, path):
    # Random operands over every field, and over the largest prime operands
    # of p - 1, which make the levels' inputs large.
    p = field.p
    cases = [_operands(p, n, n)]
    if p == max(PRIMES):
        cases.append(([p - 1] * (n // 2 + 1), [p - 1] * (n - n // 2)))
    for f, g in cases:
        want, counts = _reference(field, f, g, path)
        with field.count_session() as sess:
            h = _product(field, f, g, path)
        assert h == want
        assert (sess.mul, sess.pow2, sess.add) == counts


def _at(coefficients, x: int, p: int) -> int:
    value = 0
    for c in reversed(coefficients):
        value = (value * x + c) % p
    return value


@pytest.mark.parametrize("n", [8193, 12289, 2**18 + 1])
def test_chained_passes_agree_at_random_points(field, n):
    # Lengths past the list composition's reach in time: 8193 (a padded
    # block of 2^14 slots, two steps, and 8192 + 1 at twist 1), 12289 =
    # 8192 + 4096 + 1 (a block's second step beside a first pass) and 2^18
    # + 1 (a padded block of 2^19 slots, three steps, and 2^18 + 1 at twist
    # 1, the odd twist's first pass over elements of 4096 slots).  Every
    # path must give the same product, of length n, equal to f(x) g(x) at
    # random points x (Schwartz-Zippel: a wrong product, of degree below
    # 2n, passes one point with probability below 2n / p).
    p = field.p
    f, g = _operands(p, n, n)
    products = [_product(field, f, g, path) for path in PATHS]
    assert len(products[0]) == n
    assert products[1] == products[0] and products[2] == products[0]
    rng = random.Random(n)
    for x in [rng.randrange(p) for _ in range(3)]:
        assert _at(products[0], x, p) == _at(f, x, p) * _at(g, x, p) % p, x


@pytest.mark.parametrize("sizes, twist, levels", [
    ((512,), 0, [(64, [], [512])]), ((256,), 0, [(64, [], [256])]),
    ((4096,), 0, [(64, [], [4096])]), ((8192,), 0, [(4096, [], [8192]), (64, [8192], [])]),
    ((256, 1), 1, [(64, [], [256])]), ((512, 1), 1, [(64, [], [512])]),
    ((2048, 1), 1, [(64, [], [2048])]), ((4096, 2), 1, [(64, [], [4096])]),
    ((1024, 256, 2), 1, [(64, [], [1024, 256])]), ((1024, 512, 1), 1, [(64, [], [1024, 512])]),
    ((4096, 512, 1), 1, [(64, [], [4096, 512])]), ((128,), 0, [(64, [], [128])]),
    ((128, 1), 1, [(64, [], [128])]), ((512, 256, 128, 1), 1, [(64, [], [512, 256, 128])]),
    ((64, 32), 1, []),
    ((8192, 4096, 1), 1, [(4096, [], [8192]), (64, [8192], [4096])]),
    ((8192, 128, 1), 1, [(4096, [], [8192]), (64, [8192], [128])]),
    ((16384, 8192, 2048, 1), 1, [(4096, [], [16384, 8192]), (64, [16384, 8192], [2048])]),
    ((8192, 1), 1, [(4096, [], [8192]), (64, [8192], [])]),
    ((2**18, 2**12, 1), 1, [(4096, [], [2**18]), (64, [2**18], [2**12])]),
    ((2**19,), 0, [(2**18, [], [2**19]), (4096, [2**19], []), (64, [2**19], [])]),
    ((2**19, 2**13, 1), 1, [(2**18, [], [2**19]), (4096, [2**19], [2**13]),
                           (64, [2**19, 2**13], [])])])
def test_levels_are_the_blocks_the_matrix_holds(sizes, twist, levels):
    # A block of 64R slots, R = R1 64^(L-1) with 2 <= R1 <= 64, is a chain
    # of L passes, run in steps by element width w, coarse to fine
    # (``levels``: per step w, the blocks that turn and the blocks whose
    # first pass it is).  A step holds the blocks of at least 2w slots, a
    # prefix; those of more than 64w slots, a prefix too, turn and then
    # take one 64-point level at twist 0 over all their groups, the base
    # case's matrix.  A first pass takes element r to element c by
    # omega_(2 R1)**(r (t + 2 rev(c))), rev over log2(R1) bits, and its
    # inverse part takes c back to r by the inverse power.  A turn gives
    # group g of G = n_i / 64w groups row tG + g of the twist rows, whose
    # lambda, entry 22, is the 64th root of the group's point,
    # omega_(128G)**(t + 2 rev(g)), and the turns before the base case
    # give each 64-slot chunk its row.  The parts are int64, balanced, when
    # the first block has at most 8 chunks (over the default field none of
    # them could sum outside int64), and float64 otherwise, stacked: the
    # entry for input r in column 2r and 2^16 times it mod p in column 2r +
    # 1, both balanced; R1 = 64 at twist 1 reads the odd twist's matrices.
    ctx = FieldCtx()
    p = ctx.p
    N = 1 << sum(sizes).bit_length() if twist else sizes[0]
    work = np.empty(2 * N, np.int64)
    twists = _rows._tables(ctx, N, work)[1]
    steps, chunks, *_ = _rows._twiddles(ctx, sizes, twists, twist)
    mats = ctx.row_dft
    assert [(w, [ni for _, ni, _ in turns], [lv[1] for lv in got[1 if turns else 0:]])
            for w, turns, got, _ in steps] == levels

    def check_turns(turns, width):
        offset = 0
        for off, ni, rows in turns:
            assert off == offset
            offset += ni
            G = ni // (64 * width)
            assert rows.shape == (G, 64, 1) and rows.base is twists
            assert rows[:, :, 0].tolist() == twists[twist * G:(twist + 1) * G].tolist()
            w = ctx.roots[(128 * G).bit_length() - 1]  # omega_(128G)
            for g in range(G):
                want = pow(w, twist + 2 * bit_reverse(g, G.bit_length() - 1), p)
                assert rows[g, 22, 0] % p == want, (ni, width, g)

    check_turns(chunks, 1)
    for width, turns, got, span in steps:
        check_turns(turns, width)
        assert span == sum(lv[1] for lv in got)
        if turns:
            assert got[0][:2] == (0, sum(ni for _, ni, _ in turns))
            assert got[0][2].base is mats and got[0][3].base is mats
            assert (got[0][2] == mats[0].T).all() and (got[0][3] == mats[1].T).all()
        offset = got[0][1] if turns else 0
        for off, ni, forward, inverse in got[1 if turns else 0:]:
            assert off == offset
            offset += ni
            R = ni // width
            w = ctx.roots[R.bit_length()]  # omega_(2R)
            for part, sign in ((forward, 1), (inverse, -1)):
                assert np.abs(part).max() <= p // 2
                if sizes[0] <= 512:
                    assert part.dtype == np.int64 and part.shape == (R, R)
                    values = (part % p).tolist()
                else:
                    assert part.dtype == np.float64 and part.shape == (R, 2 * R)
                    assert part.base is (ctx.row_odd if twist and R == 64 else mats)
                    ints = part.astype(np.int64)
                    assert not ((ints[:, 1::2] - (ints[:, ::2] << 16)) % p).any()
                    values = (ints[:, ::2] % p).tolist()
                for c in range(R):
                    for r in range(R):
                        e = sign * r * (twist + 2 * bit_reverse(c, R.bit_length() - 1))
                        assert (values[c][r] if sign == 1 else values[r][c]) == pow(w, e, p)


def _levels_of(ctx, sizes, twist):
    """The steps of blocks ``sizes`` at ``twist`` (tftlib._rows._twiddles)
    and a work buffer for them."""
    N = 1 << sum(sizes).bit_length() if twist else sizes[0]
    work = np.empty(2 * N, np.int64)
    steps = _rows._twiddles(ctx, sizes, _rows._tables(ctx, N, work)[1], twist)[0]
    return steps, work


def _level_sums(ctx, step, work, inputs):
    """The int64 levels of ``step`` run by the rows both ways, on both
    rows, from ``inputs`` (one (R, 64) list of Python ints per level and
    direction, in [0, p)); each part's sums in Python ints, and whether the
    rows' outputs equal them mod p."""
    p = ctx.p
    _, _, levels, span = step
    sums, equal = [], True
    for d in (0, 1):
        a = np.zeros((2, span), np.int64)
        want = []
        for (off, ni, *parts), x in zip(levels, inputs[d]):
            a[:, off:off + ni] = np.array(x).reshape(-1)
            block = [[sum(e * x[r][q] for r, e in enumerate(row)) for q in range(64)]
                     for row in parts[d].tolist()]
            sums.append(block)
            want.append([v % p for row in block for v in row])
        _rows._levels(ctx, a, (step,), work, bool(d))
        equal = equal and all(a[j, off:off + ni].tolist() == values
                              for (off, ni, *_), values in zip(levels, want) for j in (0, 1))
    return sums, equal


def _check_int_level_sums(ctx, sizes, twist) -> None:
    """The int64 levels of blocks ``sizes`` at ``twist`` over ctx, at their
    largest sums and at those of the largest balanced parts
    (test_int_levels_take_their_largest_sums)."""
    p = ctx.p
    (step,), work = _levels_of(ctx, sizes, twist)
    levels = step[2]
    assert all(level[2].dtype == np.int64 for level in levels)
    inputs = [[], []]
    for level in levels:
        for d, part in enumerate(m.tolist() for m in level[2:]):  # chunk r to c at [c][r]
            R = len(part)
            x = [[0] * 64 for _ in range(R)]
            for c in range(R):
                for r in range(R):
                    x[r][2 * c], x[r][2 * c + 1] = (p - 1, 0) if part[c][r] > 0 else (0, p - 1)
            inputs[d].append(x)
    sums, equal = _level_sums(ctx, step, work, inputs)
    assert equal
    largest = max(abs(v) for block in sums for row in block for v in row)
    assert largest <= 2 * (p - 1) ** 2 < 2**63
    # The bound itself, reached: parts of the same shapes whose every entry
    # is (p - 1)/2, the largest balanced one, against inputs p - 1, sum R
    # (p - 1)^2 / 2, 2 (p - 1)^2 at R = 4.  At R = 8 that sum reaches 2^63,
    # so tftlib._rows._wide flags such a part, and a plan whose real parts
    # it flags takes float64 levels (test_a_field_whose_int_levels_balance).
    worst = [(off, ni, full, full) for off, ni, *_ in levels
             for full in [np.full((ni // 64,) * 2, (p - 1) // 2)]]
    assert _rows._wide(p, [level[2] for level in worst]) == (levels[0][1] == 512)
    worst = tuple(level for level in worst if level[1] <= 256)
    if not worst:
        return
    inputs = [[[[p - 1] * 64] * (ni // 64) for _, ni, *_ in worst]] * 2
    sums, equal = _level_sums(ctx, (64, (), worst, step[3]), work, inputs)
    assert equal
    largest = max(abs(v) for block in sums for row in block for v in row)
    assert largest == max(ni // 64 for _, ni, *_ in worst) * ((p - 1) // 2) * (p - 1)
    assert largest <= 2 * (p - 1) ** 2 < 2**63


@pytest.mark.parametrize("sizes, twist", [((128,), 0), ((256,), 0), ((512,), 0), ((128, 1), 1),
                                          ((256, 1), 1), ((512, 1), 1),
                                          ((512, 256, 128, 1), 1)])
def test_int_levels_take_their_largest_sums(sizes, twist):
    # An int64 level sums R products of a balanced entry, of magnitude at
    # most (p - 1)/2, and an input in [0, p).  Column 2c of the chunks
    # holds p - 1 where row c of the part is positive and 0 elsewhere, and
    # column 2c + 1 the reverse, so output c's sums there are its largest
    # and its most negative.  In Python ints every sum stays within 2 (p -
    # 1)^2 < 2^63, and the rows' outputs equal the sums mod p.  Over the
    # largest prime here every such plan keeps int64 levels.
    _check_int_level_sums(FieldCtx(max(PRIMES)), sizes, twist)


# An NTT prime whose real 8-chunk parts at twist 1 could sum outside int64:
# the largest one-signed row sum of a part times p - 1 is 1.373 times 2^63,
# the most of the 387 such among the 205210 primes p < 2^31 with p - 1
# divisible by 2^10.  Twist 0 never does below 2^31: its rows hold powers
# of omega_8, of which at most three large ones share a sign.
WIDE_PRIME = 2131347457


@pytest.mark.parametrize("sizes, twist, wide", [((512,), 0, False), ((512, 1), 1, True),
                                                ((512, 256, 1), 1, True)])
def test_a_field_whose_int_levels_balance(sizes, twist, wide):
    # A product plan whose int64 parts could sum outside int64 over its
    # field (tftlib._rows._wide) takes float64 levels, which hold every
    # sum exactly.  Over WIDE_PRIME the plan at twist 0 keeps int64 levels,
    # at their largest sums (test_int_levels_take_their_largest_sums); at
    # twist 1 its 8-chunk parts are flagged, so the float levels run, at
    # their largest sums (_stacked_sums), and products at 513 and 769 on
    # every path, from random operands and from operands of p - 1, equal
    # the list composition.
    ctx = FieldCtx(WIDE_PRIME)
    p = ctx.p
    ints = _rows._matrices(ctx)[1]
    shares = [(ni // 64, slice(twist * ni // 64, (twist + 1) * ni // 64)) for ni in sizes if ni > 64]
    parts = [part for R, cols in shares for part in (ints[0][:R, cols].T, ints[1][cols, :R].T)]
    assert _rows._wide(p, parts) is wide
    if not wide:
        _check_int_level_sums(ctx, sizes, twist)
        return
    (step,), work = _levels_of(ctx, sizes, twist)
    assert all(level[2].dtype == np.float64 for level in step[2])
    _check_level_sums(ctx, step, work)
    n = sum(sizes)
    for path in PATHS:
        for f, g in (_operands(p, n, n), ([p - 1] * (n // 2 + 1), [p - 1] * (n - n // 2))):
            want, counts = _reference(ctx, f, g, path)
            with ctx.count_session() as sess:
                assert _product(ctx, f, g, path) == want
            assert (sess.mul, sess.pow2, sess.add) == counts


def _extreme(p: int, low: int, high: int, sign: int) -> int:
    """The input x in [0, p) with the largest limbs, x mod 2^16 and x >>
    16, whose limbs times a stacked pair (low, high) of entries sum to the
    most (sign 1) or the least (sign -1): a corner of what the limbs of
    inputs in [0, p) reach."""
    top = (p - 1) >> 16
    corners = (0, 0xFFFF, (top << 16) - 1, top << 16, p - 1)
    return max(corners, key=lambda x: sign * (low * (x & 0xFFFF) + high * (x >> 16)))


def _stacked_sums(p: int, a: np.ndarray, groups) -> list:
    """Drive the matrix products of ``groups`` to their largest sums.

    Each group is (slots, matrix): slots an (inputs, L) array of slot
    indices into each row of a, and matrix the one the rows multiply them
    by: stacked, (L, 2L) float64, the entry for input i in column 2i and
    the one for its high limb in column 2i + 1, or an (L, L) int64 part.
    Input v of row 0 (row 1) takes the inputs that drive output v mod L up
    (down), by the sign of each entry: for a stacked one the limbs of
    :func:`_extreme`, for an int64 one p - 1 or 0.  Returns, per group,
    the exact sums, of shape (2, inputs, L): output k of input v belongs
    in slots[v][k].  A float64 product of the same limbs must equal them,
    below 3 2^51 < 2^53 in magnitude, and an int64 one's lie within 2 (p -
    1)^2 < 2^63.
    """
    sums = []
    for slots, matrix in groups:
        ints = matrix.astype(np.int64)
        stacked = matrix.dtype == np.float64
        for row, sign in ((0, 1), (1, -1)):
            drive = [[_extreme(p, out[2 * i], out[2 * i + 1], sign) for i in range(len(out) // 2)]
                     if stacked else [p - 1 if sign * e > 0 else 0 for e in out]
                     for out in ints.tolist()]
            a[row, slots] = np.array(drive)[np.arange(len(slots)) % len(drive)]
        x = a[:, slots]
        if stacked:
            limbs = np.stack([x & 0xFFFF, x >> 16], axis=-1).reshape(2, len(slots), -1)
            exact = limbs @ ints.T  # every term is below 2^47 in magnitude
            assert np.array_equal(limbs.astype(np.float64) @ matrix.T, exact)
            assert np.abs(exact).max() < 3 * 2**51 < 2**53
        else:
            exact = x.astype(object) @ ints.T.astype(object)
            assert max(abs(v) for v in exact.flat) <= 2 * (p - 1) ** 2 < 2**63
        sums.append(exact)
    return sums


def _level_groups(step, d):
    """The (slots, matrix) groups of :func:`_stacked_sums` for the levels
    of ``step`` in direction d: slot q of every element of a group, the
    element width apart, is one input."""
    width, _, levels, _ = step
    return [(np.arange(off, off + ni).reshape(-1, len(parts[d]), width).transpose(0, 2, 1)
             .reshape(-1, len(parts[d])), parts[d]) for off, ni, *parts in levels]


def _check_level_sums(ctx, step, work) -> None:
    """The levels of ``step`` at their largest sums both ways
    (:func:`_stacked_sums`): the rows' outputs must equal them mod p."""
    for d in (0, 1):
        groups = _level_groups(step, d)
        a = np.zeros((2, step[3]), np.int64)
        sums = _stacked_sums(ctx.p, a, groups)
        _rows._levels(ctx, a, (step,), work, bool(d))
        for (slots, _), exact in zip(groups, sums):
            assert (a[:, slots] == exact % ctx.p).all(), d


@pytest.mark.parametrize("case", ["base", "level", "odd", "elements4096"])
def test_stacked_matrices_take_their_largest_sums(case):
    # The float64 matrices are stacked, balanced into (-p/2, p/2], and an
    # input in [0, p) splits into limbs below 2^16 and 2^15
    # (tftlib._rows._stack), so 64 terms sum to less than 3 2^51 < 2^53,
    # which float64 holds exactly.  Over the largest prime here, inputs with
    # the largest limbs, placed by the sign of each stacked entry, drive
    # each output of both directions of the base case (64 chunks of 64
    # slots), of a float level of 64 chunks, of the odd twist's level
    # beside a float one of 8, and of a 64-point pass over elements of 4096
    # slots, the first of a block of 2^18, to its largest and its most
    # negative sums (_stacked_sums); the rows' outputs must equal them mod
    # p.  The base case also stacks matrices of one residue each, p - 1
    # among them, whose stacked pair in [0, p) would sum to about 3 2^52.
    ctx = FieldCtx(max(PRIMES))
    p = ctx.p
    if case != "base":
        sizes, twist = {"level": ((4096,), 0), "odd": ((4096, 512, 1), 1),
                        "elements4096": ((2**18,), 0)}[case]
        steps, work = _levels_of(ctx, sizes, twist)
        assert steps[0][0] == (4096 if case == "elements4096" else 64)
        assert all(level[2].dtype == np.float64 for level in steps[0][2])
        _check_level_sums(ctx, steps[0], work)
        return
    stacked = _rows._matrices(ctx)[0]
    slots = np.arange(4096).reshape(64, 64)
    work = np.empty(2 * 4096, np.int64)
    for v in (1, (p - 1) // 2, (p + 1) // 2, p - 1):
        probe = _rows._stack(ctx, np.full((2, 64, 64), v, np.int64))
        _stacked_sums(p, np.zeros((2, 4096), np.int64), [(slots, probe[0].T)])
    for d in (0, 1):
        a = np.zeros((2, 4096), np.int64)
        (exact,) = _stacked_sums(p, a, [(slots, stacked[d].T)])
        _rows._exact(ctx, a, work, bool(d), 4096, 4096)
        assert (a[:, slots] == exact % p).all(), d


@pytest.mark.parametrize("sizes", [(4096, 1), (4096, 512, 1)])
def test_odd_twist_level_takes_its_largest_sums(sizes):
    # The odd twist's matrices are stacked as the base case's are
    # (tftlib._rows._odd), so a level's sums are largest, below 3 2^51 <
    # 2^53, when the inputs with the largest limbs are placed by the sign of
    # each stacked entry, over the largest prime here (_stacked_sums).  A
    # 4096-slot block at twist 1 takes them both ways, and the rows' outputs
    # must equal the sums mod p; products of operands of p - 1 at lengths
    # that hold such a block must equal the list composition.
    ctx = FieldCtx(max(PRIMES))
    p = ctx.p
    (step,), work = _levels_of(ctx, sizes, 1)
    assert step[2][0][1] == 4096 and step[2][0][2].base is ctx.row_odd
    _check_level_sums(ctx, step, work)
    assert np.abs(ctx.row_odd).max() <= p // 2
    n = sum(sizes)
    f, g = [p - 1] * (n // 2 + 1), [p - 1] * (n - n // 2)
    for path in PATHS:
        want, counts = _reference(ctx, f, g, path)
        with ctx.count_session() as sess:
            assert _product(ctx, f, g, path) == want
        assert (sess.mul, sess.pow2, sess.add) == counts


@pytest.mark.parametrize("path, n", [("padded", 256), ("padded", 1024), ("cyclotomic", 255),
                                     ("cyclotomic", 384), ("cyclotomic", 1025)])
def test_inverse_rows_take_their_largest_sums(field, n, path):
    # The product of f and [1] hands the inverse the forward transform of
    # f, so with f the list inverse of a pattern the inverse starts from
    # that pattern, up to each chunk's shift: p - 1 in the first half of
    # every 2^(b + 1) slots and 0 in the other, which drives the inverse
    # base case and levels to large sums.  The last slot, 1, keeps f from
    # being sparse, so the product has length n.
    p = field.p
    for b in range(6):
        f = [0 if j >> b & 1 else p - 1 for j in range(n - 1)] + [1]
        if path == "padded":
            ifft_in_place(field, f, n)
        else:
            ctft_inverse(field, f, plan_new(n, field))
        assert f[-1] != 0  # the product has length n
        assert _product(field, f, [1], path) == f


def _drive_forward(field, N: int, twist: int, where: int, target: np.ndarray) -> None:
    # The rows' forward of one block of N slots at `twist` is a list of
    # operations: each step's turns and then its levels, then the chunks'
    # turn and the base case.  Operation `where` must meet `target`, two
    # rows of N values in [0, p).  The input that gets it there is found
    # backwards: the operations from `where` on take the target to values
    # V, and the list idwt of V, each 64-slot chunk c divided by its shift
    # s_c (the product of entry 0 of every twist row the chunk meets, one
    # per turn, tftlib._rows._transform), is an input whose dwt times the
    # shifts is V.  The rows' forward from that input must reach the
    # target at `where`, and the whole forward must be V.
    p = field.p
    work = np.empty(2 * N, np.int64)
    twists = _rows._tables(field, N << twist, work)[1]
    twiddles = _rows._twiddles(field, (N,), twists, twist)
    steps, chunks, small, top, span = twiddles
    ops = []
    for width, turns, levels, reach in steps:
        ops.append(lambda a, turns=turns: _rows._turn(field, a, turns, work, False))
        ops.append(lambda a, step=(width, (), levels, reach): _rows._levels(
            field, a, (step,), work, False))
    ops.append(lambda a: _rows._turn(field, a, chunks, work, False))
    ops.append(lambda a: _rows._exact(field, a, work, False, span, top, small))
    shifts = [1] * (N >> 6)
    for _, _, rows in [turn for step in steps for turn in step[1]] + list(chunks):
        for c in range(N >> 6):
            shifts[c] = shifts[c] * int(rows[c * len(rows) // (N >> 6), 0, 0]) % p
    values = target.copy()
    for op in ops[where:]:
        op(values)
    f = []
    for row in values.tolist():
        f.append([v * pow(shifts[i >> 6], -1, p) % p for i, v in enumerate(row)])
        idwt(field, f[-1], N, twist)
    a = np.array(f, np.int64)
    for op in ops[:where]:
        op(a)
    assert (a == target).all()
    a = np.array(f, np.int64)
    _rows._transform(field, a, twiddles, work, False)
    assert (a == values).all()
    for x in f:
        dwt(field, x, N, twist)
    assert a.tolist() == [[v * shifts[i >> 6] % p for i, v in enumerate(x)] for x in f]


@pytest.mark.parametrize("twist", (0, 1))
@pytest.mark.parametrize("start", range(6))
def test_forward_rows_take_their_largest_sums(field, start, twist):
    # Every level of the forward rows of one block of 2^(8 + start) slots
    # (256 to 8192: int64 levels, float64 ones, the odd twist's at 4096 and
    # twist 1, and two steps at 8192) meets the inputs that drive each of
    # its outputs to its largest and its most negative sums
    # (_stacked_sums), from an input found backwards (_drive_forward); the
    # forward must equal the list dwt times each chunk's shift.
    N = 1 << (8 + start)
    work = np.empty(4 * N, np.int64)
    steps = _rows._twiddles(field, (N,), _rows._tables(field, N << twist, work)[1], twist)[0]
    for j, step in enumerate(steps):
        target = np.zeros((2, N), np.int64)
        _stacked_sums(field.p, target, _level_groups(step, 0))
        _drive_forward(field, N, twist, 2 * j + 1, target)


@pytest.mark.parametrize("twist", (0, 1))
def test_base_case_twist_takes_its_largest_inputs(field, twist):
    # A turn multiplies a value in [0, p) by a twist entry in [0, p), so
    # its products lie in [0, (p - 1)^2], below 2^62, and one reduction
    # hands back [0, p).  In a block of 2^13
    # slots, 64 groups of 64 elements of 64 slots turn before its second
    # step, and every 64-slot chunk turns before the base case; each turn
    # meets p - 1 in every slot, the largest input, from an input found
    # backwards (_drive_forward), and the forward must equal the list dwt
    # times each chunk's shift.
    p = field.p
    N = 1 << 13
    work = np.empty(4 * N, np.int64)
    twists = _rows._tables(field, N << twist, work)[1]
    steps = _rows._twiddles(field, (N,), twists, twist)[0]
    assert [bool(step[1]) for step in steps] == [False, True]
    assert 0 <= int(twists.min()) and (p - 1) * int(twists.max()) <= (p - 1) ** 2 < 2**62
    for where in (2, 4):  # the second step's turns, and the chunks'
        _drive_forward(field, N, twist, where, np.full((2, N), p - 1, np.int64))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", [64, 65, 127, 128, 2**12 + 2**5 + 2**4, 2**12 + 96])
def test_base_case_takes_its_largest_sums(n, path):
    # The base case's float sums are exact while 64 inputs' limbs times
    # their stacked entries stay below 2^53 (test_stacked_matrices_take_their
    # _largest_sums drives them there).  Operands of p - 1, over the largest
    # prime here, feed the forward base case its largest inputs, and on the
    # padded and cyclotomic paths the product of [1] and the list inverse
    # of p - 1 in every slot but the last (as in
    # test_inverse_rows_take_their_largest_sums) starts the inverse base
    # case from them.  The lengths run blocks below 64 slots in the base
    # case beside chunks of larger ones: 65 = 64 + 1, 127 = 64 + 32 + ... +
    # 1, 2^12 + 96 = 2^12 + 64 + 32.
    field = FieldCtx(2130706433)
    p = field.p
    cases = [([p - 1] * (n // 2 + 1), [p - 1] * (n - n // 2))]
    if path != "bitreversed":
        size = 1 << (n - 1).bit_length() if path == "padded" else n
        top = [p - 1] * (size - 1) + [1]
        if path == "padded":
            ifft_in_place(field, top, size)
        else:
            ctft_inverse(field, top, plan_new(size, field))
        assert top[-1] != 0  # the product has length size
        cases.append((top, [1]))
    for f, g in cases:
        want, counts = _reference(field, f, g, path)
        with field.count_session() as sess:
            h = _product(field, f, g, path)
        assert h == want
        assert (sess.mul, sess.pow2, sess.add) == counts


@pytest.mark.parametrize("p", PRIMES)
def test_row_tables_match_their_definition(p):
    # the tables of N: powers[j] = omega_N**j in [0, p); twists[c, i] =
    # lambda_c**(i - 21), lambda_c = omega_N**rev(c), rev over log2(N/64)
    # bits, in [0, p)
    ctx = FieldCtx(p)

    def balanced(values):
        return [x - p if x > p // 2 else x for x in values]

    for k in range(2, 15):
        N = 1 << k
        powers, twists = _rows._tables(ctx, N, np.empty(2 * N, np.int64))
        w = ctx.roots[k]
        assert powers.tolist() == [pow(w, j, p) for j in range(N)]
        assert twists.shape == (N >> 6, 64)
        for c in range(N >> 6):
            lam = pow(w, bit_reverse(c, k - 6), p)
            want = [pow(lam, i - 21, p) for i in range(64)]
            assert twists[c].tolist() == want, (N, c)
    # the base case's forward matrix holds zeta**(i rev(j)) in row i and
    # column j, the inverse one zeta**(-i rev(j)) in row j and column i,
    # zeta = omega_64 and rev over six bits, and the odd twist's pair
    # omega_128**(+-i (1 + 2 rev(j))) alike, each stacked over its input
    # axis: row 2i holds input i's row and row 2i + 1 that row times 2^16,
    # both balanced; forward times inverse is 64 I mod p.  The int64 parts
    # are the base case's top 16 rows and columns, balanced.
    mats, ints = _rows._matrices(ctx)
    odd = _rows._odd(ctx)
    assert mats is ctx.row_dft and ints is ctx.row_ints and odd is ctx.row_odd
    w = ctx.roots[7]
    for pair, points in ((mats, [pow(w, 2 * bit_reverse(j, 6), p) for j in range(64)]),
                         (odd, [pow(w, 1 + 2 * bit_reverse(j, 6), p) for j in range(64)])):
        assert pair.dtype == np.float64 and pair.shape == (2, 128, 64)
        stacked = pair.astype(np.int64)
        forward, inverse = (stacked[:, ::2] % p).tolist()
        for d, matrix in enumerate((forward, inverse)):
            for i, row in enumerate(matrix):
                assert stacked[d, 2 * i].tolist() == balanced(row), (d, i)
                high = [x * 2**16 % p for x in row]
                assert stacked[d, 2 * i + 1].tolist() == balanced(high), (d, i)
        for i in range(64):
            for j in range(64):
                assert forward[i][j] == pow(points[j], i, p), (i, j)
                assert inverse[j][i] == pow(points[j], -i, p), (i, j)
        for i in range(64):
            for j in range(64):
                dot = sum(forward[i][m] * inverse[m][j] for m in range(64)) % p
                assert dot == (64 if i == j else 0), (i, j)
        if pair is mats:
            assert ints.dtype == np.int64 and ints.shape == (2, 16, 16)
            assert [balanced(row[:16]) for row in forward[:16]] == ints[0].tolist()
            assert [balanced(row[:16]) for row in inverse[:16]] == ints[1].tolist()


@pytest.mark.parametrize("path", PATHS)
def test_a_field_with_no_64th_root_takes_the_rows(path):
    # over a field of two-adicity k = 4 (17) or 5 (97), a product of length
    # _ROWS_MIN..2^k runs in rows at a padded length of at most 2^k, whose
    # base case reads the points j < 2^k alone
    for ctx in (FieldCtx(17), FieldCtx(97)):
        top = 1 << (len(ctx.roots) - 1)
        for n in range(_ROWS_MIN, top + 1):
            f, g = _operands(ctx.p, n, n)
            assert _product(ctx, f, g, path) == oracle.schoolbook_mul(f, g, ctx.p), (ctx.p, n)


def test_a_field_builds_its_base_case_matrices_once():
    # field set-up, as ctx.roots, that products build and do not report as
    # scratch, and that every later product reads: the base case's stacked
    # float64 pair, 128 KiB, and 4 KiB of int64 parts by the first row
    # product; the odd twist's stacked pair, 128 KiB, by the first one that
    # holds a 4096-slot block at twist 1
    ctx = FieldCtx()
    assert ctx.row_dft is ctx.row_ints is ctx.row_odd is None
    f, g = _operands(ctx.p, 128, 1)
    with ctx.count_session() as sess:
        _product(ctx, f, g, "padded")
    mats, ints = ctx.row_dft, ctx.row_ints
    assert mats.nbytes == 128 * 1024 and ints.nbytes == 4 * 1024
    # the scratch is the tables of padded length 128 and the work buffer
    assert sess.alloc == sum(table.size for table in ctx.row_tables[128]) + 2 * 128
    odd = None
    for n in (29, 65, 257, 1025, 4096, 4097, 8193):
        for path in PATHS:
            f, g = _operands(ctx.p, n, n)
            _product(ctx, f, g, path)
            if odd is None and ctx.row_odd is not None:  # 4097 = 4096 + 1, at twist 1
                assert (n, path) == (4097, "cyclotomic") and ctx.row_odd.nbytes == 128 * 1024
                odd = ctx.row_odd
            assert ctx.row_dft is mats and ctx.row_ints is ints, (n, path)
            assert ctx.row_odd is odd, (n, path)
    assert odd is not None


@pytest.mark.parametrize("path", PATHS)
def test_fields_above_2_31_stay_correct(path):
    ctx = FieldCtx(2305919975027638273)
    f, g = _operands(ctx.p, 2 * _ROWS_MIN + 1, 5)
    assert _product(ctx, f, g, path) == oracle.schoolbook_mul(f, g, ctx.p)
    # the list product there counts what a row product tallies
    rows = FieldCtx()
    for n in (_ROWS_MIN, 255, 257, 1023):
        counts = []
        for field in (ctx, rows):
            f, g = _operands(field.p, n, n)
            with field.count_session() as sess:
                _product(field, f, g, path)
            counts.append((sess.mul, sess.pow2, sess.add))
        assert counts[0] == counts[1], n


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", sorted({_ROWS_MIN, 29, 31, 63, 255, 495, 1023, 1025,
                                      4095, 5461}))
def test_row_scratch_is_reported_and_bounded(n, path):
    # a new field, so the bound covers the tables the first product builds
    ctx = FieldCtx()
    f, g = _operands(ctx.p, n, 2 * n)
    with ctx.count_session() as sess:
        _product(ctx, f, g, path)
    padded = 1 << (n - 1).bit_length()
    assert 0 < sess.alloc <= ALLOC_PER_SLOT[path] * padded


@pytest.mark.parametrize("n", [29, 31, 40, 63, 255, 257, 495, 1023, 1025, 4095, 5461])
def test_bitreversed_rows_add_only_the_two_power_rows(n):
    # the bit-reversed product is the cyclotomic one between two Omega_s
    # scalings, so beside its scratch it takes the two power rows alone
    ctx = FieldCtx()
    f, g = _operands(ctx.p, n, n)
    _product(ctx, f, g, "cyclotomic")  # builds the tables of the padded length
    allocs = {}
    for path in ("cyclotomic", "bitreversed"):
        with ctx.count_session() as sess:
            _product(ctx, f, g, path)
        allocs[path] = sess.alloc
    assert allocs["bitreversed"] == allocs["cyclotomic"] + 2 * n


# numpy calls of a repeated product on the padded, cyclotomic and
# bit-reversed paths, at transform length n (the padded path at N): upper
# bounds, pinned at the measured counts.  The rows' in-place arithmetic is
# spelled np.add(..., out=...), not +=, which would bypass the proxy below,
# and the range check of the operands is a ufunc's reduce, which it counts.
# 96 = 64 + 32 and 200 = 128 + 64 + 8 run small blocks beside chunk blocks,
# the lengths of mul-small-many; from 4098 (a padded block of 8192 slots)
# up, a block of 8192 to 2^18 slots runs two steps, whatever its size, so
# the budget stops growing with n.
CALL_BUDGET = {96: (33, 45, 54), 200: (33, 64, 73), 257: (35, 49, 58), 385: (35, 64, 75),
               1026: (61, 81, 94), 1282: (61, 97, 110), 1537: (61, 97, 110),
               2049: (61, 77, 90), 4098: (87, 81, 94), 8193: (87, 103, 116),
               16385: (87, 103, 116), 65537: (87, 103, 116)}


class _CountingNumpy:
    """numpy, counting the calls of its functions and ufuncs, and of the
    ufuncs' methods (np.maximum.reduce), not of its types."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr
        return _Counted(self, attr)


class _Counted:
    """A numpy function or ufunc whose calls, and whose methods' calls, count."""

    def __init__(self, owner: _CountingNumpy, fn):
        self.owner, self.fn = owner, fn

    def __call__(self, *args, **kwargs):
        self.owner.calls += 1
        return self.fn(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self.fn, name)
        return _Counted(self.owner, attr) if callable(attr) else attr


@pytest.mark.parametrize("n", sorted(CALL_BUDGET))
def test_a_repeated_product_keeps_its_numpy_call_budget(n, monkeypatch):
    # Below about n = 1024 a row product's time follows its numpy calls,
    # about 2 us each with the Python around them, so their number must not
    # creep back.  The first product builds the plan; the repeat is counted.
    ctx = FieldCtx()
    f, g = _operands(ctx.p, n, n)
    calls = []
    for path in PATHS:
        want = _product(ctx, f, g, path)
        proxy = _CountingNumpy()
        with monkeypatch.context() as patch:
            patch.setattr(_rows, "np", proxy)
            assert _product(ctx, f, g, path) == want
        calls.append(proxy.calls)
    assert all(0 < c <= bound for c, bound in zip(calls, CALL_BUDGET[n])), calls


# bytes of numpy array headers and views, not of elements
HEADER_SLACK = 2048


@pytest.mark.parametrize("n", [1023, 4095])
def test_bitreversed_rows_take_no_unreported_memory(n):
    # what the bit-reversed product takes beyond the cyclotomic one, the two
    # power rows, is all reported: its peak grows by the reported elements
    ctx = FieldCtx()
    f, g = _operands(ctx.p, n, n)
    _product(ctx, f, g, "cyclotomic")  # builds the tables of the padded length
    peaks, allocs = {}, {}
    for path in ("cyclotomic", "bitreversed"):
        with ctx.count_session() as sess:
            tracemalloc.start()
            try:
                _product(ctx, f, g, path)
                peaks[path] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        allocs[path] = sess.alloc
    excess = 8 * (allocs["bitreversed"] - allocs["cyclotomic"])
    assert peaks["bitreversed"] - peaks["cyclotomic"] <= excess + HEADER_SLACK


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", sorted({_ROWS_MIN, 29, 31, 1025}))
def test_a_field_builds_the_tables_of_a_padded_length_once(n, path):
    ctx = FieldCtx()
    allocs = []
    for seed in (1, 2):  # two products of length n
        f, g = _operands(ctx.p, n, seed)
        with ctx.count_session() as sess:
            _product(ctx, f, g, path)
        allocs.append(sess.alloc)
    assert 0 < allocs[1] < allocs[0]


def _run(code: str) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(tftlib.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_short_products_load_neither_numpy_nor_the_rows():
    # a fresh interpreter: the import, the field and a product below the
    # crossover take the list path and leave numpy unloaded
    code = ("import sys, tftlib\n"
            "ctx = tftlib.FieldCtx()\n"
            "n = tftlib.bridge._ROWS_MIN - 1\n"
            "tftlib.multiply_tft(ctx, [1] * (n // 2), [2] * (n - n // 2 + 1))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'numpy' or m == 'tftlib._rows'))")
    assert _run(code) == "[]"


def test_the_rows_load_once():
    # the bridge keeps the row module it loaded: after the package leaves
    # sys.modules (as when it is imported afresh), its products import nothing
    code = ("import sys, tftlib\n"
            "ctx = tftlib.FieldCtx()\n"
            "f, g = [1] * 100, [2] * 100\n"
            "multiply = tftlib.multiply_tft\n"
            "want = multiply(ctx, f, g)\n"
            "for m in [m for m in sys.modules if m.split('.')[0] == 'tftlib']:\n"
            "    del sys.modules[m]\n"
            "print(multiply(ctx, f, g) == want,\n"
            "      sorted(m for m in sys.modules if m.split('.')[0] == 'tftlib'))")
    assert _run(code) == "True []"
