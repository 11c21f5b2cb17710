"""Products in int64 rows, checked against the list transforms.

Over p < 2^31, every product of length n >= ``bridge._ROWS_MIN`` (14, the
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
from tftlib.transform import dwt, scale_by_powers

PRIMES = (2013265921, 998244353, 2130706433)
PATHS = ("padded", "cyclotomic", "bitreversed")
# long runs of 0 bits (folds of many chunks) next to adjacent 1 bits (folds of one)
SHAPES = {2**12 + 2**5 + 1, 2**11 + 2**10 + 2**3 + 1, 0b1001001001, 0b110000000011,
          0b101010101011}
# 28 to 32: the lengths about the rows' earlier thresholds, 29 and 31, and
# 2^5; 448 and 1537: a first stage of adjacent blocks
LENGTHS = sorted({_ROWS_MIN - 1, _ROWS_MIN, _ROWS_MIN + 1, 28, 29, 30, 31, 32, 62, 448, 1365,
                  1537, 5461}
                 | {2**k + d for k in range(6, 13) for d in (-1, 0, 1)}
                 | SHAPES | set(random.Random(10).sample(range(63, 6001), 10)))
# 2^k - 1 (k blocks, no fold), 2^k + 1 (block 1 folds to two rows) and a
# second block whose carry folds to two rows, up to the lengths above; 384,
# 320 and 448 (M_s = 1, 2, 3 in tftlib._rows._unbreak) halve their carries
# unreduced, and 288 (M_s = 4) reduces them first
HEADROOM = sorted({2**k + d for k in range(5, 13) for d in (-1, 1)}
                  | {2**k + 2**(k - 4) + 1 for k in range(5, 13)} | {288, 320, 384, 448})
# the levels of tftlib._rows._twiddles: about 512 slots (R = 8), 2048 slots
# at twist 1 (R = 32) and 4096 at twist 0 (R = 64); 4097 and 4609 = 4096 +
# 512 + 1 hold a block too large, so every block keeps its stages; 1282 =
# 1024 + 256 + 2 runs a level, a stage block and a small block, and 1537 =
# 1024 + 512 + 1 two levels
LEVELS = [511, 512, 513, 1282, 1537, 2049, 4095, 4096, 4097, 4609]
# bound stated in the tftlib._rows docstring, in elements per padded slot;
# a first product at every exact n in [_ROWS_MIN, 4200] reports at most
# 4.016 (n = 65), 4.023 (n = 511) and 6.020 (n = 511): the tables of N,
# about 2.02N, the 2m work buffer, the plan's stage rows, below 2m/64, and
# on the bit-reversed path the 2m power rows
ALLOC_PER_SLOT = {"padded": 4.1, "cyclotomic": 4.1, "bitreversed": 6.1}

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
@pytest.mark.parametrize("n", [_ROWS_MIN, 255, 257, 1025])
def test_rows_load_elements_outside_int64(field, n, path):
    # tftlib._rows.load packs each operand into its row; an element outside
    # int64 sends that operand alone through operator.index, reduced, while
    # the other one still packs.  At the first, middle and last slot of
    # either operand, and in both operands at once, the product must be
    # that of the reduced operands.  (A False in the last slot only lowers
    # the degree.)
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
    # of p - 1, which make the levels' limb sums large.
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


@pytest.mark.parametrize("sizes, twist, levels", [
    ((512,), 0, [512]), ((256,), 0, []), ((4096,), 0, [4096]), ((8192,), 0, []),
    ((256, 1), 1, []), ((512, 1), 1, [512]), ((2048, 1), 1, [2048]), ((4096, 2), 1, []),
    ((1024, 256, 2), 1, [1024]), ((1024, 512, 1), 1, [1024, 512]),
    ((4096, 512, 1), 1, [])])
def test_levels_are_the_blocks_the_matrix_holds(sizes, twist, levels):
    # A block of 64R slots at twist t is a level when 8 <= R and (t + 1) R
    # <= 64, unless a block of the product is too large for the matrix; the
    # stage rows cover the blocks after the levels alone.
    ctx = FieldCtx()
    N = 1 << sum(sizes).bit_length() if twist else sizes[0]
    work = np.empty(2 * N, np.int64)
    rows = _rows._twiddles(ctx, sizes, _rows._tables(ctx, N, work), twist)
    stages, *_, got, lead = rows
    assert [ni for _, ni, _, _ in got] == levels
    assert lead == sum(levels)
    rest = sum(sizes) - lead
    assert [st.shape[1] for st in stages] == [rest >> st for st in range(7, 15) if rest >> st]


@pytest.mark.parametrize("path, n", [("padded", 256), ("padded", 1024), ("cyclotomic", 255),
                                     ("cyclotomic", 384), ("cyclotomic", 1025)])
def test_inverse_rows_take_their_largest_sums(field, n, path):
    # The inverse rows reduce their sums only every few stages.  The product
    # of f and [1] hands the inverse the forward transform of f, so with f
    # the list inverse of a pattern the inverse starts from that pattern:
    # p - 1 in the first half of every 2^(b + 1) slots and 0 in the other
    # drives the sums of its first b + 1 stages, and their differences, to
    # the largest the bounds of tftlib._rows._transform allow.  The last
    # slot, 1, keeps f from being sparse, so the product has length n.
    p = field.p
    for b in range(6):
        f = [0 if j >> b & 1 else p - 1 for j in range(n - 1)] + [1]
        if path == "padded":
            ifft_in_place(field, f, n)
        else:
            ctft_inverse(field, f, plan_new(n, field))
        assert f[-1] != 0  # the product has length n
        assert _product(field, f, [1], path) == f


def _drive_forward_sums(field, N: int, start: int, twist: int) -> None:
    # An input of degree below M = N / 2^start passes the first `start`
    # stages unchanged into each of its 2^start chunks of M slots.  A stage
    # pairs slot x with slot y, multiplies y by the twiddle w of their row
    # and reduces it to t, then x takes x + t and y takes x - t; in chunk r,
    # a y that is -1/w alone in its chain makes t = p - 1.  So slot M/32
    # gains p - 1 in each of the g = min(4, stages - start) stages u >= 64
    # left and reaches (g + 1)(p - 1), and slot M/2 + ... + M/2^g loses it
    # g times.  Slot M/32 then meets the twiddle of its row at the next
    # stage or, past the last, the twist of its base-case chunk, in the
    # chunk r where that is largest.  The rows must equal the list dwt with
    # each 64-slot chunk c times lambda_c**(-21), which the rows' forward
    # leaves there (tftlib._rows._tables).
    p = field.p
    M = N >> start
    work = np.empty(2 * N, np.int64)
    # twist 1 reads the tables of a padded length 2N, as a block of a product does
    twiddles = _rows._twiddles(field, [N], _rows._tables(field, N << twist, work), twist)
    _rows._matrices(field)
    stages = len(twiddles[0])
    gains = min(4, stages - start)

    def w(e, r, last=False):  # what chunk r's first (or last) row meets at step start + e
        if start + e > stages:  # the twist of slot M/32, in base-case chunk r M/64
            return int(twiddles[1][0][2][r * M // 64, (M >> 5) % 64])
        rows = 1 << (e - 1)
        return int(twiddles[0][stages - start - e][0][r * rows + (rows - 1 if last else 0), 0])

    r = max(range(1 << start), key=lambda r: abs(w(gains + 1, r)))
    f = [0] * N
    f[M >> 5] = p - 1
    for e in range(1, gains + 1):
        f[(M >> 5) + (M >> e)] = -pow(w(e, r), -1, p) % p
        f[M >> e] = -pow(w(e, r, last=True), -1, p) % p
    a = np.array([f], np.int64)
    _rows._transform(field, a, twiddles, work, False)
    dwt(field, f, N, twist)
    k = (N << twist).bit_length() - 1
    for c in range(N >> 6):
        lam = pow(field.roots[k], bit_reverse((twist * N >> 6) + c, k - 6), p)
        shift = pow(lam, -21, p)
        f[64 * c:64 * c + 64] = [x * shift % p for x in f[64 * c:64 * c + 64]]
    assert a[0].tolist() == f


@pytest.mark.parametrize("twist", (0, 1))
@pytest.mark.parametrize("start", range(6))
def test_forward_rows_take_their_largest_sums(field, start, twist):
    # The forward rows reduce their prefix only after every fourth stage
    # u >= 64; at N = 2^15 there are nine.  Four stages drive the prefix to
    # its extremes before a reduction, 5 (p - 1) and -4 (p - 1), for start
    # 0 and 4 (_drive_forward_sums).  For start 5 those four are stages 6 to
    # 9, and the twist of the base case follows: a copy that reduces every
    # fifth stage overflows int64 there over p = 2013265921 and 2130706433.
    _drive_forward_sums(field, 2**15, start, twist)


@pytest.mark.parametrize("twist", (0, 1))
def test_base_case_twist_takes_its_largest_inputs(field, twist):
    # After the last reduction of the forward prefix, at most three stages
    # run before the base case's twist, so it multiplies values in [-3p,
    # 4p) by a balanced lambda**i: below 2p^2 < 2^63.  At N = 2^13 there are
    # seven stages u >= 64, and stages 5 to 7 drive slot M/32 to 4 (p - 1)
    # (_drive_forward_sums, start 4): a copy whose twists lie in [0, p)
    # overflows int64 there over p = 2013265921 and 2130706433.
    _drive_forward_sums(field, 2**13, 4, twist)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", [64, 65, 127, 128, 2**12 + 2**5 + 2**4, 2**12 + 96])
def test_base_case_takes_its_largest_sums(n, path):
    # The base case's float sums are exact while a residue times a 16-bit
    # limb, summed over 64 slots, stays below 2^53; they are largest over
    # the largest prime here when every input is p - 1.  Operands of p - 1
    # feed the forward base case those, and on the padded and cyclotomic
    # paths the product of [1] and the list inverse of p - 1 in every slot
    # but the last (as in test_inverse_rows_take_their_largest_sums) starts
    # the inverse base case from them.  The lengths run blocks below 64
    # slots in the base case beside chunks of larger ones: 65 = 64 + 1, 127
    # = 64 + 32 + ... + 1, 2^12 + 96 = 2^12 + 64 + 32.
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
    # the tables of N: powers[j] = omega_N**j in [0, p); base[0, r] and
    # base[1, r] are omega_N**(+-rev(r)) for r < N/128, rev over log2(N/2)
    # bits, balanced into (-p/2, p/2]; twists[c, i] = lambda_c**(i - 21),
    # lambda_c = omega_N**rev(c), rev over log2(N/64) bits, balanced
    ctx = FieldCtx(p)

    def balanced(values):
        return [x - p if x > p // 2 else x for x in values]

    for k in range(2, 15):
        N, half = 1 << k, 1 << k >> 7
        powers, base, twists = _rows._tables(ctx, N, np.empty(2 * N, np.int64))
        w = ctx.roots[k]
        assert powers.tolist() == [pow(w, j, p) for j in range(N)]
        for sign, row in zip((1, -1), base[:, :, 0]):
            want = [pow(w, sign * bit_reverse(r, k - 1), p) for r in range(half)]
            assert row.tolist() == balanced(want), (N, sign)
        assert twists.shape == (N >> 6, 64)
        for c in range(N >> 6):
            lam = pow(w, bit_reverse(c, k - 6), p)
            want = balanced([pow(lam, i - 21, p) for i in range(64)])
            assert twists[c].tolist() == want, (N, c)
    # the base case's forward matrix holds zeta**(i rev(j)) in row i and
    # column j, the inverse one zeta**(-i rev(j)) in row j and column i,
    # zeta = omega_64 and rev over six bits, each residue as its low 16 bits
    # in limb 0 and the rest in limb 1; forward times inverse is 64 I mod p
    mats = _rows._matrices(ctx)
    assert mats.dtype == np.float64 and mats.shape == (2, 2, 64, 64)
    assert mats[:, 0].max() < 2**16 and mats[:, 1].max() < 2**15
    forward, inverse = (lo.astype(np.int64) + (hi.astype(np.int64) << 16) for lo, hi in mats)
    forward, inverse = forward.tolist(), inverse.tolist()
    zeta = ctx.roots[6]
    for i in range(64):
        for j in range(64):
            assert forward[i][j] == pow(zeta, i * bit_reverse(j, 6), p), (i, j)
            assert inverse[j][i] == pow(zeta, -i * bit_reverse(j, 6), p), (i, j)
    for i in range(64):
        for j in range(64):
            dot = sum(forward[i][m] * inverse[m][j] for m in range(64)) % p
            assert dot == (64 if i == j else 0), (i, j)


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
    # field set-up, as ctx.roots: 128 KiB that the first row product builds
    # and does not report as scratch, and that every later product reads
    ctx = FieldCtx()
    assert ctx.row_dft is None
    f, g = _operands(ctx.p, 128, 1)
    with ctx.count_session() as sess:
        _product(ctx, f, g, "padded")
    mats = ctx.row_dft
    assert mats.nbytes == 128 * 1024
    # the scratch is the tables of padded length 128 and the work buffer
    assert sess.alloc == sum(table.size for table in ctx.row_tables[128]) + 2 * 128
    for n in (29, 65, 257, 1025):
        for path in PATHS:
            f, g = _operands(ctx.p, n, n)
            _product(ctx, f, g, path)
            assert ctx.row_dft is mats, (n, path)


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
# spelled np.add(..., out=...), not +=, which would bypass the proxy below.
# 96 = 64 + 32 and 200 = 128 + 64 + 8 run small blocks beside chunk blocks,
# the lengths of mul-small-many.
CALL_BUDGET = {96: (39, 47, 56), 200: (47, 70, 79), 257: (54, 63, 72), 385: (54, 76, 87),
               1026: (78, 98, 111), 1282: (78, 127, 140), 1537: (78, 114, 127),
               2049: (78, 94, 107), 4098: (144, 152, 165)}


class _CountingNumpy:
    """numpy, counting the calls of its functions and ufuncs, not of its types."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def call(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return call


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
