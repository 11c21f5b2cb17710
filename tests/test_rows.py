"""Products in int64 rows, checked against the list transforms.

Over p < 2^31, every product of length n >= ``bridge._ROWS_MIN`` computes in
int64 rows.  Each product here is compared with a reference composed from
the list functions: the forward transforms of both operands, a pointwise
product and the inverse transform, on the bit-reversed path between two
Omega_s scalings.  The outputs must be equal, and so must the (mul, pow2,
add) each adds, the reference's pointwise product counting one
multiplication per slot as the list path does.
"""

import os
import random
import subprocess
import sys
import tracemalloc

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
# 31 and 32: the first length of the rows under the earlier threshold, and 2^5
LENGTHS = sorted({_ROWS_MIN - 1, _ROWS_MIN, _ROWS_MIN + 1, 31, 32, 62, 1365, 5461}
                 | {2**k + d for k in range(6, 13) for d in (-1, 0, 1)}
                 | SHAPES | set(random.Random(10).sample(range(63, 6001), 10)))
# 2^k - 1 (k blocks, no fold), 2^k + 1 (block 1 folds to two rows) and a
# second block whose carry folds to two rows, up to the lengths above
HEADROOM = sorted({2**k + d for k in range(5, 13) for d in (-1, 1)}
                  | {2**k + 2**(k - 4) + 1 for k in range(5, 13)})
# bound stated in the tftlib._rows docstring, in elements per padded slot
ALLOC_PER_SLOT = {"padded": 5, "cyclotomic": 9, "bitreversed": 10}


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


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", HEADROOM)
def test_largest_residues_stay_within_int64(field, n, path):
    # The rows reduce the break's and the unbreak's sums only at the end.
    # Operands of p - 1 make every sum the break takes its largest; the
    # product of [1] and the polynomial whose images are all p - 1 does
    # the same for every carry of the unbreak.
    p = field.p
    top = [p - 1] * n
    unbreak_in_place(field, top, plan_new(n, field))
    assert top[-1] != 0  # the product has length n
    for f, g in (([p - 1] * (n // 2 + 1), [p - 1] * (n - n // 2)), ([1], top)):
        want, counts = _reference(field, f, g, path)
        with field.count_session() as sess:
            h = _product(field, f, g, path)
        assert h == want
        assert (sess.mul, sess.pow2, sess.add) == counts


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


@pytest.mark.parametrize("twist", (0, 1))
@pytest.mark.parametrize("start", range(6))
def test_forward_rows_take_their_largest_sums(field, start, twist):
    # The forward rows reduce their prefix only after every fourth stage.
    # An input of degree below M = N / 2^start passes the first `start`
    # stages unchanged into each of its 2^start chunks of M slots.  A stage
    # pairs slot x with slot y, multiplies y by the twiddle w of their row
    # and reduces it to t, then x takes x + t and y takes x - t; in chunk r,
    # a y that is -1/w alone in its chain makes t = p - 1.  So slot M/32
    # gains p - 1 in each of four stages and reaches 5 (p - 1), and slot
    # M/2 + M/4 + M/8 + M/16 loses it four times and reaches -4 (p - 1):
    # for start 0 and 4, the extremes of the prefix before its reduction.
    # Slot M/32 then meets the twiddle of row 16 r, r the chunk where that
    # is largest: for start 5, a copy that reduces every fifth stage
    # overflows int64 there over p = 2013265921 and 2130706433.
    p, N = field.p, 1024
    M = N >> start
    work = np.empty(2 * N, np.int64)
    # twist 1 reads the octaves of a padded length 2N, as a block of a product does
    twiddles = _rows._twiddles(field, [N], _rows._tables(field, N << twist, work), twist)

    def w(e, row):  # the forward twiddle of `row` at stage start + e
        return int(twiddles[0][N.bit_length() - 1 - start - e][0][row, 0])

    r = max(range(1 << start), key=lambda r: abs(w(5, r << 4)))
    f = [0] * N
    f[M >> 5] = p - 1
    for e in range(1, 5):
        f[(M >> 5) + (M >> e)] = -pow(w(e, r << (e - 1)), -1, p) % p
        f[M >> e] = -pow(w(e, (r + 1 << (e - 1)) - 1), -1, p) % p
    a = np.array(f, np.int64)[:, None]
    _rows._transform(field, a, [N], twiddles, work, False)
    dwt(field, f, N, twist)
    assert a[:, 0].tolist() == f


@pytest.mark.parametrize("p", PRIMES)
def test_row_tables_match_their_definition(p):
    # powers[j] = omega_N**j in [0, p); base[0, r] and base[1, r] are
    # omega_N**(+-rev(r)), rev over log2(N/2) bits, balanced into
    # (-p/2, p/2]; the octave of m, at N/2 - 2m, is base[:, m:2m]
    ctx = FieldCtx(p)
    for k in range(2, 15):
        N, half = 1 << k, 1 << (k - 1)
        powers, base, octaves = _rows._tables(ctx, N, np.empty(2 * N, np.int64))
        w = ctx.roots[k]
        assert powers.tolist() == [pow(w, j, p) for j in range(N)]
        for sign, row in zip((1, -1), base[:, :, 0]):
            want = [pow(w, sign * bit_reverse(r, k - 1), p) for r in range(half)]
            assert row.tolist() == [x - p if x > p // 2 else x for x in want], (N, sign)
        for m in (half >> e for e in range(1, k)):
            assert np.array_equal(octaves[:, half - 2 * m:half - m], base[:, m:2 * m]), (N, m)


@pytest.mark.parametrize("path", PATHS)
def test_fields_above_2_31_stay_correct(path):
    ctx = FieldCtx(2305919975027638273)
    f, g = _operands(ctx.p, 2 * _ROWS_MIN + 1, 5)
    assert _product(ctx, f, g, path) == oracle.schoolbook_mul(f, g, ctx.p)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", sorted({_ROWS_MIN, 31, 63, 255, 495, 1023, 1025,
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
@pytest.mark.parametrize("n", sorted({_ROWS_MIN, 31, 1025}))
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
