import random

from tftlib import find_root_of_unity, plan_new
from tftlib import oracle

import dense_oracle


def test_naive_dft_constant(ctx5):
    assert dense_oracle.naive_dft([3], 1, 1, 5) == [3]
    w = find_root_of_unity(ctx5, 4)
    assert dense_oracle.naive_dft([3, 0, 0, 0], w, 4, 5) == [3, 3, 3, 3]


def test_naive_dft_example(ctx5):
    assert dense_oracle.naive_dft([1, 1], 2, 4, 5) == [2, 3, 0, 4]


def test_naive_dft_linearity(ctx):
    p = ctx.p
    rng = random.Random(0)
    w = find_root_of_unity(ctx, 8)
    f = [rng.randrange(p) for _ in range(8)]
    g = [rng.randrange(p) for _ in range(8)]
    a, b = rng.randrange(p), rng.randrange(p)
    combo = [(a * x + b * y) % p for x, y in zip(f, g)]
    want = [(a * x + b * y) % p for x, y in
            zip(dense_oracle.naive_dft(f, w, 8, p), dense_oracle.naive_dft(g, w, 8, p))]
    assert dense_oracle.naive_dft(combo, w, 8, p) == want


def test_naive_mod_reduce():
    p = 5
    # z^m folds to the constant c
    assert oracle.naive_mod_reduce([0, 0, 0, 1], 3, 2, p) == [2, 0, 0]
    assert oracle.naive_mod_reduce([1, 2, 3], 2, p - 1, p) == [3, 2]
    assert oracle.naive_mod_reduce([1, 2], 4, 1, p) == [1, 2, 0, 0]


def test_schoolbook_examples():
    p = 2013265921
    assert oracle.schoolbook_mul([1, 1], [1, 1], p) == [1, 2, 1]
    assert oracle.schoolbook_mul([1, 2, 3], [0], p) == [0]
    assert oracle.schoolbook_mul([0, 0], [5, 1], p) == [0]


def test_eval_batch_matches_scalar(ctx):
    p = ctx.p
    rng = random.Random(1)
    rows = [[rng.randrange(p) for _ in range(j + 1)] for j in range(5)]
    pts = [rng.randrange(p) for _ in range(7)]
    got = oracle.eval_batch(rows, pts, p)
    want = [[oracle.naive_eval(r, x, p) for x in pts] for r in rows]
    assert got == want


def test_poly_divmod_and_invmod(ctx):
    p = ctx.p
    rng = random.Random(2)
    for trial in range(10):
        m = [rng.randrange(p) for _ in range(6)] + [1]
        f = [rng.randrange(1, p) for _ in range(rng.randrange(1, 12))]
        q, r = oracle.poly_divmod(f, m, p)
        recombined = oracle.schoolbook_mul(q, m, p)
        recombined = [(a + b) % p for a, b in
                      zip(recombined + [0] * len(r), r + [0] * len(recombined))]
        assert oracle.poly_trim(recombined, p) == oracle.poly_trim(f, p)
    phi = [1, 0, 0, 0, 1]  # z^4 + 1
    for trial in range(5):
        f = [rng.randrange(p) for _ in range(4)]
        if oracle.poly_trim(f, p) == [0]:
            continue
        w = oracle.poly_invmod(f, phi, p)
        prod = oracle.poly_divmod(oracle.schoolbook_mul(f, w, p), phi, p)[1]
        assert prod == [1]


def test_combined_image_example_rows(ctx):
    # n = 86 = 64+16+4+2, basis term z^e in block 1, blocks 2..3 zero:
    # the combined image taken mod z^2 + 1 is 4, 0, -4z for e = 20, 33, 23
    p = ctx.p
    plan = plan_new(86, ctx)
    rows = {20: [4, 0], 33: [0, 0], 23: [0, p - 4]}
    for e, want in rows.items():
        f = oracle.crt_basis_poly(plan, 3, 1, e)
        img = oracle.combined_image(f, plan, 3)
        assert len(img.gamma) - 1 == 64 + 16 + 4
        assert oracle.naive_mod_reduce(img.image, 2, p - 1, p) == want


def test_crt_basis_poly_has_requested_images(ctx):
    p = ctx.p
    plan = plan_new(86, ctx)
    f = oracle.crt_basis_poly(plan, 3, 2, 9)
    for l, want in ((1, [0] * 64), (2, [0] * 9 + [1] + [0] * 6), (3, [0] * 4)):
        got = oracle.naive_mod_reduce(f, plan.size(l), p - 1, p)
        assert got == want


def test_pruned_dft_full_set_is_sorted_bitreversed_dft(ctx5):
    w = find_root_of_unity(ctx5, 4)
    full = dense_oracle.naive_dft([1, 1, 0, 0], w, 4, 5)
    got = oracle.pruned_dft([1, 1, 0, 0], range(4), w, 4, 5)
    # entry i of the pruned transform is f(w**rev(i))
    assert got == [full[0], full[2], full[1], full[3]]


def test_pruned_dft_kernel_vector(ctx):
    p = ctx.p
    w = find_root_of_unity(ctx, 8)
    w2 = w * w % p
    f = [p - 1, 0, 0, (1 - w2) % p, p - 1, (1 + w2) % p]
    assert oracle.pruned_dft(f, {0, 3, 4, 5}, w, 8, p) == [0, 0, 0, 0]


def test_pruned_dft_empty():
    assert oracle.pruned_dft([1, 2], set(), 1, 2, 5) == []


def test_basis_image_sweep_spot_check_against_dense(ctx):
    p = ctx.p
    rng = random.Random(3)
    for n in (21, 86, 200):
        plan = plan_new(n, ctx)
        for i in range(1, plan.s):
            for j in range(1, i + 1):
                for e, cyc, neg in dense_oracle.basis_image_sweep(plan, i, j):
                    if rng.random() > 0.05:
                        continue
                    f = oracle.crt_basis_poly(plan, i, j, e)
                    ci = oracle.combined_image(f, plan, i).image
                    for m, got in cyc.items():
                        assert got == oracle.naive_mod_reduce(ci, m, 1, p)
                    for k, got in neg.items():
                        assert got == oracle.naive_mod_reduce(ci, plan.size(k), p - 1, p)


def test_schoolbook_agrees_with_transform_multiplication(ctx):
    from tftlib import multiply_full_fft

    p = ctx.p
    rng = random.Random(4)
    for trial in range(10):
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 40))]
        g = [rng.randrange(p) for _ in range(rng.randrange(1, 40))]
        assert multiply_full_fft(ctx, f, g) == oracle.schoolbook_mul(f, g, p)
