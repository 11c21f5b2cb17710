"""Quadratic references that only the tests use.

``naive_dft`` is the natural-order DFT by Horner's rule, and
``basis_image_sweep`` gives the reductions of every basis image that
acceptance criterion 6 checks the survival criterion against.  Like
:mod:`tftlib.oracle`, whose helpers they build on, they share no code with
the transforms.
"""

from tftlib.oracle import (Poly, _phi, naive_eval, naive_mod_reduce, poly_invmod,
                           schoolbook_mul)


def naive_dft(f: Poly, omega: int, n: int, p: int) -> list[int]:
    """(f(omega**j)) for j = 0..n-1, natural order, O(n^2)."""
    return [naive_eval(f, pow(omega, j, p), p) for j in range(n)]


def _product_mod(u: Poly, v: Poly, m: int, c: int, p: int) -> Poly:
    """(u * v) mod (z^m - c) for inputs already of length <= m."""
    out = [0] * m
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            idx = i + j
            term = a * b
            if idx >= m:
                idx -= m
                term *= c
            out[idx] = (out[idx] + term) % p
    return out


def basis_image_sweep(plan, i: int, j: int):
    """Reference reductions of C_i for every basis term of block j.

    For e = 0..n_j-1, with f chosen so that f mod Phi_j = z^e and the other
    images up to i vanish, yields (e, cyclic, nega) where cyclic[m] is
    C_i mod (z^m - 1) for each power of two m <= n_i and nega[k] is
    C_i mod Phi_k for i < k <= s.

    Successive e differ by one negacyclic shift inside block j, so
    C_(e+1) = z*C_e - t*Gamma_i with t the top coefficient of the shifted CRT
    factor; each yielded reduction follows by shifting and subtracting
    t * (Gamma_i mod target) at the constant slot.  Only the e = 0 case is
    computed from full products.
    """
    if not 1 <= j <= i < plan.s:
        raise ValueError(f"need 1 <= j <= i < s = {plan.s}")
    p = plan.p
    nj = plan.size(j)
    phi_j = _phi(nj)
    cof = [1]
    for l in range(1, i + 1):
        if l != j:
            cof = schoolbook_mul(cof, _phi(plan.size(l)), p)
    h = poly_invmod(cof, phi_j, p) + [0] * nj
    h = h[:nj]
    cyc_ms = [1 << b for b in range(plan.exp(i) + 1)]
    neg_ks = list(range(i + 1, plan.s + 1))

    cyc = {m: _product_mod(naive_mod_reduce(cof, m, 1, p),
                           naive_mod_reduce(h, m, 1, p), m, 1, p)
           for m in cyc_ms}
    neg = {k: _product_mod(naive_mod_reduce(cof, plan.size(k), p - 1, p),
                           naive_mod_reduce(h, plan.size(k), p - 1, p),
                           plan.size(k), p - 1, p)
           for k in neg_ks}
    gamma_mod = {m: naive_mod_reduce(schoolbook_mul(cof, phi_j, p), m, 1, p)
                 for m in cyc_ms}
    gamma_neg = {k: naive_mod_reduce(schoolbook_mul(cof, phi_j, p),
                                     plan.size(k), p - 1, p)
                 for k in neg_ks}

    for e in range(nj):
        yield e, {m: list(v) for m, v in cyc.items()}, {k: list(v) for k, v in neg.items()}
        if e == nj - 1:
            break
        t = h[-1]
        h = [-h[-1] % p] + h[:-1]
        for m in cyc_ms:
            v = cyc[m]
            v = [v[-1]] + v[:-1] if m > 1 else v
            cyc[m] = [(a - t * b) % p for a, b in zip(v, gamma_mod[m])]
        for k in neg_ks:
            v = neg[k]
            nk = plan.size(k)
            v = [-v[-1] % p] + v[:-1] if nk > 1 else [-v[0] % p]
            neg[k] = [(a - t * b) % p for a, b in zip(v, gamma_neg[k])]
