"""Brute-force reference computations used to arbitrate equivalence tests.

Everything here is quadratic-time, desk-scale, and deliberately shares no code
with the transform implementations: evaluation is plain Horner, reduction is
coefficient folding or long division, and bit reversal is done by string
manipulation.  ``eval_batch`` is the same Horner scheme vectorised with numpy
int64 (exact while p < 2**31) so the large sweeps stay affordable.
"""

from __future__ import annotations

from dataclasses import dataclass

Poly = list[int]


def _rev_bits(i: int, width: int) -> int:
    if width == 0:
        return 0
    return int(format(i, f"0{width}b")[::-1], 2)


def naive_eval(f: Poly, x: int, p: int) -> int:
    """Horner evaluation of f at x modulo p."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def pruned_dft(f: Poly, subset, omega: int, n: int, p: int) -> list[int]:
    """Evaluations f(omega**rev(i)) for i in the subset, ascending i."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"grid size {n} is not a power of two")
    width = n.bit_length() - 1
    out = []
    for i in sorted(subset):
        if not 0 <= i < n:
            raise ValueError(f"index {i} outside [0, {n})")
        out.append(naive_eval(f, pow(omega, _rev_bits(i, width), p), p))
    return out


def eval_batch(rows: list[Poly], points: list[int], p: int) -> list[list[int]]:
    """Evaluate each row polynomial at every point; one list of values per row."""
    if p < 1 << 31:
        import numpy as np

        if not rows or not points:
            return [[] for _ in rows]
        width = max(len(r) for r in rows)
        coeffs = np.zeros((len(rows), width), dtype=np.int64)
        for r, row in enumerate(rows):
            coeffs[r, :len(row)] = row
        pts = np.asarray(points, dtype=np.int64)
        acc = np.zeros((len(rows), len(points)), dtype=np.int64)
        for idx in range(width - 1, -1, -1):
            acc = (acc * pts[None, :] + coeffs[:, idx:idx + 1]) % p
        return acc.tolist()
    return [[naive_eval(row, x, p) for x in points] for row in rows]


def naive_mod_reduce(f: Poly, m: int, c: int, p: int) -> Poly:
    """f mod (z^m - c) by folding: coefficient e adds f[e] * c**(e // m) to slot e % m."""
    if m < 1:
        raise ValueError("modulus degree must be positive")
    out = [0] * m
    for e, a in enumerate(f):
        out[e % m] = (out[e % m] + a * pow(c, e // m, p)) % p
    return out


def schoolbook_mul(f: Poly, g: Poly, p: int) -> Poly:
    """Exact O(d^2) product; the zero polynomial is [0]."""
    fr = poly_trim(f, p)
    gr = poly_trim(g, p)
    if fr == [0] or gr == [0]:
        return [0]
    out = [0] * (len(fr) + len(gr) - 1)
    for i, a in enumerate(fr):
        if a == 0:
            continue
        for j, b in enumerate(gr):
            out[i + j] = (out[i + j] + a * b) % p
    return out


# dense polynomial helpers ---------------------------------------------------

def poly_trim(f: Poly, p: int) -> Poly:
    out = [c % p for c in f]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out if out else [0]


def poly_divmod(f: Poly, m: Poly, p: int) -> tuple[Poly, Poly]:
    """Long division: f = q*m + r with deg(r) < deg(m)."""
    m = poly_trim(m, p)
    if m == [0]:
        raise ZeroDivisionError("division by the zero polynomial")
    r = [c % p for c in f]
    dm = len(m) - 1
    lead_inv = pow(m[-1], p - 2, p)
    q = [0] * max(len(r) - dm, 1)
    for i in range(len(r) - 1, dm - 1, -1):
        coef = r[i] * lead_inv % p
        if coef:
            q[i - dm] = coef
            for t in range(dm + 1):
                r[i - dm + t] = (r[i - dm + t] - coef * m[t]) % p
    return poly_trim(q, p), poly_trim(r[:dm] if dm else [0], p)


def poly_invmod(f: Poly, m: Poly, p: int) -> Poly:
    """Inverse of f modulo m over F_p by the extended Euclidean algorithm."""
    r0, s0 = poly_trim(m, p), [0]
    r1, s1 = poly_divmod(f, m, p)[1], [1]
    while r1 != [0] and len(r1) > 1:
        q, r = poly_divmod(r0, r1, p)
        qs = schoolbook_mul(q, s1, p)
        s = [(a - b) % p for a, b in
             zip(s0 + [0] * len(qs), qs + [0] * len(s0))]
        r0, s0, r1, s1 = r1, s1, r, poly_trim(s, p)
    if r1 == [0]:
        raise ZeroDivisionError("polynomial is not invertible modulo m")
    c = pow(r1[0], p - 2, p)
    return poly_trim([a * c % p for a in s1], p)


def _phi(ni: int) -> Poly:
    return [1] + [0] * (ni - 1) + [1]  # z^ni + 1


@dataclass
class OracleImage:
    """Gamma_i = Phi_1 * ... * Phi_i and the combined image C_i = f mod Gamma_i."""

    gamma: Poly
    image: Poly


def combined_image(f: Poly, plan, i: int) -> OracleImage:
    """Gamma_i by direct multiplication, C_i by long division."""
    if not 1 <= i <= plan.s:
        raise ValueError(f"block index {i} outside 1..{plan.s}")
    p = plan.p
    gamma = [1]
    for l in range(1, i + 1):
        gamma = schoolbook_mul(gamma, _phi(plan.size(l)), p)
    return OracleImage(gamma, poly_divmod(f, gamma, p)[1])


def crt_basis_poly(plan, i: int, j: int, e: int) -> Poly:
    """The polynomial of degree < deg(Gamma_i) with f mod Phi_j = z^e and
    f mod Phi_l = 0 for l <= i, l != j, built by Chinese remaindering."""
    p = plan.p
    cof = [1]
    for l in range(1, i + 1):
        if l != j:
            cof = schoolbook_mul(cof, _phi(plan.size(l)), p)
    phi_j = _phi(plan.size(j))
    w = poly_invmod(cof, phi_j, p)
    h = poly_divmod(schoolbook_mul(w, [0] * e + [1], p), phi_j, p)[1]
    return schoolbook_mul(cof, h, p)
