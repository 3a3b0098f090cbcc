"""Correctness checks that do not call the program's own comparison code.

Each check states a closed form, a property the method must have, or an
oracle answer (sympy), and compares the program's output against it.  None
of them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction


def odd_part(n: int) -> int:
    n = abs(n)
    while n and n % 2 == 0:
        n //= 2
    return n


def odd_parts(factors) -> tuple:
    """Sorted odd parts > 1 of a list of invariant factors."""
    return tuple(sorted(x for x in (odd_part(d) for d in factors) if x > 1))


def is_divisibility_chain(factors) -> bool:
    """Invariant factors are all > 1 and each divides the next."""
    factors = list(factors)
    if any(d <= 1 for d in factors):
        return False
    return all(b % a == 0 for a, b in zip(factors, factors[1:]))


def iso_after_inverting_2(a, b) -> bool:
    """a, b are (free_rank, invariant factors) signatures."""
    return a[0] == b[0] and odd_parts(a[1]) == odd_parts(b[1])


def odd_order(sig) -> int | None:
    """Odd part of the order of a group with signature sig, or None if
    the group is infinite."""
    if sig[0]:
        return None
    return math.prod(odd_parts(sig[1]))


def oracle_signature(rows, ncols: int):
    """(free rank, invariant factors > 1) of Z^ncols / rowspan(rows) from
    sympy's Smith normal form."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    mat = Matrix([[int(x) for x in r] for r in rows]) if len(rows) else None
    if mat is None:
        return ncols, ()
    diag = invariant_factors(mat, domain=ZZ)
    nonzero = [abs(int(d)) for d in diag if d != 0]
    return ncols - len(nonzero), tuple(sorted(d for d in nonzero if d > 1))


# ---------------------------------------------------------------------------
# p-adic arithmetic and SL2 words, in the benchmark's own Fraction code


def vp(x: Fraction, p: int) -> int:
    x = Fraction(x)
    if x == 0:
        raise ValueError("0 has no valuation")
    v, num, den = 0, abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def mat_mul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def det(x) -> Fraction:
    (a, b), (c, d) = x
    return a * d - b * c


def _val_at_least(x, p: int, k: int) -> bool:
    return x == 0 or vp(x, p) >= k


def in_g0(m, p: int) -> bool:
    """SL2(Z_(p))."""
    return det(m) == 1 and all(_val_at_least(x, p, 0) for row in m for x in row)


def in_g1(m, p: int) -> bool:
    """{[[a, bp], [c/p, d]] : [[a, b], [c, d]] in SL2(Z_(p))}."""
    (a, b), (c, d) = m
    return (
        det(m) == 1
        and _val_at_least(a, p, 0)
        and _val_at_least(b, p, 1)
        and _val_at_least(c, p, -1)
        and _val_at_least(d, p, 0)
    )


def base_distance(g, p: int) -> int:
    """Tree distance d(base, g*base) for g in SL2(Q): the invariant factors
    of g over Z_(p) are p^m and p^(-m) with m = min v_p(entries)."""
    m = min(vp(x, p) for row in g for x in row if x != 0)
    return -2 * m


def amalgam_word_ok(factors, g, p: int) -> bool:
    """factors is a list of (matrix, side) with side 0 for G0, 1 for G1."""
    if not factors:
        return False
    prod = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for m, _ in factors:
        m = tuple((Fraction(x), Fraction(y)) for x, y in m)
        prod = mat_mul(prod, m)
    if prod != g:
        return False
    sides = [s for _, s in factors]
    if any(s not in (0, 1) for s in sides):
        return False
    if any(s == t for s, t in zip(sides, sides[1:])):
        return False
    for m, s in factors:
        if not (in_g0(m, p) if s == 0 else in_g1(m, p)):
            return False
    return len(factors) <= base_distance(g, p) + 1


# ---------------------------------------------------------------------------
# the tree ball


def ball_size(p: int, r: int) -> int:
    return 1 + (p + 1) * (p**r - 1) // (p - 1)


def ball_checks(depth: dict, edges: list, p: int, r: int) -> list:
    """Closed-form vertex count and depth census, edge count V - 1, and
    edges that join consecutive depths between known vertices."""
    census = [0] * (r + 1)
    for d in depth.values():
        if 0 <= d <= r:
            census[d] += 1
    want = [1] + [(p + 1) * p ** (d - 1) for d in range(1, r + 1)]
    edges_ok = len(edges) == len(depth) - 1 and all(
        u in depth and v in depth and abs(depth[u] - depth[v]) == 1
        for u, v in edges
    )
    return [
        ("ball vertex count", len(depth) == ball_size(p, r)),
        ("ball depth census", census == want and len(depth) == sum(want)),
        ("ball edges", edges_ok),
    ]


# ---------------------------------------------------------------------------
# lambda_1 on RP~(GF(p)) for p = 3 mod 4


def legendre(a: int, p: int) -> int:
    return pow(a % p, (p - 1) // 2, p)


def lambda1_functional(vec, W, p: int) -> int:
    """For p = 3 mod 4, lambda_1 descends to RP~(GF(p)) -> Z[G] and equals
    (2 - 2<e>) * f(v) with f(v) = sum over a in W with a and 1-a both
    non-squares of v[(1, a)] - v[(<e>, a)], on the flat basis index
    g * |W| + i of ScissorsContext.rp_vector.  f(v) != 0 proves v != 0."""
    if p % 4 != 3:
        raise ValueError("lambda_1 descends to RP~ only when -1 is a non-square")
    n = len(W)
    total = 0
    for i, a in enumerate(W):
        if legendre(a, p) == p - 1 and legendre(1 - a, p) == p - 1:
            total += int(vec[i]) - int(vec[n + i])
    return total
