"""Order formulas for the global-field picture at a p-adic place: the
torsion constant w2 (24 for the rationals), the order of the image of
indecomposable K3 inside the pre-Bloch group of the residue field, and
the resulting quotient orders, cross-checked against the exact scissors
presentations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import odd_part
from .rings import is_prime, prime_power_decompose, sufficiently_large
from .scissors import context


@dataclass(frozen=True)
class GlobalFieldDesc:
    """The rationals (w2 = 24), or a user-supplied base field constant."""

    kind: str = "rationals"
    w2: int = 24

    def __post_init__(self):
        if self.w2 < 1:
            raise ValueError("w2 must be positive")


RATIONALS = GlobalFieldDesc()


def k3_image_order(desc: GlobalFieldDesc, q: int, char2: bool = False) -> int:
    """Order of the image of K3^ind of the valuation ring in P(k), |k| = q:
    gcd(w2, (q+1)/2), or gcd(w2, q+1) in characteristic 2.  The residue
    characteristic must not divide w2."""
    pd = prime_power_decompose(q)
    if pd is None:
        raise ValueError(f"{q} is not a prime power")
    p = pd[0]
    if char2:
        # the caller asserts a characteristic-2 base field, whose own w2 is
        # odd; the supplied constant is used as given
        if p != 2:
            raise ValueError("char2 branch needs a field of characteristic 2")
        return math.gcd(desc.w2, q + 1)
    if p == 2:
        raise ValueError("use char2=True for fields of characteristic 2")
    if desc.w2 % p == 0:
        raise ValueError(
            f"residue characteristic {p} divides w2 = {desc.w2}; the order"
            " formula does not apply"
        )
    return math.gcd(desc.w2, (q + 1) // 2)


@dataclass(frozen=True)
class PBarReport:
    """Order bookkeeping for the quotient of P(k)[1/2] by the image of
    the global torsion subgroup."""

    p: int
    p_plus_1_odd: int
    killed_order: int
    pbar_odd_order: int
    three_divides_p_plus_1: bool

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "(p+1)'": self.p_plus_1_odd,
            "killed": self.killed_order,
            "pbar_odd": self.pbar_odd_order,
            "3 | p+1": self.three_divides_p_plus_1,
        }


def pbar_order(desc: GlobalFieldDesc, p: int) -> PBarReport:
    """P(F_p)[1/2] is cyclic of order (p+1)'; the killed subgroup has
    order gcd(w2, p+1)'.  For the rationals the corollary branch (quotient
    by the image of c exactly when 3 | p+1) must agree."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not sufficiently_large(p):
        raise ValueError("the corollary branch needs p >= 11")
    total = odd_part(p + 1)
    killed = odd_part(math.gcd(desc.w2, p + 1))
    if total % killed:
        raise AssertionError("killed subgroup must embed in P(k)[1/2]")
    pbar = total // killed
    three = (p + 1) % 3 == 0
    if desc.kind == "rationals":
        # corollary: kill <c>, of odd order gcd(3, p+1), which is 1 unless 3 | p+1
        c_odd = odd_part(math.gcd(6, (p + 1) // 2))
        if total // c_odd != pbar:
            raise AssertionError("corollary and theorem branches disagree")
    return PBarReport(
        p=p,
        p_plus_1_odd=total,
        killed_order=killed,
        pbar_odd_order=pbar,
        three_divides_p_plus_1=three,
    )


def pbar_cross_check(p: int, desc: GlobalFieldDesc = RATIONALS) -> bool:
    """Full pipeline: the exact SNF presentation of P(GF(p)), the order of
    the distinguished element c inside it, and the quotient order must
    reproduce the report."""
    report = pbar_order(desc, p)
    ctx = context(f"gf({p})")
    pgrp = ctx.pre_bloch()
    odd = pgrp.odd_invariants()
    if pgrp.free_rank != 0:
        return False
    if math.prod(odd) != report.p_plus_1_odd:
        return False
    c_order = pgrp.element_order(ctx.pb_row(ctx.c_const()))
    if c_order != math.gcd(6, (p + 1) // 2):
        return False
    # c has odd order 1 unless 3 | p+1, since gcd(6, (p+1)/2) is then 1 or 2
    c_odd = odd_part(c_order)
    return (c_odd, report.p_plus_1_odd // c_odd) == (report.killed_order, report.pbar_odd_order)


# largest p_max pbar_table accepts: it sieves the integers up to p_max and
# reads pbar_order at each prime, about 3 s for p_max = 10^6
PBAR_TABLE_MAX_P = 10**6


def pbar_table(p_min: int, p_max: int, desc: GlobalFieldDesc = RATIONALS):
    if p_max > PBAR_TABLE_MAX_P:
        raise ValueError(f"p_max = {p_max} is above the limit {PBAR_TABLE_MAX_P}")
    if p_min > p_max:
        raise ValueError(f"p_min = {p_min} is more than p_max = {p_max}: the range is empty")
    # the primes up to p_max, by the sieve of Eratosthenes
    sieve = bytearray([0, 0]) + bytearray([1]) * max(0, p_max - 1)
    for f in range(2, math.isqrt(max(p_max, 0)) + 1):
        if sieve[f]:
            sieve[f * f :: f] = bytes(len(range(f * f, p_max + 1, f)))
    primes = (p for p in range(max(p_min, 11), p_max + 1) if sieve[p])
    return [pbar_order(desc, p) for p in primes if desc.w2 % p]
