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
from .rings import GF, is_prime, sufficiently_large
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
    p = q if is_prime(q) else _char_of_prime_power(q)
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


def _char_of_prime_power(q: int) -> int:
    from .rings import prime_power_decompose

    pd = prime_power_decompose(q)
    if pd is None:
        raise ValueError(f"{q} is not a prime power")
    return pd[0]


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
        # corollary: kill <c> (odd order gcd(3, p+1)) iff 3 | p+1
        c_odd = odd_part(math.gcd(6, (p + 1) // 2))
        expected = total // c_odd if three else total
        if expected != pbar:
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
    ctx = context(GF(p))
    pgrp = ctx.pre_bloch()
    odd = pgrp.odd_invariants()
    if pgrp.free_rank != 0:
        return False
    if math.prod(odd) != report.p_plus_1_odd:
        return False
    c_order = pgrp.element_order(ctx.pb_row(ctx.c_const()))
    if c_order != math.gcd(6, (p + 1) // 2):
        return False
    c_odd = odd_part(c_order)
    if report.three_divides_p_plus_1:
        if report.p_plus_1_odd // c_odd != report.pbar_odd_order:
            return False
        if c_odd != report.killed_order:
            return False
    else:
        if c_odd != 1 or report.killed_order != 1:
            return False
        if report.pbar_odd_order != report.p_plus_1_odd:
            return False
    return True


# largest p_max pbar_table accepts: it tests every integer up to p_max for
# primality and reads pbar_order at each prime, about 6.5 s for
# p_max = 10^6
PBAR_TABLE_MAX_P = 10**6


def pbar_table(p_min: int, p_max: int, desc: GlobalFieldDesc = RATIONALS):
    if p_max > PBAR_TABLE_MAX_P:
        raise ValueError(f"p_max = {p_max} is above the limit {PBAR_TABLE_MAX_P}")
    if p_min > p_max:
        raise ValueError(f"p_min = {p_min} is more than p_max = {p_max}: the range is empty")
    out = []
    p = max(p_min, 2)
    while p <= p_max:
        if is_prime(p) and p >= 11 and desc.w2 % p:
            out.append(pbar_order(desc, p))
        p += 1
    return out
