"""Symbolic elements of the refined scissors module of Q and their
specialization at a p-adic valuation: the map S_v into the induced module
over GF(p), its components delta_pi / delta_0 through (rho_0, rho_pi), the
sign-twisted variants through rho'_pi, and the eta maps into the tilde
pre-Bloch group of the residue field.

Square classes of Q are (sign, squarefree integer) pairs; module elements
are finite integer combinations of (class, rational parameter) symbols.
All reductions land in the exact presentations from the scissors module.

S_v reads little from a symbol <c>[t]: the sign of v_p(t) and, when
v_p(t) = 0, the residue of t; the parity of v_p(c) and the square class of
the residue of c's unit part.  Each is one integer pass over the numerator
and denominator (`padic_read`), with no Fraction arithmetic, and the images
add into sparse {index: value} dicts, tested for zero through the cached
quotient map of RP~(GF(p)).  For a five-term relation Y(a, b) that data
follows by integer arithmetic from the *local types* of a and b,
(v_p(a), unit residue of a, v_p(1 - a), unit residue of 1 - a)
(`SpecializationContext.y_symbol_data`), so a sweep over many pairs needs
S_v once per distinct datum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .groupring import add, scale
from .linalg import FpAb, zeros
from .rings import GF, is_prime
from .scissors import ScissorsContext, context as scissors_context


def _squarefree_decompose(n: int) -> int:
    """Squarefree part of a positive integer (trial division)."""
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1 if d == 2 else 2
    return out * n


# largest |numerator| or |denominator| of a rational whose square class is
# formed, and largest representative of a directly built QSqClass: finding
# a squarefree part trial-divides to the square root, 10^6 steps (about
# 0.2 s) at this cap
MAX_CLASS_ENTRY = 10**12


@dataclass(frozen=True, slots=True)
class QSqClass:
    """A square class of Q: sign and squarefree positive integer."""

    sign: int
    n: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if self.n > MAX_CLASS_ENTRY:
            raise ValueError(f"square class representative {self.n} is more than {MAX_CLASS_ENTRY}")
        if self.n < 1 or _squarefree_decompose(self.n) != self.n:
            raise ValueError("representative must be squarefree and positive")

    def mul(self, other: "QSqClass") -> "QSqClass":
        g = math.gcd(self.n, other.n)
        return _sqclass(self.sign * other.sign, (self.n // g) * (other.n // g))

    def is_one(self) -> bool:
        return self.sign == 1 and self.n == 1

    def value(self) -> Fraction:
        return Fraction(self.sign * self.n)


@lru_cache(maxsize=4096)
def _sqclass(sign: int, n: int) -> QSqClass:
    """A QSqClass whose n is squarefree by construction (a product of
    coprime squarefree parts), built without the checks of __post_init__:
    a product of classes may exceed what they can factor in time.  Shared
    between calls, as symbols repeat few classes."""
    out = object.__new__(QSqClass)
    object.__setattr__(out, "sign", sign)
    object.__setattr__(out, "n", n)
    return out


QONE = QSqClass(1, 1)


def qclass(a) -> QSqClass:
    """Square class of a nonzero rational whose numerator and denominator
    are at most MAX_CLASS_ENTRY in size (refused before any factoring)."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("0 has no square class")
    num, den = abs(a.numerator), a.denominator
    if max(num, den) > MAX_CLASS_ENTRY:
        raise ValueError(f"square class of {a}: an entry is more than {MAX_CLASS_ENTRY}")
    # num and den are coprime, so the product of their squarefree parts is
    # squarefree
    return _sqclass(1 if a > 0 else -1, _squarefree_decompose(num) * _squarefree_decompose(den))


def _strip(num: int, den: int, p: int) -> tuple[int, int, int]:
    """(v, num', den') with num / den = p^v * num' / den' and p dividing
    neither num' nor den', for integers num != 0 and den != 0."""
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got {p}")
    if num == 0:
        raise ValueError("0 has no valuation")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def vp_int(num: int, den: int, p: int) -> int:
    """p-adic valuation of num / den for integers num != 0 and den != 0.
    The loop of _strip, kept inline: the tree's keys call this in their
    inner loops, where the extra call cost the `tree` benchmark about 2 %
    of its items per second."""
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got {p}")
    if num == 0:
        raise ValueError("0 has no valuation")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_read(num: int, den: int, p: int) -> tuple[int, int]:
    """(v_p(a), residue mod p of the unit part a / p^v_p(a)) of a = num / den,
    for integers num != 0 and den != 0 and a prime p, in one integer pass."""
    v, num, den = _strip(num, den, p)
    return v, num * pow(den, -1, p) % p


def _rational(a):
    """a itself if it is an int or a Fraction, else Fraction(a)."""
    return a if isinstance(a, (int, Fraction)) else Fraction(a)


def vp(a, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    a = _rational(a)
    return vp_int(a.numerator, a.denominator, p)


def unit_part(a, p: int) -> Fraction:
    """The p-adic unit u with a = u * p^v(a)."""
    a = _rational(a)
    _, num, den = _strip(a.numerator, a.denominator, p)
    return Fraction(num, den)


# SymRP: finite formal sum over (QSqClass, parameter) with parameter not 0, 1.
SymRP = dict
# RingVal: element of Z[G_Q] with finite support.
RingVal = dict


def sym_gen(a, cls: QSqClass = QONE, coeff: int = 1) -> SymRP:
    a = Fraction(a)
    if a in (0, 1):
        raise ValueError("parameters 0 and 1 are excluded")
    return {(cls, a): coeff}


def sym_act(r: RingVal, x: SymRP) -> SymRP:
    out: SymRP = {}
    for g, c in r.items():
        for (h, a), d in x.items():
            k = (g.mul(h), a)
            out[k] = out.get(k, 0) + c * d
    return {k: c for k, c in out.items() if c}


def ring_one() -> RingVal:
    return {QONE: 1}


def ring_mul(x: RingVal, y: RingVal) -> RingVal:
    out: RingVal = {}
    for g, c in x.items():
        for h, d in y.items():
            k = g.mul(h)
            out[k] = out.get(k, 0) + c * d
    return {k: c for k, c in out.items() if c}


def sym_bracket(a) -> RingVal:
    return {qclass(a): 1}


def sym_dbl_bracket(a) -> RingVal:
    """<<a>> = <a> - 1 over the rational square classes."""
    g = qclass(a)
    if g.is_one():
        return {}
    return {g: 1, QONE: -1}


def sym_psi1(a) -> SymRP:
    """psi_1(a) = [a] + <-1>[1/a] for rational a not in {0, 1}; psi_1(1)=0."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("psi_1 needs a nonzero argument")
    if a == 1:
        return {}
    return add(sym_gen(a), sym_gen(1 / a, qclass(-1)))


BASE_POINT = Fraction(2)


def sym_big_c() -> SymRP:
    """C over Q from the canonical base point 2: [2] + <-1>[-1] + <<-1>>psi_1(2)."""
    a = BASE_POINT
    out = add(sym_gen(a), sym_gen(1 - a, qclass(-1)))
    return add(out, sym_act(sym_dbl_bracket(1 - a), sym_psi1(a)))


def sym_g(a) -> SymRP:
    """g(a) = p_{-1}^+ [a] + <<1-a>> psi_1(a) for rational a not in {0, 1}."""
    a = Fraction(a)
    if a in (0, 1):
        raise ValueError("g(a) needs a not in {0, 1}")
    pp = add(sym_bracket(-1), ring_one())
    out = sym_act(pp, sym_gen(a))
    return add(out, sym_act(sym_dbl_bracket(1 - a), sym_psi1(a)))


def sym_y_relation(a, b) -> SymRP:
    """The refined five-term relation over Q (same sign convention as the
    finite-ring presentation)."""
    a, b = Fraction(a), Fraction(b)
    for t in (a, b, a / b):
        if t in (0, 1):
            raise ValueError("inadmissible pair")
    t3 = b / a
    t4 = (1 - 1 / a) / (1 - 1 / b)
    t5 = (1 - a) / (1 - b)
    out = sym_gen(a)
    out = add(out, scale(-1, sym_gen(b)))
    out = add(out, sym_gen(t3, qclass(a)))
    out = add(out, scale(-1, sym_gen(t4, qclass(1 / a - 1))))
    out = add(out, sym_gen(t5, qclass(1 - a)))
    return out


# ---------------------------------------------------------------------------
# specialization


class RPtElem:
    """An element of RP~(k), held as its {index: value} coordinates; the
    flat coordinate vector is built on the first read of .vec."""

    def __init__(self, ctx: "SpecializationContext", coords):
        self.ctx = ctx
        if isinstance(coords, dict):
            self.entries, self._vec = coords, None
        else:
            self.entries = {i: int(x) for i, x in enumerate(coords) if x}
            self._vec = coords

    @property
    def vec(self) -> np.ndarray:
        if self._vec is None:
            out = zeros(1, self.ctx.rp_tilde.ngens)[0]
            for i, v in self.entries.items():
                out[i] = v
            self._vec = out
        return self._vec

    def is_zero(self) -> bool:
        return self.ctx.rp_tilde.contains(self.entries)

    def __eq__(self, other):
        if not isinstance(other, RPtElem) or other.ctx is not self.ctx:
            return NotImplemented
        return (self - other).is_zero()

    def __sub__(self, other: "RPtElem") -> "RPtElem":
        return RPtElem(self.ctx, add(self.entries, scale(-1, other.entries)))


class PtElem:
    """An element of P~(k), held as a coordinate vector over W."""

    def __init__(self, ctx: "SpecializationContext", vec: np.ndarray):
        self.ctx = ctx
        self.vec = vec

    def is_zero(self) -> bool:
        return self.ctx.p_tilde.contains(self.vec)

    def __eq__(self, other):
        if not isinstance(other, PtElem) or other.ctx is not self.ctx:
            return NotImplemented
        return self.ctx.p_tilde.contains(self.vec - other.vec)


@dataclass
class IndElem:
    """Image of S_v through (rho_0, rho_pi): a pair of RP~(k) elements."""

    comp0: RPtElem
    comp_pi: RPtElem

    def is_zero(self) -> bool:
        return self.comp0.is_zero() and self.comp_pi.is_zero()


# What s_v reads from a symbol <c>[t]:
#   parameter data (s, r): s the sign of v_p(t), r the residue of t when
#     s = 0 and 0 otherwise;
#   class data (e, g): e the parity of v_p(c), g the square class in GF(p)
#     of the residue of c's unit part.
ParamData = tuple[int, int]
ClassData = tuple[int, int]
# (v_p(a), unit residue of a, v_p(1 - a), unit residue of 1 - a)
LocalType = tuple[int, int, int, int]


def _param_data(v: int, u: int) -> ParamData:
    if v == 0:
        return 0, u
    return (1 if v > 0 else -1), 0


class SpecializationContext:
    """Specialization of symbolic RP(Q) elements at the prime p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p < 11:
            raise ValueError("residue field must be sufficiently large (p >= 11)")
        self.p = p
        self.k: GF = GF(p)
        self.sc: ScissorsContext = scissors_context(self.k)
        tb = self.sc.tilde()
        self.rp_tilde: FpAb = tb.rp_tilde
        self.p_tilde: FpAb = tb.p_tilde
        ck = self.sc.rp_row(self.sc.big_c())
        self._ck_entries = sorted((i, int(x)) for i, x in ck.items() if x)
        # square class in GF(p) of each nonzero residue
        self._gclass = [0] + [self.sc.G.class_of(u) for u in range(1, p)]
        self._classes: dict[tuple[int, int], ClassData] = {}
        self._cases: dict[tuple[ParamData, int], list[tuple[int, int]]] = {}

    # residue of a p-adic unit rational, as an element of GF(p)
    def residue(self, a) -> int:
        a = _rational(a)
        v, u = padic_read(a.numerator, a.denominator, self.p)
        if v != 0:
            raise ValueError(f"{a} is not a p-adic unit")
        return u

    def _class_data(self, cls: QSqClass) -> ClassData:
        """Class data, cached per (sign, n): symbols repeat few classes."""
        key = (cls.sign, cls.n)
        out = self._classes.get(key)
        if out is None:
            v, u = padic_read(cls.sign * cls.n, 1, self.p)
            out = self._classes[key] = (v & 1, self._gclass[u])
        return out

    def symbol_data(self, cls: QSqClass, a) -> tuple[ParamData, ClassData]:
        """The data s_v reads from the symbol <cls>[a]."""
        return _param_data(*padic_read(a.numerator, a.denominator, self.p)), self._class_data(cls)

    def _case_entries(self, param: ParamData, g: int) -> list[tuple[int, int]]:
        """The nonzero (index, value) entries of the RP~(k) coordinate of S_v
        on a symbol with this parameter data, moved by the residue class g;
        cached, as there are at most 2(p + 1) of them."""
        out = self._cases.get((param, g))
        if out is None:
            s, u = param
            if s:
                out = [(i, s * x) for i, x in self._ck_entries]
            elif u == 1:
                # parameters reducing to 1 specialize to 0 (their classes
                # generate the kernel L_v of S_v)
                out = []
            else:
                out = [(self.sc.refined().flat_index(0, self.sc.windex[u]), 1)]
            if g:
                # moved = base[perm], and perm is an involution (g * g = 1
                # in G), so the entry of base at i lands at perm[i]
                perm = self.sc.refined().act_permutation(g)
                out = [(int(perm[i]), x) for i, x in out]
            self._cases[(param, g)] = out
        return out

    def _terms(self, x: SymRP):
        """For each symbol of x: its coefficient, the valuation parity of
        its class, and the nonzero entries of its moved case vector."""
        for (cls, a), coeff in x.items():
            param, (e, g) = self.symbol_data(cls, a)
            yield coeff, e, self._case_entries(param, g)

    def s_v(self, x: SymRP) -> IndElem:
        """S_v followed by (rho_0, rho_pi), reduced in RP~(GF(p))."""
        c0: dict = {}
        cpi: dict = {}
        for coeff, e, entries in self._terms(x):
            for acc in (c0, cpi) if e else (c0,):
                for i, v in entries:
                    acc[i] = acc.get(i, 0) + coeff * v
        return IndElem(RPtElem(self, c0), RPtElem(self, cpi))

    def local_type(self, a) -> LocalType:
        """(v_p(a), unit residue of a, v_p(1 - a), unit residue of 1 - a) of
        a rational a not in {0, 1}."""
        num, den = a.numerator, a.denominator
        return padic_read(num, den, self.p) + padic_read(den - num, den, self.p)

    def y_symbol_data(self, ta: LocalType, tb: LocalType) -> tuple:
        """(coefficient, parameter data, class data) of each symbol of
        sym_y_relation(a, b), in its order, from the local types of a and b
        alone: the parameters are a, b, b/a, (1 - a)b / (a(1 - b)) and
        (1 - a)/(1 - b), with the classes 1, 1, <a>, <(1 - a)/a>, <1 - a>."""
        p, gc = self.p, self._gclass
        va, ua, wa, xa = ta
        vb, ub, wb, xb = tb
        ia, ixb = pow(ua, -1, p), pow(xb, -1, p)
        one = (0, gc[1])
        return (
            (1, _param_data(va, ua), one),
            (-1, _param_data(vb, ub), one),
            (1, _param_data(vb - va, ub * ia % p), (va & 1, gc[ua])),
            (
                -1,
                _param_data(wa + vb - va - wb, xa * ub * ia * ixb % p),
                ((wa - va) & 1, gc[xa * ia % p]),
            ),
            (1, _param_data(wa - wb, xa * ixb % p), (wa & 1, gc[xa])),
        )

    def _act_vec(self, g: int, vec: np.ndarray) -> np.ndarray:
        if g == 0:
            return vec
        return vec[self.sc.refined().act_permutation(g)]

    def delta_pi(self, x: SymRP) -> RPtElem:
        return self.s_v(x).comp_pi

    def delta_0(self, x: SymRP) -> RPtElem:
        return self.s_v(x).comp0

    def delta_pi_prime(self, x: SymRP) -> RPtElem:
        """rho'_pi composite: <a> (x) m -> (-1)^{v(a)} <u_a-bar> m."""
        out: dict = {}
        for coeff, e, entries in self._terms(x):
            signed = -coeff if e else coeff
            for i, v in entries:
                out[i] = out.get(i, 0) + signed * v
        return RPtElem(self, out)

    def _to_p_tilde(self, x: RPtElem) -> PtElem:
        mat = self.sc.coinvariants_map()
        return PtElem(self, x.vec @ mat)

    def eta_pi(self, x: SymRP) -> PtElem:
        return self._to_p_tilde(self.delta_pi(x))

    def eta_pi_prime(self, x: SymRP) -> PtElem:
        return self._to_p_tilde(self.delta_pi_prime(x))

    def p_tilde_scale(self, n: int, x: PtElem) -> PtElem:
        return PtElem(self, n * x.vec)

    def reduce_rp_elem(self, x) -> RPtElem:
        """Reduce a finite-ring RPElem of GF(p) in RP~(GF(p))."""
        return RPtElem(self, self.sc.rp_row(x))

    def surjectivity_witness(self, abar: int) -> tuple[SymRP, bool]:
        """Preimage <<p>> g(a) of g(abar) under delta_pi, with the check
        that it does map onto g(abar) modulo relations."""
        if abar not in self.sc.windex:
            raise ValueError(f"{abar} is not in W of GF({self.p})")
        a = Fraction(int(abar))
        x = sym_act(sym_dbl_bracket(self.p), sym_g(a))
        img = self.delta_pi(x)
        target = self.reduce_rp_elem(self.sc.g_gen(abar))
        return x, img == target


@lru_cache(maxsize=None)
def specialization(p: int) -> SpecializationContext:
    return SpecializationContext(p)
