"""Symbolic elements of the refined scissors module of Q and their
specialization at a p-adic valuation: the map S_v into the induced module
over GF(p), its components delta_pi / delta_0 through (rho_0, rho_pi), the
sign-twisted variants through rho'_pi, and the eta maps into the tilde
pre-Bloch group of the residue field.

Square classes of Q are (sign, squarefree integer) pairs, QSqClass values
that multiply by ``^`` as the finite rings' bitmask classes do.  Q_CLASSES
is their group for ``groupring``, with identity ``Q_CLASSES.one`` = QONE,
so the group-ring product ``r_mul``, the action ``act``, the brackets and
p_{-1}^+ are those of the finite rings.  Module elements are finite integer
combinations of (class, rational parameter) symbols.  All reductions land
in the exact presentations from the scissors module.

S_v reads little from a symbol <c>[t]: the sign of v_p(t) and, when
v_p(t) = 0, the residue of t; the parity of v_p(c) and the square class of
the residue of c's unit part, read in one integer pass with a table of
inverses mod p.  Those data name one of the 2(p + 1)|G| *cases* of S_v,
and a case is one int, its case key (`SpecializationContext.case_key`).
S_v is held as its terms, the pairs (case key, coefficient), and whether
it is zero is one pass through the quotient map of RP~(GF(p)) +
RP~(GF(p)) read by case key (`SpecializationContext.cases`).  For a
five-term relation Y(a, b) the keys follow by integer arithmetic from the
*local types* of a and b, (v_p(a), unit residue of a, v_p(1 - a), unit
residue of 1 - a) (`SpecializationContext.y_symbol_data`), so a sweep over
many pairs evaluates S_v once per distinct datum and builds no relation.
Elements of RP~(k) and P~(k) are sparse `RPtElem`s; `.vec` is their dense
view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .groupring import act, add, dbl_bracket, p_plus, scale
from .linalg import FpAb, KeyedFpAb, _dense, direct_sum
from .rings import GF, is_prime, sufficiently_large
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

    def __xor__(self, other: "QSqClass") -> "QSqClass":
        """The product of two classes: Q^x / Q^x2 is an F2-space, so it is
        written ``^``, as the bitmask classes of a finite ring are."""
        g = math.gcd(self.n, other.n)
        return _sqclass(self.sign * other.sign, (self.n // g) * (other.n // g))


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


class _QClassGroup:
    """The square classes of Q as a group for ``groupring``."""

    one = QONE
    class_of = staticmethod(qclass)

    def neg_one(self) -> QSqClass:
        return qclass(-1)


Q_CLASSES = _QClassGroup()


def _strip(num: int, den: int, p: int) -> tuple[int, int, int]:
    """(v, num', den') with num / den = p^v * num' / den' and p dividing
    neither num' nor den', for integers num != 0 and den != 0; a zero den
    reaches _halve, which refuses it."""
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got {p}")
    if num == 0:
        raise ValueError("0 has no valuation")
    v, num = _remove(num, p)
    w, den = _remove(den, p)
    return v - w, num, den


# valuations up to _SHORT are read one factor of p at a time, past it by
# _halve.  One division per factor is the cheaper of the two below about
# v = 16 to 20 (at p = 2, 5, 7, 11 and 139 on entries of 30 to 40 bits);
# the amalgam words of the `tree` benchmark read v = 0 in 58 % of their
# vp_int calls, v > 4 in 3.5 % and v >= 16 in 3 of 32 550, and calling
# _halve from the first factor on cost that benchmark 15 % of its items
# per second
_SHORT = 16


def _remove(n: int, p: int) -> tuple[int, int]:
    """(v, n / p^v) with v = v_p(n), for an integer n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if v == _SHORT:
            w, n = _halve(n, p)
            return v + w, n
    return v, n


def _halve(n: int, p: int) -> tuple[int, int]:
    """(v, n / p^v) with v = v_p(n), for an integer n != 0, by a halving
    search: it divides by p, p^2, p^4, ... while they divide and then by
    the same powers downwards, so it takes O(log v) divisions where one
    factor at a time takes v."""
    if n == 0:
        raise ValueError("a valuation needs a nonzero denominator")
    v, k, pk = 0, 1, p
    powers = []
    while True:
        q, r = divmod(n, pk)
        if r:
            break
        n, v = q, v + k
        powers.append((k, pk))
        k, pk = 2 * k, pk * pk
    # p^k no longer divides n, so what is left of v_p is a sum of distinct
    # earlier k
    for k, pk in reversed(powers):
        q, r = divmod(n, pk)
        if not r:
            n, v = q, v + k
    return v, n


def vp_int(num: int, den: int, p: int) -> int:
    """p-adic valuation of num / den for integers num != 0 and den != 0.
    The loops of _remove, kept inline: the tree's keys call this in their
    inner loops, where the extra call cost the `tree` benchmark about 2 %
    of its items per second.  A zero den reaches _halve, which refuses it."""
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got {p}")
    if num == 0:
        raise ValueError("0 has no valuation")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
        if v == _SHORT:
            v += _halve(num, p)[0]
            break
    if den % p:
        return v
    w = 0
    while den % p == 0:
        den //= p
        w += 1
        if w == _SHORT:
            w += _halve(den, p)[0]
            break
    return v - w


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


# SymRP: finite formal sum over (QSqClass, parameter) with parameter not 0, 1.
SymRP = dict
# RingVal: element of Z[G_Q] with finite support.
RingVal = dict


def sym_gen(a, cls: QSqClass = QONE, coeff: int = 1) -> SymRP:
    a = Fraction(a)
    if a in (0, 1):
        raise ValueError("parameters 0 and 1 are excluded")
    return {(cls, a): coeff}


# bench/workloads.py calls the action on symbolic elements by this name
sym_act = act


def sym_dbl_bracket(a) -> RingVal:
    """<<a>> = <a> - 1 over the rational square classes."""
    return dbl_bracket(Q_CLASSES, a)


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
    return add(out, act(sym_dbl_bracket(1 - a), sym_psi1(a)))


def sym_g(a) -> SymRP:
    """g(a) = p_{-1}^+ [a] + <<1-a>> psi_1(a) for rational a not in {0, 1}."""
    a = Fraction(a)
    if a in (0, 1):
        raise ValueError("g(a) needs a not in {0, 1}")
    out = act(p_plus(Q_CLASSES), sym_gen(a))
    return add(out, act(sym_dbl_bracket(1 - a), sym_psi1(a)))


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
    """An element of RP~(k) or P~(k), held as its {index: value}
    coordinates in that group; the dense coordinate vector is built on the
    first read of .vec."""

    def __init__(self, group: FpAb, entries: dict):
        self.group = group
        self.entries = entries
        self._vec = None

    @property
    def vec(self) -> np.ndarray:
        if self._vec is None:
            self._vec = _dense([self.entries], self.group.ngens)[0]
        return self._vec

    def is_zero(self) -> bool:
        return self.group.contains(self.entries)

    def __eq__(self, other):
        if not isinstance(other, RPtElem) or other.group is not self.group:
            return NotImplemented
        return (self - other).is_zero()

    def __sub__(self, other: "RPtElem") -> "RPtElem":
        return RPtElem(self.group, add(self.entries, scale(-1, other.entries)))


@dataclass(eq=False)
class IndElem:
    """Image of S_v through (rho_0, rho_pi), a pair of RP~(k) elements, held
    as S_v's terms, the pairs (case key, coefficient) that
    ``SpecializationContext.cases`` reads; comp0 and comp_pi are built from
    the case entries when read."""

    ctx: "SpecializationContext"
    terms: tuple

    def is_zero(self) -> bool:
        return self.ctx.cases.contains(self.terms)

    def component(self, even: int, odd: int) -> RPtElem:
        """even * rho_0 + (odd - even) * rho_pi: each term's case entries
        times its coefficient times ``odd`` if e is odd, else ``even``.  A
        key outside the cases is a ValueError, as for ``is_zero``: the list
        of cases would take a negative one from its end."""
        cases, out = self.ctx._cases, {}
        for key, coeff in self.terms:
            if not 0 <= key >> 1 < len(cases):
                raise ValueError(self.ctx._refusal.format(key))
            c = coeff * (odd if key & 1 else even)
            if c:
                for i, v in cases[key >> 1]:
                    out[i] = out.get(i, 0) + c * v
        return RPtElem(self.ctx.rp_tilde, out)

    comp0 = property(lambda self: self.component(1, 1))
    comp_pi = property(lambda self: self.component(0, 1))


# What s_v reads from a symbol <c>[t]:
#   parameter data (s, r): s the sign of v_p(t), r the residue of t when
#     s = 0 and 0 otherwise;
#   class data (e, g): e the parity of v_p(c), g the square class in GF(p)
#     of the residue of c's unit part.
ParamData = tuple[int, int]
ClassData = tuple[int, int]
# (v_p(a), unit residue of a, v_p(1 - a), unit residue of 1 - a)
LocalType = tuple[int, int, int, int]


class SpecializationContext:
    """Specialization of symbolic RP(Q) elements at the prime p.

    A case of S_v, parameter data (s, r) and class data (e, g), is the int
    key = 2 * (i * |G| + g) + e (``case_key``), where the parameter index i
    is 0 for s = 1, 1 for s = -1 and 1 + r for s = 0: the keys of the
    2(p + 1)|G| cases are range(2(p + 1)|G|).  ``_cases[key >> 1]`` holds
    the case's RP~(k) entries, and ``cases`` reads RP~(k) + RP~(k) by key."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not sufficiently_large(p):
            raise ValueError("residue field must be sufficiently large (p >= 11)")
        self.p = p
        self.k: GF = GF(p)
        self.sc: ScissorsContext = scissors_context(self.k)
        self.rp_tilde: FpAb = self.sc.rp_tilde
        self.p_tilde: FpAb = self.sc.p_tilde
        ck = self.sc.rp_row(self.sc.big_c())
        self._ck_entries = sorted((i, int(x)) for i, x in ck.items() if x)
        # square class in GF(p) and inverse mod p of each nonzero residue
        self._gorder = self.sc.G.order
        self._gclass = [0] + [self.sc.G.class_of(u) for u in range(1, p)]
        self._inv = [0] + [pow(u, -1, p) for u in range(1, p)]
        # the RP~(k) entries of each case (parameter data, residue class g)
        # of S_v, at i * |G| + g for the parameter index i
        params = [(1, 0), (-1, 0)] + [(0, u) for u in range(1, p)]
        self._cases = [self._case(d, g) for d in params for g in range(self._gorder)]
        # RP~(k) + RP~(k), the target of (rho_0, rho_pi), read by case key:
        # a case's entries go into rho_0's coordinates, and into rho_pi's
        # too when e is odd.  The rows are a dict, so that a key outside
        # range(2(p + 1)|G|), a negative one too, has no row
        n = self.rp_tilde.ngens
        rows = {2 * c + e: {**dict(x), **{n + i: v for i, v in x if e}}
                for c, x in enumerate(self._cases) for e in (0, 1)}
        self._refusal = f"S_v case {{!r}} is not a case key in range({len(rows)})"
        self.cases = KeyedFpAb(direct_sum(self.rp_tilde, self.rp_tilde), rows, self._refusal)

    def case_key(self, param: ParamData, cdata: ClassData) -> int:
        """The key of the case with parameter data (s, r) and class data
        (e, g); ValueError for data that name no case."""
        (s, r), (e, g) = param, cdata
        if (s, r) in ((1, 0), (-1, 0)):
            i = 0 if s == 1 else 1
        elif s == 0 and 0 < r < self.p:
            i = 1 + r
        else:
            raise ValueError(f"{param!r} is not the parameter data of an S_v case")
        if e not in (0, 1) or not 0 <= g < self._gorder:
            raise ValueError(f"{cdata!r} is not the class data of an S_v case")
        return 2 * (i * self._gorder + g) + e

    def case_of(self, key: int) -> tuple[ParamData, ClassData]:
        """(parameter data, class data) of a case key: case_key's inverse."""
        if not 0 <= key < 2 * len(self._cases):
            raise ValueError(self._refusal.format(key))
        i, g = divmod(key >> 1, self._gorder)
        param = ((1, 0), (-1, 0))[i] if i < 2 else (0, i - 1)
        return param, (key & 1, g)

    # residue of a p-adic unit rational, as an element of GF(p)
    def residue(self, a) -> int:
        a = _rational(a)
        v, u = padic_read(a.numerator, a.denominator, self.p)
        if v != 0:
            raise ValueError(f"{a} is not a p-adic unit")
        return u

    def symbol_data(self, cls: QSqClass, a) -> int:
        """The case key s_v reads from the symbol <cls>[a]."""
        return self.s_v({(cls, a): 1}).terms[0][0]

    def _case(self, param: ParamData, g: int) -> list:
        """The nonzero (index, value) entries of the RP~(k) coordinate of S_v
        on a symbol with this parameter data, moved by the residue class g."""
        s, u = param
        if s:
            entries = [(i, s * x) for i, x in self._ck_entries]
        elif u == 1:
            # parameters reducing to 1 specialize to 0 (their classes
            # generate the kernel L_v of S_v)
            entries = []
        else:
            entries = [(self.sc.refined().flat_index(0, self.sc.windex[u]), 1)]
        if g:
            # moved = base[perm], and perm is an involution (g * g = 1 in
            # G), so the entry of base at i lands at perm[i]
            perm = self.sc.refined().act_permutation(g)
            entries = [(int(perm[i]), x) for i, x in entries]
        return entries

    def s_v_of(self, data: tuple) -> IndElem:
        """S_v followed by (rho_0, rho_pi), reduced in RP~(GF(p)), on the
        (case key, coefficient) of each symbol, as y_symbol_data derives
        them from local types: the data are S_v's terms as they stand."""
        return IndElem(self, data)

    def s_v(self, x: SymRP) -> IndElem:
        """S_v followed by (rho_0, rho_pi), reduced in RP~(GF(p)).  Each
        symbol's case key is read in one integer pass, inline: p is
        stripped from the parameter's numerator and denominator and from
        the class, and the unit residue comes from the table of inverses."""
        p, inv, gclass, width = self.p, self._inv, self._gclass, 2 * self._gorder
        terms = []
        for (cls, a), coeff in x.items():
            num, den, n = a.numerator, a.denominator, cls.n
            if not num or not n:
                raise ValueError("0 has no valuation")
            v = 0
            while num % p == 0:
                num //= p
                v += 1
            while den % p == 0:
                den //= p
                v -= 1
            # n is squarefree, so p divides it at most once
            if n % p:
                e = 0
            else:
                e, n = 1, n // p
            i = (1 + num * inv[den % p] % p) if v == 0 else (0 if v > 0 else 1)
            terms.append((width * i + 2 * gclass[cls.sign * n % p] + e, coeff))
        return IndElem(self, tuple(terms))

    def local_type(self, a) -> LocalType:
        """(v_p(a), unit residue of a, v_p(1 - a), unit residue of 1 - a) of
        a rational a not in {0, 1}."""
        num, den = a.numerator, a.denominator
        return padic_read(num, den, self.p) + padic_read(den - num, den, self.p)

    def y_symbol_data(self, ta: LocalType, tb: LocalType) -> tuple:
        """(case key, coefficient) of each symbol of sym_y_relation(a, b),
        in its order, from the local types of a and b alone: the parameters
        are a, b, b/a, (1 - a)b / (a(1 - b)) and (1 - a)/(1 - b), with the
        classes 1, 1, <a>, <(1 - a)/a>, <1 - a>.  A key is width * i + 2g + e
        (``case_key``), i read inline from the valuation and unit residue."""
        p, gc, width = self.p, self._gclass, 2 * self._gorder
        va, ua, wa, xa = ta
        vb, ub, wb, xb = tb
        ia, ixb = self._inv[ua], self._inv[xb]
        one = 2 * gc[1]
        v3, v4, v5 = vb - va, wa + vb - va - wb, wa - wb
        return (
            (width * ((1 + ua) if va == 0 else (0 if va > 0 else 1)) + one, 1),
            (width * ((1 + ub) if vb == 0 else (0 if vb > 0 else 1)) + one, -1),
            (width * ((1 + ub * ia % p) if v3 == 0 else (0 if v3 > 0 else 1)) + 2 * gc[ua] + (va & 1), 1),
            (
                width * ((1 + xa * ub * ia * ixb % p) if v4 == 0 else (0 if v4 > 0 else 1))
                + 2 * gc[xa * ia % p]
                + ((wa - va) & 1),
                -1,
            ),
            (width * ((1 + xa * ixb % p) if v5 == 0 else (0 if v5 > 0 else 1)) + 2 * gc[xa] + (wa & 1), 1),
        )

    def delta_pi(self, x: SymRP) -> RPtElem:
        return self.s_v(x).comp_pi

    def delta_0(self, x: SymRP) -> RPtElem:
        return self.s_v(x).comp0

    def delta_pi_prime(self, x: SymRP) -> RPtElem:
        """rho'_pi composite: <a> (x) m -> (-1)^{v(a)} <u_a-bar> m.  As
        (-1)^v = 1 - 2[v odd], this is rho_0 - 2 rho_pi."""
        return self.s_v(x).component(1, -1)

    def _to_p_tilde(self, x: RPtElem) -> RPtElem:
        """The image in P~ of the coinvariants map, which sends flat index
        g * |W| + i to W index i."""
        n = len(self.sc.W)
        out: dict = {}
        for i, v in x.entries.items():
            out[i % n] = out.get(i % n, 0) + v
        return RPtElem(self.p_tilde, out)

    def eta_pi(self, x: SymRP) -> RPtElem:
        return self._to_p_tilde(self.delta_pi(x))

    def eta_pi_prime(self, x: SymRP) -> RPtElem:
        return self._to_p_tilde(self.delta_pi_prime(x))

    def p_tilde_scale(self, n: int, x: RPtElem) -> RPtElem:
        return RPtElem(self.p_tilde, scale(n, x.entries))

    def reduce_rp_elem(self, x) -> RPtElem:
        """Reduce a finite-ring RPElem of GF(p) in RP~(GF(p))."""
        return RPtElem(self.rp_tilde, self.sc.rp_row(x))

    def surjectivity_witness(self, abar: int) -> tuple[SymRP, bool]:
        """Preimage <<p>> g(a) of g(abar) under delta_pi, with the check
        that it does map onto g(abar) modulo relations."""
        if abar not in self.sc.windex:
            raise ValueError(f"{abar} is not in W of GF({self.p})")
        a = Fraction(int(abar))
        x = act(sym_dbl_bracket(self.p), sym_g(a))
        img = self.delta_pi(x)
        target = self.reduce_rp_elem(self.sc.g_gen(abar))
        return x, img == target


@lru_cache(maxsize=None)
def specialization(p: int) -> SpecializationContext:
    return SpecializationContext(p)
