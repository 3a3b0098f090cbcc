"""The tree of homothety classes of rank-2 lattices over Z_(p): canonical
vertex keys, distances, neighbours and the step along a path, the GL2(Q)
action with its edge-orientation sign, the standard factor decomposition,
amalgam decomposition of SL2(Z[1/p]) matrices, and the congruence-subgroup
membership tests.

Vertex keys are pairs (a, c) encoding the class of the lattice spanned by
(p^a, 0) and (c, 1); a may be any integer and c is a rational in
[0, p^a) whose denominator is a power of p, which is exactly what is
needed to reach every homothety class.  The key also names the ball
c + p^a Z_p of Q_p, and the tree is the tree of these balls under
inclusion (Serre, *Trees*, 1980, Ch. II.1): the neighbours of a ball are
its p children and its parent.  So distances, the step along a path and
the amalgam walk's coset representatives are formulas in (a, c).

The public functions take and return matrices as 2x2 tuples of Fractions
(columns are the lattice basis), which covers all of GL2(Q), and keys as
VertexKey(a, c).  A VertexKey holds the integers (a, numerator of c,
denominator of c), so it hashes and compares as a plain tuple, and its
`.c` builds the Fraction only when read.  Inside, everything is
integers.  An element of M2(Z[1/p]) is a tuple (a, b, c, d, e) meaning
[[a, b], [c, d]] / p^e, normalized so that e = 0 or p does not divide all
four entries, so equal matrices have equal tuples; an SL2 element has
ad - bc = p^(2e) and its inverse is the adjugate with the same e.  A key
is (a, n, j) with c = n / p^j and p not dividing n when j > 0;
`_key_in` converts a VertexKey to it, refusing a c outside [0, p^a), and
`_key_out` converts back.  The amalgam walk and its validation run on
these tuples; the walk writes its word in normal form as it goes, reads
of w * base only a, whether c lies in Z_p and c mod p^2 (`_walk_read`),
and builds no key.
Fraction converts only at the edge: `_mat_in` reads a matrix in (refusing
entries outside Z[1/p]), `_cleared` clears every denominator of a
rational matrix by a homothety for the key functions, and `_mat_out`
builds the returned factors.

`_tree_nbrs` gives the p children and the parent of a key in closed form
on the plain tuple (a, n, p^j) that a VertexKey holds; `neighbors` wraps
it, and `ball_is_tree` certifies the ball in one BFS over those tuples
that checks each vertex's neighbours as it expands it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .rings import is_prime
from .valuation import vp, vp_int

Mat2 = tuple  # ((a, b), (c, d)) rows of Fractions
IMat = tuple  # (a, b, c, d, e): the integer matrix [[a, b], [c, d]] over p^e
IKey = tuple  # (a, n, j): the key (a, n / p^j)


def mat2(a, b, c, d) -> Mat2:
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_det(x: Mat2) -> Fraction:
    (a, b), (c, d) = x
    return a * d - b * c


def mat_inv(x: Mat2) -> Mat2:
    det = mat_det(x)
    if det == 0:
        raise ValueError("singular matrix")
    (a, b), (c, d) = x
    return ((d / det, -b / det), (-c / det, a / det))


def mat_scale(s, x: Mat2) -> Mat2:
    s = Fraction(s)
    (a, b), (c, d) = x
    return ((s * a, s * b), (s * c, s * d))


IDENT = mat2(1, 0, 0, 1)


def g_pi(p: int) -> Mat2:
    return mat2(0, -1, p, 0)


# ---------------------------------------------------------------------------
# integer matrices over a power of p, and the conversions at the edge

I_IDENT = (1, 0, 0, 1, 0)
I_ROT = (0, -1, 1, 0, 0)


def _cleared(m: Mat2) -> tuple[int, int, int, int, int]:
    """(A, B, C, D, L) with m = [[A, B], [C, D]] / L and L the least common
    denominator of the entries."""
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for row in m for x in row]
    den = math.lcm(*(x.denominator for x in xs))
    return (*(x.numerator * (den // x.denominator) for x in xs), den)


# words share their repeated factors, the coset representatives, as
# objects: fresh Fractions for every factor held 4 MB more over the 1200
# words of the tree benchmark; 128 entries keep the cosets in use
@lru_cache(maxsize=128)
def _mat_out(m: IMat, p: int) -> Mat2:
    a, b, c, d, e = m
    pe = p**e
    return ((Fraction(a, pe), Fraction(b, pe)), (Fraction(c, pe), Fraction(d, pe)))


def _imul(x: IMat, y: IMat, p: int) -> IMat:
    a, b, c, d, e = x
    a2, b2, c2, d2, e2 = y
    a, b, c, d = a * a2 + b * c2, a * b2 + b * d2, c * a2 + d * c2, c * b2 + d * d2
    e += e2
    while e and not (a % p or b % p or c % p or d % p):
        a, b, c, d, e = a // p, b // p, c // p, d // p, e - 1
    return (a, b, c, d, e)


def _iinv(x: IMat) -> IMat:
    """Inverse of an SL2 element: det = p^(2e), so the adjugate over p^e."""
    a, b, c, d, e = x
    return (d, -b, -c, a, e)


class VertexKey(tuple):
    """Canonical key of a homothety class: lattice spanned by (p^a, 0)
    and (c, 1).  Held as the integers (a, numerator of c, denominator of
    c), so that hashing and equality are tuple operations; c is built
    when read.  Inside the module, tuple.__new__(VertexKey, (a, n, d))
    builds a key from n / d already in lowest terms, with no Fraction."""

    __slots__ = ()

    def __new__(cls, a: int, c):
        c = c if isinstance(c, Fraction) else Fraction(c)
        return tuple.__new__(cls, (a, c.numerator, c.denominator))

    def __getnewargs__(self):
        return (self[0], self.c)

    a = property(itemgetter(0))

    @property
    def c(self) -> Fraction:
        return Fraction(self[1], self[2])

    def matrix(self, p: int) -> Mat2:
        return ((Fraction(p) ** self.a, self.c), (Fraction(0), Fraction(1)))

    def __str__(self):
        a, n, d = self
        return f"({a},{n})" if d == 1 else f"({a},{n}/{d})"

    def __repr__(self):
        return f"VertexKey(a={self[0]!r}, c={self.c!r})"


def _key_in(v: VertexKey, p: int) -> IKey:
    """The integer key of a canonical VertexKey; a denominator that is not
    a power of p, or a c outside [0, p^a), is refused."""
    a, n, den = v
    j = vp_int(den, 1, p)
    if den != p**j:
        raise ValueError(f"key {v} has a denominator that is not a power of {p}")
    if _reduce_mod_power(n, j, a, p) != (n, j):
        raise ValueError(f"key {v} is not canonical: c must lie in [0, {p}^{a})")
    return (a, n, j)


def _key_out(k: IKey, p: int) -> VertexKey:
    a, n, j = k
    return tuple.__new__(VertexKey, (a, n, p**j))


def _reduce_mod_power(n: int, j: int, a: int, p: int) -> tuple[int, int]:
    """(s, i) with s / p^i the canonical representative of n / p^j +
    p^a Z_p: in [0, p^a), and p not dividing s when i > 0."""
    if a + j <= 0:
        return (0, 0)
    mod = p ** (a + j)
    s = n % mod
    while j and s % p == 0:
        s //= p
        j -= 1
    return (s, j)


def _ikey(m11: int, m12: int, m21: int, m22: int, vdet: int, p: int) -> IKey:
    """Key of the class of the columns of an integer matrix whose
    determinant has p-valuation vdet."""
    # pivot on the bottom entry of least valuation, kept in column 2
    if m22 == 0 or (m21 != 0 and vp_int(m21, 1, p) < vp_int(m22, 1, p)):
        m11, m12, m21, m22 = m12, m11, m22, m21
    # clearing m21 leaves column 1 as (det / m22, 0); dividing column 2 by
    # the unit u = m22 / p^w and the lattice by p^w (homothety) gives the
    # basis (det / (m22 p^w), 0), (m12 / m22, 1)
    w = vp_int(m22, 1, p)
    a = vdet - 2 * w
    # c = m12 / (u p^w) mod p^a; a + w = vdet - w >= 0 for an integer matrix
    u = m22 // p**w
    return (a, *_reduce_mod_power(m12 * pow(u, -1, p ** (a + w)), w, a, p))


def _integral_basis(m: Mat2, p: int) -> tuple[int, int, int, int, int]:
    """(m11, m12, m21, m22, v_p(det)) of m with its denominators cleared,
    a homothety that keeps the class."""
    m11, m12, m21, m22, _ = _cleared(m)
    det = m11 * m22 - m12 * m21
    if det == 0:
        raise ValueError("singular matrix")
    return m11, m12, m21, m22, vp_int(det, 1, p)


def canonical_vertex(m: Mat2, p: int) -> VertexKey:
    """Canonical key of the class of the lattice with basis the columns
    of m (Hermite-style reduction over Z_(p) plus homothety scaling)."""
    return _key_out(_ikey(*_integral_basis(m, p), p), p)


LAMBDA0 = VertexKey(0, Fraction(0))


def lambda0() -> VertexKey:
    return LAMBDA0


def lambda1() -> VertexKey:
    return VertexKey(1, Fraction(0))


def distance(v1: VertexKey, v2: VertexKey, p: int) -> int:
    """The path between the balls c1 + p^a1 Z_p and c2 + p^a2 Z_p climbs to
    the smallest ball holding both, of radius p^-m with m = min(a1, a2,
    v_p(c1 - c2)), so its length is a1 + a2 - 2m (Serre, *Trees*, II.1)."""
    (a1, n1, j1), (a2, n2, j2) = _key_in(v1, p), _key_in(v2, p)
    m = min(a1, a2)
    if (n1, j1) != (n2, j2):
        # c1 - c2 over the common denominator p^j
        j = max(j1, j2)
        m = min(m, vp_int(n1 * p ** (j - j1) - n2 * p ** (j - j2), 1, p) - j)
    return a1 + a2 - 2 * m


def _tree_nbrs(a: int, n: int, d: int, p: int) -> list[tuple]:
    """The neighbours of the canonical key (a, n / d) as plain (a, n, d)
    tuples, the p children first and the parent last; it only builds
    canonical keys, so the ball and its certificate run on it with no
    check of their input."""
    # with c = n / p^j and J = max(j, -a), child i is
    # (a + 1, (n p^(J-j) + i p^(a+J)) / p^J); dd = p^J and step = p^(a+J)
    if a >= 0:
        dd, step = d, d * p**a
    else:
        q = p**-a
        dd = max(d, q)
        step = dd // q
    base = n * (dd // d)
    a1 = a + 1
    if step == 1:
        # a + J = 0: c + i p^a may share factors of p with p^J
        out = []
        for m in range(base, base + p):
            den = dd
            while den > 1 and m % p == 0:
                m //= p
                den //= p
            out.append((a1, m, den))
    else:
        # p divides step, and n is prime to p when j > 0: already canonical
        out = [(a1, m, dd) for m in range(base, base + p * step, step)]
    # the parent c mod p^(a-1) is s / d with s = n mod d p^(a-1); for
    # a >= 1 that modulus is step / p and s = n mod p when d > 1, so s / d
    # is in lowest terms; for a <= 0 it is 0 unless p^(1-a) < d
    if a >= 1:
        out.append((a - 1, n % (step // p), d))
    elif d <= p ** (1 - a):
        out.append((a - 1, 0, 1))
    else:
        s = n % (d // p ** (1 - a))
        while d > 1 and s % p == 0:
            s //= p
            d //= p
        out.append((a - 1, s, d))
    return out


def neighbors(v: VertexKey, p: int) -> list[VertexKey]:
    """The p + 1 classes at distance 1 (index-p sublattices in the basis
    of the key), in closed form for a canonical key (a, c): the basis
    (p^a, 0), (c, 1) times [[p, i], [0, 1]] gives (a + 1, c + i p^a), and
    times [[1, 0], [0, p]] gives (a - 1, c mod p^(a-1))."""
    _key_in(v, p)
    new = tuple.__new__
    return [new(VertexKey, k) for k in _tree_nbrs(*v, p)]


def step_toward(v: VertexKey, t: VertexKey, p: int) -> VertexKey:
    """The neighbour of v on the path to t != v: the child ball of v that
    holds t, or else v's parent, the ball of radius p^-(a-1) around v."""
    v, t = _key_in(v, p), _key_in(t, p)
    if v == t:
        raise ValueError(f"no step from {_key_out(v, p)} toward itself")
    (a, n, j), (ta, tn, tj) = v, t
    if ta > a and _reduce_mod_power(tn, tj, a, p) == (n, j):
        return _key_out((a + 1, *_reduce_mod_power(tn, tj, a + 1, p)), p)
    return _key_out((a - 1, *_reduce_mod_power(n, j, a - 1, p)), p)


def act(g: Mat2, v: VertexKey, p: int) -> VertexKey:
    """The class of g applied to the key's basis (p^a, 0), (c, 1), scaled
    by p^i to integers."""
    m11, m12, m21, m22, vdet = _integral_basis(g, p)
    a, n, j = _key_in(v, p)
    i = max(j, -a)
    x, y, z = p ** (a + i), n * p ** (i - j), p**i
    vdet += a + 2 * i
    return _key_out(_ikey(m11 * x, m11 * y + m12 * z, m21 * x, m21 * y + m22 * z, vdet, p), p)


def epsilon(g: Mat2, p: int) -> int:
    """Parity of v_p(det g); the sign twist on oriented edges is (-1)^eps."""
    return vp(mat_det(g), p) % 2


def standard_decomposition(g: Mat2, p: int) -> tuple[int, Mat2, Fraction, int]:
    """Write g = (pI)^s R diag(u,1) g_pi^eps with det R = 1 and u a p-adic
    unit; returns (s, R, u, eps)."""
    det = mat_det(g)
    if det == 0:
        raise ValueError("singular matrix")
    v = vp(det, p)
    eps = v % 2
    s = (v - eps) // 2
    u = det / Fraction(p) ** v
    tail = mat_mul(mat2(u, 0, 0, 1), g_pi(p)) if eps else mat2(u, 0, 0, 1)
    r = mat_mul(mat_scale(Fraction(p) ** (-s), g), mat_inv(tail))
    assert mat_det(r) == 1
    reassembled = mat_mul(mat_scale(Fraction(p) ** s, r), tail)
    assert reassembled == g
    return s, r, u, eps


# ---------------------------------------------------------------------------
# amalgam decomposition


def _in_g0(m: IMat, den: int) -> bool:
    """SL2(Z_(p)) membership of m = (a, b, c, d, e) over den, where p^e is
    the p-part of den and some entry is prime to p when e > 0: the entries
    are p-integral iff e = 0."""
    a, b, c, d, e = m
    return e == 0 and a * d - b * c == den * den


def _in_g1(m: IMat, den: int, p: int) -> bool:
    """in_g1 on the same form: v_p(a), v_p(d) >= e, v_p(b) >= e + 1 and
    v_p(c) >= e - 1."""
    a, b, c, d, e = m
    pe = p**e
    return (
        a * d - b * c == den * den
        and a % pe == 0
        and d % pe == 0
        and b % (pe * p) == 0
        and (e == 0 or c % (pe // p) == 0)
    )


def _local_form(g: Mat2, p: int) -> tuple[IMat, int]:
    """(a, b, c, d, v_p(den)) and den, for g = [[a, b], [c, d]] / den with
    den the least common denominator."""
    *entries, den = _cleared(g)
    return (*entries, vp_int(den, 1, p)), den


def _mat_in(g: Mat2, p: int, sl2: bool = False) -> IMat:
    """The integer form of a matrix with entries in Z[1/p]; the least
    common denominator leaves some entry prime to p when e > 0, so the form
    is normalized.  With sl2, a determinant other than 1 is refused too."""
    m, den = _local_form(g, p)
    a, b, c, d, e = m
    if sl2 and a * d - b * c != den * den:
        raise ValueError("determinant must be 1")
    if den != p**e:
        raise ValueError("entries must lie in Z[1/p]")
    return m


def in_g0(g: Mat2, p: int) -> bool:
    """SL2(Z_(p)) membership."""
    return _in_g0(*_local_form(g, p))


def in_g1(g: Mat2, p: int) -> bool:
    """Membership in {[[a, bp], [c/p, d]] : [[a,b],[c,d]] in SL2(Z_(p))},
    the stabilizer of the vertex (1, 0)."""
    return _in_g1(*_local_form(g, p), p)


G0_SIDE = 0
G1_SIDE = 1


def _product(factors: list, p: int) -> IMat:
    out = I_IDENT
    for m, _ in factors:
        out = _imul(out, m, p)
    return out


def _word_ok(factors: list, g: IMat, p: int) -> bool:
    """The integer factors multiply to g, alternate sides and each lies in
    its side."""
    if _product(factors, p) != g:
        return False
    sides = [s for _, s in factors]
    if any(s1 == s2 for s1, s2 in zip(sides, sides[1:])):
        return False
    return all(_in_g0(m, 1) if s == G0_SIDE else _in_g1(m, p ** m[4], p) for m, s in factors)


@dataclass
class AmalgamWord:
    """Alternating factor list; each factor passes its side's membership
    predicate and the product reproduces the decomposed element."""

    factors: list  # (Mat2, side)
    p: int

    def _int_factors(self) -> list:
        return [(_mat_in(m, self.p), s) for m, s in self.factors]

    def product(self) -> Mat2:
        return _mat_out(_product(self._int_factors(), self.p), self.p)

    def sides(self) -> list[int]:
        return [s for _, s in self.factors]

    def __len__(self):
        return len(self.factors)

    def validate(self, g: Mat2) -> bool:
        try:
            return _word_ok(self._int_factors(), _mat_in(g, self.p), self.p)
        except ValueError:
            return False


def base_coset(v: VertexKey) -> Mat2:
    """The h in SL2(Z) with h (1, 0) = v, for a neighbour v of the base
    vertex: [[1, j], [0, 1]] for the child (1, j), the rotation for the
    parent (-1, 0)."""
    return mat2(0, -1, 1, 0) if v[0] < 0 else mat2(1, v[1], 0, 1)


def _lambda1_coset(a: int, n: int, p: int) -> IMat:
    if a == 0:
        return I_IDENT
    j = n // p
    if j == 0:
        return (0, -p * p, 1, 0, 1)
    return (p, 0, pow(j, -1, p), p, 1)


def lambda1_coset(v: VertexKey, p: int) -> Mat2:
    """The q in the stabilizer of (1, 0) with q (0, 0) = v, for a neighbour
    v of (1, 0): the identity for the parent (0, 0), and for the child
    (2, j p) the conjugate by diag(p, 1) of the rotation (j = 0) or of
    [[1, 0], [j^-1 mod p, 1]]."""
    return _mat_out(_lambda1_coset(*v[:2], p), p)


def _walk_read(m: IMat, p: int) -> tuple[int, bool, int]:
    """What the amalgam walk reads of the key (a, c) of the class of the
    columns of an SL2 element m: a, whether c lies in Z_p, and c mod p^2
    (0 when c does not).  After _ikey's column pivot, with w = v_p(m22):
    a = 2e - 2w, c = m12 / m22 lies in Z_p iff m12 = 0 or v_p(m12) >= w,
    and then c mod p^2 is (m12 / p^w)(m22 / p^w)^-1 mod p^2, one inverse
    mod p^2."""
    m11, m12, m21, m22, e = m
    if m22 == 0 or (m21 != 0 and vp_int(m21, 1, p) < vp_int(m22, 1, p)):
        m12, m22 = m11, m21
    w = vp_int(m22, 1, p)
    pw = p**w
    if m12 % pw:
        return (2 * e - 2 * w, False, 0)
    pp = p * p
    return (2 * e - 2 * w, True, m12 // pw * pow(m22 // pw, -1, pp) % pp)


def amalgam_decompose(g: Mat2, p: int) -> AmalgamWord:
    """Greedy geodesic descent: peel a (G0, G1) factor pair per two steps
    of the geodesic from the base vertex to g * base, until g fixes it,
    writing the word in normal form as it goes.

    w * base is the class of the columns of w, the base basis being I.
    The step from the base toward the key (a, c) is the child (1, c mod p)
    when a > 0 and c lies in Z_p, else the parent (-1, 0); the step from
    (1, 0) is the child (2, c mod p^2) when moreover p divides c, else the
    base.  So the walk reads _walk_read, never a whole key.  For g =
    [[a, b], [c, d]] / p^e normalized, some entry is prime to p and ad - bc
    = p^(2e), so the columns' elementary divisors are 1 and p^(2e): g * base
    lies 2e from the base and the walk takes e passes.  A faulty read thus
    cannot loop, and _word_ok refuses the rest w when it does not fix the
    base.

    The word is built in normal form: a G0 factor, (1, r, 0, 1, 0) with
    0 <= r < p or the rotation, lies in the edge group only when it is I,
    and a G1 factor is I or over p^1, never in G0.  So push drops I, and
    only the rest w, when it lies in the edge group (-I included), is
    folded into the last factor.  Only the first pass's h can be I, and
    every q after it is a child coset, so on a correct read no two
    neighbours share a side; _word_ok refuses a word in which they do."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    g = _mat_in(g, p, sl2=True)
    word = []

    def push(m: IMat, side: int) -> None:
        if m != I_IDENT:
            word.append((m, side))

    w = g
    for _ in range(g[4]):
        a, integral, c = _walk_read(w, p)
        h = (1, c % p, 0, 1, 0) if a > 0 and integral else I_ROT
        w = _imul(_iinv(h), w, p)
        push(h, G0_SIDE)
        # a = 2e - 2 v_p(m22) is even, so a > 0 here means a > 1
        a, integral, c = _walk_read(w, p)
        q = _lambda1_coset(2, c, p) if a > 0 and integral and c % p == 0 else I_IDENT
        w = _imul(_iinv(q), w, p)
        push(q, G1_SIDE)
    # w has determinant 1, so e = 0 and p | b put it in the edge group
    if word and w[4] == 0 and w[1] % p == 0:
        word[-1] = (_imul(word[-1][0], w, p), word[-1][1])
    else:
        push(w, G0_SIDE)
    word = word or [(w, G0_SIDE)]
    if not _word_ok(word, g, p):
        raise AssertionError("amalgam decomposition failed to validate")
    return AmalgamWord(factors=[(_mat_out(m, p), s) for m, s in word], p=p)


def gamma_membership(g: Mat2, level: int, p: int) -> bool:
    """Congruence tests relative to the maximal ideal: level 0 needs the
    lower-left entry in pZ_(p); level 1 adds the upper-right; level 2 adds
    the difference of the diagonal entries.  In SL2(Z_(p)) the common
    denominator is prime to p, so each test is p | numerator."""
    m, den = _local_form(g, p)
    if not _in_g0(m, den):
        raise ValueError("argument must lie in SL2(Z_(p))")
    if level not in (0, 1, 2):
        raise ValueError("level must be 0, 1 or 2")
    a, b, c, d, _ = m
    return all(x % p == 0 for x in (c, b, a - d)[: level + 1])


# ---------------------------------------------------------------------------
# balls and DOT output


def _check_ball_args(p: int, radius: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")


def ball(p: int, radius: int) -> tuple[dict, list]:
    """BFS ball around the base vertex: returns ({key: depth}, edges), the
    edges from each vertex of depth < radius to its neighbours one level
    deeper."""
    _check_ball_args(p, radius)
    depth = {LAMBDA0: 0}
    frontier = [LAMBDA0]
    edges = []
    for r in range(radius):
        nxt = []
        for v in frontier:
            for u in neighbors(v, p):
                du = depth.get(u)
                if du is None:
                    depth[u] = r + 1
                    nxt.append(u)
                    edges.append((v, u))
                elif du > r:
                    edges.append((v, u))
        frontier = nxt
    return depth, edges


def ball_size_formula(p: int, radius: int) -> int:
    _check_ball_args(p, radius)
    if radius == 0:
        return 1
    return 1 + (p + 1) * (p**radius - 1) // (p - 1)


def ball_is_tree(p: int, radius: int) -> bool:
    """One BFS of the ball on integer keys that checks each vertex as it
    is expanded, the leaves at depth radius included: its p + 1 neighbours
    are distinct, exactly one lies at depth d - 1 (none for the root), and
    every other one is new, or lies outside the ball when d = radius.  So
    no vertex has a neighbour at its own depth or two neighbours one level
    up (no cycles), and the vertex count is the closed formula."""
    _check_ball_args(p, radius)
    depth = {LAMBDA0: 0}
    frontier = [LAMBDA0]
    for r in range(radius + 1):
        nxt = []
        inner = r < radius
        for v in frontier:
            out = _tree_nbrs(*v, p)
            if len(set(out)) != p + 1:
                return False
            parents = 0
            for u in out:
                du = depth.get(u)
                if du is None:
                    if inner:
                        depth[u] = r + 1
                        nxt.append(u)
                elif du == r - 1:
                    parents += 1
                else:
                    # a neighbour at depth r, or at r + 1 found from
                    # another vertex (a second parent), or further up
                    return False
            if parents != (r > 0):
                return False
        frontier = nxt
    return len(depth) == ball_size_formula(p, radius)


def dot_output(p: int, radius: int) -> str:
    depth, edges = ball(p, radius)
    lines = ["graph tree {"]
    for v, d in sorted(depth.items(), key=lambda kv: (kv[1], str(kv[0]))):
        lines.append(f'  "{v}" [depth={d}];')
    for v, u in edges:
        lines.append(f'  "{v}" -- "{u}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
