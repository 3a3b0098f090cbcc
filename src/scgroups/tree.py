"""The tree of homothety classes of rank-2 lattices over Z_(p): canonical
vertex keys, distances, neighbours and the step along a path, the GL2(Q)
action with its edge-orientation sign, the standard factor decomposition,
amalgam decomposition of SL2(Z[1/p]) matrices, and the congruence-subgroup
membership tests.

Matrices are 2x2 tuples of Fractions (columns are the lattice basis).
Vertex keys are pairs (a, c) encoding the class of the lattice spanned by
(p^a, 0) and (c, 1); a may be any integer and c is a rational in
[0, p^a) whose denominator is a power of p, which is exactly what is
needed to reach every homothety class.  The key also names the ball
c + p^a Z_p of Q_p, and the tree is the tree of these balls under
inclusion (Serre, *Trees*, 1980, Ch. II.1): the neighbours of a ball are
its p children and its parent.  So distances, the step along a path and
the amalgam walk's coset representatives are formulas in (a, c).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .rings import is_prime
from .valuation import vp

Mat2 = tuple  # ((a, b), (c, d)) rows of Fractions


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


def mat_neg(x: Mat2) -> Mat2:
    (a, b), (c, d) = x
    return ((-a, -b), (-c, -d))


def mat_scale(s, x: Mat2) -> Mat2:
    s = Fraction(s)
    (a, b), (c, d) = x
    return ((s * a, s * b), (s * c, s * d))


IDENT = mat2(1, 0, 0, 1)


def g_pi(p: int) -> Mat2:
    return mat2(0, -1, p, 0)


@dataclass(frozen=True)
class VertexKey:
    """Canonical key of a homothety class: lattice spanned by (p^a, 0)
    and (c, 1)."""

    a: int
    c: Fraction

    def matrix(self, p: int) -> Mat2:
        return ((Fraction(p) ** self.a, self.c), (Fraction(0), Fraction(1)))

    def __hash__(self):
        # Fraction.__hash__ computes a modular inverse; the reduced
        # numerator and denominator determine c just as well
        return hash((self.a, self.c.numerator, self.c.denominator))

    def __str__(self):
        return f"({self.a},{self.c})"


def _reduce_mod_power(c: Fraction, a: int, p: int) -> Fraction:
    """Canonical representative of c + p^a Z_(p) in [0, p^a) with a power
    of p as denominator."""
    if c == 0:
        return Fraction(0)
    v = vp(c, p)
    if v >= a:
        return Fraction(0)
    j = max(0, -v)
    # write c = t / (u p^j) with p not dividing u; invert u modulo p^(a+j)
    num, den = c.numerator, c.denominator
    pj = p**j
    u = den // pj if den % pj == 0 else None
    if u is None:
        raise AssertionError("denominator bookkeeping is off")
    mod = p ** (a + j)
    s = (num * pow(u, -1, mod)) % mod
    out = Fraction(s, pj)
    return out


def canonical_vertex(m: Mat2, p: int) -> VertexKey:
    """Canonical key of the class of the lattice with basis the columns
    of m (Hermite-style reduction over Z_(p) plus homothety scaling)."""
    if mat_det(m) == 0:
        raise ValueError("singular matrix")
    (m11, m12), (m21, m22) = m
    # pivot on the bottom entry of minimal valuation, kept in column 2
    if m22 == 0 or (m21 != 0 and vp(m21, p) < vp(m22, p)):
        m11, m12 = m12, m11
        m21, m22 = m22, m21
    # clear the bottom of column 1 (the quotient is a p-adic integer)
    q = m21 / m22
    m11 = m11 - q * m12
    m21 = Fraction(0)
    # unit-normalize column 2 to (m12 / m22, 1): divide it by the unit
    # m22 / p^w and the lattice by p^w (homothety)
    m11 = m11 / Fraction(p) ** vp(m22, p)
    m12 = m12 / m22
    # unit-normalize column 1 to a power of p
    a = vp(m11, p)
    c = _reduce_mod_power(m12, a, p)
    return VertexKey(a=a, c=c)


LAMBDA0 = VertexKey(0, Fraction(0))


def lambda0() -> VertexKey:
    return LAMBDA0


def lambda1() -> VertexKey:
    return VertexKey(1, Fraction(0))


def _parent(v: VertexKey, p: int) -> VertexKey:
    """The ball of radius p^-(a-1) around the ball (a, c)."""
    return VertexKey(v.a - 1, _reduce_mod_power(v.c, v.a - 1, p))


def distance(v1: VertexKey, v2: VertexKey, p: int) -> int:
    """The path between the balls c1 + p^a1 Z_p and c2 + p^a2 Z_p climbs to
    the smallest ball holding both, of radius p^-m with m = min(a1, a2,
    v_p(c1 - c2)), so its length is a1 + a2 - 2m (Serre, *Trees*, II.1)."""
    m = min(v1.a, v2.a)
    if v1.c != v2.c:
        m = min(m, vp(v1.c - v2.c, p))
    return v1.a + v2.a - 2 * m


def neighbors(v: VertexKey, p: int) -> list[VertexKey]:
    """The p + 1 classes at distance 1 (index-p sublattices in the basis
    of the key), in closed form for a canonical key (a, c): the basis
    (p^a, 0), (c, 1) times [[p, j], [0, 1]] gives (a + 1, c + j p^a), which
    is already canonical, and times [[1, 0], [0, p]] gives (a - 1, c mod
    p^(a-1))."""
    a, c = v.a, v.c
    # c + j p^a over one common denominator, with p^a = sn / sd
    sn, sd = (p**a, 1) if a >= 0 else (1, p**-a)
    num, den = c.numerator * sd, c.denominator * sd
    inc = sn * c.denominator
    out = [VertexKey(a + 1, Fraction(num + j * inc, den)) for j in range(p)]
    out.append(_parent(v, p))
    if len(set(out)) != p + 1:
        raise AssertionError("neighbor keys must be distinct")
    return out


def step_toward(v: VertexKey, t: VertexKey, p: int) -> VertexKey:
    """The neighbour of v on the path to t != v: the child ball of v that
    holds t, or else v's parent."""
    if t.a > v.a and (t.c == v.c or vp(t.c - v.c, p) >= v.a):
        return VertexKey(v.a + 1, _reduce_mod_power(t.c, v.a + 1, p))
    return _parent(v, p)


def act(g: Mat2, v: VertexKey, p: int) -> VertexKey:
    if mat_det(g) == 0:
        raise ValueError("singular matrix")
    return canonical_vertex(mat_mul(g, v.matrix(p)), p)


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


def in_g0(g: Mat2, p: int) -> bool:
    """SL2(Z_(p)) membership."""
    if mat_det(g) != 1:
        return False
    return all(x == 0 or vp(x, p) >= 0 for row in g for x in row)


def in_g1(g: Mat2, p: int) -> bool:
    """Membership in {[[a, bp], [c/p, d]] : [[a,b],[c,d]] in SL2(Z_(p))},
    the stabilizer of the vertex (1, 0)."""
    if mat_det(g) != 1:
        return False
    (a, b), (c, d) = g
    ok_a = a == 0 or vp(a, p) >= 0
    ok_d = d == 0 or vp(d, p) >= 0
    ok_b = b == 0 or vp(b, p) >= 1
    ok_c = c == 0 or vp(c, p) >= -1
    return ok_a and ok_b and ok_c and ok_d


G0_SIDE = 0
G1_SIDE = 1


@dataclass
class AmalgamWord:
    """Alternating factor list; each factor passes its side's membership
    predicate and the product reproduces the decomposed element."""

    factors: list  # (Mat2, side)
    p: int

    def product(self) -> Mat2:
        out = IDENT
        for m, _ in self.factors:
            out = mat_mul(out, m)
        return out

    def sides(self) -> list[int]:
        return [s for _, s in self.factors]

    def __len__(self):
        return len(self.factors)

    def validate(self, g: Mat2) -> bool:
        if self.product() != g:
            return False
        sides = self.sides()
        if any(s1 == s2 for s1, s2 in zip(sides, sides[1:])):
            return False
        for m, s in self.factors:
            if not (in_g0(m, self.p) if s == G0_SIDE else in_g1(m, self.p)):
                return False
        return True


def _is_p_integral(g: Mat2, p: int) -> bool:
    """Entries have no primes other than p in their denominators."""
    for row in g:
        for x in row:
            den = Fraction(x).denominator
            while den % p == 0:
                den //= p
            if den != 1:
                return False
    return True


# the coset caches are bounded, not tables of size p; they let the words
# share their coset factors (fresh copies held 3.7 MB more over 1200
# words at p = 5, 7 and 11)
@lru_cache(maxsize=1024)
def base_coset(v: VertexKey) -> Mat2:
    """The h in SL2(Z) with h (1, 0) = v, for a neighbour v of the base
    vertex: [[1, j], [0, 1]] for the child (1, j), the rotation for the
    parent (-1, 0)."""
    if v.a < 0:
        return mat2(0, -1, 1, 0)
    return mat2(1, v.c, 0, 1)


@lru_cache(maxsize=1024)
def lambda1_coset(v: VertexKey, p: int) -> Mat2:
    """The q in the stabilizer of (1, 0) with q (0, 0) = v, for a neighbour
    v of (1, 0): the identity for the parent (0, 0), and for the child
    (2, j p) the conjugate by diag(p, 1) of the rotation (j = 0) or of
    [[1, 0], [j^-1 mod p, 1]]."""
    if v.a == 0:
        return IDENT
    j = int(v.c) // p
    if j == 0:
        return mat2(0, -p, Fraction(1, p), 0)
    return mat2(1, 0, Fraction(pow(j, -1, p), p), 1)


def amalgam_decompose(g: Mat2, p: int) -> AmalgamWord:
    """Greedy geodesic descent: peel a (G0, G1) factor pair per two steps
    of the geodesic from the base vertex to g * base, until g fixes it."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    g = tuple((Fraction(x), Fraction(y)) for x, y in g)
    if mat_det(g) != 1:
        raise ValueError("determinant must be 1")
    if not _is_p_integral(g, p):
        raise ValueError("entries must lie in Z[1/p]")
    lam1 = lambda1()
    factors = []
    w = g
    # w * base is the class of the columns of w, the base basis being I
    while (target := canonical_vertex(w, p)) != LAMBDA0:
        h = base_coset(step_toward(LAMBDA0, target, p))
        w = mat_mul(mat_inv(h), w)
        q = lambda1_coset(step_toward(lam1, canonical_vertex(w, p), p), p)
        w = mat_mul(mat_inv(q), w)
        factors += [(h, G0_SIDE), (q, G1_SIDE)]
    factors.append((w, G0_SIDE))
    factors = _normalize_word(factors, p)
    word = AmalgamWord(factors=factors, p=p)
    if not word.validate(g):
        raise AssertionError("amalgam decomposition failed to validate")
    return word


def _in_edge_group(m: Mat2, p: int) -> bool:
    return in_g0(m, p) and in_g1(m, p)


def _normalize_word(factors: list, p: int) -> list:
    """Drop identity factors, fold central -I into a neighboring factor,
    absorb edge-group factors into a neighbor (the edge group lies in both
    sides), and merge any same-side runs that the absorptions create."""
    work = []
    pending_neg = False
    for m, s in factors:
        if pending_neg:
            m = mat_neg(m)
            pending_neg = False
        if m == IDENT:
            continue
        if m == mat_neg(IDENT):
            if work:
                pm, ps = work[-1]
                work[-1] = (mat_neg(pm), ps)
            else:
                pending_neg = True
            continue
        work.append((m, s))
    if pending_neg:
        if work:
            m, s = work[0]
            work[0] = (mat_neg(m), s)
        else:
            work = [(mat_neg(IDENT), G0_SIDE)]
    if not work:
        return [(IDENT, G0_SIDE)]
    out = []
    for m, s in work:
        if out and _in_edge_group(m, p):
            pm, ps = out[-1]
            out[-1] = (mat_mul(pm, m), ps)
        else:
            out.append((m, s))
    if len(out) > 1 and _in_edge_group(out[0][0], p):
        m0, _ = out.pop(0)
        m1, s1 = out[0]
        out[0] = (mat_mul(m0, m1), s1)
    merged = [out[0]]
    for m, s in out[1:]:
        pm, ps = merged[-1]
        if ps == s:
            merged[-1] = (mat_mul(pm, m), s)
        else:
            merged.append((m, s))
    return merged


def gamma_membership(g: Mat2, level: int, p: int) -> bool:
    """Congruence tests relative to the maximal ideal: level 0 needs the
    lower-left entry in pZ_(p); level 1 adds the upper-right; level 2 adds
    the difference of the diagonal entries."""
    g = tuple((Fraction(x), Fraction(y)) for x, y in g)
    if not in_g0(g, p):
        raise ValueError("argument must lie in SL2(Z_(p))")
    (a, b), (c, d) = g
    def in_m(x):
        return x == 0 or vp(x, p) >= 1

    if level == 0:
        return in_m(c)
    if level == 1:
        return in_m(c) and in_m(b)
    if level == 2:
        return in_m(c) and in_m(b) and in_m(a - d)
    raise ValueError("level must be 0, 1 or 2")


# ---------------------------------------------------------------------------
# balls and DOT output


def _check_ball_args(p: int, radius: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")


def _bfs(p: int, radius: int) -> tuple[dict, list, dict]:
    """BFS ball around the base vertex: ({key: depth}, edges, {key:
    neighbor list}) with a list for every vertex of depth < radius.  Each
    vertex is expanded once, so an edge to an already expanded vertex was
    recorded from that side and is skipped."""
    _check_ball_args(p, radius)
    depth = {LAMBDA0: 0}
    frontier = [LAMBDA0]
    edges = []
    nbrs = {}
    for r in range(radius):
        nxt = []
        for v in frontier:
            vn = nbrs[v] = neighbors(v, p)
            for u in vn:
                if u not in depth:
                    depth[u] = r + 1
                    nxt.append(u)
                if u not in nbrs:
                    edges.append((v, u))
        frontier = nxt
    return depth, edges, nbrs


def ball(p: int, radius: int) -> tuple[dict, list]:
    """BFS ball around the base vertex: returns ({key: depth}, edges)."""
    depth, edges, _ = _bfs(p, radius)
    return depth, edges


def ball_size_formula(p: int, radius: int) -> int:
    _check_ball_args(p, radius)
    if radius == 0:
        return 1
    return 1 + (p + 1) * (p**radius - 1) // (p - 1)


def ball_is_tree(p: int, radius: int) -> bool:
    """Counts match the closed formula and every non-root vertex has a
    unique parent (plus bipartite depths, so no odd cycles).  Reuses the
    BFS neighbor lists; only the leaves at depth radius get new ones."""
    depth, _, nbrs = _bfs(p, radius)
    if len(depth) != ball_size_formula(p, radius):
        return False
    for v, d in depth.items():
        if d == 0:
            continue
        vn = nbrs[v] if d < radius else neighbors(v, p)
        ds = [depth.get(u) for u in vn]
        if ds.count(d - 1) != 1 or d in ds:
            return False
    return True


def dot_output(p: int, radius: int) -> str:
    depth, edges = ball(p, radius)
    lines = ["graph tree {"]
    for v, d in sorted(depth.items(), key=lambda kv: (kv[1], str(kv[0]))):
        lines.append(f'  "{v}" [depth={d}];')
    for v, u in edges:
        lines.append(f'  "{v}" -- "{u}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
