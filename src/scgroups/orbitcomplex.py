"""The bottom row of the E^1-page for the SL2 orbit stratification of
tuples of lines: the chain Z[G]Z_2 -> Z[G]Z_1 -> Z[G] -> Z with the
explicit differentials d4: [x,y] -> Y_{x,y}, d3: [x] -> <<x>><<1-x>> (the
rows of lambda_1), and d2 the augmentation; its homology; plus a
brute-force orbit classifier for tuples of projective points and an
exactness check for the full simplicial complex of a finite projective
line.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .linalg import AbMap, FpAb, sparse_rank_and_pivots
from .rings import GF, Ring
from .scissors import ScissorsContext, context


@dataclass
class RowComplex:
    """The differentials of the bottom row as sparse rows, one per source
    basis element; basis conventions follow the scissors context of the
    ring, whose cached lambda_1 rows are d3, and d2 sends each class to 1."""

    ctx: ScissorsContext
    d3: list
    d2: list

    @cached_property
    def d4(self) -> list:
        """Sparse rows {flat index: coefficient}, row g * m + k: the
        G-translates of the m relations Y_{x,y} of RP, one per admissible
        pair, moved by RP's ``act_permutation``, built on first read and
        kept (only the checks of the complex read them)."""
        m = self.ctx.refined()
        rows = m.table.rows()
        perms = [m.act_permutation(g).tolist() for g in range(self.ctx.G.order)]
        return [{perm[i]: c for i, c in r.items()} for perm in perms for r in rows]

    def homology_at(self, position: int) -> FpAb:
        """Homology of ... -> C2 -> C1 -> Z[G] -> Z -> Z at positions 1..3
        (position 1 uses the zero map out of the degree-1 term, so it is
        Z / im d2).  Position 2 is the kernel of d2 on Z[G] / im d3, whose
        construction checks that im d3 lies in ker d2."""
        if position == 1:
            return FpAb(1, self.d2)
        if position == 2:
            return AbMap(FpAb(len(self.d2), self.d3), FpAb(1), self.d2).kernel()
        if position == 3:
            # d3 is lambda_1 and d4's rows are the G-translates of the RP
            # relations, so ker d3 / im d4 is RP_1 as the context builds it
            return self.ctx.rp1()
        raise ValueError("position must be 1, 2 or 3")


def build_row_complex(ring: Ring) -> RowComplex:
    ctx = context(ring)
    return RowComplex(ctx=ctx, d3=ctx.lambda1_matrix(), d2=[{0: 1}] * ctx.G.order)


def chain_identities_hold(c: RowComplex) -> bool:
    """d4 . d3 = 0 and d3 . d2 = 0, each asked as whether a map kills rows."""
    d3 = AbMap(FpAb(len(c.d3)), FpAb(len(c.d2)), c.d3)
    d2 = AbMap(FpAb(len(c.d2)), FpAb(1), c.d2)
    return not d3.unkilled(c.d4) and not d2.unkilled(c.d3)


# ---------------------------------------------------------------------------
# brute-force orbit census

# largest field the census enumerates: it runs through all of SL2(k), about
# q^3 elements, for each tuple of points
MAX_CENSUS_Q = 31


def projective_points(k: GF) -> list:
    """P^1(k) as normalized column representatives (1, x) and (0, 1)."""
    pts = [(k.one, x) for x in k.elements]
    pts.append((k.zero, k.one))
    return pts


def _sl2_elements(k: GF):
    """Deterministic enumeration of SL2(k)."""
    out = []
    for a in k.elements:
        for b in k.elements:
            for c in k.elements:
                for d in k.elements:
                    det = k.sub(k.mul(a, d), k.mul(b, c))
                    if det == k.one:
                        out.append((a, b, c, d))
    return out


def _act_point(g, pt, k: GF):
    a, b, c, d = g
    x, y = pt
    u = k.add(k.mul(a, x), k.mul(b, y))
    v = k.add(k.mul(c, x), k.mul(d, y))
    if u == k.zero:
        return (k.zero, k.one)
    return (k.one, k.mul(v, k.inv(u)))


def orbit_classify(k: GF, tuple_len: int) -> dict:
    """Census of SL2(k)-orbits on tuples of pairwise-distinct projective
    points, by canonical-form hashing under full group enumeration."""
    if tuple_len not in (3, 4, 5):
        raise ValueError("tuple_len must be 3, 4 or 5")
    if k.q > MAX_CENSUS_Q:
        raise ValueError(f"orbit census is guarded to q <= {MAX_CENSUS_Q}")
    pts = projective_points(k)
    index = {p: i for i, p in enumerate(pts)}
    group = _sl2_elements(k)
    # precompute the point permutation of each group element
    perms = []
    for g in group:
        perms.append(tuple(index[_act_point(g, p, k)] for p in pts))
    census: dict = {}
    for tup in itertools.permutations(range(len(pts)), tuple_len):
        canon = min(tuple(perm[i] for i in tup) for perm in perms)
        census[canon] = census.get(canon, 0) + 1
    return census


def expected_orbit_count(ring: GF, tuple_len: int) -> int:
    ctx = context(ring)
    g = ctx.G.order
    if tuple_len == 3:
        return g
    if tuple_len == 4:
        return g * len(ctx.W)
    return g * len(ctx.five_terms())


# ---------------------------------------------------------------------------
# exactness range of the full simplicial complex


def simplicial_homology_vanishes(k: GF, degree: int) -> bool:
    """Reduced homology of the complex of tuples of pairwise-distinct
    projective points vanishes in the given degree (1 <= degree <= 3),
    verified by exact rank and saturation computations."""
    if degree < 1 or degree > 3:
        raise ValueError("degree must be 1..3")
    npts = k.q + 1

    def boundary_rows(length):
        # rows of the boundary map L_length -> L_{length-1}
        target_index = {t: i for i, t in enumerate(itertools.permutations(range(npts), length - 1))}
        for t in itertools.permutations(range(npts), length):
            row = {}
            for i in range(length):
                face = t[:i] + t[i + 1 :]
                j = target_index[face]
                row[j] = row.get(j, 0) + (1 if i % 2 == 0 else -1)
            yield {j: v for j, v in row.items() if v}

    dim_mid = math.perm(npts, degree + 1)
    rank_upper, pivots = sparse_rank_and_pivots(
        list(boundary_rows(degree + 2)), dim_mid
    )
    rank_lower, _ = sparse_rank_and_pivots(
        list(boundary_rows(degree + 1)), math.perm(npts, degree)
    )
    if rank_upper + rank_lower != dim_mid:
        return False
    # saturation: all staircase pivots 1 gives a unimodular maximal minor,
    # making the image a direct summand of the middle chain group;
    # otherwise the cokernel of the image must be torsion-free
    if all(p == 1 for p in pivots):
        return True
    return FpAb(dim_mid, boundary_rows(degree + 2)).invariant_factors() == ()
