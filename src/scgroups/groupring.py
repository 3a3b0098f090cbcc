"""The integral group ring Z[G] of a square-class group, its augmentation
ideal and idempotents, characters, the ideals R^chi, and the functors
M -> M_chi and M -> e±M on finitely presented Z[G]-modules.

G is an elementary abelian 2-group, so classes multiply by ``^``.  It is
the square-class group of a finite local ring, coordinatized as bitmasks
over a chosen basis (see rings.SqClassGroup), or the square classes of Q
(valuation.Q_CLASSES, whose elements are QSqClass values); ``G.one`` is
its identity, ``G.class_of`` sends a unit to its class and ``G.neg_one()``
is the class of -1.  Ring elements are sparse coefficient dicts
{class: int}, and module elements over G are sparse dicts
{(class, parameter): int}: ``r_mul`` is the one product and ``act`` the
one action, whichever G the classes come from.  The characters, the
ideals R^chi and the module presentations are built over the finite
groups only.  Half-integral idempotents are never materialized: every
construction stays integral and the 1/2 factors are absorbed by odd-part
comparisons downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .linalg import AbMap, FpAb, intmat, zeros
from .rings import SqClassGroup

RElem = dict  # class -> integer coefficient


def add(x: dict, y: dict) -> dict:
    """Sum of two finite formal combinations {key: int}, zero terms dropped.
    Elements of Z[G], of P and RP, and the symbolic elements over Q are all
    such combinations, so this is the one addition they share."""
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + c
        if not out[k]:
            del out[k]
    return out


def scale(n: int, x: dict) -> dict:
    """n times a finite formal combination."""
    return {k: n * c for k, c in x.items()} if n else {}


def r_mul(x: RElem, y: RElem) -> RElem:
    """The product in Z[G]."""
    out: RElem = {}
    for g, c in x.items():
        for h, d in y.items():
            k = g ^ h
            out[k] = out.get(k, 0) + c * d
    return {g: c for g, c in out.items() if c}


def act(r: RElem, x: dict) -> dict:
    """The action of r in Z[G] on a module element {(class, parameter): int}:
    <g> sends the symbol (h, a) to (g h, a)."""
    out: dict = {}
    for g, c in r.items():
        for (h, a), d in x.items():
            k = (g ^ h, a)
            out[k] = out.get(k, 0) + c * d
    return {k: c for k, c in out.items() if c}


def augment(x: RElem) -> int:
    return sum(x.values())


def bracket(G, a) -> RElem:
    """The basis element <a> of Z[G]."""
    return {G.class_of(a): 1}


def dbl_bracket(G, a) -> RElem:
    """<<a>> = <a> - 1."""
    g = G.class_of(a)
    if g == G.one:
        return {}
    return {g: 1, G.one: -1}


def p_plus(G) -> RElem:
    """p_{-1}^+ = <-1> + 1 (the integral double of the idempotent e_{-1}^+)."""
    g = G.neg_one()
    if g == G.one:
        return {g: 2}
    return {g: 1, G.one: 1}


def steinberg(G: SqClassGroup, a) -> RElem:
    """<<a>><<1 - a>> for a and 1 - a units of G's ring: the value of
    lambda_1 on [a], and a generator of the Steinberg ideal of GW."""
    ring = G.ring
    return r_mul(dbl_bracket(G, a), dbl_bracket(G, ring.sub(ring.one, a)))


def r_vector(x: RElem, order: int) -> np.ndarray:
    out = zeros(1, order)[0]
    for g, c in x.items():
        out[g] = c
    return out


@dataclass(frozen=True)
class Character:
    """A character G -> {±1}, stored by its values on the group basis."""

    values: tuple  # one ±1 per basis element

    def __call__(self, g: int) -> int:
        out = 1
        for i, v in enumerate(self.values):
            if (g >> i) & 1 and v == -1:
                out = -out
        return out

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)


def characters(G: SqClassGroup) -> list[Character]:
    """All 2^rank characters; the trivial character comes first."""
    out = []
    for mask in range(1 << G.rank):
        vals = tuple(-1 if (mask >> i) & 1 else 1 for i in range(G.rank))
        out.append(Character(vals))
    return out


def chi_ideal_rows(G: SqClassGroup, chi: Character) -> np.ndarray:
    """Z-lattice of the ideal R^chi, generated by g - chi(g) over g in G
    (a group basis suffices; the full set keeps the lattice obvious)."""
    n = G.order
    rows = []
    for g in range(n):
        row = [0] * n
        row[g] += 1
        row[0] -= chi(g)
        if any(row):
            rows.append(row)
    return intmat(rows) if rows else zeros(0, n)


class RModPres:
    """Finitely presented Z[G]-module, flattened over the Z-basis
    (group element, generator): index = g * ngens + j.

    A relation is stored sparse, as {generator: nonzero RElem}; it may be
    given so, or as a sequence of one RElem per generator."""

    def __init__(self, G: SqClassGroup, ngens: int, relations: Iterable = ()):
        self.G = G
        self.ngens = ngens
        self.relations = [self._sparse_relation(r) for r in relations]
        self._flat: Optional[FpAb] = None
        self._perms: dict[int, np.ndarray] = {}

    def _sparse_relation(self, rel) -> dict:
        if isinstance(rel, dict):
            if any(not 0 <= j < self.ngens for j in rel):
                raise ValueError("relation names a generator out of range")
            return {j: x for j, x in rel.items() if x}
        rel = list(rel)
        if len(rel) != self.ngens:
            raise ValueError("relation width does not match generator count")
        return {j: x for j, x in enumerate(rel) if x}

    @property
    def flat_ngens(self) -> int:
        return self.G.order * self.ngens

    def flat_index(self, g: int, j: int) -> int:
        return g * self.ngens + j

    def flat_row(self, rel: dict, translate: int = 0) -> dict:
        """The translate of a (sparse) relation by a group element, as a
        sparse row {flat index: coefficient}.  Every relation row is built
        here, so flat_index is inlined."""
        n = self.ngens
        return {(g ^ translate) * n + j: c for j, x in rel.items() for g, c in x.items() if c}

    def flat_rows(self) -> list[dict]:
        """All G-translates of the defining relations (duplicates kept)."""
        return [self.flat_row(rel, t) for rel in self.relations for t in range(self.G.order)]

    def flatten(self) -> FpAb:
        if self._flat is None:
            self._flat = FpAb(self.flat_ngens, self.flat_rows())
        return self._flat

    def act_matrix(self, g: int) -> np.ndarray:
        """Permutation matrix of the action of g on the flattened basis."""
        n = self.flat_ngens
        m = zeros(n, n)
        for h in range(self.G.order):
            for j in range(self.ngens):
                m[self.flat_index(h, j), self.flat_index(h ^ g, j)] = 1
        return m

    def act_permutation(self, g: int) -> np.ndarray:
        """Cached index array idx with vec[idx] == vec @ act_matrix(g)."""
        idx = self._perms.get(g)
        if idx is None:
            idx = np.array(
                [self.flat_index(h ^ g, j) for h in range(self.G.order) for j in range(self.ngens)],
                dtype=np.intp,
            )
            self._perms[g] = idx
        return idx

    def chi_localize(self, chi: Character) -> FpAb:
        """M_chi = M / R^chi M, presented directly on the module generators
        by evaluating every group coefficient through chi."""
        rows = [{j: sum(chi(g) * c for g, c in x.items()) for j, x in rel.items()} for rel in self.relations]
        return FpAb(self.ngens, rows)

    def _half_part(self, g: int, sign: int) -> FpAb:
        """Image of multiplication by (g + sign): row i of the map is the
        sparse row of act_matrix(g), whose one entry is at act_permutation's
        index, plus sign at i."""
        flat = self.flatten()
        rows = [add({j: 1}, {i: sign}) for i, j in enumerate(self.act_permutation(g).tolist())]
        return AbMap(flat, flat, rows).image()

    def plus_part(self, g: int) -> FpAb:
        """Image of multiplication by (g + 1); its odd part is e_+^g M."""
        return self._half_part(g, +1)

    def minus_part(self, g: int) -> FpAb:
        """Image of multiplication by (g - 1); its odd part is e_-^g M."""
        return self._half_part(g, -1)

    def twist(self, chi: Character) -> "RModPres":
        """The chi-twisted module: <a> acts as chi(a)<a>."""
        new_rels = []
        for rel in self.relations:
            new_rels.append({j: {g: chi(g) * c for g, c in x.items()} for j, x in rel.items()})
        return RModPres(self.G, self.ngens, new_rels)
