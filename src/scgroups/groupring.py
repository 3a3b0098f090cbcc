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
groups only.  A presentation keeps its relations as one linalg.RowTable of
untranslated flat rows {g * ngens + j: c}, and ``translates`` gives their
G-translates.  Half-integral idempotents are never materialized: every
construction stays integral and the 1/2 factors are absorbed by odd-part
comparisons downstream.  A module's flat lattice is built from its e±
blocks (``_block_lattice``), so its 2-part stays exact.  The halves are
L- = <a - b> and L+ = <a + b> over the relation translates (a, b) by the
classes without the top class h.  The flat lattice L lies in
L' = {(x0, x1) : x0 + x1 in L+, x0 - x1 in L-}, with 2L' in L, and L' = L
when Z^N / L- has no 2-torsion: then L is read off L+ and L- alone, and
for |G| = 2 L+ is the module's coinvariants, so RP's e+ half is P
(``RModPres.coinvariants``).  When Z^N / L- has 2-torsion, L' may be
larger than L, and the halves glue exactly through S, the e+ rows
(a + b, pi(b)) with pi the quotient map of L-.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import AbMap, FpAb, Quotient, RowTable, _dense
from .rings import SqClassGroup

RElem = dict  # class -> integer coefficient


def add(x: dict, y: dict) -> dict:
    """Sum of two finite formal combinations {key: int}, zero terms dropped.
    Elements of Z[G], of P and RP, and the symbolic elements over Q are all
    such combinations, so this is the one addition they share."""
    out = dict(x)
    for k, c in y.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
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
    <g> sends the symbol (h, a) to (g h, a).  A one-term r = c<g> is a
    relabelling of the symbols, a bijection, so its terms need no sums."""
    if len(r) == 1:
        ((g, c),) = r.items()
        return {(g ^ h, a): e for (h, a), d in x.items() if (e := c * d)}
    out: dict = {}
    for g, c in r.items():
        for (h, a), d in x.items():
            k = (g ^ h, a)
            out[k] = out.get(k, 0) + c * d
    return {k: c for k, c in out.items() if c}


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


def steinberg_rows(G: SqClassGroup, W) -> list[RElem]:
    """The values <g> <<a>><<1 - a>> of lambda_1 on the flat basis, with g
    the outer loop: row g * |W| + i is lambda_1 of <g>[W[i]].  They span
    the Steinberg ideal of GW."""
    vals = [steinberg(G, a) for a in W]
    return [{g ^ h: c for h, c in v.items()} for g in range(G.order) for v in vals]


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


def characters(G: SqClassGroup) -> list[Character]:
    """All 2^rank characters; the trivial character comes first."""
    out = []
    for mask in range(1 << G.rank):
        vals = tuple(-1 if (mask >> i) & 1 else 1 for i in range(G.rank))
        out.append(Character(vals))
    return out


def chi_ideal_rows(G: SqClassGroup, chi: Character) -> list[RElem]:
    """Z-lattice of the ideal R^chi, generated by g - chi(g) over g in G
    (a group basis suffices; the full set keeps the lattice obvious)."""
    return [add({g: 1}, {0: -chi(g)}) for g in range(1, G.order)]


def translates(table: RowTable, ngens: int, count: int) -> RowTable:
    """The translates of a module's flat rows (``RModPres.table``) by the
    classes below ``count``, row by row: column i of row k goes, in row
    k * count + t, to ((i // ngens) ^ t) * ngens + i % ngens."""
    t = np.arange(count, dtype=np.int64)[None, :, None]
    cols = ((table.cols[:, None, :] // ngens) ^ t) * ngens + table.cols[:, None, :] % ngens
    shape = (len(table) * count, table.cols.shape[1])
    vals = np.broadcast_to(table.vals[:, None, :], cols.shape).reshape(shape)
    return RowTable(cols.reshape(shape), vals, table.ncols)


class RModPres:
    """Finitely presented Z[G]-module, flattened over the Z-basis
    (group element, generator): index = g * ngens + j.

    The relations are kept as one RowTable (``table``) of untranslated
    flat rows, |G| ngens columns wide; every G-translate of them is a
    relation too (``translates``).  They may be given so, or as sparse
    dicts {generator: RElem}, or as sequences of one RElem per generator,
    which are flattened once here."""

    def __init__(self, G: SqClassGroup, ngens: int, relations=()):
        self.G = G
        self.ngens = ngens
        if isinstance(relations, RowTable):
            if relations.ncols != self.flat_ngens:
                raise ValueError("relation table width does not match the flat basis")
            self.table = relations
        else:
            self.table = RowTable.stack(self.flat_ngens, [self._flat_row(r) for r in relations])
        self._flat: Optional[FpAb] = None
        self._coinvariants: Optional[FpAb] = None
        self._perms: dict[int, np.ndarray] = {}

    def _flat_row(self, rel) -> dict:
        """A relation {generator: RElem} or (RElem per generator) as a
        sparse flat row {g * ngens + j: coefficient}."""
        if isinstance(rel, dict):
            if any(not 0 <= j < self.ngens for j in rel):
                raise ValueError("relation names a generator out of range")
        else:
            rel = list(rel)
            if len(rel) != self.ngens:
                raise ValueError("relation width does not match generator count")
            rel = dict(enumerate(rel))
        return {g * self.ngens + j: c for j, x in rel.items() if x for g, c in x.items() if c}

    @property
    def flat_ngens(self) -> int:
        return self.G.order * self.ngens

    def flat_index(self, g: int, j: int) -> int:
        return g * self.ngens + j

    def flat_rows(self) -> list[dict]:
        """All G-translates of the defining relations (duplicates kept),
        relation by relation."""
        return self.flat_table().rows()

    def flat_table(self) -> RowTable:
        """flat_rows as a RowTable."""
        return translates(self.table, self.ngens, self.G.order)

    def flatten(self) -> FpAb:
        """Z^flat_ngens modulo every G-translate of the relations.  For
        |G| >= 2 its canonical basis comes from the e± block form
        (``_block_lattice``), and ``rels`` builds the translates on read;
        for |G| = 1 it is the coinvariants."""
        if self._flat is None:
            self._flat = self.coinvariants() if self.G.order == 1 else _block_lattice(self)
        return self._flat

    def coinvariants(self) -> FpAb:
        """M ⊗_{Z[G]} Z: Z^ngens modulo the relation rows with every class
        set to 1, built once.  For |G| = 2 it is also L+, the e+ half of
        the block form, so P (RP's coinvariants) and RP share its
        reduction."""
        if self._coinvariants is None:
            n = self.ngens
            self._coinvariants = FpAb(n, RowTable(self.table.cols % n, self.table.vals, n))
        return self._coinvariants

    def act_matrix(self, g: int) -> np.ndarray:
        """Permutation matrix of the action of g on the flattened basis:
        row i has its one entry at act_permutation(g)[i]."""
        return _dense([{j: 1} for j in self.act_permutation(g).tolist()], self.flat_ngens)

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

    def _chi_vals(self, chi: Character) -> np.ndarray:
        """The table's values times chi of each entry's class."""
        signs = np.array([chi(g) for g in range(self.G.order)], dtype=np.int64)
        return self.table.vals * signs[self.table.cols // self.ngens]

    def chi_localize(self, chi: Character) -> FpAb:
        """M_chi = M / R^chi M, presented directly on the module generators
        by evaluating every group coefficient through chi."""
        return FpAb(self.ngens, RowTable(self.table.cols % self.ngens, self._chi_vals(chi), self.ngens))

    def plus_part(self, g: int) -> FpAb:
        """Image of multiplication by (g + 1); its odd part is e_+^g M."""
        return half_part(self.flatten(), self.act_permutation(g), +1)

    def minus_part(self, g: int) -> FpAb:
        """Image of multiplication by (g - 1); its odd part is e_-^g M."""
        return half_part(self.flatten(), self.act_permutation(g), -1)


def half_part(flat: FpAb, perm: np.ndarray, sign: int) -> FpAb:
    """Image of multiplication by (g + sign) on a flat module, or on a
    quotient of it on the same generators, where ``perm`` is
    ``act_permutation(g)``: row i of the map is the sparse row of
    act_matrix(g), whose one entry is at perm[i], plus sign at i."""
    rows = [add({j: 1}, {i: sign}) for i, j in enumerate(perm.tolist())]
    return AbMap(flat, flat, rows).image()


def _block_lattice(m: RModPres) -> FpAb:
    """The flat module of m (|G| >= 2) from its e± block form.

    The top basis class h splits the flat coordinates into x0 (the classes
    without h: the first N = |G| ngens / 2) and x1 (the classes with h).
    Translating by h swaps the halves, so the flat lattice L is spanned by
    (a, b) and (b, a), where (a, b) runs over the translates of the
    relations by the classes without h.  L- is the lattice of the rows
    a - b (the e- half) and L+ that of the rows a + b (the e+ half), with
    quotient maps pi (onto t coordinates) and q+.

    L lies in L' = {(x0, x1) : x0 + x1 in L+, x0 - x1 in L-}, and 2L' lies
    in L.  When Z^N / L- has no 2-torsion (pi has no even modulus), L' = L:
    for (x0, x1) in L' write x0 + x1 = sum c (a + b); then (x0, x1) minus
    sum c (a, b) is (z, -z) with 2z in L-, so z = sum e (a - b) lies in L-
    and (z, -z) = sum e [(a, b) - (b, a)] lies in L.  L is then the kernel
    of (x0, x1) -> (q+(x0 + x1), pi(x0 - x1)).  For |G| = 2, L+ is the
    module's coinvariants (``RModPres.coinvariants``): RP's e+ half is P,
    and the two read one reduction.

    When pi has an even modulus, the glue is S.  The unimodular
    U(x0, x1) = (x0 + x1, x1) carries L to (0 + L-) + <(a + b, b)>, so
    Z^2N / L is Z^(N+t) / S, where S is spanned by the rows (a + b, pi(b))
    and the moduli of pi: RP's 2-part included, no local step needed.  L
    is then the kernel of q_S o phi, where q_S is S's quotient map and
    phi(x0, x1) = (x0 + x1, pi(x1)).

    L-, L+ and S are reduced by the certified Hermite path, N, N and N + t
    columns wide, and L's quotient map is the composite read onto its
    image (``Quotient.onto``), with no basis: the group reads its
    canonical basis off that map when asked.  The certificate is the one
    of every flat lattice: each relation row, in each of the |G|
    translates, must map to 0 under that map, else AssertionError, which
    gives L within the kernel.  The reverse inclusion
    rests on pi, q+ and q_S being the exact maps of their certified bases,
    the trust that every quotient map of this package carries, and for the
    L' glue on the 2-torsion guard (``_no_two_torsion``): without it the
    kernel is L', which may be larger than L while every relation row
    still maps to 0.
    """
    n, order = m.ngens, m.G.order
    half = order // 2
    N = half * n
    # the translates by the classes without h, as one table: its columns
    # folded onto the halves (a flat index i >= N goes to i - N, into b)
    # serve a - b, a + b and b, which differ only in their values
    flat = translates(m.table, n, half)
    upper = flat.cols >= N
    cols = flat.cols - N * upper
    pi = FpAb(N, RowTable(cols, np.where(upper, -flat.vals, flat.vals), N))._projection()
    if _no_two_torsion(pi):
        plus = m.coinvariants() if half == 1 else FpAb(N, RowTable(cols, flat.vals, N))
        del flat, upper, cols
        q = plus._projection()
        # q+ on the first N coordinates, pi on the next N, read at
        # (x0 + x1, x0 - x1)
        t = len(q.moduli)
        q = Quotient(q.moduli + pi.moduli, list(q.by_key) + [[(t + k, a) for k, a in w] for w in pi.by_key])
        phi = [{i: 1, N + i: 1} for i in range(N)] + [{i: 1, N + i: -1} for i in range(N)]
    else:
        t = len(pi.moduli)
        q = FpAb(N + t, _s_rows(RowTable(cols, flat.vals, N), pi, RowTable(cols, np.where(upper, flat.vals, 0), N)))._projection()
        del flat, upper, cols
        phi = [{i: 1} for i in range(N)]
        phi += [{i: 1, **{N + k: a for k, a in enumerate(w) if a}} for i, w in enumerate(pi.images(phi))]
    # rels reads the relation table, not m: the group holds no cycle back
    # to m, so a dropped module is freed at once
    out = FpAb(2 * N, functools.partial(translates, m.table, n, order), q.compose(phi).onto())
    # the certificate: every relation row, through the map read after each
    # translation
    proj = out._projection()
    for g in range(order):
        if proj.compose([{i: 1} for i in m.act_permutation(g).tolist()]).unkilled(m.table):
            raise AssertionError("block form: a relation row does not map to 0")
    return out


def _no_two_torsion(pi: Quotient) -> bool:
    """Whether the group of a quotient map has no 2-torsion: no modulus is
    even (a free coordinate, modulus 0, has none)."""
    return not any(d and d % 2 == 0 for d in pi.moduli)


def _s_rows(plus: RowTable, pi: Quotient, upper: RowTable):
    """The generators of S: a row (a + b, pi(b)) for each row a + b of
    ``plus`` and b of ``upper`` (N columns), where pi(b) takes the columns
    N, N + 1, ... (one per coordinate of pi), and a row d e_(N + k) for
    each modulus d of pi.  A RowTable when every image fits int64, else
    sparse dicts."""
    N, t = plus.ncols, len(pi.moduli)
    mods = [{N + j: d} for j, d in enumerate(pi.moduli) if d]
    try:
        # the images of upper, in int64 blocks (or exact lists, which must fit)
        flat = np.concatenate([np.zeros((0, t), np.int64)] + [np.asarray(w, np.int64) for _, w in pi.blocks(upper)])
    except OverflowError:
        rows = [{**plus.row(i), **{N + j: x for j, x in enumerate(w) if x}} for i, w in enumerate(pi.images(upper))]
        return [r for r in rows if r] + mods
    cols = np.concatenate([plus.cols, np.broadcast_to(N + np.arange(t), (len(plus), t))], axis=1)
    vals = np.concatenate([plus.vals, flat], axis=1)
    return RowTable.stack(N + t, RowTable(cols, vals, N + t), mods)
