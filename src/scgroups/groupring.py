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
comparisons downstream.  A module's flat lattice is built from its e±
blocks through a unimodular change of coordinates (``_block_lattice``), so
its 2-part stays exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import AbMap, FpAb, RowTable, _dense, _image_blocks, _images, _section, _unkilled
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

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)


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


@dataclass(frozen=True, eq=False)
class RelationTable:
    """Relations of a Z[G]-module as three int64 arrays of one shape (m, k):
    relation i is the sum over t of vals[i, t] <classes[i, t]> [gens[i, t]],
    so repeated terms add and zero values are allowed.  ``vals`` may be
    anything that broadcasts to that shape (fixed signs, say); every
    coefficient must fit int64."""

    gens: np.ndarray
    classes: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.gens)
        object.__setattr__(self, "vals", np.broadcast_to(np.asarray(self.vals, dtype=np.int64), shape))

    def __len__(self) -> int:
        return len(self.gens)

    def relations(self) -> list[dict]:
        """Each relation as {generator: {class: coefficient}}, zero terms
        dropped, generators and classes in order of first appearance."""
        out = []
        for js, gs, cs in zip(self.gens.tolist(), self.classes.tolist(), self.vals.tolist()):
            rel: dict = {}
            for j, g, c in zip(js, gs, cs):
                x = rel.setdefault(j, {})
                x[g] = x.get(g, 0) + c
            out.append({j: y for j, x in rel.items() if (y := {g: c for g, c in x.items() if c})})
        return out

    def flat(self, ngens: int, order: int, translates: int) -> RowTable:
        """The translates of the relations by the classes below
        ``translates``, relation by relation, as flat rows over the
        (class, generator) basis of |G| = order: index g * ngens + j."""
        t = np.arange(translates, dtype=np.int64)[None, :, None]
        cols = (self.classes[:, None, :] ^ t) * ngens + self.gens[:, None, :]
        shape = (len(self) * translates, self.gens.shape[1])
        vals = np.broadcast_to(self.vals[:, None, :], cols.shape).reshape(shape)
        return RowTable(cols.reshape(shape), vals, order * ngens)


def relation_table(relations: list[dict]) -> RelationTable:
    """The table of sparse relations {generator: {class: c}}, each padded
    with zero terms to the longest one; a coefficient past int64 is a
    ValueError."""
    terms = [[(j, g, c) for j, x in rel.items() for g, c in x.items()] for rel in relations]
    out = np.zeros((3, len(terms), max(map(len, terms), default=0) or 1), dtype=np.int64)
    for i, row in enumerate(terms):
        try:
            out[:, i, : len(row)] = np.array(row, dtype=np.int64).reshape(-1, 3).T
        except OverflowError:
            raise ValueError(f"relation {i} has a coefficient past int64") from None
    return RelationTable(out[0], out[1], out[2])


def stack_relations(*tables: RelationTable) -> RelationTable:
    """The relations of the tables in turn, padded with zero terms to the
    widest."""
    k = max(t.gens.shape[1] for t in tables)

    def padded(a):
        return np.concatenate([a, np.zeros((len(a), k - a.shape[1]), dtype=np.int64)], axis=1)

    return RelationTable(
        *(np.concatenate([padded(getattr(t, name)) for t in tables]) for name in ("gens", "classes", "vals"))
    )


class RModPres:
    """Finitely presented Z[G]-module, flattened over the Z-basis
    (group element, generator): index = g * ngens + j.

    The relations are kept as a RelationTable (``table``); they may be
    given so, or as sparse dicts {generator: RElem}, or as sequences of
    one RElem per generator.  ``relations`` reads them back as dicts,
    for the callers that ask for them."""

    def __init__(self, G: SqClassGroup, ngens: int, relations=()):
        self.G = G
        self.ngens = ngens
        if isinstance(relations, RelationTable):
            if len(relations) and not (0 <= relations.gens.min() and relations.gens.max() < ngens):
                raise ValueError("relation names a generator out of range")
            self.table = relations
        else:
            self.table = relation_table([self._sparse_relation(r) for r in relations])
        self._flat: Optional[FpAb] = None
        self._perms: dict[int, np.ndarray] = {}

    @functools.cached_property
    def relations(self) -> list[dict]:
        """The relations as sparse dicts {generator: RElem}, built on first
        read and kept (the groups read the table)."""
        return self.table.relations()

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
        sparse row {flat index: coefficient}."""
        return _flat_row(rel, self.ngens, translate)

    def flat_rows(self) -> list[dict]:
        """All G-translates of the defining relations (duplicates kept),
        relation by relation."""
        return self.flat_table().rows()

    def flat_table(self) -> RowTable:
        """flat_rows as a RowTable."""
        order = self.G.order
        return self.table.flat(self.ngens, order, order)

    def flatten(self) -> FpAb:
        """Z^flat_ngens modulo every G-translate of the relations.  For
        |G| >= 2 its canonical basis comes from the e± block form
        (``_block_lattice``), and ``rels`` builds the translates on read."""
        if self._flat is None:
            if self.G.order == 1:
                self._flat = FpAb(self.flat_ngens, self.flat_table())
            else:
                self._flat = _block_lattice(self)
        return self._flat

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


def _flat_row(rel: dict, n: int, translate: int = 0) -> dict:
    """RModPres.flat_row for ngens = n.  Every relation row is built here,
    so flat_index is inlined."""
    return {(g ^ translate) * n + j: c for j, x in rel.items() for g, c in x.items() if c}


def _block_lattice(m: RModPres) -> FpAb:
    """The flat module of m (|G| >= 2) from its e± block form.

    The top basis class h splits the flat coordinates into x0 (the classes
    without h: the first N = |G| ngens / 2) and x1 (the classes with h).
    Translating by h swaps the halves, so the flat lattice L is spanned by
    (a, b) and (b, a), where (a, b) runs over the translates of the
    relations by the classes without h.  The unimodular U(x0, x1) =
    (x0 + x1, x1) carries L to (0 + L-) + <(a + b, b)>, where L- is the
    lattice of the rows a - b (the e- half).  With pi the quotient map of
    Z^N / L- onto t coordinates, Z^2N / L is therefore Z^(N+t) / S, where S
    is spanned by the rows (a + b, pi(b)) (the e+ half) and the moduli of
    pi: RP's 2-part included, no local step needed.

    L- and S are reduced by the certified Hermite path, N and N + t
    columns wide.  A section sigma of pi, checked by projecting it, lifts
    S back: the rows (-l, l) over L-'s basis and U^-1 (s, sigma(z)) =
    (s - sigma(z), sigma(z)) over S's basis generate L, and one reduction
    of these ~2N rows gives its canonical basis.  The certificate is the
    one of every flat lattice: each relation row, in each of the |G|
    translates, must map to 0 under the resulting quotient map, else
    AssertionError.  Together with the section check (which puts the
    generators inside L) this gives the lattice exactly.
    """
    n, order = m.ngens, m.G.order
    half = order // 2
    N = half * n
    # the translates by the classes without h, as one table: its columns
    # folded onto the halves (a flat index i >= N goes to i - N, into b)
    # serve a - b, a + b and b, which differ only in their values
    flat = m.table.flat(n, order, half)
    upper = flat.cols >= N
    cols = flat.cols - N * upper
    minus_group = FpAb(N, RowTable(cols, np.where(upper, -flat.vals, flat.vals), N))
    minus_basis, pi = minus_group.echelon().basis, minus_group._projection()
    del minus_group
    moduli = pi[0]
    t = len(moduli)
    srows = _s_rows(RowTable(cols, flat.vals, N), pi, RowTable(cols, np.where(upper, flat.vals, 0), N))
    del flat, upper, cols
    s_basis = FpAb(N + t, srows).echelon().basis
    del srows
    sigma = _section(pi)
    if _images(pi, sigma) != [[int(i == k) for i in range(t)] for k in range(t)]:
        raise AssertionError("block form: the section does not project to unit vectors")
    rows = [add(scale(-1, r), {N + j: v for j, v in r.items()}) for r in minus_basis]
    for r in s_basis:
        lift: dict = {}
        for i, z in r.items():
            if i >= N:
                lift = add(lift, scale(z, sigma[i - N]))
        row = add({i: z for i, z in r.items() if i < N}, scale(-1, lift))
        row.update((N + j, v) for j, v in lift.items())
        rows.append(row)
    # rels reads the relation table, not m: the group holds no cycle back
    # to m, so a dropped module is freed at once
    out = FpAb._seeded(2 * N, rows, functools.partial(m.table.flat, n, order, order))
    # the certificate: every relation row, through the map read after each
    # translation
    moduli, images = out._projection()
    untranslated = m.table.flat(n, order, 1)
    for g in range(order):
        translated = [images[i] for i in m.act_permutation(g).tolist()]
        if _unkilled((moduli, translated), untranslated):
            raise AssertionError("block form: a relation row does not map to 0")
    return out


def _s_rows(plus: RowTable, pi, upper: RowTable):
    """The generators of S: a row (a + b, pi(b)) for each row a + b of
    ``plus`` and b of ``upper`` (N columns), where pi(b) takes the columns
    N, N + 1, ... (one per coordinate of pi), and a row d e_(N + k) for
    each modulus d of pi.  A RowTable when every image fits int64, else
    sparse dicts."""
    moduli = pi[0]
    N, t, k = plus.ncols, len(moduli), plus.cols.shape[1]
    blocks = [w for _, w in _image_blocks(pi, upper)]
    mods = [{N + j: d} for j, d in enumerate(moduli) if d]
    if not all(isinstance(w, np.ndarray) for w in blocks):
        images = itertools.chain.from_iterable(w.tolist() if isinstance(w, np.ndarray) else w for w in blocks)
        rows = [{**plus.row(i), **{N + j: x for j, x in enumerate(w) if x}} for i, w in enumerate(images)]
        return [r for r in rows if r] + mods
    width = k + t
    cols = np.zeros((len(plus) + len(mods), width), dtype=np.int64)
    vals = np.zeros_like(cols)
    cols[: len(plus), :k], vals[: len(plus), :k] = plus.cols, plus.vals
    cols[: len(plus), k:] = N + np.arange(t)
    if blocks:
        vals[: len(plus), k:] = np.concatenate(blocks)
    for i, r in enumerate(mods, start=len(plus)):
        ((cols[i, 0], vals[i, 0]),) = r.items()
    return RowTable(cols, vals, N + t)
