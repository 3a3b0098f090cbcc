"""Exact integer linear algebra: Hermite/Smith normal forms and a calculus
of finitely presented abelian groups.

Inside the exact core a row has one form: a sparse {column: value} dict
with Python-int keys in range(ncols) and nonzero Python-int values.
``_sparse_row`` is the one normaliser from what a caller passes (a 2-D
array, dense sequences, dicts, or a mix) to such rows; it refuses an index
outside the columns and a dense row of the wrong width.  ``FpAb`` keeps its
relations so, ``AbMap`` one row per source generator, and a canonical basis
lives in a ``SparseEchelon``.  numpy object matrices
appear only at the API edge, as views built on each read (``hnf_rows``,
``rel_basis``, ``rels``, ``reduce``, ``solve_in_rows``, ``left_kernel``,
``lattice_intersect``, ``AbMap.matrix``, ``SubgroupPres.lift``), and as
``snf``'s result; its Smith core ``_smith`` works on lists.

A quotient map Z^n -> Z^f + sum Z/d_k has one form, ``Quotient``: its
moduli and the images of the generators, by index or by any hashable key.
``Quotient.image`` is the one loop that sums generator images; every
membership question goes through it: ``FpAb.contains`` and
``element_order`` (a dict is read as it is, its keys checked), the check
that a map kills the basis rows, and the keyed reads of ``KeyedFpAb``,
whose images ``compose`` reads through rows named by keys (RP by symbol,
RP~ + RP~ by S_v case).  ``unkilled``, ``images`` and ``blocks`` take many
rows at once as a ``RowTable`` (dicts are packed into one first, unless
they are few), read as its 2-D arrays, one gather per coordinate, in
blocks through int64 arrays when no sum can reach 2^62 and in Python ints
otherwise; a map builds its gather table once and keeps it.  An ``AbMap``
composes the target's map with the map rows once, and ``unkilled``, the
one test that a map kills relation rows, and its kernels and images read
that composed map.

Every derived lattice is one question, ``Quotient.kernel``: the canonical
basis of {x : image(x) lies in the lattice of the moduli and some extra
rows}, read off the generator images in one right-to-left pass over a
lattice of the few target coordinates.  Kernels and images of maps (the
target's map composed with the map rows), quotients (the images of the new
rows as extra rows), the block form of a Z[G]-module, ``left_kernel``,
``lattice_intersect`` and the certified Hermite step all read their bases
so, and hand them to ``FpAb`` as its echelon.

Every map read off rows comes from one builder, ``_quotient_map``: one
back-substitution over triangular rows, then ``_smith`` on the relation
rows of their pivots > 1, with no rows det*e_k at full rank.
``_hnf_sparse`` is the one exact Hermite path: a sparse Markowitz
reduction to triangular rows (gcd first where the least pivot exceeds 1),
whose map (modulo their determinant at full rank) has the Hermite basis as
its kernel.  That map is the lattice's one map: the certificate reads it,
and an FpAb keeps it with the basis.  An input of more than
WHOLE_PER_COLUMN (4) rows per column is not reduced whole: a seeded subset
of n + 8 rows that touch each column twice is.  Every round, whole inputs
included, is checked at run time: the map kills every basis row and every
input row (``Quotient.unkilled``), and rank and determinant match; input
rows it does not kill join the subset for another round.  Only a basis
that comes without a map (a kernel, a direct sum) has its map built from
its canonical rows (``_projection_table``).

Coordinates, membership and canonical representatives in a
``SparseEchelon`` are one walk that takes the smallest column left in the
vector from a heap, so it touches only the pivots the vector reaches; a
kernel hands the coordinates of its source relations to ``FpAb`` as
{row: coefficient} dicts.  A subquotient A/B is the image of the map that
sends the generators to the rows of A in Z^n/B.

Rows read in bulk have one form, a ``RowTable`` of int64 columns and
values, one row per line (the five-term relations, K^(1), L_B and the half
rows of a Z[G]-module's block form); ``_packed`` is the one packer of dict
rows into it.  ``_hnf_sparse`` builds dicts only for the rows of a table
it reduces, and the certificate projects the table's arrays directly.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np


def intmat(data) -> np.ndarray:
    """Build an exact integer matrix (object dtype, Python ints)."""
    if isinstance(data, np.ndarray) and data.ndim == 2:
        rows, cols = data.shape
        out = np.empty((rows, cols), dtype=object)
        for i in range(rows):
            for j in range(cols):
                out[i, j] = int(data[i, j])
        return out
    data = list(data)
    rows = len(data)
    cols = len(data[0]) if rows else 0
    out = np.empty((rows, cols), dtype=object)
    for i, row in enumerate(data):
        row = list(row)
        if len(row) != cols:
            raise ValueError("ragged matrix data")
        for j, x in enumerate(row):
            out[i, j] = int(x)
    return out


def zeros(rows: int, cols: int) -> np.ndarray:
    out = np.empty((rows, cols), dtype=object)
    out[...] = 0
    return out


def identity(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = 1
    return out


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _sparse_row(v, n: int) -> dict:
    """A row of width n as a sparse dict with Python-int keys in range(n)
    and nonzero Python-int values.  The row is a {column: value} dict, whose
    every key must lie in range(n), or a dense sequence or numpy row of
    length n; anything else is a ValueError.  A dict that is in that form
    already is returned as it is, not copied: code that modifies rows
    copies them first."""
    if isinstance(v, dict):
        for j, x in v.items():
            if not (type(j) is int and 0 <= j < n and type(x) is int and x):
                break
        else:
            return v
        out = {}
        for j, x in v.items():
            if not 0 <= j < n:
                raise ValueError(f"index {j!r} outside the generators range({n})")
            if x:
                out[operator.index(j)] = int(x)
        return out
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if len(v) != n:
        raise ValueError(f"a dense row of length {len(v)} does not match {n} generators")
    return {j: int(x) for j, x in enumerate(v) if x}


def _sparse_rows(rows, n: int) -> list[dict]:
    """Rows of width n in any form the API takes (None, a 2-D array, or an
    iterable of dicts, dense sequences and numpy rows), each through
    ``_sparse_row``: the one normaliser of the exact core."""
    return [] if rows is None else [_sparse_row(r, n) for r in rows]


def _bulk_rows(rows, n: int) -> "list[dict] | RowTable":
    """Rows of width n to be read in bulk: a RowTable of width n as it is
    (the one check of a table's width), any other form through
    ``_sparse_rows``."""
    if not isinstance(rows, RowTable):
        return _sparse_rows(rows, n)
    if rows.ncols != n:
        raise ValueError(f"a row table of width {rows.ncols} does not match {n} generators")
    return rows


@dataclass(frozen=True, eq=False)
class RowTable:
    """Rows of width ncols given by two int64 arrays of one shape (m, k):
    row i is the sum over t of vals[i, t] * e_{cols[i, t]}, so repeated
    columns add and zero values are allowed.  ``vals`` may be anything
    that broadcasts to that shape (fixed signs, say) and is kept as a
    read-only view.  A column outside range(ncols) is a ValueError.

    It is the one int64 form of relation rows: the five-term table, the
    untranslated relations of a Z[G]-module over its flat basis, and what
    ``stack`` builds from tables and sparse dicts.  The table is never
    modified, so ``copy`` returns it, and a slice of rows is a table that
    shares its arrays."""

    cols: np.ndarray
    vals: np.ndarray
    ncols: int

    def __post_init__(self):
        cols = np.asarray(self.cols, dtype=np.int64)
        if cols.ndim != 2:
            raise ValueError("a row table's columns must be a 2-D array")
        if cols.size:
            _check_columns(int(cols.min()), int(cols.max()), self.ncols)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", np.broadcast_to(np.asarray(self.vals, dtype=np.int64), cols.shape))

    def __len__(self) -> int:
        return self.cols.shape[0]

    def __getitem__(self, rows: slice) -> "RowTable":
        return RowTable(self.cols[rows], self.vals[rows], self.ncols)

    def copy(self) -> "RowTable":
        return self

    def entries(self, i: int):
        """The (column, value) pairs of row i as Python ints, repeats and
        zeros included."""
        return zip(self.cols[i].tolist(), self.vals[i].tolist())

    def row(self, i: int) -> dict:
        """Row i as a sparse dict: repeated columns summed, zeros dropped."""
        return _summed(self.entries(i))

    def rows(self) -> list[dict]:
        """Every row as a sparse dict, in order."""
        return [_summed(zip(c, v)) for c, v in zip(self.cols.tolist(), self.vals.tolist())]

    @classmethod
    def stack(cls, ncols: int, *parts) -> "RowTable":
        """The rows of the parts in turn, each a RowTable or a list of
        sparse dicts (``_packed``), padded with zero entries to the widest
        row.  A value past int64 is a ValueError."""
        try:
            parts = [p if isinstance(p, RowTable) else _packed(p, ncols) for p in parts]
        except OverflowError:
            raise ValueError("a row has a value past int64") from None
        width = max([min(1, ncols), *(p.cols.shape[1] for p in parts)])
        cols = np.zeros((sum(map(len, parts)), width), dtype=np.int64)
        vals = np.zeros_like(cols)
        lo = 0
        for part in parts:
            k = part.cols.shape[1]
            cols[lo : lo + len(part), :k], vals[lo : lo + len(part), :k] = part.cols, part.vals
            lo += len(part)
        return cls(cols, vals, ncols)


def _check_columns(lo: int, hi: int, ncols: int) -> None:
    """Refuse rows whose least and largest columns lo and hi do not lie in
    range(ncols): the one check of bulk rows' columns."""
    if not (0 <= lo and hi < ncols):
        raise ValueError(f"a row table's column lies outside the generators range({ncols})")


def _packed(rows: list[dict], ncols: int) -> RowTable:
    """Sparse dict rows as a RowTable of width ncols, padded with zero
    entries to the longest row: the one packer of dict rows into int64
    arrays, its columns and values each read by one ``fromiter`` and placed
    by a mask.  A value past int64 is numpy's OverflowError."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    filled = np.arange(int(lens.max(initial=0))) < lens[:, None]
    nnz = int(lens.sum())
    cols = np.zeros(filled.shape, dtype=np.int64)
    vals = np.zeros_like(cols)
    cols[filled] = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=nnz)
    vals[filled] = np.fromiter(itertools.chain.from_iterable(map(dict.values, rows)), dtype=np.int64, count=nnz)
    return RowTable(cols, vals, ncols)


def _summed(entries) -> dict:
    """The sparse row of (column, value) entries: repeats summed, zeros
    dropped, columns in order of first appearance."""
    out: dict = {}
    for j, x in entries:
        out[j] = out.get(j, 0) + x
    return {j: x for j, x in out.items() if x}


def _edge_rows(mat, ncols: Optional[int] = None) -> tuple[list[dict], int]:
    """(sparse rows, width) of a matrix given at the API edge: the width is
    ncols, else that of a 2-D array or of the first dense row."""
    if ncols is None:
        if isinstance(mat, np.ndarray):
            ncols = mat.shape[1]
        else:
            mat = list(mat)
            if not mat or isinstance(mat[0], dict):
                raise ValueError("ncols is required for sparse or empty input")
            ncols = len(mat[0])
    return _sparse_rows(mat, ncols), ncols


def _dense(rows: list[dict], ncols: int) -> np.ndarray:
    """The sparse rows as an object matrix of width ncols: the API-edge view."""
    out = zeros(len(rows), ncols)
    for i, r in enumerate(rows):
        for j, v in r.items():
            out[i, j] = v
    return out


def _sparse_reduce(rows: list[dict]) -> list[tuple[int, dict]]:
    """Unimodular row reduction of sparse rows with a Markowitz-style pivot
    rule (fewest entries in the column, then smallest absolute pivot value,
    then sparsest row, then first row).

    The rows must hold no zero values; they are modified in place.  Returns
    the retired rows, each paired with its retirement column: a triangular
    generating set of the lattice.  This staged reduction is what keeps
    entries small on the large five-term relation matrices; naive
    leftmost-pivot elimination blows up.

    A pass subtracts the pivot row from every other row of its column,
    which leaves each such entry in [0, pivot) and changes no row but its
    own, so the next pass's pivot is the least (value, length, row) key
    that the pass itself saw.  A pivot p > 1 goes gcd first (Havas, Holt
    and Rees 1993): the partner of least (gcd(p, x), length, row) over the
    column's other rows, if that gcd is below p, runs floor-division steps
    with the pivot row, the two rows only, until one of them vanishes at
    the column, and the row left, whose entry is the gcd, clears the
    column.  The column's other rows are then updated by the gcd once, not
    by each pivot on the way down to it, which keeps entries small: the
    first subset of P(GF(529)) reaches 224 bits, not 615.
    """
    live: dict[int, dict] = {}
    col_rows: dict[int, set] = {}
    for rid, r in enumerate(rows):
        if r:
            live[rid] = r
            for j in r:
                col_rows.setdefault(j, set()).add(rid)

    def add(rid: int, q: int, items) -> None:
        # row rid += q * (the row of items): a sum can vanish only where
        # the row had an entry, so one lookup decides the branch
        r = live[rid]
        for c, v in items:
            x = r.get(c)
            if x is None:
                r[c] = q * v
                col_rows[c].add(rid)
            else:
                x += q * v
                if x:
                    r[c] = x
                else:
                    del r[c]
                    col_rows[c].discard(rid)

    retired: list[tuple[int, dict]] = []
    heap = [(len(s), j) for j, s in col_rows.items()]
    heapq.heapify(heap)
    while heap:
        l, j = heapq.heappop(heap)
        s = col_rows[j]
        if not s:
            continue
        if len(s) != l:
            heapq.heappush(heap, (len(s), j))
            continue
        if len(s) > 1:
            best = min((abs(live[rid][j]), len(live[rid]), rid) for rid in s)
        while len(s) > 1:
            rid0 = best[2]
            src = live[rid0]
            piv = src[j]
            if piv < 0:
                for c, v in src.items():
                    src[c] = -v
                piv = -piv
            if piv > 1:
                g, _, mate = min((math.gcd(piv, live[rid][j]), len(live[rid]), rid) for rid in s if rid != rid0)
                if g < piv:
                    # Euclid on the pivot row and its mate: each step leaves
                    # the updated row's entry in [0, the other's)
                    while True:
                        add(mate, -(live[mate][j] // live[rid0][j]), live[rid0].items())
                        if j not in live[mate]:
                            break
                        rid0, mate = mate, rid0
                    src = live[rid0]
                    piv = src[j]
            best = (piv, len(src), rid0)
            items = tuple(src.items())
            for rid in list(s):
                if rid == rid0:
                    continue
                r = live[rid]
                q = -(r[j] // piv)
                if q:
                    add(rid, q, items)
                x = r.get(j)
                if x is not None and (x, len(r), rid) < best:
                    best = (x, len(r), rid)
        (rid0,) = s
        r = live.pop(rid0)
        for c in r:
            col_rows[c].discard(rid0)
        retired.append((j, r))
    if any(live.values()):
        raise AssertionError("sparse reduction left an entry")
    return retired


def sparse_rank_and_pivots(rows, ncols: int) -> tuple[int, list[int]]:
    """Exact rank of the row lattice plus the staircase pivot values of
    the reduction.  The retired rows are triangular on their retirement
    columns (later rows vanish there), so all pivots equal to 1 certifies
    a unimodular maximal minor, i.e. the lattice is a direct summand,
    without computing a canonical form.
    """
    retired = _sparse_reduce([dict(r) for r in _sparse_rows(rows, ncols)])
    pivots = [abs(r[c]) for c, r in retired]
    return len(retired), pivots


def hnf_rows(mat, ncols: Optional[int] = None) -> np.ndarray:
    """Canonical row-style Hermite basis of the row lattice of ``mat``, as a
    dense view of ``_hnf_sparse``.

    ``mat`` may be a 2-D array or an iterable of rows (dense rows or sparse
    {col: value} dicts; ``ncols`` is required for the latter).  The result
    is an r x ncols object matrix in echelon form with positive pivots and
    the entries above each pivot reduced into [0, pivot).  The caller's
    rows are never modified; an index outside range(ncols), or a dense row
    of another width, is a ValueError.
    """
    rows, n = _edge_rows(mat, ncols)
    return _dense(_hnf_sparse(rows, n)[0].basis, n)


# the sizes and the seed of _hnf_sparse's first subset (_first_subset)
WHOLE_PER_COLUMN = 4
_STREAM_PER_COLUMN = 8
_STREAM_EXTRA = 64
_COVER = 2
_SUBSET_EXTRA = 8
_SUBSET_SEED = 7


def _seeded_stream(m: int, k: int):
    """k distinct indices of range(m), drawn one at a time by a Fisher-Yates
    shuffle seeded with _SUBSET_SEED (Durstenfeld 1964, Algorithm 235) whose
    swaps a dict keeps, so a reader that stops early draws no more: draw i
    takes position j of the m - i indices not yet drawn and moves the last
    of them into j."""
    rng = random.Random(_SUBSET_SEED)
    swaps: dict[int, int] = {}
    for i in range(k):
        j = rng.randrange(m - i)
        yield swaps.get(j, j)
        swaps[j] = swaps.get(m - i - 1, m - i - 1)


def _row_builder(rows):
    """Row i of ``rows`` as a new sparse dict, the one way the certified
    path builds a row: ``RowTable.row`` for a table, else a copy."""
    return rows.row if isinstance(rows, RowTable) else lambda i: dict(rows[i])


def _first_subset(rows, n: int, built: Optional[dict] = None) -> set[int]:
    """The indices of the rows ``_hnf_sparse`` reduces first: every row of
    an input of at most WHOLE_PER_COLUMN * n rows, else rows of a seeded
    stream of at most _STREAM_PER_COLUMN * n + _STREAM_EXTRA of them.  A
    stream row joins while its support touches a column that fewer than
    _COVER chosen rows touch, and skipped stream rows, then the next ones
    drawn, pad the subset to n + _SUBSET_EXTRA rows.  A uniform sample that
    small misses columns of sparse rows, and so rank; this one touches each
    column as often as _COVER or the stream allows, which still misses rank
    on rows of two entries (a graph's edges).  Up to 4n rows it still
    misses rank often enough that a second round costs more than a whole
    reduction.

    The stream is drawn lazily and stops where the cover rule does.  Each
    row it reads is built once by ``_row_builder`` (a table row's repeated
    columns summed and its zeros dropped, so that columns which cancel do
    not count) and put in ``built`` by index, from where the reduction
    takes it."""
    m = len(rows)
    if m <= WHOLE_PER_COLUMN * n:
        return set(range(m))
    if built is None:
        built = {}
    build = _row_builder(rows)
    stream = _seeded_stream(m, min(m, _STREAM_PER_COLUMN * n + _STREAM_EXTRA))
    cover = [0] * n
    # columns that fewer than _COVER chosen rows touch
    short = n
    chosen, skipped = [], []
    for i in stream:
        built[i] = support = build(i)
        if not any(cover[j] < _COVER for j in support):
            skipped.append(i)
            continue
        chosen.append(i)
        for j in support:
            cover[j] += 1
            short -= cover[j] == _COVER
        if not short:
            break
    pad = max(0, n + _SUBSET_EXTRA - len(chosen))
    return set(chosen + skipped[:pad] + list(itertools.islice(stream, max(0, pad - len(skipped)))))


def _hnf_sparse(rows, n: int) -> tuple[SparseEchelon, Quotient]:
    """The canonical HNF of the lattice of ``rows`` (sparse dicts as
    ``_sparse_rows`` gives them, or a RowTable of width n) as a
    SparseEchelon, with the quotient map of the same lattice that its
    certificate read: one map per lattice, which a caller keeps and builds
    no second time.

    The rows are read in place and may repeat; each row the path reduces
    is copied (or, from a table, built) once before the reduction modifies
    it, the first subset's as ``_first_subset`` reads them, and the
    certificate projects a table without building its rows.  The first
    subset (``_first_subset``) is every row of an input of at most
    WHOLE_PER_COLUMN * n rows, else at least n + 8 rows of a seeded stream
    that touch each column twice where the stream does.  Each round
    reduces the subset to triangular rows, and ``_subset_hnf`` gives the
    HNF B of their lattice L_S, the index d_S of L_S projected onto B's
    pivot columns, and the quotient map of L_S, which the one builder
    (``_quotient_map``) reads off the triangular rows it was written for,
    not off B.  The certificate, the same at every rank and for a whole
    input too, trusts that builder and checks the rest in one place:

    - B is a canonical HNF (``_check_canonical``);
    - the map kills every basis row, B has rank(L_S) rows and its pivots
      multiply to d_S: then L(B) lies in L_S with the same rank, both span
      one space with one set of echelon pivot columns, onto which the
      projection is injective, and equal indices there give L(B) = L_S;
    - the map kills every input row, so L(rows) lies in L_S, which the
      subset's rows span: L(rows) = L_S = L(B).

    Input rows that the map does not kill join the subset for the next
    round, a seeded sample of at most len(subset) of them, so the subset
    at most doubles; a subset row that it does not kill is a fault.  The
    next round reduces them together with B, not with the triangular
    rows: the checks have just proved L(B) = L_S, so the new subset's
    lattice is the same, and B's entries lie below d_S while the
    triangular rows' can be far larger (on P(GF(729)), whose index is 730,
    317 bits, and 2 608 before the reduction went gcd first).  Hermite
    insertion modulo the determinant does the same (Domich-Kannan-Trotter
    1987).  A prefix is no subset: the first 476 rows of P(GF(121)) in
    pair order reach rank 108 of 119.
    """
    build = _row_builder(rows)
    built: dict[int, dict] = {}

    def take(i: int) -> dict:
        return built.pop(i) if i in built else build(i)

    chosen = _first_subset(rows, n, built)
    work = [take(i) for i in sorted(chosen)]
    while True:
        retired = _sparse_reduce(work)
        basis, index, proj = _subset_hnf(retired, n)
        _check_canonical(basis, n)
        if proj.unkilled(basis):
            raise AssertionError("certified HNF: a basis row is not in the subset lattice")
        if len(basis) != len(retired) or math.prod(r[min(r)] for r in basis) != index:
            raise AssertionError("certified HNF: the basis and the subset lattice differ in rank or index")
        missing = proj.unkilled(rows)
        if not chosen.isdisjoint(missing):
            raise AssertionError("certified HNF: the quotient map misses a subset row")
        if not missing:
            return SparseEchelon._canonical(basis, n), proj
        if len(missing) > len(chosen):
            missing = sorted(missing[i] for i in _seeded_stream(len(missing), len(chosen)))
        chosen.update(missing)
        work = [dict(r) for r in basis] + [take(i) for i in missing]


def _check_canonical(basis: list[dict], n: int) -> None:
    """Raise AssertionError unless the rows are a canonical HNF: pivot
    columns strictly increasing, pivots positive, and every entry in the
    pivot column of a later row reduced into [0, pivot)."""
    pivots = {}
    last = -1
    for r in basis:
        j = min(r)
        if j <= last or r[j] <= 0 or max(r) >= n:
            raise AssertionError("certified HNF: rows are not in echelon form")
        pivots[j] = r[j]
        last = j
    for r in basis:
        first = min(r)
        for j, v in r.items():
            if j != first and j in pivots and not 0 <= v < pivots[j]:
                raise AssertionError("certified HNF: an entry above a pivot is not reduced")


def _quotient_map(tri: list, n: int, det: int = 0) -> Quotient:
    """The quotient map Z^n -> Z^n / L of the lattice L of triangular rows,
    (column, row) pairs in which each row vanishes at the columns of the
    pairs before it (retired rows, or a canonical HNF by pivot): the one
    builder of a quotient map from rows.  One back-substitution, a Tietze
    presentation (Cohen 1993, §2.4): a column where no row lies gets a free
    coordinate, a pivot ±1 rewrites its generator through later columns,
    and a larger pivot gives its generator a coordinate of its own and its
    image as a relation row.  A ``det`` with det*Z^n in L takes every value
    modulo det but each relation row's own pivot, so no other entry leaves
    [0, det) (Domich-Kannan-Trotter 1987): the triangular relation block
    has index det, so it holds det*Z^t already, and a single pivot equal
    to det keeps its order.  ``_smith`` reads the relation rows, in
    increasing column, over the coordinates they touch: the target is Z/d_k
    for each Smith modulus other than 1, then the untouched coordinates,
    and a touched coordinate's image is its row of the transform V.  With
    no relation row the back-substitution's map is the result."""
    images: list[dict] = [{} for _ in range(n)]
    cols: list[int] = []  # the column of each coordinate
    for j in sorted(set(range(n)) - {c for c, _ in tri}):
        images[j] = {len(cols): 1}
        cols.append(j)
    rels: dict[int, dict] = {}
    for c, r in reversed(tri):
        acc: dict = {}
        for j, a in r.items():
            for k, x in images[j].items():  # the row's own column is not mapped yet
                acc[k] = acc.get(k, 0) + a * x
        if (p := r[c]) in (1, -1):
            images[c] = {k: y for k, x in acc.items() if (y := -p * x % det if det else -p * x)}
        else:
            images[c] = {len(cols): 1}
            rels[c] = {**({k: x % det for k, x in acc.items()} if det else acc), len(cols): p}
            cols.append(c)
    if not rels:
        return Quotient([0] * len(cols), [sorted(img.items()) for img in images])
    touched = sorted({k for r in rels.values() for k in r}, key=cols.__getitem__)
    s, _, v, _ = _smith([[r.get(k, 0) for k in touched] for _, r in sorted(rels.items())], len(touched))
    d = [s[i][i] for i in range(min(len(s), len(touched)))] + [0] * max(0, len(touched) - len(s))
    keep = [i for i, x in enumerate(d) if x != 1]
    new = {k: [(out, a) for out, i in enumerate(keep) if (a := v[pos][i])] for pos, k in enumerate(touched)}
    free = [k for k in range(len(cols)) if k not in new]
    new.update((k, [(out, 1)]) for out, k in enumerate(free, start=len(keep)))
    moduli = [d[i] for i in keep] + [0] * len(free)
    for j, img in enumerate(images):
        w: dict = {}
        for k, x in img.items():
            for o, a in new[k]:
                w[o] = w.get(o, 0) + x * a
        images[j] = sorted((o, y) for o, x in w.items() if (y := x % moduli[o] if moduli[o] else x))
    return Quotient(moduli, images)


def _subset_hnf(retired: list, n: int) -> tuple[list[dict], int, Quotient]:
    """(basis, index, map) of the lattice L of the triangular rows
    ``retired``: the quotient map Z^n -> Z^n / L that the one builder
    (``_quotient_map``) reads off those rows, modulo the determinant D,
    the product of the pivots, at full rank; its kernel, the canonical HNF
    rows of L; and the index of L projected onto their pivot columns.  The
    map is the lattice's one map: ``_hnf_sparse`` certifies the basis
    against it and hands it on with the basis.

    The index is D at full rank, else that of the rows re-reduced on the
    basis's pivot columns, onto which L must project injectively.  A basis
    whose pivots do not multiply to the index is refused: the map it was
    read from has the wrong order."""
    if not retired:
        return [], 1, _quotient_map(retired, n)
    det = math.prod(abs(r[c]) for c, r in retired) if len(retired) == n else 0
    proj = _quotient_map(retired, n, det)
    basis = proj.kernel()
    index = det
    if not det:
        pos = {min(r): i for i, r in enumerate(basis)}
        sub = _sparse_reduce([{pos[j]: v for j, v in r.items() if j in pos} for _, r in retired])
        if not len(sub) == len(pos) == len(retired):
            raise AssertionError("certified HNF: the projection onto the pivot columns is not injective")
        index = math.prod(abs(r[c]) for c, r in sub)
    if math.prod(r[min(r)] for r in basis) != index:
        raise AssertionError("certified HNF: the quotient map has the wrong order")
    return basis, index, proj


def _axpy(a: int, x: dict, b: int, y: dict) -> dict:
    """a*x + b*y of sparse rows."""
    out = {}
    for j in x.keys() | y.keys():
        z = a * x.get(j, 0) + b * y.get(j, 0)
        if z:
            out[j] = z
    return out


class _ImageLattice:
    """A lattice H of Z^t that holds d_k e_k for each modulus d_k > 0, as
    echelon rows by pivot coordinate, each with the combination {generator:
    coefficient} of generator images it stands for, modulo the lattice H
    started as (whose rows stand for nothing).  The rows are kept in
    Hermite form, each entry at a later pivot reduced into [0, pivot), so
    that no entry grows with each insertion (on a torsion coordinate the
    pivot divides d_k)."""

    def __init__(self, moduli: list[int]):
        self.moduli = moduli
        self.rows = {k: ({k: d}, {}) for k, d in enumerate(moduli) if d}

    def insert(self, v: dict, comb: dict) -> Optional[dict]:
        """Add v, standing for comb; both dicts are the lattice's from now
        on.  If v raises the rank of H it becomes a row and None is
        returned.  Otherwise v reduces to 0 through the rows, which change
        only where their pivot does not divide v, and the combination left
        is returned: a relation among the generator images modulo the
        lattice H started as, in which a generator of comb that no row
        stands for is scaled by [H + <v> : H]."""
        moduli, rows = self.moduli, self.rows
        changed = False
        while v:
            u = min(v)
            x = v.pop(u)
            if moduli[u]:
                x %= moduli[u]
            if not x:
                continue
            v[u] = x
            if u not in rows:
                rows[u] = (v, comb) if x > 0 else ({j: -a for j, a in v.items()}, {j: -a for j, a in comb.items()})
                self._hermite()
                return None
            b, t = rows[u]
            p = b[u]
            if x % p:
                g, s, y = xgcd(p, x)
                rows[u] = (_axpy(s, b, y, v), _axpy(s, t, y, comb))
                v, comb = _axpy(-(x // g), b, p // g, v), _axpy(-(x // g), t, p // g, comb)
                changed = True
            else:
                _sub_entries(v, x // p, b.items())
                _sub_entries(comb, x // p, t.items())
        if changed:
            self._hermite()
        return comb

    def _hermite(self) -> None:
        """Reduce each row, bottom-up, by the later rows at their pivots."""
        rows = self.rows
        pivots = sorted(rows)
        for k in reversed(range(len(pivots))):
            b, t = rows[pivots[k]]
            for j in pivots[k + 1 :]:
                q = b.get(j, 0) // rows[j][0][j]
                if q:
                    _sub_entries(b, q, rows[j][0].items())
                    _sub_entries(t, q, rows[j][1].items())


def left_kernel(mat) -> np.ndarray:
    """Basis (canonical HNF rows) of {x : x @ mat = 0}: the kernel of the
    map that sends generator i to row i of mat in a free target."""
    rows, n = _edge_rows(mat)
    return _dense(Quotient([0] * n, [list(r.items()) for r in rows]).kernel(), len(rows))


def hnf_with_transform(mat) -> tuple[np.ndarray, np.ndarray]:
    """Return (H, K): H the canonical row-Hermite basis of ``mat`` and K
    the canonical basis of its left kernel {x : x @ mat = 0}.

    No transform T with T @ mat == H is returned: it is not unique.  The
    name stays because the benchmark in ``bench/`` traces it.
    """
    return hnf_rows(mat), left_kernel(mat)


class SparseEchelon:
    """A canonical row HNF in sparse form: ``basis`` holds its rows as
    sparse dicts, ``rows`` each row's pivot column, its pivot and the
    nonzero (column, value) entries right of the pivot, and ``pivot_row``
    the row of each pivot column.  Coordinates, membership and canonical
    representatives are one sparse walk (``_walk``) that touches only the
    pivots a vector reaches (Gilbert-Peierls 1988)."""

    def __init__(self, basis, ncols: Optional[int] = None):
        """``basis`` is a 2-D array, or rows in any form with ``ncols``."""
        self._index(*_edge_rows(basis, ncols))

    @classmethod
    def _canonical(cls, basis: list[dict], ncols: int) -> "SparseEchelon":
        """The echelon of rows that ``_hnf_sparse`` built, which are in the
        exact core's form already: no pass through the normaliser."""
        ech = cls.__new__(cls)
        ech._index(basis, ncols)
        return ech

    def _index(self, basis: list[dict], ncols: int) -> None:
        self.basis, self.ncols = basis, ncols
        self.rows: list[tuple[int, int, list[tuple[int, int]]]] = []
        for r in self.basis:
            if not r:
                raise ValueError("an echelon basis has no zero rows")
            (j, p), *rest = sorted(r.items())
            self.rows.append((j, p, rest))
        self.pivot_row = {j: i for i, (j, _, _) in enumerate(self.rows)}

    def _walk(self, v, exact: bool) -> Optional[tuple[dict, dict]]:
        """(coefficients {row: c}, remainder) of v against the basis: the
        smallest column left in v is taken from a heap, and its row, if it
        is a pivot column, is subtracted as often as its pivot fits in it.
        A row changes only columns right of its pivot, so each column is
        final when it is taken, and the walk gives what the row-order
        back-substitution gives.  With ``exact`` the walk stops with None
        at the first column that the basis cannot clear, so the remainder
        of a returned pair is empty; otherwise the remainder is v's
        canonical representative, each pivot column reduced into [0, pivot)."""
        r = dict(_sparse_row(v, self.ncols))
        heap = list(r)
        heapq.heapify(heap)
        coeffs: dict = {}
        last = -1
        while heap:
            c = heapq.heappop(heap)
            if c == last or c not in r:
                continue
            last = c
            i = self.pivot_row.get(c)
            if i is None:
                if exact:
                    return None
                continue
            _, p, rest = self.rows[i]
            q, rem = divmod(r.pop(c), p)
            if rem:
                if exact:
                    return None
                r[c] = rem
            if not q:
                continue
            coeffs[i] = q
            for j, a in rest:
                x = r.get(j)
                if x is None:
                    r[j] = -q * a
                    heapq.heappush(heap, j)
                    continue
                x -= q * a
                if x:
                    r[j] = x
                else:
                    del r[j]
        return coeffs, r

    def solve(self, v) -> Optional[list[int]]:
        """Coefficients c with c @ basis == v, or None if v is not in the
        row lattice.  v is a dense vector or a sparse {index: value} dict."""
        out = self._walk(v, True)
        return None if out is None else [out[0].get(i, 0) for i in range(len(self.rows))]

    def reduce(self, v) -> dict:
        """Canonical representative of v modulo the row lattice: each pivot
        coordinate reduced into [0, pivot)."""
        return self._walk(v, False)[1]


def _sub_entries(r: dict, q: int, entries) -> None:
    """r -= q * (sparse row given by its (column, value) entries), in place."""
    for c, a in entries:
        x = r.get(c, 0) - q * a
        if x:
            r[c] = x
        else:
            r.pop(c, None)


def _coordinates(ech: SparseEchelon, rows: list[dict], fault: str) -> list[dict]:
    """Coordinates {basis row: coefficient} of each row in the basis
    ``ech``; a row outside its lattice is an AssertionError with the
    message ``fault``."""
    out = []
    for r in rows:
        c = ech._walk(r, True)
        if c is None:
            raise AssertionError(fault)
        out.append(c[0])
    return out


def solve_in_rows(basis, v) -> Optional[np.ndarray]:
    """Coordinates of v in terms of the rows of a canonical HNF, or None if
    v is not in the row lattice.  ``basis`` is the HNF or its SparseEchelon;
    callers that solve many vectors against one basis pass the latter."""
    ech = basis if isinstance(basis, SparseEchelon) else SparseEchelon(basis)
    coeffs = ech.solve(v)
    return None if coeffs is None else np.array(coeffs, dtype=object)


def lattice_intersect(a, b) -> np.ndarray:
    """Canonical basis of (row lattice of a) ∩ (row lattice of b): the
    vectors y @ a for y in the kernel of y -> y @ a in a free target
    modulo the rows of b.  a is a 2-D array or dense rows; b has its
    width, in any row form."""
    a, n = _edge_rows(a)
    ys = Quotient([0] * n, [list(r.items()) for r in a]).kernel(_sparse_rows(b, n))
    return _dense(_hnf_sparse([_summed((j, c * x) for i, c in y.items() for j, x in a[i].items()) for y in ys], n)[0].basis, n)


@dataclass
class SmithData:
    """Exact Smith decomposition u @ a @ v = s."""

    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    rank: int

    def diagonal(self) -> list[int]:
        m, n = self.s.shape
        return [int(self.s[i, i]) for i in range(min(m, n))]


def _pivot_search(a: list[list[int]], t: int, n: int) -> Optional[tuple[int, int]]:
    nnz_row = [sum(1 for x in r[t:] if x) for r in a]
    nnz_col = [sum(1 for r in a[t:] if r[j]) for j in range(n)]
    best = None
    best_key = None
    for i in range(t, len(a)):
        if not nnz_row[i]:
            continue
        for j in range(t, n):
            x = a[i][j]
            if not x:
                continue
            key = (abs(x), (nnz_row[i] - 1) * (nnz_col[j] - 1), i, j)
            if best_key is None or key < best_key:
                best_key = key
                best = (i, j)
    return best


def _mix_rows(r: list, i: int, j: int, x: int, y: int, z: int, w: int, cols) -> None:
    """Rows i and j of r become x*r[i] + y*r[j] and z*r[i] + w*r[j] at the
    positions cols."""
    ri, rj = r[i], r[j]
    for c in cols:
        ri[c], rj[c] = x * ri[c] + y * rj[c], z * ri[c] + w * rj[c]


def _mix_cols(r, i: int, j: int, x: int, y: int, z: int, w: int) -> None:
    """Columns i and j of the rows r become x*c_i + y*c_j and z*c_i + w*c_j."""
    for row in r:
        row[i], row[j] = x * row[i] + y * row[j], z * row[i] + w * row[j]


def _smith(a: list[list[int]], n: int) -> tuple[list, list, list, int]:
    """(s, u, v, rank) with u @ a @ v = s in Smith normal form, for the m x
    n matrix a given as lists of Python ints: the one Smith core, on lists
    throughout (``snf`` converts its result).  a is reduced in place and
    returned as s; u and v are unimodular, as lists of rows.

    Pivoting picks the minimal-absolute-value entry with a Markowitz-style
    fill-in tiebreak, which keeps entries small on the sparse relation
    matrices this library produces."""
    m = len(a)
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    t = 0
    while t < min(m, n):
        pos = _pivot_search(a, t, n)
        if pos is None:
            break
        i, j = pos
        a[t], a[i] = a[i], a[t]
        u[t], u[i] = u[i], u[t]
        _mix_cols(a, t, j, 0, 1, 1, 0)
        _mix_cols(v, t, j, 0, 1, 1, 0)
        at = a[t]
        while True:
            for i in range(t + 1, m):
                x, p = a[i][t], at[t]
                if not x:
                    continue
                g, xx, yy = (p, 1, 0) if x % p == 0 else xgcd(p, x)
                _mix_rows(a, t, i, xx, yy, -(x // g), p // g, range(t, n))
                _mix_rows(u, t, i, xx, yy, -(x // g), p // g, range(m))
            for j in range(t + 1, n):
                x, p = at[j], at[t]
                if not x:
                    continue
                g, xx, yy = (p, 1, 0) if x % p == 0 else xgcd(p, x)
                _mix_cols(a[t:], t, j, xx, yy, -(x // g), p // g)
                _mix_cols(v, t, j, xx, yy, -(x // g), p // g)
            # the row pass just cleared row t; stop once column t survived it
            if all(not a[i][t] for i in range(t + 1, m)):
                break
        t += 1
    rank = t
    # divisibility chain on the nonzero diagonal
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj % di == 0:
                continue
            changed = True
            _mix_cols(a, i, i + 1, 1, 1, 0, 1)
            _mix_cols(v, i, i + 1, 1, 1, 0, 1)
            g, x, y = xgcd(di, dj)
            _mix_rows(a, i, i + 1, x, y, -(dj // g), di // g, range(n))
            _mix_rows(u, i, i + 1, x, y, -(dj // g), di // g, range(m))
            q = a[i][i + 1] // g
            _mix_cols(a, i, i + 1, 1, 0, -q, 1)
            _mix_cols(v, i, i + 1, 1, 0, -q, 1)
    for i in range(rank):
        if a[i][i] < 0:
            a[i], u[i] = [-x for x in a[i]], [-x for x in u[i]]
    return a, u, v, rank


def snf(mat) -> SmithData:
    """Smith normal form with unimodular transforms: ``_smith`` on the
    matrix's Python ints, with s, u and v as object matrices."""
    a = intmat(mat)
    m, n = a.shape
    s, u, v, rank = _smith(a.tolist(), n)
    return SmithData(s=intmat(s) if m else zeros(0, n), u=intmat(u), v=intmat(v), rank=rank)


def _projection_table(ech: SparseEchelon) -> Quotient:
    """Quotient map of Z^n onto Z^n / (row lattice of a canonical HNF):
    ``_quotient_map`` of its rows, whose relation rows are the rows with a
    pivot > 1 as they stand, the HNF clearing entries above a unit pivot.
    Only a basis that comes without a map needs it: ``_hnf_sparse`` hands
    on the map it certified."""
    return _quotient_map(list(zip(ech.pivot_row, ech.basis)), ech.ncols)


class _QuotientData(NamedTuple):
    moduli: list[int]
    by_key: list | dict


class Quotient(_QuotientData):
    """A quotient map Z^n -> Z^f + sum Z/d_k, read through the images of
    the generators (Cohen, A Course in Computational Algebraic Number
    Theory, §2.4): coordinate k of the target is Z/moduli[k] for a modulus
    > 1 and Z for a modulus 0, and by_key[key] lists the nonzero
    (k, value) of the image of the generator named key, in increasing k,
    each value reduced into [0, d).  by_key is a list, indexed by
    generator, or a dict whose keys are any hashable names (``compose``).

    It is the one form of a quotient map: an FpAb keeps its own, the
    certificates ask it which rows it kills, a keyed read (``KeyedFpAb``)
    is one composed with named rows, and ``kernel`` reads every derived
    lattice off one.  It is a pair (moduli, by_key), compared and unpacked
    as one, and it keeps what its bulk reads set up on the first of them
    (``_gather``), so a map is not modified once it is read."""

    def image(self, pairs) -> list[int]:
        """The image of sum x * e_key over the (key, x) pairs, each torsion
        coordinate reduced into [0, d): the one loop that sums generator
        images.  Each value is taken as a Python int, so that numpy
        integers cannot overflow against large moduli.  Every key is looked
        up, zero values included; a key with no image is the container's
        KeyError or IndexError, and a list takes a negative index from its
        end, so callers refuse those first."""
        moduli, images = self
        w = [0] * len(moduli)
        for key, x in pairs:
            if type(x) is not int:
                x = int(x)
            for k, a in images[key]:
                w[k] += x * a
        for k, d in enumerate(moduli):
            if d:
                w[k] %= d
        return w

    def compose(self, rows) -> "Quotient":
        """The map read through rows: the generator named key goes to the
        image of rows[key], a sparse row {generator: value} of this map's
        source, so that sum c * e_key and sum c * rows[key] have one image.
        A dict of rows, under any hashable keys, gives a dict of images; a
        sequence gives a list, indexed by position.  A one-entry row {j: c}
        is c times generator j's image, read with no sum: generator j's own
        list for c = 1, so that a permutation composes by gather."""
        moduli, images = self
        by_key = {}
        for key, r in rows.items() if isinstance(rows, dict) else enumerate(rows):
            if len(r) != 1:
                by_key[key] = [(k, a) for k, a in enumerate(self.image(r.items())) if a]
                continue
            ((j, c),) = r.items()
            if type(c) is not int:
                c = int(c)
            img = images[j]
            by_key[key] = img if c == 1 else [(k, y) for k, a in img if (y := c * a % moduli[k] if moduli[k] else c * a)]
        return Quotient(moduli, by_key if isinstance(rows, dict) else list(by_key.values()))

    def images(self, rows) -> list[list[int]]:
        """The image of each row (sparse dicts or a RowTable), as ``image``
        gives it."""
        out: list[list[int]] = []
        for _, w in self.blocks(rows):
            out += w.tolist() if isinstance(w, np.ndarray) else w
        return out

    def unkilled(self, rows) -> list[int]:
        """Indices of the rows (sparse dicts or a RowTable) whose image is
        not 0: the certificates' test over every input row, which builds no
        list per row."""
        out: list[int] = []
        for lo, w in self.blocks(rows):
            if isinstance(w, np.ndarray):
                out += (lo + np.flatnonzero(w.any(axis=1))).tolist()
            else:
                out += [lo + i for i, x in enumerate(w) if any(x)]
        return out

    def kernel(self, extra=()) -> list[dict]:
        """Canonical HNF rows of {x : image(x) lies in the lattice M of the
        rows d_k e_k and the ``extra`` rows}, which are sparse dicts or
        dense lists over the target coordinates: one right-to-left pass
        over the generator images (the Hermite basis read off the images
        modulo a known lattice: Domich-Kannan-Trotter 1987; Cohen, §2.4).

        With H_i the lattice of M and the images of the generators i, ...,
        n - 1, generator i has a pivot unless its image raises the rank of
        H_{i+1}; the pivot is then [H_i : H_{i+1}], and the row is the
        relation that inserting the image into H_{i+1} leaves, reduced by
        the later rows with a pivot > 1.  A generator with pivot 1 changes
        no row of H, so no relation takes it."""
        moduli, images = self
        lat = _ImageLattice(moduli)
        for r in extra:
            lat.insert(dict(_sparse_row(r, len(moduli))), {})
        basis: dict[int, dict] = {}
        larger: list[int] = []  # columns with a pivot > 1, ascending

        def reduce(row: dict) -> dict:
            for j in larger:
                q = row.get(j, 0) // basis[j][j]
                if q:
                    _sub_entries(row, q, basis[j].items())
            return row

        for i in reversed(range(len(images))):
            rel = lat.insert(dict(images[i]), {i: 1})
            if rel is not None:
                basis[i] = reduce(rel)
                if rel[i] == 1:
                    continue
                larger.insert(0, i)
            # the rows changed, and their combinations take generator i
            for _, t in lat.rows.values():
                reduce(t)
        return [basis[i] for i in sorted(basis)]

    def kernel_echelon(self, extra=()) -> "SparseEchelon":
        """``kernel`` as the SparseEchelon of its rows, which are canonical
        already, so that ``FpAb(..., basis=...)`` keeps them with no pass
        through the normaliser."""
        return SparseEchelon._canonical(self.kernel(extra), len(self.by_key))

    def blocks(self, rows):
        """The images of many rows (sparse dicts or a RowTable), yielded as
        (first row, images) for blocks of _IMAGE_BLOCK rows; the images are
        indexed by generator.

        Fewer than _DICT_ROWS dict rows, and dict rows with a value past
        int64, go row by row through ``image``, in Python ints, each key
        checked against range(n) as a table's columns are.  Other dict rows
        are packed into a RowTable first (``_packed``).  A block of the
        table goes through int64 arrays, one coordinate at a time, as one
        gather of the images of its columns (``_gather``) times its values,
        summed row by row, and its images are an int64 array (rows x
        coordinates), when no value, no modulus and no partial sum can
        reach 2^62: the largest value, the map's bound and the table's
        width bound every sum, taken once per table.  Otherwise its images
        are the lists ``image`` gives.  Blocks keep the arrays small next
        to the rows themselves."""
        moduli, images = self
        table = rows if isinstance(rows, RowTable) else None
        if table is None and len(rows) >= _DICT_ROWS:
            try:
                table = _packed(rows, len(images))
            except OverflowError:
                pass
        if table is None:
            for r in rows:
                if r:
                    _check_columns(min(r), max(r), len(images))
            for lo in range(0, len(rows), _IMAGE_BLOCK):
                yield lo, [self.image(r.items()) for r in rows[lo : lo + _IMAGE_BLOCK]]
            return
        bound, gather = self._gather
        if gather is not None:
            # the values once, an axis of stride 0 (broadcast signs) read at one index
            vals = table.vals[tuple(slice(None if step else 1) for step in table.vals.strides)]
            if not (vals.size and max(int(vals.max()), -int(vals.min())) * bound * table.cols.shape[1] < 1 << 62):
                gather = None
        for lo in range(0, len(table), _IMAGE_BLOCK):
            hi = min(lo + _IMAGE_BLOCK, len(table))
            if gather is None:
                yield lo, [self.image(table.entries(i)) for i in range(lo, hi)]
                continue
            cols, vals = table.cols[lo:hi], table.vals[lo:hi]
            w = np.empty((hi - lo, len(moduli)), dtype=np.int64)
            for k, d in enumerate(moduli):
                w[:, k] = np.einsum("ij,ij->i", gather[k][cols], vals)
                if d:
                    w[:, k] %= d
            yield lo, w

    @functools.cached_property
    def _gather(self) -> tuple[Optional[int], Optional[np.ndarray]]:
        """The int64 read set-up, built on the first bulk read of a table
        and kept: the bound of the image entries, at least 1 so that a
        table's values are bounded even when there is no image, as for a
        trivial quotient, and the gather table, the int64 array
        (coordinates x generators) of the generator images; both are None
        when an image entry or a modulus reaches 2^62."""
        moduli, images = self
        dense = [[0] * len(images) for _ in moduli]
        for j, img in enumerate(images):
            for k, a in img:
                dense[k][j] = a
        try:
            gather = np.array(dense, dtype=np.int64).reshape(len(moduli), len(images))
        except OverflowError:
            return None, None
        bound = max(1, int(gather.max(initial=0)), -int(gather.min(initial=0)))
        if bound >= 1 << 62 or max(moduli, default=0) >= 1 << 62:
            return None, None
        return bound, gather


# rows per block of Quotient.blocks
_IMAGE_BLOCK = 2048
# fewer dict rows than this are read row by row, with no table: the
# crossover against packing them with the map's gather table kept, about
# 0.7 us a row by ``image`` against 27 us + 0.27 us a row packed, on the
# maps of P(GF(121)) and RP(GF(121))
_DICT_ROWS = 64


def odd_part(n: int) -> int:
    """n with every factor of 2 removed (n >= 1)."""
    if n < 1:
        raise ValueError("odd_part needs n >= 1")
    while n % 2 == 0:
        n //= 2
    return n


class FpAb:
    """Finitely presented abelian group Z^ngens / (row lattice of rels).

    The relations may be given in any row form (a 2-D array, dense
    sequences, sparse {generator: coefficient} dicts, or a mix) and are
    kept as sparse rows, or as a RowTable of width ngens, which is kept as
    it is.  The relation basis lives in a cached
    SparseEchelon; element questions (contains, element_order) and the
    invariant factors go through one cached quotient map onto
    Z^f + sum Z/d_k.

    A caller that knows the canonical basis of the relations' lattice
    passes it as ``basis``, and it is the echelon with no reduction: rows,
    which are checked, or the SparseEchelon of a quotient map's kernel
    (``Quotient.kernel_echelon``), which is kept as it is.  ``rels`` may
    then be a zero-argument callable that builds the relation rows on each
    read, which are not kept."""

    def __init__(self, ngens: int, rels=None, basis: Optional[list[dict] | SparseEchelon] = None):
        self.ngens = int(ngens)
        self._rels: Callable[[], list[dict] | RowTable] = rels if callable(rels) else _bulk_rows(rels, self.ngens).copy
        if isinstance(basis, SparseEchelon):
            if basis.ncols != self.ngens:
                raise ValueError(f"an echelon of width {basis.ncols} does not match {self.ngens} generators")
            self._ech = basis
        else:
            self._ech = None if basis is None else SparseEchelon(basis, self.ngens)
        self._proj: Optional[Quotient] = None

    @property
    def rels(self) -> np.ndarray:
        """The relation rows as given, as a dense matrix built on each read."""
        rows = self._rels()
        return _dense(rows.rows() if isinstance(rows, RowTable) else rows, self.ngens)

    @property
    def rel_basis(self) -> np.ndarray:
        """The canonical relation basis, as a dense matrix built on each read."""
        return _dense(self.echelon().basis, self.ngens)

    def echelon(self) -> SparseEchelon:
        """The cached sparse echelon form of the relation basis, as
        ``_hnf_sparse`` built it, with the quotient map its certificate
        checked, which the group keeps as its own: a group whose lattice
        was reduced builds no map on its first query."""
        if self._ech is None:
            self._ech, self._proj = _hnf_sparse(self._rels(), self.ngens)
        return self._ech

    @property
    def rank_of_relations(self) -> int:
        return len(self.echelon().rows)

    @property
    def free_rank(self) -> int:
        return self.ngens - self.rank_of_relations

    def invariant_factors(self) -> tuple[int, ...]:
        """Torsion coefficients > 1, in divisibility order."""
        moduli, _ = self._projection()
        return tuple(d for d in moduli if d > 1)

    def odd_invariants(self) -> tuple[int, ...]:
        out = [odd_part(x) for x in self.invariant_factors()]
        return tuple(sorted(x for x in out if x > 1))

    def order(self) -> Optional[int]:
        """Group order, or None if infinite."""
        if self.free_rank > 0:
            return None
        return math.prod(self.invariant_factors())

    def is_trivial(self) -> bool:
        return self.order() == 1

    def odd_order_trivial(self) -> bool:
        return self.free_rank == 0 and not self.odd_invariants()

    def _projection(self) -> Quotient:
        """The cached quotient map Z^ngens -> Z^f + sum Z/d_k: the one
        ``_hnf_sparse`` certified, or, for a basis that came without one,
        ``_projection_table``'s, checked to kill every basis row."""
        if self._proj is None:
            ech = self.echelon()
            if self._proj is None:
                proj = _projection_table(ech)
                for i in proj.unkilled(ech.basis)[:1]:
                    raise AssertionError(f"quotient map does not kill relation {i}")
                self._proj = proj
        return self._proj

    def _image(self, v) -> list[int]:
        """Image of v under the quotient map (``Quotient.image``).  A dict
        is read as it is, with no normalised copy: every key must lie in
        range(ngens), zero values included, a negative one too, which the
        list of images would take from its end.  A dense row goes through
        ``_sparse_row`` first."""
        proj, n = self._projection(), self.ngens
        if not isinstance(v, dict):
            return proj.image(_sparse_row(v, n).items())
        try:
            if not v or min(v) >= 0:
                return proj.image(v.items())
        except (IndexError, TypeError):
            pass
        for j in v:
            if not 0 <= j < n:
                raise ValueError(f"index {j!r} outside the generators range({n})")
        # every key is in range, so the error was the values' own: raise it again
        return proj.image(v.items())

    def element_order(self, v) -> Optional[int]:
        """Least n >= 1 with n*v in the relation lattice, or None.  v is a
        dense vector or a sparse {index: value} dict, as for contains."""
        moduli, _ = self._projection()
        n = 1
        for x, d in zip(self._image(v), moduli):
            if not d:
                if x:
                    return None
            elif x:
                n = math.lcm(n, d // math.gcd(d, x))
        return n

    def contains(self, v) -> bool:
        """Whether v lies in the relation lattice (i.e. is 0 in the group).
        v is a dense vector of length ngens or a sparse {index: value} dict
        with every index in range(ngens)."""
        return not any(self._image(v))

    def reduce(self, v) -> np.ndarray:
        """Canonical representative of v modulo the relation lattice, as a
        dense vector."""
        return _dense([self.echelon().reduce(v)], self.ngens)[0]

    def element_odd_trivial(self, v) -> bool:
        """True iff v dies in the group after inverting 2."""
        n = self.element_order(v)
        return n is not None and odd_part(n) == 1

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors())
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FpAb({self.describe()})"

    def report(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "invariant_factors": list(self.invariant_factors()),
            "odd_part": list(self.odd_invariants()),
        }


class KeyedFpAb(FpAb):
    """A group's quotient map read through rows named by keys
    (``Quotient.compose``): ``contains`` and ``element_order`` take an
    element {key: c}, or its (key, c) pairs, in one pass.  It is the one
    FpAb subclass for keyed reads, and those two are FpAb's own methods, so
    that patching FpAb.contains reaches keyed membership too (the
    benchmark's negative controls do, and expect RP and S_v membership to
    fail).  Group questions are about the target, presented by its moduli.
    It keeps only the composed map, no reference to the group or context
    it was read from.  A key with no row is a ValueError: ``refusal``
    formatted with the key."""

    def __init__(self, group: FpAb, rows: dict, refusal: str):
        proj = group._projection().compose(rows)
        # the rows d_k e_k are the target's canonical basis: no reduction
        basis = [{k: d} for k, d in enumerate(proj.moduli) if d]
        super().__init__(len(proj.moduli), basis.copy, SparseEchelon._canonical(basis, len(proj.moduli)))
        self._proj = proj
        self._refusal = refusal

    def _image(self, v) -> list[int]:
        try:
            return self._proj.image(v.items() if isinstance(v, dict) else v)
        except KeyError as e:
            raise ValueError(self._refusal.format(e.args[0])) from None


def iso_odd(a: FpAb, b: FpAb) -> bool:
    """Isomorphism test after inverting 2: equal free ranks and equal
    multisets of odd parts of the invariant factors."""
    return a.free_rank == b.free_rank and a.odd_invariants() == b.odd_invariants()


def cokernel(rels, ngens: int) -> FpAb:
    return FpAb(ngens, rels)


def direct_sum(a: FpAb, b: FpAb) -> FpAb:
    """a + b: the two canonical bases side by side, b's past a's columns,
    are the canonical basis of the sum, kept with no second reduction."""
    n = a.ngens
    basis = a.echelon().basis + [{n + j: v for j, v in r.items()} for r in b.echelon().basis]
    return FpAb(n + b.ngens, basis.copy, SparseEchelon._canonical(basis, n + b.ngens))


def ab_quotient(g: FpAb, sub) -> FpAb:
    """g modulo the subgroup generated by the rows of ``sub``, given in any
    row form or as a RowTable of width g.ngens: the one way to add
    relations to a group.  Its relations, built on each read, are g's
    canonical basis and the new rows, and its basis is the kernel of g's
    quotient map modulo the images of the new rows, with no Hermite call."""
    rows = _bulk_rows(sub, g.ngens)
    proj, basis = g._projection(), g.echelon().basis
    relations = (lambda: basis + rows.rows()) if isinstance(rows, RowTable) else (basis + rows).copy
    return FpAb(g.ngens, relations, proj.kernel_echelon(proj.images(rows)))


@dataclass
class SubgroupPres:
    """A subgroup of an FpAb: the canonical basis of its lattice in the
    ambient generators (``echelon``), and the induced presentation
    (``group``) on that basis."""

    group: FpAb
    echelon: SparseEchelon

    @property
    def lift(self) -> np.ndarray:
        """The basis rows as a dense matrix, built on each read."""
        return _dense(self.echelon.basis, self.echelon.ncols)

    def solve(self, v) -> Optional[list[int]]:
        """Coordinates of v in the basis, or None if v is not in the subgroup."""
        return self.echelon.solve(v)


class AbMap:
    """Homomorphism of finitely presented abelian groups.

    ``matrix`` has shape (source.ngens, target.ngens), in any row form;
    generators map by x -> x @ matrix.  ``rows`` keeps it as one sparse
    row per source generator, and ``matrix`` reads it back as a dense view.
    Construction checks that the (reduced) source relations land in the
    target relation lattice (``unkilled``).  The target's quotient map is
    composed with the map rows once, on the first read that needs it, and
    every read goes through that composed map.
    """

    def __init__(self, source: FpAb, target: FpAb, matrix):
        self.source = source
        self.target = target
        self.rows = _sparse_rows(matrix, target.ngens)
        if len(self.rows) != source.ngens:
            raise ValueError("map matrix has wrong shape")
        relations = source.echelon().basis
        if relations and (bad := self.unkilled(relations)):
            raise ValueError(f"map does not respect relations (reduced relation {bad[0]})")

    @functools.cached_property
    def _composed(self) -> Quotient:
        """The target's quotient map composed with the map rows."""
        return self.target._projection().compose(self.rows)

    def unkilled(self, rows) -> list[int]:
        """Indices of the source rows (sparse dicts or a RowTable of width
        source.ngens) whose images do not lie in the target's relation
        lattice: the one test that a map kills relation rows, read in
        blocks through the composed map (``Quotient.unkilled``)."""
        return self._composed.unkilled(_bulk_rows(rows, self.source.ngens))

    @property
    def matrix(self) -> np.ndarray:
        """The map rows as a dense matrix, built on each read."""
        return _dense(self.rows, self.target.ngens)

    def preimage_lattice(self) -> list[dict]:
        """Canonical basis rows of {x in Z^m : x @ matrix lies in the target
        lattice}: the kernel of the composed map."""
        return self._composed.kernel()

    def kernel_subgroup(self) -> SubgroupPres:
        """The kernel on the preimage basis (``lift``).  Its relations are
        the coordinates of the source's basis rows, each checked to lie in
        the preimage, and their canonical basis is the kernel of the
        source's quotient map composed with the lift rows."""
        lift = SparseEchelon._canonical(self.preimage_lattice(), self.source.ngens)
        rels = _coordinates(lift, self.source.echelon().basis, "source relations must lie in the preimage")
        basis = self.source._projection().compose(lift.basis).kernel_echelon()
        return SubgroupPres(group=FpAb(len(lift.rows), rels.copy, basis), echelon=lift)

    def kernel(self) -> FpAb:
        return self.kernel_subgroup().group

    def image(self) -> FpAb:
        basis = self.preimage_lattice()
        return FpAb(self.source.ngens, basis.copy, SparseEchelon._canonical(basis, self.source.ngens))

