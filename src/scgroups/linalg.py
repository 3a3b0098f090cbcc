"""Exact integer linear algebra: Hermite/Smith normal forms and a calculus
of finitely presented abelian groups.

Relation rows travel as sparse {column: value} dicts from the builders to
``hnf_rows``; canonical bases come back as numpy 2-D arrays with
``dtype=object`` holding Python ints, so every computation is exact, and
are solved against through their cached sparse echelon form.

``hnf_rows`` has one exact path: a sparse Markowitz reduction to
triangular rows, then the Hermite basis of their lattice modulo its
determinant D, where no entry exceeds D; a rank-deficient lattice is first
projected onto its pivot columns and lifted back through its rational
kernel.  Inputs of more than SUBSET_PER_COLUMN rows per column (the
five-term relation matrices) reduce a seeded random subset of that size
only, and the basis is returned only under a certificate checked at run
time: every basis row lies in the subset's lattice (back-substitution on
the subset's triangular rows), and every input row maps to 0 under the
basis's quotient map.  Rows that the map does not kill join the subset for
another round.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

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


def _obj_row(r) -> np.ndarray:
    out = np.empty(len(r), dtype=object)
    for i, x in enumerate(r):
        out[i] = int(x)
    return out


def _entries(v) -> Iterator[tuple[int, int]]:
    """The nonzero (index, value) pairs of a row given as a {col: value}
    dict, a numpy row or a plain sequence, values as Python ints."""
    if isinstance(v, dict):
        return ((int(j), int(x)) for j, x in v.items() if x)
    if isinstance(v, np.ndarray):
        flat = v.reshape(-1)
        nz = flat.nonzero()[0]
        return zip(nz.tolist(), map(int, flat[nz].tolist()))
    return ((i, int(x)) for i, x in enumerate(v) if x)


def _to_sparse_rows(mat) -> list[dict]:
    return [dict(_entries(row)) for row in mat]


def _dense(rows: list[dict], ncols: int) -> np.ndarray:
    """The sparse rows as an object matrix of width ncols."""
    out = zeros(len(rows), ncols)
    for i, r in enumerate(rows):
        for j, v in r.items():
            out[i, j] = v
    return out


def _distinct(rows: list[dict]) -> list[dict]:
    """The rows with exact repeats dropped, first occurrences in order.
    The row lattice, and so its canonical HNF, is unchanged."""
    seen = set()
    out = []
    for r in rows:
        key = frozenset(r.items())
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


def _sparse_reduce(rows: list[dict], main: int) -> tuple[list[dict], list[dict]]:
    """Unimodular row reduction of sparse rows, eliminating on the columns
    [0, main) with a Markowitz-style pivot rule (fewest entries in the
    column, then smallest absolute pivot value, then sparsest row).

    Columns >= main are carried along untouched (augmentation).  The rows
    must hold no zero values; they are modified in place.  Returns
    (retired, zeroed): ``retired`` pairs each surviving row with its
    retirement column and forms a triangular generating set of the
    lattice; ``zeroed`` are rows whose main part vanished.  This staged
    reduction is what keeps entries small on the large five-term relation
    matrices; naive leftmost-pivot elimination blows up.
    """
    live: dict[int, dict] = {}
    nnz_main: dict[int, int] = {}
    col_rows: dict[int, set] = {}
    zeroed: list[dict] = []
    for rid, r in enumerate(rows):
        mains = [j for j in r if j < main]
        if not mains:
            if r:
                zeroed.append(r)
            continue
        live[rid] = r
        nnz_main[rid] = len(mains)
        for j in mains:
            col_rows.setdefault(j, set()).add(rid)

    def row_addmul(rid: int, q: int, src: dict):
        # row[rid] += q * src
        r = live[rid]
        for j, v in src.items():
            nv = r.get(j, 0) + q * v
            if nv:
                if j not in r and j < main:
                    nnz_main[rid] += 1
                    col_rows[j].add(rid)
                r[j] = nv
            elif j in r:
                del r[j]
                if j < main:
                    nnz_main[rid] -= 1
                    col_rows[j].discard(rid)

    retired: list[dict] = []
    import heapq

    heap = [(len(s), j) for j, s in col_rows.items() if s]
    heapq.heapify(heap)
    while heap:
        l, j = heapq.heappop(heap)
        s = col_rows.get(j)
        if not s:
            continue
        if len(s) != l:
            heapq.heappush(heap, (len(s), j))
            continue
        while len(col_rows[j]) > 1:
            rid0 = min(
                col_rows[j],
                key=lambda rid: (abs(live[rid][j]), nnz_main[rid], rid),
            )
            if live[rid0][j] < 0:
                live[rid0] = {c: -v for c, v in live[rid0].items()}
            piv = live[rid0][j]
            src = dict(live[rid0])
            for rid in list(col_rows[j]):
                if rid == rid0:
                    continue
                q = live[rid][j] // piv
                if q:
                    row_addmul(rid, -q, src)
        (rid0,) = col_rows[j]
        r = live.pop(rid0)
        nnz_main.pop(rid0)
        for c in r:
            if c < main:
                col_rows[c].discard(rid0)
        retired.append((j, r))
    for r in live.values():
        if any(c < main for c in r):
            raise AssertionError("sparse reduction left a main-part entry")
        if r:
            zeroed.append(r)
    return retired, zeroed


def sparse_rank_and_pivots(rows, ncols: int) -> tuple[int, list[int]]:
    """Exact rank of the row lattice plus the staircase pivot values of
    the reduction.  The retired rows are triangular on their retirement
    columns (later rows vanish there), so all pivots equal to 1 certifies
    a unimodular maximal minor, i.e. the lattice is a direct summand,
    without computing a canonical form.
    """
    retired, _ = _sparse_reduce(_to_sparse_rows(rows), ncols)
    pivots = [abs(int(r[c])) for c, r in retired]
    return len(retired), pivots


def hnf_rows(mat, ncols: Optional[int] = None) -> np.ndarray:
    """Canonical row-style Hermite basis of the row lattice of ``mat``.

    ``mat`` may be a 2-D array or an iterable of rows (dense rows or sparse
    {col: value} dicts).  The result is an r x ncols object matrix in
    echelon form with positive pivots and the entries above each pivot
    reduced into [0, pivot).  Exactly repeated rows and zero rows are
    dropped before the reduction; relation generators repeat a lot
    (P(GF(121)) has 7080 distinct rows among 14042).

    Up to SUBSET_PER_COLUMN * ncols distinct rows are all reduced
    (``_full_hnf``).  Taller inputs take the certified path of
    ``_certified_hnf``: the basis of a seeded random subset, computed
    modulo its determinant, is accepted only once every
    basis row lies in the subset's lattice and every input row lies in the
    basis's lattice.
    """
    if isinstance(mat, np.ndarray):
        if ncols is None:
            ncols = mat.shape[1]
    else:
        mat = list(mat)
        if ncols is None:
            if not mat or isinstance(mat[0], dict):
                raise ValueError("ncols is required for sparse or empty input")
            ncols = len(mat[0])
    rows = [r for r in _distinct(_to_sparse_rows(mat)) if r]
    if len(rows) > SUBSET_PER_COLUMN * ncols:
        basis = _certified_hnf(rows, ncols)
    else:
        basis = _full_hnf(rows, ncols)
    return _dense(basis, ncols)


def _full_hnf(rows: list[dict], ncols: int) -> list[dict]:
    """Canonical HNF rows of the lattice of every row, by sparse reduction
    and the HNF of the triangular rows; the rows are modified in place."""
    return _subset_hnf(_sparse_reduce(rows, ncols)[0], ncols)


# the certified path of hnf_rows reduces a subset of this many rows per column
SUBSET_PER_COLUMN = 4
_SUBSET_SEED = 7


def _certified_hnf(rows: list[dict], n: int) -> list[dict]:
    """Canonical HNF rows of the lattice of ``rows`` (distinct, nonzero),
    from a seeded random subset grown until it is certified.

    Each round reduces the subset to triangular rows, computes the HNF of
    their lattice L_S modulo its determinant (``_subset_hnf``) and then
    checks two inclusions: every basis row lies in L_S (back-substitution
    on the triangular rows), and every input row maps to 0 under the
    basis's quotient map.  Together they give lattice(basis) = L_S =
    lattice(rows).  An input row that the map does not kill joins the
    subset for the next round; a subset row that it does not kill is a
    fault.  A subset that would hold every row falls back to reducing
    every row (``_full_hnf``), which needs no certificate: its triangular
    rows generate the input lattice.  A prefix
    is no subset: the first 476 rows of P(GF(121)) in pair order reach rank
    108 of 119.
    """
    rng = random.Random(_SUBSET_SEED)
    chosen = set(rng.sample(range(len(rows)), SUBSET_PER_COLUMN * n))
    work = [dict(rows[i]) for i in sorted(chosen)]
    while True:
        retired, _ = _sparse_reduce(work, n)
        basis = _subset_hnf(retired, n)
        _check_canonical(basis, n)
        det = math.prod(abs(r[c]) for c, r in retired) if len(retired) == n else 0
        if not all(_in_triangular_lattice(r, retired, det) for r in basis):
            raise AssertionError("certified HNF: a basis row is not in the subset lattice")
        proj = _projection_table(SparseEchelon(basis, n))
        missing = [i for i, r in enumerate(rows) if any(_project(proj, r.items()))]
        if not missing:
            return basis
        if chosen.intersection(missing):
            raise AssertionError("certified HNF: the basis misses a subset row")
        chosen.update(missing)
        if len(chosen) == len(rows):
            return _full_hnf([dict(r) for r in rows], n)
        work = [r for _, r in retired] + [dict(rows[i]) for i in missing]


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
        lead = min(r)
        for j, v in r.items():
            if j != lead and j in pivots and not 0 <= v < pivots[j]:
                raise AssertionError("certified HNF: an entry above a pivot is not reduced")


def _in_triangular_lattice(v: dict, retired: list, mod: int = 0) -> bool:
    """Whether v lies in the lattice of the triangular rows ``retired``
    (from ``_sparse_reduce``), by back-substitution in retirement order.
    A nonzero ``mod`` must be a multiple of the determinant of full-rank
    rows: then mod * Z^n lies in the lattice and entries are kept mod it."""
    v = dict(v)
    for c, r in retired:
        x = v.pop(c, 0)
        if not x:
            continue
        q, rem = divmod(x, r[c])
        if rem:
            return False
        for j, a in r.items():
            if j != c:
                y = v.get(j, 0) - q * a
                if mod:
                    y %= mod
                if y:
                    v[j] = y
                else:
                    v.pop(j, None)
    return not v


def _subset_hnf(retired: list, n: int) -> list[dict]:
    """Canonical HNF rows of the lattice of the triangular rows ``retired``.

    Full rank goes straight to ``_hnf_mod_det``.  With rank r < n the HNF
    pivot columns P are read off the rational right kernel (the columns Q
    where the kernel's rank grows from the right, ``_rational_kernel``); the
    lattice projects injectively onto the columns P, so its HNF there is the
    HNF mod the determinant of the re-reduced projected rows, and each row
    lifts back to Z^n through the kernel."""
    if not retired:
        return []
    if len(retired) == n:
        return _hnf_mod_det(retired, n)
    kernel = _rational_kernel(retired, n)
    cols = [c for c in range(n) if c not in kernel]
    pos = {c: i for i, c in enumerate(cols)}
    projected = [{pos[j]: v for j, v in r.items() if j in pos} for _, r in retired]
    sub, zeroed = _sparse_reduce(projected, len(cols))
    if len(sub) != len(cols) or zeroed:
        raise AssertionError("certified HNF: the projection onto the pivot columns is not injective")
    out = []
    for row in _hnf_mod_det(sub, len(cols)):
        w = {cols[j]: v for j, v in row.items()}
        lift = {}
        for q, kap in kernel.items():
            x, rem = divmod(-sum(a * w[c] for c, a in kap.items() if c in w), kap[q])
            if rem:
                raise AssertionError("certified HNF: a lifted entry is not an integer")
            if x:
                lift[q] = x
        w.update(lift)
        out.append(w)
    return out


def _rational_kernel(retired: list, n: int) -> dict[int, dict]:
    """Integer basis {q: kappa} of the rational right kernel of the
    triangular rows ``retired``, in reduced echelon form from the right:
    q is the last nonzero column of kappa (with kappa[q] > 0) and every
    other kappa vanishes at q.  These q are exactly the columns that are
    not HNF pivot columns of the row space."""
    cols = {c for c, _ in retired}
    out: dict[int, dict] = {}
    for f in range(n):
        if f in cols:
            continue
        # free column f set to 1, the others to 0; solve upwards, scaling
        # the vector whenever a pivot does not divide
        v = {f: 1}
        for c, r in reversed(retired):
            s = sum(a * v[j] for j, a in r.items() if j in v)
            if s:
                scale = abs(r[c]) // math.gcd(s, r[c])
                if scale > 1:
                    v = {j: a * scale for j, a in v.items()}
                v[c] = -s * scale // r[c]
        g = math.gcd(*v.values())
        v = {j: a // g for j, a in v.items()}
        for q, kap in out.items():
            if q in v:
                v = _primitive_comb(kap[q], v, -v[q], kap)
        q = max(v)
        if v[q] < 0:
            v = {j: -a for j, a in v.items()}
        for q2, kap in out.items():
            if q in kap:
                out[q2] = _primitive_comb(v[q], kap, -kap[q], v)
        out[q] = v
    return out


def _primitive_comb(a: int, u: dict, b: int, w: dict) -> dict:
    """a*u + b*w divided by the gcd of its entries (a > 0 keeps signs)."""
    out = _axpy(a, u, b, w)
    g = math.gcd(*out.values())
    return {j: x // g for j, x in out.items()}


def _axpy(a: int, x: dict, b: int, y: dict, mod: int = 0) -> dict:
    """a*x + b*y of sparse rows, each entry reduced mod ``mod`` if nonzero."""
    out = {}
    for j in x.keys() | y.keys():
        z = a * x.get(j, 0) + b * y.get(j, 0)
        if mod:
            z %= mod
        if z:
            out[j] = z
    return out


def _hnf_mod_det(retired: list, n: int) -> list[dict]:
    """Canonical HNF rows of the full-rank lattice L of the triangular rows
    ``retired``, modulo its determinant D (Domich-Kannan-Trotter 1987;
    Hafner-McCurley 1991): D*Z^n lies in L, so no entry leaves [0, D).

    The quotient map Z^n -> Z^n / L comes from back-substitution: a row
    with pivot 1 rewrites its generator through later columns, and the m
    rows with a larger pivot give m coordinates and the relation lattice
    Lambda_0 in Z^m, all mod D.  The HNF is then read off the chain of
    subgroups H_i generated by the images of e_i, ..., e_{n-1}, right to
    left: the pivot at column i is [H_i : H_{i+1}], and the rest of row i
    is a relation expressing pivot * image(e_i) through the images of the
    later columns with a pivot > 1, reduced by their rows.  Lambda (the
    lift of H_{i+1} to Z^m) is kept as a triangular basis, each row with
    the combination of images it came from.
    """
    tri = [(c, r if r[c] > 0 else {j: -v for j, v in r.items()}) for c, r in retired]
    det = math.prod(r[c] for c, r in tri)
    images: dict[int, list[tuple[int, int]]] = {}
    rels = []
    for c, r in reversed(tri):
        acc: dict[int, int] = {}
        for j, a in r.items():
            if j != c:
                for t, x in images[j]:
                    acc[t] = acc.get(t, 0) + a * x
        if r[c] == 1:
            images[c] = [(t, -x % det) for t, x in acc.items() if x % det]
        else:
            t = len(rels)
            images[c] = [(t, 1)]
            acc[t] = r[c]
            rels.append(acc)
    m = len(rels)
    lat = _ModLattice(m, det)
    for rel in rels:
        lat.insert(rel, {})
    if lat.det() != det:
        raise AssertionError("certified HNF: the quotient map has the wrong order")
    basis: dict[int, dict] = {}
    larger: list[int] = []  # columns with a pivot > 1, ascending

    def reduce(row: dict) -> dict:
        for j in larger:
            q = row.get(j, 0) // basis[j][j]
            if q:
                _sub_entries(row, q, basis[j].items())
        return row

    for i in reversed(range(n)):
        v = dict(images[i])
        comb = lat.solve(v)
        if comb is None:
            before = lat.det()
            grown = lat.copy()
            grown.insert(v, {i: 1})
            pivot = before // grown.det()
            comb = lat.solve({t: pivot * x for t, x in v.items()})
            if comb is None:
                raise AssertionError("certified HNF: pivot * image is not in the subgroup")
            lat = grown
        else:
            pivot = 1
        row = {i: pivot}
        _sub_entries(row, 1, comb.items())
        basis[i] = reduce(row)
        if pivot > 1:
            larger.insert(0, i)
            lat.combs = [reduce(t) for t in lat.combs]
    return [basis[i] for i in range(n)]


class _ModLattice:
    """A full-rank lattice of Z^m that contains mod * Z^m, as triangular
    rows b[u] (pivot at u) reduced mod ``mod``; each row carries the
    combination {column: coefficient} of generator images it stands for
    (rows of mod * Z^m stand for nothing)."""

    def __init__(self, m: int, mod: int):
        self.mod = mod
        self.rows = [{u: mod} for u in range(m)]
        self.combs: list[dict] = [{} for _ in range(m)]

    def copy(self) -> "_ModLattice":
        out = _ModLattice.__new__(_ModLattice)
        out.mod = self.mod
        out.rows = [dict(b) for b in self.rows]
        out.combs = [dict(t) for t in self.combs]
        return out

    def det(self) -> int:
        return math.prod(b[u] for u, b in enumerate(self.rows))

    def insert(self, v: dict, comb: dict) -> None:
        """Add the vector v, standing for the combination comb."""
        v = {u: x % self.mod for u, x in v.items() if x % self.mod}
        for u in range(len(self.rows)):
            x = v.get(u)
            if x is None:
                continue
            b, t = self.rows[u], self.combs[u]
            p = b[u]
            g, s, y = xgcd(p, x)
            self.rows[u] = _axpy(s, b, y, v, self.mod)
            self.combs[u] = _axpy(s, t, y, comb)
            v = _axpy(-(x // g), b, p // g, v, self.mod)
            comb = _axpy(-(x // g), t, p // g, comb)

    def solve(self, v: dict) -> Optional[dict]:
        """The combination v stands for, or None if v is not in the lattice."""
        v = dict(v)
        out: dict = {}
        for u, b in enumerate(self.rows):
            x = v.pop(u, 0) % self.mod
            if not x:
                continue
            q, rem = divmod(x, b[u])
            if rem:
                return None
            for j, a in b.items():
                if j != u:
                    v[j] = (v.get(j, 0) - q * a) % self.mod
            for j, a in self.combs[u].items():
                out[j] = out.get(j, 0) + q * a
        return {j: a for j, a in out.items() if a}


def hnf(mat) -> np.ndarray:
    """Column-style Hermite normal form (the canonical key convention:
    nonnegative pivots, entries left of each pivot reduced into [0, pivot))."""
    m = mat if isinstance(mat, np.ndarray) else intmat(mat)
    return hnf_rows(m.T.copy()).T.copy()


def hnf_with_transform(mat) -> tuple[np.ndarray, np.ndarray]:
    """Return (H, K): H the canonical row-Hermite basis of ``mat`` and K
    the canonical basis of its left kernel {x : x @ mat = 0}.

    Each row carries its own unit vector as an augmentation while the sparse
    reduction eliminates the main columns.  The rows retired there are
    triangular on the main columns, so independent, and H is their HNF; the
    rows whose main part vanished carry a basis of the left kernel in their
    augmentation.  No transform T with T @ mat == H is returned: it is not
    unique, and ``left_kernel`` needs only K.  The name stays because the
    benchmark in ``bench/`` traces this function under it.
    """
    m = mat if isinstance(mat, np.ndarray) else intmat(mat)
    nrows, ncols = m.shape
    rows = _to_sparse_rows(m)
    for i, r in enumerate(rows):
        r[ncols + i] = 1
    retired, zeroed = _sparse_reduce(rows, ncols)
    main = [(c, {j: v for j, v in r.items() if j < ncols}) for c, r in retired]
    h = _dense(_subset_hnf(main, ncols), ncols)
    kernel_rows = [{j - ncols: v for j, v in r.items()} for r in zeroed]
    return h, hnf_rows(kernel_rows, nrows)


def left_kernel(mat) -> np.ndarray:
    """Basis (canonical HNF rows) of {x : x @ mat = 0}."""
    _, k = hnf_with_transform(mat)
    return k


class SparseEchelon:
    """Sparse form of a canonical row HNF: for each row, in order, its pivot
    column, its pivot and the nonzero (column, value) entries right of the
    pivot.  Coordinates, membership and canonical representatives are
    back-substitutions on it that touch only nonzero entries."""

    def __init__(self, basis, ncols: Optional[int] = None):
        """``basis`` is a 2-D array, or a list of sparse rows with ``ncols``."""
        self.ncols = basis.shape[1] if ncols is None else ncols
        self.rows: list[tuple[int, int, list[tuple[int, int]]]] = []
        for r in basis:
            entries = sorted(_entries(r))
            if not entries:
                raise ValueError("an echelon basis has no zero rows")
            (j, p), rest = entries[0], entries[1:]
            self.rows.append((j, p, rest))

    def row(self, i: int) -> dict:
        """Basis row i as a sparse {column: value} dict."""
        j, p, rest = self.rows[i]
        out = dict(rest)
        out[j] = p
        return out

    def _start(self, v) -> dict:
        if not isinstance(v, dict) and len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return dict(_entries(v))

    def solve(self, v) -> Optional[list[int]]:
        """Coefficients c with c @ basis == v, or None if v is not in the
        row lattice."""
        r = self._start(v)
        coeffs = [0] * len(self.rows)
        for i, (j, p, rest) in enumerate(self.rows):
            x = r.pop(j, 0)
            if not x:
                continue
            q, rem = divmod(x, p)
            if rem:
                return None
            coeffs[i] = q
            _sub_entries(r, q, rest)
        return None if r else coeffs

    def reduce(self, v) -> dict:
        """Canonical representative of v modulo the row lattice: each pivot
        coordinate reduced into [0, pivot)."""
        r = self._start(v)
        for j, p, rest in self.rows:
            q = r.get(j, 0) // p
            if q:
                x = r[j] - q * p
                if x:
                    r[j] = x
                else:
                    del r[j]
                _sub_entries(r, q, rest)
        return r


def _sub_entries(r: dict, q: int, entries) -> None:
    """r -= q * (sparse row given by its (column, value) entries), in place."""
    for c, a in entries:
        x = r.get(c, 0) - q * a
        if x:
            r[c] = x
        else:
            r.pop(c, None)


def solve_in_rows(basis, v) -> Optional[np.ndarray]:
    """Coordinates of v in terms of the rows of a canonical HNF, or None if
    v is not in the row lattice.  ``basis`` is the HNF or its SparseEchelon;
    callers that solve many vectors against one basis pass the latter."""
    ech = basis if isinstance(basis, SparseEchelon) else SparseEchelon(basis)
    coeffs = ech.solve(v)
    return None if coeffs is None else _obj_row(coeffs)


def row_lattice_contains(basis: np.ndarray, v) -> bool:
    return solve_in_rows(basis, v) is not None


def lattice_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical basis of (row lattice of a) ∩ (row lattice of b)."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return zeros(0, a.shape[1])
    stacked = np.vstack([a, -b])
    k = left_kernel(stacked)
    ya = k[:, : a.shape[0]]
    rows = ya @ a
    return hnf_rows(rows)


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


def _pivot_search(a: np.ndarray, t: int) -> Optional[tuple[int, int]]:
    m, n = a.shape
    nnz_row = [sum(1 for j in range(t, n) if a[i, j]) for i in range(m)]
    nnz_col = [sum(1 for i in range(t, m) if a[i, j]) for j in range(n)]
    best = None
    best_key = None
    for i in range(t, m):
        if not nnz_row[i]:
            continue
        for j in range(t, n):
            x = a[i, j]
            if not x:
                continue
            key = (abs(int(x)), (nnz_row[i] - 1) * (nnz_col[j] - 1), i, j)
            if best_key is None or key < best_key:
                best_key = key
                best = (i, j)
    return best


def snf(mat) -> SmithData:
    """Smith normal form with unimodular transforms.

    Pivoting picks the minimal-absolute-value entry with a Markowitz-style
    fill-in tiebreak, which keeps entries small on the sparse relation
    matrices this library produces.
    """
    a = intmat(mat)
    m, n = a.shape
    u = identity(m)
    v = identity(n)
    t = 0
    while t < min(m, n):
        pos = _pivot_search(a, t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            a[[t, i], :] = a[[i, t], :]
            u[[t, i], :] = u[[i, t], :]
        if j != t:
            a[:, [t, j]] = a[:, [j, t]]
            v[:, [t, j]] = v[:, [j, t]]
        while True:
            for i in range(t + 1, m):
                x = int(a[i, t])
                if not x:
                    continue
                p = int(a[t, t])
                q, rem = divmod(x, p)
                if rem == 0:
                    a[i, t:] -= q * a[t, t:]
                    u[i, :] -= q * u[t, :]
                else:
                    g, xx, yy = xgcd(p, x)
                    rt, ri = a[t, t:].copy(), a[i, t:].copy()
                    a[t, t:] = xx * rt + yy * ri
                    a[i, t:] = -(x // g) * rt + (p // g) * ri
                    ut, ui = u[t, :].copy(), u[i, :].copy()
                    u[t, :] = xx * ut + yy * ui
                    u[i, :] = -(x // g) * ut + (p // g) * ui
            for j in range(t + 1, n):
                x = int(a[t, j])
                if not x:
                    continue
                p = int(a[t, t])
                q, rem = divmod(x, p)
                if rem == 0:
                    a[t:, j] -= q * a[t:, t]
                    v[:, j] -= q * v[:, t]
                else:
                    g, xx, yy = xgcd(p, x)
                    ct, cj = a[t:, t].copy(), a[t:, j].copy()
                    a[t:, t] = xx * ct + yy * cj
                    a[t:, j] = -(x // g) * ct + (p // g) * cj
                    vt, vj = v[:, t].copy(), v[:, j].copy()
                    v[:, t] = xx * vt + yy * vj
                    v[:, j] = -(x // g) * vt + (p // g) * vj
            # the row pass just cleared row t; stop once column t survived it
            if all(not a[i, t] for i in range(t + 1, m)):
                break
        t += 1
    rank = t
    # divisibility chain on the nonzero diagonal
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = int(a[i, i]), int(a[i + 1, i + 1])
            if dj % di == 0:
                continue
            changed = True
            a[:, i] += a[:, i + 1]
            v[:, i] += v[:, i + 1]
            g, x, y = xgcd(di, dj)
            ri, rj = a[i, :].copy(), a[i + 1, :].copy()
            a[i, :] = x * ri + y * rj
            a[i + 1, :] = -(dj // g) * ri + (di // g) * rj
            ui, uj = u[i, :].copy(), u[i + 1, :].copy()
            u[i, :] = x * ui + y * uj
            u[i + 1, :] = -(dj // g) * ui + (di // g) * uj
            q = int(a[i, i + 1]) // g
            a[:, i + 1] -= q * a[:, i]
            v[:, i + 1] -= q * v[:, i]
    for i in range(rank):
        if a[i, i] < 0:
            a[i, :] = -a[i, :]
            u[i, :] = -u[i, :]
    return SmithData(s=a, u=u, v=v, rank=rank)


# (moduli, images) of a quotient map; see _projection_table
_Projection = tuple[list[int], list[list[tuple[int, int]]]]


def _projection_table(ech: SparseEchelon) -> _Projection:
    """Quotient map of Z^n onto Z^n / (row lattice of a canonical HNF),
    read from its sparse echelon form.

    Returns (moduli, images): coordinate k of the target is Z/moduli[k]
    for a modulus > 1 and Z for a modulus 0, and images[j] lists the
    nonzero (k, value) of generator j.  A row with pivot 1 rewrites its
    generator through the later columns, and the canonical HNF clears the
    entries above a unit pivot, so the rows with a larger pivot live on
    the remaining (residual) columns: only that block goes through snf.
    The image of a residual column is its row of the Smith transform V,
    reduced mod d_k (Cohen, A Course in Computational Algebraic Number
    Theory, §2.4).
    """
    n = ech.ncols
    unit = {i: j for i, (j, p, _) in enumerate(ech.rows) if p == 1}
    residual = [ech.row(i) for i in range(len(ech.rows)) if i not in unit]
    cols = sorted({c for r in residual for c in r})
    free = sorted(set(range(n)) - set(unit.values()) - set(cols))
    if residual:
        sd = snf(intmat([[r.get(c, 0) for c in cols] for r in residual]))
        diag = sd.diagonal()
    else:
        sd, diag = None, []
    # SNF coordinates with d_k = 1 are zero in the group and are dropped
    d_all = [diag[k] if k < len(diag) else 0 for k in range(len(cols))]
    keep = [k for k, d in enumerate(d_all) if d != 1]
    moduli = [d_all[k] for k in keep] + [0] * len(free)
    images: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for pos, c in enumerate(cols):
        for out, k in enumerate(keep):
            x = int(sd.v[pos, k])
            if d_all[k]:
                x %= d_all[k]
            if x:
                images[c].append((out, x))
    for out, c in enumerate(free, start=len(keep)):
        images[c].append((out, 1))
    # unit rows bottom-up: a generator is rewritten through later columns only
    for i in sorted(unit, reverse=True):
        acc = [0] * len(moduli)
        for c, a in ech.rows[i][2]:
            for k, x in images[c]:
                acc[k] -= a * x
        acc = [x % d if d else x for x, d in zip(acc, moduli)]
        images[unit[i]] = [(k, x) for k, x in enumerate(acc) if x]
    return moduli, images


def _project(proj: _Projection, entries) -> list[int]:
    """Image under a projection table of the vector with the given nonzero
    (index, value) entries, each torsion coordinate reduced into [0, d)."""
    moduli, images = proj
    w = [0] * len(moduli)
    for i, x in entries:
        for k, a in images[i]:
            w[k] += x * a
    return [x % d if d else x for x, d in zip(w, moduli)]


def odd_part(n: int) -> int:
    """n with every factor of 2 removed (n >= 1)."""
    if n < 1:
        raise ValueError("odd_part needs n >= 1")
    while n % 2 == 0:
        n //= 2
    return n


class FpAb:
    """Finitely presented abelian group Z^ngens / (row lattice of rels).

    The relations are a 2-D array, or rows each given as a dense sequence
    or a sparse {generator: coefficient} dict.  Element questions
    (contains, element_order) and the invariant factors go through one
    cached quotient map onto Z^f + sum Z/d_k; reduce goes through the
    cached sparse echelon form of the relation basis."""

    def __init__(self, ngens: int, rels=None):
        self.ngens = int(ngens)
        if rels is None:
            rels = zeros(0, self.ngens)
        elif not isinstance(rels, np.ndarray):
            rows = list(rels)
            if any(isinstance(r, dict) for r in rows):
                rels = [r if isinstance(r, dict) else dict(_entries(r)) for r in rows]
                if any(not 0 <= j < self.ngens for r in rels for j in r):
                    raise ValueError("relation entry outside the generators")
            else:
                rels = intmat(rows)
        if isinstance(rels, np.ndarray):
            if rels.shape[1] != self.ngens and rels.shape[0] > 0:
                raise ValueError("relation width does not match generator count")
            if rels.shape[0] == 0:
                rels = zeros(0, self.ngens)
        self._rels = rels
        self._hnf: Optional[np.ndarray] = None
        self._ech: Optional[SparseEchelon] = None
        self._proj: Optional[_Projection] = None

    @property
    def rels(self) -> np.ndarray:
        """The relation rows as given, as a dense matrix; sparse rows are
        expanded on each read."""
        if isinstance(self._rels, np.ndarray):
            return self._rels
        return _dense(self._rels, self.ngens)

    @property
    def rel_basis(self) -> np.ndarray:
        if self._hnf is None:
            self._hnf = hnf_rows(self._rels, self.ngens)
        return self._hnf

    def echelon(self) -> SparseEchelon:
        """The cached sparse echelon form of the relation basis."""
        if self._ech is None:
            self._ech = SparseEchelon(self.rel_basis)
        return self._ech

    @property
    def rank_of_relations(self) -> int:
        return self.rel_basis.shape[0]

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

    def _projection(self) -> _Projection:
        """The cached quotient map Z^ngens -> Z^f + sum Z/d_k, certified on
        the relation basis when it is built."""
        if self._proj is None:
            ech = self.echelon()
            proj = _projection_table(ech)
            for i, (j, p, rest) in enumerate(ech.rows):
                if any(_project(proj, [(j, p)] + rest)):
                    raise AssertionError(f"quotient map does not kill relation {i}")
            self._proj = proj
        return self._proj

    def _image(self, v) -> list[int]:
        if len(v) != self.ngens:
            raise ValueError("vector length does not match generator count")
        return _project(self._projection(), _entries(v))

    def element_order(self, v) -> Optional[int]:
        """Least n >= 1 with n*v in the relation lattice, or None."""
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
        """Whether v lies in the relation lattice (i.e. is 0 in the group)."""
        return not any(self._image(v))

    def reduce(self, v) -> np.ndarray:
        """Canonical representative of v modulo the relation lattice."""
        out = zeros(1, self.ngens)[0]
        for j, x in self.echelon().reduce(v).items():
            out[j] = x
        return out

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


def iso_odd(a: FpAb, b: FpAb) -> bool:
    """Isomorphism test after inverting 2: equal free ranks and equal
    multisets of odd parts of the invariant factors."""
    return a.free_rank == b.free_rank and a.odd_invariants() == b.odd_invariants()


def cokernel(rels, ngens: int) -> FpAb:
    rels = rels if isinstance(rels, np.ndarray) else intmat(rels)
    if rels.shape[0] and rels.shape[1] != ngens:
        raise ValueError("relation width does not match generator count")
    return FpAb(ngens, rels)


def direct_sum(a: FpAb, b: FpAb) -> FpAb:
    n = a.ngens + b.ngens
    ra, rb = a.rel_basis, b.rel_basis
    rows = zeros(ra.shape[0] + rb.shape[0], n)
    rows[: ra.shape[0], : a.ngens] = ra
    rows[ra.shape[0] :, a.ngens :] = rb
    return FpAb(n, rows)


@dataclass
class SubgroupPres:
    """A subgroup of an FpAb: generating lattice rows plus the induced
    presentation.  ``lift`` rows are coordinates in the ambient generators."""

    group: FpAb
    lift: np.ndarray
    ambient: FpAb
    _echelon: Optional[SparseEchelon] = field(default=None, repr=False, compare=False)

    def solve(self, v) -> Optional[np.ndarray]:
        if self._echelon is None:
            self._echelon = SparseEchelon(self.lift)
        return solve_in_rows(self._echelon, v)


class AbMap:
    """Homomorphism of finitely presented abelian groups.

    ``matrix`` has shape (source.ngens, target.ngens); generators map by
    x -> x @ matrix.  Construction checks that the (reduced) source
    relations land in the target relation lattice.
    """

    def __init__(self, source: FpAb, target: FpAb, matrix, check: bool = True):
        self.source = source
        self.target = target
        self.matrix = matrix if isinstance(matrix, np.ndarray) else intmat(matrix)
        if self.matrix.shape != (source.ngens, target.ngens):
            raise ValueError("map matrix has wrong shape")
        if check:
            basis = source.rel_basis
            for i in range(basis.shape[0]):
                if not target.contains(basis[i] @ self.matrix):
                    raise ValueError(
                        f"map does not respect relations (reduced relation {i})"
                    )

    def preimage_lattice(self) -> np.ndarray:
        """Basis of {x in Z^m : x @ matrix lies in the target lattice}."""
        tb = self.target.rel_basis
        if tb.shape[0]:
            stacked = np.vstack([self.matrix, tb])
        else:
            stacked = self.matrix
        k = left_kernel(stacked)
        rows = k[:, : self.source.ngens]
        return hnf_rows(rows, self.source.ngens)

    def kernel_subgroup(self) -> SubgroupPres:
        lift = self.preimage_lattice()
        ech = SparseEchelon(lift)
        source = self.source.echelon()
        rels = []
        for i in range(len(source.rows)):
            c = solve_in_rows(ech, source.row(i))
            if c is None:
                raise AssertionError("source relations must lie in the preimage")
            rels.append(c)
        grp = FpAb(lift.shape[0], np.vstack(rels) if rels else None)
        return SubgroupPres(group=grp, lift=lift, ambient=self.source, _echelon=ech)

    def kernel(self) -> FpAb:
        return self.kernel_subgroup().group

    def image(self) -> FpAb:
        return FpAb(self.source.ngens, self.preimage_lattice())

    def apply(self, v) -> np.ndarray:
        return _obj_row(v) @ self.matrix


def ab_quotient(g: FpAb, sub) -> FpAb:
    sub = sub if isinstance(sub, np.ndarray) else intmat(sub)
    if sub.shape[0] == 0:
        return FpAb(g.ngens, g._rels)
    if sub.shape[1] != g.ngens:
        raise ValueError("subgroup rows have wrong width")
    return FpAb(g.ngens, np.vstack([g.rel_basis, sub]))


def subquotient(ker_basis: np.ndarray, num_rows: Iterable) -> FpAb:
    """Present (lattice spanned by ker_basis) / (lattice of num_rows),
    assuming the numerator lies inside the kernel lattice."""
    ech = SparseEchelon(ker_basis)
    reduced = SparseEchelon(hnf_rows(list(num_rows), ech.ncols))
    rels = []
    for i in range(len(reduced.rows)):
        c = solve_in_rows(ech, reduced.row(i))
        if c is None:
            raise AssertionError("numerator must lie in the denominator lattice")
        rels.append(c)
    return FpAb(len(ech.rows), np.vstack(rels) if rels else None)
