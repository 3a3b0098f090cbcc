import ast
import copy
import functools
import heapq
import itertools
import math
import random
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix, primefactors
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from scgroups import linalg, scissors
from scgroups.linalg import (
    AbMap,
    FpAb,
    ab_quotient,
    cokernel,
    direct_sum,
    hnf_rows,
    identity,
    intmat,
    iso_odd,
    lattice_intersect,
    left_kernel,
    odd_part,
    snf,
    solve_in_rows,
    zeros,
)
from scgroups.rings import is_prime, parse_ring
from scgroups.scissors import ScissorsContext


def exact_det(m):
    n = m.shape[0]
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= int(m[i, perm[i]])
        total += term
    return total


def test_snf_spec_examples():
    sd = snf([[2, 4], [6, 8]])
    assert sd.diagonal() == [2, 4]
    sd = snf(identity(3))
    assert sd.diagonal() == [1, 1, 1]
    sd = snf([[0]])
    assert sd.diagonal() == [0]
    assert sd.rank == 0


def test_snf_transform_identity():
    m = intmat([[2, 4], [6, 8]])
    sd = snf(m)
    assert np.array_equal(sd.u @ m @ sd.v, sd.s)
    assert abs(exact_det(sd.u)) == 1
    assert abs(exact_det(sd.v)) == 1


def test_snf_empty_and_rectangular():
    sd = snf(zeros(0, 3))
    assert sd.s.shape == (0, 3)
    sd = snf([[1, 2, 3]])
    assert sd.diagonal() == [1]
    sd = snf([[4], [6]])
    assert sd.diagonal() == [2]


@pytest.mark.parametrize("trial", range(40))
def test_snf_random_properties(trial):
    rng = random.Random(1000 + trial)
    m = rng.randrange(1, 5)
    n = rng.randrange(1, 5)
    a = intmat([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)])
    sd = snf(a)
    assert np.array_equal(sd.u @ a @ sd.v, sd.s)
    d = [x for x in sd.diagonal() if x != 0]
    for x, y in zip(d, d[1:]):
        assert y % x == 0
    assert abs(exact_det(sd.u)) == 1
    assert abs(exact_det(sd.v)) == 1
    # off-diagonal entries vanish
    for i in range(m):
        for j in range(n):
            if i != j:
                assert sd.s[i, j] == 0
    # full-rank case: product of invariant factors = gcd of maximal minors
    r = min(m, n)
    if len(d) == r:
        g = 0
        for rows in itertools.combinations(range(m), r):
            for cols in itertools.combinations(range(n), r):
                sub = a[np.ix_(rows, cols)]
                g = np.gcd if False else g  # keep flake quiet
                import math

                g = math.gcd(g, abs(exact_det(sub)))
        import math

        assert math.prod(d) == g


def test_hnf_canonical_and_idempotent():
    a = intmat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    h = hnf_rows(a)
    # canonical: applying again is a no-op
    assert np.array_equal(hnf_rows(h), h)
    # pivots positive, entries above pivots reduced
    for i in range(h.shape[0]):
        piv = next(j for j in range(h.shape[1]) if h[i, j])
        assert h[i, piv] > 0
        for k in range(i):
            assert 0 <= h[k, piv] < h[i, piv]


def test_hnf_row_lattice_preserved():
    rng = random.Random(7)
    a = intmat([[rng.randrange(-5, 6) for _ in range(4)] for _ in range(6)])
    h = hnf_rows(a)
    for i in range(a.shape[0]):
        assert solve_in_rows(h, a[i]) is not None
    for i in range(h.shape[0]):
        assert solve_in_rows(h, h[i]) is not None


def test_left_kernel():
    a = intmat([[1, 2], [2, 4], [3, 6]])
    k = left_kernel(a)
    assert k.shape[0] == 2
    for i in range(k.shape[0]):
        assert all(int(x) == 0 for x in (k[i] @ a))


def test_big_entry_fallback():
    big = 2**70
    a = intmat([[big, big + 1], [1, 1]])
    h = hnf_rows(a)
    assert solve_in_rows(h, [big, big + 1]) is not None
    sd = snf(a)
    assert np.array_equal(sd.u @ a @ sd.v, sd.s)


def test_cokernel_spec_examples():
    g = cokernel([[3]], 1)
    assert g.invariant_factors() == (3,)
    assert g.free_rank == 0
    g = cokernel([[2, 0], [0, 4]], 2)
    assert g.invariant_factors() == (2, 4)
    g = cokernel([[1, 1], [1, -1]], 2)
    assert g.invariant_factors() == (2,)
    assert g.free_rank == 0


def test_cokernel_dimension_mismatch():
    with pytest.raises(ValueError):
        cokernel([[1, 2, 3]], 2)


def test_kernel_spec_examples():
    # kernel of Z --x2--> Z is trivial
    z = FpAb(1)
    f = AbMap(z, z, [[2]])
    assert f.kernel().is_trivial()
    # kernel of Z/4 --x2--> Z/4 is Z/2
    z4 = FpAb(1, [[4]])
    f = AbMap(z4, z4, [[2]])
    k = f.kernel()
    assert k.invariant_factors() == (2,)
    # quotient of Z^2 by (1,1) is Z
    q = ab_quotient(FpAb(2), [[1, 1]])
    assert q.free_rank == 1 and not q.invariant_factors()


def test_kernel_by_enumeration_oracle():
    # Z/4 --x2--> Z/4: enumerate all four elements directly
    members = [v for v in range(4) if (2 * v) % 4 == 0]
    assert len(members) == 2
    z4 = FpAb(1, [[4]])
    assert AbMap(z4, z4, [[2]]).kernel().order() == 2


def test_image():
    z = FpAb(1)
    z2 = FpAb(1, [[2]])
    f = AbMap(z, z2, [[1]])
    assert f.image().order() == 2
    f = AbMap(z, z2, [[2]])
    assert f.image().is_trivial()


def test_map_relation_check():
    z2 = FpAb(1, [[2]])
    z = FpAb(1)
    with pytest.raises(ValueError, match="relation"):
        AbMap(z2, z, [[1]])
    # Z/2 + Z/3 -> Z/4: the reduced relation (2, 0) maps to 4 = 0, and
    # (0, 3) to 3, the first one the map breaks
    with pytest.raises(ValueError, match=re.escape("map does not respect relations (reduced relation 1)")):
        AbMap(FpAb(2, [[2, 0], [0, 3]]), FpAb(1, [[4]]), [[2], [1]])
    with pytest.raises(ValueError, match="width 3 does not match 2 generators"):
        AbMap(FpAb(2), z, [[1], [1]]).unkilled(linalg.RowTable([[0, 2]], 1, 3))


def test_iso_odd_spec_examples():
    assert iso_odd(FpAb(1, [[12]]), FpAb(1, [[3]]))
    assert iso_odd(FpAb(1, [[8]]), FpAb(1, zeros(0, 1))) is False  # Z/8 vs Z
    assert iso_odd(FpAb(1, [[8]]), FpAb(0))  # Z/8 vs trivial
    a = FpAb(2, [[6, 0], [0, 2]])
    b = FpAb(1, [[3]])
    assert iso_odd(a, b)


def test_iso_odd_is_equivalence_and_invariant():
    rng = random.Random(5)
    groups = []
    for _ in range(6):
        n = rng.randrange(1, 4)
        rels = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(rng.randrange(0, 4))]
        groups.append(FpAb(n, rels if rels else None))
    for g in groups:
        assert iso_odd(g, g)
    for a in groups:
        for b in groups:
            assert iso_odd(a, b) == iso_odd(b, a)
    # permutation of generators and row operations do not change the class
    g = FpAb(3, [[2, 4, 0], [0, 6, 2]])
    perm = FpAb(3, [[0, 4, 2], [2, 6, 0]])  # swap columns 0 and 2
    assert iso_odd(g, perm)
    rowops = FpAb(3, [[2, 4, 0], [2, 10, 2]])  # add row 0 to row 1
    assert iso_odd(g, rowops)


def test_quotient_stacking():
    g = FpAb(3)
    s1 = [[2, 0, 0]]
    s2 = [[0, 3, 0]]
    q12 = ab_quotient(ab_quotient(g, s1), s2)
    q = ab_quotient(g, s1 + s2)
    assert q12.invariant_factors() == q.invariant_factors()
    assert q12.free_rank == q.free_rank


def test_element_order_spec_examples():
    z6 = FpAb(1, [[6]])
    assert z6.element_order([1]) == 6
    assert z6.element_order([2]) == 3
    assert FpAb(1).element_order([1]) is None
    assert FpAb(1).element_order([0]) == 1


def test_element_order_against_enumeration():
    g = FpAb(2, [[4, 0], [0, 6]])
    for v0 in range(4):
        for v1 in range(6):
            expect = 1
            n = 1
            while (n * v0) % 4 or (n * v1) % 6:
                n += 1
            expect = n
            assert g.element_order([v0, v1]) == expect


def test_lattice_intersect():
    a = intmat([[2, 0], [0, 1]])
    b = intmat([[1, 0], [0, 3]])
    c = lattice_intersect(a, b)
    assert solve_in_rows(c, [2, 0]) is not None
    assert solve_in_rows(c, [0, 3]) is not None
    assert solve_in_rows(c, [1, 0]) is None
    assert solve_in_rows(c, [0, 1]) is None


def test_subquotient():
    # L/N as the image of the map sending the generators to L's basis in Z^n/N
    k = intmat([[2, 0], [0, 2]])
    h = AbMap(FpAb(2), FpAb(2, [[4, 0], [0, 4]]), k).image()
    assert h.invariant_factors() == (2, 2)


def test_direct_sum():
    g = direct_sum(FpAb(1, [[2]]), FpAb(1, [[3]]))
    assert g.order() == 6


def test_dump_golden():
    sd = snf([[2, 4], [6, 8]])
    assert np.array_equal(sd.s, intmat([[2, 0], [0, 4]]))


def test_odd_part():
    assert odd_part(12) == 3
    assert odd_part(24) == 3
    assert odd_part(7) == 7
    with pytest.raises(ValueError):
        odd_part(0)


def test_reduce_is_canonical():
    g = FpAb(2, [[3, 0], [0, 5]])
    r = g.reduce([7, -2])
    assert list(r) == [1, 3]
    assert g.contains([3, 0])
    assert not g.contains([1, 0])


# -- the quotient map behind contains / element_order / invariant_factors ---


@st.composite
def presentations(draw):
    """(ngens, relation rows): up to 5 generators and 5 relations with
    negative entries; a common scale makes non-unit pivots frequent."""
    n = draw(st.integers(0, 5))
    nrels = draw(st.integers(0, 5)) if n else 0
    scale = draw(st.integers(1, 4))
    rows = [
        [scale * draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(nrels)
    ]
    return n, rows


def vectors(n):
    return st.lists(st.integers(-12, 12), min_size=n, max_size=n)


@settings(max_examples=100, deadline=None)
@given(presentations(), presentations())
def test_direct_sum_keeps_the_two_canonical_bases(a, b):
    # the kept basis is the one a reduction of the stacked bases gives
    g = direct_sum(FpAb(a[0], a[1] or None), FpAb(b[0], b[1] or None))
    assert g.echelon().basis == linalg._hnf_sparse(g._rels(), g.ngens)[0].basis
    assert g.invariant_factors() == FpAb(g.ngens, g._rels()).invariant_factors()


def test_kernel_bases_reach_fpab_without_the_normaliser(monkeypatch):
    # a kernel basis is handed to FpAb as the SparseEchelon of
    # Quotient.kernel_echelon and kept, and the relation rows linalg built
    # itself are kept as they are: of ab_quotient, AbMap.image and
    # AbMap.kernel, only ab_quotient normalises rows, the ones it is given.
    # An echelon of the wrong width is refused
    g = FpAb(3, [{0: 2}, {1: 3}])
    f = AbMap(g, FpAb(2, [{0: 6}]), [{0: 3}, {0: 2}, {0: 1, 1: 1}])
    calls = []
    rows = linalg._sparse_rows

    def counted(v, n):
        calls.append(v)
        return rows(v, n)

    monkeypatch.setattr(linalg, "_sparse_rows", counted)
    q = ab_quotient(g, [{0: 1, 2: 2}])
    image, kernel = f.image(), f.kernel()
    assert calls == [[{0: 1, 2: 2}]]
    monkeypatch.undo()
    for h in (q, image, kernel):
        assert h.echelon().basis == linalg._hnf_sparse(h._rels(), h.ngens)[0].basis
    with pytest.raises(ValueError, match="width"):
        FpAb(4, None, q.echelon())


def _in_lattice(g, v):
    """Back-substitution on the cached echelon form of the relation basis,
    independent of the quotient map behind contains and element_order."""
    return g.echelon().solve(v) is not None


@settings(max_examples=200, deadline=None)
@given(presentations(), st.data())
def test_images_match_row_by_row_projection(pres, data):
    # the certificates' bulk projection against Quotient.image row by row, on
    # entries that fit int64 and on entries that need Python ints
    n, rows = pres
    g = FpAb(n, rows if rows else None)
    proj = g._projection()
    size = data.draw(st.sampled_from([6, 1 << 70]))
    drawn = data.draw(st.lists(st.lists(st.integers(-size, size), min_size=n, max_size=n), max_size=6))
    test_rows = [{j: x for j, x in enumerate(v) if x} for v in drawn + [list(r) for r in g.rel_basis.tolist()]]
    want = [proj.image(r.items()) for r in test_rows]
    assert proj.images(test_rows) == want
    assert proj.unkilled(test_rows) == [i for i, w in enumerate(want) if any(w)]


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_kernel_of_a_quotient_map_is_its_relation_lattice(pres):
    # the map is onto its coordinates (the images and the moduli rows span
    # Z^t), and its kernel is exactly the relation lattice: read back
    # through Quotient.kernel it gives the canonical basis
    n, rows = pres
    g = FpAb(n, rows if rows else None)
    proj = g._projection()
    t = len(proj.moduli)
    spans = [proj.image([(j, 1)]) for j in range(n)] + [[d * (i == k) for i in range(t)] for k, d in enumerate(proj.moduli) if d]
    assert (sympy_row_hnf(spans) if t else []) == [[int(i == k) for i in range(t)] for k in range(t)]
    assert proj.kernel() == g.echelon().basis
    assert _ints(g.rel_basis) == (sympy_row_hnf(rows) if rows else [])


def test_images_of_a_trivial_quotient_take_values_past_int64():
    # a trivial quotient has no coordinates, so no image entry bounds the
    # values: they must still fit before they go through int64
    proj = FpAb(1, [[1]])._projection()
    rows = [{0: 1 << 70}, {0: -(1 << 63)}, {0: 3}]
    assert proj.images(rows) == [[], [], []]
    assert proj.unkilled(rows) == []
    # more than 4 rows per column take the certified path, whose certificate
    # projects every row through the map of the trivial quotient
    assert FpAb(1, [[2**70], [2**70 + 1], [3], [5], [7]]).invariant_factors() == ()


def test_images_take_moduli_past_int64():
    proj = FpAb(2, [[1 << 70, 0]])._projection()
    rows = [{0: 1 << 70}, {0: 1}, {1: 3}, {}, {0: 1 << 69}, {0: -(1 << 71)}]
    assert proj.images(rows) == [[0, 0], [1, 0], [0, 3], [0, 0], [1 << 69, 0], [0, 0]]
    assert proj.unkilled(rows) == [1, 2, 4]


@settings(max_examples=200, deadline=None)
@given(presentations(), st.data())
def test_unkilled_matches_contains_row_by_row(pres, data):
    # AbMap.unkilled against the per-row oracle target.contains(row @ matrix),
    # on a RowTable and on its rows as dicts; map entries and target moduli
    # past 2^62 force the Python-int path, small ones the int64 path
    n, rels = pres
    size = data.draw(st.sampled_from([6, 1 << 70]))
    tscale = data.draw(st.sampled_from([1, 1 << 64]))
    target = FpAb(n, [[tscale * x for x in r] for r in rels] if rels else None)
    m = data.draw(st.integers(1, 4))
    matrix = [data.draw(st.lists(st.integers(-size, size), min_size=n, max_size=n)) for _ in range(m)]
    f = AbMap(FpAb(m), target, matrix)
    k, width = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 3))
    vmax = min(size, 1 << 62)

    def table_of(entries):
        drawn = data.draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=k, max_size=k))
        return np.array(drawn, dtype=np.int64).reshape(k, width)

    table = linalg.RowTable(table_of(st.integers(0, m - 1)), table_of(st.integers(-vmax, vmax)), m)
    rows = table.rows()
    images = [[sum(r.get(t, 0) * matrix[t][j] for t in range(m)) for j in range(n)] for r in rows]
    want = [i for i, v in enumerate(images) if not target.contains(v)]
    assert f.unkilled(table) == want
    assert f.unkilled(rows) == want


@settings(max_examples=200, deadline=None)
@given(presentations(), st.data())
def test_contains_matches_solve_in_rows(pres, data):
    n, rows = pres
    g = FpAb(n, rows if rows else None)
    for _ in range(4):
        v = data.draw(vectors(n))
        want = _in_lattice(g, v)
        assert g.contains(v) == want
        assert g.contains(np.array(v, dtype=object)) == want
        assert g.contains(np.array(v, dtype=np.int64)) == want
    for i in range(g.rel_basis.shape[0]):
        assert g.contains(g.rel_basis[i])
        assert g.contains(-3 * g.rel_basis[i])


@settings(max_examples=200, deadline=None)
@given(presentations(), st.data())
def test_element_order_is_least_killing_multiple(pres, data):
    n, rows = pres
    g = FpAb(n, rows if rows else None)
    exponent = max(g.invariant_factors(), default=1)
    for _ in range(3):
        v = data.draw(vectors(n))
        got = g.element_order(v)
        if got is None:
            # not torsion: the exponent of the torsion part does not kill it
            assert g.free_rank > 0
            assert not _in_lattice(g, [exponent * x for x in v])
            continue
        assert 1 <= got <= exponent
        assert _in_lattice(g, [got * x for x in v])
        # the order divides got, and a proper divisor of got divides some
        # got / l for a prime l | got: so no got / l kills v iff got is least
        assert not any(_in_lattice(g, [got // ell * x for x in v]) for ell in primefactors(got))
        assert g.element_odd_trivial(v) == (odd_part(got) == 1)
        if g.order() is not None:
            assert g.order() % got == 0


def test_sparse_dict_vectors():
    g = FpAb(3, [[2, 0, 0]])
    assert g.contains({0: 2}) and g.contains({}) and g.contains({0: 4, 2: 0})
    assert not g.contains({0: 2, 1: 0, 2: 1})
    assert g.element_order({0: 1}) == 2 and g.element_order({}) == 1
    assert g.element_order({0: 1, 2: 1}) is None
    # a negative index would alias a generator from the end if not refused
    for bad in ({0: 2, 1: 0, 5: 1}, {-1: 1}, {3: 0}, {np.int64(-3): 2}, {2**70: 1}):
        with pytest.raises(ValueError, match="outside the generators"):
            g.contains(bad)
        with pytest.raises(ValueError, match="outside the generators"):
            g.element_order(bad)


def test_sparse_dict_numpy_values_stay_exact():
    # Z^2 / <(M, 0), (5, 3)> is cyclic of order 3M > 2^63, and the image of
    # generator 0 exceeds int64: numpy values must be taken as Python ints
    big = 2**64 + 13
    g = FpAb(2, [[big, 0], [5, 3]])
    assert g.invariant_factors() == (3 * big,)
    assert max(abs(a) for img in g._projection()[1] for _, a in img) > 2**63
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(-1000, 1000)
        x, y = rng.choice((0, 0, 1, -2)), rng.choice((0, 0, 1, 7))
        v = {0: 5 * k + x, 1: 3 * k + y}
        w = {j: np.int64(c) for j, c in v.items()}
        assert g.contains(w) == g.contains(v) == (x == y == 0)
        assert g.element_order(w) == g.element_order(v)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparse_dict_matches_dense(data):
    n, rows = data.draw(presentations())
    g = FpAb(n, rows if rows else None)
    v = data.draw(vectors(n))
    sparse = {i: x for i, x in enumerate(v) if data.draw(st.booleans()) or x}
    assert g.contains(sparse) == g.contains(v)
    assert g.element_order(sparse) == g.element_order(v)


def _entry(kind, x):
    """x as a Python int, a numpy integer or (for 0 and 1) a bool."""
    if kind == "numpy":
        return np.int64(x)
    if kind == "bool" and x in (0, 1):
        return bool(x)
    return x


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_image_of_a_dict_is_the_normalised_projection(data):
    # the oracle: normalise the dict with _sparse_row, then project it
    n, rows = data.draw(presentations())
    g = FpAb(n, rows if rows else None)
    kinds = st.sampled_from(["int", "numpy", "bool"])
    v = {}
    for j, x in enumerate(data.draw(vectors(n))):
        if x or data.draw(st.booleans()):
            v[_entry(data.draw(kinds), j)] = _entry(data.draw(kinds), x if data.draw(st.booleans()) else 0)
    want = g._projection().image(linalg._sparse_row(v, n).items())
    assert g._image(v) == want
    assert all(type(x) is int for x in g._image(v))
    # an index outside range(n), even with value 0, is refused by both
    bad = {**v, _entry(data.draw(kinds), data.draw(st.sampled_from([-1, n, n + 3]))): data.draw(st.integers(0, 2))}
    with pytest.raises(ValueError) as oracle:
        linalg._sparse_row(bad, n)
    with pytest.raises(ValueError, match=re.escape(str(oracle.value))):
        g._image(bad)


def test_membership_of_a_clean_dict_builds_no_normalised_row(monkeypatch):
    g = FpAb(3, [[2, 0, 0], [0, 3, 3]])
    g._projection()

    def refuse(v, n):
        raise AssertionError("_sparse_row called")

    monkeypatch.setattr(linalg, "_sparse_row", refuse)
    assert g.contains({0: 2, 1: 3, 2: 3}) and not g.contains({0: 1})
    assert g.element_order({0: 1, 1: 1}) is None and g.element_order({0: 1}) == 2
    with pytest.raises(AssertionError, match="_sparse_row"):
        g.contains([2, 0, 0])


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_invariant_factors_match_sympy(pres):
    n, rows = pres
    g = FpAb(n, rows if rows else None)
    if rows:
        diag = [abs(int(d)) for d in sympy_invariant_factors(Matrix(rows), domain=ZZ)]
    else:
        diag = []
    nonzero = sorted(d for d in diag if d)
    assert g.invariant_factors() == tuple(d for d in nonzero if d > 1)
    assert g.free_rank == n - len(nonzero)
    assert g.order() == (None if g.free_rank else int(np.prod(nonzero, dtype=object)))


def test_projection_edge_cases():
    empty = FpAb(0)
    assert empty.describe() == "0" and empty.contains([]) and empty.element_order([]) == 1
    free = FpAb(3)
    assert free.describe() == "Z^3"
    assert free.contains([0, 0, 0]) and not free.contains([0, -1, 0])
    assert free.element_order([0, 0, 2]) is None
    mixed = FpAb(3, [[2, 0, 0], [0, 1, 1]])
    assert mixed.describe() == "Z + Z/2"
    assert mixed.contains([2, 1, 1]) and not mixed.contains([0, 1, 0])
    assert mixed.element_order([1, 1, 1]) == 2
    assert mixed.element_order([0, 1, 0]) is None
    with pytest.raises(ValueError):
        mixed.contains([1, 0])


def test_corrupted_projection_trips_certificate(monkeypatch):
    build = linalg._projection_table

    def corrupted(ech):
        moduli, images = build(ech)
        images[0] = []  # generator 0 = -generator 1 in Z/3; drop its image
        return linalg.Quotient(moduli, images)

    monkeypatch.setattr(linalg, "_projection_table", corrupted)
    g = FpAb(2, [[1, 1], [0, 3]])
    with pytest.raises(AssertionError):
        g.invariant_factors()
    monkeypatch.setattr(linalg, "_projection_table", build)
    assert FpAb(2, [[1, 1], [0, 3]]).invariant_factors() == (3,)


# -- hnf_rows and snf against sympy ---------------------------------------------


@st.composite
def matrices(draw, min_rows=0):
    """(m, n, rows) with up to 4 rows and 5 columns; zero entries are
    frequent, so rank deficiency and non-unit pivots both occur."""
    m = draw(st.integers(min_rows, 4))
    n = draw(st.integers(max(m, 1) if min_rows else 0, 5))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    scale = draw(st.integers(1, 3))
    return m, n, [[scale * draw(entry) for _ in range(n)] for _ in range(m)]


def _as_matrix(m, n, rows):
    return intmat(rows) if m and n else zeros(m, n)


def sympy_row_hnf(rows):
    """Row-style HNF through sympy's column-style hermite_normal_form:
    with rows and columns reversed, its convention is this package's."""
    flipped = Matrix([list(reversed(r)) for r in rows])
    h = hermite_normal_form(flipped.T).T
    return [list(reversed([int(x) for x in h.row(i)])) for i in reversed(range(h.rows))]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_snf_matches_sympy(mat):
    m, n, rows = mat
    a = _as_matrix(m, n, rows)
    sd = snf(a)
    assert np.array_equal(sd.u @ a @ sd.v, sd.s)
    if m and n:
        s = smith_normal_form(Matrix(rows), domain=ZZ)
        assert sd.diagonal() == [abs(int(s[i, i])) for i in range(min(m, n))]
        factors = sympy_invariant_factors(Matrix(rows), domain=ZZ)
        assert sd.diagonal() == [abs(int(d)) for d in factors]
    else:
        assert sd.diagonal() == []


@settings(max_examples=100, deadline=None)
@given(matrices(min_rows=1))
def test_hnf_rows_matches_sympy_on_full_row_rank(mat):
    m, n, rows = mat
    assume(Matrix(rows).rank() == m)
    h = hnf_rows(intmat(rows))
    assert [[int(x) for x in r] for r in h] == sympy_row_hnf(rows)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_hnf_rows_unchanged_by_unimodular_row_operations(mat, data):
    m, n, rows = mat
    a = _as_matrix(m, n, rows)
    b = a.copy()
    for _ in range(data.draw(st.integers(0, 8)) if m else 0):
        i = data.draw(st.integers(0, m - 1))
        j = data.draw(st.integers(0, m - 1))
        op = data.draw(st.sampled_from(["swap", "negate", "add"]))
        if op == "swap":
            b[[i, j]] = b[[j, i]]
        elif op == "negate":
            b[i] = -b[i]
        elif i != j:
            b[i] = b[i] + data.draw(st.integers(-5, 5)) * b[j]
    assert np.array_equal(hnf_rows(b, n), hnf_rows(a, n))



# -- sparse back-substitution against the dense walk ----------------------------


def dense_solve_in_rows(basis, v):
    """The dense walk solve_in_rows used before the sparse echelon form:
    scan each row for its pivot, then subtract whole object rows."""
    n = basis.shape[1]
    r = np.array([int(x) for x in v], dtype=object)
    coeffs = [0] * basis.shape[0]
    piv = []
    for i in range(basis.shape[0]):
        for j in range(n):
            if basis[i, j]:
                piv.append(j)
                break
    for i, j in enumerate(piv):
        q, rem = divmod(int(r[j]), int(basis[i, j]))
        if rem:
            return None
        if q:
            r = r - q * basis[i]
        coeffs[i] = q
    if any(int(x) for x in r):
        return None
    return coeffs


def dense_reduce(basis, v):
    """The dense walk FpAb.reduce used before the sparse echelon form."""
    r = np.array([int(x) for x in v], dtype=object)
    for i in range(basis.shape[0]):
        j = next(j for j in range(basis.shape[1]) if basis[i, j])
        q = int(r[j]) // int(basis[i, j])
        if q:
            r = r - q * basis[i]
    return [int(x) for x in r]


@st.composite
def echelon_bases(draw):
    """An echelon basis: strictly increasing pivot columns, pivots 1..6
    (non-unit ones frequent) and entries right of each pivot in -6..6."""
    n = draw(st.integers(1, 6))
    cols = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    basis = zeros(len(cols), n)
    for i, j in enumerate(cols):
        basis[i, j] = draw(st.integers(1, 6))
        for c in range(j + 1, n):
            basis[i, c] = draw(st.integers(-6, 6))
    return basis


@settings(max_examples=300, deadline=None)
@given(echelon_bases(), st.data())
def test_sparse_solve_matches_dense_walk(basis, data):
    n = basis.shape[1]
    ech = linalg.SparseEchelon(basis)
    for _ in range(4):
        coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=basis.shape[0], max_size=basis.shape[0]))
        inside = [sum(c * int(basis[i, j]) for i, c in enumerate(coeffs)) for j in range(n)]
        shift = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        for v in (inside, [x + y for x, y in zip(inside, shift)], data.draw(vectors(n))):
            want = dense_solve_in_rows(basis, v)
            got = solve_in_rows(basis, v)
            assert (None if got is None else [int(x) for x in got]) == want
            assert ech.solve({j: x for j, x in enumerate(v) if x}) == want
            if v is inside:
                assert want == coeffs
            red = ech.reduce(v)
            assert [red.get(j, 0) for j in range(n)] == dense_reduce(basis, v)


@settings(max_examples=100, deadline=None)
@given(presentations(), st.data())
def test_sparse_solve_matches_dense_walk_on_canonical_hnf(pres, data):
    n, rows = pres
    assume(rows)
    basis = hnf_rows(intmat(rows))
    g = FpAb(n, rows)
    for _ in range(4):
        v = data.draw(vectors(n))
        got = solve_in_rows(basis, v)
        assert (None if got is None else [int(x) for x in got]) == dense_solve_in_rows(basis, v)
        assert [int(x) for x in g.reduce(v)] == dense_reduce(basis, v)


def row_order_solve(ech, v):
    """The row-order walk SparseEchelon.solve used before its sparse walk:
    every basis row in pivot order, whether v reaches its pivot or not."""
    r = dict(v)
    coeffs = [0] * len(ech.rows)
    for i, (j, p, rest) in enumerate(ech.rows):
        x = r.pop(j, 0)
        if not x:
            continue
        q, rem = divmod(x, p)
        if rem:
            return None
        coeffs[i] = q
        linalg._sub_entries(r, q, rest)
    return None if r else coeffs


def row_order_reduce(ech, v):
    """The row-order walk SparseEchelon.reduce used before its sparse walk."""
    r = dict(v)
    for j, p, rest in ech.rows:
        q = r.get(j, 0) // p
        if q:
            x = r[j] - q * p
            if x:
                r[j] = x
            else:
                del r[j]
            linalg._sub_entries(r, q, rest)
    return r


@st.composite
def sparse_echelon_bases(draw):
    """A sparse echelon basis as dict rows of width n: pivots 1..6 on
    strictly increasing columns, and mostly zero entries right of them."""
    n = draw(st.integers(1, 10))
    cols = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 5])
    rows = []
    for j in cols:
        r = {j: draw(st.integers(1, 6))}
        for c in range(j + 1, n):
            if x := draw(entry):
                r[c] = x
        rows.append(r)
    return n, rows


@settings(max_examples=300, deadline=None)
@given(sparse_echelon_bases(), st.data())
def test_sparse_walk_matches_row_order_walk(nb, data):
    # solve, reduce and the sparse coordinates of kernels
    # against the row-order walk, on vectors in the lattice, near it, with
    # the leftmost entry on a column that is no pivot, and with entries
    # only right of the last pivot
    n, rows = nb
    ech = linalg.SparseEchelon(rows, n)
    pivots = [j for j, _, _ in ech.rows]
    small = st.integers(-9, 9)
    coeffs = data.draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -4]), min_size=len(rows), max_size=len(rows)))
    inside: dict = {}
    for c, r in zip(coeffs, rows):
        for j, a in r.items():
            inside[j] = inside.get(j, 0) + c * a
    inside = {j: x for j, x in inside.items() if x}
    shift = {j: x for j in range(n) if (x := data.draw(st.sampled_from([0, 0, 0, 1, -2])))}
    near = {j: x for j in range(n) if (x := inside.get(j, 0) + shift.get(j, 0))}
    vs = [inside, near, {}]
    free = [c for c in range(n) if c not in pivots]
    if free:
        c = data.draw(st.sampled_from(free))
        v = {j: x for j in range(c + 1, n) if (x := data.draw(small))}
        vs.append({c: data.draw(small.filter(bool)), **v})
    last = pivots[-1] if pivots else -1
    if last < n - 1:
        vs.append({j: data.draw(small.filter(bool)) for j in range(last + 1, n)})
    for v in vs:
        want = row_order_solve(ech, v)
        assert ech.solve(v) == want
        assert ech.reduce(v) == row_order_reduce(ech, v)
        if v is inside:
            assert want == coeffs
        if want is None:
            with pytest.raises(AssertionError, match="outside"):
                linalg._coordinates(ech, [v], "outside")
        else:
            assert linalg._coordinates(ech, [v], "outside") == [{i: c for i, c in enumerate(want) if c}]


def test_fpab_sparse_rows_and_repeats():
    dense = [[2, 0, 4], [0, 3, 3], [2, 0, 4], [0, 0, 0], [0, 3, 3]]
    sparse = [{j: x for j, x in enumerate(r) if x} for r in dense]
    a, b = FpAb(3, dense), FpAb(3, sparse)
    assert np.array_equal(a.rels, b.rels) and np.array_equal(a.rels, intmat(dense))
    assert np.array_equal(a.rel_basis, b.rel_basis)
    assert np.array_equal(hnf_rows(sparse, 3), hnf_rows(intmat(dense[:2])))
    assert b.invariant_factors() == (6,) and b.free_rank == 1
    with pytest.raises(ValueError):
        FpAb(3, [{3: 1}])


# -- one normaliser for every row form -------------------------------------------


@pytest.mark.parametrize("bad", [{-1: 1}, {3: 1}, {np.int64(-1): 1}, {3: 0}, [1, 0], [1, 0, 0, 0]])
def test_rows_outside_the_generators_are_refused(bad):
    # a negative key would alias the last generator through numpy's
    # negative index; a key past the end, or a dense row of another width,
    # must not be dropped or truncated silently
    g = FpAb(3, [[2, 0, 0]])
    basis = g.rel_basis
    ech = linalg.SparseEchelon(basis)
    calls = [
        g.reduce, g.contains, g.element_order, ech.solve, ech.reduce,
        lambda v: solve_in_rows(basis, v),
        lambda v: FpAb(3, [v]),
        lambda v: hnf_rows([v], 3),
        lambda v: AbMap(FpAb(1), FpAb(3), [v]),
        lambda v: ab_quotient(g, [v]),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call(bad)


def test_dense_rows_of_another_width_are_refused():
    with pytest.raises(ValueError):
        hnf_rows([[1, 2, 3]], 2)
    with pytest.raises(ValueError):
        FpAb(2, [{0: 1}, [1]])
    with pytest.raises(ValueError):
        AbMap(FpAb(2), FpAb(1), [[1], [1, 0]])
    with pytest.raises(ValueError):
        AbMap(FpAb(2), FpAb(1), [[1]])


@st.composite
def row_forms(draw):
    """(n, rows, the same rows in a form drawn per row): a numpy object or
    int64 row, a dense list, a sparse dict with stored zeros and numpy
    keys or values, or the whole matrix as one 2-D array."""
    n, rows = draw(presentations())
    whole = draw(st.sampled_from(["rows", "object", "int64"]))
    if whole == "object" and rows:
        return n, rows, intmat(rows)
    if whole == "int64" and rows:
        return n, rows, np.array(rows, dtype=np.int64)
    mixed = []
    for r in rows:
        form = draw(st.sampled_from(["list", "object", "int64", "dict", "numpy dict"]))
        if form == "list":
            mixed.append(list(r))
        elif form == "object":
            mixed.append(np.array(r, dtype=object))
        elif form == "int64":
            mixed.append(np.array(r, dtype=np.int64))
        elif form == "dict":
            mixed.append({j: x for j, x in enumerate(r) if x or draw(st.booleans())})
        else:
            mixed.append({np.int64(j): np.int64(x) for j, x in enumerate(r) if x})
    return n, rows, mixed


@settings(max_examples=150, deadline=None)
@given(row_forms(), st.data())
def test_every_row_form_gives_the_same_group(case, data):
    n, rows, given_rows = case
    want = FpAb(n, rows)
    got = FpAb(n, given_rows)
    assert np.array_equal(got.rel_basis, want.rel_basis)
    assert np.array_equal(got.rels, want.rels)
    assert got.invariant_factors() == want.invariant_factors()
    assert got.free_rank == want.free_rank
    v = data.draw(vectors(n))
    assert list(got.reduce(v)) == list(want.reduce(v))
    assert list(got.reduce({j: x for j, x in enumerate(v) if x})) == list(want.reduce(v))


# -- the certified path of hnf_rows (inputs taller than the subset) --------------


def lattice_rows(rng, gens, count, coeff=2):
    """``count`` random small integer combinations of the generator rows."""
    n = len(gens[0])
    out = []
    for _ in range(count):
        c = [rng.randint(-coeff, coeff) for _ in gens]
        out.append([sum(a * g[j] for a, g in zip(c, gens)) for j in range(n)])
    return out


def tall(n):
    """The fewest rows of width n that the certified path does not reduce
    whole: more than WHOLE_PER_COLUMN * n, and more than the n + 8 rows
    that the first subset pads to."""
    return max(linalg.WHOLE_PER_COLUMN * n, n + linalg._SUBSET_EXTRA) + 1


def certified_case(kind):
    """(rows, ncols) for one named shape, with more distinct nonzero rows
    than the certified path's subset."""
    rng = random.Random(kind)
    if kind == "full-rank":
        gens = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        return lattice_rows(rng, gens, 6 * 5), 5
    if kind in ("deficiency-1", "deficiency-2"):
        rank = 6 - int(kind[-1])
        gens = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(rank)]
        return lattice_rows(rng, gens, 6 * 6), 6
    if kind == "zero-rows":
        gens = [[2, 1, 0, 3], [0, 3, 1, 1], [1, 1, 1, 0], [0, 0, 4, 2]]
        rows = lattice_rows(rng, gens, 30)
        return rows + [[0] * 4] * 10, 4
    if kind == "repeated-rows":
        gens = [[1, 2, 0], [0, 3, 3], [0, 0, 5]]
        rows = lattice_rows(rng, gens, 20)
        return rows * 3, 3
    if kind == "one-column":
        return [[6 * rng.randint(1, 50) + 10 * rng.randint(0, 50)] for _ in range(20)], 1
    if kind == "large-entries":
        gens = [[rng.randint(-10**30, 10**30) for _ in range(4)] for _ in range(4)]
        return lattice_rows(rng, gens, 25), 4
    raise ValueError(kind)


CERTIFIED_KINDS = [
    "full-rank", "deficiency-1", "deficiency-2", "zero-rows",
    "repeated-rows", "one-column", "large-entries",
]


def count_subset_rounds(monkeypatch):
    rounds = []
    step = linalg._subset_hnf

    def counted(retired, n):
        rounds.append(len(retired))
        return step(retired, n)

    monkeypatch.setattr(linalg, "_subset_hnf", counted)
    return rounds


@pytest.mark.parametrize("kind", CERTIFIED_KINDS)
def test_certified_hnf_matches_oracle_and_sympy(monkeypatch, kind):
    rows, n = certified_case(kind)
    distinct = {tuple(r) for r in rows if any(r)}
    assert len(distinct) >= tall(n)
    rounds = count_subset_rounds(monkeypatch)
    got = [[int(x) for x in r] for r in hnf_rows(intmat(rows), n)]
    assert rounds, "the certified path did not run"
    assert got == sympy_row_hnf(rows)
    sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
    assert [[int(x) for x in r] for r in hnf_rows(sparse, n)] == got


@st.composite
def tall_lattices(draw):
    """(n, rows): combinations of up to n generators with up to 2 rows of
    rank deficiency, more rows than the certified path's subset."""
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(max(1, n - 2), n))
    bound = draw(st.sampled_from([3, 9, 10**12]))
    gens = [[draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(rank)]
    rng = draw(st.randoms(use_true_random=False))
    return n, lattice_rows(rng, gens, tall(n) + draw(st.integers(0, 12)))


@settings(max_examples=100, deadline=None)
@given(tall_lattices())
def test_certified_hnf_matches_oracle_on_random_tall_inputs(lat):
    n, rows = lat
    assume(len({tuple(r) for r in rows if any(r)}) >= tall(n))
    assert len(linalg._first_subset(_sparse(rows), n)) < len(rows)
    got = [[int(x) for x in r] for r in hnf_rows(intmat(rows), n)]
    assert got == sympy_row_hnf(rows)


@pytest.mark.parametrize("rare", ["index", "rank"])
def test_certified_hnf_grows_a_subset_that_misses_a_rare_generator(monkeypatch, rare):
    # 300 rows of 2Z^3 (or of Z^2 x 0) and one row that only the full set has:
    # e_0 halves the index, e_2 raises the rank
    n, total = 3, 300
    rng = random.Random(5)
    if rare == "index":
        gens, extra = [[2, 0, 0], [0, 2, 0], [0, 0, 2]], [1, 0, 0]
    else:
        gens, extra = [[1, 1, 0], [0, 3, 0]], [0, 0, 1]
    rows = [r for r in lattice_rows(rng, gens, 4 * total, coeff=9) if any(r)]
    rows = list(dict.fromkeys(map(tuple, rows)))[:total]
    assert len(rows) == total
    # the first place where the rare row lies outside the first subset
    at = next(
        at
        for at in range(total + 1)
        if at not in linalg._first_subset(_sparse(rows[:at] + [extra] + rows[at:]), n)
    )
    rows.insert(at, tuple(extra))
    rounds = count_subset_rounds(monkeypatch)
    got = [[int(x) for x in r] for r in hnf_rows([list(r) for r in rows], n)]
    assert len(rounds) >= 2
    assert got == sympy_row_hnf([list(r) for r in rows])


@pytest.mark.parametrize(
    "fault, message",
    [("entry", "not in the subset lattice"), ("pivot", "misses a subset row")],
    ids=["entry", "pivot"],
)
def test_corrupted_mod_det_step_trips_certificate(monkeypatch, fault, message):
    # lattice with HNF [[1, 0, 1], [0, 1, 1], [0, 0, 3]]
    rng = random.Random(3)
    rows = lattice_rows(rng, [[1, 0, 1], [0, 1, 1], [0, 0, 3]], 40)
    want = [[1, 0, 1], [0, 1, 1], [0, 0, 3]]
    assert sympy_row_hnf(rows) == want
    step = linalg._hnf_mod_det

    def corrupted(retired, n):
        basis = step(retired, n)
        if fault == "entry":
            basis[0][2] = 2  # still reduced, no longer in the lattice
        else:
            basis[2][2] = 6  # a sublattice: the input rows escape it
        return basis

    monkeypatch.setattr(linalg, "_hnf_mod_det", corrupted)
    with pytest.raises(AssertionError, match=message):
        hnf_rows(rows, 3)
    monkeypatch.setattr(linalg, "_hnf_mod_det", step)
    assert [[int(x) for x in r] for r in hnf_rows(rows, 3)] == want


def test_mod_det_superlattice_trips_the_determinant_certificate(monkeypatch):
    # Z^3, the one lattice above the rows' index-3 lattice, kills every row:
    # only the determinant tells it from the subset's lattice
    rows = lattice_rows(random.Random(3), [[1, 0, 1], [0, 1, 1], [0, 0, 3]], 40)
    monkeypatch.setattr(linalg, "_hnf_mod_det", lambda retired, n: [{j: 1} for j in range(n)])
    with pytest.raises(AssertionError, match="not in the subset lattice"):
        hnf_rows(rows, 3)


@pytest.mark.parametrize("fault", ["determinant", "lifted-entry"])
def test_corrupted_rank_deficient_subset_hnf_trips_certificate(monkeypatch, fault):
    rows, n = certified_case("deficiency-1")
    step = linalg._subset_hnf
    lifted = []

    def corrupted(retired, n):
        basis, det = step(retired, n)
        assert len(retired) == n - 1
        if fault == "determinant":
            return basis, 2 * det
        # an entry off the pivot columns comes from the lift through the kernel
        pivots = {min(r) for r in basis}
        row = next(r for r in basis if any(j not in pivots for j in r))
        j = max(j for j in row if j not in pivots)
        row[j] += 1
        lifted.append(j)
        return basis, det

    monkeypatch.setattr(linalg, "_subset_hnf", corrupted)
    with pytest.raises(AssertionError, match="not in the subset lattice"):
        hnf_rows(rows, n)
    assert bool(lifted) == (fault == "lifted-entry")


@pytest.mark.parametrize(
    "fault, message",
    [("order", "not in echelon form"), ("pivot", "not in echelon form"), ("above", "entry above a pivot is not reduced")],
    ids=["order", "pivot", "above"],
)
def test_check_canonical_refuses_a_basis_out_of_hermite_form(monkeypatch, fault, message):
    # each fault keeps the lattice, so the certificate's map, rank and
    # determinant still match it: only the canonical-form check sees it
    rows = lattice_rows(random.Random(3), [[1, 0, 1], [0, 1, 1], [0, 0, 3]], 40)
    step = linalg._subset_hnf

    def corrupted(retired, n):
        basis, det = step(retired, n)
        if fault == "order":
            basis.reverse()
        elif fault == "pivot":
            basis[2] = {j: -v for j, v in basis[2].items()}
        else:
            basis[0] = linalg._axpy(1, basis[0], 1, basis[1])
        return basis, det

    monkeypatch.setattr(linalg, "_subset_hnf", corrupted)
    with pytest.raises(AssertionError, match=message):
        hnf_rows(rows, 3)


def test_mod_det_refuses_a_kernel_of_the_wrong_order(monkeypatch):
    # a kernel row doubled spans a sublattice of index 2 in L, whose pivots
    # multiply to 2 D; a whole input has no certificate to catch it later
    rows = [[2, 1, 1], [0, 3, 1], [0, 0, 5]]
    kernel = linalg.Quotient.kernel

    def doubled(q, extra=()):
        basis = kernel(q, extra)
        basis[-1] = {j: 2 * v for j, v in basis[-1].items()}
        return basis

    monkeypatch.setattr(linalg.Quotient, "kernel", doubled)
    with pytest.raises(AssertionError, match="wrong order"):
        hnf_rows(rows, 3)
    monkeypatch.undo()
    assert _ints(hnf_rows(rows, 3)) == sympy_row_hnf(rows)


def test_subset_hnf_refuses_a_projection_that_is_not_injective(monkeypatch):
    # a rational kernel one vector short leaves two columns for rows of
    # rank 1: the projection onto them cannot be injective
    rational = linalg._rational_kernel

    def short(retired, n):
        out = rational(retired, n)
        assert len(out) == 2
        out.pop(max(out))
        return out

    monkeypatch.setattr(linalg, "_rational_kernel", short)
    with pytest.raises(AssertionError, match="not injective"):
        hnf_rows([[1, 2, 3]], 3)


def test_subset_hnf_refuses_a_lift_that_is_not_integral(monkeypatch):
    # the kernel vector (-1, 1) with its last entry doubled lifts the
    # projected row (1) to (1, 1/2)
    rational = linalg._rational_kernel

    def doubled(retired, n):
        return {q: {**kap, q: 2 * kap[q]} for q, kap in rational(retired, n).items()}

    monkeypatch.setattr(linalg, "_rational_kernel", doubled)
    with pytest.raises(AssertionError, match="not an integer"):
        hnf_rows([[1, 1]], 2)
    monkeypatch.undo()
    assert _ints(hnf_rows([[1, 1]], 2)) == [[1, 1]]


def _index_two_case(even_column_1=False):
    """(rows, chosen, odd): 60 rows of width 3 whose first subset ``chosen``
    spans {x : x_0 even}, an index-2 sublattice, while the rows ``odd``,
    half the others, have x_0 odd (and x_1 even, with even_column_1): more
    rows than the subset holds escape it.  No entry is 0, so every row
    touches every column, and the subset does not change with the values."""
    n, m = 3, 60
    rng = random.Random(6)
    even = [[2, 1, 1], [2, 1, 2], [2, 2, 1]]  # a basis of {x : x_0 even}
    rows = [r for r in lattice_rows(rng, even, 4 * m) if all(r)][:m]
    assert len(rows) == m
    chosen = sorted(linalg._first_subset(_sparse(rows), n))
    for k, i in enumerate(chosen[:n]):
        rows[i] = list(even[k])
    odd = sorted(set(range(m)) - set(chosen))[::2]
    for i in odd:
        rows[i][0] += 1
        if even_column_1:
            rows[i][1] *= 2
    assert sorted(linalg._first_subset(_sparse(rows), n)) == chosen
    assert sympy_row_hnf([rows[i] for i in chosen]) == [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert len(chosen) < len(odd) < m - len(chosen)
    return rows, chosen, odd


def test_certified_hnf_at_most_doubles_its_subset(monkeypatch):
    n, m = 3, 60
    rows, chosen, _ = _index_two_case()
    # as a table, whose rows the certified path builds once, as they join
    table = linalg.RowTable(np.array([list(range(n))] * m), np.array(rows), n)
    built, sizes, drawn = [], [], []
    entries, step, stream = linalg.RowTable.entries, linalg._subset_hnf, linalg._seeded_stream

    def counted_entries(self, i):
        # every dict built from a table row reads its entries once
        built.append(i)
        return entries(self, i)

    def counted(retired, n):
        sizes.append(len(built))
        return step(retired, n)

    def counted_stream(m, k):
        for i in stream(m, k):
            drawn.append(i)
            yield i

    monkeypatch.setattr(linalg.RowTable, "entries", counted_entries)
    monkeypatch.setattr(linalg, "_subset_hnf", counted)
    got = _ints(linalg._dense(linalg._hnf_sparse(table, n)[0].basis, n))
    assert len(sizes) >= 2 and sizes[0] == len(chosen)
    assert all(b <= 2 * a for a, b in zip(sizes, sizes[1:]))
    assert got == sympy_row_hnf(rows) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # on P(GF(97))'s five-term table the stream stops where the cover rule
    # does: every index drawn was read by the rule or pads the subset, and
    # each row is built once, the subset's as the rule reads them
    table = scissors.context("gf(97)").pre_bloch()._rels()
    n = table.ncols
    monkeypatch.setattr(linalg, "_seeded_stream", counted_stream)
    built.clear()
    subset = linalg._first_subset(table, n)
    read = set(built)
    assert len(read) == len(built) and len(subset) == n + linalg._SUBSET_EXTRA
    assert len(drawn) == len(set(drawn)) and set(drawn) <= read | subset
    assert len(drawn) < min(len(table), linalg._STREAM_PER_COLUMN * n + linalg._STREAM_EXTRA) // 4
    built.clear()
    sizes.clear()
    basis = linalg._hnf_sparse(table, n)[0].basis
    assert len(sizes) == 1 and len(built) == len(set(built)) and subset <= set(built)
    # P(GF(97)) is finite, of odd part 49 = (97 + 1)'
    assert len(basis) == n and odd_part(math.prod(r[min(r)] for r in basis)) == 49


def test_certified_hnf_second_round_starts_from_the_first_rounds_basis(monkeypatch):
    # round 2 reduces round 1's canonical basis, whose entries do not exceed
    # the subset's index d_S, with the escaped rows, and certifies
    rows, chosen, odd = _index_two_case()
    inputs, rounds = [], []
    reduce, step = linalg._sparse_reduce, linalg._subset_hnf

    def recording_reduce(work):
        inputs.append([dict(r) for r in work])
        return reduce(work)

    def recording_step(retired, n):
        rounds.append(step(retired, n))
        return rounds[-1]

    monkeypatch.setattr(linalg, "_sparse_reduce", recording_reduce)
    monkeypatch.setattr(linalg, "_subset_hnf", recording_step)
    ech, proj = linalg._hnf_sparse(_sparse(rows), 3)
    basis = ech.basis
    assert len(rounds) == len(inputs) == 2 and proj is not None
    (first, d_s), _ = rounds
    assert first == [{0: 2}, {1: 1}, {2: 1}] and d_s == 2
    assert inputs[0] == _sparse([rows[i] for i in chosen])
    assert inputs[1][: len(first)] == first
    assert all(0 < v <= d_s for r in first for v in r.values())
    escaped = inputs[1][len(first) :]
    assert 0 < len(escaped) <= len(chosen) and all(r in _sparse([rows[i] for i in odd]) for r in escaped)
    assert basis == [{0: 1}, {1: 1}, {2: 1}]


def test_certified_hnf_refuses_a_basis_row_dropped_between_rounds(monkeypatch):
    # the escaped rows have x_1 even, so without round 1's row e_1 the
    # second subset misses the first one's rows of odd x_1
    rows, _, _ = _index_two_case(even_column_1=True)
    assert linalg._hnf_sparse(_sparse(rows), 3)[0].basis == [{0: 1}, {1: 1}, {2: 1}]
    reduce, calls, dropped = linalg._sparse_reduce, [], []

    def dropping(work):
        calls.append(len(work))
        if len(calls) == 2:
            dropped.append(work.pop(1))
        return reduce(work)

    monkeypatch.setattr(linalg, "_sparse_reduce", dropping)
    with pytest.raises(AssertionError, match="certified HNF"):
        linalg._hnf_sparse(_sparse(rows), 3)
    assert dropped == [{1: 1}]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_certified_hnf_past_its_first_round_matches_sympy(data):
    # a first subset inside {x : d | x_0} and a row outside it force a
    # second round; the basis must still be the input lattice's HNF
    n = data.draw(st.integers(1, 4))
    d = data.draw(st.sampled_from([2, 3]))
    entries = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    subset = data.draw(st.lists(entries, min_size=1, max_size=n + 3))
    rest = data.draw(st.lists(entries, min_size=1, max_size=8))
    rows = [[d * r[0]] + r[1:] for r in subset] + rest
    if rows[len(subset)][0] % d == 0:
        rows[len(subset)][0] += 1
    step, rounds = linalg._subset_hnf, []

    def counted(retired, n):
        rounds.append(len(retired))
        return step(retired, n)

    with mock.patch.object(linalg, "_first_subset", lambda rows, n, *lead: set(range(len(subset)))):
        with mock.patch.object(linalg, "_subset_hnf", counted):
            basis = linalg._hnf_sparse(_sparse(rows), n)[0].basis
    assert len(rounds) >= 2
    assert _ints(linalg._dense(basis, n)) == sympy_row_hnf(rows)


def _sparse(rows):
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def _ints(basis):
    return [[int(x) for x in r] for r in basis]


@pytest.mark.parametrize("kind", ["full-rank", "zero-rows", "repeated-rows"])
def test_hnf_rows_leaves_the_callers_rows_unchanged(kind):
    rows, n = certified_case(kind)
    sparse = _sparse(rows)
    sparse[0][n - 1] = 0  # a stored zero, which the reduction must not see
    for given in (sparse, sparse[: tall(n) - 1]):
        before = copy.deepcopy(given)
        hnf_rows(given, n)
        assert given == before
        assert all(type(x) is int for r in given for x in r.values())


def test_certified_hnf_repeats_give_the_same_basis():
    rows, n = certified_case("full-rank")
    sparse = _sparse(rows)
    want = _ints(hnf_rows(sparse, n))
    rng = random.Random(2)
    repeated = sparse + [dict(rng.choice(sparse)) for _ in range(3 * len(sparse))]
    rng.shuffle(repeated)
    assert _ints(hnf_rows(repeated, n)) == want == sympy_row_hnf(rows)


def test_certified_hnf_reads_numpy_values_exactly():
    # entries fit int64, but the lattice's determinant is near 10^20, so
    # the certificate's projection overflows unless values become Python ints
    rng = random.Random(8)
    n = 3
    gens = [[rng.randint(-10**7, 10**7) for _ in range(n)] for _ in range(n)]
    rows = lattice_rows(rng, gens, 6 * n)
    det = abs(int(Matrix(gens).det()))
    assert det > 2**63 and max(abs(x) for r in rows for x in r) < 2**62
    want = sympy_row_hnf(rows)
    as_numpy = [{np.int64(j): np.int64(x) for j, x in r.items()} for r in _sparse(rows)]
    assert _ints(hnf_rows(as_numpy, n)) == _ints(hnf_rows(_sparse(rows), n)) == want


def test_certified_path_on_few_distinct_rows_matches_full_path(monkeypatch):
    # as many rows as the subset holds, each three times: past the subset
    # size raw, not distinct, so the certified rounds run
    rng = random.Random(4)
    n = 3
    rows = lattice_rows(rng, [[2, 1, 0], [0, 3, 1], [1, 0, 4]], linalg.WHOLE_PER_COLUMN * n) * 3
    assert len(rows) > linalg.WHOLE_PER_COLUMN * n >= len({tuple(r) for r in rows})
    rounds = count_subset_rounds(monkeypatch)
    got = _ints(hnf_rows(_sparse(rows), n))
    assert rounds, "the certified path did not run"
    assert got == sympy_row_hnf(rows)


@st.composite
def short_inputs(draw):
    """(n, rows): at most WHOLE_PER_COLUMN * n rows of width n, zero rows
    and repeats of an earlier row frequent."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = []
    for _ in range(draw(st.integers(0, linalg.WHOLE_PER_COLUMN * n))):
        pick = draw(st.integers(0, 3))
        if pick == 0:
            rows.append([0] * n)
        elif pick == 1 and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append([draw(entry) for _ in range(n)])
    return n, rows


@settings(max_examples=150, deadline=None)
@given(short_inputs())
def test_short_input_is_one_round_with_no_certificate(case):
    n, rows = case
    certified = []
    unkilled = linalg.Quotient.unkilled

    def counted(proj, rows):
        certified.append(len(rows))
        return unkilled(proj, rows)

    with pytest.MonkeyPatch.context() as mp:
        rounds = count_subset_rounds(mp)
        mp.setattr(linalg.Quotient, "unkilled", counted)
        ech, proj = linalg._hnf_sparse(_sparse(rows), n)
        basis = ech.basis
    assert len(rounds) == 1 and certified == [] and proj is None
    assert _ints(linalg._dense(basis, n)) == sympy_row_hnf(rows)


def test_certified_basis_brings_its_quotient_map(monkeypatch):
    rows, n = certified_case("deficiency-1")
    tables = []
    build = linalg._projection_table

    def counted(ech):
        tables.append(ech)
        return build(ech)

    monkeypatch.setattr(linalg, "_projection_table", counted)
    g = FpAb(n, _sparse(rows))
    g.rel_basis
    built = len(tables)  # one per round of the certificate
    assert built >= 1 and tables[-1].rows == g.echelon().rows
    # the certificate's map is the group's: no second table on the same basis
    g.invariant_factors()
    assert len(tables) == built
    assert g._projection() == build(g.echelon())
    short = FpAb(n, _sparse(rows[: tall(n) - 1]))
    short.invariant_factors()
    assert len(tables) == built + 1


def test_corrupted_certified_map_trips_a_check(monkeypatch):
    build = linalg._projection_table

    def corrupted(ech):
        moduli, images = build(ech)
        images[0] = []
        return linalg.Quotient(moduli, images)

    rows, n = certified_case("full-rank")
    monkeypatch.setattr(linalg, "_projection_table", corrupted)
    with pytest.raises(AssertionError):
        FpAb(n, _sparse(rows)).invariant_factors()


# -- relation rows as a RowTable ---------------------------------------------------


@st.composite
def row_tables(draw):
    """A RowTable of up to 5 columns and width up to 4, with zero values and
    repeated columns frequent; about half of them are taller than the
    certified path's subset."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    m = draw(st.integers(0, tall(n) + 8))
    col = st.integers(0, n - 1)
    val = st.one_of(st.just(0), st.integers(-4, 4), st.sampled_from([6, -9, 10**6]))
    cols = [[draw(col) for _ in range(k)] for _ in range(m)]
    vals = [[draw(val) for _ in range(k)] for _ in range(m)]
    return linalg.RowTable(np.array(cols, dtype=np.int64).reshape(m, k), np.array(vals, dtype=np.int64).reshape(m, k), n)


@settings(max_examples=200, deadline=None)
@given(row_tables())
def test_table_rows_give_the_dict_rows_basis_and_map(table):
    n = table.ncols
    rows = table.rows()
    assert rows == [table.row(i) for i in range(len(table))]
    assert all(x for r in rows for x in r.values())
    got, want = linalg._hnf_sparse(table, n), linalg._hnf_sparse(rows, n)
    assert got[0].basis == want[0].basis
    assert (got[1] is None) == (want[1] is None)
    g, h = FpAb(n, table), FpAb(n, rows)
    assert _ints(g.rel_basis) == _ints(h.rel_basis) and _ints(g.rels) == _ints(h.rels)
    assert g._projection() == h._projection()
    proj = g._projection()
    want_images = [proj.image(table.entries(i)) for i in range(len(table))]
    assert proj.images(table) == want_images == proj.images(rows)
    assert proj.unkilled(table) == [] == proj.unkilled(rows)
    # rows of another lattice: the certificate's test on tables and dicts
    other = FpAb(n, [[2 * (j == 0) for j in range(n)]])._projection()
    assert other.images(table) == [other.image(r.items()) for r in rows]
    assert other.unkilled(table) == other.unkilled(rows)


def test_table_columns_outside_the_generators_are_refused():
    for bad in ([[0, 3]], [[-1, 0]]):
        with pytest.raises(ValueError, match="outside"):
            linalg.RowTable(np.array(bad), 1, 3)
    with pytest.raises(ValueError, match="does not match"):
        FpAb(4, linalg.RowTable(np.array([[0, 2]]), 1, 3))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(row_tables(), st.lists(st.dictionaries(st.integers(0, 4), st.integers(-9, 9)), max_size=4)), max_size=4))
def test_stacked_tables_and_dict_rows_keep_their_rows_in_turn(parts):
    want = [r for p in parts for r in (p.rows() if isinstance(p, linalg.RowTable) else [{j: x for j, x in r.items() if x} for r in p])]
    table = linalg.RowTable.stack(5, *parts)
    assert table.ncols == 5 and table.rows() == want
    widths = [p.cols.shape[1] if isinstance(p, linalg.RowTable) else max(map(len, p), default=0) for p in parts]
    assert table.cols.shape == (len(want), max([1, *widths]))


def test_stack_of_nothing_and_past_int64():
    for parts in ((), ([],), ([], linalg.RowTable(np.zeros((0, 2), dtype=np.int64), 0, 3))):
        table = linalg.RowTable.stack(3, *parts)
        assert len(table) == 0 and table.rows() == []
    assert linalg.RowTable.stack(3, [{}]).rows() == [{}]
    top = linalg.RowTable.stack(3, [{1: 2**63 - 1}])
    assert top.rows() == [{1: 2**63 - 1}]
    for rows in ([{0: 1}, {1: 2**63}], [{2: -(2**63) - 1}]):
        with pytest.raises(ValueError, match="past int64"):
            linalg.RowTable.stack(3, linalg.RowTable(np.array([[0]]), 1, 3), rows)


def test_table_images_take_the_exact_path_past_int64():
    # each value, image entry and modulus fits, but a row's sum passes 2^63
    d = 3**37
    proj = FpAb(1, [[d]])._projection()
    assert proj == ([d], [[(0, 1)]])
    big = 2**61
    table = linalg.RowTable(np.array([[0] * 4, [0] * 4, [0] * 4]), np.array([[big] * 4, [1, 2, 0, 0], [d, 0, 0, 0]]), 1)
    want = [[4 * big % d], [3], [0]]
    assert proj.images(table) == want == [proj.image(table.entries(i)) for i in range(3)]
    assert proj.unkilled(table) == [0, 1]
    # the moduli themselves past int64, as in test_images_take_moduli_past_int64
    proj = FpAb(2, [[1 << 70, 0]])._projection()
    table = linalg.RowTable(np.array([[0, 0], [1, 0]]), np.array([[1 << 40, 1 << 40], [3, 0]]), 2)
    assert proj.images(table) == [[1 << 41, 0], [0, 3]]
    assert proj.unkilled(table) == [0, 1]


def _moved_to_column_0(cols, vals, n, i):
    """The table of width n with row i's first column moved to 0."""
    cols = cols.copy()
    cols[i, 0] = 0
    return linalg.RowTable(cols, vals, n)


def test_corrupted_table_row_joins_the_subset(monkeypatch):
    # rows of {x : x_0 even} as a table, each 2e_0, e_1 or e_2 padded with
    # zero values; one row outside the first subset gets its column moved
    # to 0, which the first certificate cannot kill, so the row joins the
    # subset and the basis becomes Z^3
    n, m = 3, 60
    rng = random.Random(11)
    cols = np.array([[i % 3, rng.randrange(3), rng.randrange(3)] for i in range(m)])
    vals = np.array([[(2, 1, 1)[i % 3], 0, 0] for i in range(m)])
    good = linalg.RowTable(cols, vals, n)
    chosen = linalg._first_subset(good, n)
    assert {i % 3 for i in chosen} == {0, 1, 2}
    assert linalg._hnf_sparse(good, n)[0].basis == [{0: 2}, {1: 1}, {2: 1}]
    # the first such row that the corrupted table's first subset leaves out
    bad = next(
        i
        for i in sorted(set(range(m)) - chosen)
        if i % 3 and linalg._first_subset(_moved_to_column_0(cols, vals, n, i), n) == chosen
    )
    corrupted = _moved_to_column_0(cols, vals, n, bad)
    assert corrupted.row(bad).get(0, 0) % 2 == 1
    missing = []
    unkilled = linalg.Quotient.unkilled

    def counted(proj, rows):
        out = unkilled(proj, rows)
        missing.append(out)
        return out

    monkeypatch.setattr(linalg.Quotient, "unkilled", counted)
    ech, proj = linalg._hnf_sparse(corrupted, n)
    basis = ech.basis
    assert missing == [[bad], []]
    assert basis == [{0: 1}, {1: 1}, {2: 1}]


# -- the first subset of the certified path ---------------------------------------


def test_first_subset_is_every_row_of_a_short_input_else_n_plus_8_rows():
    n = 2
    rows = [{0: 1}, {1: 1}] * 20
    short = rows[: linalg.WHOLE_PER_COLUMN * n]
    assert linalg._first_subset(short, n) == set(range(len(short)))
    # one row more: a stream of fewer than n + 8 rows, all of which pad the subset
    assert linalg._first_subset(short + [{0: 2}], n) == set(range(len(short) + 1))
    assert len(linalg._first_subset(rows, n)) == n + linalg._SUBSET_EXTRA


@pytest.mark.parametrize("at", range(16))
def test_first_subset_does_not_count_a_column_whose_entries_cancel(at):
    # 8 table rows touch column 1 only through two entries that cancel, and
    # 2 rows touch it for real, at rows at and 16 - at: wherever they
    # stand, both join.  Counted on the raw columns, cancelling rows ahead
    # of them would cover column 1
    n = 4
    filler = [([0, 2], [1, 1]), ([2, 3], [1, -1]), ([0, 3], [2, 1]), ([0, 0], [1, 1])]
    rows = [filler[i % 4] for i in range(7)] + [([1, 1], [5, -5])] * 8
    real = (at, 16 - at) if at != 8 else (8, 0)
    for i, row in zip(sorted(real), [([1, 1], [2, 1]), ([1, 3], [1, 1])]):
        rows.insert(i, row)
    table = linalg.RowTable(np.array([c for c, _ in rows]), np.array([v for _, v in rows]), n)
    assert len(table) == linalg.WHOLE_PER_COLUMN * n + 1
    chosen = linalg._first_subset(table, n)
    assert set(real) <= chosen
    assert chosen == linalg._first_subset(table.rows(), n)
    basis = linalg._hnf_sparse(table, n)[0].basis
    assert _ints(linalg._dense(basis, n)) == sympy_row_hnf(_ints(linalg._dense(table.rows(), n)))


@st.composite
def sparse_tables(draw):
    """A RowTable of width up to 3 whose rows hold 1 to 3 entries, zero
    values and cancelling repeats frequent, with up to 16 rows more than
    the stream of the first subset takes."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    m = draw(st.integers(0, linalg._STREAM_PER_COLUMN * n + linalg._STREAM_EXTRA + 16))
    col = st.integers(0, n - 1)
    val = st.one_of(st.just(0), st.sampled_from([1, -1, 2, -2, 3, 6]))
    cols = [[draw(col) for _ in range(k)] for _ in range(m)]
    vals = [[draw(val) for _ in range(k)] for _ in range(m)]
    if k > 1 and m:
        for i in draw(st.lists(st.integers(0, m - 1), max_size=m // 2)):
            cols[i][1] = cols[i][0]
            vals[i][1] = -vals[i][0]
    return linalg.RowTable(np.array(cols, dtype=np.int64).reshape(m, k), np.array(vals, dtype=np.int64).reshape(m, k), n)


@settings(max_examples=60, deadline=None)
@given(sparse_tables())
def test_first_subset_covers_each_column_the_stream_touches_twice(table):
    n, m = table.ncols, len(table)
    rows = table.rows()
    chosen = linalg._first_subset(table, n)
    assert chosen == linalg._first_subset(table, n) == linalg._first_subset(rows, n)
    if m <= linalg.WHOLE_PER_COLUMN * n:
        assert chosen == set(range(m))
    else:
        size = min(m, linalg._STREAM_PER_COLUMN * n + linalg._STREAM_EXTRA)
        stream = random.Random(linalg._SUBSET_SEED).sample(range(m), size)
        assert chosen <= set(stream)
        assert len(chosen) >= min(size, n + linalg._SUBSET_EXTRA)
        for j in range(n):
            touching = [i for i in stream if j in rows[i]]
            assert sum(i in chosen for i in touching) >= min(2, len(touching))
    basis = linalg._hnf_sparse(table, n)[0].basis
    assert _ints(linalg._dense(basis, n)) == sympy_row_hnf(_ints(linalg._dense(rows, n)) or [[0] * n])


@pytest.mark.parametrize("missed", range(6))
def test_first_subset_that_misses_a_column_still_reaches_the_basis(monkeypatch, missed):
    # a first subset patched to hold no row that touches one column: the
    # certificate finds the rows it leaves out, and a later round adds them
    n, m = 6, 80
    rng = random.Random(12)
    rows = []
    for _ in range(m):
        a, b = rng.sample(range(n), 2)
        rows.append({a: rng.choice([1, -1, 2, 3]), b: rng.choice([1, -2, 4])})
    first = linalg._first_subset
    patched = []

    def missing(rows, n, *lead):
        out = {i for i in first(rows, n, *lead) if missed not in rows[i]}
        patched.append(sorted(out))
        return out

    monkeypatch.setattr(linalg, "_first_subset", missing)
    rounds = count_subset_rounds(monkeypatch)
    ech, proj = linalg._hnf_sparse(rows, n)
    basis = ech.basis
    assert patched and all(missed not in rows[i] for i in patched[0])
    assert len(rounds) >= 2 and proj is not None
    assert _ints(linalg._dense(basis, n)) == sympy_row_hnf(_ints(linalg._dense(rows, n)))


@pytest.mark.parametrize("m", [1, 2, 6, 7, 40, 200, 4117, 4118, 16405, 16406, 70000])
def test_seeded_stream_draws_the_seeded_sample_one_index_at_a_time(m):
    # random.sample keeps a pool of the m indices up to a set size that
    # grows with k, and a set of the drawn ones above it: both branches
    sizes = {0, 1, 5, 6, min(m, 824), m // 2, min(m, 8 * 99 + 64)}
    for k in sorted(k for k in sizes if k <= m):
        want = random.Random(linalg._SUBSET_SEED).sample(range(m), k)
        assert list(linalg._seeded_stream(m, k)) == want
        assert list(itertools.islice(linalg._seeded_stream(m, k), 3)) == want[:3]


# -- the sparse reduction against its reference -----------------------------------


def _reference_sparse_reduce(rows: list[dict]) -> list[tuple[int, dict]]:
    """The Markowitz reduction as it stood before its inner loop was
    inlined: a pivot chosen by min over the column on every pass, a copy
    of the pivot row, and one call per row update."""
    live: dict[int, dict] = {}
    col_rows: dict[int, set] = {}
    for rid, r in enumerate(rows):
        if r:
            live[rid] = r
            for j in r:
                col_rows.setdefault(j, set()).add(rid)

    def row_addmul(rid: int, q: int, src: dict):
        r = live[rid]
        for j, v in src.items():
            x = r.get(j)
            if x is None:
                r[j] = q * v
                col_rows[j].add(rid)
                continue
            x += q * v
            if x:
                r[j] = x
            else:
                del r[j]
                col_rows[j].discard(rid)

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
        while len(s) > 1:
            rid0 = min(s, key=lambda rid: (abs(live[rid][j]), len(live[rid]), rid))
            if live[rid0][j] < 0:
                live[rid0] = {c: -v for c, v in live[rid0].items()}
            piv = live[rid0][j]
            src = dict(live[rid0])
            for rid in list(s):
                if rid == rid0:
                    continue
                q = live[rid][j] // piv
                if q:
                    row_addmul(rid, -q, src)
        (rid0,) = s
        r = live.pop(rid0)
        for c in r:
            col_rows[c].discard(rid0)
        retired.append((j, r))
    if any(live.values()):
        raise AssertionError("sparse reduction left an entry")
    return retired


def _same_retired(rows: list[dict]) -> list[tuple[int, dict]]:
    """The reduction of copies of rows, after checking that it retires the
    reference's rows, entry for entry and in the same key order."""
    got = linalg._sparse_reduce([dict(r) for r in rows])
    want = _reference_sparse_reduce([dict(r) for r in rows])
    assert [(j, list(r.items())) for j, r in got] == [(j, list(r.items())) for j, r in want]
    return got


@functools.lru_cache(maxsize=None)
def _seeded_subsets() -> tuple:
    """(label, first-subset rows) of the tall tables the certified path
    meets: P(GF(p)) for the primes 11 <= p <= 97 and L- of GF(121), the
    first table that RP(GF(121))'s block form reduces."""
    tables = [(f"P(GF({p}))", scissors.context(f"gf({p})").pre_bloch()._rels()) for p in range(11, 98) if is_prime(p)]
    seen = []
    hnf = linalg._hnf_sparse
    with mock.patch.object(linalg, "_hnf_sparse", lambda rows, n: seen.append(rows) or hnf(rows, n)):
        ScissorsContext(parse_ring("gf(121)")).rp_flat().echelon()
    tables.append(("L-(GF(121))", seen[0]))
    return tuple((label, [t.row(i) for i in sorted(linalg._first_subset(t, t.ncols))]) for label, t in tables)


def test_sparse_reduce_matches_its_reference_on_the_seeded_subsets():
    subsets = _seeded_subsets()
    assert len(subsets) == 22
    for label, rows in subsets:
        retired = _same_retired(rows)
        assert retired, label


@st.composite
def reducible_rows(draw):
    """Sparse rows of width up to 6, summed from entries with zero values,
    repeated columns and negative values: empty rows, and rows that repeat
    or combine earlier ones, so the rank is often deficient."""
    n = draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, n - 1), st.integers(-9, 9))
    rows = [linalg._summed(draw(st.lists(entry, max_size=5))) for _ in range(draw(st.integers(0, 10)))]
    for _ in range(draw(st.integers(0, 4))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append(linalg._summed([(j, x * v) for j, v in a.items()] + [(j, y * v) for j, v in b.items()]))
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(reducible_rows())
def test_sparse_reduce_matches_its_reference_on_drawn_rows(rows):
    retired = _same_retired(rows)
    n = 1 + max((j for r in rows for j in r), default=0)
    assert len(retired) == (Matrix(_ints(linalg._dense(rows, n))).rank() if rows else 0)


# -- kernels and images against sympy --------------------------------------------


@st.composite
def kernel_matrices(draw):
    """(m, n, rows) with up to 6 rows and 5 columns; zero entries are
    frequent and rows often repeat an earlier row (or its negative), so
    the left kernel is often nontrivial."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))
    rows = []
    for _ in range(m):
        if rows and draw(st.integers(0, 2)) == 0:
            sign = draw(st.sampled_from([1, -1]))
            rows.append([sign * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append([draw(entry) for _ in range(n)])
    return m, n, rows


@settings(max_examples=150, deadline=None)
@given(kernel_matrices())
def test_left_kernel_matches_sympy(mat):
    m, n, rows = mat
    k = left_kernel(intmat(rows))
    assert k.shape == (m - Matrix(rows).rank(), m)
    assert not (k @ intmat(rows)).any()
    if k.shape[0]:
        got = [[int(x) for x in r] for r in k]
        # canonical HNF, and saturated: a full-rank sublattice of the kernel
        # with every invariant factor 1 is the whole kernel
        assert got == sympy_row_hnf(got)
        assert all(abs(int(d)) == 1 for d in sympy_invariant_factors(Matrix(got), domain=ZZ))


def sympy_order(rows, n):
    """Order of Z^n / (row lattice of rows) from sympy's invariant factors,
    or None if it is infinite."""
    if not n:
        return 1
    if not rows:
        return None
    factors = [abs(int(d)) for d in sympy_invariant_factors(Matrix(rows), domain=ZZ)]
    nonzero = [d for d in factors if d]
    return int(np.prod(nonzero, dtype=object)) if len(nonzero) == n else None


@st.composite
def finite_maps(draw):
    """(source relations, s, target relations, t, matrix): finite groups on
    up to 3 generators, and a map matrix; every source relation is a
    multiple of the target's order, so the map respects relations."""
    t = draw(st.integers(1, 3))
    # upper triangular with a positive diagonal, then extra rows: finite
    target = [
        [0] * i + [draw(st.integers(1, 6))] + [draw(st.integers(-4, 4)) for _ in range(t - i - 1)]
        for i in range(t)
    ]
    target += [[draw(st.integers(-6, 6)) for _ in range(t)] for _ in range(draw(st.integers(0, 2)))]
    order = sympy_order(target, t)
    s = draw(st.integers(1, 3))
    source = [[0] * i + [order * draw(st.integers(1, 3))] + [0] * (s - i - 1) for i in range(s)]
    source += [[order * draw(st.integers(-3, 3)) for _ in range(s)] for _ in range(draw(st.integers(0, 2)))]
    matrix = [[draw(st.integers(-6, 6)) for _ in range(t)] for _ in range(s)]
    return source, s, target, t, matrix


@settings(max_examples=150, deadline=None)
@given(finite_maps())
def test_kernel_and_image_orders_multiply_to_source_order(case):
    source, s, target, t, matrix = case
    f = AbMap(FpAb(s, source), FpAb(t, target), matrix)
    src_order = sympy_order(source, s)
    # the image is the subgroup of the target generated by the rows of the
    # matrix: its order is |target| / |target / (rows of the matrix)|
    im_order = sympy_order(target, t) // sympy_order(target + matrix, t)
    assert f.source.order() == src_order
    assert f.image().order() == im_order
    ker = f.kernel_subgroup()
    assert ker.group.order() * im_order == src_order
    for i in range(ker.lift.shape[0]):
        assert f.target.contains(ker.lift[i] @ f.matrix)


@st.composite
def targets_with_relations(draw):
    """(s, target relations, t, matrix): a free source on up to 3
    generators, a target on up to 3 generators with 1 to 3 relations, a
    common scale making non-unit pivots frequent, and a map matrix."""
    t = draw(st.integers(1, 3))
    scale = draw(st.integers(1, 3))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    target = [[scale * draw(entry) for _ in range(t)] for _ in range(draw(st.integers(1, 3)))]
    s = draw(st.integers(1, 3))
    matrix = [[draw(entry) for _ in range(t)] for _ in range(s)]
    return s, target, t, matrix


@settings(max_examples=150, deadline=None)
@given(targets_with_relations(), st.data())
def test_preimage_lattice_holds_what_the_target_kills(case, data):
    s, target, t, matrix = case
    f = AbMap(FpAb(s), FpAb(t, target), matrix)
    pre = f.preimage_lattice()
    basis = _ints(linalg._dense(pre, s))
    assert basis == sympy_row_hnf(basis)
    ech = linalg.SparseEchelon(pre, s)
    coeff = st.integers(-3, 3)
    drawn = data.draw(st.lists(vectors(s), max_size=4))
    # combinations of the basis rows, and of them plus one unit vector
    for c in data.draw(st.lists(st.lists(coeff, min_size=len(basis), max_size=len(basis)), max_size=3)):
        x = [sum(a * r[j] for a, r in zip(c, basis)) for j in range(s)]
        drawn += [x, [x[j] + (j == 0) for j in range(s)]]
    for x in drawn:
        image = [sum(x[i] * matrix[i][j] for i in range(s)) for j in range(t)]
        assert (ech.solve(x) is not None) == f.target.contains(image)


def _member(rows, v):
    """Whether v lies in the row lattice of rows, by sympy's HNF."""
    basis = sympy_row_hnf(rows) if rows else []
    return solve_in_rows(intmat(basis), v) is not None if basis else not any(v)


def _rank(rows):
    return Matrix(rows).rank() if rows else 0


@st.composite
def lattice_meets(draw):
    """(n, a, b): up to 4 rows each of width up to 4; b is often a scaled
    copy of combinations of a's rows, so the meet is often nonzero."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    a = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(1, 4)))]
    b = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        scale = draw(st.integers(1, 4))
        b += [[scale * sum(draw(st.integers(-2, 2)) * r[j] for r in a) for j in range(n)] for _ in range(2)]
    return n, a, b


@settings(max_examples=150, deadline=None)
@given(lattice_meets(), st.data())
def test_lattice_intersect_is_the_meet(case, data):
    n, a, b = case
    meet = _ints(lattice_intersect(intmat(a), b))
    assert meet == sympy_row_hnf(meet)
    assert _rank(meet) == _rank(a) + _rank(b) - _rank(a + b)
    coeff = st.integers(-3, 3)
    drawn = data.draw(st.lists(vectors(n), max_size=3))
    for rows in (a, b, meet):
        for c in data.draw(st.lists(st.lists(coeff, min_size=len(rows), max_size=len(rows)), max_size=3)):
            drawn.append([sum(x * r[j] for x, r in zip(c, rows)) for j in range(n)])
    for v in drawn:
        assert _member(meet, v) == (_member(a, v) and _member(b, v))


# -- Quotient.kernel: every derived lattice against sympy ------------------------


def _sympy_kernel(images, t, lattice):
    """Canonical basis of {x : sum x_i images[i] lies in the lattice of the
    rows ``lattice``}, all dense of width t, by sympy: the rows
    (images[i], e_i) and (r, 0) reduced with the t target columns first,
    whose rows that vanish there carry the kernel."""
    n = len(images)
    rows = [list(w) + [int(i == j) for j in range(n)] for i, w in enumerate(images)]
    rows += [list(r) + [0] * n for r in lattice]
    if not rows or not n:
        return []
    return [r[t:] for r in sympy_row_hnf(rows) if not any(r[:t])]


@st.composite
def quotient_maps(draw):
    """(moduli, images, extra): up to 3 coordinates, each free or Z/d, up to
    6 generators whose images are reduced into [0, d) on torsion
    coordinates, so free coordinates raise the rank, and up to 3 extra
    rows, drawn dense or sparse."""
    moduli = draw(st.lists(st.sampled_from([0, 0, 2, 3, 4, 6, 9, 12]), max_size=3))
    t = len(moduli)
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    images = [[draw(entry) % d if d else draw(entry) for d in moduli] for _ in range(draw(st.integers(0, 6)))]
    extra = [[draw(entry) for _ in range(t)] for _ in range(draw(st.integers(0, 3)))]
    return moduli, images, extra


@settings(max_examples=300, deadline=None)
@given(quotient_maps(), st.booleans())
def test_quotient_kernel_matches_sympy(case, sparse):
    moduli, images, extra = case
    t = len(moduli)
    q = linalg.Quotient(moduli, [[(k, a) for k, a in enumerate(w) if a] for w in images])
    given_extra = [{k: a for k, a in enumerate(r) if a} for r in extra] if sparse else extra
    got = q.kernel(given_extra)
    lattice = [[d * (j == k) for j in range(t)] for k, d in enumerate(moduli) if d] + extra
    assert _ints(linalg._dense(got, len(images))) == _sympy_kernel(images, t, lattice)
    # the extra rows are read, not kept or changed
    assert given_extra == ([{k: a for k, a in enumerate(r) if a} for r in extra] if sparse else extra)


@settings(max_examples=150, deadline=None)
@given(presentations(), st.data())
def test_ab_quotient_matches_sympy(pres, data):
    n, rows = pres
    sub = data.draw(st.lists(vectors(n), max_size=4))
    g = FpAb(n, rows if rows else None)
    q = ab_quotient(g, sub)
    assert _ints(q.rel_basis) == (sympy_row_hnf(rows + sub) if rows + sub else [])
    assert q.echelon().basis == FpAb(n, (rows + sub) or None).echelon().basis
    assert _ints(q.rels) == _ints(g.rel_basis) + sub


@settings(max_examples=150, deadline=None)
@given(finite_maps())
def test_map_kernel_and_image_match_sympy(case):
    source, s, target, t, matrix = case
    f = AbMap(FpAb(s, source), FpAb(t, target), matrix)
    pre = _sympy_kernel(matrix, t, target)
    assert _ints(f.image().rel_basis) == pre
    ker = f.kernel_subgroup()
    assert _ints(ker.lift) == pre
    # the kernel's relations: y with y @ lift in the source lattice
    assert _ints(ker.group.rel_basis) == _sympy_kernel(_ints(ker.lift), s, source)
    assert ker.group.echelon().basis == FpAb(len(pre), ker.group.rels).echelon().basis
    assert f.kernel().invariant_factors() == ker.group.invariant_factors()


@settings(max_examples=150, deadline=None)
@given(targets_with_relations())
def test_map_from_a_free_source_matches_sympy(case):
    s, target, t, matrix = case
    f = AbMap(FpAb(s), FpAb(t, target), matrix)
    pre = _sympy_kernel(matrix, t, target)
    assert _ints(f.image().rel_basis) == pre
    ker = f.kernel_subgroup()
    assert _ints(ker.lift) == pre and ker.group.rank_of_relations == 0


def test_kernel_refuses_a_source_relation_outside_the_preimage(monkeypatch):
    # Z/4 -> Z/4, x -> 2x: the preimage is <2>, and the relation 4 lies in
    # it; forced to hold the relation 1 as well, the source has a relation
    # outside the preimage, which the kernel's coordinates refuse
    f = AbMap(FpAb(1, [[4]]), FpAb(1, [[4]]), [[2]])
    assert _ints(f.kernel_subgroup().lift) == [[2]]
    f.source._ech = linalg.SparseEchelon([{0: 1}], 1)
    with pytest.raises(AssertionError, match="source relations must lie in the preimage"):
        f.kernel_subgroup()
    # RP_1(F_13) is finite, so RP's relations span the preimage of lambda_1
    # rationally: a preimage one row short leaves one of them outside
    from scgroups.scissors import ScissorsContext
    from scgroups.rings import parse_ring

    ctx = ScissorsContext(parse_ring("gf(13)"))
    lam1 = ctx.lambda1_map()
    kernel = linalg.Quotient.kernel
    monkeypatch.setattr(linalg.Quotient, "kernel", lambda q, extra=(): kernel(q, extra)[:-1])
    with pytest.raises(AssertionError, match="source relations must lie in the preimage"):
        lam1.kernel_subgroup()
    monkeypatch.undo()
    assert lam1.kernel_subgroup().group.order() == 7


# -- subquotient against sympy ---------------------------------------------------


@st.composite
def lattice_pairs(draw):
    """(n, L generators, B, C): a sublattice L of Z^n with basis B (r rows
    of full rank), spanned by B and further integer combinations of its
    rows, and a denominator N spanned by the rows of C.B, so N lies in L
    and L/N = Z^r / (row lattice of C)."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, n))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    basis = [[draw(entry) for _ in range(n)] for _ in range(r)]
    assume(Matrix(basis).rank() == r)
    coeff = st.integers(-3, 3)
    extra = [[draw(coeff) for _ in range(r)] for _ in range(draw(st.integers(0, 2)))]
    k = draw(st.integers(0, 4))
    scale = draw(st.integers(1, 3))
    c = [[scale * draw(coeff) for _ in range(r)] for _ in range(k)]

    def combine(rows):
        return [[sum(x * b[j] for x, b in zip(row, basis)) for j in range(n)] for row in rows]

    return n, basis + combine(extra), r, c, combine(c)


@settings(max_examples=150, deadline=None)
@given(lattice_pairs())
def test_subquotient_matches_sympy(case):
    n, gens, r, c, num = case
    ker_basis = hnf_rows(gens, n)
    assert ker_basis.shape == (r, n)
    g = AbMap(FpAb(r), FpAb(n, num), ker_basis).image()
    if c:
        diag = [abs(int(d)) for d in sympy_invariant_factors(Matrix(c), domain=ZZ)]
    else:
        diag = []
    nonzero = sorted(d for d in diag if d)
    assert g.ngens == r
    assert g.invariant_factors() == tuple(d for d in nonzero if d > 1)
    assert g.free_rank == r - len(nonzero)


# -- the boundary of linalg ------------------------------------------------------


def _is_projection_call(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_projection"


def test_other_modules_reach_a_quotient_map_through_its_methods():
    # outside linalg, a quotient map is asked through Quotient's methods:
    # no module imports a private linalg helper but _dense, reads one off
    # the module, or indexes or unpacks an FpAb's _projection()
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "linalg":
                private = [a.name for a in node.names if a.name.startswith("_") and a.name != "_dense"]
                assert not private, (path.name, private)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "linalg":
                assert not node.attr.startswith("_") or node.attr == "_dense", (path.name, node.attr)
            if isinstance(node, ast.Subscript):
                assert not _is_projection_call(node.value), (path.name, node.lineno)
            if isinstance(node, ast.Assign) and _is_projection_call(node.value):
                assert not any(isinstance(t, (ast.Tuple, ast.List)) for t in node.targets), (path.name, node.lineno)
