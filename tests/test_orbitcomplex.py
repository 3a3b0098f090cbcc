import hashlib
import itertools

import numpy as np
import pytest

from scgroups import linalg, orbitcomplex
from scgroups.linalg import hnf_rows, iso_odd, snf
from scgroups.orbitcomplex import (
    build_row_complex,
    chain_identities_hold,
    expected_orbit_count,
    orbit_classify,
    projective_points,
    simplicial_homology_vanishes,
)
from scgroups.rings import GF, parse_ring
from scgroups.scissors import ScissorsContext, context
from scgroups.witt import fundamental_ideal
from test_scissors import _five_terms_reference


def test_z1_basis_size_gf7():
    c = build_row_complex(GF(7))
    assert len(c.d3) == 2 * 5  # |G| * |W|


@pytest.mark.parametrize("label", ["gf(7)", "gf(11)", "z/7^2"])
def test_chain_identities(label):
    c = build_row_complex(parse_ring(label))
    assert chain_identities_hold(c)


def test_homology_at_3_reduces_canonical_rows_once(monkeypatch):
    # at GF(121) ker d3 and RP's relation basis both have 237 rows; the
    # left kernel reduces the former once, and neither is reduced again
    ring = parse_ring("gf(121)")
    c = build_row_complex(ring)
    c.ctx.rp_flat()
    calls = []
    hnf = linalg._hnf_sparse

    def counted(rows, n):
        calls.append(len(rows))
        return hnf(rows, n)

    monkeypatch.setattr(linalg, "_hnf_sparse", counted)
    h3 = c.homology_at(3)
    assert calls.count(237) == 1
    monkeypatch.undo()
    assert h3.describe() == "Z/61"  # RP_1(F_121)


def test_homology_position_1():
    c = build_row_complex(GF(7))
    assert c.homology_at(1).is_trivial()


def test_homology_position_2_is_fundamental_ideal():
    for label in ["gf(7)", "gf(11)"]:
        ring = parse_ring(label)
        c = build_row_complex(ring)
        h2 = c.homology_at(2)
        i1 = fundamental_ideal(ring)
        assert h2.invariant_factors() == i1.invariant_factors()
        assert h2.free_rank == i1.free_rank
    assert build_row_complex(GF(7)).homology_at(2).invariant_factors() == (2,)


@pytest.mark.parametrize("label", ["gf(7)", "gf(11)", "gf(13)"])
def test_homology_position_3_is_rp1(label):
    ring = parse_ring(label)
    c = build_row_complex(ring)
    assert iso_odd(c.homology_at(3), context(ring).rp1())


def test_projective_points_count():
    assert len(projective_points(GF(7))) == 8


def test_orbit_counts_triples_gf7():
    census = orbit_classify(GF(7), 3)
    assert len(census) == 2 == expected_orbit_count(GF(7), 3)
    assert sum(census.values()) == 8 * 7 * 6


def test_orbit_counts_4tuples_gf5():
    census = orbit_classify(GF(5), 4)
    assert len(census) == 6 == expected_orbit_count(GF(5), 4)


def test_orbit_counts_triples_gf4():
    census = orbit_classify(GF(2, 2), 3)
    assert len(census) == 1 == expected_orbit_count(GF(2, 2), 3)


def test_orbit_counts_5tuples_gf5():
    census = orbit_classify(GF(5), 5)
    assert len(census) == expected_orbit_count(GF(5), 5)


def test_orbit_guard():
    with pytest.raises(ValueError, match="31"):
        orbit_classify(GF(37), 3)


@pytest.mark.parametrize("q,d", [(5, 1), (7, 1)])
def test_simplicial_exactness_small(q, d):
    k = GF(q, d)
    for degree in (1, 2, 3):
        assert simplicial_homology_vanishes(k, degree)


def test_simplicial_exactness_gf4():
    k = GF(2, 2)
    for degree in (1, 2, 3):
        assert simplicial_homology_vanishes(k, degree)


def _boundary_rows(npts, length):
    """Rows of the boundary map on tuples of pairwise-distinct points."""
    index = {t: i for i, t in enumerate(itertools.permutations(range(npts), length - 1))}
    rows = []
    for t in itertools.permutations(range(npts), length):
        row = {}
        for i in range(length):
            j = index[t[:i] + t[i + 1 :]]
            row[j] = row.get(j, 0) + (-1) ** i
        rows.append({j: v for j, v in row.items() if v})
    return rows


def test_simplicial_saturation_fallback(monkeypatch):
    # a staircase pivot of 2 sends every degree through the saturation test
    real = orbitcomplex.sparse_rank_and_pivots

    def forced(rows, ncols):
        rank, pivots = real(rows, ncols)
        return rank, pivots[:-1] + [2] if pivots else pivots

    monkeypatch.setattr(orbitcomplex, "sparse_rank_and_pivots", forced)
    k = GF(5)
    for degree in (1, 2, 3):
        assert simplicial_homology_vanishes(k, degree)
    # at degree 2 the dense canonical form of the boundary image agrees
    upper = hnf_rows(_boundary_rows(6, 4), 6 * 5 * 4)
    assert all(x in (0, 1) for x in snf(upper).diagonal())


@pytest.mark.parametrize("label", ["gf(7)", "gf(11)", "z/7^2"])
def test_d4_rows_equal_the_dense_construction(label):
    from scgroups.scissors import rp_act

    c = build_row_complex(parse_ring(label))
    ctx = c.ctx
    ys = [y for _, _, _, y in _five_terms_reference(ctx)]
    want = [ctx.rp_vector(rp_act({g: 1}, y)) for g in range(ctx.G.order) for y in ys]
    assert len(c.d4) == len(want)
    for row, dense in zip(c.d4, want):
        assert row == {j: int(v) for j, v in enumerate(dense) if v}


@pytest.mark.parametrize("label", ["gf(7)", "gf(11)", "z/7^2"])
def test_chain_identities_fail_on_a_perturbed_d4_entry(label):
    c = build_row_complex(parse_ring(label))
    # a column whose d3 row is nonzero, so the extra entry shows in d4 . d3
    j = next(j for j in range(len(c.d3)) if c.d3[j])
    c.d4[len(c.d4) // 2][j] = c.d4[len(c.d4) // 2].get(j, 0) + 1
    assert not chain_identities_hold(c)


@pytest.mark.parametrize("label", ["gf(13)", "z/7^2"])
def test_d4_lattice_is_the_rp_relation_lattice(label):
    # homology_at(3) divides by RP's relation basis instead of reducing d4
    c = build_row_complex(parse_ring(label))
    basis = c.ctx.rp_flat().rel_basis
    assert np.array_equal(hnf_rows(c.d4, len(c.d3)), basis)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# sha256 of the P relation rows, the flattened RP relation rows and the
# sorted d4 rows, as the relation builders produced them before the
# five-term relations and field arithmetic were tabulated; the tests above
# compare against the ring-arithmetic formula, so these pin the output
GOLDEN_RELATION_DIGESTS = {
    "gf(49)": (
        "62801ed6710897139594a2a9dc7a449964f256af03c93074c35727ef17317ec6",
        "363ecf07b0afc24b3ebdc7b35810d88dc6f90be2e133b8b484403cfac1caf917",
        "c2ca6c38d60d0e99ab6c775499ed5b54ba30c26ab33fd48081930b76731111ed",
    ),
    "gf(2^4)": (
        "3c42d92542728958dad829f19534bcb4244dd276c2d1a345cbf6c137fe999ca4",
        "3c42d92542728958dad829f19534bcb4244dd276c2d1a345cbf6c137fe999ca4",
        "2df466c7b646ee5d821f392cd1c631f8b95962e8fd678b9aedae6212cb062d0d",
    ),
    "z/7^2": (
        "462b1e142475b400766490fd28ba89229213e4470585403e7b7da53652a26d2b",
        "ec17315e5ec8c95c1654b33b01295277b51d829b3536b1b4cea2642858053914",
        "b3dafa1e6a30e14632ca013f9366bd77571f29403592065f96e49d5f040da8a2",
    ),
    "gf(5)[t]/t^2": (
        "c8a978e3fb17d08b2a0b5c9acaf726b1385984ebe3ebafbbb8065b6183640214",
        "b867542d9b62e78c9db57453d41dc33660318943b71581c5154465fc8af21e57",
        "0edb1dd7e80e9d91c0cbc49c3b40917608274c849c2ed0f64f3bab025cb0c5ae",
    ),
}


@pytest.mark.parametrize("label", list(GOLDEN_RELATION_DIGESTS))
def test_relation_rows_match_golden_digests(label):
    ring = parse_ring(label)
    ctx = ScissorsContext(ring)
    p_rows = [[int(x) for x in r] for r in ctx.pre_bloch().rels]
    rp_rows = [[int(x) for x in r] for r in ctx.refined().flatten().rels]
    d4_rows = [sorted(r.items()) for r in build_row_complex(ring).d4]
    got = (_digest(p_rows), _digest(rp_rows), _digest(d4_rows))
    assert got == GOLDEN_RELATION_DIGESTS[label]


@pytest.mark.parametrize("label", ["gf(7)", "z/7^2"])
def test_d3_is_the_cached_lambda1_matrix(label):
    ring = parse_ring(label)
    assert build_row_complex(ring).d3 is context(ring).lambda1_matrix()
