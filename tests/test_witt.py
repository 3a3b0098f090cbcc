import pytest

from scgroups import groupring
from scgroups.groupring import scale
from scgroups.linalg import FpAb, iso_odd
from scgroups.rings import GF, ZMod, parse_ring, square_classes
from scgroups.scissors import ScissorsContext
from scgroups.witt import WittContext, fundamental_ideal, gw, i_squared


def test_gw_gf7():
    g = gw(GF(7))
    assert g.free_rank == 1
    assert g.invariant_factors() == (2,)


def test_fundamental_ideal_gf7():
    assert fundamental_ideal(GF(7)).invariant_factors() == (2,)
    assert fundamental_ideal(GF(7)).free_rank == 0


@pytest.mark.parametrize("q", [7, 11, 13])
def test_i_squared_finite_fields(q):
    assert i_squared(GF(q)).is_trivial()


def test_i_contains_i_squared_and_augmentation():
    # I >= I^2 holds on orders here; augmentation kills I by construction
    for label in ["gf(7)", "gf(11)", "z/7^2"]:
        ring = parse_ring(label)
        i1 = fundamental_ideal(ring)
        i2 = i_squared(ring)
        assert (i2.order() or 0) <= (i1.order() or 1)


def test_gw_even_characteristic():
    g = gw(GF(2, 2))
    # trivial square-class group: GW = Z[G]/(0 or full ideal)
    assert g.free_rank in (0, 1)


def test_i_squared_odd_part_vanishes_all_fields_in_scope():
    for q, d in [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (3, 2)]:
        assert i_squared(GF(q, d)).odd_order_trivial()


@pytest.mark.parametrize("label", ["gf(7)", "gf(13)", "gf(25)", "z/7^2"])
def test_steinberg_rows_span_the_lambda1_row_lattice(label):
    # GW's Steinberg ideal is generated by the values of lambda_1 on the
    # generators [u] of RP and their G-translates
    ring = parse_ring(label)
    assert all(isinstance(r, dict) for r in WittContext(ring).steinberg_rows())
    assert steinberg_rows_hold(ring)


def test_steinberg_rows_check_sees_a_wrong_steinberg(monkeypatch):
    ring = parse_ring("gf(13)")
    steinberg = groupring.steinberg
    monkeypatch.setattr(groupring, "steinberg", lambda G, a: scale(2, steinberg(G, a)))
    assert not steinberg_rows_hold(ring)


def expected_steinberg_rows(ring) -> list[dict]:
    """(<a> - 1)(<1 - a> - 1) translated by <g>, g outer and a in W inner,
    expanded by hand from the square classes alone:
    <g a (1 - a)> - <g a> - <g (1 - a)> + <g>."""
    G = square_classes(ring)
    rows = []
    for g in range(G.order):
        for a in ring.w_set:
            x, y = G.class_of(a), G.class_of(ring.sub(ring.one, a))
            row: dict = {}
            for h, c in ((g ^ x ^ y, 1), (g ^ x, -1), (g ^ y, -1), (g, 1)):
                row[h] = row.get(h, 0) + c
            rows.append({h: c for h, c in row.items() if c})
    return rows


def steinberg_rows_hold(ring) -> bool:
    """lambda_1's rows of a fresh context are the expected rows, one for
    one, and GW's Steinberg rows span their lattice."""
    want = expected_steinberg_rows(ring)
    n = square_classes(ring).order
    basis = FpAb(n, want).echelon().basis
    return (
        ScissorsContext(ring).lambda1_matrix() == want
        and FpAb(n, WittContext(ring).steinberg_rows()).echelon().basis == basis
    )
