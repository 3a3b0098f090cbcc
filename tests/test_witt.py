import pytest

from scgroups.linalg import FpAb, iso_odd
from scgroups.rings import GF, ZMod, parse_ring
from scgroups.scissors import context
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


def test_multiplication_table():
    w = WittContext(GF(7))
    t = w.multiplication_table()
    assert t[(1, 1)] == 0  # <a>^2 = 1


def test_i_squared_odd_part_vanishes_all_fields_in_scope():
    for q, d in [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (3, 2)]:
        assert i_squared(GF(q, d)).odd_order_trivial()


@pytest.mark.parametrize("label", ["gf(7)", "gf(13)", "gf(25)", "z/7^2"])
def test_steinberg_rows_span_the_lambda1_row_lattice(label):
    # GW's Steinberg ideal is generated by the values of lambda_1 on the
    # generators [u] of RP and their G-translates
    ring = parse_ring(label)
    wctx = WittContext(ring)
    rows = wctx.steinberg_rows()
    assert all(isinstance(r, dict) for r in rows)
    n = wctx.G.order
    assert FpAb(n, rows).echelon().basis == FpAb(n, context(ring).lambda1_matrix()).echelon().basis
