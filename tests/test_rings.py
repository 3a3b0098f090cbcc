import hashlib
import math
import re

import pytest

from scgroups import valuation
from scgroups.cli import MAX_RING_SIZE
from scgroups.globalinv import RATIONALS, pbar_order
from scgroups.rings import (
    GF,
    TruncPoly,
    ZMod,
    _order_of,
    _poly_mul_mod,
    is_prime,
    make_ring,
    parse_ring,
    prime_power_decompose,
    smallest_irreducible,
    square_classes,
    sufficiently_large,
    unit_group_basis,
)

ALL_RINGS = [
    GF(7),
    GF(11),
    GF(13),
    GF(3, 2),
    GF(2, 2),
    ZMod(7, 2),
    ZMod(11, 2),
    TruncPoly(GF(5), 2),
    TruncPoly(GF(3), 2),
]


def test_make_ring_examples():
    r = make_ring("field", 7, 1)
    assert r.size() == 7 and r.kind == "field"
    r = make_ring("field", 3, 2)
    assert r.size() == 9
    assert r.modulus == (1, 0, 1)  # t^2 + 1
    r = make_ring("zmod", 7, 2)
    assert r.size() == 49


def test_make_ring_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        make_ring("field", 6, 1)
    with pytest.raises(ValueError):
        make_ring("zmod", 4, 1)


def test_smallest_irreducible_is_irreducible():
    # no roots in the base field is necessary; full check is trial division
    for p, d in [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (3, 3)]:
        coeffs = smallest_irreducible(p, d)
        assert len(coeffs) == d + 1 and coeffs[-1] == 1
        for x in range(p):
            val = sum(c * x**i for i, c in enumerate(coeffs)) % p
            assert val != 0


def test_unit_counts():
    assert len(GF(7).w_set) == 5
    assert len(ZMod(7, 2).u1) == 7
    assert len(TruncPoly(GF(3), 2).units) == 6


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.label)
def test_units_decompose_into_w_and_u1(ring):
    assert set(ring.units) == set(ring.w_set) | set(ring.u1)
    assert not set(ring.w_set) & set(ring.u1)
    # U1 = 1 + maximal ideal
    nonunits = [x for x in ring.elements if not ring.is_unit(x)]
    u1 = {ring.add(ring.one, m) for m in nonunits}
    assert u1 == set(ring.u1)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.label)
def test_field_axioms_spotcheck(ring):
    xs = ring.elements[: min(len(ring.elements), 8)]
    for a in xs:
        for b in xs:
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
            assert ring.add(a, ring.neg(a)) == ring.zero
    for u in ring.units[:8]:
        assert ring.mul(u, ring.inv(u)) == ring.one


EXTENSION_FIELDS = [
    (p, d) for p in range(2, MAX_RING_SIZE + 1) if is_prime(p) for d in range(2, 8) if p**d <= MAX_RING_SIZE
]


def test_extension_fields_in_scope():
    sizes = sorted(p**d for p, d in EXTENSION_FIELDS)
    assert sizes == [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169]


@pytest.mark.parametrize("p,d", EXTENSION_FIELDS, ids=lambda v: str(v))
def test_extension_field_tables_match_polynomial_arithmetic(p, d):
    """Every sum, negative, difference and product of GF(p^d), read from
    the Zech-logarithm tables, equals coefficient-wise arithmetic and the
    product reduced modulo the defining polynomial; inverses invert."""
    f = GF(p, d)
    elems = f.elements
    assert len(elems) == p**d
    for a in elems:
        assert f.neg(a) == tuple(-x % p for x in a)
        for b in elems:
            assert f.mul(a, b) == _poly_mul_mod(a, b, f.modulus, p)
            assert f.add(a, b) == tuple((x + y) % p for x, y in zip(a, b))
            assert f.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b))
    assert f.units == elems[1:]
    for u in f.units:
        assert f.mul(f.inv(u), u) == f.one


def test_square_classes_examples():
    g7 = square_classes(GF(7))
    assert g7.order == 2
    assert g7.class_of(3) != 0
    assert g7.rep(g7.class_of(3)) == 3  # first nonsquare in canonical order
    g4 = square_classes(GF(2, 2))
    assert g4.order == 1
    g49 = square_classes(ZMod(7, 2))
    assert g49.order == 2


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.label)
def test_square_class_multiplicativity(ring):
    g = square_classes(ring)
    for x in ring.units[:10]:
        for y in ring.units[:10]:
            assert g.mul(g.class_of(x), g.class_of(y)) == g.class_of(ring.mul(x, y))
        assert g.class_of(ring.mul(x, x)) == 0


def test_class_of_rejects_nonunit():
    g = square_classes(ZMod(7, 2))
    with pytest.raises(ValueError):
        g.class_of(7)


def _square_classes_by_partition(ring):
    """The reference (basis, class_table, reps): partition the units into
    square classes by enumerating the squares, then take as basis the first
    unit of each class, in canonical order, not yet spanned."""
    squares = {ring.mul(u, u) for u in ring.units}
    class_of_unit, rep_of_class = {}, []
    for u in ring.units:
        if u not in class_of_unit:
            for s in squares:
                class_of_unit[ring.mul(u, s)] = len(rep_of_class)
            rep_of_class.append(u)
    basis, mask_of_cid = [], {class_of_unit[ring.one]: 0}
    for cid, u in enumerate(rep_of_class):
        if cid not in mask_of_cid:
            bit = 1 << len(basis)
            basis.append(u)
            for old in list(mask_of_cid):
                mask_of_cid[class_of_unit[ring.mul(u, rep_of_class[old])]] = mask_of_cid[old] | bit
    reps = [None] * len(rep_of_class)
    for cid, mask in mask_of_cid.items():
        reps[mask] = rep_of_class[cid]
    return basis, {u: mask_of_cid[c] for u, c in class_of_unit.items()}, reps


# |G| = 1, 2, 4, 8 and 16, each at least once
ORACLE_RINGS = [
    "gf(8)",
    "gf(49)",
    "z/7^3",
    "z/2^5",
    "gf(3)[t]/t^4",
    "gf(2)[t]/t^6",
    "gf(4)[t]/t^3",
    "gf(2^4)[t]/t^2",
]


def test_square_classes_match_the_partition_by_squares():
    orders = set()
    for label in ORACLE_RINGS:
        ring = parse_ring(label)
        g = square_classes(ring)
        assert (g.basis, g.class_table, g.reps) == _square_classes_by_partition(ring), label
        orders.add(g.order)
    assert orders == {1, 2, 4, 8, 16}


@pytest.mark.parametrize("label", ["gf(13)", "gf(3^3)", "z/3^4", "gf(3)[t]/t^6", "gf(4)[t]/t^3"])
def test_every_unit_times_its_inverse_is_one(label):
    ring = parse_ring(label)
    # parsing leaves the decomposition to the first read
    assert "unit_decomposition" not in vars(ring)
    for a in ring.units:
        assert ring.mul(a, ring.inv(a)) == ring.one
    with pytest.raises(ValueError, match="is not a unit"):
        ring.inv(ring.zero)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.label)
def test_residue_is_ring_map(ring):
    k = ring.residue_field()
    xs = ring.elements[: min(len(ring.elements), 10)]
    for a in xs:
        for b in xs:
            assert ring.residue(ring.add(a, b)) == k.add(ring.residue(a), ring.residue(b))
            assert ring.residue(ring.mul(a, b)) == k.mul(ring.residue(a), ring.residue(b))
    # surjective, and units map exactly onto units
    assert {ring.residue(x) for x in ring.elements} == set(k.elements)
    for x in ring.elements:
        assert ring.is_unit(x) == k.is_unit(ring.residue(x))


def test_sufficiently_large():
    assert sufficiently_large(64) is False
    assert sufficiently_large(11) is True
    assert sufficiently_large(13) is True
    assert sufficiently_large(25) is True
    assert sufficiently_large(9) is False
    with pytest.raises(ValueError):
        sufficiently_large(12)


def test_sufficiently_large_gates_specialization_and_the_corollary(monkeypatch):
    # (p - 1)d > 6 refuses exactly the primes 2, 3, 5 and 7 below 300, with
    # the messages of both callers; an accepted prime passes the gate of
    # SpecializationContext and reaches its scissors context, stubbed here
    class Passed(Exception):
        pass

    def passed(ring):
        raise Passed

    monkeypatch.setattr(valuation, "scissors_context", passed)
    for p in filter(is_prime, range(300)):
        assert sufficiently_large(p) is (p >= 11)
        if p < 11:
            with pytest.raises(ValueError, match=re.escape("residue field must be sufficiently large (p >= 11)")):
                valuation.SpecializationContext(p)
            with pytest.raises(ValueError, match=re.escape("the corollary branch needs p >= 11")):
                pbar_order(RATIONALS, p)
        else:
            with pytest.raises(Passed):
                valuation.SpecializationContext(p)
            assert pbar_order(RATIONALS, p).p == p


def test_prime_power_decompose():
    assert prime_power_decompose(49) == (7, 2)
    assert prime_power_decompose(121) == (11, 2)
    assert prime_power_decompose(12) is None
    assert prime_power_decompose(13) == (13, 1)


def test_prime_power_decompose_agrees_with_brute_force_below_10_4():
    primes = [p for p in range(2, 10**4) if all(p % f for f in range(2, math.isqrt(p) + 1))]
    want = {p**d: (p, d) for p in primes for d in range(1, 14) if p**d < 10**4}
    for q in range(-1, 10**4):
        assert prime_power_decompose(q) == want.get(q), q


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.label)
def test_unit_group_basis(ring):
    gens, orders, dlog = unit_group_basis(ring)
    import math

    assert math.prod(orders) == len(ring.units)
    # dlog is a bijection onto the exponent box
    seen = set()
    for u in ring.units:
        e = dlog[u]
        assert len(e) == len(gens)
        assert all(0 <= ei < oi for ei, oi in zip(e, orders))
        seen.add(e)
        # check the exponents reproduce the unit
        x = ring.one
        for g, ei in zip(gens, e):
            x = ring.mul(x, ring.power(g, ei))
        assert x == u
    assert len(seen) == len(ring.units)


# sha256 of (generator indices, orders, sorted (index, exponents) of dlog),
# recorded when the greedy search scanned every unit for the largest order
# modulo the span: stopping at the first unit of order |U| / |span| must
# pick the same generators
UNIT_BASIS_GOLDEN = {
    "gf(7)": "712aa2603f753135a73e54053e49f4b2b165abfc497588de43faa58df9acbaa4",
    "gf(233)": "bbe8186a80e7fb3abf805636ca0c04f3f0fdd72d5234dd3d643c8b7463a373d4",
    "gf(289)": "a2407cf541a181009238ec8b14777b8b364c7c6a240fa9079bf87dab464d0857",
    "gf(3^4)": "bd97f30b77815f8f1e9355c4f4e44a3d16222d25cbe849562d5a31da519ea679",
    "z/2^7": "7d932077ec33fd6b66e31d9dcdfae8fa3b7fb7a18c0eca89a73b3be5df92ad94",
    "z/11^2": "14e43570a730742858c784f9a33b307c05fd82720d306709dca1c30a591300eb",
    "gf(5)[t]/t^2": "291db213b5949c5a5947d5dfdfce86421f448402ada9b2885c80dff5d16938c2",
    "gf(3^2)[t]/t^2": "980b6bc180b93d6d54f9c11c3f52eb89ebafed90e4d2583c00828d59a3a77085",
    "gf(2^4)[t]/t^2": "5611be3aa30e3bea14985508c81942a173684d65e7ba01df6f4ebfab9609a7c0",
}


@pytest.mark.parametrize("label", sorted(UNIT_BASIS_GOLDEN))
def test_unit_group_basis_golden(label):
    ring = parse_ring(label)
    gens, orders, dlog = unit_group_basis(ring)
    idx = ring.index
    text = repr(([idx[g] for g in gens], list(orders), sorted((idx[u], tuple(e)) for u, e in dlog.items())))
    assert hashlib.sha256(text.encode()).hexdigest() == UNIT_BASIS_GOLDEN[label]


def test_unit_group_gf9_t2_not_cyclic():
    ring = TruncPoly(GF(3, 2), 2)
    gens, orders, dlog = unit_group_basis(ring)
    assert sorted(orders) in ([3, 24], [3, 3, 8])


def test_parse_ring():
    assert parse_ring("gf(7)").label == "gf(7)"
    assert parse_ring("gf(3^2)").size() == 9
    assert parse_ring("gf(25)").size() == 25
    assert parse_ring("z/7^2").size() == 49
    assert parse_ring("z/49").size() == 49
    r = parse_ring("gf(5)[t]/t^2")
    assert r.size() == 25 and r.kind == "tpoly"
    with pytest.raises(ValueError):
        parse_ring("gf(6)")
    with pytest.raises(ValueError):
        parse_ring("ring(3)")


def test_prime_power_base_reads_one_way():
    for q, label in (("9", "gf(3^2)"), ("4", "gf(2^2)")):
        r = parse_ring(f"gf({q})[t]/t^2")
        assert r.label == f"{label}[t]/t^2" and r.size() == int(q) ** 2
    with pytest.raises(ValueError, match="4 is not prime"):
        parse_ring("gf(4^2)[t]/t^2")


def test_field_under_every_descriptor():
    for desc in ("gf(11)", "z/11", "gf(11)[t]/t^1", "gf(3^2)", "gf(9)[t]/t^1"):
        assert parse_ring(desc).is_field
    for desc in ("z/11^2", "gf(11)[t]/t^2", "gf(9)[t]/t^2"):
        assert not parse_ring(desc).is_field


def test_order_of():
    ring = GF(7)
    orders = {u: _order_of(ring, u) for u in ring.units}
    assert orders[1] == 1 and orders[6] == 2
    assert max(orders.values()) == 6


def _trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_2e5():
    assert [n for n in range(200_000) if is_prime(n)] == [n for n in range(200_000) if _trial_division_is_prime(n)]


@pytest.mark.parametrize(
    "n",
    [
        3_215_031_751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3_825_123_056_546_413_051,  # strong pseudoprime to every prime base up to 23
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801, 232250619601,  # Carmichael
        43 * 53**14,  # above the Miller-Rabin bound, decided by trial division
        (10**9 + 7) * (10**9 + 9),
    ],
)
def test_is_prime_refuses_pseudoprimes_and_carmichael_numbers(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2**31 - 1, 10**9 + 7, 10**12 + 39, 2**61 - 1, 3_317_044_064_679_887_385_961_813])
def test_is_prime_accepts_large_primes(n):
    # the last is the largest prime below the Miller-Rabin bound
    assert is_prime(n)
