import gc
import random
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgroups import groupring, linalg
from scgroups.groupring import (
    Character,
    RModPres,
    add,
    augment,
    bracket,
    characters,
    chi_ideal_rows,
    dbl_bracket,
    p_plus,
    r_mul,
    scale,
)
from scgroups.linalg import (
    AbMap,
    FpAb,
    _hnf_sparse,
    _projection_table,
    direct_sum,
    hnf_rows,
    intmat,
    iso_odd,
    zeros,
)
from scgroups.rings import GF, ZMod, parse_ring, square_classes
from scgroups.scissors import ScissorsContext, context

G7 = square_classes(GF(7))
G49 = square_classes(ZMod(7, 2))


def test_augment_kills_dbl_bracket():
    for a in GF(7).units:
        assert augment(dbl_bracket(G7, a)) == 0


def test_dbl_bracket_square():
    # <<a>> * <<a>> = -2<<a>> when <a> != 1
    x = dbl_bracket(G7, 3)
    assert x  # 3 is a nonsquare mod 7
    assert r_mul(x, x) == scale(-2, x)


def test_p_plus_orthogonality():
    pp = p_plus(G7)
    minus = add(bracket(G7, GF(7).neg_one()), {0: -1})
    assert r_mul(pp, minus) == {}


def test_augment_is_ring_map():
    rng = random.Random(3)
    for _ in range(20):
        x = {g: rng.randrange(-4, 5) for g in range(G49.order)}
        y = {g: rng.randrange(-4, 5) for g in range(G49.order)}
        assert augment(r_mul(x, y)) == augment(x) * augment(y)
        assert augment(add(x, y)) == augment(x) + augment(y)


def test_chi_localize_of_ring_is_z():
    m = RModPres(G7, 1)
    for chi in characters(G7):
        loc = m.chi_localize(chi)
        assert loc.free_rank == 1 and not loc.invariant_factors()


def test_chi_localize_free_rank_two():
    m = RModPres(G7, 2)
    for chi in characters(G7):
        loc = m.chi_localize(chi)
        assert loc.free_rank == 2


def test_chi0_localization_is_coinvariants():
    # M with one generator e and relation (<g> + 1)e over G of order 2:
    # coinvariants adjoin g*e = e, giving Z/2.
    g = 1  # the nontrivial class bitmask
    m = RModPres(G7, 1, [[{g: 1, 0: 1}]])
    chi0 = characters(G7)[0]
    loc = m.chi_localize(chi0)
    # direct coinvariant computation: flatten and add (g-1)e relations
    flat = m.flatten()
    extra = []
    for j in range(m.ngens):
        row = zeros(1, m.flat_ngens)[0]
        row[m.flat_index(g, j)] += 1
        row[m.flat_index(0, j)] -= 1
        extra.append(row)
    import numpy as np

    coin = FpAb(m.flat_ngens, np.vstack([flat.rel_basis] + extra))
    assert loc.invariant_factors() == coin.invariant_factors()
    assert loc.free_rank == coin.free_rank


def test_plus_minus_decomposition_of_ring():
    m = RModPres(G7, 1)
    g = G7.neg_one()
    assert g != 0
    plus = m.plus_part(g)
    minus = m.minus_part(g)
    both = direct_sum(plus, minus)
    # odd parts: R = e+R ⊕ e-R has odd part Z ⊕ Z
    assert both.free_rank == 2
    assert not both.odd_invariants()


def test_minus_part_of_trivial_action_is_zero():
    # trivial-action module: relations (g-1)e for all g
    rels = []
    for g in range(1, G7.order):
        rels.append([{g: 1, 0: -1}])
    m = RModPres(G7, 1, rels)
    g = G7.neg_one()
    minus = m.minus_part(g)
    # multiplication by (g-1) annihilates a trivial module up to 2-torsion
    assert minus.odd_order_trivial()


def test_twist_involutive_and_by_chi0():
    rels = [[{1: 2, 0: 1}], [{0: 3}]]
    m = RModPres(G7, 1, rels)
    chi0, chi1 = characters(G7)
    assert m.twist(chi0).table.rows() == m.table.rows()
    assert m.twist(chi1).twist(chi1).table.rows() == m.table.rows()


def test_twist_of_trivial_module():
    rels = [[{g: 1, 0: -1}] for g in range(1, G7.order)]
    m = RModPres(G7, 1, rels)
    chi1 = characters(G7)[1]
    t = m.twist(chi1)
    # g acts as chi(g) id: relation becomes chi(g)g - 1
    assert t.table.row(0) == {1: -1, 0: -1}


def test_chi_ideal_odd_properties():
    # (i) R^chi and (R^chi)^2 have equal odd parts inside Z[G]
    # (ii) for chi1 != chi2, R^chi1 + R^chi2 has the odd part of R
    for G in (G7, G49):
        n = G.order
        chis = characters(G)
        for chi in chis:
            rows = chi_ideal_rows(G, chi)
            sq_rows = []
            for g in range(n):
                gen_g = add({g: 1}, {0: -chi(g)})
                for h in range(n):
                    gen_h = add({h: 1}, {0: -chi(h)})
                    sq_rows.append(r_mul(gen_g, gen_h))
            a = FpAb(n, rows)
            b = FpAb(n, sq_rows)
            assert iso_odd(a, b)
        for i, c1 in enumerate(chis):
            for c2 in chis[i + 1 :]:
                both = FpAb(n, chi_ideal_rows(G, c1) + chi_ideal_rows(G, c2))
                # odd part of Z[G]/(R^c1+R^c2) is trivial
                assert both.odd_order_trivial()


def test_plus_minus_odd_decomposition_random_modules():
    rng = random.Random(11)
    for trial in range(6):
        ngens = rng.randrange(1, 3)
        rels = []
        for _ in range(rng.randrange(0, 3)):
            rel = []
            for _ in range(ngens):
                rel.append({g: rng.randrange(-2, 3) for g in range(G7.order)})
            rels.append(rel)
        m = RModPres(G7, ngens, rels)
        g = G7.neg_one()
        both = direct_sum(m.plus_part(g), m.minus_part(g))
        assert iso_odd(m.flatten(), both)


def test_chi_localize_right_exact_euler():
    # random presented M and quotient M/N: exactness of localization after
    # inverting 2, spot-checked through Euler characteristics
    rng = random.Random(23)
    import numpy as np

    for trial in range(6):
        ngens = 2
        rels = []
        for _ in range(rng.randrange(0, 3)):
            rels.append(
                [{g: rng.randrange(-2, 3) for g in range(G7.order)} for _ in range(ngens)]
            )
        m = RModPres(G7, ngens, rels)
        sub = [
            [{g: rng.randrange(-2, 3) for g in range(G7.order)} for _ in range(ngens)]
        ]
        q = RModPres(G7, ngens, rels + sub)
        mflat, qflat = m.flatten(), q.flatten()
        # N = submodule generated by sub inside M
        subrows = RModPres(G7, ngens, sub).flat_rows()
        nrows = hnf_rows(subrows + [r for r in mflat.rel_basis], m.flat_ngens)
        # Euler check per character: rank and odd torsion multiply up
        for chi in characters(G7):
            mloc = m.chi_localize(chi)
            qloc = q.chi_localize(chi)
            # N_chi: relations of M plus nothing, generators = sub images
            # use the exact sequence ranks: rank(M) = rank(Q) + rank(N_image)
            # torsion comparison on odd parts via orders of finite parts
            assert mloc.free_rank >= qloc.free_rank
    # exactness statement proper is exercised via iso_odd in scissors tests


def test_character_values():
    chis = characters(G49)
    assert chis[0].is_trivial()
    assert len(chis) == 2
    chi = chis[1]
    assert chi(0) == 1 and chi(1) == -1


# -- the e± block form of the flat lattice ---------------------------------------

# square-class groups of order 2, 4 and 8
BLOCK_GROUPS = [square_classes(parse_ring(r)) for r in ("gf(7)", "gf(2^2)[t]/t^2", "gf(2^3)[t]/t^2")]


def _reference(m: RModPres):
    """Canonical basis of every flat row, reduced at once, and the quotient
    map that the block form's group, whose basis comes without a map, reads
    off it; the reduction's own map has the same moduli and kills the
    basis."""
    ech, proj = _hnf_sparse(m.flat_rows(), m.flat_ngens)
    table = _projection_table(ech)
    assert proj.moduli == table.moduli and proj.unkilled(ech.basis) == []
    return ech.basis, table


@st.composite
def block_modules(draw, groups=tuple(BLOCK_GROUPS)):
    G = draw(st.sampled_from(groups))
    ngens = draw(st.integers(1, 3))
    coeff = st.integers(-3, 3).filter(bool)
    element = st.dictionaries(st.integers(0, G.order - 1), coeff, max_size=3)
    relation = st.dictionaries(st.integers(0, ngens - 1), element, max_size=ngens)
    # up to 12 relations: tall enough for the certified path when N is small
    return RModPres(G, ngens, draw(st.lists(relation, max_size=12)))


@settings(max_examples=150, deadline=None)
@given(block_modules())
def test_block_form_matches_the_flat_reduction(m):
    flat = m.flatten()
    basis, proj = _reference(m)
    assert flat.echelon().basis == basis
    assert flat._projection() == proj


@settings(max_examples=150, deadline=None)
@given(block_modules(), st.integers(0, 8))
def test_translates_are_the_per_row_formula(m, count):
    n, order = m.ngens, m.G.order
    count = min(count, order)
    rows = [{((i // n) ^ t) * n + i % n: c for i, c in r.items()} for r in m.table.rows() for t in range(count)]
    table = groupring.translates(m.table, n, count)
    assert table.ncols == m.flat_ngens and table.rows() == rows
    assert m.flat_rows() == groupring.translates(m.table, n, order).rows()


@settings(max_examples=100, deadline=None)
@given(block_modules())
def test_module_from_nested_dicts_sequences_or_a_table_has_one_table(m):
    n, order = m.ngens, m.G.order
    nested = [{i % n: {} for i in r} for r in m.table.rows()]
    for r, rel in zip(m.table.rows(), nested):
        for i, c in r.items():
            rel[i % n][i // n] = c
    sequences = [[rel.get(j, {}) for j in range(n)] for rel in nested]
    for rels in (nested, sequences, m.table, nested[:1] + sequences[1:]):
        assert RModPres(m.G, n, rels).table.rows() == m.table.rows()
    with pytest.raises(ValueError, match="out of range"):
        RModPres(m.G, n, [{n: {0: 1}}])
    with pytest.raises(ValueError, match="generator count"):
        RModPres(m.G, n, [[{0: 1}] * (n + 1)])
    with pytest.raises(ValueError, match="width"):
        RModPres(m.G, n + 1, m.table)


def _e_minus_has_two_torsion(m: RModPres) -> bool:
    """Whether Z^N / L- has 2-torsion, where L- is spanned by the rows
    a - b of the translates (a, b) of m's relations by the classes without
    the top class h: built one dict at a time, apart from the block form's
    table code."""
    n, half = m.ngens, m.G.order // 2
    N = half * n
    rows = []
    for r in m.table.rows():
        for t in range(half):
            d: dict = {}
            for i, c in r.items():
                j = ((i // n) ^ t) * n + i % n
                k, c = (j - N, -c) if j >= N else (j, c)
                d[k] = d.get(k, 0) + c
            rows.append({k: c for k, c in d.items() if c})
    return any(d % 2 == 0 for d in FpAb(N, rows).invariant_factors())


def _flatten_and_glue(m: RModPres):
    """m's flat module, and whether the block form glued its halves by S."""
    with mock.patch.object(groupring, "_s_rows", wraps=groupring._s_rows) as s_rows:
        flat = m.flatten()
    return flat, s_rows.called


@pytest.mark.parametrize("two_torsion", [False, True])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_form_glues_match_the_flat_reduction(two_torsion, data):
    # |G| = 2 and 4, drawn on each side of the 2-torsion guard: without
    # 2-torsion in Z^N / L- the halves glue as L' (L+ and L- alone), with
    # it through S; either way the basis and map are the whole reduction's
    groups = tuple(G for G in BLOCK_GROUPS if G.order <= 4)
    m = data.draw(block_modules(groups).filter(lambda m: _e_minus_has_two_torsion(m) == two_torsion))
    flat, by_s = _flatten_and_glue(m)
    basis, proj = _reference(m)
    assert flat.echelon().basis == basis
    assert flat._projection() == proj
    assert by_s == two_torsion


# the pinned modules that glue through S: pi has an even modulus
S_GLUED = {
    ("gf(7)", "RP'"),
    ("gf(11)", "RP'"),
    ("z/7^2", "RP'"),
    ("gf(2^2)[t]/t^2", "RP"),
    ("gf(2^2)[t]/t^2", "RP'"),
    ("gf(2^3)[t]/t^2", "RP"),
    ("gf(2^3)[t]/t^2", "RP'"),
}


@pytest.mark.parametrize("name", ["RP", "RP'"])
@pytest.mark.parametrize(
    "label", ["gf(7)", "gf(11)", "gf(49)", "z/7^2", "gf(5)[t]/t^2", "gf(2^2)[t]/t^2", "gf(2^3)[t]/t^2"]
)
def test_block_form_of_rp_and_rp_prime_is_the_flat_reduction(label, name):
    ctx = ScissorsContext(parse_ring(label))
    m = ctx.refined() if name == "RP" else ctx.rp_prime()
    flat, by_s = _flatten_and_glue(m)
    basis, proj = _reference(m)
    assert flat.echelon().basis == basis
    assert flat._projection() == proj
    assert by_s == ((label, name) in S_GLUED)


def test_l_prime_glue_past_the_two_torsion_guard_is_wrong_yet_certified(monkeypatch):
    # on RP'(GF(8)[t]/t^2), Z^N / L- has 2-torsion, and L' is larger than
    # the flat lattice: glued as L' regardless, the group loses a Z/2, yet
    # every relation row still maps to 0, so the relation certificate alone
    # cannot see the fault.  Only the guard keeps the group right
    label = "gf(2^3)[t]/t^2"
    m = ScissorsContext(parse_ring(label)).rp_prime()
    assert _e_minus_has_two_torsion(m)
    assert m.flatten().invariant_factors() == (2, 2, 2, 18)
    monkeypatch.setattr(groupring, "_no_two_torsion", lambda pi: True)
    forced, by_s = _flatten_and_glue(ScissorsContext(parse_ring(label)).rp_prime())
    assert not by_s
    assert forced.invariant_factors() == (2, 2, 18)
    assert forced._projection().unkilled(m.flat_table()) == []


def test_block_form_takes_images_past_int64():
    # L- = <2^63 e_0, 3^40 e_1>: the quotient map of its e- half has moduli
    # past int64, so the e+ rows (a + b, pi(b)) are built as dicts
    big = 2**62
    m = RModPres(G7, 2, [[{0: big, 1: -big}, {}], [{1: 2}, {0: 3**39, 1: -2 * 3**39}]])
    flat = m.flatten()
    basis, proj = _reference(m)
    assert flat.echelon().basis == basis
    assert flat._projection() == proj
    with pytest.raises(ValueError, match="past int64"):
        RModPres(G7, 1, [[{0: 2**63}]])


def test_block_form_rels_are_the_flat_rows():
    m = ScissorsContext(parse_ring("gf(13)")).refined()
    want = m.flat_rows()
    got = m.flatten().rels
    assert got.shape == (len(want), m.flat_ngens)
    assert all({j: v for j, v in enumerate(row) if v} == r for row, r in zip(got.tolist(), want))


def test_block_form_refuses_a_corrupted_composite_image(monkeypatch):
    # L is the kernel of a composite map over the 2N flat generators,
    # x -> (q+(x0 + x1), pi(x0 - x1)) on GF(13), x -> q_S(x0 + x1, pi(x1))
    # on GF(4)[t]/t^2; with one generator's image moved by 1 in the first
    # coordinate the kernel misses relation rows, whichever generator it
    # is, and the certificate of the flat lattice refuses it
    compose = linalg.Quotient.compose
    for label in ("gf(13)", "gf(2^2)[t]/t^2"):
        flat = ScissorsContext(parse_ring(label)).refined().flat_ngens
        for j in range(flat):
            hit = []

            def corrupted(q, rows, j=j, hit=hit):
                # rows may come as any iterable: read them once, then count
                rows = rows if isinstance(rows, dict) else list(rows)
                out = compose(q, rows)
                if not hit and len(rows) == flat:
                    hit.append(j)
                    d = q.moduli[0]
                    img = dict(out.by_key[j])
                    img[0] = (img.get(0, 0) + 1) % d if d else img.get(0, 0) + 1
                    out.by_key[j] = sorted((k, x) for k, x in img.items() if x)
                return out

            monkeypatch.setattr(linalg.Quotient, "compose", corrupted)
            with pytest.raises(AssertionError, match="relation row"):
                ScissorsContext(parse_ring(label)).rp_flat()
            assert hit == [j]
        monkeypatch.undo()


def test_block_form_refuses_a_dropped_kernel_row(monkeypatch):
    # the flat lattice's basis is the kernel of the composite map over all
    # 2N generators; without any one of its rows the lattice is too small,
    # and some relation row does not map to 0.  (A row dropped from L-'s
    # basis comes back through the e+ rows, and the certificate then
    # rightly passes.)
    ring = parse_ring("gf(13)")
    flat = ScissorsContext(ring).refined().flat_ngens
    kernel = linalg.Quotient.kernel
    seen = []

    def recording(q, extra=()):
        out = kernel(q, extra)
        if len(q.by_key) == flat:
            seen.append(out)
        return out

    monkeypatch.setattr(linalg.Quotient, "kernel", recording)
    ScissorsContext(ring).rp_flat()
    (basis,) = seen
    assert len(basis) == flat - 1  # RP(F_13) = Z + Z/7 has free rank 1

    for i in range(len(basis)):

        def dropping(q, extra=(), i=i):
            out = kernel(q, extra)
            return out[:i] + out[i + 1 :] if len(q.by_key) == flat else out

        monkeypatch.setattr(linalg.Quotient, "kernel", dropping)
        with pytest.raises(AssertionError, match="relation row"):
            ScissorsContext(ring).rp_flat()


# -- Quotient.compose ---------------------------------------------------------------


def _composes(base, rows, data):
    """The image of sum c e_key under base.compose(rows) is that of
    sum c rows[key] under base, for drawn keys and coefficients, some past
    int64; a dict of rows composes to a dict of images, a list to a list."""
    keys = list(rows) if isinstance(rows, dict) else list(range(len(rows)))
    coeff = st.one_of(st.integers(-9, 9), st.sampled_from([1 << 70, -(1 << 65)]))
    x = data.draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=6)) if keys else {}
    flat: dict = {}
    for key, c in x.items():
        for j, a in rows[key].items():
            flat[j] = flat.get(j, 0) + c * a
    composed = base.compose(rows)
    assert composed.moduli == base.moduli
    assert isinstance(composed.by_key, dict) == isinstance(rows, dict)
    assert composed.image(x.items()) == base.image(flat.items())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["gf(7)", "gf(13)", "z/5^2", "gf(2^2)[t]/t^2"]), st.booleans(), st.data())
def test_compose_through_the_rp_symbol_table(label, tilde, data):
    ctx = context(label)
    group = ctx.tilde().rp_tilde if tilde else ctx.rp_flat()
    _composes(group._projection(), ctx.symbol_rows(), data)


@settings(max_examples=100, deadline=None)
@given(block_modules(), st.data())
def test_compose_through_a_translate_permutation(m, data):
    g = data.draw(st.integers(0, m.G.order - 1))
    _composes(m.flatten()._projection(), [{j: 1} for j in m.act_permutation(g).tolist()], data)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compose_through_map_rows(data):
    n = data.draw(st.integers(1, 5))
    rels = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=5))
    size = data.draw(st.sampled_from([6, 1 << 70]))
    matrix = data.draw(st.lists(st.lists(st.integers(-size, size), min_size=n, max_size=n), min_size=1, max_size=4))
    f = AbMap(FpAb(len(matrix)), FpAb(n, rels or None), matrix)
    _composes(f.target._projection(), f.rows, data)


def test_flat_module_keeps_no_cycle_to_its_presentation():
    # the flat group reads the relations, not the module: with the cyclic
    # collector off, dropping the module frees it at once, and rels still
    # builds the flat rows
    m = RModPres(G7, 2, [[{0: 2, 1: 1}, {1: 3}], [{1: 1}, {0: 1, 1: -1}]])
    want = m.flat_rows()
    flat = m.flatten()
    ref = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert ref() is None
    finally:
        gc.enable()
    got = flat.rels.tolist()
    assert [{j: v for j, v in enumerate(row) if v} for row in got] == want


def _add_by_loop(x: dict, y: dict) -> dict:
    """The sum of formal combinations, term by term (the oracle)."""
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + c
        if not out[k]:
            del out[k]
    return out


def _act_by_loop(r: dict, x: dict) -> dict:
    """The action of Z[G] on {(class, parameter): int}, summed over every
    pair of terms (the oracle)."""
    out: dict = {}
    for g, c in r.items():
        for (h, a), d in x.items():
            k = (g ^ h, a)
            out[k] = out.get(k, 0) + c * d
    return {k: c for k, c in out.items() if c}


@st.composite
def module_sums(draw):
    """(r, x, y): r in Z[G] and module elements x, y over G of order 1, 2
    or 4, with zero coefficients; y often cancels terms of x."""
    order = draw(st.sampled_from([1, 2, 4]))
    coeff = st.integers(-3, 3)
    keys = st.tuples(st.integers(0, order - 1), st.sampled_from("abc"))
    r = draw(st.dictionaries(st.integers(0, order - 1), coeff, max_size=order))
    x = draw(st.dictionaries(keys, coeff, max_size=6))
    y = draw(st.dictionaries(keys, coeff, max_size=6))
    y.update({k: -c for k, c in x.items() if draw(st.booleans())})
    return r, x, y


@settings(max_examples=300, deadline=None)
@given(module_sums())
def test_add_and_act_match_the_term_loops(sums):
    r, x, y = sums
    assert add(x, y) == _add_by_loop(x, y)
    assert groupring.act(r, x) == _act_by_loop(r, x)
    for g, c in r.items():
        # a one-term r relabels the symbols
        got = groupring.act({g: c}, x)
        assert got == _act_by_loop({g: c}, x)
        assert all(got.values())
