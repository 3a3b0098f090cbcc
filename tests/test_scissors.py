import gc
import importlib
import math
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgroups import groupring, linalg, verify
from scgroups.groupring import add, dbl_bracket, p_plus, r_mul, scale
from scgroups.linalg import FpAb, intmat, iso_odd, odd_part, zeros
from scgroups.orbitcomplex import build_row_complex
from scgroups.rings import parse_ring
from scgroups.scissors import ScissorsContext, _context_by_label, context, rp_act
from scgroups.witt import WittContext

SMALL = ["gf(7)", "gf(11)", "gf(13)", "z/7^2", "gf(5)[t]/t^2"]


def test_ring_too_small():
    with pytest.raises(ValueError, match="small"):
        context("gf(3)")


def test_pre_bloch_orders():
    P11 = context("gf(11)").pre_bloch()
    assert P11.order() == 12
    assert P11.odd_invariants() == (3,)
    P13 = context("gf(13)").pre_bloch()
    assert P13.odd_invariants() == (7,)
    P7 = context("gf(7)").pre_bloch()
    assert P7.order() is not None and P7.free_rank == 0


def test_pre_bloch_matrix_shape_gf11():
    ctx = context("gf(11)")
    assert len(ctx.W) == 9
    assert len(list(ctx.five_term_pairs())) == 72


def test_s2_and_lambda():
    ctx = context("gf(7)")
    assert ctx.s2_of_units().invariant_factors() == (2,)
    # lambda kills every five-term relation (well-definedness)
    ctx.lambda_map()  # construction itself checks the reduced relations
    assert verify.suite_five_term(ctx.ring)[0].line() == "[ok] gf(7): lambda kills every X relation"


@pytest.mark.parametrize("label", ["gf(7)", "gf(11)", "gf(13)"])
def test_k2_of_finite_field_vanishes(label):
    assert context(label).k2_cokernel().is_trivial()


def test_bloch_orders_and_oracle():
    # direct kernel computation is the oracle; the Bloch-Wigner counts
    # |B(GF(q))| = (q+1)/2 for odd q are frozen from it
    assert context("gf(11)").bloch().order() == 6
    assert context("gf(13)").bloch().order() == 7


@pytest.mark.parametrize("label", ["gf(7)", "gf(11)", "gf(13)"])
def test_bloch_odd_part_matches_p(label):
    ctx = context(label)
    assert iso_odd(ctx.bloch(), ctx.pre_bloch())


@pytest.mark.parametrize("label", SMALL + ["z/11^2"])
def test_lambda1_kills_y_relations(label):
    # the five-term suite checks lambda on every X relation and lambda_1,
    # lambda_2 on every Y relation
    assert [c.ok for c in verify.suite_five_term(context(label).ring)] == [True] * 3


def _unit_entry(row: dict) -> int:
    """A column where the sparse row has coefficient +-1."""
    return next(j for j, v in row.items() if abs(v) == 1)


@pytest.mark.parametrize("label", ["gf(11)", "z/7^2"])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_five_term_suite_fails_on_a_perturbed_map(monkeypatch, label, which):
    # one entry moved in lambda, lambda_1 or lambda_2 breaks the relation
    # row through it: the matching check fails, and the suite does not raise
    ctx = ScissorsContext(parse_ring(label))
    s2 = ctx.s2_of_units()
    e = next({k: 1} for k in range(s2.ngens) if not s2.contains({k: 1}))
    if which == 0:
        lam = ctx.lambda_map()
        j = _unit_entry(ctx.pre_bloch()._rels().row(0))
        lam.rows[j] = add(lam.rows[j], e)
    else:
        rows = list(ctx.lambda1_matrix() if which == 1 else ctx.lambda2_matrix())
        j = _unit_entry(ctx.refined().table.row(0))
        rows[j] = add(rows[j], e if which == 2 else {0: 1})
        if which == 1:
            ctx._cache["lam1"] = rows
        else:
            monkeypatch.setattr(ctx, "lambda2_matrix", lambda: rows)
    checks = verify.suite_five_term(ctx.ring)
    assert [c.ok for c in checks] == [i != which for i in range(3)]
    assert checks[which].line().startswith("[FAIL]")


def _odd_prime_powers(lo: int, hi: int) -> list[tuple[int, str]]:
    """(q, descriptor of GF(q)) for every odd prime power lo <= q <= hi."""
    out = []
    for q in range(lo | 1, hi + 1, 2):
        p = next(d for d in range(3, q + 1, 2) if q % d == 0)
        e, rest = 0, q
        while rest % p == 0:
            rest, e = rest // p, e + 1
        if rest == 1:
            out.append((q, f"gf({p}^{e})" if e > 1 else f"gf({p})"))
    return out


def test_integral_closed_forms_of_finite_fields():
    # integrally, 2-part included: P = Z/(q+1), RP = Z + Z/((q+1)/2) and
    # RP_1 = Z/((q+1)/2); the e± halves alone give RP's 2-part wrong
    fields = _odd_prime_powers(5, 81)
    assert len(fields) == 25 and fields[-1] == (81, "gf(3^4)")
    for q, label in fields:
        ctx = ScissorsContext(parse_ring(label))
        got = [(g.free_rank, g.invariant_factors()) for g in (ctx.pre_bloch(), ctx.rp_flat(), ctx.rp1())]
        assert got == [(0, (q + 1,)), (1, ((q + 1) // 2,)), (0, ((q + 1) // 2,))], label


def test_more_integral_closed_forms_of_finite_fields():
    # integrally: B = Z/((q+1)/2), I^2 = 0 and ord(c) = gcd(6, (q+1)/2)
    fields = _odd_prime_powers(5, 81)
    assert len(fields) == 25
    for q, label in fields:
        ctx = ScissorsContext(parse_ring(label))
        bloch = ctx.bloch()
        assert (bloch.free_rank, bloch.invariant_factors()) == (0, ((q + 1) // 2,)), label
        assert WittContext(ctx.ring).i_squared().is_trivial(), label
        assert ctx.pre_bloch().element_order(ctx.pb_row(ctx.c_const())) == math.gcd(6, (q + 1) // 2), label


def test_rp1_examples():
    assert context("gf(11)").rp1().odd_invariants() == (3,)
    ctx7 = context("gf(7)")
    assert iso_odd(ctx7.rp1(), ctx7.pre_bloch())


@pytest.mark.parametrize("label", ["gf(7)", "gf(11)", "gf(13)"])
def test_rp1_coinvariants_match_p(label):
    ctx = context(label)
    sub = ctx.rp1_subgroup()
    extra = []
    for g in range(1, ctx.G.order):
        perm = ctx.refined().act_matrix(g)
        for i in range(sub.lift.shape[0]):
            c = sub.solve(sub.lift[i] @ perm - sub.lift[i])
            assert c is not None
            extra.append(c)
    rows = [sub.group.rel_basis] + ([intmat(extra)] if extra else [])
    coin = FpAb(sub.group.ngens, np.vstack(rows))
    assert iso_odd(coin, ctx.pre_bloch())


@pytest.mark.parametrize("label", ["gf(11)", "z/11^2"])
def test_act_permutation_matches_act_matrix(label):
    m = context(label).refined()
    n = m.flat_ngens
    for g in range(m.G.order):
        idx = m.act_permutation(g)
        perm = zeros(n, n)
        perm[idx, np.arange(n)] = 1
        assert np.array_equal(perm, m.act_matrix(g))
        assert m.act_permutation(g) is idx


@pytest.mark.parametrize("label", SMALL)
def test_key_identity_exhaustive(label):
    ctx = context(label)
    C = ctx.big_c()
    for a in ctx.ring.units:
        val = add(
            scale(2, rp_act(dbl_bracket(ctx.G, a), C)),
            add(scale(-1, ctx.psi1(a)), ctx.psi2(a)),
        )
        assert ctx.rp_is_zero(val)


@pytest.mark.parametrize("label", SMALL)
def test_c_relations(label):
    ctx = context(label)
    C = ctx.big_c()
    assert ctx.rp_is_zero(add(scale(3, C), scale(-1, ctx.psi1(ctx.ring.neg_one()))))
    assert ctx.rp_is_zero(scale(6, C))


def test_c_const_orders():
    ctx11 = context("gf(11)")
    assert ctx11.pre_bloch().element_order(ctx11.pb_vector(ctx11.c_const())) == 6
    ctx13 = context("gf(13)")
    assert ctx13.pre_bloch().element_order(ctx13.pb_vector(ctx13.c_const())) == 1


@pytest.mark.parametrize("label", SMALL)
def test_base_point_independence(label):
    ctx = context(label)
    c0 = ctx.c_const()
    C0 = ctx.big_c()
    P = ctx.pre_bloch()
    for a in ctx.W:
        assert P.contains(ctx.pb_vector(add(ctx.c_const(a), scale(-1, c0))))
        assert ctx.rp_is_zero(add(ctx.big_c(a), scale(-1, C0)))


@pytest.mark.parametrize("label", SMALL)
def test_psi_cocycle_law(label):
    ctx = context(label)
    ring = ctx.ring
    assert len(ring.units) <= 500
    for i in (1, 2):
        for a in ring.units:
            for b in ring.units:
                lhs = ctx.psi(i, ring.mul(a, b))
                rhs = add(rp_act({ctx.G.class_of(a): 1}, ctx.psi(i, b)), ctx.psi(i, a))
                assert ctx.rp_is_zero(add(lhs, scale(-1, rhs)))


@pytest.mark.parametrize("label", SMALL)
def test_lambda1_of_psi(label):
    # lambda_1(psi_i(a)) = <<-a>><<a>> (= -p+<<a>>; the two agree up to the
    # recorded sign erratum in the source identity)
    ctx = context(label)
    for a in ctx.ring.units:
        expect = r_mul(
            dbl_bracket(ctx.G, ctx.ring.neg(a)), dbl_bracket(ctx.G, a)
        )
        assert ctx.lambda1_of(ctx.psi1(a)) == expect
        assert ctx.lambda1_of(ctx.psi2(a)) == expect


def test_brace_homomorphism():
    ctx = context("gf(7)")
    P = ctx.pre_bloch()
    ring = ctx.ring
    for a in ring.units:
        for b in ring.units:
            diff = add(
                ctx.brace(ring.mul(a, b)),
                scale(-1, add(ctx.brace(a), ctx.brace(b))),
            )
            assert P.contains(ctx.pb_vector(diff))
        assert P.contains(ctx.pb_vector(ctx.brace(ring.mul(a, a))))


@pytest.mark.parametrize("label", ["gf(7)", "gf(11)", "gf(13)"])
def test_tilde_quotients(label):
    ctx = context(label)
    tb = ctx.tilde()
    assert iso_odd(tb.rp1_tilde.group, ctx.rp1())


@pytest.mark.parametrize("label", ["gf(7)", "gf(49)", "z/7^2", "gf(2^2)[t]/t^2"])
def test_lambda_rows_are_the_values_on_the_flat_basis(label):
    # row g |W| + i of lambda_1 is its value on <g>[W[i]], and of lambda_2
    # the class of W[i] (x) (1 - W[i]) for every g
    ctx = ScissorsContext(parse_ring(label))
    W, order, one, sub = ctx.W, ctx.G.order, ctx.ring.one, ctx.ring.sub
    lam1, lam2 = ctx.lambda1_matrix(), ctx.lambda2_matrix()
    assert len(lam1) == len(lam2) == order * len(W) == ctx.refined().flat_ngens
    for g in range(order):
        for i, a in enumerate(W):
            assert lam1[g * len(W) + i] == ctx.lambda1_of({(g, a): 1})
            assert lam2[g * len(W) + i] == ctx.s2_row(a, sub(one, a))
    assert ctx.lambda1_matrix() is lam1


def test_lambda1_on_k1_lattice():
    # lambda_1(K^(1)) equals the lattice p+I exactly, for GF(7)
    ctx = context("gf(7)")
    n = ctx.G.order
    from scgroups.linalg import hnf_rows

    imgs = [
        np.array(
            [ctx.lambda1_of(rp_act({g: 1}, ctx.psi1(a))).get(h, 0) for h in range(n)],
            dtype=object,
        )
        for a in ctx.ring.units
        for g in range(n)
    ]
    lat1 = hnf_rows([list(v) for v in imgs], n)
    lat2 = hnf_rows(ctx.p_plus_ideal_rows(), n)
    assert np.array_equal(lat1, lat2)


def test_ker_lambda1_on_k1_killed_by_4():
    # the kernel of lambda_1 restricted to K^(1) has exponent dividing 4
    ctx = context("gf(7)")
    from scgroups.linalg import AbMap, hnf_rows, lattice_intersect

    n = ctx.rp_flat().ngens
    k1 = hnf_rows(ctx.k1_rows().rows(), n)
    kerlat = ctx.lambda1_map().preimage_lattice()
    meet = lattice_intersect(k1, kerlat)
    denom = lattice_intersect(meet, ctx.rp_flat().rel_basis)
    # meet / denom as the image of the map sending the generators to meet's rows in Z^n / denom
    sub = AbMap(FpAb(len(meet)), FpAb(n, denom), meet).image()
    assert sub.free_rank == 0
    for d in sub.invariant_factors():
        assert 4 % d == 0


@pytest.mark.parametrize("label", ["gf(7)", "gf(11)", "gf(13)"])
def test_g_action_trivial_on_rb(label):
    ctx = context(label)
    sub = ctx.rb_subgroup()
    flat = ctx.rp_flat()
    for g in range(1, ctx.G.order):
        perm = ctx.refined().act_matrix(g)
        for i in range(sub.lift.shape[0]):
            moved = sub.lift[i] @ perm - sub.lift[i]
            assert flat.contains(moved)


@pytest.mark.parametrize("label", ["gf(11)", "gf(13)", "z/7^2"])
def test_idempotent_theorem_tilde_form(label):
    ctx = context(label)
    assert iso_odd(ctx.e_plus_rp_tilde(), ctx.rp1())


@pytest.mark.parametrize("label", ["gf(13)", "z/7^2", "gf(5)[t]/t^2", "gf(2^3)[t]/t^2"])
def test_e_plus_rp_tilde_reduces_no_second_flat_lattice(monkeypatch, label):
    # e+RP~ is read off RP~ = RP/K^(1), so only RP's flat module takes the
    # block form; refined_tilde's plus part, which reduces RP~'s flat
    # lattice again, is the reference
    ctx = ScissorsContext(parse_ring(label))
    block, built = groupring._block_lattice, []

    def counted(m):
        built.append(m)
        return block(m)

    monkeypatch.setattr(groupring, "_block_lattice", counted)
    got = ctx.e_plus_rp_tilde()
    assert len(built) == 1 and built[0] is ctx.refined()
    monkeypatch.undo()
    want = ctx.refined_tilde().plus_part(ctx.G.neg_one())
    assert got.echelon().basis == want.echelon().basis
    assert got._projection() == want._projection()


def test_idempotent_theorem_literal_form_minus_one_nonsquare():
    for label in ["gf(7)", "gf(11)", "gf(19)"]:
        ctx = context(label)
        assert ctx.G.neg_one() != 0
        plus = ctx.refined().plus_part(ctx.G.neg_one())
        assert iso_odd(plus, ctx.rp1())


def test_rp_has_free_rank_one_when_minus_one_square():
    # lambda_1 surjects onto I^2 which is infinite cyclic here, so RP itself
    # cannot be finite; the tilde quotient kills that free line
    ctx = context("gf(13)")
    assert ctx.rp_flat().free_rank == 1
    assert ctx.tilde().rp_tilde.free_rank == 0


def test_rp_prime_examples():
    ctx = context("gf(11)")
    assert ctx.rp_prime().flatten().odd_invariants() == (3,)
    w = ctx.rp_prime_witness()
    assert w["relations_die_odd"] and w["iso_odd"] and w["spans_odd"]
    ctx13 = context("gf(13)")
    assert ctx13.rp_prime().flatten().odd_invariants() == (7,)
    w13 = ctx13.rp_prime_witness()
    assert all(w13.values())


def test_l_submodule_z49():
    res = context("z/7^2").l_submodule()
    assert res["kernel_ok"] and res["match"]


def test_l_submodule_gf5t():
    res = context("gf(5)[t]/t^2").l_submodule()
    assert res["kernel_ok"] and res["match"]


def test_l_submodule_rejects_fields():
    with pytest.raises(ValueError, match="field"):
        context("gf(7)").l_submodule()


def test_corollary_key_in_tilde():
    # <<a>>C - <a-1><<-a>>[a] dies in RP~(B) for all a in W, B = Z/121
    ctx = context("z/11^2")
    ring, G = ctx.ring, ctx.G
    C = ctx.big_c()
    for a in ctx.W:
        lhs = rp_act(dbl_bracket(G, a), C)
        coeff = r_mul({G.class_of(ring.sub(a, ring.one)): 1}, dbl_bracket(G, ring.neg(a)))
        rhs = rp_act(coeff, {(0, a): 1})
        assert ctx.rp_tilde_is_zero(add(lhs, scale(-1, rhs)))


def _translates(ctx, elems):
    """Dense flat rows of every G-translate of each RP element, relation
    by relation: the row order of RModPres.flat_rows."""
    return [ctx.rp_vector(rp_act({t: 1}, x)) for x in elems for t in range(ctx.G.order)]


@pytest.mark.parametrize("label", SMALL + ["gf(9)"])
def test_relation_rows_equal_the_dense_construction(label):
    ctx = ScissorsContext(context(label).ring)
    want = _five_terms_reference(ctx)
    want_p = np.vstack([ctx.pb_vector(x) for _, _, x, _ in want])
    assert np.array_equal(ctx.pre_bloch().rels, want_p)
    ys = [y for _, _, _, y in want]
    assert np.array_equal(ctx.rp_flat().rels, np.vstack(_translates(ctx, ys)))
    # cancelled five-term entries are dropped, not stored as zeros
    assert all(c for row in ctx.refined().table.rows() for c in row.values())
    psi = [ctx.psi1(a) for a in ctx.ring.units]
    assert np.array_equal(ctx.refined_tilde().flatten().rels, np.vstack(_translates(ctx, ys + psi)))
    neg1 = ctx.G.neg_one()
    primed = []
    for a in ctx.W:
        primed.append(add({(neg1, a): 1}, {(0, a): -1}))
        primed.append(add({(0, a): 1}, {(0, ctx.ring.inv(a)): 1}))
    assert np.array_equal(ctx.rp_prime().flatten().rels, np.vstack(_translates(ctx, ys + primed)))


def _five_terms_reference(ctx):
    """[(a, b, X_{a,b}, Y_{a,b})] for the admissible pairs in lexicographic
    order, straight from the formula with the ring's mul, inv and sub."""
    ring, G = ctx.ring, ctx.G
    one, mul, inv, sub, cls = ring.one, ring.mul, ring.inv, ring.sub, G.class_of
    wset = set(ctx.W)
    out = []
    for a in ctx.W:
        for b in ctx.W:
            if mul(a, inv(b)) not in wset:
                continue
            terms = [
                (0, a),
                (0, b),
                (cls(a), mul(b, inv(a))),
                (cls(sub(inv(a), one)), mul(sub(one, inv(a)), inv(sub(one, inv(b))))),
                (cls(sub(one, a)), mul(sub(one, a), inv(sub(one, b)))),
            ]
            x, y = {}, {}
            for (g, e), c in zip(terms, (1, -1, 1, -1, 1)):
                x = add(x, {e: c})
                y = add(y, {(g, e): c})
            out.append((a, b, x, y))
    return out


FIVE_TERM_RINGS = ["gf(13)", "gf(3^2)", "gf(5^2)", "z/7^2", "z/5^3", "gf(5)[t]/t^2", "gf(2^3)", "gf(2^2)[t]/t^2"]


@pytest.mark.parametrize("label", FIVE_TERM_RINGS)
def test_five_term_table_matches_the_formula(label):
    ctx = ScissorsContext(parse_ring(label))
    want = _five_terms_reference(ctx)
    assert list(ctx.five_term_pairs()) == [(a, b) for a, b, _, _ in want]
    # the groups read the table: P's rows and RP's relations, in pair order
    assert ctx.pre_bloch()._rels().rows() == [ctx.pb_row(x) for _, _, x, _ in want]
    assert ctx.refined().table.rows() == [ctx.rp_row(y) for _, _, _, y in want]


def test_row_dicts_of_a_pre_bloch_build(monkeypatch):
    # P(GF(97)) reads its 8930 five-term relations as one table: dicts are
    # built only for the rows the certified reduction reads, each once: the
    # stream rows the first subset's cover rule reads, the draws that pad
    # the subset to 95 + 8 rows, and the rows its certificate adds
    made, drawn, added, pb_rows = [], [], [], []
    entries, pb_row, unkilled, stream = (
        linalg.RowTable.entries,
        ScissorsContext.pb_row,
        linalg.Quotient.unkilled,
        linalg._seeded_stream,
    )

    def counted_entries(self, i):
        # every dict built from a table row reads its entries
        made.append(i)
        return entries(self, i)

    def counted_pb_row(self, x):
        pb_rows.append(x)
        return pb_row(self, x)

    def counted_unkilled(proj, rows):
        out = unkilled(proj, rows)
        added.extend(out)
        return out

    def counted_stream(m, k):
        for i in stream(m, k):
            drawn.append(i)
            yield i

    monkeypatch.setattr(linalg.RowTable, "entries", counted_entries)
    monkeypatch.setattr(ScissorsContext, "pb_row", counted_pb_row)
    monkeypatch.setattr(linalg.Quotient, "unkilled", counted_unkilled)
    monkeypatch.setattr(linalg, "_seeded_stream", counted_stream)
    ctx = ScissorsContext(parse_ring("gf(97)"))
    group = ctx.pre_bloch()
    assert group.invariant_factors() == (98,)
    assert len(ctx.five_terms()) == 8930
    assert not pb_rows and len(made) == len(set(made))
    assert set(made) <= set(drawn) | set(added)
    assert len(made) <= len(drawn) + len(added)
    # the stream of 8 * 95 + 64 rows is read no further than the cover rule
    assert 95 + linalg._SUBSET_EXTRA <= len(drawn) < (8 * 95 + 64) // 4



def test_five_term_lattices_certify_in_one_round(monkeypatch):
    # the first subset, n + 8 rows that touch every column twice, already
    # spans each lattice: P and L- of GF(121), and P(GF(p)) for the primes
    # 11..97, certify on their first round.  RP's e+ half is P, so the
    # block form reduces no S.  Counted on the raw table columns, a
    # cancelling repeat left column 52 of P(GF(121)) untouched, and the
    # first round reached rank 118 of 119
    calls, rounds = [], []
    hnf, step = linalg._hnf_sparse, linalg._subset_hnf

    def counted_hnf(rows, n, *lead):
        rounds.clear()
        basis, proj = hnf(rows, n, *lead)
        if proj is not None:
            calls.append([n, len(rounds)])
        return basis, proj

    def counted_step(retired, n):
        rounds.append(len(retired))
        return step(retired, n)

    monkeypatch.setattr(linalg, "_hnf_sparse", counted_hnf)
    monkeypatch.setattr(linalg, "_subset_hnf", counted_step)
    ctx = ScissorsContext(parse_ring("gf(121)"))
    ctx.pre_bloch().echelon()
    ctx.rp_flat()
    primes = [p for p in range(11, 98) if all(p % d for d in range(2, p))]
    for p in primes:
        ScissorsContext(parse_ring(f"gf({p})")).pre_bloch().echelon()
    assert calls == [[119, 1], [119, 1]] + [[p - 2, 1] for p in primes]

def test_l_b_quotient_certifies_in_one_round(monkeypatch):
    # RP~(Z/121)/L_B is read through the module of one-unit cosets: the
    # rows [au] - [a] identify each generator with its coset, so the small
    # module on W(GF(11)) is reduced instead of RP~'s 198 columns, and the
    # quotient's basis is one kernel pass over RP's 198 flat generators,
    # with no extra rows.  No Hermite call reduces rows of width 198, and
    # l_submodule builds no RP~(Z/121)
    passes, widths = [], []
    hnf, kernel = linalg._hnf_sparse, linalg.Quotient.kernel

    def counted_hnf(rows, n):
        widths.extend([n] if len(rows) else [])
        return hnf(rows, n)

    def counted_kernel(q, extra=()):
        extra = list(extra)
        passes.append((len(q.by_key), len(extra)))
        return kernel(q, extra)

    monkeypatch.setattr(linalg, "_hnf_sparse", counted_hnf)
    monkeypatch.setattr(linalg.Quotient, "kernel", counted_kernel)
    ctx = ScissorsContext(parse_ring("z/11^2"))
    res = ctx.l_submodule()
    assert res["match"] and res["kernel_ok"]
    assert [p for p in passes if p[0] == 198] == [(198, 0)]
    assert 198 not in widths
    assert "rp_tilde" not in vars(ctx.tilde())
    rp_tilde = ctx.tilde().rp_tilde.echelon().basis
    lrows = ctx.l_rows()
    assert (len(rp_tilde), len(lrows)) == (197, 2000)
    monkeypatch.undo()
    assert res["quotient"].echelon().basis == linalg._hnf_sparse(rp_tilde + lrows.rows(), 198)[0].basis


L_B_RINGS = [
    "z/7^2",
    "z/11^2",
    "z/13^2",
    "gf(5)[t]/t^2",
    "gf(9)[t]/t^2",
    "gf(7)[t]/t^3",
    "gf(2^2)[t]/t^2",
    "gf(2^3)[t]/t^2",
]


@pytest.mark.parametrize("label", L_B_RINGS)
def test_l_b_quotient_through_cosets_is_rp_tilde_mod_l_b(label):
    # the coset module's quotient has the basis and quotient map of RP~(B)
    # reduced modulo the L_B rows
    ctx = ScissorsContext(parse_ring(label))
    res = ctx.l_submodule()
    assert res["kernel_ok"] and res["match"]
    want = linalg.ab_quotient(ctx.tilde().rp_tilde, ctx.l_rows())
    assert res["quotient"].echelon().basis == want.echelon().basis
    assert res["quotient"]._projection() == want._projection()


def _l_rows_reference(ctx):
    """L_B's rows straight from the formula, through add, act and rp_row."""
    ring, rows = ctx.ring, []
    big_c = ctx.big_c()
    for u in ring.u1:
        if u == ring.one:
            continue
        for a in ctx.W:
            x = add({(0, ring.mul(a, u)): 1}, {(0, a): -1})
            rows += [ctx.rp_row(rp_act({g: 1}, x)) for g in range(ctx.G.order)]
        x = rp_act(dbl_bracket(ctx.G, u), big_c)
        rows += [ctx.rp_row(rp_act({g: 1}, x)) for g in range(ctx.G.order)]
    return rows


@pytest.mark.parametrize("label", ["z/7^2", "gf(2^2)[t]/t^2"])
def test_l_rows_by_index_arithmetic_match_the_formula(label):
    ctx = ScissorsContext(parse_ring(label))
    assert ctx.l_rows().rows() == _l_rows_reference(ctx)


def _k1_rows_reference(ctx):
    """K^(1)'s rows straight from the formula: each psi_1(a) in its |G|
    translates, through act and rp_row."""
    return [ctx.rp_row(rp_act({g: 1}, ctx.psi1(a))) for a in ctx.ring.units for g in range(ctx.G.order)]


@pytest.mark.parametrize("label", ["z/7^2", "gf(25)", "gf(2^2)[t]/t^2"])
def test_k1_and_l_b_tables_are_the_translates_of_the_formulas(label):
    # relation-major, class inner, over RP's flat basis; gf(2^2)[t]/t^2
    # has |G| = 4, and on the field gf(25) L_B has no rows
    ctx = ScissorsContext(parse_ring(label))
    k1, lrows = ctx.k1_rows(), ctx.l_rows()
    assert k1.ncols == lrows.ncols == ctx.refined().flat_ngens
    assert k1.rows() == _k1_rows_reference(ctx)
    assert lrows.rows() == _l_rows_reference(ctx)


def test_l_b_quotient_certificate_catches_a_changed_l_b_value(monkeypatch):
    # the first L_B row, [8 * 2] - [2], with its 1 made 2: it is [16] plus
    # that row, and [16] is not 0 in RP~(B)/L_B, so the quotient map does
    # not kill it
    ctx = ScissorsContext(parse_ring("z/7^2"))
    good = ctx.l_rows()
    vals = np.array(good.vals)
    assert vals[0, 0] == 1
    vals[0, 0] = 2
    monkeypatch.setattr(ctx, "l_rows", lambda: linalg.RowTable(good.cols, vals, good.ncols))
    with pytest.raises(AssertionError, match="L_B quotient"):
        ctx.l_submodule()
    monkeypatch.undo()
    assert ctx.l_submodule()["match"]


def _swap(f, x, y):
    """f with its values at x and y exchanged."""
    return lambda a: f(y) if a == x else f(x) if a == y else f(a)


@pytest.mark.parametrize(
    "attr, fault, message",
    [
        # 2 and 3 trade residues: every residue keeps its 7 preimages, but
        # the fibres of 2 and 3 are no longer their cosets 2 U1 and 3 U1
        ("residue", lambda ring: _swap(ring.residue, 2, 3), "one-unit moves a residue"),
        # the coset 3 U1 joins 2 U1: the fibre of 2 holds two cosets
        ("residue", lambda ring: lambda a: 2 if a % 7 == 3 else a % 7, "has not |U1| preimages"),
        # the one-unit 8 listed as 1 again: U1 is one short of the fibres
        ("u1", lambda ring: [1 if u == 8 else u for u in ring.u1], "has not |U1| preimages"),
    ],
    ids=["swapped", "merged", "repeated"],
)
def test_l_b_quotient_refuses_fibres_that_are_not_the_cosets(monkeypatch, attr, fault, message):
    ring = parse_ring("z/7^2")
    ctx = ScissorsContext(ring)
    monkeypatch.setattr(ring, attr, fault(ring))
    with pytest.raises(AssertionError, match=re.escape(message)):
        ctx.l_submodule()


def test_l_b_quotient_refuses_a_one_unit_that_moves_a_residue():
    # 8 = 1 + 7 is a one-unit of Z/49; with the codes of its products with
    # 2 and 3 swapped in the unit code table (after the five-term table is
    # built from it), multiplying by 8 keeps W but moves two residues
    ring = parse_ring("z/7^2")
    ctx = ScissorsContext(ring)
    ctx.five_terms()
    _, stride, w_of = ctx._unit_codes()
    i, j = (int(ctx._exponents([ring.mul(a, 8)])[0] @ stride) for a in (2, 3))
    w_of[[i, j]] = w_of[[j, i]]
    with pytest.raises(AssertionError, match="one-unit moves a residue"):
        ctx.l_submodule()


def test_l_b_quotient_refuses_a_unit_listed_as_a_one_unit(monkeypatch):
    # 2 in place of the one-unit 8: the fibres keep their size, but 2 sends
    # an element of W out of W
    ring = parse_ring("z/7^2")
    ctx = ScissorsContext(ring)
    monkeypatch.setattr(ring, "u1", [2 if u == 8 else u for u in ring.u1])
    with pytest.raises(AssertionError, match="out of W"):
        ctx.l_submodule()


def test_l_b_quotient_certificate_catches_a_dropped_coset_row(monkeypatch):
    # on GF(5)[t]/t^2, where <-1> = 1, psi_1 of every unit of residue 2 or
    # 3 maps to the one row [2] + [3] of the coset module, and that row is
    # no combination of its other relations: without it the kernel is too
    # small, and the psi_1 rows of B do not all map to 0
    ring = parse_ring("gf(5)[t]/t^2")
    ctx = ScissorsContext(ring)
    m = ctx.refined()
    psi = [ctx.rp_row(ctx.psi1(a)) for a in ring.units if ring.residue(a) not in (2, 3)]
    short = groupring.RModPres(ctx.G, m.ngens, linalg.RowTable.stack(m.flat_ngens, m.table, psi))
    monkeypatch.setattr(ctx, "refined_tilde", lambda: short)
    with pytest.raises(AssertionError, match="relation row of B does not map to 0"):
        ctx.l_submodule()
    monkeypatch.undo()
    assert ctx.l_submodule()["match"]


# -- RP membership as one sparse pass ------------------------------------------


def _psi_reference(ctx, i, a):
    """psi_i(a) straight from the formula, one-units by recursion through
    the base point, with no table."""
    ring, G = ctx.ring, ctx.G
    if a in ctx.windex:
        inv = ring.inv(a)
        if i == 1:
            return add({(0, a): 1}, {(G.neg_one(), inv): 1})
        cls = G.class_of(ring.sub(ring.one, a))
        return add({(cls ^ G.class_of(a), a): 1}, {(cls, inv): 1})
    a0 = ctx.base_point
    own = _psi_reference(ctx, i, ring.mul(a, a0))
    return add(own, scale(-1, rp_act({G.class_of(a): 1}, _psi_reference(ctx, i, a0))))


@pytest.mark.parametrize("label", SMALL + ["z/11^2"])
def test_psi_table_matches_formula(label):
    ctx = ScissorsContext(context(label).ring)
    one_units = [a for a in ctx.ring.units if a not in ctx.windex]
    assert one_units or ctx.ring.kind == "field"
    # one-units first, so their rows fill the table before the W entries
    for a in one_units + list(ctx.ring.units):
        for i in (1, 2):
            assert ctx.psi(i, a) == _psi_reference(ctx, i, a)
    with pytest.raises(ValueError, match="not a unit"):
        ctx.psi(1, ctx.ring.zero)
    with pytest.raises(ValueError, match="1 or 2"):
        ctx.psi(3, ctx.base_point)


def test_psi_returns_a_fresh_dict():
    ctx = ScissorsContext(context("z/11^2").ring)
    u = next(a for a in ctx.ring.units if a not in ctx.windex)
    for i, a in ((1, ctx.base_point), (2, u)):
        want = _psi_reference(ctx, i, a)
        x = ctx.psi(i, a)
        x[(0, a)] = x.get((0, a), 0) + 5
        x.clear()
        y = ctx.psi(i, a)
        assert y == want and y is not x
        y.update({(0, ctx.base_point): 7})
        assert ctx.psi(i, a) == want


def test_rp_keys_outside_g_times_w_are_refused():
    # class -1 used to alias class |G| - 1 through numpy's negative index
    ctx = context("gf(13)")
    w0 = ctx.W[0]
    outside_w = next(a for a in ctx.ring.elements if a not in ctx.windex)
    for key in ((-1, w0), (ctx.G.order, w0), (0, outside_w)):
        for ask in (ctx.rp_row, ctx.rp_vector, ctx.rp_is_zero, ctx.rp_tilde_is_zero):
            with pytest.raises(ValueError, match=re.escape(repr(key))):
                ask({key: 1})


@st.composite
def rp_questions(draw):
    """(label, x): an RP element made of G-translates of defining relations
    (zero in RP) and, half of the time, a few free (class, W) terms."""
    label = draw(st.sampled_from(["gf(13)", "gf(49)", "z/11^2"]))
    ctx = context(label)
    rels, order, n = ctx.refined().table.rows(), ctx.G.order, len(ctx.W)
    x: dict = {}
    for _ in range(draw(st.integers(0, 3))):
        rel = rels[draw(st.integers(0, len(rels) - 1))]
        t, c = draw(st.integers(0, order - 1)), draw(st.integers(-3, 3))
        y = {((i // n) ^ t, ctx.W[i % n]): c * d for i, d in rel.items()}
        x = add(x, y)
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            key = (draw(st.integers(0, order - 1)), draw(st.sampled_from(ctx.W)))
            x = add(x, {key: draw(st.sampled_from((-2, -1, 1, 2)))})
    return label, x


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rp_questions())
def test_rp_is_zero_matches_dense_contains(question):
    label, x = question
    ctx = context(label)
    n = len(ctx.W)
    v = np.zeros(ctx.G.order * n, dtype=object)
    for (g, a), c in x.items():
        v[g * n + ctx.W.index(a)] += c
    assert ctx.rp_is_zero(x) == ctx.rp_flat().contains(v)
    assert np.array_equal(ctx.rp_vector(x), v)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rp_questions())
def test_rp_tilde_is_zero_matches_contains_of_the_flat_row(question):
    label, x = question
    ctx = context(label)
    want = ctx.tilde().rp_tilde.contains(ctx.rp_row(x))
    assert ctx.rp_tilde_is_zero(x) == want
    # numpy values are taken as Python ints
    assert ctx.rp_tilde_is_zero({k: np.int64(c) for k, c in x.items()}) == want


# -- a ring owns its scissors context -----------------------------------------


def test_row_complex_shares_the_rings_context(monkeypatch):
    ring = parse_ring("gf(13)")
    ctx = ScissorsContext(ring)
    assert context(ring) is ctx
    calls = []
    block = groupring._block_lattice

    def counted(m):
        calls.append(m)
        return block(m)

    monkeypatch.setattr(groupring, "_block_lattice", counted)
    ctx.rp1()
    c = build_row_complex(ring)
    assert c.ctx is ctx
    c.homology_at(3)
    # RP's relation lattice was reduced once, for rp1 and position 3 alike
    assert calls.count(ctx.refined()) == 1


def test_second_context_on_a_ring_is_independent():
    label = "gf(11)"
    owner = context(label)
    other = ScissorsContext(owner.ring)
    assert other is not owner
    assert context(owner.ring) is owner and context(label) is owner
    assert other.rp_flat() is not owner.rp_flat()
    assert other.pre_bloch().invariant_factors() == owner.pre_bloch().invariant_factors()


def test_dropped_context_leaves_nothing_alive():
    ring = parse_ring("gf(17)")
    ctx = ScissorsContext(ring)
    ctx.rp1()
    build_row_complex(ring).homology_at(3)
    tb = ctx.tilde()
    tilde = [tb.p_tilde, tb.rp_tilde, tb.rp1_tilde.group, tb.rb_tilde.group]
    refs = [weakref.ref(x) for x in (ctx, ctx.rp_flat(), ctx.refined(), ctx.pre_bloch(), tb, *tilde)]
    del tb, tilde
    del ctx
    gc.collect()
    assert all(r() is None for r in refs)
    # with no live owner, the ring falls back to the context of its label
    assert context(ring) is context("gf(17)")


def _count_kernels(monkeypatch):
    calls = []
    kernel = linalg.AbMap.kernel_subgroup

    def counted(f):
        calls.append(f)
        return kernel(f)

    monkeypatch.setattr(linalg.AbMap, "kernel_subgroup", counted)
    return calls


@pytest.mark.parametrize("label", ["gf(13)", "z/7^2"])
def test_rp_tilde_builds_no_kernel_and_shares_p_basis(monkeypatch, label):
    # l_submodule and the specialization read RP~ alone: reading it builds
    # neither the lambda_1 nor the lambda_2 kernel.  Its Hermite calls are
    # the block form's two halves, L- and L+ = P, both |W| wide, and P keeps
    # its basis, so a later read of P reduces nothing.  Its flat-width
    # reads are the block form and RP~ = RP/K^(1), one kernel pass each
    kernels = _count_kernels(monkeypatch)
    widths, passes = [], []
    hnf, kernel = linalg._hnf_sparse, linalg.Quotient.kernel

    def counted(rows, n):
        widths.append(n)
        return hnf(rows, n)

    def counted_kernel(q, extra=()):
        passes.append(len(q.by_key))
        return kernel(q, extra)

    monkeypatch.setattr(linalg, "_hnf_sparse", counted)
    monkeypatch.setattr(linalg.Quotient, "kernel", counted_kernel)
    ctx = ScissorsContext(parse_ring(label))
    tb = ctx.tilde()
    tb.rp_tilde.describe()
    assert kernels == []
    assert vars(tb).keys() == {"ctx", "rp_tilde"}
    assert widths == [len(ctx.W), len(ctx.W)]
    assert ctx.pre_bloch()._ech is not None
    ctx.pre_bloch().describe()
    assert widths == [len(ctx.W), len(ctx.W)]
    flat = len(ctx.W) * ctx.G.order
    assert passes.count(flat) == 2


def test_rp1_tilde_does_not_build_rb_tilde(monkeypatch):
    kernels = _count_kernels(monkeypatch)
    ctx = ScissorsContext(parse_ring("gf(13)"))
    tb = ctx.tilde()
    assert iso_odd(tb.rp1_tilde.group, ctx.rp1())
    assert "rb_tilde" not in vars(tb) and "p_tilde" not in vars(tb)
    # one kernel for RP_1~ and one for RP_1, none for RB~
    assert [f.target.ngens for f in kernels] == [ctx.G.order, ctx.G.order]
    assert ctx.tilde() is tb and tb.rp1_tilde is tb.rp1_tilde


def test_cache_clear_gives_a_new_context():
    label = "gf(19)"
    old = context(label)
    _context_by_label.cache_clear()
    new = context(label)
    assert new is not old and context(label) is new
    # the old context still owns its own ring
    assert context(old.ring) is old
    new.rp1()
    refs = [weakref.ref(old), weakref.ref(new), weakref.ref(new.rp_flat())]
    del old, new
    _context_by_label.cache_clear()
    gc.collect()
    assert all(r() is None for r in refs)


def test_context_is_keyed_by_canonical_label():
    ring = parse_ring("gf(121)")
    assert ring.label == "gf(11^2)"
    before = _context_by_label.cache_info().currsize
    ctx = context("gf(121)")
    assert context(ring) is ctx and context("GF(11^2)") is ctx and context(" gf(121) ") is ctx
    assert _context_by_label.cache_info().currsize <= before + 1


def test_residue_context_is_shared():
    ctx = ScissorsContext(parse_ring("z/7^2"))
    kctx = ctx.residue_context()
    assert kctx is ctx.residue_context() is context("gf(7)")


def test_ring_with_a_context_pickles():
    # pickle finds the ring's class by name in sys.modules, so the ring is
    # built from the modules registered there now: a process that imported
    # scgroups afresh since this file was (as bench/workloads.load_program
    # does) holds other classes under the same names
    rings = importlib.import_module("scgroups.rings")
    scissors = importlib.import_module("scgroups.scissors")
    ring = rings.parse_ring("gf(13)")
    ctx = scissors.ScissorsContext(ring)
    copy = pickle.loads(pickle.dumps(ring))
    assert copy.label == ring.label and copy.elements == ring.elements
    assert scissors.context(copy) is not ctx and scissors.context(ring) is ctx
