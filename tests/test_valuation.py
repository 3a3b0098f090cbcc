import random
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgroups import verify
from scgroups.groupring import add, scale
from scgroups.valuation import (
    QONE,
    QSqClass,
    padic_read,
    qclass,
    specialization,
    sym_act,
    sym_big_c,
    sym_dbl_bracket,
    sym_g,
    sym_gen,
    sym_psi1,
    sym_y_relation,
    unit_part,
    vp,
    vp_int,
)


def test_vp_and_unit_part():
    assert vp(98, 7) == 2
    assert unit_part(98, 7) == 2
    assert vp(Fraction(3, 7), 7) == -1
    assert unit_part(Fraction(3, 7), 7) == 3
    with pytest.raises(ValueError):
        vp(0, 7)


def test_vp_int_reads_numerator_and_denominator():
    assert vp_int(98, 3, 7) == 2
    assert vp_int(-5, 49 * 3, 7) == -2
    assert vp_int(-5, 49 * 3, 7) == vp(Fraction(-5, 147), 7)
    assert vp(3.5, 7) == 1  # anything Fraction accepts
    with pytest.raises(ValueError, match="0 has no valuation"):
        vp_int(0, 5, 7)
    with pytest.raises(ValueError, match="p >= 2"):
        vp_int(3, 1, 1)


def test_qclass():
    assert qclass(-50) == QSqClass(-1, 2)
    assert qclass(Fraction(4, 9)) == QONE
    assert qclass(Fraction(-2, 3)) == QSqClass(-1, 6)
    assert qclass(8) == QSqClass(1, 2)
    c = qclass(6).mul(qclass(10))
    assert c == QSqClass(1, 15)


def test_qsqclass_validation():
    with pytest.raises(ValueError):
        QSqClass(1, 4)
    with pytest.raises(ValueError):
        QSqClass(2, 3)


def test_sym_gen_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sym_gen(0)
    with pytest.raises(ValueError):
        sym_gen(1)


def test_s_v_of_uniformizer():
    ctx = specialization(11)
    x = sym_gen(11)  # [p]: v(a) > 0, attached class is the trivial one
    out = ctx.s_v(x)
    ck = ctx.reduce_rp_elem(ctx.sc.big_c())
    assert out.comp0 == ck
    assert out.comp_pi.is_zero()  # even-valuation class dies under rho_pi
    # with the class <p> attached, rho_pi sees the odd-valuation class
    out2 = ctx.s_v(sym_act({qclass(11): 1}, x))
    assert out2.comp_pi == ck


def test_s_v_of_unit():
    ctx = specialization(11)
    out = ctx.s_v(sym_gen(2))
    assert out.comp_pi.is_zero()
    assert out.comp0 == ctx.reduce_rp_elem({(0, 2): 1})


def test_s_v_case_negative_valuation():
    ctx = specialization(11)
    out = ctx.s_v(sym_gen(Fraction(1, 11)))
    ck = ctx.reduce_rp_elem(ctx.sc.big_c())
    assert (out.comp0 - ck).vec.any()  # -C_k, not C_k
    minus_ck = ctx.reduce_rp_elem({k: -v for k, v in ctx.sc.big_c().items()})
    assert out.comp0 == minus_ck


def _random_admissible_pair(rng):
    while True:
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        if 0 in (a, b) or 1 in (a, b) or a == b:
            continue
        if a / b in (0, 1):
            continue
        return a, b


@pytest.mark.parametrize("p", [11, 13])
def test_s_v_kills_y_relations_seeded(p):
    ctx = specialization(p)
    rng = random.Random(p * 1000 + 9)
    for _ in range(60):
        a, b = _random_admissible_pair(rng)
        g = qclass(Fraction(rng.randint(1, 40)))
        out = ctx.s_v(sym_act({g: 1}, sym_y_relation(a, b)))
        assert out.is_zero()


def test_s_v_kills_y_relations_exhaustive_small():
    # exhaustive pairs with numerator and denominator up to 6 (a sweep with
    # bound 20 runs in the verify suite)
    ctx = specialization(11)
    vals = [
        Fraction(n, d)
        for n in range(-6, 7)
        for d in range(1, 7)
        if Fraction(n, d) not in (0, 1)
    ]
    seen = set()
    for a in vals:
        for b in vals:
            if a == b or a / b in (0, 1) or (a, b) in seen:
                continue
            seen.add((a, b))
            assert ctx.s_v(sym_y_relation(a, b)).is_zero()


def test_delta_pi_spec_examples():
    p = 11
    ctx = specialization(p)
    # delta_pi(<<p>>[a]) = [a-bar] for a p-adic unit with residue in W
    for a in (2, 3, 7):
        x = sym_act(sym_dbl_bracket(p), sym_gen(a))
        assert ctx.delta_pi(x) == ctx.reduce_rp_elem({(0, a % p): 1})
    # delta_pi(<<u>>[a]) = 0 for unit square classes
    for u in (2, 3, 6):
        x = sym_act(sym_dbl_bracket(u), sym_gen(5))
        assert ctx.delta_pi(x).is_zero()


def test_delta_r_linearity_on_unit_classes():
    ctx = specialization(11)
    rng = random.Random(4)
    for _ in range(20):
        a = Fraction(rng.randint(2, 40))
        u = rng.randint(2, 10)
        x = sym_gen(a)
        lhs = ctx.delta_0(sym_act({qclass(u): 1}, x))
        gbar = ctx.sc.G.class_of(ctx.residue(u))
        rhs_vec = ctx._act_vec(gbar, ctx.delta_0(x).vec)
        assert ctx.rp_tilde.contains(lhs.vec - rhs_vec)


def _random_if_rp_element(rng, nterms=3):
    """A Z-combination of <<a>>[x] elements of I_F RP(F)."""
    out = {}
    for _ in range(nterms):
        a = Fraction(rng.randint(2, 50))
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        if x in (0, 1):
            continue
        coeff = rng.choice([-2, -1, 1, 2])
        out = add(out, scale(coeff, sym_act(sym_dbl_bracket(a), sym_gen(x))))
    return out


@pytest.mark.parametrize("p", [11, 13])
def test_eta_prime_is_minus_two_eta(p):
    ctx = specialization(p)
    rng = random.Random(p + 77)
    for _ in range(40):
        x = _random_if_rp_element(rng)
        lhs = ctx.eta_pi_prime(x)
        rhs = ctx.p_tilde_scale(-2, ctx.eta_pi(x))
        assert ctx.p_tilde.contains(lhs.vec - rhs.vec)


def test_delta_pi_vanishes_on_unit_class_combinations():
    ctx = specialization(11)
    rng = random.Random(5)
    for _ in range(30):
        u = rng.randint(2, 10)
        x = Fraction(rng.randint(2, 9))
        val = sym_act(sym_dbl_bracket(u), sym_gen(x))
        assert ctx.delta_pi(val).is_zero()


def test_surjectivity_witness():
    ctx = specialization(11)
    x, ok = ctx.surjectivity_witness(2)
    assert ok
    assert (qclass(11), Fraction(2)) in x or any(
        cls == qclass(11) for (cls, a) in x
    )
    ctx13 = specialization(13)
    _, ok13 = ctx13.surjectivity_witness(3)
    assert ok13


def test_witness_images_span_rp1_odd():
    ctx = specialization(11)
    import numpy as np

    from scgroups.linalg import FpAb, intmat

    tb = ctx.sc.tilde()
    sub = tb.rp1_tilde
    coords = []
    for abar in ctx.sc.W:
        img = ctx.delta_pi(sym_act(sym_dbl_bracket(ctx.p), sym_g(Fraction(int(abar)))))
        c = sub.solve(img.vec)
        assert c is not None  # images land in ker(lambda~_1)
        coords.append(c)
    quot = FpAb(sub.group.ngens, np.vstack([sub.group.rel_basis, intmat(coords)]))
    assert quot.odd_order_trivial()


def test_psi1_cocycle_symbolically_after_specialization():
    ctx = specialization(11)
    rng = random.Random(8)
    for _ in range(15):
        a = Fraction(rng.randint(2, 30))
        b = Fraction(rng.randint(2, 30))
        lhs = sym_psi1(a * b)
        rhs = add(sym_act({qclass(a): 1}, sym_psi1(b)), sym_psi1(a))
        diff = add(lhs, scale(-1, rhs))
        assert ctx.delta_0(diff).is_zero() and ctx.delta_pi(diff).is_zero()


def test_specialization_guards():
    with pytest.raises(ValueError):
        specialization(4)
    with pytest.raises(ValueError):
        specialization(7)


def test_specialize_suite_skips_non_unit_classes():
    # at seed 0 the "delta_0 is R-linear on unit classes" check draws
    # u = 11, which is not an 11-adic unit; it must be skipped, not raise
    checks = verify.suite_specialize(11, seed=0, samples=4, sweep_bound=2)
    assert len(checks) == 6 and all(c.ok for c in checks)



# -- the integer read against the Fraction formulas it replaced --------------


def _ref_vp(a, p):
    a, v = Fraction(a), 0
    while a.numerator % p == 0:
        a, v = a / p, v + 1
    while a.denominator % p == 0:
        a, v = a * p, v - 1
    return v


def _ref_unit_part(a, p):
    a = Fraction(a)
    return a / Fraction(p) ** _ref_vp(a, p)


def _ref_residue(a, p):
    a = Fraction(a)
    assert _ref_vp(a, p) == 0
    return a.numerator * pow(a.denominator, -1, p) % p


def _ref_symbol_data(ctx, cls, a):
    """What S_v reads from <cls>[a], by the Fraction formulas."""
    p = ctx.p
    v = _ref_vp(a, p)
    param = (0, _ref_residue(a, p)) if v == 0 else ((1 if v > 0 else -1), 0)
    q = cls.value()
    gbar = ctx.sc.G.class_of(_ref_residue(_ref_unit_part(q, p), p))
    return param, (_ref_vp(q, p) % 2, gbar)


def _ref_s_v(ctx, x):
    """(delta_0, delta_pi, delta_pi') as dense vectors, as the Fraction
    formulas built them: a dense case vector per symbol, moved by _act_vec."""
    p = ctx.p
    ck = ctx.sc.rp_vector(ctx.sc.big_c())
    out = [0 * ck, 0 * ck, 0 * ck]
    for (cls, a), coeff in x.items():
        a = Fraction(a)
        v = _ref_vp(a, p)
        if v:
            base = ck if v > 0 else -ck
        elif _ref_residue(a, p) == 1:
            base = 0 * ck
        else:
            base = ctx.sc.rp_vector({(0, _ref_residue(a, p)): 1})
        q = cls.value()
        gbar = ctx.sc.G.class_of(_ref_residue(_ref_unit_part(q, p), p))
        moved = coeff * ctx._act_vec(gbar, base)
        out[0] = out[0] + moved
        if _ref_vp(q, p) % 2:
            out[1] = out[1] + moved
            out[2] = out[2] - moved
        else:
            out[2] = out[2] + moved
    return out


@pytest.mark.parametrize("p", [11, 13, 23])
def test_sparse_s_v_matches_dense_vectors(p):
    ctx = specialization(p)
    rng = random.Random(p)
    for _ in range(150):
        x = {}
        for _ in range(rng.randint(1, 4)):
            a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 3 * p), rng.randint(1, 3 * p))
            if a in (0, 1):
                continue
            cls = qclass(rng.choice([-1, 1]) * rng.randint(1, 4 * p))
            x = add(x, {(cls, a): rng.choice((-2, -1, 1, 3))})
        want = _ref_s_v(ctx, x)
        out = ctx.s_v(x)
        got = [out.comp0.vec, out.comp_pi.vec, ctx.delta_pi_prime(x).vec]
        for g, w in zip(got, want):
            assert [int(t) for t in g] == [int(t) for t in w]


def p_adic_rationals(p):
    """Nonzero rationals with up to p^3 in the numerator or the denominator."""
    return st.builds(
        lambda s, n, e, d, f: Fraction(s * n * p**e, d * p**f),
        st.sampled_from((-1, 1)),
        st.integers(1, 3 * p),
        st.integers(0, 3),
        st.integers(1, 3 * p),
        st.integers(0, 3),
    )


def symbols(p):
    term = st.tuples(
        p_adic_rationals(p).map(qclass),
        p_adic_rationals(p).filter(lambda t: t != 1),
        st.sampled_from((-2, -1, 1, 3)),
    )
    return st.lists(term, min_size=1, max_size=5).map(
        lambda ts: reduce(add, ({(c, a): k} for c, a, k in ts), {})
    )


@pytest.mark.parametrize("p", [11, 13, 47])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_read_matches_fraction_formulas(p, data):
    ctx = specialization(p)
    a = data.draw(p_adic_rationals(p))
    v, u = padic_read(a.numerator, a.denominator, p)
    assert v == _ref_vp(a, p) == vp(a, p)
    assert u == _ref_residue(_ref_unit_part(a, p), p)
    assert unit_part(a, p) == _ref_unit_part(a, p)
    if v == 0:
        assert ctx.residue(a) == _ref_residue(a, p)
    else:
        with pytest.raises(ValueError, match="not a p-adic unit"):
            ctx.residue(a)
    x = data.draw(symbols(p))
    out = ctx.s_v(x)
    got = [out.comp0.vec, out.comp_pi.vec, ctx.delta_pi_prime(x).vec]
    for g, w in zip(got, _ref_s_v(ctx, x)):
        assert g.dtype == object and [int(t) for t in g] == [int(t) for t in w]
    for (cls, t) in x:
        assert ctx.symbol_data(cls, t) == _ref_symbol_data(ctx, cls, t)


def _net(pairs):
    """{datum: summed coefficient}, zero sums dropped."""
    out = {}
    for datum, coeff in pairs:
        out[datum] = out.get(datum, 0) + coeff
    return {k: c for k, c in out.items() if c}


def _y_data_agree(ctx, a, b):
    read = _net(
        (_ref_symbol_data(ctx, cls, t), coeff)
        for (cls, t), coeff in sym_y_relation(a, b).items()
    )
    derived = _net(
        ((param, cdata), coeff)
        for coeff, param, cdata in ctx.y_symbol_data(ctx.local_type(a), ctx.local_type(b))
    )
    return read == derived


@pytest.mark.parametrize("p", [11, 13, 47])
def test_y_symbol_data_from_local_types_sweep_bound_3(p):
    ctx = specialization(p)
    vals = verify.sweep_values(3)
    pairs = [(a, b) for a in vals for b in vals if a != b]
    assert len(vals) == 13 and len(pairs) == 156
    for a, b in pairs:
        assert _y_data_agree(ctx, a, b), (a, b)


@pytest.mark.parametrize("p", [11, 13, 47])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_y_symbol_data_from_local_types_p_adic(p, data):
    # the box at sweep_bound 3 holds only p-adic units; here a, b, 1 - a and
    # 1 - b take every sign of valuation
    ctx = specialization(p)
    a = data.draw(p_adic_rationals(p).filter(lambda t: t != 1))
    b = data.draw(p_adic_rationals(p).filter(lambda t: t not in (1, a)))
    assert _y_data_agree(ctx, a, b)
    assert ctx.s_v(sym_y_relation(a, b)).is_zero()


class _FailOffUnits:
    """A SpecializationContext whose S_v fails on any symbol with a
    parameter of nonzero valuation, to check that y_sweep reports it."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.ctx, name)

    def s_v(self, x):
        self.calls += 1
        ok = all(self.ctx.symbol_data(cls, a)[0][0] == 0 for cls, a in x)
        return SimpleNamespace(is_zero=lambda: ok)


def test_y_sweep_runs_s_v_once_per_datum_and_reports_failures():
    ctx = specialization(11)
    vals = verify.sweep_values(12)
    assert verify.y_sweep(ctx, vals)
    types = [ctx.local_type(a) for a in vals]
    data = {
        ctx.y_symbol_data(types[i], types[j])
        for i in range(len(vals))
        for j in range(len(vals))
        if i != j
    }
    fake = _FailOffUnits(ctx)
    assert verify.y_sweep(fake, verify.sweep_values(3))  # every value a unit
    fake = _FailOffUnits(ctx)
    assert not verify.y_sweep(fake, vals)  # 11 is in the box
    assert fake.calls == len(data) < len(vals) ** 2 // 100


def _no_factoring(n):
    raise AssertionError("factored")


def test_square_classes_refuse_large_entries_before_factoring(monkeypatch):
    from scgroups import valuation

    cap = valuation.MAX_CLASS_ENTRY
    assert qclass(cap) == QONE and qclass(Fraction(-1, cap)) == qclass(-1)
    monkeypatch.setattr(valuation, "_squarefree_decompose", _no_factoring)
    for a in (cap + 1, -cap - 1, Fraction(1, cap + 1), Fraction(cap + 1, 7)):
        with pytest.raises(ValueError, match="more than"):
            qclass(a)
    with pytest.raises(ValueError, match="more than"):
        QSqClass(1, cap + 1)


def test_products_of_classes_are_not_factored_again(monkeypatch):
    from scgroups import valuation

    p1, p2 = 999999999989, 999999999961  # primes below MAX_CLASS_ENTRY
    c1, c2 = qclass(p1), qclass(-p2)
    monkeypatch.setattr(valuation, "_squarefree_decompose", _no_factoring)
    prod = c1.mul(c2)
    assert (prod.sign, prod.n) == (-1, p1 * p2)
    back = c1.mul(prod)
    assert (back.sign, back.n) == (-1, p2) and back == c2
