import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

import scgroups
from scgroups import linalg, verify
from scgroups.groupring import act, add, bracket, dbl_bracket, p_plus, r_mul, scale
from scgroups.linalg import KeyedFpAb, zeros
from scgroups.valuation import (
    Q_CLASSES,
    IndElem,
    QONE,
    QSqClass,
    SpecializationContext,
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
    with pytest.raises(ValueError, match="nonzero denominator"):
        vp_int(3, 0, 7)
    with pytest.raises(ValueError, match="nonzero denominator"):
        padic_read(3, 0, 7)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 7, 139, 10**9 + 7]),
    st.integers(-(10**6), 10**6).filter(bool),
    st.integers(1, 10**6),
    st.integers(0, 3000),
    st.integers(0, 3000),
)
def test_valuations_match_dividing_one_factor_at_a_time(p, a, b, i, j):
    # the halving search over p, p^2, p^4, ... against v divisions by p,
    # up to valuations past 2^11, in numerator and denominator
    num, den = a * p**i, b * p**j
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    while b % p == 0:
        b //= p
        v -= 1
    assert vp_int(num, den, p) == v + i - j
    assert padic_read(num, den, p) == (v + i - j, a * pow(b, -1, p) % p)


def test_qclass():
    assert qclass(-50) == QSqClass(-1, 2)
    assert qclass(Fraction(4, 9)) == QONE
    assert qclass(Fraction(-2, 3)) == QSqClass(-1, 6)
    assert qclass(8) == QSqClass(1, 2)
    c = qclass(6) ^ qclass(10)
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
        rhs_vec = ctx.delta_0(x).vec[ctx.sc.refined().act_permutation(gbar)]
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


@pytest.mark.parametrize("p", [11, 13])
def test_eta_folds_square_classes_as_the_coinvariants_matrix(p):
    # eta_pi and eta_pi_prime fold RP~'s flat index g |W| + i onto W index
    # i; the oracle is that map as a dense |G||W| x |W| matrix C
    ctx = specialization(p)
    n, order = len(ctx.sc.W), ctx.sc.G.order
    C = zeros(order * n, n)
    for g in range(order):
        for i in range(n):
            C[g * n + i, i] = 1
    rng = random.Random(p + 101)
    nonzero = 0
    for _ in range(20):
        x = _random_if_rp_element(rng)
        for rp, pt in ((ctx.delta_pi(x), ctx.eta_pi(x)), (ctx.delta_pi_prime(x), ctx.eta_pi_prime(x))):
            assert pt.vec.tolist() == (rp.vec @ C).tolist()
            nonzero += any(pt.vec)
    assert nonzero


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
    formulas built them: a dense case vector per symbol, moved by indexing
    it with the action's permutation."""
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
        moved = coeff * base[ctx.sc.refined().act_permutation(gbar)]
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


PRIMES = (11, 13, 47)
# the strategies are built once per p, not inside each example: building
# them there took longer than the example itself
P_ADIC = {p: p_adic_rationals(p) for p in PRIMES}
PARAMS = {p: P_ADIC[p].filter(lambda t: t != 1) for p in PRIMES}
SYMBOLS = {p: symbols(p) for p in PRIMES}


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_read_matches_fraction_formulas(p, data):
    ctx = specialization(p)
    a = data.draw(P_ADIC[p])
    v, u = padic_read(a.numerator, a.denominator, p)
    assert v == _ref_vp(a, p) == vp(a, p)
    assert u == _ref_residue(_ref_unit_part(a, p), p)
    assert unit_part(a, p) == _ref_unit_part(a, p)
    if v == 0:
        assert ctx.residue(a) == _ref_residue(a, p)
    else:
        with pytest.raises(ValueError, match="not a p-adic unit"):
            ctx.residue(a)
    x = data.draw(SYMBOLS[p])
    out = ctx.s_v(x)
    got = [out.comp0.vec, out.comp_pi.vec, ctx.delta_pi_prime(x).vec]
    for g, w in zip(got, _ref_s_v(ctx, x)):
        assert g.dtype == object and [int(t) for t in g] == [int(t) for t in w]
    for (cls, t) in x:
        assert ctx.symbol_data(cls, t) == ctx.case_key(*_ref_symbol_data(ctx, cls, t))


def _net(pairs):
    """{datum: summed coefficient}, zero sums dropped."""
    out = {}
    for datum, coeff in pairs:
        out[datum] = out.get(datum, 0) + coeff
    return {k: c for k, c in out.items() if c}


def _y_data_agree(ctx, a, b):
    read = _net(
        (ctx.case_key(*_ref_symbol_data(ctx, cls, t)), coeff)
        for (cls, t), coeff in sym_y_relation(a, b).items()
    )
    derived = _net(ctx.y_symbol_data(ctx.local_type(a), ctx.local_type(b)))
    return read == derived


@pytest.mark.parametrize("p", [11, 13, 47])
def test_y_symbol_data_from_local_types_sweep_bound_3(p):
    ctx = specialization(p)
    vals = verify.sweep_values(3)
    pairs = [(a, b) for a in vals for b in vals if a != b]
    assert len(vals) == 13 and len(pairs) == 156
    for a, b in pairs:
        assert _y_data_agree(ctx, a, b), (a, b)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_y_symbol_data_from_local_types_p_adic(p, data):
    # the box at sweep_bound 3 holds only p-adic units; here a, b, 1 - a and
    # 1 - b take every sign of valuation
    ctx = specialization(p)
    a = data.draw(PARAMS[p])
    b = data.draw(PARAMS[p].filter(lambda t: t != a))
    assert _y_data_agree(ctx, a, b)
    assert ctx.s_v(sym_y_relation(a, b)).is_zero()


def _nonzero(entries):
    return {i: v for i, v in entries.items() if v}


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_s_v_of_local_type_data_matches_the_relation(p, data):
    # entry by entry, not only in being zero: the relation merges repeated
    # symbols and drops cancelled ones, so zero entries may differ
    ctx = specialization(p)
    a = data.draw(PARAMS[p])
    b = data.draw(PARAMS[p].filter(lambda t: t != a))
    got = ctx.s_v_of(ctx.y_symbol_data(ctx.local_type(a), ctx.local_type(b)))
    want = ctx.s_v(sym_y_relation(a, b))
    assert _nonzero(got.comp0.entries) == _nonzero(want.comp0.entries)
    assert _nonzero(got.comp_pi.entries) == _nonzero(want.comp_pi.entries)


@st.composite
def s_v_inputs(draw, p):
    """Symbolic elements whose S_v is zero or not: Y relations moved by
    classes (of odd valuation too), symbols whose parameters take both
    signs of valuation, and for some symbols a twin <c(1 + p)>[t(1 + p)],
    another symbol with the same data, with the same or the opposite
    coefficient, so that cases repeat or cancel in S_v's terms."""
    x = {}
    for _ in range(draw(st.integers(0, 2))):
        a = draw(PARAMS[p])
        b = draw(PARAMS[p].filter(lambda t: t != a))
        cls = qclass(draw(P_ADIC[p]))
        x = add(x, act({cls: draw(st.sampled_from((-1, 1, 2)))}, sym_y_relation(a, b)))
    for _ in range(draw(st.integers(0, 3))):
        cls, t = qclass(draw(P_ADIC[p])), draw(PARAMS[p])
        k = draw(st.sampled_from((-2, -1, 1, 3)))
        x = add(x, {(cls, t): k})
        if draw(st.booleans()) and t * (1 + p) != 1:
            twin = (qclass(cls.value() * (1 + p)), t * (1 + p))
            x = add(x, {twin: draw(st.sampled_from((-k, k)))})
    return x


S_V_INPUTS = {p: s_v_inputs(p) for p in PRIMES}


def _case_sums(ctx, x):
    """(rho_0, rho_pi) entries of S_v(x), summed from the case entries of
    the data the Fraction formulas read, zero sums dropped."""
    out = ({}, {})
    for (cls, t), coeff in x.items():
        param, (e, g) = _ref_symbol_data(ctx, cls, t)
        for acc in out if e else out[:1]:
            for i, v in ctx._cases[ctx.case_key(param, (e, g)) >> 1]:
                acc[i] = acc.get(i, 0) + coeff * v
    return tuple(map(_nonzero, out))


@pytest.mark.parametrize("p", PRIMES)
def test_one_pass_membership_matches_the_entry_path(p):
    ctx = specialization(p)
    rp = ctx.rp_tilde
    answers = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(S_V_INPUTS[p])
    def check(x):
        out = ctx.s_v(x)
        assert out.is_zero() == (rp.contains(out.comp0.entries) and rp.contains(out.comp_pi.entries))
        assert (_nonzero(out.comp0.entries), _nonzero(out.comp_pi.entries)) == _case_sums(ctx, x)
        answers.add((bool(x), out.is_zero()))

    check()
    # both answers occur, and nonzero elements that die among them
    assert {(True, True), (True, False)} <= answers


def test_every_membership_question_reaches_fpab_contains(monkeypatch):
    # bench/test_checks.py injects its fault into the queries round by
    # patching linalg.FpAb.contains alone, and expects RP and S_v membership
    # to fail: each of them must call it, keyed reads included
    ctx = specialization(11)
    sc = ctx.sc
    rp = {(0, sc.W[0]): 6}
    sv = ctx.s_v(sym_gen(Fraction(2)))
    rpt = sv.comp0
    questions = {
        "rp_is_zero": lambda: sc.rp_is_zero(rp),
        "rp_tilde_is_zero": lambda: sc.rp_tilde_is_zero(rp),
        "IndElem.is_zero": sv.is_zero,
        "RPtElem.is_zero": rpt.is_zero,
    }
    assert {name: ask() for name, ask in questions.items()} == dict.fromkeys(questions, False)
    for key in ("RP symbols", "RP~ symbols"):
        assert isinstance(sc._cache[key], KeyedFpAb)
    assert isinstance(ctx.cases, KeyedFpAb)
    monkeypatch.setattr(linalg.FpAb, "contains", lambda self, v: "patched")
    assert {name: ask() for name, ask in questions.items()} == dict.fromkeys(questions, "patched")


def test_keyed_reads_are_whole_groups():
    # the keyed reads answer group questions about their targets, RP, RP~
    # and RP~ + RP~, and refuse a key they have no row for
    ctx = specialization(11)
    sc = ctx.sc
    sc.rp_is_zero({})
    sc.rp_tilde_is_zero({})
    for keyed, group in ((sc._cache["RP symbols"], sc.rp_flat()), (sc._cache["RP~ symbols"], ctx.rp_tilde)):
        assert repr(keyed) == repr(group)
        assert keyed.free_rank == group.free_rank
    twice = linalg.direct_sum(ctx.rp_tilde, ctx.rp_tilde)
    assert (ctx.cases.free_rank, ctx.cases.invariant_factors()) == (twice.free_rank, twice.invariant_factors())
    with pytest.raises(ValueError, match=re.escape("RP key (0, 0) is not a (square class, element of W) pair")):
        sc.rp_is_zero({(0, 0): 1})
    # a negative key, a key past the cases and a tuple key have no row, and
    # the components refuse the int keys too
    for key in (-1, 2 * (ctx.p + 1) * ctx.sc.G.order, ((0, 2), (0, 0))):
        with pytest.raises(ValueError, match="S_v case"):
            ctx.cases.contains({key: 1})
        if isinstance(key, int):
            with pytest.raises(ValueError, match="S_v case"):
                ctx.s_v_of([(key, 1)]).comp0


@pytest.mark.parametrize("p", PRIMES)
def test_case_keys_are_a_bijection_onto_a_range(p):
    ctx = specialization(p)
    order = ctx.sc.G.order
    params = [(1, 0), (-1, 0)] + [(0, r) for r in range(1, p)]
    cases = [(d, (e, g)) for d in params for g in range(order) for e in (0, 1)]
    keys = [ctx.case_key(*c) for c in cases]
    assert len(cases) == 2 * (p + 1) * order
    assert sorted(keys) == list(range(len(cases)))
    assert [ctx.case_of(k) for k in keys] == cases
    for key in (-1, len(cases)):
        with pytest.raises(ValueError, match="S_v case"):
            ctx.case_of(key)
    for param, cdata in (((0, 0), (0, 0)), ((0, p), (0, 0)), ((1, 1), (0, 0)), ((2, 0), (0, 0)),
                         ((1, 0), (2, 0)), ((1, 0), (0, order)), ((1, 0), (0, -1))):
        with pytest.raises(ValueError, match="S_v case"):
            ctx.case_key(param, cdata)


def test_s_v_refuses_a_zero_parameter_or_class_without_hanging():
    # symbols built by hand reach the loops that strip p: 0 must be a
    # ValueError there, not a loop on 0 % p == 0
    code = (
        "from fractions import Fraction\n"
        "from scgroups.valuation import QONE, _sqclass, specialization\n"
        "ctx = specialization(11)\n"
        "for x in ({(QONE, Fraction(0)): 1}, {(QONE, 0): 1}, {(_sqclass(1, 0), Fraction(2)): 1},\n"
        "          {(_sqclass(-1, 0), Fraction(1, 11)): 3}):\n"
        "    try:\n"
        "        ctx.s_v(x)\n"
        "    except ValueError as e:\n"
        "        print('ValueError:', e)\n"
    )
    env = dict(os.environ)
    pkg_root = str(Path(scgroups.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ValueError: 0 has no valuation"] * 4


def _off_by_one(case):
    """A case builder whose entries are one too large at flat index 0, so
    that every case image in RP~'s quotient is off by the image of that
    generator (in rho_0, and so in (rho_0, rho_pi) too)."""

    def wrong(self, param, g):
        out = dict(case(self, param, g))
        out[0] = out.get(0, 0) + 1
        return sorted(out.items())

    return wrong


def test_an_off_by_one_case_image_fails_the_sweep_and_the_suite(monkeypatch):
    vals = verify.sweep_values(5)
    assert verify.y_sweep(specialization(11), vals)
    assert all(c.ok for c in verify.suite_specialize(11))
    monkeypatch.setattr(SpecializationContext, "_case", _off_by_one(SpecializationContext._case))
    wrong = SpecializationContext(11)
    assert not verify.y_sweep(wrong, vals)
    monkeypatch.setattr(verify, "specialization", lambda p: wrong)
    failed = [c.name for c in verify.suite_specialize(11) if not c.ok]
    assert "p=11: S_v kills 200 seeded Y relations exactly" in failed
    assert "p=11: exhaustive Y sweep with entries up to 20" in failed


def test_a_case_key_collision_fails_the_suite(monkeypatch):
    # S_v's two encoders, s_v and y_symbol_data, patched so that the
    # parameter data (-1, 0) take the keys of (1, 0): the seeded Y relations
    # and the sweep must both fail
    s_v, y_symbol_data = SpecializationContext.s_v, SpecializationContext.y_symbol_data

    def collide(ctx, key):
        param, cdata = ctx.case_of(key)
        return ctx.case_key((1, 0), cdata) if param == (-1, 0) else key

    def colliding_s_v(self, x):
        return IndElem(self, tuple((collide(self, key), c) for key, c in s_v(self, x).terms))

    def colliding_y(self, ta, tb):
        return tuple((collide(self, key), c) for key, c in y_symbol_data(self, ta, tb))

    ctx = specialization(11)
    assert ctx.symbol_data(QONE, Fraction(1, 11)) != ctx.symbol_data(QONE, Fraction(11))
    monkeypatch.setattr(SpecializationContext, "s_v", colliding_s_v)
    monkeypatch.setattr(SpecializationContext, "y_symbol_data", colliding_y)
    assert ctx.symbol_data(QONE, Fraction(1, 11)) == ctx.symbol_data(QONE, Fraction(11))
    failed = [c.name for c in verify.suite_specialize(11) if not c.ok]
    assert "p=11: S_v kills 200 seeded Y relations exactly" in failed
    assert "p=11: exhaustive Y sweep with entries up to 20" in failed


def test_y_sweep_fails_when_a_datum_coefficient_flips(monkeypatch):
    y_symbol_data = SpecializationContext.y_symbol_data

    def flipped(self, ta, tb):
        (key, coeff), *rest = y_symbol_data(self, ta, tb)
        return ((key, -coeff), *rest)

    ctx = specialization(11)
    vals = verify.sweep_values(5)
    assert verify.y_sweep(ctx, vals)
    monkeypatch.setattr(SpecializationContext, "y_symbol_data", flipped)
    assert not verify.y_sweep(ctx, vals)


class _CountedSvOf:
    """A SpecializationContext that records each datum handed to s_v_of
    and, with fail_off_units, fails on any datum with a parameter of
    nonzero valuation, to check what y_sweep evaluates and that it reports
    a failure.  Its s_v raises: y_sweep builds no relation."""

    def __init__(self, ctx, fail_off_units=False):
        self.ctx = ctx
        self.fail_off_units = fail_off_units
        self.seen = []

    def __getattr__(self, name):
        return getattr(self.ctx, name)

    def s_v(self, x):
        raise AssertionError("y_sweep called s_v")

    def s_v_of(self, data):
        self.seen.append(data)
        if self.fail_off_units and any(self.ctx.case_of(key)[0][0] for key, _ in data):
            return SimpleNamespace(is_zero=lambda: False)
        return self.ctx.s_v_of(data)


def test_y_sweep_runs_s_v_once_per_datum_and_reports_failures(monkeypatch):
    def no_relation(a, b):
        raise AssertionError("y_sweep built a relation")

    monkeypatch.setattr(verify, "sym_y_relation", no_relation)
    ctx = specialization(11)
    vals = verify.sweep_values(12)
    types = [ctx.local_type(a) for a in vals]
    data = {
        ctx.y_symbol_data(types[i], types[j])
        for i in range(len(vals))
        for j in range(len(vals))
        if i != j
    }
    counted = _CountedSvOf(ctx)
    assert verify.y_sweep(counted, vals)
    assert len(counted.seen) == len(set(counted.seen)) == len(data) < len(vals) ** 2 // 100
    assert set(counted.seen) == data
    fake = _CountedSvOf(ctx, fail_off_units=True)
    assert verify.y_sweep(fake, verify.sweep_values(3))  # every value a unit
    fake = _CountedSvOf(ctx, fail_off_units=True)
    assert not verify.y_sweep(fake, vals)  # 11 is in the box


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
    prod = c1 ^ c2
    assert (prod.sign, prod.n) == (-1, p1 * p2)
    back = c1 ^ prod
    assert (back.sign, back.n) == (-1, p2) and back == c2


def _ref_class_mul(g, h):
    """The product of two square classes of Q from its definition: the
    product of the signs and the squarefree part of n * n', read off
    sympy's factorization."""
    return QSqClass(g.sign * h.sign, math.prod(q for q, e in factorint(g.n * h.n).items() if e % 2))


def _ref_ring_mul(x, y):
    """The product in Z[G_Q] as valuation wrote it before r_mul served Q."""
    out = {}
    for g, c in x.items():
        for h, d in y.items():
            k = _ref_class_mul(g, h)
            out[k] = out.get(k, 0) + c * d
    return {k: c for k, c in out.items() if c}


def _ref_sym_act(r, x):
    """The action on symbolic elements as valuation wrote it before act
    served Q."""
    out = {}
    for g, c in r.items():
        for (h, a), d in x.items():
            k = (_ref_class_mul(g, h), a)
            out[k] = out.get(k, 0) + c * d
    return {k: c for k, c in out.items() if c}


# small representatives, so that products share primes and cancel
Q_CLASS = st.builds(lambda s, n: qclass(s * n), st.sampled_from((-1, 1)), st.integers(1, 60))
RING_VALS = st.dictionaries(Q_CLASS, st.integers(-3, 3), max_size=4)
SYM_VALS = st.dictionaries(
    st.tuples(Q_CLASS, st.sampled_from((Fraction(2), Fraction(-1), Fraction(3, 5)))),
    st.integers(-3, 3),
    max_size=4,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(Q_CLASS, Q_CLASS, Q_CLASS)
def test_xor_is_the_group_law_of_the_square_classes_of_q(g, h, k):
    assert g ^ h == h ^ g == _ref_class_mul(g, h)
    assert (g ^ h) ^ k == g ^ (h ^ k)
    assert g ^ g == QONE
    assert g ^ QONE == QONE ^ g == g


@settings(max_examples=200, deadline=None, derandomize=True)
@given(RING_VALS, RING_VALS, SYM_VALS)
def test_group_ring_calculus_on_q_classes_matches_the_reference(r, s, x):
    assert r_mul(r, s) == _ref_ring_mul(r, s)
    assert act(r, x) == _ref_sym_act(r, x)
    assert act(r_mul(r, s), x) == act(r, act(s, x))


def test_q_class_group_reads_its_identity():
    assert Q_CLASSES.one == QONE and Q_CLASSES.neg_one() == QSqClass(-1, 1)
    assert bracket(Q_CLASSES, Fraction(-8, 9)) == {QSqClass(-1, 2): 1}
    assert dbl_bracket(Q_CLASSES, Fraction(4, 9)) == {} == sym_dbl_bracket(49)
    assert sym_dbl_bracket(-3) == {QSqClass(-1, 3): 1, QONE: -1}
    assert p_plus(Q_CLASSES) == {QSqClass(-1, 1): 1, QONE: 1}
    assert sym_act is act
