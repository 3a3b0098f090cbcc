"""Named verification suites behind the CLI: every property listed in the
module contracts is exercised by exactly one suite here.  Suites are
deterministic given the seed and return plain (name, ok, detail) records
so the CLI can render and aggregate them.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import globalinv, orbitcomplex, tree, witt
from .groupring import (
    RModPres,
    act,
    add,
    characters,
    chi_ideal_rows,
    dbl_bracket,
    r_mul,
    scale,
)
from .linalg import AbMap, FpAb, RowTable, ab_quotient, direct_sum, intmat, iso_odd, odd_part, snf
from .rings import GF, Ring, parse_ring, prime_power_decompose, square_classes
from .scissors import context
from .valuation import (
    qclass,
    specialization,
    sym_dbl_bracket,
    sym_gen,
    sym_y_relation,
    vp,
)

DEFAULT_SEED = 12345


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}{tail}"


def _exact_det(m) -> int:
    n = m.shape[0]
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


def suite_linalg(seed: int = DEFAULT_SEED, **_) -> list[Check]:
    rng = random.Random(seed)
    out = []
    ok_eq = ok_chain = ok_minors = True
    for _ in range(30):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        a = intmat([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)])
        sd = snf(a)
        if not np.array_equal(sd.u @ a @ sd.v, sd.s):
            ok_eq = False
        d = [x for x in sd.diagonal() if x]
        if any(y % x for x, y in zip(d, d[1:])):
            ok_chain = False
        if len(d) == min(m, n):
            g = 0
            for rows in itertools.combinations(range(m), len(d)):
                for cols in itertools.combinations(range(n), len(d)):
                    g = math.gcd(g, abs(_exact_det(a[np.ix_(rows, cols)])))
            if math.prod(d) != g:
                ok_minors = False
    out.append(Check("snf: U*A*V = S exactly", ok_eq))
    out.append(Check("snf: divisibility chain", ok_chain))
    out.append(Check("snf: invariant product = gcd of maximal minors", ok_minors))

    ok_stack = True
    for _ in range(10):
        n = rng.randrange(1, 4)
        g = FpAb(n)
        s1 = [[rng.randrange(-4, 5) for _ in range(n)]]
        s2 = [[rng.randrange(-4, 5) for _ in range(n)]]
        a = ab_quotient(ab_quotient(g, s1), s2)
        b = ab_quotient(g, s1 + s2)
        if a.invariant_factors() != b.invariant_factors() or a.free_rank != b.free_rank:
            ok_stack = False
    out.append(Check("quotient stacking agrees with union", ok_stack))

    g = FpAb(3, [[2, 4, 0], [0, 6, 2]])
    perm = FpAb(3, [[0, 4, 2], [2, 6, 0]])
    rowop = FpAb(3, [[2, 4, 0], [2, 10, 2]])
    out.append(
        Check(
            "iso_odd invariant under generator permutation and row ops",
            iso_odd(g, perm) and iso_odd(g, rowop) and iso_odd(g, g),
        )
    )
    return out


def suite_local_ring(ring: Ring, **_) -> list[Check]:
    out = []
    w, u1 = set(ring.w_set), set(ring.u1)
    out.append(
        Check(
            f"{ring.label}: units = W ⊔ U1",
            w | u1 == set(ring.units) and not (w & u1),
        )
    )
    G = square_classes(ring)
    ok = True
    for x in ring.units:
        for y in ring.units:
            if G.mul(G.class_of(x), G.class_of(y)) != G.class_of(ring.mul(x, y)):
                ok = False
        if G.class_of(ring.mul(x, x)) != 0:
            ok = False
    out.append(Check(f"{ring.label}: square classes multiplicative", ok))
    k = ring.residue_field()
    ok = {ring.residue(x) for x in ring.elements} == set(k.elements)
    for a in ring.elements:
        for b in ring.elements[:8]:
            if ring.residue(ring.add(a, b)) != k.add(ring.residue(a), ring.residue(b)):
                ok = False
            if ring.residue(ring.mul(a, b)) != k.mul(ring.residue(a), ring.residue(b)):
                ok = False
        if ring.is_unit(a) != k.is_unit(ring.residue(a)):
            ok = False
    out.append(Check(f"{ring.label}: residue is a surjective ring map", ok))
    return out


def suite_group_ring(ring: Ring, seed: int = DEFAULT_SEED, **_) -> list[Check]:
    out = []
    G = square_classes(ring)
    n = G.order
    chis = characters(G)
    ok_sq = True
    for chi in chis:
        rows = chi_ideal_rows(G, chi)
        sq = []
        for g in range(n):
            for h in range(n):
                sq.append(r_mul(add({g: 1}, {0: -chi(g)}), add({h: 1}, {0: -chi(h)})))
        if not iso_odd(FpAb(n, rows), FpAb(n, sq)):
            ok_sq = False
    out.append(Check(f"{ring.label}: R^chi and (R^chi)^2 agree on odd parts", ok_sq))

    ok_pair = True
    for c1, c2 in itertools.combinations(chis, 2):
        both = ab_quotient(FpAb(n, chi_ideal_rows(G, c1)), chi_ideal_rows(G, c2))
        if not both.odd_order_trivial():
            ok_pair = False
    out.append(
        Check(f"{ring.label}: distinct R^chi sum to R on odd parts", ok_pair)
    )

    rng = random.Random(seed)
    ok_dec = True
    ok_euler = True
    for _ in range(5):
        ngens = rng.randrange(1, 3)
        rels = []
        for _ in range(rng.randrange(0, 3)):
            rels.append(
                [{g: rng.randrange(-2, 3) for g in range(n)} for _ in range(ngens)]
            )
        m = RModPres(G, ngens, rels)
        g = G.neg_one()
        both = direct_sum(m.plus_part(g), m.minus_part(g))
        if not iso_odd(m.flatten(), both):
            ok_dec = False
        # localization is exact after inverting 2: Euler characteristics of
        # a presented quotient sequence multiply up at every character
        sub = [[{g: rng.randrange(-2, 3) for g in range(n)} for _ in range(ngens)]]
        q = RModPres(G, ngens, rels + sub)
        for chi in chis:
            mloc, qloc = m.chi_localize(chi), q.chi_localize(chi)
            if mloc.free_rank < qloc.free_rank:
                ok_euler = False
    out.append(Check(f"{ring.label}: M = e+M ⊕ e-M on odd parts", ok_dec))
    out.append(Check(f"{ring.label}: chi-localization right-exactness", ok_euler))
    return out


def suite_five_term(ring: Ring, **_) -> list[Check]:
    """lambda kills the X relations (the five-term table's columns mod
    |W|), lambda_1 and lambda_2 the Y relations (the table's rows, RP's
    untranslated flat rows).  Each map is built on a free source, so a
    relation it misses fails its check instead of raising."""
    ctx = context(ring)
    n, order = len(ctx.W), ctx.G.order
    s2, flat = ctx.s2_of_units(), FpAb(n * order)
    ys = ctx.five_terms()
    xs = RowTable(ys.cols % n, ys.vals, n)
    checks = (
        ("lambda kills every X relation", AbMap(FpAb(n), s2, ctx.lambda_map().rows), xs),
        ("lambda_1 kills every Y relation", AbMap(flat, FpAb(order), ctx.lambda1_matrix()), ys),
        ("lambda_2 kills every Y relation", AbMap(flat, s2, ctx.lambda2_matrix()), ys),
    )
    return [Check(f"{ring.label}: {name}", not f.unkilled(rows)) for name, f, rows in checks]


def suite_key_identity(ring: Ring, **_) -> list[Check]:
    ctx = context(ring)
    G = ctx.G
    C = ctx.big_c()
    ok = True
    for a in ring.units:
        val = add(
            scale(2, act(dbl_bracket(G, a), C)),
            add(scale(-1, ctx.psi1(a)), ctx.psi2(a)),
        )
        if not ctx.rp_is_zero(val):
            ok = False
    return [Check(f"{ring.label}: 2<<a>>C = psi_1(a) - psi_2(a) for all units", ok)]


def suite_special_elements(ring: Ring, **_) -> list[Check]:
    ctx = context(ring)
    G = ctx.G
    out = suite_key_identity(ring)
    C = ctx.big_c()
    ok = True
    for a in ctx.W:
        coeff = r_mul({G.class_of(ring.sub(a, ring.one)): 1}, dbl_bracket(G, ring.neg(a)))
        cor = add(act(dbl_bracket(G, a), C), scale(-1, act(coeff, {(0, a): 1})))
        if not ctx.rp_tilde_is_zero(cor):
            ok = False
    out.append(Check(f"{ring.label}: Cor 1.8 <<a>>C = <a-1><<-a>>[a] in RP~ for a in W", ok))
    out.append(
        Check(
            f"{ring.label}: 3C = psi_1(-1) and 6C = 0",
            ctx.rp_is_zero(add(scale(3, C), scale(-1, ctx.psi1(ring.neg_one()))))
            and ctx.rp_is_zero(scale(6, C)),
        )
    )
    ok = True
    if len(ring.units) <= 500:
        for i in (1, 2):
            for a in ring.units:
                for b in ring.units:
                    lhs = ctx.psi(i, ring.mul(a, b))
                    rhs = add(act({G.class_of(a): 1}, ctx.psi(i, b)), ctx.psi(i, a))
                    if not ctx.rp_is_zero(add(lhs, scale(-1, rhs))):
                        ok = False
    out.append(Check(f"{ring.label}: psi_i cocycle law over all unit pairs", ok))
    P = ctx.pre_bloch()
    ok = True
    for a in ctx.W:
        if not P.contains(ctx.pb_row(add(ctx.c_const(a), scale(-1, ctx.c_const())))):
            ok = False
        if not ctx.rp_is_zero(add(ctx.big_c(a), scale(-1, C))):
            ok = False
    out.append(Check(f"{ring.label}: base-point independence of c and C", ok))
    ok = True
    for a in ring.units:
        expect = r_mul(dbl_bracket(G, ring.neg(a)), dbl_bracket(G, a))
        if ctx.lambda1_of(ctx.psi1(a)) != expect:
            ok = False
        if ctx.lambda1_of(ctx.psi2(a)) != expect:
            ok = False
    out.append(Check(f"{ring.label}: lambda_1(psi_i(a)) = <<-a>><<a>>", ok))
    return out


def suite_idempotent(ring: Ring, **_) -> list[Check]:
    ctx = context(ring)
    out = []
    r1 = ctx.rp1()
    out.append(
        Check(
            f"{ring.label}: e+RP~ has the odd part of RP_1",
            iso_odd(ctx.e_plus_rp_tilde(), r1),
        )
    )
    if ctx.G.neg_one() != 0:
        out.append(
            Check(
                f"{ring.label}: e+RP has the odd part of RP_1 (<-1> nontrivial)",
                iso_odd(ctx.refined().plus_part(ctx.G.neg_one()), r1),
            )
        )
    out.append(
        Check(
            f"{ring.label}: RP_1 -> RP~_1 is an odd-part isomorphism",
            iso_odd(ctx.rp1_tilde.group, r1),
        )
    )
    sub = ctx.rb_subgroup()
    flat = ctx.rp_flat()
    ok = True
    for g in range(1, ctx.G.order):
        # row j of act_matrix(g) has its one entry at idx[j]
        idx = ctx.refined().act_permutation(g).tolist()
        for row in sub.echelon.basis:
            moved = add({idx[j]: c for j, c in row.items()}, scale(-1, row))
            if not flat.contains(moved):
                ok = False
    out.append(Check(f"{ring.label}: G acts trivially on RB", ok))
    return out


def suite_slr(ring: Ring, **_) -> list[Check]:
    ctx = context(ring)
    res = ctx.l_submodule()
    return [
        Check(
            f"{ring.label}: L_B generators die in RP~(k)",
            res["kernel_ok"],
        ),
        Check(
            f"{ring.label}: RP~(B)/L_B = RP~(k) with equal invariant factors",
            res["match"],
            f"quotient {res['quotient'].describe()}",
        ),
    ]


def suite_witt(ring: Ring, **_) -> list[Check]:
    out = []
    c = orbitcomplex.build_row_complex(ring)
    out.append(
        Check(
            f"{ring.label}: chain identities d3.d4 = 0 and aug.d3 = 0",
            orbitcomplex.chain_identities_hold(c),
        )
    )
    h1 = c.homology_at(1)
    out.append(Check(f"{ring.label}: E^2 position 1 vanishes", h1.is_trivial()))
    h2 = c.homology_at(2)
    i1 = witt.fundamental_ideal(ring)
    out.append(
        Check(
            f"{ring.label}: E^2 position 2 = fundamental ideal",
            h2.invariant_factors() == i1.invariant_factors()
            and h2.free_rank == i1.free_rank,
            f"I = {i1.describe()}",
        )
    )
    # position 3 is RP_1 (ker lambda_1 modulo RP's relation lattice) once
    # d4's rows span that lattice
    out.append(
        Check(
            f"{ring.label}: E^2 position 3 is RP_1: d4 reduces to RP's block-form basis",
            FpAb(len(c.d3), c.d4).echelon().basis == context(ring).rp_flat().echelon().basis,
        )
    )
    if ring.is_field:
        out.append(Check(f"{ring.label}: I^2 vanishes", witt.i_squared(ring).is_trivial()))
    return out


def suite_orbits(q: int, **_) -> list[Check]:
    # refused before the trial division of prime_power_decompose runs
    if q > orbitcomplex.MAX_CENSUS_Q:
        raise ValueError(f"--q {q} is more than {orbitcomplex.MAX_CENSUS_Q}")
    pd = prime_power_decompose(q)
    if pd is None:
        raise ValueError(f"{q} is not a prime power")
    k = GF(*pd)
    out = []
    lengths = [3, 4] if q <= 7 else [3]
    if q <= 5:
        lengths.append(5)
    for L in lengths:
        census = orbitcomplex.orbit_classify(k, L)
        expect = orbitcomplex.expected_orbit_count(k, L)
        out.append(
            Check(
                f"gf({q}): {L}-tuple orbit census matches the parameterization",
                len(census) == expect,
                f"{len(census)} orbits",
            )
        )
    return out


# largest q suite_exactness_sanity accepts: it took 7.5 s at q = 11 and
# 16.7 s at q = 13 (the complex has about q^5 5-tuples)
MAX_EXACTNESS_Q = 11
# smallest q it accepts: P^1 of a field with q elements has q + 1 points and
# so no (q + 2)-tuples, and the complex cannot be exact in degree q <= 3
MIN_EXACTNESS_Q = 4


def suite_exactness_sanity(q: int, **_) -> list[Check]:
    if q > MAX_EXACTNESS_Q:
        raise ValueError(f"--q {q} is more than {MAX_EXACTNESS_Q}")
    if q < MIN_EXACTNESS_Q:
        raise ValueError(
            f"--q {q} is less than {MIN_EXACTNESS_Q}: on q + 1 points there are no "
            "(q + 2)-tuples, so the complex is not exact in degree q"
        )
    pd = prime_power_decompose(q)
    if pd is None:
        raise ValueError(f"{q} is not a prime power")
    k = GF(*pd)
    out = []
    for degree in (1, 2, 3):
        out.append(
            Check(
                f"gf({q}): full tuple complex is exact in degree {degree}",
                orbitcomplex.simplicial_homology_vanishes(k, degree),
            )
        )
    return out


def _random_admissible_pair(rng):
    while True:
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        if 0 in (a, b) or 1 in (a, b) or a == b or a / b in (0, 1):
            continue
        return a, b


def sweep_values(bound: int) -> list[Fraction]:
    """The rationals n/d in lowest terms with |n| <= bound and 1 <= d <= bound,
    other than 0 and 1, each once."""
    return [
        Fraction(n, d)
        for n in range(-bound, bound + 1)
        for d in range(1, bound + 1)
        if math.gcd(abs(n), d) == 1 and Fraction(n, d) not in (0, 1)
    ]


def y_sweep(ctx, vals: list[Fraction]) -> bool:
    """Whether S_v kills Y(a, b) for every admissible pair of distinct
    values a, b (a / b is then neither 0 nor 1).

    S_v(Y(a, b)) depends only on the data s_v reads from its five symbols,
    which y_symbol_data derives from the local types of a and b.  The pairs
    of distinct values give every pair of their types (s, t) with s != t,
    and (s, s) when two values share the type s; S_v runs once on each
    distinct datum of those type pairs, and no relation is built."""
    count = Counter(map(ctx.local_type, vals))
    data = {
        ctx.y_symbol_data(s, t)
        for s in count
        for t in count
        if s != t or count[s] > 1
    }
    return all(ctx.s_v_of(datum).is_zero() for datum in data)


def suite_specialize(
    p: int, seed: int = DEFAULT_SEED, samples: int = 200, sweep_bound: int = 20, **_
) -> list[Check]:
    ctx = specialization(p)
    rng = random.Random(seed)
    ok = True
    for _ in range(samples):
        a, b = _random_admissible_pair(rng)
        cls = qclass(Fraction(rng.randint(1, 60)))
        if not ctx.s_v(act({cls: 1}, sym_y_relation(a, b))).is_zero():
            ok = False
    out = [Check(f"p={p}: S_v kills {samples} seeded Y relations exactly", ok)]

    out.append(
        Check(
            f"p={p}: exhaustive Y sweep with entries up to {sweep_bound}",
            y_sweep(ctx, sweep_values(sweep_bound)),
        )
    )

    ok = True
    for _ in range(samples // 4):
        u = rng.randint(2, 50)
        if u % p == 0:
            continue  # not a unit square class
        x = Fraction(rng.randint(2, 30))
        if not ctx.delta_pi(act(sym_dbl_bracket(u), sym_gen(x))).is_zero():
            ok = False
    out.append(Check(f"p={p}: delta_pi vanishes on unit square classes", ok))

    ok = True
    for _ in range(samples):
        x = {}
        for _ in range(3):
            a = Fraction(rng.randint(2, 50))
            t = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            if t in (0, 1):
                continue
            x = add(
                x, scale(rng.choice([-2, -1, 1, 2]), act(sym_dbl_bracket(a), sym_gen(t)))
            )
        if ctx.eta_pi_prime(x) != ctx.p_tilde_scale(-2, ctx.eta_pi(x)):
            ok = False
    out.append(Check(f"p={p}: eta' = -2 eta on {samples} seeded samples", ok))

    ok = True
    for _ in range(30):
        u = rng.randint(2, 20)
        a = Fraction(rng.randint(2, 40))
        if u % p == 0:
            continue  # not a unit square class
        lhs = ctx.delta_0(act({qclass(u): 1}, sym_gen(a)))
        gbar = ctx.sc.G.class_of(ctx.residue(u))
        # the permutation is an involution, so the entry at i moves to perm[i]
        perm = ctx.sc.refined().act_permutation(gbar).tolist()
        rhs = {perm[i]: v for i, v in ctx.delta_0(sym_gen(a)).entries.items()}
        if not ctx.rp_tilde.contains(add(lhs.entries, scale(-1, rhs))):
            ok = False
    out.append(Check(f"p={p}: delta_0 is R-linear on unit classes", ok))

    # each witness <<p>>g(a) must map onto g(abar), and the images must
    # lie in RP_1~ and span its odd part
    sub = ctx.sc.rp1_tilde
    coords = []
    ok = True
    for abar in ctx.sc.W:
        x, mapped = ctx.surjectivity_witness(abar)
        cvec = sub.solve(ctx.delta_pi(x).entries)
        if not mapped or cvec is None:
            ok = False
            continue
        coords.append(cvec)
    quot = ab_quotient(sub.group, coords)
    out.append(
        Check(
            f"p={p}: delta_pi(<<p>>g(a)) images span RP_1 odd part",
            ok and quot.odd_order_trivial(),
        )
    )
    return out


# largest ball radius suite_tree builds
TREE_SUITE_RADIUS = 4


def suite_tree(p: int, seed: int = DEFAULT_SEED, samples: int = 500, **_) -> list[Check]:
    rng = random.Random(seed)
    r = TREE_SUITE_RADIUS
    sizes_ok = all(len(tree.ball(p, k)[0]) == tree.ball_size_formula(p, k) for k in range(r + 1))
    out = [
        Check(f"p={p}: ball sizes match 1+(p+1)(p^r-1)/(p-1), r<={r}", sizes_ok),
        Check(f"p={p}: ball of radius {r} has no cycles", tree.ball_is_tree(p, r)),
    ]

    verts = list(tree.ball(p, 2)[0])
    ok = True
    for _ in range(samples):
        m = tree.mat2(
            Fraction(rng.randint(-10, 10), p ** rng.randint(0, 2)),
            Fraction(rng.randint(-10, 10), p ** rng.randint(0, 2)),
            Fraction(rng.randint(-10, 10), p ** rng.randint(0, 2)),
            Fraction(rng.randint(-10, 10), p ** rng.randint(0, 2)),
        )
        if tree.mat_det(m) == 0:
            continue
        v = rng.choice(verts)
        d = tree.distance(v, tree.act(m, v, p), p)
        if d % 2 != vp(tree.mat_det(m), p) % 2:
            ok = False
    out.append(Check(f"p={p}: parity law d(v, gv) = v(det g) mod 2", ok))

    ok = True
    for _ in range(samples // 2):
        g = tree.IDENT
        for _ in range(rng.randint(1, 6)):
            x = Fraction(rng.randint(-8, 8), p ** rng.randint(0, 4))
            e = tree.mat2(1, x, 0, 1) if rng.random() < 0.5 else tree.mat2(1, 0, x, 1)
            g = tree.mat_mul(g, e)
        w = tree.amalgam_decompose(g, p)
        if not w.validate(g):
            ok = False
        d = tree.distance(tree.lambda0(), tree.act(g, tree.lambda0(), p), p)
        if len(w) > d + 1:
            ok = False
        if len(tree.amalgam_decompose(w.product(), p)) != len(w):
            ok = False
    out.append(
        Check(f"p={p}: amalgam round-trip on {samples // 2} seeded elements", ok)
    )

    ok = True
    for v in verts[:10]:
        for u in tree.neighbors(v, p):
            if v not in tree.neighbors(u, p):
                ok = False
    out.append(Check(f"p={p}: neighbor relation is symmetric", ok))
    return out


def suite_global(**_) -> list[Check]:
    out = []
    reports = globalinv.pbar_table(11, 97)
    out.append(
        Check(
            "pbar: internal consistency pbar*killed = (p+1)' for 11<=p<=97",
            all(r.pbar_odd_order * r.killed_order == r.p_plus_1_odd for r in reports),
        )
    )
    ok = True
    for r in reports:
        c_odd = odd_part(math.gcd(6, (r.p + 1) // 2))
        expected = r.p_plus_1_odd // c_odd if r.three_divides_p_plus_1 else r.p_plus_1_odd
        if expected != r.pbar_odd_order:
            ok = False
    out.append(Check("pbar: corollary branch agrees with the theorem branch", ok))
    ok = True
    for q in (11, 13, 17, 19, 23, 25, 49):
        if ((q + 1) // 2) % globalinv.k3_image_order(globalinv.RATIONALS, q):
            ok = False
    out.append(Check("k3 image order divides (q+1)/2", ok))
    out.append(
        Check(
            "pbar cross-check against the scissors pipeline (p = 11, 13, 17)",
            all(globalinv.pbar_cross_check(p) for p in (11, 13, 17)),
        )
    )
    return out


# ---------------------------------------------------------------------------
# registry

# name -> (parameter, suite): the option whose value the suite takes
# first ("ring", "p" or "q"), or None for a suite that takes none
SUITES = {
    "local-ring": ("ring", suite_local_ring),
    "group-ring": ("ring", suite_group_ring),
    "five-term": ("ring", suite_five_term),
    "key-identity": ("ring", suite_key_identity),
    "special-elements": ("ring", suite_special_elements),
    "idempotent": ("ring", suite_idempotent),
    "slr": ("ring", suite_slr),
    "witt": ("ring", suite_witt),
    "specialize": ("p", suite_specialize),
    "tree": ("p", suite_tree),
    "orbits": ("q", suite_orbits),
    "exactness-sanity": ("q", suite_exactness_sanity),
    "linalg": (None, suite_linalg),
    "global": (None, suite_global),
}


def run_suite(name: str, ring=None, p=None, q=None, seed: int = DEFAULT_SEED, **kw) -> list[Check]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    param, suite = SUITES[name]
    if param is None:
        return suite(seed=seed, **kw)
    value = {"ring": ring, "p": p, "q": q}[param]
    if value is None:
        raise ValueError(f"suite {name!r} needs --{param}")
    if param == "ring" and isinstance(value, str):
        value = parse_ring(value)
    return suite(value, seed=seed, **kw)


def all_suite_names() -> list[str]:
    return sorted(SUITES)


def verify_all_jobs(max_q: int = 13) -> list[tuple]:
    """The (suite, parameter) job list exercising every module invariant;
    max_q caps the residue field size of the rings that are swept."""
    rings = ["gf(5)", "gf(7)", "gf(11)", "gf(13)", "z/7^2", "gf(5)[t]/t^2", "z/11^2"]
    rings = [r for r in rings if parse_ring(r).residue_field().size() <= max_q]
    jobs: list[tuple] = [("linalg", None), ("global", None)]
    for r in rings:
        jobs.append(("local-ring", r))
        jobs.append(("group-ring", r))
    for r in rings:
        if parse_ring(r).residue_field().size() > 3:
            jobs.append(("five-term", r))
            jobs.append(("special-elements", r))
            jobs.append(("idempotent", r))
    for r in rings:
        ring = parse_ring(r)
        if not ring.is_field and ring.residue_field().size() >= 5:
            jobs.append(("slr", r))
    for r in rings:
        if parse_ring(r).residue_field().size() > 3:
            jobs.append(("witt", r))
    for q in (4, 5, 7):
        if q <= max_q:
            jobs.append(("orbits", q))
    for q in (4, 5, 7, 8, 9):
        if q <= min(max_q, 9):
            jobs.append(("exactness-sanity", q))
    for p in (11, 13):
        jobs.append(("specialize", p))
    for p in (5, 7, 11):
        if p <= max_q:
            jobs.append(("tree", p))
    return jobs


def run_job(job: tuple, seed: int = DEFAULT_SEED) -> tuple[str, list[Check]]:
    name, value = job
    key = name if value is None else f"{name}:{value}"
    param = SUITES[name][0]
    kw = {} if param is None else {param: value}
    if param == "p":
        kw["samples"] = 120
    return key, run_suite(name, seed=seed, **kw)
