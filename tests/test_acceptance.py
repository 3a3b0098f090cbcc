"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  All arithmetic is exact; every assertion is an equality unless the
comparison is explicitly an odd-part isomorphism.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from scgroups import globalinv, tree, verify
from scgroups.groupring import add, scale
from scgroups.linalg import FpAb, intmat, iso_odd, odd_part
from scgroups.rings import parse_ring
from scgroups.scissors import context
from scgroups.valuation import (
    qclass,
    specialization,
    sym_act,
    sym_dbl_bracket,
    sym_g,
    sym_gen,
    sym_y_relation,
)

PRIMES_11_97 = [p for p in range(11, 98) if all(p % i for i in range(2, p))]
FIELD_LIST = [11, 13, 17, 19, 23, 25, 49, 121]
SPECIAL_RINGS = ["gf(7)", "gf(11)", "gf(13)", "z/7^2", "z/11^2", "gf(5)[t]/t^2"]
SEED = 20240

_now = time.time


def report(n: int, ok: bool, text: str):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {text}", flush=True)
    assert ok, f"criterion {n}: {text}"


def test_criterion_01_pre_bloch_orders():
    t0 = _now()
    ok = True
    for p in PRIMES_11_97:
        grp = context(f"gf({p})").pre_bloch()
        expect = odd_part(p + 1)
        want = (expect,) if expect > 1 else ()
        if grp.free_rank != 0 or grp.odd_invariants() != want:
            ok = False
    elapsed = _now() - t0
    report(
        1,
        ok and elapsed < 60,
        f"P(GF(p)) odd part is Z/(p+1)' for 11 <= p <= 97 in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_refined_classical_agreement():
    ok = True
    for q in FIELD_LIST:
        ctx = context(f"gf({q})")
        groups = [ctx.rp1(), ctx.rb(), ctx.bloch(), ctx.pre_bloch()]
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if not iso_odd(groups[i], groups[j]):
                    ok = False
    report(2, ok, "rp1, rb, bloch, pre_bloch pairwise iso_odd on the field list")


def report_suite(n: int, suite, labels, text: str):
    """Report criterion n from a verify suite run on each ring, with the
    lines of any failing checks."""
    failed = [c.line() for label in labels for c in suite(parse_ring(label)) if not c.ok]
    report(n, not failed, "; ".join([text] + failed))


def test_criterion_03_idempotent_theorem():
    report_suite(
        3,
        verify.suite_idempotent,
        [f"gf({q})" for q in FIELD_LIST] + ["z/11^2"],
        "e+RP~ iso_odd rp1 (e+RP too when <-1> != 1), RP_1 -> RP~_1 odd "
        "iso, G trivial on RB on the field list and Z/121",
    )


def test_criterion_04_special_element_identities():
    report_suite(
        4,
        verify.suite_special_elements,
        SPECIAL_RINGS,
        "key identity, Cor 1.8, 3C/6C, cocycles, base points, lambda_1(psi) "
        "exhaustive over GF(7), GF(11), GF(13), Z/49, Z/121, GF(5)[t]/t^2",
    )


def test_criterion_05_c_order():
    ok = True
    for p in PRIMES_11_97:
        ctx = context(f"gf({p})")
        order = ctx.pre_bloch().element_order(ctx.pb_vector(ctx.c_const()))
        if order != math.gcd(6, (p + 1) // 2):
            ok = False
    report(5, ok, "order of c in P(GF(p)) is gcd(6, (p+1)/2) for 11 <= p <= 97")


def test_criterion_06_slr_exact():
    report_suite(
        6,
        verify.suite_slr,
        ["z/7^2", "z/11^2", "gf(5)[t]/t^2", "gf(7)[t]/t^2"],
        "RP~(B)/L_B = RP~(k) with equal integral invariant factors for "
        "B in {Z/49, Z/121, GF(5)[t]/t^2, GF(7)[t]/t^2}",
    )


def test_criterion_07_orbit_complex_identifications():
    report_suite(
        7,
        verify.suite_witt,
        [f"gf({q})" for q in (7, 11, 13, 25)],
        "E2 page: position 1 = 0, position 2 = I(k), position 3 = rp1 odd, "
        "and I^2 = 0 for q in {7, 11, 13, 25}",
    )


def test_criterion_08_specialization_suite():
    ok = True
    for p in (11, 13):
        ctx = specialization(p)
        rng = random.Random(SEED + p)
        for _ in range(500):
            while True:
                a = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
                b = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
                if 0 in (a, b) or 1 in (a, b) or a == b or a / b in (0, 1):
                    continue
                break
            cls = qclass(Fraction(rng.randint(1, 60)))
            if not ctx.s_v(sym_act({cls: 1}, sym_y_relation(a, b))).is_zero():
                ok = False
        sub = ctx.sc.tilde().rp1_tilde
        coords = []
        for abar in ctx.sc.W:
            img = ctx.delta_pi(sym_act(sym_dbl_bracket(p), sym_g(Fraction(int(abar)))))
            c = sub.solve(img.vec)
            if c is None:
                ok = False
                continue
            coords.append(c)
        quot = FpAb(sub.group.ngens, np.vstack([sub.group.rel_basis, intmat(coords)]))
        if not quot.odd_order_trivial():
            ok = False
        for _ in range(200):
            x = {}
            for _ in range(3):
                u = Fraction(rng.randint(2, 50))
                t = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                if t in (0, 1):
                    continue
                x = add(
                    x,
                    scale(
                        rng.choice([-2, -1, 1, 2]),
                        sym_act(sym_dbl_bracket(u), sym_gen(t)),
                    ),
                )
            lhs = ctx.eta_pi_prime(x)
            rhs = ctx.p_tilde_scale(-2, ctx.eta_pi(x))
            if not ctx.p_tilde.contains(lhs.vec - rhs.vec):
                ok = False
        for _ in range(100):
            u = rng.randint(2, 40)
            if u % p == 0:
                # <u> is then not a unit square class and delta_pi sees it
                continue
            t = Fraction(rng.randint(2, 30))
            if not ctx.delta_pi(sym_act(sym_dbl_bracket(u), sym_gen(t))).is_zero():
                ok = False
    report(
        8,
        ok,
        "S_v kills 500 seeded Y relations, delta images span rp1 odd, "
        "eta' = -2 eta on 200 samples, delta_pi dies on unit classes (p = 11, 13)",
    )


def test_criterion_09_tree_amalgam_suite():
    ok = True
    for p in (5, 7, 11):
        for r in range(5):
            if len(tree.ball(p, r)[0]) != tree.ball_size_formula(p, r):
                ok = False
        if not tree.ball_is_tree(p, 4 if p < 11 else 3):
            ok = False
        rng = random.Random(SEED + p)
        verts = list(tree.ball(p, 2)[0])
        from scgroups.valuation import vp

        for _ in range(1000):
            m = tree.mat2(
                Fraction(rng.randint(-10, 10), p ** rng.randint(0, 2)),
                Fraction(rng.randint(-10, 10), p ** rng.randint(0, 2)),
                Fraction(rng.randint(-10, 10), p ** rng.randint(0, 2)),
                Fraction(rng.randint(-10, 10), p ** rng.randint(0, 2)),
            )
            if tree.mat_det(m) == 0:
                continue
            v = rng.choice(verts)
            if tree.distance(v, tree.act(m, v, p), p) % 2 != vp(tree.mat_det(m), p) % 2:
                ok = False
        for _ in range(500):
            g = tree.IDENT
            for _ in range(rng.randint(1, 6)):
                x = Fraction(rng.randint(-8, 8), p ** rng.randint(0, 4))
                e = (
                    tree.mat2(1, x, 0, 1)
                    if rng.random() < 0.5
                    else tree.mat2(1, 0, x, 1)
                )
                g = tree.mat_mul(g, e)
            w = tree.amalgam_decompose(g, p)
            if not w.validate(g):
                ok = False
            d = tree.distance(tree.lambda0(), tree.act(g, tree.lambda0(), p), p)
            if len(w) > d + 1:
                ok = False
    report(
        9,
        ok,
        "ball sizes and acyclicity (r <= 4), parity law on 1000 pairs, "
        "amalgam round-trips on 500 elements for p in {5, 7, 11}",
    )


def test_criterion_10_global_tables():
    ok = all(globalinv.pbar_cross_check(p) for p in PRIMES_11_97)
    if globalinv.k3_image_order(globalinv.RATIONALS, 11) != 6:
        ok = False
    if globalinv.k3_image_order(globalinv.RATIONALS, 13) != 1:
        ok = False
    report(
        10,
        ok,
        "pbar cross-check for 11 <= p <= 97; k3 image orders at 11 and 13 are 6 and 1",
    )
