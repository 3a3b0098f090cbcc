"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  All arithmetic is exact; every assertion is an equality unless the
comparison is explicitly an odd-part isomorphism.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

from scgroups import globalinv, verify
from scgroups.linalg import iso_odd, odd_part
from scgroups.rings import parse_ring
from scgroups.scissors import context

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


def report_suite(n: int, checks, text: str):
    """Report criterion n from a list of verify Check records, with the
    lines of any failing checks."""
    failed = [c.line() for c in checks if not c.ok]
    report(n, not failed, "; ".join([text] + failed))


def on_rings(suite, labels):
    """The checks of a ring suite run on each ring descriptor."""
    return [c for label in labels for c in suite(parse_ring(label))]


def test_criterion_03_idempotent_theorem():
    report_suite(
        3,
        on_rings(verify.suite_idempotent, [f"gf({q})" for q in FIELD_LIST] + ["z/11^2"]),
        "e+RP~ iso_odd rp1 (e+RP too when <-1> != 1), RP_1 -> RP~_1 odd "
        "iso, G trivial on RB on the field list and Z/121",
    )


def test_criterion_04_special_element_identities():
    report_suite(
        4,
        on_rings(verify.suite_special_elements, SPECIAL_RINGS),
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
        on_rings(verify.suite_slr, ["z/7^2", "z/11^2", "gf(5)[t]/t^2", "gf(7)[t]/t^2"]),
        "RP~(B)/L_B = RP~(k) with equal integral invariant factors for "
        "B in {Z/49, Z/121, GF(5)[t]/t^2, GF(7)[t]/t^2}",
    )


def test_criterion_07_orbit_complex_identifications():
    report_suite(
        7,
        on_rings(verify.suite_witt, [f"gf({q})" for q in (7, 11, 13, 25)]),
        "E2 page: position 1 = 0, position 2 = I(k), position 3 = RP_1 (d4 reduces "
        "to RP's block-form basis), and I^2 = 0 for q in {7, 11, 13, 25}",
    )


def test_criterion_08_specialization_suite():
    report_suite(
        8,
        [
            c
            for p in (11, 13)
            for c in verify.suite_specialize(p, seed=SEED + p, samples=500, sweep_bound=3)
        ],
        "S_v kills 500 seeded Y relations and the Y sweep, delta_0 is R-linear, "
        "delta images span rp1 odd, eta' = -2 eta on 500 samples, delta_pi "
        "dies on unit classes (p = 11, 13)",
    )


def test_criterion_09_tree_amalgam_suite():
    report_suite(
        9,
        [c for p in (5, 7, 11) for c in verify.suite_tree(p, seed=SEED + p, samples=1000)],
        f"ball sizes and acyclicity (r <= {verify.TREE_SUITE_RADIUS}), parity law "
        "on 1000 pairs, amalgam round-trips on 500 elements for p in {5, 7, 11}",
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
