"""Self-test of the benchmark's checks: each must pass on the program as it
is and fail on a wrong answer.  Small inputs keep it to a few seconds:

    python3 -m pytest -q bench/test_checks.py
"""

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def run_round(wl, patch=None):
    prog = workloads.load_program()
    state = wl.setup(prog)
    inputs = wl.inputs(prog, state, seed=7)
    if patch:
        patch(prog)
    res = wl.round(prog, state, inputs, workloads.SpeedClock())
    return sum(1 for _, ok in res.checks if not ok), len(res.checks)


def small_groups():
    return workloads.Groups(
        fields=(("gf(13)", 13),),
        lb_rings=("z/5^2",),
        primes=(11, 13),
        oracle_fields=("gf(13)",),
    )


def test_helpers_reject_wrong_answers():
    assert checks.is_divisibility_chain((2, 6))
    assert not checks.is_divisibility_chain((4, 6))
    assert not checks.is_divisibility_chain((1, 6))
    assert checks.iso_after_inverting_2((0, (2, 6)), (0, (3,)))
    assert not checks.iso_after_inverting_2((0, (6,)), (0, (2,)))
    assert not checks.iso_after_inverting_2((1, (3,)), (0, (3,)))
    rows = [[2, 0, 0], [0, 6, 0]]
    assert checks.oracle_signature(rows, 3) == (1, (2, 6))
    assert checks.oracle_signature(rows, 3) != (1, (2, 12))


def test_ball_checks_reject_a_wrong_ball():
    prog = workloads.load_program()
    depth, edges = prog.tree.ball(3, 2)
    assert all(ok for _, ok in checks.ball_checks(depth, edges, 3, 2))
    assert not all(ok for _, ok in checks.ball_checks(depth, edges[:-1], 3, 2))
    short = {v: d for v, d in depth.items() if d < 2}
    assert not all(ok for _, ok in checks.ball_checks(short, edges, 3, 2))


def test_amalgam_check_rejects_a_wrong_word():
    prog = workloads.load_program()
    p = 5
    g = ((Fraction(1), Fraction(3, 25)), (Fraction(2), Fraction(1) + Fraction(6, 25)))
    word = list(prog.tree.amalgam_decompose(g, p).factors)
    assert checks.amalgam_word_ok(word, g, p)
    m, side = word[0]
    assert not checks.amalgam_word_ok([(m, 1 - side)] + word[1:], g, p)
    (a, b), (c, d) = m
    assert not checks.amalgam_word_ok([(((a, b + 1), (c, d)), side)] + word[1:], g, p)
    assert not checks.amalgam_word_ok(word + word[-1:], g, p)


def test_lambda1_functional_kills_every_relation_of_rp_tilde():
    prog = workloads.load_program()
    sp = prog.valuation.SpecializationContext(11)
    rels = sp.rp_tilde.rels
    assert all(checks.lambda1_functional(r, sp.sc.W, 11) == 0 for r in rels)
    n = len(sp.sc.W)
    values = [checks.lambda1_functional([int(i == j) for j in range(2 * n)], sp.sc.W, 11) for i in range(2 * n)]
    assert any(values)


def test_groups_round_passes_and_fails_on_a_wrong_invariant_factor():
    assert run_round(small_groups())[0] == 0

    def wrong_factor(prog):
        orig = prog.linalg.FpAb.invariant_factors

        def invariant_factors(self):
            return tuple(orig(self)) + (3,)

        prog.linalg.FpAb.invariant_factors = invariant_factors

    failed, attempted = run_round(small_groups(), wrong_factor)
    assert 0 < failed < attempted


def test_queries_round_fails_when_membership_always_says_zero():
    wl = workloads.Queries(ring="z/5^2", prime=11, rp_pos=20, rp_neg=20, sv=20, sv_neg=10, c_mult=10, c_order=10)
    assert run_round(wl)[0] == 0

    def always_zero(prog):
        prog.linalg.FpAb.contains = lambda self, v: True

    failed, _ = run_round(wl, always_zero)
    # every negative control and every c multiple with k % 6 != 0 fails
    assert failed >= 20 + 10


def test_tree_round_fails_on_a_wrong_word():
    wl = workloads.Tree(ball_p=3, radius=2, word_primes=(5,), words_per_prime=5)
    assert run_round(wl)[0] == 0

    def drop_last_factor(prog):
        orig = prog.tree.amalgam_decompose

        def decompose(g, p):
            w = orig(g, p)
            w.factors = w.factors[:-1] or [(prog.tree.mat2(2, 0, 0, 1), 0)]
            return w

        prog.tree.amalgam_decompose = decompose

    failed, _ = run_round(wl, drop_last_factor)
    assert failed == 5


def test_tracer_rebinds_every_alias_and_counts_repeat():
    import json

    import spans

    tracer = spans.Tracer()
    prog = workloads.load_program(tracer)
    assert prog.scissors.hnf_rows is prog.linalg.hnf_rows
    assert prog.witt.hnf_rows is prog.linalg.hnf_rows
    assert hasattr(prog.linalg.hnf_rows, "__wrapped__")

    wl = workloads.Tree(ball_p=3, radius=2, word_primes=(5,), words_per_prime=5)
    inputs = wl.inputs(prog, wl.setup(prog), seed=3)
    totals = []
    for _ in range(2):
        mark = len(tracer.spans)
        wl.round(prog, None, inputs, workloads.SpeedClock())
        tracer.mark("round", mark)
        totals.append(tracer.phase_totals(mark, len(tracer.spans)))
    assert totals[0]["calls"] == totals[1]["calls"]
    assert totals[0]["calls"]["tree.neighbors"] > 0
    assert all(v > -1e-6 for v in totals[0]["self"].values())

    names = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    assert names == [n for n, _, _ in spans.LAYER_METRICS] + ["trace.round_s"]
    assert set(tracer.layer_metrics()) == {n for n, _, _ in spans.LAYER_METRICS}
