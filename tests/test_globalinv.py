import math

import pytest

from scgroups.globalinv import (
    RATIONALS,
    GlobalFieldDesc,
    k3_image_order,
    pbar_cross_check,
    pbar_order,
    pbar_table,
)
from scgroups import rings, scissors
from scgroups.linalg import odd_part
from scgroups.rings import is_prime


def test_k3_image_order_examples():
    assert k3_image_order(RATIONALS, 11) == 6
    assert k3_image_order(RATIONALS, 13) == 1
    assert k3_image_order(RATIONALS, 16, char2=True) == 1


def test_k3_image_order_hypothesis_violation():
    with pytest.raises(ValueError, match="divides w2"):
        k3_image_order(RATIONALS, 3)
    with pytest.raises(ValueError, match="char2"):
        k3_image_order(RATIONALS, 16)
    with pytest.raises(ValueError, match="characteristic 2"):
        k3_image_order(RATIONALS, 9, char2=True)


def test_k3_image_divides():
    for q in (11, 13, 17, 19, 23, 25, 49):
        assert ((q + 1) // 2) % k3_image_order(RATIONALS, q) == 0
    assert 17 % k3_image_order(RATIONALS, 16, char2=True) == 0


def test_pbar_order_examples():
    r = pbar_order(RATIONALS, 11)
    assert (r.p_plus_1_odd, r.killed_order, r.pbar_odd_order) == (3, 3, 1)
    r = pbar_order(RATIONALS, 13)
    assert (r.p_plus_1_odd, r.killed_order, r.pbar_odd_order) == (7, 1, 7)
    r = pbar_order(RATIONALS, 29)
    assert (r.p_plus_1_odd, r.killed_order, r.pbar_odd_order) == (15, 3, 5)


def test_pbar_internal_consistency_sweep():
    for r in pbar_table(11, 97):
        assert r.pbar_odd_order * r.killed_order == r.p_plus_1_odd


def test_pbar_table_lists_the_primes_from_11():
    assert [r.p for r in pbar_table(11, 20000)] == [p for p in range(11, 20001) if is_prime(p)]
    assert [r.p for r in pbar_table(-5, 30)] == [11, 13, 17, 19, 23, 29]
    assert pbar_table(0, 10) == pbar_table(-1, 1) == []


def test_pbar_guards():
    with pytest.raises(ValueError):
        pbar_order(RATIONALS, 7)
    with pytest.raises(ValueError):
        pbar_order(RATIONALS, 12)


@pytest.mark.parametrize("p", [11, 13, 17])
def test_pbar_cross_check(p):
    assert pbar_cross_check(p)


def test_a_sweep_prime_builds_one_ring(monkeypatch):
    # P(GF(p)), the order of c in it and the cross-check, from a cold
    # cache: the context is looked up by the label read from "gf(p)", and
    # the cross-check finds it there, so GF(p) is built once
    built = []
    init = rings.Ring.__init__

    def counted(ring):
        built.append(ring.label)
        init(ring)

    scissors._context_by_label.cache_clear()
    monkeypatch.setattr(rings.Ring, "__init__", counted)
    ctx = scissors.context("gf(53)")
    pgrp = ctx.pre_bloch()
    assert pgrp.invariant_factors() == (54,)
    assert pgrp.element_order(ctx.pb_vector(ctx.c_const())) == 3
    assert pbar_cross_check(53)
    assert built == ["gf(53)"]


def test_custom_w2():
    desc = GlobalFieldDesc(kind="user", w2=48)
    r = pbar_order(desc, 11)
    assert r.killed_order == odd_part(math.gcd(48, 12))


def test_odd_part_examples():
    assert odd_part(12) == 3
    assert odd_part(24) == 3
    assert odd_part(7) == 7
