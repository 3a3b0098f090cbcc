"""Golden digests of the groups the paper's sequences are built from, and a
structural check that building them makes no dense round trip.

The digests are sha256 of the canonical bases (``rel_basis`` with its
generator count, and ``SubgroupPres.lift``) as the dense-basis
implementation of ``linalg`` computed them; any refactor of the exact core
must reproduce them byte for byte."""

import hashlib

import numpy as np
import pytest

from scgroups import groupring, linalg, orbitcomplex, scissors, valuation, witt
from scgroups.rings import parse_ring
from scgroups.scissors import ScissorsContext


def _ints(mat):
    return [[int(x) for x in r] for r in mat]


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


GOLDEN_BASES = {
    "gf(49)": {
        "P": "4a2d7ceabc9b8cfc5351c99878085cb2f4f4197c06c283f44ebc52b5599413b2",
        "B": "c8660ed9293273ae34ee77c37c111f51c77b023573c0020309139a03b6759d83",
        "RP1": "c079517ad93581f64d47034693c4fe614147fc41f2e8a6865508ec680d6b3842",
        "RB": "c079517ad93581f64d47034693c4fe614147fc41f2e8a6865508ec680d6b3842",
        "RP1~": "bb23655af1ea5f52c6a345111c7826c9d1b5420fd95cf4c98db079194b75b068",
        "P~": "c7a7bcd5995ec9f6b34a1f89562348fda9b5952358cd304e28b930e62ccb0761",
        "RP~": "bb23655af1ea5f52c6a345111c7826c9d1b5420fd95cf4c98db079194b75b068",
        "K2": "1cb70e78da386e77a6c2cac0b74876fb0e62d2b433e9e68bef062a24757651dd",
        "S2~": "1cb70e78da386e77a6c2cac0b74876fb0e62d2b433e9e68bef062a24757651dd",
        "e+RP~": "bb23655af1ea5f52c6a345111c7826c9d1b5420fd95cf4c98db079194b75b068",
        "I": "36fb7d4e1e43a60ddcc9fdc6ce680f50455369461f1112902ca0c7ae15223b7d",
        "I2": "1cb70e78da386e77a6c2cac0b74876fb0e62d2b433e9e68bef062a24757651dd",
        "E2[1]": "1cb70e78da386e77a6c2cac0b74876fb0e62d2b433e9e68bef062a24757651dd",
        "E2[2]": "36fb7d4e1e43a60ddcc9fdc6ce680f50455369461f1112902ca0c7ae15223b7d",
        "E2[3]": "c079517ad93581f64d47034693c4fe614147fc41f2e8a6865508ec680d6b3842",
        "B lift": "ce9e22aec41440a38a00b15fa88800ee80f9a9ec7290d34ae9f781691da3ba80",
        "RP1 lift": "3b39b129b380153de793ceb2c63860f0183e082c11864161b084176966b7140a",
        "RB lift": "3b39b129b380153de793ceb2c63860f0183e082c11864161b084176966b7140a",
        "RP1~ lift": "6ed579c6e1d449ecaa15addd50a201fcd2112b42b2ee05993b7e31de7bf5fcdf",
    },
    "z/7^2": {
        "P": "201dd8e4fc4747ee72912039887bb61b7524bb299262033923d506d685a83ece",
        "B": "0891934a71dd6350d7375a72c7b2c43286bf5755db30394aa460bc04ac090e3e",
        "RP1": "ac1686cb7dc31f20f6a756ec79d27c47cb03c5533022450a1b12ec0428bc3a29",
        "RB": "ac1686cb7dc31f20f6a756ec79d27c47cb03c5533022450a1b12ec0428bc3a29",
        "RP1~": "11dcf5a2da9c230995dc3148474466db31529c7addb79e250ad37976100ac54c",
        "P~": "d8b41861ce61fad77441142b00b55cebdf0aa07bef9119f12e267f8ad89fd714",
        "RP~": "2ebabe9aabac8444a990d5bfc9f2eebdf8949544967e2d7620ec6510c5c12d17",
        "K2": "1cb70e78da386e77a6c2cac0b74876fb0e62d2b433e9e68bef062a24757651dd",
        "S2~": "36fb7d4e1e43a60ddcc9fdc6ce680f50455369461f1112902ca0c7ae15223b7d",
        "e+RP~": "55e8c426f35b5bfd5043f9db03a2c1697c4e4fdb52f639eea2d129020465179e",
        "I": "36fb7d4e1e43a60ddcc9fdc6ce680f50455369461f1112902ca0c7ae15223b7d",
        "I2": "1cb70e78da386e77a6c2cac0b74876fb0e62d2b433e9e68bef062a24757651dd",
        "E2[1]": "1cb70e78da386e77a6c2cac0b74876fb0e62d2b433e9e68bef062a24757651dd",
        "E2[2]": "36fb7d4e1e43a60ddcc9fdc6ce680f50455369461f1112902ca0c7ae15223b7d",
        "E2[3]": "ac1686cb7dc31f20f6a756ec79d27c47cb03c5533022450a1b12ec0428bc3a29",
        "L_B quotient": "5a3fd47643295b1b2ab64db596796fac7c098e1f2d44f16173171f6a941899ab",
        "B lift": "8d9f0234f87a7d5c385f2becad88a9fe3bdd338f150cb16998f8a390cbd7a6a6",
        "RP1 lift": "56c2d16e7f4c160ee9f32a8dbc6fe17249a740942cf8a6c37099c701ec383398",
        "RB lift": "56c2d16e7f4c160ee9f32a8dbc6fe17249a740942cf8a6c37099c701ec383398",
        "RP1~ lift": "56c2d16e7f4c160ee9f32a8dbc6fe17249a740942cf8a6c37099c701ec383398",
    },
}


# sha256 of the relation rows as given (``rels`` with its generator
# count) of P and of RP's flat module: one row per admissible pair in
# lexicographic order, and for RP each pair's rows in translate order.
# The canonical bases above do not see a reordering of these rows.
GOLDEN_RELATION_ROWS = {
    "gf(49)": {
        "P": "f8464a3df3f3c78e935aad2f972305af03398bb1018d2656909c4533ff027fe9",
        "RP": "3915ece6a321894ee18a4ffdbe66c3430a1b1d67befa930c41310631e8de62ea",
    },
    "z/7^2": {
        "P": "dbeb7c0d3daeac539781c82066cf1e0f4f0cf807655259af9e93c5ffb11eecad",
        "RP": "a86d55f12eda54a9bacf9852490b7309bd98ec507ef9a689adae191cc32c1aa2",
    },
    # characteristic 2 (-1 = 1), |G| = 2 with a unit group Z/20, and
    # |G| = 8 with the non-cyclic unit group Z/14 + Z/2 + Z/2
    "gf(2^3)": {
        "P": "c6a1946ef0d5f3b2ed45e84005e6736ae0548e9059ee9cabda0beb9033c300a0",
        "RP": "c6a1946ef0d5f3b2ed45e84005e6736ae0548e9059ee9cabda0beb9033c300a0",
    },
    "gf(5)[t]/t^2": {
        "P": "4a4e5230409b355650a43d3e08866edd0123a0bbdb23a1c1642b62c6f5e91991",
        "RP": "5ea0a9fe46f674119b12cdaf37a3930c3053baf3a95fc28a630fb169e7c54df1",
    },
    "gf(2^3)[t]/t^2": {
        "P": "f0d111b1bfdb0e06eaf8706194a43b0d5424caf0d5b437f602ea82339bfecdd8",
        "RP": "4ec4ee9116e2a5f9d0002ec319f72df991bf02d072ce2dfcb94aa4b79328bf20",
    },
}


@pytest.mark.parametrize("label", list(GOLDEN_RELATION_ROWS))
def test_relation_rows_match_golden_digests(label):
    ctx = ScissorsContext(parse_ring(label))
    got = {name: _digest((g.ngens, _ints(g.rels))) for name, g in (("P", ctx.pre_bloch()), ("RP", ctx.rp_flat()))}
    assert got == GOLDEN_RELATION_ROWS[label]


def group_digests(label: str) -> dict:
    ctx = ScissorsContext(parse_ring(label))
    tb = ctx.tilde()
    subs = {"B": ctx.bloch_subgroup(), "RP1": ctx.rp1_subgroup(), "RB": ctx.rb_subgroup(), "RP1~": tb.rp1_tilde}
    wctx = witt.WittContext(ctx.ring)
    row = orbitcomplex.build_row_complex(ctx.ring)
    groups = {
        "P": ctx.pre_bloch(),
        **{name: sub.group for name, sub in subs.items()},
        "P~": tb.p_tilde,
        "RP~": tb.rp_tilde,
        "K2": ctx.k2_cokernel(),
        "S2~": ctx.s2_tilde(),
        "e+RP~": ctx.e_plus_rp_tilde(),
        "I": wctx.fundamental_ideal(),
        "I2": wctx.i_squared(),
        **{f"E2[{p}]": row.homology_at(p) for p in (1, 2, 3)},
    }
    if ctx.ring.kind != "field":
        groups["L_B quotient"] = ctx.l_submodule()["quotient"]
    out = {name: _digest((g.ngens, _ints(g.rel_basis))) for name, g in groups.items()}
    out.update({f"{name} lift": _digest(_ints(sub.lift)) for name, sub in subs.items()})
    return out


@pytest.mark.parametrize("label", list(GOLDEN_BASES))
def test_group_bases_match_golden_digests(label):
    assert group_digests(label) == GOLDEN_BASES[label]


def _refuse(*args, **kwargs):
    raise AssertionError("dense round trip inside the exact core")


@pytest.mark.parametrize("label", list(GOLDEN_BASES))
def test_group_builds_make_no_dense_round_trip(monkeypatch, label):
    # the builds read only invariants, so no dense basis may be made: the
    # exact core keeps sparse rows from the relations to the quotient map,
    # and the relation and map rows are built sparse outside it
    monkeypatch.setattr(linalg, "_dense", _refuse)
    monkeypatch.setattr(np, "vstack", _refuse)
    monkeypatch.setattr(np, "hstack", _refuse)
    for module in (scissors, groupring, orbitcomplex, witt, valuation):
        for name in ("zeros", "intmat", "identity", "_dense"):
            monkeypatch.setattr(module, name, _refuse, raising=False)
    ctx = ScissorsContext(parse_ring(label))
    groups = [ctx.pre_bloch(), ctx.bloch(), ctx.rp1(), ctx.rb(), ctx.tilde().rp1_tilde.group]
    wctx = witt.WittContext(ctx.ring)
    row = orbitcomplex.build_row_complex(ctx.ring)
    groups += [wctx.fundamental_ideal(), wctx.i_squared()] + [row.homology_at(p) for p in (1, 2, 3)]
    assert orbitcomplex.chain_identities_hold(row)
    if ctx.ring.kind != "field":
        res = ctx.l_submodule()
        assert res["kernel_ok"] and res["match"]
        groups.append(res["quotient"])
    for g in groups:
        assert g.free_rank >= 0 and all(d > 1 for d in g.invariant_factors())
