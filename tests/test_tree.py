import copy
import hashlib
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scgroups import cli, tree
from scgroups.tree import (
    G0_SIDE,
    G1_SIDE,
    IDENT,
    VertexKey,
    act,
    amalgam_decompose,
    ball,
    ball_is_tree,
    ball_size_formula,
    base_coset,
    canonical_vertex,
    distance,
    dot_output,
    epsilon,
    g_pi,
    gamma_membership,
    in_g0,
    in_g1,
    lambda0,
    lambda1,
    lambda1_coset,
    mat2,
    mat_det,
    mat_inv,
    mat_mul,
    mat_scale,
    neighbors,
    standard_decomposition,
    step_toward,
)
from scgroups.valuation import vp


def test_canonical_vertex_examples():
    p = 7
    assert canonical_vertex(mat2(1, 0, 0, 1), p) == VertexKey(0, Fraction(0))
    assert canonical_vertex(mat2(p, 0, 0, 1), p) == VertexKey(1, Fraction(0))
    assert canonical_vertex(mat2(p, 0, 0, p), p) == VertexKey(0, Fraction(0))
    assert canonical_vertex(mat2(p * p, 0, 0, 1), p) == VertexKey(2, Fraction(0))


def test_canonical_vertex_is_class_invariant():
    rng = random.Random(31)
    p = 5
    for _ in range(80):
        m = mat2(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        if mat_det(m) == 0:
            continue
        key = canonical_vertex(m, p)
        # column operations over Z_(p) and homotheties preserve the class
        u = mat2(1, rng.randint(-4, 4), 0, 1)
        assert canonical_vertex(mat_mul(m, u), p) == key
        sw = mat2(0, 1, 1, 0)
        assert canonical_vertex(mat_mul(m, sw), p) == key
        assert canonical_vertex(mat_scale(Fraction(p), m), p) == key
        assert canonical_vertex(mat_scale(Fraction(3), m), p) == key
        # round trip through the key's own basis matrix
        assert canonical_vertex(key.matrix(p), p) == key


def _distance_by_matrix(m1_inv, m2, p):
    """Oracle for the closed form: |difference of the p-valuations of the
    two invariant factors| of the change-of-basis matrix m1^-1 m2 between
    the key bases."""
    n = mat_mul(m1_inv, m2)
    d1 = min(vp(x, p) for row in n for x in row if x != 0)
    d2 = vp(mat_det(n), p) - d1
    return abs(d2 - d1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_distance_and_step_on_ball_pairs(p):
    verts = list(ball(p, 3)[0])
    nbrs = {v: neighbors(v, p) for v in verts}
    mats = {v: v.matrix(p) for v in verts}
    for v in verts:
        m_inv = mat_inv(mats[v])
        for t in verts:
            d = distance(v, t, p)
            assert d == _distance_by_matrix(m_inv, mats[t], p)
            if d:
                u = step_toward(v, t, p)
                assert u in nbrs[v]
                assert distance(u, t, p) == d - 1


@pytest.mark.parametrize("p", [p for p in range(2, 40) if all(p % i for i in range(2, p))])
def test_cosets_carry_the_edge_onto_each_neighbor(p):
    for v in neighbors(lambda0(), p):
        h = base_coset(v)
        assert in_g0(h, p) and act(h, lambda1(), p) == v
    for v in neighbors(lambda1(), p):
        q = lambda1_coset(v, p)
        assert in_g1(q, p) and act(q, lambda0(), p) == v


def test_step_toward_refuses_its_own_vertex():
    v = VertexKey(2, 1)
    assert step_toward(v, lambda0(), 3) == VertexKey(1, 1)
    with pytest.raises(ValueError, match="toward itself"):
        step_toward(v, v, 3)


def test_non_canonical_key_refused():
    # (1, 5) at p = 3 is the class (1, 2): its c lies outside [0, 3)
    v = VertexKey(1, 5)
    for call in (
        lambda: neighbors(v, 3),
        lambda: distance(v, lambda0(), 3),
        lambda: step_toward(v, lambda0(), 3),
        lambda: act(IDENT, v, 3),
    ):
        with pytest.raises(ValueError, match=r"key \(1,5\) is not canonical"):
            call()
    assert neighbors(VertexKey(1, 2), 3)[0] == VertexKey(2, 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    a=st.integers(-6, 6),
    k=st.integers(0, 6),
    n=st.integers(-(10**6), 10**6),
)
def test_canonical_keys_accepted_and_shifted_ones_refused(p, a, k, n):
    v = canonical_vertex(mat2(Fraction(p) ** a, Fraction(n, p**k), 0, 1), p)
    assert tree._key_out(tree._key_in(v, p), p) == v
    assert distance(v, v, p) == 0 and len(neighbors(v, p)) == p + 1
    # c + p^a names the same class but lies outside [0, p^a)
    shifted = VertexKey(v.a, v.c + Fraction(p) ** v.a)
    assert canonical_vertex(shifted.matrix(p), p) == v
    with pytest.raises(ValueError, match="not canonical"):
        tree._key_in(shifted, p)
    with pytest.raises(ValueError, match="not canonical"):
        neighbors(shifted, p)


def test_distance_examples():
    p = 7
    assert distance(lambda0(), lambda1(), p) == 1
    assert distance(lambda0(), canonical_vertex(mat2(p * p, 0, 0, 1), p), p) == 2
    v = VertexKey(3, Fraction(5))
    assert distance(v, v, p) == 0


def test_distance_symmetry():
    p = 5
    verts = list(ball(p, 2)[0])
    for v in verts:
        for u in verts:
            assert distance(u, v, p) == distance(v, u, p)


def test_neighbors_counts():
    assert len(neighbors(lambda0(), 7)) == 8
    n11 = neighbors(lambda1(), 11)
    assert len(n11) == 12
    assert lambda0() in n11


def test_neighbor_symmetry():
    p = 5
    for v in list(ball(p, 1)[0]):
        for u in neighbors(v, p):
            assert v in neighbors(u, p)


def _neighbors_by_matrix(v, p):
    """Oracle for the closed form: canonical keys of the index-p
    sublattices, found by multiplying out the basis matrices."""
    m = v.matrix(p)
    out = [canonical_vertex(mat_mul(m, mat2(p, j, 0, 1)), p) for j in range(p)]
    out.append(canonical_vertex(mat_mul(m, mat2(1, 0, 0, p)), p))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_neighbors_closed_form_on_ball(p):
    for v in ball(p, 3)[0]:
        assert neighbors(v, p) == _neighbors_by_matrix(v, p)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    a=st.integers(-6, 6),
    k=st.integers(0, 6),
    n=st.integers(-(10**6), 10**6),
)
def test_neighbors_closed_form_on_drawn_keys(p, a, k, n):
    # the class of (p^a, 0), (n / p^k, 1): a may be negative and c fractional
    v = canonical_vertex(mat2(Fraction(p) ** a, Fraction(n, p**k), 0, 1), p)
    assert v.a == a
    assert neighbors(v, p) == _neighbors_by_matrix(v, p)


@pytest.mark.parametrize("p", [2, 7, 1000000007])
def test_vertex_keys_are_values(p):
    assert VertexKey(1, 0) == VertexKey(1, Fraction(0)) == lambda1()
    assert hash(VertexKey(1, 0)) == hash(VertexKey(1, Fraction(0)))
    assert VertexKey(-2, Fraction(6, 4)) == VertexKey(-2, Fraction(3, 2))
    v = VertexKey(2, Fraction(3, p))
    assert (v.a, v.c) == (2, Fraction(3, p))
    assert str(v) == f"(2,3/{p})" and str(lambda1()) == "(1,0)"
    assert repr(v) == f"VertexKey(a=2, c={Fraction(3, p)!r})"
    assert v.matrix(p) == mat2(p**2, Fraction(3, p), 0, 1)
    # one class reached four ways: canonical_vertex, act, step_toward and
    # neighbors all give equal keys with equal hashes
    m = mat2(p**2, Fraction(3, p), 0, 1)
    u = act(m, lambda0(), p)
    w = VertexKey(1, 0)
    while w.a < 2:
        w = step_toward(w, u, p)
    keys = [canonical_vertex(m, p), u, w, v]
    if p < 100:
        parent = VertexKey(1, Fraction(3, p) % p)
        keys += [k for k in neighbors(parent, p) if k.a == 2 and k.c == Fraction(3, p)]
    assert len(keys) == 4 + (p < 100)
    assert len(set(keys)) == 1 and len({hash(k) for k in keys}) == 1
    for k in keys:
        for other in (pickle.loads(pickle.dumps(k)), copy.copy(k), copy.deepcopy(k)):
            assert type(other) is VertexKey and other == k and hash(other) == hash(k)
            assert (other.a, other.c) == (k.a, k.c)


# sha256 of the CLI's output, taken when neighbors built its keys from
# Fractions
CLI_GOLDEN = {
    ("tree", "ball", "--p", "7", "--radius", "4", "--dot"):
        "c8988d7611ac058e1823f6acdf0bf7f898f30a1d3975d8c982412b08aee7f676",
    ("tree", "ball", "--p", "2", "--radius", "8", "--dot"):
        "2839067434ee53adac4cbb66b5b21af4a9df53876ca141a6cf1a38ddcf06edf5",
    ("tree", "ball", "--p", "7", "--radius", "4"):
        "79675569b0f2464ea6b15ac22af0f3d675d62e05683d9fe771042f4df2f005a0",
}
VERTEX_MATRICES = [
    "1,0;0,1", "7,0;0,1", "1,0;0,7", "49,3;0,1", "1/7,2/49;0,1", "3,5;7,11",
    "0,1;1,0", "1/49,0;5,343", "2/3,1/7;5,-4/9", "-14,22/7;3/343,1", "343,-1;49,1/7",
]
VERTEX_GOLDEN = "7cab430b984c83c34aa346931b84a913c5a3d600504fc3fd1423c0df3d6534bb"


@pytest.mark.parametrize("args", list(CLI_GOLDEN))
def test_tree_ball_output_matches_golden_digest(capsys, args):
    assert cli.main(list(args)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLI_GOLDEN[args]


def test_tree_vertex_output_matches_golden_digest(capsys):
    digest = hashlib.sha256()
    for m in VERTEX_MATRICES:
        assert cli.main(["tree", "vertex", "--p", "7", f"--matrix={m}"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == VERTEX_GOLDEN


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ball_edges_form_a_spanning_tree(p):
    depth, edges = ball(p, 3)
    assert len({frozenset(e) for e in edges}) == len(edges) == len(depth) - 1
    assert all(depth[u] == depth[v] + 1 for v, u in edges)


def _two_pass_ball_is_tree(p, radius):
    """Reference for the certificate: the two-pass form it replaced.  A
    BFS through the public neighbors keeps every neighbour list, then a
    sweep reads the depths of each vertex's neighbours, a fresh list for a
    leaf; neighbors used to assert that each list is distinct."""
    depth, frontier, nbrs = {lambda0(): 0}, [lambda0()], {}
    for r in range(radius):
        nxt = []
        for v in frontier:
            for u in nbrs.setdefault(v, neighbors(v, p)):
                if u not in depth:
                    depth[u] = r + 1
                    nxt.append(u)
        frontier = nxt
    if len(depth) != ball_size_formula(p, radius):
        return False
    for v, d in depth.items():
        vn = nbrs[v] if d < radius else neighbors(v, p)
        if len(set(vn)) != p + 1:
            return False
        ds = list(map(depth.get, vn))
        if d and (ds.count(d - 1) != 1 or d in ds):
            return False
    return True


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_ball_is_tree_agrees_with_the_two_pass_reference(p):
    for radius in range(5):
        assert ball_is_tree(p, radius) is _two_pass_ball_is_tree(p, radius) is True


def _patch_kernel(monkeypatch, edit):
    """Route the neighbour kernel, which neighbors, ball and ball_is_tree
    all call, through edit(key, list) on plain (a, n, d) tuples."""
    orig = tree._tree_nbrs

    def patched(a, n, d, p):
        return edit((a, n, d), orig(a, n, d, p))

    monkeypatch.setattr(tree, "_tree_nbrs", patched)


def _rejected(p, radius):
    return not ball_is_tree(p, radius) and not _two_pass_ball_is_tree(p, radius)


@pytest.mark.parametrize("radius", [1, 2])
def test_ball_is_tree_rejects_a_same_depth_neighbor(monkeypatch, radius):
    # lambda1 and (-1, 0) both sit at depth 1; radius 1 checks lambda1 as a
    # leaf, radius 2 as it is expanded
    p = 3
    assert ball_is_tree(p, radius)
    mirror = tuple(VertexKey(-1, 0))
    _patch_kernel(monkeypatch, lambda v, out: out + [mirror] if v == lambda1() else out)
    assert _rejected(p, radius)


def _two_branches(p, depth_x, depth_y):
    """A vertex at depth_x and one at depth_y under different depth-1
    vertices, as plain tuples."""
    depth, edges = ball(p, max(depth_x, depth_y))
    up = {u: v for v, u in edges}

    def branch(v):
        while depth[v] > 1:
            v = up[v]
        return v

    x = next(v for v, d in depth.items() if d == depth_x)
    y = next(v for v, d in depth.items() if d == depth_y and branch(v) != branch(x))
    return tuple(x), tuple(y)


def _join(x, y, replace):
    """An extra edge x -- y in both lists: appended, or in place of the
    first child so that every list keeps p + 1 entries."""

    def edit(v, out):
        for a, b in ((x, y), (y, x)):
            if v == a:
                return [b] + out[1:] if replace else out + [b]
        return out

    return edit


@pytest.mark.parametrize("replace", [False, True])
def test_ball_is_tree_rejects_a_second_parent(monkeypatch, replace):
    # a depth-1 vertex joined to a depth-2 vertex of another branch, which
    # then has two neighbours one level up
    p, radius = 3, 3
    x, y = _two_branches(p, 1, 2)
    _patch_kernel(monkeypatch, _join(x, y, replace))
    assert _rejected(p, radius)


def test_ball_is_tree_rejects_a_second_parent_at_once(monkeypatch):
    # the certificate stops on the second depth-1 neighbour of the depth-2
    # vertex, before it expands anything at depth 2
    p, radius = 3, 3
    x, y = _two_branches(p, 1, 2)
    join = _join(x, y, replace=True)
    expanded = []

    def edit(v, out):
        expanded.append(v)
        return join(v, out)

    _patch_kernel(monkeypatch, edit)
    assert not ball_is_tree(p, radius)
    assert len(expanded) <= 1 + (p + 1)


def test_ball_is_tree_rejects_a_repeated_neighbor_at_a_leaf(monkeypatch):
    # a leaf's children lie outside the ball, so only the distinctness of
    # its list catches a child named twice
    p, radius = 3, 2
    x, _ = _two_branches(p, radius, radius)
    _patch_kernel(monkeypatch, lambda v, out: [out[1]] + out[1:] if v == x else out)
    assert _rejected(p, radius)


@pytest.mark.parametrize("replace", [False, True])
def test_ball_is_tree_rejects_an_edge_between_leaves(monkeypatch, replace):
    p, radius = 3, 3
    x, y = _two_branches(p, radius, radius)
    _patch_kernel(monkeypatch, _join(x, y, replace))
    assert _rejected(p, radius)


@pytest.mark.parametrize("radius", [2, 3])
def test_ball_is_tree_rejects_a_dropped_child(monkeypatch, radius):
    p = 3
    x = tuple(lambda1())
    _patch_kernel(monkeypatch, lambda v, out: out[1:] if v == x else out)
    assert len(ball(p, radius)[0]) < ball_size_formula(p, radius)
    assert _rejected(p, radius)


@pytest.mark.parametrize("fn", [ball, ball_is_tree, ball_size_formula])
def test_negative_radius_rejected(fn):
    with pytest.raises(ValueError, match="radius"):
        fn(7, -1)


def test_bad_p_rejected():
    with pytest.raises(ValueError):
        vp(Fraction(3), 1)
    with pytest.raises(ValueError, match="prime"):
        ball(6, 2)
    with pytest.raises(ValueError, match="prime"):
        amalgam_decompose(mat2(1, 0, 0, 1), 1)


def test_act_and_epsilon():
    p = 7
    gp = g_pi(p)
    assert epsilon(gp, p) == 1
    assert epsilon(mat2(1, 0, 0, 1), p) == 0
    # g_pi moves the base point to a neighbor and swaps it back
    img = act(gp, lambda0(), p)
    assert distance(lambda0(), img, p) == 1
    assert act(gp, img, p) == lambda0()
    # diag(p, 1) sends the base vertex to the canonical (1, 0) vertex
    assert act(mat2(p, 0, 0, 1), lambda0(), p) == lambda1()
    # scalars act trivially
    v = VertexKey(2, Fraction(3))
    assert act(mat2(p, 0, 0, p), v, p) == v


def test_act_g_pi_lands_on_mirror_neighbor():
    # the class of A + pi*A is the mirror neighbor (-1, 0), not (1, 0)
    p = 7
    assert act(g_pi(p), lambda0(), p) == VertexKey(-1, Fraction(0))


def test_standard_decomposition_examples():
    p = 7
    s, r, u, eps = standard_decomposition(mat2(3, 0, 0, 1), p)
    assert (s, r, u, eps) == (0, IDENT, 3, 0)
    s, r, u, eps = standard_decomposition(g_pi(p), p)
    assert (s, u, eps) == (0, 1, 1) and r == IDENT
    s, r, u, eps = standard_decomposition(mat2(p, 0, 0, p), p)
    assert (s, r, u, eps) == (1, IDENT, 1, 0)


def test_standard_decomposition_random():
    rng = random.Random(3)
    p = 5
    for _ in range(40):
        m = mat2(
            Fraction(rng.randint(-20, 20), p ** rng.randint(0, 2)),
            Fraction(rng.randint(-20, 20), p ** rng.randint(0, 2)),
            Fraction(rng.randint(-20, 20), p ** rng.randint(0, 2)),
            Fraction(rng.randint(-20, 20), p ** rng.randint(0, 2)),
        )
        if mat_det(m) == 0:
            continue
        s, r, u, eps = standard_decomposition(m, p)
        assert mat_det(r) == 1
        assert vp(u, p) == 0
        assert eps in (0, 1)


def test_parity_law():
    rng = random.Random(12)
    p = 5
    verts = list(ball(p, 2)[0])
    for _ in range(60):
        m = mat2(
            Fraction(rng.randint(-10, 10), p ** rng.randint(0, 1)),
            Fraction(rng.randint(-10, 10), p ** rng.randint(0, 1)),
            Fraction(rng.randint(-10, 10), p ** rng.randint(0, 1)),
            Fraction(rng.randint(-10, 10), p ** rng.randint(0, 1)),
        )
        if mat_det(m) == 0:
            continue
        v = rng.choice(verts)
        d = distance(v, act(m, v, p), p)
        assert d % 2 == vp(mat_det(m), p) % 2


def test_stabilizer_of_base_vertex():
    p = 7
    rng = random.Random(9)
    for _ in range(60):
        m = mat2(
            rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6)
        )
        if mat_det(m) != 1:
            continue
        assert act(m, lambda0(), p) == lambda0()
    # an SL2 element moving the base point is not p-integral
    g = mat2(1, Fraction(1, p), 0, 1)
    assert act(g, lambda0(), p) != lambda0()
    assert not in_g0(g, p)


@pytest.mark.parametrize("p", [5, 7])
def test_ball_axioms_small(p):
    for r in range(5):
        assert ball_size_formula(p, r) == len(ball(p, r)[0])
    assert ball_is_tree(p, 3)


def test_g1_membership_examples():
    p = 7
    assert in_g1(mat2(1, Fraction(1, 1) * p, 0, 1), p)
    assert in_g1(mat2(1, 0, Fraction(1, p), 1), p)
    assert not in_g1(mat2(1, 1, 0, 1), p)
    # G0 ∩ G1 stabilizes the edge between the base point and (1, 0)
    m = mat2(1, p, 0, 1)
    assert in_g0(m, p) and in_g1(m, p)


def test_amalgam_single_factors():
    p = 7
    w = amalgam_decompose(mat2(1, 1, 0, 1), p)
    assert len(w) == 1 and w.sides() == [G0_SIDE]
    # lower-left 1/p lies in the spec's G1 shape: a single G1 factor
    w = amalgam_decompose(mat2(1, 0, Fraction(1, p), 1), p)
    assert len(w) == 1 and w.sides() == [G1_SIDE]
    assert w.validate(mat2(1, 0, Fraction(1, p), 1))


def test_amalgam_upper_elementary():
    # [[1, 1/p], [0, 1]] moves the base vertex to distance 2 and is not in
    # either side, so the minimal alternating word has d + 1 = 3 factors
    p = 7
    g = mat2(1, Fraction(1, p), 0, 1)
    w = amalgam_decompose(g, p)
    assert w.validate(g)
    d = distance(lambda0(), act(g, lambda0(), p), p)
    assert d == 2
    assert len(w) == d + 1


def test_amalgam_round_trips_seeded():
    rng = random.Random(99)
    p = 5
    count = 0
    while count < 40:
        g = _random_sl2_zp_inv(rng, p, max_den_pow=3)
        w = amalgam_decompose(g, p)
        assert w.validate(g)
        d = distance(lambda0(), act(g, lambda0(), p), p)
        assert len(w) <= d + 1
        # idempotence: decomposing the product returns the same word
        w2 = amalgam_decompose(w.product(), p)
        assert len(w2) == len(w)
        count += 1


def _random_sl2_zp_inv(rng, p, max_den_pow=3):
    """Random element of SL2(Z[1/p]) as a product of elementary matrices."""
    g = IDENT
    for _ in range(rng.randint(1, 6)):
        x = Fraction(rng.randint(-8, 8), p ** rng.randint(0, max_den_pow))
        if rng.random() < 0.5:
            e = mat2(1, x, 0, 1)
        else:
            e = mat2(1, 0, x, 1)
        g = mat_mul(g, e)
    return g


def _wide_word(rng, p):
    """A product of up to seven factors: [[1, x], [0, 1]] or [[1, 0], [x, 1]]
    with x in p^-3 Z, the rotation S, or -I.  Its walk ends on every kind
    of rest: I, -I, another edge-group element and one in G0 only."""
    g = IDENT
    for _ in range(rng.randint(0, 7)):
        r = rng.random()
        if r < 0.15:
            f = mat2(0, -1, 1, 0)
        elif r < 0.25:
            f = mat2(-1, 0, 0, -1)
        else:
            x = Fraction(rng.randint(-3 * p, 3 * p), p ** rng.randint(0, 3))
            f = mat2(1, x, 0, 1) if r < 0.6 else mat2(1, 0, x, 1)
        g = mat_mul(g, f)
    return g


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_amalgam_words_are_in_normal_form(p):
    # the walk writes the normal form itself: sides alternate, a word of
    # more than one factor holds no edge-group factor (I and -I included),
    # and the word is no longer than the geodesic to g * base, plus one
    rng = random.Random(4100 + p)
    neg = mat_scale(-1, IDENT)
    for _ in range(3000):
        g = _wide_word(rng, p)
        w = amalgam_decompose(g, p)
        sides = w.sides()
        assert all(s1 != s2 for s1, s2 in zip(sides, sides[1:]))
        if len(w) > 1:
            for m, _ in w.factors:
                assert m != IDENT and m != neg
                assert not (in_g0(m, p) and in_g1(m, p))
        assert len(w) <= distance(lambda0(), act(g, lambda0(), p), p) + 1


# sha256 of the factor lists below, taken from the decomposition that
# scanned the neighbours with the matrix distance and read its cosets from
# per-prime tables
AMALGAM_GOLDEN = "d4785ff8628d70955471344cb7954b66b19e86fb9cf76647e717b5a1f205c248"


def test_amalgam_words_match_golden_digest():
    digest = hashlib.sha256()
    for p in (2, 3, 5, 7, 11, 13):
        rng = random.Random(p)
        for _ in range(50):
            g = _random_sl2_zp_inv(rng, p, max_den_pow=4)
            for m, s in amalgam_decompose(g, p).factors:
                digest.update(f"{s}:{m}|".encode())
            digest.update(b"\n")
    assert digest.hexdigest() == AMALGAM_GOLDEN


def test_amalgam_at_a_large_prime():
    # nothing of size p is built: the walk reads its cosets off a, c in Z_p
    # and c mod p^2
    p = 1000000007
    g = mat2(1, Fraction(1, p), 0, 1)
    w = amalgam_decompose(g, p)
    assert w.validate(g) and len(w) == 3


def test_amalgam_of_a_deep_word():
    # e = 600 passes, each reading valuations of entries of about 4 300
    # bits: the halving search keeps this well under a second
    p, e = 139, 600
    g = mat2(1, Fraction(1, p**e), 0, 1)
    w = amalgam_decompose(g, p)
    assert w.validate(g) and len(w) == 2 * e + 1


def test_amalgam_rejects_bad_input():
    p = 5
    with pytest.raises(ValueError, match="determinant"):
        amalgam_decompose(mat2(2, 0, 0, 1), p)
    with pytest.raises(ValueError, match="1/p"):
        amalgam_decompose(mat2(1, Fraction(1, 3), 0, 1), p)


def test_gamma_membership_examples():
    p = 7
    m = mat2(1, 0, p, 1)
    assert all(gamma_membership(m, lvl, p) for lvl in (0, 1, 2))
    m = mat2(1, 1, 0, 1)
    assert gamma_membership(m, 0, p)
    assert not gamma_membership(m, 1, p)
    # diag(2, 2^{-1} in Z_(p)): levels 0 and 1 hold; level 2 iff 2 - 1/2 in pZ_(p)
    m = mat2(2, 0, 0, Fraction(1, 2))
    assert gamma_membership(m, 0, p) and gamma_membership(m, 1, p)
    assert not gamma_membership(m, 2, p)  # v_7(3/2) = 0


def test_gamma_membership_level2_positive_case():
    # p = 3: 2 - 1/2 = 3/2 has valuation 1, so level 2 holds
    assert gamma_membership(mat2(2, 0, 0, Fraction(1, 2)), 2, 3)


def test_gamma_membership_rejects_nonintegral():
    with pytest.raises(ValueError):
        gamma_membership(mat2(1, Fraction(1, 5), 0, 1), 0, 5)


def _gamma_by_fractions(g, level, p):
    """Oracle: the congruence tests read off the Fraction entries."""
    (a, b), (c, d) = g
    return all(x == 0 or vp(x, p) >= 1 for x in (c, b, a - d)[: level + 1])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gamma_membership_matches_the_fraction_formula(p):
    # products over Z_(p) of unipotents, diag(u, 1/u) and -I, with entries
    # in pZ_(p) half of the time so that every level holds and fails
    rng = random.Random(4200 + p)
    dens = [k for k in (1, 2, 3, 4, 5, 7, 9, 11) if k % p]
    outcomes = set()
    for _ in range(400):
        g = IDENT
        for _ in range(rng.randint(0, 4)):
            x = Fraction(rng.randint(-9, 9) * rng.choice([1, p]), rng.choice(dens))
            u = Fraction(rng.choice(dens), rng.choice(dens))
            f = rng.choice(
                [mat2(1, x, 0, 1), mat2(1, 0, x, 1), mat2(u, 0, 0, 1 / u), mat2(-1, 0, 0, -1)]
            )
            g = mat_mul(g, f)
        for level in (0, 1, 2):
            want = _gamma_by_fractions(g, level, p)
            assert gamma_membership(g, level, p) == want
            outcomes.add((level, want))
        with pytest.raises(ValueError, match="level"):
            gamma_membership(g, 3, p)
        # off SL2(Z_(p)) is refused before the level is read
        for off in (mat_mul(g, mat2(1, Fraction(1, p), 0, 1)), mat_scale(p, g)):
            for level in (0, 3):
                with pytest.raises(ValueError, match="SL2"):
                    gamma_membership(off, level, p)
    assert len(outcomes) == 6


def test_dot_output():
    text = dot_output(5, 1)
    assert text.startswith("graph tree {")
    assert text.count("--") == 6


# ---------------------------------------------------------------------------
# oracle: the Fraction walk the integer form replaced, kept verbatim in
# substance (keys as (a, c) pairs, its own valuation and membership tests)


def _o_vp(x, p):
    x = Fraction(x)
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _o_reduce(c, a, p):
    if c == 0 or _o_vp(c, p) >= a:
        return Fraction(0)
    j = max(0, -_o_vp(c, p))
    pj, mod = p**j, p ** (a + j)
    return Fraction((c.numerator * pow(c.denominator // pj, -1, mod)) % mod, pj)


def _o_key(m, p):
    (m11, m12), (m21, m22) = m
    if m22 == 0 or (m21 != 0 and _o_vp(m21, p) < _o_vp(m22, p)):
        m11, m12, m21, m22 = m12, m11, m22, m21
    m11 = (m11 - m21 / m22 * m12) / Fraction(p) ** _o_vp(m22, p)
    a = _o_vp(m11, p)
    return (a, _o_reduce(m12 / m22, a, p))


def _o_step(v, t, p):
    (a, c), (ta, tc) = v, t
    if ta > a and (tc == c or _o_vp(tc - c, p) >= a):
        return (a + 1, _o_reduce(tc, a + 1, p))
    return (a - 1, _o_reduce(c, a - 1, p))


def _o_in(m, p, lows):
    entries = [x for row in m for x in row]
    return mat_det(m) == 1 and all(x == 0 or _o_vp(x, p) >= k for x, k in zip(entries, lows))


def _o_edge(m, p):
    return _o_in(m, p, (0, 0, 0, 0)) and _o_in(m, p, (0, 1, -1, 0))


def _o_amalgam(g, p):
    factors, w = [], g
    while (t := _o_key(w, p)) != (0, 0):
        a, c = _o_step((0, Fraction(0)), t, p)
        h = mat2(0, -1, 1, 0) if a < 0 else mat2(1, c, 0, 1)
        w = mat_mul(mat_inv(h), w)
        a, c = _o_step((1, Fraction(0)), _o_key(w, p), p)
        j = int(c) // p
        if a == 0:
            q = IDENT
        elif j == 0:
            q = mat2(0, -p, Fraction(1, p), 0)
        else:
            q = mat2(1, 0, Fraction(pow(j, -1, p), p), 1)
        w = mat_mul(mat_inv(q), w)
        factors += [(h, G0_SIDE), (q, G1_SIDE)]
    factors.append((w, G0_SIDE))
    neg = mat_scale(-1, IDENT)
    work, pending = [], False
    for m, s in factors:
        if pending:
            m, pending = mat_scale(-1, m), False
        if m == IDENT:
            continue
        if m == neg:
            if work:
                work[-1] = (mat_scale(-1, work[-1][0]), work[-1][1])
            else:
                pending = True
            continue
        work.append((m, s))
    if pending:
        work = [(mat_scale(-1, work[0][0]), work[0][1])] + work[1:] if work else [(neg, G0_SIDE)]
    if not work:
        return [(IDENT, G0_SIDE)]
    out = []
    for m, s in work:
        if out and _o_edge(m, p):
            out[-1] = (mat_mul(out[-1][0], m), out[-1][1])
        else:
            out.append((m, s))
    if len(out) > 1 and _o_edge(out[0][0], p):
        m0, _ = out.pop(0)
        out[0] = (mat_mul(m0, out[0][0]), out[0][1])
    merged = [out[0]]
    for m, s in out[1:]:
        if merged[-1][1] == s:
            merged[-1] = (mat_mul(merged[-1][0], m), s)
        else:
            merged.append((m, s))
    return merged


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_integer_keys_match_the_fraction_oracle(p):
    # 400 matrices per prime: denominators prime to p as well as powers of
    # p, any determinant
    rng = random.Random(1000 + p)
    verts = list(ball(p, 2)[0])
    count = 0
    while count < 400:
        dens = (1, 1, 2, 3, 7, p, p * p, 3 * p**3)
        m = mat2(*(Fraction(rng.randint(-40, 40), rng.choice(dens)) for _ in range(4)))
        if mat_det(m) == 0:
            with pytest.raises(ValueError, match="singular"):
                canonical_vertex(m, p)
            continue
        key = canonical_vertex(m, p)
        assert (key.a, key.c) == _o_key(m, p)
        # the integer key is canonical before it becomes a Fraction
        m11, m12, m21, m22, _ = tree._cleared(m)
        vdet = vp(m11 * m22 - m12 * m21, p)
        assert tree._ikey(m11, m12, m21, m22, vdet, p) == tree._key_in(key, p)
        v = rng.choice(verts)
        img = act(m, v, p)
        assert (img.a, img.c) == _o_key(mat_mul(m, v.matrix(p)), p)
        count += 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_integer_walk_matches_the_fraction_oracle(p):
    rng = random.Random(2000 + p)
    for _ in range(60):
        g = _random_sl2_zp_inv(rng, p, max_den_pow=4)
        if rng.random() < 0.25:
            g = mat_scale(-1, g)
        assert amalgam_decompose(g, p).factors == _o_amalgam(g, p)


def _ref_neighbors(v, p):
    """The Fraction neighbours the integer form replaced: children
    (a + 1, c + i p^a) over one common denominator, and the parent
    (a - 1, c mod p^(a-1)) by the oracle's reduction."""
    a, c = v.a, v.c
    sn, sd = (p**a, 1) if a >= 0 else (1, p**-a)
    num, den = c.numerator * sd, c.denominator * sd
    inc = sn * c.denominator
    out = [VertexKey(a + 1, Fraction(num + i * inc, den)) for i in range(p)]
    out.append(VertexKey(a - 1, _o_reduce(c, a - 1, p)))
    return out


# p = 1 000 000 007 is left to test_vertex_keys_are_values: neighbors
# returns p + 1 keys, too many to build there
@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([2, 3, 7, 101]),
    a=st.integers(-6, 6),
    j=st.integers(0, 6),
    n=st.integers(-(10**9), 10**9),
)
# a canonical c in [0, p^a) with a < 0 is 0 or has j > -a; with J =
# max(j, -a), a + J = 0 holds exactly for c = 0 and a <= 0, where child 0
# reduces to 0 / 1
@example(p=7, a=-2, j=4, n=5)
@example(p=3, a=-3, j=0, n=0)
@example(p=2, a=0, j=0, n=0)
@example(p=101, a=3, j=2, n=-17)
def test_neighbors_match_the_fraction_reference(p, a, j, n):
    v = VertexKey(a, _o_reduce(Fraction(n, p**j), a, p))
    got = neighbors(v, p)
    assert got == _ref_neighbors(v, p)
    # each key holds c in lowest terms, as a Fraction-built key does
    for u in got:
        assert tuple(u) == (u.a, u.c.numerator, u.c.denominator)
        assert hash(u) == hash(VertexKey(u.a, u.c))


def _o_read(m, p):
    """The walk's read (a, c in Z_p, c mod p^2 or 0) by the Fraction
    oracle, with _o_key's pivot."""
    (m11, m12), (m21, m22) = m
    if m22 == 0 or (m21 != 0 and _o_vp(m21, p) < _o_vp(m22, p)):
        m12, m22 = m11, m21
    c = m12 / m22
    integral = c == 0 or _o_vp(c, p) >= 0
    return (_o_key(m, p)[0], integral, int(_o_reduce(c, 2, p)) if integral else 0)


def _random_sl2_form(rng, p):
    """The integer form of a random element of SL2(Z[1/p]): a product of
    elementary matrices, diagonals diag(p^k, p^-k) and the rotation, so
    that m12 = 0, p | m22 and the column swap all occur."""
    g = IDENT
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(4)
        x = Fraction(rng.randint(-30, 30), p ** rng.randint(0, 3))
        if kind == 0:
            g = mat_mul(g, mat2(1, x, 0, 1))
        elif kind == 1:
            g = mat_mul(g, mat2(1, 0, x, 1))
        elif kind == 2:
            k = rng.randint(-3, 3)
            g = mat_mul(g, mat2(Fraction(p) ** k, 0, 0, Fraction(p) ** -k))
        else:
            g = mat_mul(g, mat2(0, -1, 1, 0))
    return tree._mat_in(g, p, sl2=True)


@pytest.mark.parametrize("p, count", [(2, 400), (3, 400), (5, 400), (7, 400), (11, 400), (1000000007, 30)])
def test_walk_read_matches_the_full_key(p, count):
    # the walk reads (a, c in Z_p, c mod p^2) of w * base; the Fraction
    # oracle gives all three, and _ikey's key (a, n / p^j) gives a, c in Z_p
    # when a >= 0 (then j = 0 exactly for c in Z_p) and c mod p^min(a, 2)
    rng = random.Random(3000 + p)
    seen = {"m12 = 0": 0, "p | m22": 0, "swap": 0, "c not in Z_p": 0, "a > 1, p | c": 0}
    for _ in range(count):
        form = _random_sl2_form(rng, p)
        m11, m12, m21, m22, e = form
        read = tree._walk_read(form, p)
        assert read == _o_read(mat2(m11, m12, m21, m22), p), form
        a, integral, c = read
        ka, kn, kj = tree._ikey(m11, m12, m21, m22, 2 * e, p)
        assert ka == a
        if a >= 0:
            assert (kj == 0) == integral
        if integral and a >= 1:
            mod = p ** min(a, 2)
            assert kn % mod == c % mod
        swap = m22 == 0 or (m21 != 0 and vp(m21, p) < vp(m22, p))
        seen["swap"] += swap
        seen["m12 = 0"] += (m11 if swap else m12) == 0
        seen["p | m22"] += m22 != 0 and m22 % p == 0
        seen["c not in Z_p"] += not integral
        seen["a > 1, p | c"] += a > 1 and integral and c % p == 0
    assert all(seen.values()), seen


def _seeded_words(p, count=100):
    rng = random.Random(4000 + p)
    return [_random_sl2_zp_inv(rng, p, max_den_pow=4) for _ in range(count)]


@pytest.mark.parametrize("p", [2, 5, 7, 11])
def test_a_read_one_too_large_is_refused(monkeypatch, p):
    # c mod p^2 one too large steps to the wrong child on every pass that
    # reads a child, and every word off G0 reads one: _word_ok refuses it
    read = tree._walk_read
    words = _seeded_words(p)
    want = [amalgam_decompose(g, p).factors for g in words]

    def one_too_large(m, q):
        a, integral, c = read(m, q)
        return (a, integral, (c + 1) % (q * q))

    monkeypatch.setattr(tree, "_walk_read", one_too_large)
    refused = 0
    for g, factors in zip(words, want):
        if in_g0(g, p):
            assert amalgam_decompose(g, p).factors == factors
            continue
        with pytest.raises(AssertionError, match="^amalgam decomposition failed to validate$"):
            amalgam_decompose(g, p)
        refused += 1
    assert refused > len(words) // 2


@pytest.mark.parametrize("p", [2, 5, 7, 11])
def test_a_read_that_calls_c_integral_is_refused(monkeypatch, p):
    # reporting c in Z_p for a c outside it, with a > 0, steps to a child
    # instead of the parent; the word is refused exactly when that happened
    read = tree._walk_read
    told = []

    def lying(m, q):
        a, integral, c = read(m, q)
        if a > 0 and not integral:
            told.append(m)
        return (a, True, c)

    words = _seeded_words(p)
    want = [amalgam_decompose(g, p).factors for g in words]
    monkeypatch.setattr(tree, "_walk_read", lying)
    refused = 0
    for g, factors in zip(words, want):
        told.clear()
        try:
            got = amalgam_decompose(g, p).factors
        except AssertionError as e:
            assert str(e) == "amalgam decomposition failed to validate"
            assert told
            refused += 1
        else:
            assert not told and got == factors
    assert refused > len(words) // 4


def test_the_walk_builds_no_key(monkeypatch):
    calls = []
    ikey = tree._ikey

    def counted(*args):
        calls.append(args)
        return ikey(*args)

    monkeypatch.setattr(tree, "_ikey", counted)
    for p in (5, 7, 11):
        for g in _seeded_words(p, 40):
            assert amalgam_decompose(g, p).validate(g)
    assert calls == []
    g = mat2(1, Fraction(1, 7), 0, 1)
    canonical_vertex(g, 7)
    assert len(calls) == 1
    act(g, lambda0(), 7)
    assert len(calls) == 2
