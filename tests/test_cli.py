import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scgroups
from scgroups import cli, verify
from scgroups.cli import main, parse_expression, parse_matrix_arg
from scgroups.rings import descriptor_size
from scgroups.tree import mat2, mat_mul


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_rp1_gf11(capsys):
    code, out, _ = run_cli(["group", "RP1", "--ring", "gf(11)", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["odd_part"] == [3]
    assert rep["ring"] == "gf(11)"


def test_group_md_format(capsys):
    code, out, _ = run_cli(["--format", "md", "group", "P", "--ring", "gf(7)"], capsys)
    assert code == 0
    assert out.startswith("|")


def test_group_all_builders(capsys):
    for which in ("P", "B", "S2", "K2", "GW", "I", "I2", "E2"):
        code, out, _ = run_cli(["group", which, "--ring", "gf(7)"], capsys)
        assert code == 0
        assert json.loads(out)["group"] == which


def test_verify_key_identity_exit_zero(capsys):
    code, out, _ = run_cli(["verify", "key-identity", "--ring", "z/7^2"], capsys)
    assert code == 0
    assert "[ok]" in out


# the stdout of the suites that ask whether a map kills relation rows, as
# the per-pair walks printed it
VERIFY_STDOUT = {
    ("five-term", "z/11^2"): (
        "[ok] z/11^2: lambda kills every X relation\n"
        "[ok] z/11^2: lambda_1 kills every Y relation\n"
        "[ok] z/11^2: lambda_2 kills every Y relation\n"
    ),
    ("witt", "z/7^2"): (
        "[ok] z/7^2: chain identities d3.d4 = 0 and aug.d3 = 0\n"
        "[ok] z/7^2: E^2 position 1 vanishes\n"
        "[ok] z/7^2: E^2 position 2 = fundamental ideal (I = Z/2)\n"
        "[ok] z/7^2: E^2 position 3 is RP_1: d4 reduces to RP's block-form basis\n"
    ),
    ("slr", "z/11^2"): (
        "[ok] z/11^2: L_B generators die in RP~(k)\n"
        "[ok] z/11^2: RP~(B)/L_B = RP~(k) with equal invariant factors (quotient Z + Z/3)\n"
    ),
}


# the stdout of `verify specialize --p 13`, as the sweep printed it when it
# built the Fraction relation of each distinct datum
SPECIALIZE_13_STDOUT = (
    "[ok] p=13: S_v kills 200 seeded Y relations exactly\n"
    "[ok] p=13: exhaustive Y sweep with entries up to 20\n"
    "[ok] p=13: delta_pi vanishes on unit square classes\n"
    "[ok] p=13: eta' = -2 eta on 200 seeded samples\n"
    "[ok] p=13: delta_0 is R-linear on unit classes\n"
    "[ok] p=13: delta_pi(<<p>>g(a)) images span RP_1 odd part\n"
)


def test_verify_specialize_stdout_is_pinned(capsys):
    code, out, _ = run_cli(["verify", "specialize", "--p", "13"], capsys)
    assert code == 0
    assert out == SPECIALIZE_13_STDOUT


@pytest.mark.parametrize("suite, ring", list(VERIFY_STDOUT))
def test_verify_stdout_is_pinned(capsys, suite, ring):
    code, out, _ = run_cli(["verify", suite, "--ring", ring], capsys)
    assert code == 0
    assert out == VERIFY_STDOUT[suite, ring]


@pytest.mark.parametrize("ring", ["gf(11)", "z/11", "gf(11)[t]/t^1"])
def test_slr_refuses_a_field_under_every_descriptor(capsys, ring):
    code, _, err = run_cli(["verify", "slr", "--ring", ring], capsys)
    assert code == 2
    assert "L_B is trivial for a field" in err


@pytest.mark.parametrize("ring", ["z/11", "gf(11)[t]/t^1"])
def test_witt_checks_i_squared_on_a_field_under_every_descriptor(capsys, ring):
    code, out, _ = run_cli(["verify", "witt", "--ring", ring], capsys)
    assert code == 0
    assert f"[ok] {ring}: I^2 vanishes\n" in out


def test_prime_power_base_of_a_truncated_ring(capsys):
    want = run_cli(["group", "P", "--ring", "gf(3^2)[t]/t^2"], capsys)
    assert want[0] == 0 and json.loads(want[1])["ring"] == "gf(3^2)[t]/t^2"
    assert run_cli(["group", "P", "--ring", "gf(9)[t]/t^2"], capsys) == want


def test_verify_usage_error(capsys):
    code, _, err = run_cli(["verify", "key-identity"], capsys)
    assert code == 2
    assert "ring" in err


def test_usage_error_bad_ring(capsys):
    code, _, err = run_cli(["group", "P", "--ring", "gf(6)"], capsys)
    assert code == 2
    assert "gf(6)" in err


def test_specialize(capsys):
    code, out, _ = run_cli(["specialize", "--p", "11", "--expr", "<<11>>*g(2)"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["delta_0"]["zero"] is True
    assert rep["delta_pi"]["zero"] is False


def test_specialize_relation_dies(capsys):
    # the five-term relation Y_{2,3} written out by hand specializes to zero
    expr = "[2] - [3] + <2>*[3/2] - <-2>*[3/4] + <-1>*[1/2]"
    code, out, _ = run_cli(["specialize", "--p", "11", "--expr", expr], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["delta_0"]["zero"] and rep["delta_pi"]["zero"]


def test_expression_parser():
    kind, val = parse_expression("2*[3] + psi1(2) - C")
    assert kind == "mod"
    kind, val = parse_expression("<<5>>*<<7>>")
    assert kind == "ring"
    with pytest.raises(ValueError):
        parse_expression("[0]")
    with pytest.raises(ValueError):
        parse_expression("[2] * [3]")
    with pytest.raises(ValueError):
        parse_expression("1/2 * [3]")


def test_amalgam_command(capsys):
    code, out, _ = run_cli(["amalgam", "--p", "7", "--matrix", "1,1/7;0,1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["product_ok"] and rep["alternating"]
    assert rep["length"] == 3


def test_tree_ball(capsys):
    code, out, _ = run_cli(["tree", "ball", "--p", "7", "--radius", "3"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["vertices"] == rep["formula"] == 1 + 8 * (7**3 - 1) // 6
    assert rep["is_tree"] is True


def test_tree_ball_dot(capsys):
    code, out, _ = run_cli(["tree", "ball", "--p", "5", "--radius", "1", "--dot"], capsys)
    assert code == 0
    assert out.startswith("graph tree {")
    assert out.count("--") == 6


def test_tree_vertex(capsys):
    code, out, _ = run_cli(
        ["tree", "vertex", "--p", "7", "--matrix", "7,0;0,1"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["a"] == 1 and rep["c"] == "0"


@pytest.mark.parametrize(
    "args",
    [
        ["tree", "vertex", "--p", "6", "--matrix", "6,0;0,1"],
        ["tree", "ball", "--p", "6"],
        ["amalgam", "--p", "6", "--matrix", "1,0;0,1"],
        ["tree", "ball", "--p", "7", "--radius", "-1"],
        ["group", "P", "--ring", "gf(11)", "--format", "csv"],
        ["--format", "csv", "tree", "ball", "--p", "5"],
        ["amalgam", "--p", "7", "--matrix", "1,1/7;0,1", "--format", "csv"],
    ],
)
def test_rejected_inputs_exit_2(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    def broken(m, p):
        raise KeyError("internal")

    monkeypatch.setattr(cli.tree, "canonical_vertex", broken)
    with pytest.raises(KeyError):
        main(["tree", "vertex", "--p", "7", "--matrix", "7,0;0,1"])


def _main_in_process(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def _fraction_text(draw, p):
    """An entry: an integer, or n/d with d a power of p, a number prime to
    p, a mixture, or 0."""
    n = draw(st.integers(-60, 60))
    den = draw(st.sampled_from([1, p, p**3, 3, 10, 2 * p, 0]))
    return str(n) if den == 1 and draw(st.booleans()) else f"{n}/{den}"


@st.composite
def matrix_texts(draw, p):
    """Text for --matrix: elements of SL2(Z[1/p]) written out, arbitrary
    entries (any determinant, singular, non-p denominators, 1/0), near
    misses of the grammar, and short strings over its alphabet."""
    kind = draw(st.sampled_from(["sl2", "sl2", "off-p", "entries", "near-miss", "noise"]))
    if kind in ("sl2", "off-p") and p > 1:
        g = mat2(1, 0, 0, 1)
        # off-p: denominators prime to p, so determinant 1 but not in Z[1/p]
        base = p if kind == "sl2" else 3 if p == 2 else 2
        for _ in range(draw(st.integers(0, 5))):
            x = Fraction(draw(st.integers(-9, 9)), base ** draw(st.integers(0, 3)))
            g = mat_mul(g, mat2(1, x, 0, 1) if draw(st.booleans()) else mat2(1, 0, x, 1))
        if draw(st.booleans()):
            g = mat_mul(g, mat2(-1, 0, 0, -1))
        return ";".join(",".join(str(x) for x in row) for row in g)
    if kind in ("sl2", "off-p", "entries"):
        a, b, c, d = (_fraction_text(draw, p) for _ in range(4))
        return f"{a},{b};{c},{d}"
    if kind == "near-miss":
        parts = [_fraction_text(draw, p) for _ in range(draw(st.integers(0, 5)))]
        seps = st.sampled_from([",", ";", " ", ",,", ";;"])
        seps = draw(st.lists(seps, min_size=len(parts), max_size=len(parts)))
        return "".join(x + s for x, s in zip(parts, seps))
    return draw(st.text(alphabet="0123456789/,;- e._", max_size=24))


@settings(max_examples=300, deadline=2000, derandomize=True)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 5, 7, 11, 13] * 3 + [1, 4, 6, 9, 12]),
    command=st.sampled_from(["amalgam", "tree vertex"]),
)
def test_matrix_grammar_answers_or_exits_2(data, p, command):
    text = data.draw(matrix_texts(p))
    code, out, err = _main_in_process([*command.split(), "--p", str(p), f"--matrix={text}"])
    if code == 2:
        assert out == "" and err.startswith("error:") and len(err.strip()) > len("error:")
        return
    assert code == 0, (code, out, err)
    rep = json.loads(out)
    assert rep["p"] == p
    if command == "amalgam":
        assert rep["product_ok"] is True and rep["alternating"] is True
        assert rep["length"] == len(rep["factors"]) == len(rep["sides"]) >= 1
    else:
        # the key's c lies in [0, p^a)
        assert 0 <= Fraction(rep["c"]) < Fraction(p) ** rep["a"]


def test_pbar_table_formats(capsys):
    code, out, _ = run_cli(["pbar-table", "--p-min", "11", "--p-max", "17", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["p"] == 11 and rows[0]["pbar_odd"] == 1
    code, out, _ = run_cli(["pbar-table", "--p-min", "11", "--p-max", "13", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("p,")
    code, out, _ = run_cli(["--format", "md", "pbar-table", "--p-min", "11", "--p-max", "13"], capsys)
    assert code == 0
    assert out.startswith("| p |")


def test_zero_denominator_is_usage_error(capsys):
    code, _, err = run_cli(["amalgam", "--p", "7", "--matrix", "1/0,0;0,1"], capsys)
    assert code == 2 and "error:" in err
    code, _, err = run_cli(["specialize", "--p", "7", "--expr", "[1/0]"], capsys)
    assert code == 2 and "error:" in err


def test_oversized_ball_rejected_before_bfs(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the ball must not be built")

    # ball and ball_is_tree both expand vertices through the kernel
    monkeypatch.setattr(cli.tree, "_tree_nbrs", refuse)
    for extra in ([], ["--dot"]):
        code, _, err = run_cli(["tree", "ball", "--p", "2", "--radius", "30", *extra], capsys)
        assert code == 2 and "error:" in err
    # the tree suite builds balls up to radius 4: 2.6 * 10^8 vertices at p = 127
    code, _, err = run_cli(["verify", "tree", "--p", "127"], capsys)
    assert code == 2 and "vertices, more than" in err


@pytest.mark.parametrize(
    "args",
    [
        ["group", "P", "--ring", "gf(10007)"],
        ["group", "RP1", "--ring", "z/17^2"],
        ["verify", "five-term", "--ring", "gf(239)"],
        ["verify", "local-ring", "--ring", "gf(5)[t]/t^4"],
    ],
)
def test_oversized_ring_rejected_before_building(capsys, monkeypatch, args):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be built for this ring")

    for which in cli.GROUP_BUILDERS:
        monkeypatch.setitem(cli.GROUP_BUILDERS, which, refuse)
    for name, (param, _) in verify.SUITES.items():
        if param == "ring":
            monkeypatch.setitem(verify.SUITES, name, (param, refuse))
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"more than {cli.MAX_RING_SIZE}" in err


def test_ring_size_limit_admits_every_ring_in_use():
    jobs = verify.verify_all_jobs(max_q=10**6)
    labels = {value for name, value in jobs if verify.SUITES[name][0] == "ring"}
    labels |= {"gf(121)", "gf(11^2)", "z/11^2", "gf(49)", "gf(97)", "gf(7)[t]/t^2"}
    for label in labels:
        ring = cli._ring_of(label)
        assert ring.size() <= cli.MAX_RING_SIZE
        base, exp = descriptor_size(label)
        assert base**exp == ring.size()


@pytest.mark.parametrize("ring", ["gf(2^40)", "z/2^40", "gf(2^20)[t]/t^2", "gf(3)[t]/t^99999999999"])
def test_huge_ring_descriptor_rejected_before_parsing(capsys, monkeypatch, ring):
    def refuse(*args):
        raise AssertionError("the ring must not be parsed")

    monkeypatch.setattr(cli, "parse_ring", refuse)
    code, out, err = run_cli(["group", "P", "--ring", ring], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"more than {cli.MAX_RING_SIZE}" in err


HUGE_PRIME = "1000000000000000003"


@pytest.mark.parametrize(
    "args",
    [
        ["specialize", "--p", HUGE_PRIME, "--expr", "[2]"],
        ["verify", "specialize", "--p", HUGE_PRIME],
        ["verify", "tree", "--p", HUGE_PRIME],
    ],
)
def test_oversized_prime_rejected_before_primality_test(capsys, monkeypatch, args):
    import scgroups.rings
    import scgroups.valuation

    def refuse(*args):
        raise AssertionError("p must be refused before the trial division")

    for module in (cli, scgroups.rings, scgroups.valuation, cli.tree):
        monkeypatch.setattr(module, "is_prime", refuse)
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"more than {cli.MAX_RING_SIZE}" in err


@pytest.mark.parametrize(
    "args",
    [
        ["tree", "vertex", "--p", HUGE_PRIME, "--matrix", "1,0;0,1"],
        ["tree", "ball", "--p", HUGE_PRIME, "--radius", "0"],
        ["amalgam", "--p", HUGE_PRIME, "--matrix", "1,0;0,1"],
    ],
)
def test_oversized_tree_prime_rejected_before_primality_test(capsys, monkeypatch, args):
    import scgroups.rings

    def refuse(*args):
        raise AssertionError("p must be refused before the trial division")

    for module in (cli, scgroups.rings, cli.tree):
        monkeypatch.setattr(module, "is_prime", refuse)
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"more than {cli.MAX_TREE_PRIME}" in err


def test_tree_vertex_without_matrix_is_usage_error(capsys):
    code, out, err = run_cli(["tree", "vertex", "--p", "7"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--matrix" in err


@pytest.mark.parametrize("q", [verify.MAX_EXACTNESS_Q + 2, 49, 10**18])
def test_oversized_exactness_q_rejected_before_any_tuple(capsys, monkeypatch, q):
    def refuse(*args):
        raise AssertionError("no tuple may be built for this q")

    monkeypatch.setattr(verify.orbitcomplex, "simplicial_homology_vanishes", refuse)
    monkeypatch.setattr(verify, "prime_power_decompose", refuse)
    code, out, err = run_cli(["verify", "exactness-sanity", "--q", str(q)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"more than {verify.MAX_EXACTNESS_Q}" in err


@pytest.mark.parametrize("q", [verify.orbitcomplex.MAX_CENSUS_Q + 1, 49, 1000000007 * 1000000009])
def test_oversized_orbits_q_rejected_before_it_is_decomposed(capsys, monkeypatch, q):
    # 1000000007 * 1000000009 took prime_power_decompose's trial division
    # past 10 s before the census guard ran
    def refuse(*args):
        raise AssertionError("q may not be decomposed or enumerated")

    monkeypatch.setattr(verify.orbitcomplex, "orbit_classify", refuse)
    monkeypatch.setattr(verify, "prime_power_decompose", refuse)
    code, out, err = run_cli(["verify", "orbits", "--q", str(q)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"more than {verify.orbitcomplex.MAX_CENSUS_Q}" in err


@pytest.mark.parametrize("q", [-1, 0, 2, 3])
def test_exactness_q_below_four_is_usage_error(capsys, monkeypatch, q):
    # q + 1 points carry no (q + 2)-tuples, so degree q cannot be exact
    def refuse(*args):
        raise AssertionError("no tuple may be built for this q")

    monkeypatch.setattr(verify.orbitcomplex, "simplicial_homology_vanishes", refuse)
    code, out, err = run_cli(["verify", "exactness-sanity", "--q", str(q)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"less than {verify.MIN_EXACTNESS_Q}" in err


def test_jobs_zero_is_usage_error(capsys):
    code, _, err = run_cli(["verify-all", "--jobs", "0"], capsys)
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "args", [["group", "P", "--ring", "gf(7)", "--jobs", "2"], ["--jobs", "2", "group", "P", "--ring", "gf(7)"]]
)
def test_jobs_is_an_option_of_verify_all_only(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2 and "usage:" in capsys.readouterr().err


def test_worker_count_is_clamped():
    cpus = os.cpu_count() or 1
    assert cli.worker_count(1, 40) == 1
    assert cli.worker_count(10**6, 40) == min(cpus, 40)
    assert cli.worker_count(10**6, 1) == 1
    assert cli.worker_count(3, 0) == 0
    for bad in (0, -4):
        with pytest.raises(ValueError):
            cli.worker_count(bad, 40)


def run_cli_subprocess(args, cwd, timeout=None):
    """Run ``python -m scgroups.cli`` in a child process started in ``cwd``.

    The child imports the same ``scgroups`` as this test session: the
    directory holding the imported package goes first on ``PYTHONPATH``, so
    the test works from a source checkout and from an installed package,
    whatever directory pytest was started from.
    """
    env = dict(os.environ)
    pkg_root = str(Path(scgroups.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "scgroups.cli", *args],
        capture_output=True,
        cwd=cwd,
        env=env,
        timeout=timeout,
    )


def test_deterministic_output(tmp_path):
    args = ["verify", "linalg", "--seed", "7"]
    a = run_cli_subprocess(args, tmp_path)
    b = run_cli_subprocess(args, tmp_path)
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_argparse_usage_exit_code(tmp_path):
    proc = run_cli_subprocess(["group"], tmp_path)
    assert proc.returncode == 2
    assert b"usage:" in proc.stderr


def test_p_one_exits_instead_of_hanging(tmp_path):
    proc = run_cli_subprocess(
        ["tree", "vertex", "--p", "1", "--matrix", "1,0;0,1"], tmp_path, timeout=60
    )
    assert proc.returncode == 2
    assert b"error:" in proc.stderr


@pytest.mark.parametrize(
    "command, matrix, entry",
    [
        ("amalgam", "1,1e1000000000;0,1", "1e1000000000"),
        ("tree vertex", "1e100000000,0;0,1e-100000000", "1e100000000"),
    ],
)
def test_exponent_matrix_entry_exits_instead_of_hanging(tmp_path, command, matrix, entry):
    # Fraction would expand the exponent into an integer of 10^9 digits
    proc = run_cli_subprocess([*command.split(), "--p", "7", "--matrix", matrix], tmp_path, timeout=60)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"error:") and repr(entry).encode() in proc.stderr


@pytest.mark.parametrize("entry", ["1e3", "1e100000", "1_000", "1.5", "0x10", "2/-3", "\u0661"])
def test_matrix_entry_outside_the_grammar_exits_2(capsys, entry):
    code, out, err = run_cli(["tree", "vertex", "--p", "7", f"--matrix= {entry} ,0;0,1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and repr(entry) in err
    # spaces around an integer or n/d are accepted
    code, _, _ = run_cli(["tree", "vertex", "--p", "7", "--matrix= -7 , 0 ; 0 , -1/7 "], capsys)
    assert code == 0


def test_pbar_table_inverted_range_exits_2(capsys):
    code, out, err = run_cli(["pbar-table", "--p-min", "100", "--p-max", "10"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "more than p_max" in err
    # an empty range that is not inverted is still a table
    code, out, _ = run_cli(["pbar-table", "--p-min", "24", "--p-max", "28", "--format", "json"], capsys)
    assert code == 0 and json.loads(out) == []


def test_pbar_table_range_limit_exits_instead_of_hanging(tmp_path):
    proc = run_cli_subprocess(["pbar-table", "--p-max", str(10**9)], tmp_path, timeout=60)
    assert proc.returncode == 2
    assert b"error:" in proc.stderr and b"limit" in proc.stderr


@pytest.mark.parametrize("args", [["specialize", "--expr", "[2]"], ["verify", "specialize"]])
def test_oversized_prime_exits_instead_of_hanging(tmp_path, args):
    proc = run_cli_subprocess([*args, "--p", HUGE_PRIME], tmp_path, timeout=60)
    assert proc.returncode == 2
    assert b"error:" in proc.stderr and b"more than" in proc.stderr


@pytest.mark.parametrize(
    "expr",
    [
        "<<1000000000000000003>>*[2]",
        "<1/1000000000039>*[2]",
        "g(-1000000000000)",  # 1 - a = 10^12 + 1
    ],
)
def test_huge_square_class_exits_instead_of_hanging(tmp_path, expr):
    proc = run_cli_subprocess(["specialize", "--p", "11", "--expr", expr], tmp_path, timeout=30)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"error:") and b"more than" in proc.stderr


@pytest.mark.parametrize(
    "expr",
    ["(" * 400 + "[2]" + ")" * 400, "-" * 1200 + "[2]"],
    ids=["parentheses", "unary-minus"],
)
def test_deeply_nested_expression_exits_2(tmp_path, expr):
    proc = run_cli_subprocess(["specialize", "--p", "11", f"--expr={expr}"], tmp_path, timeout=60)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"error:") and b"deeper than" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_nesting_up_to_the_depth_limit_answers(capsys):
    depth, half = cli.MAX_EXPR_DEPTH, cli.MAX_EXPR_DEPTH // 2
    for expr in ("(" * depth + "[2]" + ")" * depth, "-" * depth + "[2]", "-(" * half + "[2]" + ")" * half):
        code, out, _ = run_cli(["specialize", "--p", "11", f"--expr={expr}"], capsys)
        assert code == 0 and json.loads(out)["expr"] == expr
    code, _, err = run_cli(["specialize", "--p", "11", "--expr=" + "-" * (depth + 1) + "[2]"], capsys)
    assert code == 2 and "deeper than" in err


def test_product_with_too_many_terms_exits_2(capsys):
    # 14 factors of two classes each: 2^14 terms, refused before expanding
    primes = [q for q in range(2, 110) if all(q % i for i in range(2, q))]
    expr = "*".join(f"(<{primes[2 * i]}>+<{primes[2 * i + 1]}>)" for i in range(14)) + "*[2]"
    code, out, err = run_cli(["specialize", "--p", "11", f"--expr={expr}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"more than {cli.MAX_EXPR_TERMS} terms" in err


def _rational_text():
    num = st.integers(-30, 30).map(str) | st.sampled_from(["0", "1", "11", "121", "9" * 40])
    return st.one_of(num, st.tuples(num, st.sampled_from(["1", "0", "2", "11", "121", "3"])).map("/".join))


def _atom_text():
    r = _rational_text()
    return st.one_of(
        r,
        r.map("[{}]".format),
        r.map("<{}>".format),
        r.map("<<{}>>".format),
        r.map("g({})".format),
        r.map("psi1({})".format),
        st.just("C"),
    )


_EXPR_TEXT = st.recursive(
    _atom_text(),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " + ", "*-"]), inner).map("".join),
        inner.map("({})".format),
        inner.map("-{}".format),
    ),
    max_leaves=10,
)


@st.composite
def specialize_texts(draw):
    """Expressions of the specialize grammar, token soups, junk over its
    alphabet, and nesting around the depth limit."""
    kind = draw(st.sampled_from(["grammar", "grammar", "tokens", "junk", "deep"]))
    if kind == "grammar":
        return draw(_EXPR_TEXT)
    if kind == "tokens":
        toks = "[ ] < > << >> ( ) + - * / 2 0 1 11 g psi1 C".split() + [" "]
        return "".join(draw(st.lists(st.sampled_from(toks), max_size=16)))
    if kind == "junk":
        return draw(st.text(alphabet="0123456789/[]<>()+-*gpsiC1 x.\t", max_size=24))
    depth = draw(st.integers(cli.MAX_EXPR_DEPTH - 2, 3 * cli.MAX_EXPR_DEPTH))
    opener = draw(st.sampled_from(["(", "-", "-(", "(-"]))
    closer = ")" * opener.count("(")
    return opener * depth + draw(_atom_text()) + closer * depth


@settings(max_examples=300, deadline=2000, derandomize=True)
@given(expr=specialize_texts())
def test_specialize_grammar_answers_or_exits_2(expr):
    code, out, err = _main_in_process(["specialize", "--p", "11", f"--expr={expr}"])
    if code == 2:
        assert out == "" and err.startswith("error:") and len(err.strip()) > len("error:")
        return
    assert code == 0, (code, out, err)
    assert json.loads(out)["expr"] == expr


@st.composite
def ring_descriptors(draw):
    """Descriptors of the ring grammar with small, zero, composite and huge
    numbers, their near misses, and junk over the grammar's alphabet."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(alphabet="gfzt/()[]^0123456789 GFZ", max_size=20))
    num = st.one_of(st.integers(0, 260), st.sampled_from([2**16, 10**12, 2**127 - 1])).map(str)
    exp = st.one_of(st.integers(0, 9), st.sampled_from([40, 100000, 10**30])).map(str)
    p, d, m = draw(num), draw(exp), draw(exp)
    shapes = ["gf({p})", "gf({p}^{d})", "z/{p}", "z/{p}^{d}", "gf({p})[t]/t^{m}"]
    shapes += ["gf({p}^{d})[t]/t^{m}", "GF({p}^{d})", " z/{p}^{d} ", "gf({p}^)", "z/^{d}"]
    shape = draw(st.sampled_from(shapes))
    return shape.format(p=p, d=d, m=m)


@settings(max_examples=300, deadline=2000, derandomize=True)
@given(desc=ring_descriptors())
def test_ring_descriptor_grammar_builds_or_refuses(desc):
    try:
        ring = cli._ring_of(desc)
    except ValueError:
        return
    assert 2 <= ring.size() <= cli.MAX_RING_SIZE
    base, exp = descriptor_size(desc)
    assert base**exp == ring.size()


@pytest.mark.parametrize("ring", [f"gf({2**127 - 1}^0)", "gf(1000000000039)[t]/t^0", "z/7^0"])
def test_zero_exponent_rejected_before_parsing(capsys, monkeypatch, ring):
    # the parser tests the base for primality, or enumerates GF(base),
    # before it reads the exponent
    def refuse(*args):
        raise AssertionError("the ring must not be parsed")

    monkeypatch.setattr(cli, "parse_ring", refuse)
    code, out, err = run_cli(["group", "P", "--ring", ring], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exponents must be >= 1" in err


def test_product_of_large_square_classes_answers(capsys):
    # each class is under the cap; their product is not factored again
    expr = "<999999999989>*<999999999961>*[2]"
    code, out, _ = run_cli(["specialize", "--p", "11", "--expr", expr], capsys)
    assert code == 0 and json.loads(out)["expr"] == expr


def test_verify_all_reports_job_times_on_stderr(capsys, monkeypatch):
    # jobs that take known times, listed in neither key nor time order
    delays = {"b": 0.0, "d": 0.12, "a": 0.04, "c": 0.08}

    def run_job(job, seed):
        time.sleep(delays[job[0]])
        return job[0], [verify.Check(f"job {job[0]}", True)]

    monkeypatch.setattr(verify, "verify_all_jobs", lambda max_q: [(k, None) for k in delays])
    monkeypatch.setattr(verify, "run_job", run_job)
    code, out, err = run_cli(["verify-all", "--jobs", "1"], capsys)
    assert code == 0
    assert out == "a: [ok] job a\nb: [ok] job b\nc: [ok] job c\nd: [ok] job d\nverify-all: ok\n"
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["time a", "time b", "time c", "time d"]
    secs = {line[5]: float(line.split(": ")[1].removesuffix(" s")) for line in lines[:-1]}
    assert all(secs[k] >= d for k, d in delays.items())
    assert lines[-1] == "slowest: " + ", ".join(f"{k} {secs[k]:.2f} s" for k in "dca")
