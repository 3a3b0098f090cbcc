"""Batch front-end: compute any presented group, run verification suites,
specialize symbolic expressions at a prime, decompose matrices on the
tree, and emit the global order tables.

Exit codes: 0 success, 1 failed assertion, 2 usage error.  Output is
deterministic for a fixed (command, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import globalinv, orbitcomplex, tree, verify, witt
from .groupring import act, add, r_mul, scale
from .linalg import FpAb
from .rings import Ring, descriptor_size, is_prime, parse_ring
from .scissors import context
from .valuation import (
    QONE,
    qclass,
    specialization,
    sym_big_c,
    sym_dbl_bracket,
    sym_g,
    sym_gen,
    sym_psi1,
)

GROUP_BUILDERS = {
    "P": lambda ctx: ctx.pre_bloch(),
    "B": lambda ctx: ctx.bloch(),
    "S2": lambda ctx: ctx.s2_of_units(),
    "K2": lambda ctx: ctx.k2_cokernel(),
    "RP": lambda ctx: ctx.rp_flat(),
    "RP1": lambda ctx: ctx.rp1(),
    "RB": lambda ctx: ctx.rb(),
    "Ptilde": lambda ctx: ctx.tilde().p_tilde,
    "RPtilde": lambda ctx: ctx.tilde().rp_tilde,
    "RP1tilde": lambda ctx: ctx.tilde().rp1_tilde.group,
    "RBtilde": lambda ctx: ctx.tilde().rb_tilde.group,
    "RPprime": lambda ctx: ctx.rp_prime().flatten(),
    "GW": lambda ctx: witt.gw(ctx.ring),
    "I": lambda ctx: witt.fundamental_ideal(ctx.ring),
    "I2": lambda ctx: witt.i_squared(ctx.ring),
    "E1": lambda ctx: orbitcomplex.build_row_complex(ctx.ring).homology_at(1),
    "E2": lambda ctx: orbitcomplex.build_row_complex(ctx.ring).homology_at(2),
    "E3": lambda ctx: orbitcomplex.build_row_complex(ctx.ring).homology_at(3),
}

# largest ball `tree ball` builds; ball(11, 4), the largest one the
# acceptance criteria check, has 17 569 vertices
MAX_BALL_VERTICES = 10**6

# largest ring, in elements, that `group` and the ring suites of `verify`
# accept, and the largest p of `specialize` and the prime suites.  The
# five-term relations number about |W|^2; measured one process each on a
# 2-CPU machine whose speed varies by a third between runs, `group RP1`
# takes 0.45-0.65 s on GF(211) and 0.45-0.75 s on GF(233), and the
# library's `ctx.rp1()` 0.2-0.25 s on GF(211), 0.25-0.35 s on GF(233) and
# 0.4-0.6 s (65 MB peak RSS) on GF(289), and `verify specialize` takes
# 1.4-2.0 s at p = 233.  The cap stays at 233:
# the prime cap is the same number, and past 255, GF(2^4)[t]/t^2 (256
# elements, |G| = 16) does not finish `group RP` in 60 s
MAX_RING_SIZE = 233


def _ring_of(label: str) -> Ring:
    """The ring a descriptor names, refused above MAX_RING_SIZE elements
    before any element is built."""
    base, exp = descriptor_size(label)
    if exp < 1:
        # refused here: the parser tests a base of any size for primality,
        # or enumerates GF(base), before it reads the exponent
        raise ValueError(f"bad ring descriptor {label!r}: exponents must be >= 1")
    # base >= 2 and exp >= bit_length give base^exp > MAX_RING_SIZE
    if base > 1 and (exp >= MAX_RING_SIZE.bit_length() or base**exp > MAX_RING_SIZE):
        size = base if exp == 1 else f"{base}^{exp}"
        raise ValueError(f"{label} has {size} elements, more than {MAX_RING_SIZE}")
    return parse_ring(label)


# largest p of `tree` and `amalgam`: neither builds anything of size p,
# and is_prime decides a p below it in under 0.1 ms
MAX_TREE_PRIME = 10**12


# largest e of p^e in the common denominator that `amalgam` accepts: the
# walk takes e passes and each reads valuations of entries about as long
# as p^e, past p^16 by O(log e) divisions.  Python by default refuses to
# parse an integer of more than 4300 digits, which bounds those bits.
# Measured one process each on a 2-CPU machine, with [[1, N / p^e], [0, 1]]
# and N of 4 290 digits: through the command, start-up included, at
# e = 800, 0.4 s at p = 2 and p = 7 and 0.85 s at p = 236 449, the
# largest prime whose 800th power parses; through the library, 0.65 s at
# e = 1000 (p = 19 891), and with N = 1, 0.5 s at e = 1500 (p = 733) and
# 0.65 s at e = 2000 (p = 139)
MAX_AMALGAM_EXPONENT = 800


def _prime_of(p: int, cap: int = MAX_RING_SIZE) -> int:
    """The prime of a command, refused above cap before the primality
    test runs.  The default cap is for `specialize` and the prime
    suites of `verify`, which build GF(p) and its presentations."""
    if p > cap:
        raise ValueError(f"--p {p} is more than {cap}")
    return p


def _check_ball(p: int, radius: int) -> None:
    """Refuse a ball of more than MAX_BALL_VERTICES vertices before it is built."""
    size = tree.ball_size_formula(p, radius)
    if size > MAX_BALL_VERTICES:
        raise ValueError(
            f"ball of radius {radius} at p = {p} has {size} vertices, "
            f"more than {MAX_BALL_VERTICES}"
        )


def _check_amalgam_exponent(g, p: int) -> None:
    """Refuse a matrix whose common denominator holds p^e with e above
    MAX_AMALGAM_EXPONENT before the walk runs; a p below 2 is left to the
    walk's own refusal."""
    den = math.lcm(*(x.denominator for row in g for x in row))
    if p > 1 and den % p ** (MAX_AMALGAM_EXPONENT + 1) == 0:
        raise ValueError(
            f"--matrix has {p}^e in its denominator with e more than {MAX_AMALGAM_EXPONENT}"
        )


def _group_report(which: str, ring_label: str) -> dict:
    ctx = context(_ring_of(ring_label))
    grp: FpAb = GROUP_BUILDERS[which](ctx)
    rep = grp.report()
    rep.update({"ring": ctx.ring.label, "group": which, "describe": grp.describe()})
    return rep


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, default=str))
    else:
        keys = sorted(report)
        print("| " + " | ".join(keys) + " |")
        print("|" + "---|" * len(keys))
        print("| " + " | ".join(str(report[k]) for k in keys) + " |")


# ---------------------------------------------------------------------------
# expression grammar for specialize

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>psi1|g|C)|(?P<op><<|>>|[-+*/()\[\]<>]))"
)


def _fraction(*args) -> Fraction:
    """Fraction(*args), with a zero denominator as a usage error."""
    try:
        return Fraction(*args)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad token at {text[pos:]!r}")
        if m.group("num"):
            out.append(("num", int(m.group("num"))))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    out.append(("end", None))
    return out


# deepest nesting of parentheses and unary minus that `specialize` parses;
# each level costs the recursive descent up to three Python frames, so
# this stays well inside the interpreter's recursion limit
MAX_EXPR_DEPTH = 100

# most terms a product in a `specialize` expression may expand to: each
# factor (<a> + <b>) can double the terms, so a product of 24 of them,
# about 300 characters, would build 2^24 symbols; 2^13 = 8192 terms take
# about 0.2 s
MAX_EXPR_TERMS = 10**4


class _ExprParser:
    """Recursive-descent parser for the specialize grammar: integers,
    rationals, [a], <a>, <<a>>, g(a), psi1(a), C, +, -, *."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def nested(self, parse):
        """parse() one nesting level deeper, refused past MAX_EXPR_DEPTH."""
        if self.depth == MAX_EXPR_DEPTH:
            raise ValueError(f"expression nests deeper than {MAX_EXPR_DEPTH} levels")
        self.depth += 1
        v = parse()
        self.depth -= 1
        return v

    def peek(self):
        return self.toks[self.i]

    def eat(self, kind, value=None):
        t = self.toks[self.i]
        if t[0] != kind or (value is not None and t[1] != value):
            raise ValueError(f"expected {value or kind}, found {t[1]!r}")
        self.i += 1
        return t[1]

    def parse(self):
        v = self.expr()
        self.eat("end")
        return v

    def expr(self):
        v = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.eat("op")
            w = self.term()
            v = _val_add(v, w if op == "+" else _val_neg(w))
        return v

    def term(self):
        v = self.factor()
        while self.peek() == ("op", "*"):
            self.eat("op", "*")
            v = _val_mul(v, self.factor())
        return v

    def rational(self) -> Fraction:
        sign = 1
        if self.peek() == ("op", "-"):
            self.eat("op", "-")
            sign = -1
        num = self.eat("num")
        if self.peek() == ("op", "/"):
            self.eat("op", "/")
            den = self.eat("num")
            return _fraction(sign * num, den)
        return Fraction(sign * num)

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.eat("op", "-")
            return _val_neg(self.nested(self.factor))
        if kind == "op" and val == "(":
            self.eat("op", "(")
            v = self.nested(self.expr)
            self.eat("op", ")")
            return v
        if kind == "op" and val == "[":
            self.eat("op", "[")
            a = self.rational()
            self.eat("op", "]")
            return ("mod", sym_gen(a))
        if kind == "op" and val == "<<":
            self.eat("op", "<<")
            a = self.rational()
            self.eat("op", ">>")
            return ("ring", sym_dbl_bracket(a))
        if kind == "op" and val == "<":
            self.eat("op", "<")
            a = self.rational()
            self.eat("op", ">")
            return ("ring", {qclass(a): 1})
        if kind == "name":
            name = self.eat("name")
            if name == "C":
                return ("mod", sym_big_c())
            self.eat("op", "(")
            a = self.rational()
            self.eat("op", ")")
            return ("mod", sym_g(a) if name == "g" else sym_psi1(a))
        if kind == "num":
            return ("num", self.rational())
        raise ValueError(f"unexpected token {val!r}")


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise ValueError(f"non-integral scalar {x} cannot scale a module element")
    return x.numerator


def _val_neg(v):
    kind, x = v
    if kind == "num":
        return ("num", -x)
    return (kind, scale(-1, x))


def _val_add(v, w):
    if v[0] == "num" and w[0] == "num":
        return ("num", v[1] + w[1])
    if "mod" in (v[0], w[0]):
        return ("mod", add(_to_mod(v), _to_mod(w)))
    return ("ring", add(_to_ring(v), _to_ring(w)))


def _to_ring(v):
    if v[0] == "ring":
        return v[1]
    if v[0] == "num":
        return {QONE: _as_int(v[1])}
    raise ValueError("cannot add a module element to a scalar")


def _to_mod(v):
    if v[0] == "mod":
        return v[1]
    raise ValueError("cannot add a scalar or class to a module element")


def _val_mul(v, w):
    if v[0] == "num" and w[0] == "num":
        return ("num", v[1] * w[1])
    if v[0] == "num":
        return (w[0], scale(_as_int(v[1]), w[1]))
    if w[0] == "num":
        return _val_mul(w, v)
    if v[0] == "ring" and len(v[1]) * len(w[1]) > MAX_EXPR_TERMS:
        raise ValueError(
            f"a product of {len(v[1])} and {len(w[1])} terms may have more than "
            f"{MAX_EXPR_TERMS} terms"
        )
    if v[0] == "ring" and w[0] == "ring":
        return ("ring", r_mul(v[1], w[1]))
    if v[0] == "ring" and w[0] == "mod":
        return ("mod", act(v[1], w[1]))
    raise ValueError("module elements cannot multiply")


def parse_expression(text: str):
    return _ExprParser(text).parse()


def _specialize_report(p: int, expr: str) -> dict:
    kind, val = parse_expression(expr)
    if kind != "mod":
        raise ValueError("expression must evaluate to a module element")
    ctx = specialization(p)
    ind = ctx.s_v(val)
    dpp = ctx.delta_pi_prime(val)

    def pack(elem):
        red = ctx.rp_tilde.reduce(elem.entries)
        return {"zero": elem.is_zero(), "reduced": [int(x) for x in red]}

    return {
        "p": p,
        "expr": expr,
        "delta_0": pack(ind.comp0),
        "delta_pi": pack(ind.comp_pi),
        "delta_pi_prime": pack(dpp),
    }


# ---------------------------------------------------------------------------
# matrix parsing for tree/amalgam commands


# a matrix entry: an integer or n/d in ASCII digits, so that no exponent
# (1e1000000000) can expand into a huge integer
_ENTRY_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_matrix_arg(text: str):
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError("matrix must have two ';'-separated rows")
    vals = []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 2:
            raise ValueError("each row needs two ','-separated entries")
        for part in parts:
            entry = part.strip()
            if not _ENTRY_RE.fullmatch(entry):
                raise ValueError(f"matrix entry {entry!r} is not an integer or a fraction n/d")
            vals.append(_fraction(entry))
    return tree.mat2(*vals)


def _mat_str(m) -> str:
    return ";".join(",".join(str(x) for x in row) for row in m)


# ---------------------------------------------------------------------------
# command implementations


def cmd_group(args) -> int:
    rep = _group_report(args.which, args.ring)
    _emit(rep, args.format)
    return 0


def cmd_verify(args) -> int:
    ring, p = args.ring, args.p
    param = verify.SUITES[args.suite][0]
    if param == "ring" and ring is not None:
        ring = _ring_of(ring)
    if param == "p" and p is not None:
        p = _prime_of(p)
        if args.suite == "tree":
            _check_ball(p, verify.TREE_SUITE_RADIUS)
    checks = verify.run_suite(args.suite, ring=ring, p=p, q=args.q, seed=args.seed)
    for c in checks:
        print(c.line())
    return 0 if all(c.ok for c in checks) else 1


def worker_count(jobs: int, njobs: int) -> int:
    """Processes for verify-all: --jobs, but no more than the CPUs or the jobs."""
    if jobs < 1:
        raise ValueError(f"--jobs {jobs} must be at least 1")
    return min(jobs, os.cpu_count() or 1, njobs)


def _timed_job(job: tuple, seed: int) -> tuple[str, list, float]:
    """verify.run_job with the wall seconds it took, measured where it ran."""
    start = time.perf_counter()
    key, checks = verify.run_job(job, seed)
    return key, checks, time.perf_counter() - start


def cmd_verify_all(args) -> int:
    """Every suite's checks on stdout; each job's wall seconds and the three
    slowest jobs on stderr, so that stdout depends only on the results."""
    jobs = verify.verify_all_jobs(max_q=args.max_q)
    workers = worker_count(args.jobs, len(jobs))
    results = []
    if workers > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=workers) as ex:
            futs = {ex.submit(_timed_job, job, args.seed): job for job in jobs}
            for fut in cf.as_completed(futs):
                results.append(fut.result())
    else:
        for job in jobs:
            results.append(_timed_job(job, args.seed))
    results.sort(key=lambda kv: kv[0])
    ok = True
    for key, checks, _ in results:
        for c in checks:
            print(f"{key}: {c.line()}")
            ok = ok and c.ok
    print("verify-all:", "ok" if ok else "FAILED")
    for key, _, secs in results:
        print(f"time {key}: {secs:.2f} s", file=sys.stderr)
    slowest = sorted(results, key=lambda r: -r[2])[:3]
    print("slowest: " + ", ".join(f"{key} {secs:.2f} s" for key, _, secs in slowest), file=sys.stderr)
    return 0 if ok else 1


def cmd_specialize(args) -> int:
    rep = _specialize_report(_prime_of(args.p), args.expr)
    _emit(rep, args.format)
    return 0


def cmd_tree(args) -> int:
    # canonical_vertex runs in hot loops and leaves p unchecked
    if not is_prime(_prime_of(args.p, MAX_TREE_PRIME)):
        raise ValueError(f"--p {args.p} is not prime")
    if args.sub == "ball":
        _check_ball(args.p, args.radius)
        if args.dot:
            sys.stdout.write(tree.dot_output(args.p, args.radius))
            return 0
        depth, edges = tree.ball(args.p, args.radius)
        per_depth = {}
        for v, d in depth.items():
            per_depth[d] = per_depth.get(d, 0) + 1
        rep = {
            "p": args.p,
            "radius": args.radius,
            "vertices": len(depth),
            "edges": len(edges),
            "per_depth": [per_depth[d] for d in sorted(per_depth)],
            "formula": tree.ball_size_formula(args.p, args.radius),
            "is_tree": tree.ball_is_tree(args.p, min(args.radius, 3)),
        }
        _emit(rep, args.format)
        return 0
    if args.sub == "vertex":
        if args.matrix is None:
            raise ValueError("tree vertex needs --matrix")
        m = parse_matrix_arg(args.matrix)
        key = tree.canonical_vertex(m, args.p)
        _emit({"p": args.p, "a": key.a, "c": str(key.c)}, args.format)
        return 0
    raise ValueError(f"unknown tree subcommand {args.sub!r}")


def cmd_amalgam(args) -> int:
    g = parse_matrix_arg(args.matrix)
    p = _prime_of(args.p, MAX_TREE_PRIME)
    _check_amalgam_exponent(g, p)
    word = tree.amalgam_decompose(g, p)
    rep = {
        "p": args.p,
        "matrix": _mat_str(g),
        "length": len(word),
        "sides": ["G0" if s == tree.G0_SIDE else "G1" for s in word.sides()],
        "factors": [_mat_str(m) for m, _ in word.factors],
        "product_ok": word.product() == g,
        "alternating": all(
            s1 != s2 for s1, s2 in zip(word.sides(), word.sides()[1:])
        ),
    }
    _emit(rep, args.format)
    return 0 if rep["product_ok"] and rep["alternating"] else 1


def cmd_pbar_table(args) -> int:
    reports = globalinv.pbar_table(args.p_min, args.p_max)
    rows = [r.as_dict() for r in reports]
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    elif args.format == "csv":
        cols = ["p", "(p+1)'", "killed", "pbar_odd", "3 | p+1"]
        print(",".join(cols))
        for r in rows:
            print(",".join(str(r[c]) for c in cols))
    else:
        cols = ["p", "(p+1)'", "killed", "pbar_odd", "3 | p+1"]
        print("| " + " | ".join(cols) + " |")
        print("|" + "---|" * len(cols))
        for r in rows:
            print("| " + " | ".join(str(r[c]) for c in cols) + " |")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the common flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--format", choices=["json", "md", "csv"], default=argparse.SUPPRESS
    )

    ap = argparse.ArgumentParser(
        prog="scgroups",
        description="exact scissors congruence groups, Grothendieck-Witt "
        "invariants, and the SL2 tree over finite local rings",
    )
    ap.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    ap.add_argument("--format", choices=["json", "md", "csv"], default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="compute a presented group", parents=[common])
    g.add_argument("which", choices=sorted(GROUP_BUILDERS))
    g.add_argument("--ring", required=True)
    g.set_defaults(func=cmd_group)

    v = sub.add_parser("verify", help="run a named verification suite", parents=[common])
    v.add_argument("suite", choices=verify.all_suite_names())
    v.add_argument("--ring")
    v.add_argument("--p", type=int)
    v.add_argument("--q", type=int)
    v.set_defaults(func=cmd_verify)

    va = sub.add_parser("verify-all", help="run every verification suite", parents=[common])
    va.add_argument("--max-q", type=int, default=13)
    va.add_argument("--jobs", type=int, default=1)
    va.set_defaults(func=cmd_verify_all)

    s = sub.add_parser("specialize", help="specialize an expression at p", parents=[common])
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--expr", required=True)
    s.set_defaults(func=cmd_specialize)

    t = sub.add_parser("tree", help="tree computations", parents=[common])
    t.add_argument("sub", choices=["ball", "vertex"])
    t.add_argument("--p", type=int, required=True)
    t.add_argument(
        "--radius",
        type=int,
        default=2,
        help="radius of the ball; the is_tree field of the JSON report "
        "certifies the ball of radius min(radius, 3)",
    )
    t.add_argument("--dot", action="store_true")
    t.add_argument("--matrix")
    t.set_defaults(func=cmd_tree)

    a = sub.add_parser("amalgam", help="amalgam decomposition of a matrix", parents=[common])
    a.add_argument("--p", type=int, required=True)
    a.add_argument("--matrix", required=True)
    a.set_defaults(func=cmd_amalgam)

    pt = sub.add_parser("pbar-table", help="global order table over primes", parents=[common])
    pt.add_argument("--p-min", type=int, default=11)
    pt.add_argument("--p-max", type=int, default=97)
    pt.set_defaults(func=cmd_pbar_table)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.format == "csv" and args.command != "pbar-table":
            raise ValueError("--format csv is only supported by pbar-table")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
