"""The three workloads: inputs made from a seed, a set-up that builds
what the timed part reads, and a round of timed calls followed by checks.

Each round has two timed parts, the bulk and the items, and runs them in
alternating slices timed by a SpeedClock, so that both sample the machine
over the whole round.  A round always attempts the same operations,
so the share of failed operations does not depend on the seed or on how
many rounds a run makes.  The program is reached only through the module
namespace returned by ``load_program``, which re-imports it for every set-up.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

import checks

MODULES = (
    "rings",
    "linalg",
    "groupring",
    "scissors",
    "witt",
    "orbitcomplex",
    "valuation",
    "tree",
    "globalinv",
)


def load_program(tracer=None) -> SimpleNamespace:
    """Import scgroups afresh (new modules, empty lru caches); with a
    tracer, wrap its public functions before anything is built."""
    for name in list(sys.modules):
        if name == "scgroups" or name.startswith("scgroups."):
            del sys.modules[name]
    mods = {m: importlib.import_module(f"scgroups.{m}") for m in MODULES}
    if tracer is not None:
        tracer.install("scgroups")
    return SimpleNamespace(**mods)


def clear_caches(prog: SimpleNamespace):
    """Empty every functools cache of the program, so that builds by label
    (scissors.context, valuation.specialization) start cold."""
    for mod in vars(prog).values():
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def signature(g) -> tuple:
    """(free rank, invariant factors) of an FpAb; forces its HNF and SNF."""
    return g.free_rank, tuple(int(d) for d in g.invariant_factors())


def force(g, smith: bool):
    """Fill an FpAb's lazy caches: relation basis and pivot columns, and
    the SNF when element orders are asked."""
    g.contains([0] * g.ngens)
    if smith:
        g.invariant_factors()


class SpeedClock:
    """Wall-clock seconds of slices of work, also scaled to a nominal
    machine speed.

    The shared machine this benchmark was written on changes speed within
    a second: a fixed reference loop takes either about 1.4 or about 2.5 ms,
    switching back and forth, and one pass of the tree bulk took from 8.3 to
    12.6 s.  So after every slice of work the clock times a fixed
    pure-Python reference loop (the median of PROBES repetitions) and
    records the speed NOMINAL_S / probe.  A slice's seconds are scaled by an
    estimate of the speed while it ran: the mean of the probes just before
    and after it, for a slice no longer than LOCAL_S; the mean of all probes
    of the round, for a long slice, whose own two probes say little about
    its many speed changes; and a blend, weighted LOCAL_S / seconds, in
    between.  LOCAL_S is the value, of those tried, that gave the smallest
    worst spread over the workloads (see the README).  The result is the
    seconds the work would take where the reference loop takes NOMINAL_S.
    The probes are the benchmark's own code, identical on every commit, so
    a change to the program moves the scaled seconds as it moves the wall
    seconds.
    """

    NOMINAL_S = 0.0015
    PROBES = 5
    LOCAL_S = 2.0

    def __init__(self):
        self.restart()

    @staticmethod
    def _reference():
        d = {}
        for i in range(6000):
            k = (i & 127, i % 5)
            d[k] = d.get(k, 0) + i * 7919 % 1009
        return d

    def probe(self) -> float:
        times = []
        for _ in range(self.PROBES):
            t0 = time.perf_counter()
            self._reference()
            times.append(time.perf_counter() - t0)
        speed = self.NOMINAL_S / statistics.median(times)
        self.speeds.append(speed)
        return speed

    def restart(self):
        """Forget the slices and the probes, and probe afresh."""
        self.slices = []  # (part, wall seconds, speed before, speed after)
        self.speeds = []
        self.last = self.probe()

    def run(self, part: str, fn, *args):
        """Call fn(*args) as one slice of part, then probe."""
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        after = self.probe()
        self.slices.append((part, dt, self.last, after))
        self.last = after
        return out

    def take(self, part: str) -> tuple:
        """(scaled, wall) seconds of the slices of part since the last restart."""
        overall = statistics.fmean(self.speeds)
        scaled = raw = 0.0
        for name, dt, before, after in self.slices:
            if name == part:
                w = min(1.0, self.LOCAL_S / dt) if dt > 0 else 1.0
                scaled += dt * (w * (before + after) / 2 + (1 - w) * overall)
                raw += dt
        return scaled, raw


@dataclass
class RoundResult:
    bulk_s: float  # scaled seconds per pass of the bulk work
    items: int
    items_s: float  # scaled seconds of the items
    raw_s: float  # wall seconds of both parts
    checks: list = field(default_factory=list)  # (label, ok)

    @classmethod
    def from_clock(cls, clock: SpeedClock, bulk_passes: int, items: int, results: list):
        bulk, bulk_raw = clock.take("bulk")
        items_s, items_raw = clock.take("items")
        return cls(bulk / bulk_passes, items, items_s, bulk_raw + items_raw, results)


def slices(seq, n: int) -> list:
    """n interleaved slices seq[k::n] of a list."""
    return [seq[k::n] for k in range(n)]


def primes_between(lo: int, hi: int) -> list:
    return [p for p in range(max(lo, 2), hi + 1) if all(p % d for d in range(2, p))]


# ---------------------------------------------------------------------------
# groups: the build path of scissors, groupring and linalg


class Groups:
    """Bulk: every group of GF(49), GF(121) and the L_B sequence of Z/121,
    from fresh contexts.  Items: the primes of the P(GF(p)) sweep, one run
    after each bulk step."""

    name = "groups"
    ORACLE_PRIME_MAX = 31  # sympy checks P(GF(p)) of one seeded prime p <= this

    def __init__(
        self,
        fields=(("gf(49)", 49), ("gf(121)", 121)),
        lb_rings=("z/11^2",),
        primes=tuple(primes_between(11, 97)),
        oracle_fields=("gf(49)",),
    ):
        self.fields = tuple(fields)
        self.lb_rings = tuple(lb_rings)
        self.primes = tuple(primes)
        self.oracle_fields = tuple(oracle_fields)

    def labels(self):
        return [f for f, _ in self.fields] + list(self.lb_rings) + [
            f"gf({p})" for p in self.primes
        ]

    def setup(self, prog):
        # ring tables of every ring the round builds; the round parses
        # each ring again, so these objects only prove the inputs valid
        return {label: prog.rings.parse_ring(label) for label in self.labels()}

    def inputs(self, prog, state, seed: int):
        # the rings are the workload; the seed picks the second ring
        # whose P relation matrix sympy checks
        rng = random.Random(seed)
        small = [p for p in self.primes if p <= self.ORACLE_PRIME_MAX]
        return SimpleNamespace(oracle_prime=rng.choice(small))

    @staticmethod
    def field_steps(prog, label: str, sigs: dict, keep: dict):
        """Build and certify every group of one field, one step per yield."""
        ring = prog.rings.parse_ring(label)
        ctx = prog.scissors.ScissorsContext(ring)
        for name, make in (
            ("P", ctx.pre_bloch),
            ("B", ctx.bloch),
            ("RP1", ctx.rp1),
            ("RB", ctx.rb),
            ("RP1~", lambda: ctx.tilde().rp1_tilde.group),
        ):
            g = make()
            sigs[name] = signature(g)
            if name == "P":
                keep["P"] = g  # for the sympy check after the round
            yield
        wctx = prog.witt.WittContext(ring)
        sigs["I"] = signature(wctx.fundamental_ideal())
        sigs["I2"] = signature(wctx.i_squared())
        yield
        row = prog.orbitcomplex.build_row_complex(ring)
        yield
        for pos in (1, 2, 3):
            sigs[f"E2[{pos}]"] = signature(row.homology_at(pos))
            yield

    @staticmethod
    def lb_steps(prog, label: str, sigs: dict, keep: dict):
        ctx = prog.scissors.ScissorsContext(prog.rings.parse_ring(label))
        res = ctx.l_submodule()
        sigs["quotient"] = signature(res["quotient"])
        sigs["target"] = signature(res["target"])
        sigs["kernel_ok"] = res["kernel_ok"]
        yield

    @staticmethod
    def sweep_prime(prog, p: int):
        ctx = prog.scissors.context(f"gf({p})")
        pgrp = ctx.pre_bloch()
        sig = signature(pgrp)
        order = pgrp.element_order(ctx.pb_vector(ctx.c_const()))
        return pgrp, sig, order, prog.globalinv.pbar_cross_check(p)

    @staticmethod
    def field_checks(label: str, q: int, sigs: dict) -> list:
        out = []
        p_sig = sigs["P"]
        out.append((f"{label}: |P| odd part is (q+1)'", odd_ok(p_sig, q + 1)))
        for name, sig in sigs.items():
            out.append((f"{label}: {name} invariant factors chain", checks.is_divisibility_chain(sig[1])))
        four = ["P", "B", "RP1", "RB"]
        for i, a in enumerate(four):
            for b in four[i + 1 :]:
                out.append(
                    (f"{label}: {a} ~ {b} after inverting 2", checks.iso_after_inverting_2(sigs[a], sigs[b]))
                )
        out.append((f"{label}: RP1~ ~ RP1 after inverting 2", checks.iso_after_inverting_2(sigs["RP1~"], sigs["RP1"])))
        out.append((f"{label}: I^2 odd part vanishes", checks.odd_order(sigs["I2"]) == 1))
        out.append((f"{label}: E2 position 1 is 0", sigs["E2[1]"] == (0, ())))
        out.append((f"{label}: E2 position 2 = I(k)", sigs["E2[2]"] == sigs["I"]))
        out.append(
            (f"{label}: E2 position 3 ~ RP1 after inverting 2", checks.iso_after_inverting_2(sigs["E2[3]"], sigs["RP1"]))
        )
        return out

    def round(self, prog, state, inp, clock: SpeedClock) -> RoundResult:
        clear_caches(prog)
        gc.collect()
        clock.restart()
        builds = [("field", label, q, {}, {}) for label, q in self.fields]
        builds += [("lb", label, None, {}, {}) for label in self.lb_rings]
        steps = itertools.chain.from_iterable(
            (self.field_steps if kind == "field" else self.lb_steps)(prog, label, sigs, keep)
            for kind, label, _, sigs, keep in builds
        )
        primes = list(self.primes)
        sweep = []
        more = True
        while more or primes:
            if more:
                more = clock.run("bulk", next, steps, False) is None
            if primes:
                # each prime starts cold, whatever the bulk left behind
                p = primes.pop(0)
                clear_caches(prog)
                gc.collect()
                pgrp, sig, order, cross = clock.run("items", self.sweep_prime, prog, p)
                sweep.append((p, pgrp if p == inp.oracle_prime else None, sig, order, cross))

        results = []
        oracle = []
        for kind, label, q, sigs, keep in builds:
            if kind == "field":
                results += self.field_checks(label, q, sigs)
                if label in self.oracle_fields:
                    oracle.append((label, keep["P"], sigs["P"]))
            else:
                results.append((f"{label}: L_B generators die in RP~(k)", sigs["kernel_ok"] is True))
                results.append((f"{label}: RP~(B)/L_B = RP~(k), equal invariant factors", sigs["quotient"] == sigs["target"]))
        for p, pgrp, sig, order, cross in sweep:
            results.append((f"gf({p}): |P| odd part is (p+1)', free rank 0", odd_ok(sig, p + 1)))
            results.append((f"gf({p}): order of c is gcd(6, (p+1)/2)", order == math.gcd(6, (p + 1) // 2)))
            results.append((f"gf({p}): pbar cross-check", cross is True))
            if pgrp is not None:
                oracle.append((f"gf({p})", pgrp, sig))
        for label, pgrp, sig in oracle:
            want = checks.oracle_signature(pgrp.rels, pgrp.ngens)
            results.append((f"{label}: P invariant factors match sympy", sig == want))
        return RoundResult.from_clock(clock, 1, len(sweep), results)


def odd_ok(sig, n: int) -> bool:
    return sig[0] == 0 and checks.odd_order(sig) == checks.odd_part(n)


# ---------------------------------------------------------------------------
# queries: the read path against presentations built in set-up


class Queries:
    """Bulk: the psi_i cocycle law over all unit pairs of Z/121.  Items:
    the other identities, seeded negative controls, S_v on seeded Y
    relations and multiples of c at one prime p = 3 mod 4."""

    name = "queries"
    SLICES = 20

    def __init__(self, ring="z/11^2", prime=47, rp_pos=1500, rp_neg=1500, sv=10000, sv_neg=1000, c_mult=1000, c_order=500):
        if prime % 4 != 3 or math.gcd(6, (prime + 1) // 2) == 1:
            raise ValueError("the prime must be 3 mod 4 with gcd(6, (p+1)/2) > 1")
        self.ring = ring
        self.prime = prime
        self.counts = dict(rp_pos=rp_pos, rp_neg=rp_neg, sv=sv, sv_neg=sv_neg, c_mult=c_mult, c_order=c_order)

    def setup(self, prog):
        ctx = prog.scissors.ScissorsContext(prog.rings.parse_ring(self.ring))
        rp, pgrp = ctx.rp_flat(), ctx.pre_bloch()
        sp = prog.valuation.SpecializationContext(self.prime)
        pk = sp.sc.pre_bloch()
        for g in (rp, pgrp, sp.rp_tilde):
            force(g, smith=False)
        force(pk, smith=True)
        return SimpleNamespace(ctx=ctx, rp=rp, P=pgrp, C=ctx.big_c(), sp=sp, Pk=pk, ck=sp.sc.c_const())

    def inputs(self, prog, st, seed: int):
        """Seeded questions as (kind, payload, expected answer)."""
        rng = random.Random(seed)
        sc, val, gr = prog.scissors, prog.valuation, prog.groupring
        ctx, ring, G = st.ctx, st.ctx.ring, st.ctx.G
        items = [("key", a, True) for a in ring.units]
        items += [("3C", None, True), ("6C", None, True)]
        items += [("base c", a, True) for a in ctx.W] + [("base C", a, True) for a in ctx.W]

        def identity():
            kind = rng.randrange(3)
            a, b = rng.choice(ring.units), rng.choice(ring.units)
            if kind == 0:
                return cocycle_element(sc, ctx, rng.choice((1, 2)), a, b)
            if kind == 1:
                return key_element(sc, gr, ctx, st.C, a)
            return sc.rp_scale(6, st.C)

        for _ in range(self.counts["rp_pos"]):
            x = {}
            for _ in range(3):
                r = {rng.randrange(G.order): rng.choice((-2, -1, 1, 2))}
                x = sc.rp_add(x, sc.rp_act(r, identity()))
            items.append(("rp", x, True))
        n = 0
        while n < self.counts["rp_neg"]:
            x = {}
            for _ in range(rng.randint(1, 3)):
                k = (rng.randrange(G.order), rng.choice(ctx.W))
                x = sc.rp_add(x, {k: rng.choice((-3, -2, -1, 1, 2, 3))})
            if x and ctx.lambda1_of(x):  # lambda_1(x) != 0 proves x != 0 in RP
                items.append(("rp", x, False))
                n += 1

        p = self.prime
        for _ in range(self.counts["sv"]):
            while True:
                a = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
                b = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
                if 0 not in (a, b) and 1 not in (a, b) and a != b and a / b not in (0, 1):
                    break
            cls = val.qclass(Fraction(rng.randint(1, 60)))
            items.append(("sv", val.sym_act({cls: 1}, val.sym_y_relation(a, b)), True))
        n = 0
        while n < self.counts["sv_neg"]:
            t = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            u = rng.randint(1, 60)
            if t in (0, 1) or t.numerator % p == 0 or t.denominator % p == 0 or u % p == 0:
                continue
            tbar = t.numerator * pow(t.denominator, -1, p) % p
            nonsq = p - 1
            if checks.legendre(tbar, p) != nonsq or checks.legendre(1 - tbar, p) != nonsq:
                continue
            # S_v([t]) with a unit class is <u>[tbar]; lambda_1 of it is nonzero
            items.append(("sv neg", val.sym_gen(t, val.qclass(Fraction(u))), False))
            n += 1

        order = math.gcd(6, (p + 1) // 2)
        for _ in range(self.counts["c_mult"]):
            k = rng.randint(1, 6 * order)
            items.append(("c mult", k, k % order == 0))
        for _ in range(self.counts["c_order"]):
            k = rng.randint(1, 6 * order)
            items.append(("c order", k, order // math.gcd(order, k)))
        rng.shuffle(items)
        return SimpleNamespace(items=items)

    def ask(self, prog, st, kind, x):
        sc, ctx = prog.scissors, st.ctx
        if kind == "key":
            return ctx.rp_is_zero(key_element(sc, prog.groupring, ctx, st.C, x))
        if kind == "rp":
            return ctx.rp_is_zero(x)
        if kind == "3C":
            return ctx.rp_is_zero(sc.rp_add(sc.rp_scale(3, st.C), sc.rp_scale(-1, ctx.psi1(ctx.ring.neg_one()))))
        if kind == "6C":
            return ctx.rp_is_zero(sc.rp_scale(6, st.C))
        if kind == "base c":
            diff = sc.pb_add(ctx.c_const(x), sc.pb_scale(-1, ctx.c_const()))
            return st.P.contains(ctx.pb_vector(diff))
        if kind == "base C":
            return ctx.rp_is_zero(sc.rp_add(ctx.big_c(x), sc.rp_scale(-1, st.C)))
        if kind == "sv":
            return st.sp.s_v(x).is_zero()
        if kind == "sv neg":
            comp = st.sp.s_v(x).comp0
            return comp.is_zero(), comp.vec
        if kind == "c mult":
            return st.Pk.contains(st.sp.sc.pb_vector(sc.pb_scale(x, st.ck)))
        if kind == "c order":
            return st.Pk.element_order(st.sp.sc.pb_vector(sc.pb_scale(x, st.ck)))
        raise ValueError(kind)

    def round(self, prog, st, inp, clock: SpeedClock) -> RoundResult:
        units = st.ctx.ring.units
        pairs = [(i, a) for i in (1, 2) for a in units]
        gc.collect()
        clock.restart()
        cocycle, answers = [], []
        for pair_slice, item_slice in zip(slices(pairs, self.SLICES), slices(inp.items, self.SLICES)):
            cocycle += clock.run(
                "bulk",
                lambda: [st.ctx.rp_is_zero(cocycle_element(prog.scissors, st.ctx, i, a, b)) for i, a in pair_slice for b in units],
            )
            got = clock.run("items", lambda: [self.ask(prog, st, kind, x) for kind, x, _ in item_slice])
            answers += zip(item_slice, got)

        results = [("z/121: psi_i cocycle law", ok is True) for ok in cocycle]
        p = self.prime
        for (kind, _, want), got in answers:
            if kind == "sv neg":
                is_zero, vec = got
                ok = is_zero is False and checks.lambda1_functional(vec, st.sp.sc.W, p) != 0
            else:
                ok = got == want and type(got) is type(want)
            results.append((f"query {kind}", ok))
        return RoundResult.from_clock(clock, 1, len(answers), results)


def cocycle_element(sc, ctx, i, a, b):
    """psi_i(ab) - <a>psi_i(b) - psi_i(a), which vanishes in RP."""
    rhs = sc.rp_add(sc.rp_act({ctx.G.class_of(a): 1}, ctx.psi(i, b)), ctx.psi(i, a))
    return sc.rp_add(ctx.psi(i, ctx.ring.mul(a, b)), sc.rp_scale(-1, rhs))


def key_element(sc, gr, ctx, C, a):
    """2<<a>>C - psi_1(a) + psi_2(a), which vanishes in RP."""
    return sc.rp_add(
        sc.rp_scale(2, sc.rp_act(gr.dbl_bracket(ctx.G, a), C)),
        sc.rp_add(sc.rp_scale(-1, ctx.psi1(a)), ctx.psi2(a)),
    )


# ---------------------------------------------------------------------------
# tree: the SL2 tree and amalgam, no linear algebra


class Tree:
    """Bulk: the radius-4 ball at p = 7 and its acyclicity certificate.
    Items: seeded SL2(Z[1/p]) words decomposed along the amalgam."""

    name = "tree"
    PASSES = 2  # ball and certificate per round
    SLICES = 30  # slices of the words, around the bulk calls

    def __init__(self, ball_p=7, radius=4, word_primes=(5, 7, 11), words_per_prime=400):
        self.ball_p = ball_p
        self.radius = radius
        self.word_primes = tuple(word_primes)
        self.words_per_prime = words_per_prime

    def setup(self, prog):
        # fill the per-prime neighbour and coset tables the decomposition
        # caches: a word at distance 2 from the base vertex reads them all
        for p in self.word_primes:
            prog.tree.amalgam_decompose(prog.tree.mat2(1, Fraction(1, p), 0, 1), p)
        return None

    def inputs(self, prog, state, seed: int):
        rng = random.Random(seed)
        one, zero = Fraction(1), Fraction(0)
        words = []
        for p in self.word_primes:
            for _ in range(self.words_per_prime):
                g = ((one, zero), (zero, one))
                for _ in range(rng.randint(1, 6)):
                    x = Fraction(rng.randint(-8, 8), p ** rng.randint(0, 4))
                    e = ((one, x), (zero, one)) if rng.random() < 0.5 else ((one, zero), (x, one))
                    g = checks.mat_mul(g, e)
                words.append((g, p))
        rng.shuffle(words)
        return SimpleNamespace(words=words)

    def round(self, prog, state, inp, clock: SpeedClock) -> RoundResult:
        tr = prog.tree
        p, r = self.ball_p, self.radius
        bulk_calls = [lambda: tr.ball(p, r), lambda: tr.ball_is_tree(p, r)] * self.PASSES
        word_slices = slices(inp.words, self.SLICES)
        gc.collect()
        clock.restart()
        words, bulk_out = [], []
        for k, word_slice in enumerate(word_slices):
            got = clock.run("items", lambda: [list(tr.amalgam_decompose(g, q).factors) for g, q in word_slice])
            words += zip(word_slice, got)
            if k % (self.SLICES // len(bulk_calls)) == 0 and len(bulk_out) < len(bulk_calls):
                bulk_out.append(clock.run("bulk", bulk_calls[len(bulk_out)]))

        results = []
        for k in range(0, len(bulk_out), 2):
            depth, edges = bulk_out[k]
            results += checks.ball_checks(depth, edges, p, r)
            results.append(("ball_is_tree", bulk_out[k + 1] is True))
        for (g, q), word in words:
            results.append((f"amalgam word at p={q}", checks.amalgam_word_ok(word, g, q)))
        return RoundResult.from_clock(clock, self.PASSES, len(words), results)


WORKLOADS = {w.name: w for w in (Groups, Queries, Tree)}
