"""Scissors congruence machinery over a finite local ring: the groups
P(A), B(A), S^2_Z(A^x), the refined module RP(A) with its maps lambda_1,
lambda_2, the distinguished elements psi_1, psi_2, C, c, g(a), {a}, the
submodules K, K^(1), K^(2), L_B, every tilde quotient, and the alternative
presentation RP'(A).

Everything is computed as exact integer presentations; comparisons after
inverting 2 go through linalg.iso_odd.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property, lru_cache

import numpy as np

from .groupring import (
    RElem,
    RModPres,
    act,
    add,
    dbl_bracket,
    half_part,
    p_plus,
    r_mul,
    scale,
    steinberg,
    steinberg_rows,
    translates,
)
from .linalg import AbMap, FpAb, KeyedFpAb, RowTable, SubgroupPres, _dense, ab_quotient, direct_sum, iso_odd

# unused here: bench/test_checks.py checks that the benchmark's tracer
# rebinds this alias of linalg.hnf_rows
from .linalg import hnf_rows  # noqa: F401
from .rings import Ring, parse_ring, square_classes

# ---------------------------------------------------------------------------
# symbolic elements

PBElem = dict  # ring element a in W -> integer coefficient
RPElem = dict  # (class bitmask, ring element a in W) -> integer coefficient


# bench/workloads.py calls the P and RP sums and the action by these names
pb_add = rp_add = add
pb_scale = rp_scale = scale
rp_act = act


# the refusal of an RP key outside G x W, formatted with the key
RP_KEY_REFUSAL = "RP key {!r} is not a (square class, element of W) pair"


# ---------------------------------------------------------------------------
# the context


class ScissorsContext:
    """All presentations attached to one finite local ring.

    Generators of P are indexed by W in canonical element order; the
    refined module RP is flattened over (square class, W index).

    A ring object owns the first context built on it while that context
    lives: the ring holds it through a weak reference, and ``context(ring)``
    returns it, so every caller that asks for the ring's groups shares one
    set of relations and relation bases.  A second context on the same
    ring is independent of the first.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        if ring.residue_field().size() <= 3:
            raise ValueError(
                f"{ring.label} is too small: residue field must exceed 3 elements"
            )
        self.G = square_classes(ring)
        self.W = list(ring.w_set)
        self.windex = {a: i for i, a in enumerate(self.W)}
        self._cache: dict = {}
        self._psi_table: dict = {}
        if _live_context(ring) is None:
            ring._scissors = weakref.ref(self)

    # -- canonical base point ------------------------------------------------
    @property
    def base_point(self):
        return self.W[0]

    # -- admissible pairs ----------------------------------------------------
    def five_terms(self) -> RowTable:
        """The five-term relations of the ring as one integer table, built
        once per context (``_five_term_table``)."""
        if "five_terms" not in self._cache:
            self._cache["five_terms"] = _five_term_table(self)
        return self._cache["five_terms"]

    def five_term_pairs(self):
        """Ordered pairs (a, b), lexicographic in canonical element order,
        with a, b, a/b all in W: the pairs of the five-term table."""
        W = self.W
        for i, j in (self.five_terms().cols[:, :2] % len(W)).tolist():
            yield W[i], W[j]

    # -- classical presentation ----------------------------------------------
    def pb_row(self, x: PBElem) -> dict:
        """A P element as a sparse row {W index: coefficient}."""
        return {self.windex[a]: c for a, c in x.items()}

    # bench/workloads.py calls it by this name
    def pb_vector(self, x: PBElem) -> np.ndarray:
        """The dense form of pb_row, for callers that need an array."""
        return _dense([self.pb_row(x)], len(self.W))[0]

    def pre_bloch(self) -> FpAb:
        """P(A): one generator per element of W, one relation per admissible
        ordered pair.  It is RP's coinvariant module RP ⊗_{Z[G]} Z, so it is
        read off the refined presentation, whose block form shares its
        reduction."""
        return self.refined().coinvariants()

    # -- symmetric square of the units ----------------------------------------
    def s2_of_units(self) -> FpAb:
        """S^2_Z(A^x) on the tensor basis g_i (x) g_j of a cyclic
        decomposition, modulo the symmetry relations."""
        if "S2" not in self._cache:
            gens, orders, _ = self.ring.unit_decomposition
            r = len(gens)
            rows = []
            for i in range(r):
                for j in range(r):
                    rows.append({i * r + j: math.gcd(orders[i], orders[j])})
                    rows.append(add({i * r + j: 1}, {j * r + i: 1}))
            self._cache["S2"] = FpAb(r * r, rows)
        return self._cache["S2"]

    def s2_row(self, a, b) -> dict:
        """Class of a (x) b in the tensor coordinates, as a sparse row."""
        gens, _, dlog = self.ring.unit_decomposition
        r = len(gens)
        ea, eb = dlog[a], dlog[b]
        return {i * r + j: x * y for i, x in enumerate(ea) if x for j, y in enumerate(eb) if y}

    def lambda_map(self) -> AbMap:
        """lambda: P(A) -> S^2, [a] -> a (x) (1-a)."""
        if "lam" not in self._cache:
            one, sub = self.ring.one, self.ring.sub
            rows = [self.s2_row(a, sub(one, a)) for a in self.W]
            self._cache["lam"] = AbMap(self.pre_bloch(), self.s2_of_units(), rows)
        return self._cache["lam"]

    def bloch_subgroup(self) -> SubgroupPres:
        if "B" not in self._cache:
            self._cache["B"] = self.lambda_map().kernel_subgroup()
        return self._cache["B"]

    def bloch(self) -> FpAb:
        return self.bloch_subgroup().group

    def k2_cokernel(self) -> FpAb:
        """S^2 / im(lambda); for a local ring this presents K_2^M(A)."""
        return ab_quotient(self.s2_of_units(), self.lambda_map().rows)

    # -- refined presentation --------------------------------------------------
    def refined(self) -> RModPres:
        """RP(A) as an R_A-module presentation on the W generators, with the
        five-term table as its relation table."""
        if "RP" not in self._cache:
            self._cache["RP"] = RModPres(self.G, len(self.W), self.five_terms())
        return self._cache["RP"]

    def rp_flat(self) -> FpAb:
        return self.refined().flatten()

    def rp_row(self, x: RPElem) -> dict:
        """An RP element as a sparse row {g * |W| + W index: coefficient}
        over the flattened basis (RModPres.flat_index, inlined).  A key
        whose class is outside G or whose element is outside W is a
        ValueError."""
        n, order, windex = len(self.W), self.G.order, self.windex
        row = {}
        for (g, a), c in x.items():
            j = windex.get(a)
            if j is None or not 0 <= g < order:
                raise ValueError(RP_KEY_REFUSAL.format((g, a)))
            row[g * n + j] = c
        return row

    # bench/spans.py traces it by this name
    def rp_vector(self, x: RPElem) -> np.ndarray:
        """The dense form of rp_row, for callers that need an array."""
        return _dense([self.rp_row(x)], self.G.order * len(self.W))[0]

    def symbol_rows(self) -> dict:
        """The flat row {g * |W| + W index of a: 1} of each RP key (g, a) of
        G x W: RP, and any quotient of it on the flat basis, reads an RP
        element {(g, a): c} by symbol through its quotient map composed
        with these rows, in one pass, with no flat row in between."""
        n = len(self.W)
        return {(g, a): {g * n + j: 1} for g in range(self.G.order) for a, j in self.windex.items()}

    def rp_is_zero(self, x: RPElem) -> bool:
        if "RP symbols" not in self._cache:
            self._cache["RP symbols"] = KeyedFpAb(self.rp_flat(), self.symbol_rows(), RP_KEY_REFUSAL)
        return self._cache["RP symbols"].contains(x)

    # lambda1_matrix, lambda2_matrix and p_plus_ideal_rows return sparse
    # rows; the names stay because bench/spans.py traces them
    def lambda1_matrix(self) -> list[dict]:
        """The rows of lambda_1 on the flattened RP basis into Z[G], built
        once (``groupring.steinberg_rows``)."""
        if "lam1" not in self._cache:
            self._cache["lam1"] = steinberg_rows(self.G, self.W)
        return self._cache["lam1"]

    def lambda1_map(self) -> AbMap:
        if "lam1map" not in self._cache:
            target = FpAb(self.G.order)
            self._cache["lam1map"] = AbMap(self.rp_flat(), target, self.lambda1_matrix())
        return self._cache["lam1map"]

    def lambda1_of(self, x: RPElem) -> RElem:
        """Exact value of lambda_1 on a symbolic element."""
        out: RElem = {}
        for (g, a), c in x.items():
            out = add(out, r_mul({g: c}, steinberg(self.G, a)))
        return out

    def lambda2_matrix(self) -> list[dict]:
        """The rows of lambda_2, the G-invariant map to S^2: a (x) (1 - a)
        on every translate of [a]."""
        one, sub = self.ring.one, self.ring.sub
        return [self.s2_row(a, sub(one, a)) for a in self.W] * self.G.order

    def rp1_subgroup(self) -> SubgroupPres:
        if "RP1" not in self._cache:
            self._cache["RP1"] = self.lambda1_map().kernel_subgroup()
        return self._cache["RP1"]

    def rp1(self) -> FpAb:
        return self.rp1_subgroup().group

    def rb_subgroup(self) -> SubgroupPres:
        """RB = ker(lambda_1) ∩ ker(lambda_2), via the stacked map."""
        if "RB" not in self._cache:
            n = self.G.order
            target = direct_sum(FpAb(n), self.s2_of_units())
            lam1, lam2 = self.lambda1_matrix(), self.lambda2_matrix()
            rows = [{**a, **{n + k: v for k, v in b.items()}} for a, b in zip(lam1, lam2)]
            self._cache["RB"] = AbMap(self.rp_flat(), target, rows).kernel_subgroup()
        return self._cache["RB"]

    def rb(self) -> FpAb:
        return self.rb_subgroup().group

    # -- special elements -------------------------------------------------------
    def brace(self, a) -> PBElem:
        """{a} = [a] + [a^{-1}] for a in W; extended to U1 by the base point."""
        ring = self.ring
        if not ring.is_unit(a):
            raise ValueError(f"{a!r} is not a unit")
        if a in self.windex:
            inv = ring.inv(a)
            out: PBElem = {a: 1}
            out[inv] = out.get(inv, 0) + 1
            return {k: c for k, c in out.items() if c}
        a0 = self.base_point
        return add(self.brace(ring.mul(a, a0)), scale(-1, self.brace(a0)))

    def psi(self, i: int, a) -> RPElem:
        """psi_1(a) = [a] + <-1>[1/a]; psi_2(a) = <1-a>(<a>[a] + [1/a]);
        on one-units psi_i(u) = psi_i(u a0) - <u> psi_i(a0).  Tabulated per
        context on first use; each call returns a fresh dict."""
        x = self._psi_table.get((i, a))
        if x is None:
            x = self._psi_table[i, a] = self._psi(i, a)
        return dict(x)

    def _psi(self, i: int, a) -> RPElem:
        ring, G = self.ring, self.G
        if i not in (1, 2):
            raise ValueError(f"psi_{i} is not defined: i must be 1 or 2")
        if not ring.is_unit(a):
            raise ValueError(f"{a!r} is not a unit")
        if a in self.windex:
            inv = ring.inv(a)
            neg1 = G.neg_one()
            if i == 1:
                return add({(0, a): 1}, {(neg1, inv): 1})
            one_minus = ring.sub(ring.one, a)
            cls = G.class_of(one_minus)
            ca = G.class_of(a)
            return add({(cls ^ ca, a): 1}, {(cls, inv): 1})
        a0 = self.base_point
        ua = ring.mul(a, a0)
        return add(
            self.psi(i, ua), scale(-1, act({G.class_of(a): 1}, self.psi(i, a0)))
        )

    def psi1(self, a) -> RPElem:
        return self.psi(1, a)

    def psi2(self, a) -> RPElem:
        return self.psi(2, a)

    def big_c(self, base=None) -> RPElem:
        """C = [a] + <-1>[1-a] + <<1-a>> psi_1(a), from the canonical base
        point unless one is supplied."""
        ring, G = self.ring, self.G
        a = self.base_point if base is None else base
        one_minus = ring.sub(ring.one, a)
        out = add({(0, a): 1}, {(G.neg_one(), one_minus): 1})
        return add(out, act(dbl_bracket(G, one_minus), self.psi1(a)))

    def c_const(self, base=None) -> PBElem:
        """c = [a] + [1-a] from the canonical base point."""
        a = self.base_point if base is None else base
        one_minus = self.ring.sub(self.ring.one, a)
        out: PBElem = {a: 1}
        out[one_minus] = out.get(one_minus, 0) + 1
        return out

    def g_gen(self, a) -> RPElem:
        """g(a) = p_{-1}^+ [a] + <<1-a>> psi_1(a), for a in W."""
        if a not in self.windex:
            raise ValueError(f"{a!r} is not in W")
        ring, G = self.ring, self.G
        one_minus = ring.sub(ring.one, a)
        out = act(p_plus(G), {(0, a): 1})
        return add(out, act(dbl_bracket(G, one_minus), self.psi1(a)))

    # -- submodules and tilde quotients ------------------------------------------
    def k_rows(self) -> list[dict]:
        """Z-lattice of K = <{a} : a unit> inside P, as sparse P rows."""
        return [self.pb_row(self.brace(a)) for a in self.ring.units]

    def k1_rows(self) -> RowTable:
        """Flattened lattice of the R-submodule K^(1) = <psi_1(a) : a unit>,
        as a RowTable over RP's flat basis: the |G| translates of each
        psi_1(a) in turn (``translates``)."""
        n, order = len(self.W), self.G.order
        rows = [self.rp_row(self.psi1(a)) for a in self.ring.units]
        return translates(RowTable.stack(order * n, rows), n, order)

    def p_plus_ideal_rows(self) -> list[RElem]:
        """Z-lattice of p_{-1}^+ I_A inside Z[G]."""
        return [r_mul(p_plus(self.G), {g: 1, 0: -1}) for g in range(1, self.G.order)]

    def s2_tilde(self) -> FpAb:
        """S~^2 = S^2 / <(-a) (x) a : a unit>."""
        extra = [self.s2_row(self.ring.neg(a), a) for a in self.ring.units]
        return ab_quotient(self.s2_of_units(), extra)

    class TildeBundle:
        """The tilde groups of a context, each built on its first read:
        P~ = P/K, RP~ = RP/K^(1), and the kernels RP_1~ of lambda_1 and
        RB~ of lambda_2 on RP~."""

        def __init__(self, ctx: "ScissorsContext"):
            self.ctx = ctx

        @cached_property
        def p_tilde(self) -> FpAb:
            return ab_quotient(self.ctx.pre_bloch(), self.ctx.k_rows())

        @cached_property
        def rp_tilde(self) -> FpAb:
            return ab_quotient(self.ctx.rp_flat(), self.ctx.k1_rows())

        @cached_property
        def rp1_tilde(self) -> SubgroupPres:
            ctx = self.ctx
            target = FpAb(ctx.G.order, ctx.p_plus_ideal_rows())
            return AbMap(self.rp_tilde, target, ctx.lambda1_matrix()).kernel_subgroup()

        @cached_property
        def rb_tilde(self) -> SubgroupPres:
            ctx = self.ctx
            return AbMap(self.rp_tilde, ctx.s2_tilde(), ctx.lambda2_matrix()).kernel_subgroup()

    def tilde(self) -> "ScissorsContext.TildeBundle":
        if "tilde" not in self._cache:
            self._cache["tilde"] = self.TildeBundle(self)
        return self._cache["tilde"]

    def refined_tilde(self) -> RModPres:
        """RP~(A) = RP(A)/K^(1) as an R-module presentation (five-term
        relations plus the psi_1 family)."""
        if "RPt_mod" not in self._cache:
            m = self.refined()
            psi = [self.rp_row(self.psi1(a)) for a in self.ring.units]
            self._cache["RPt_mod"] = RModPres(self.G, m.ngens, RowTable.stack(m.flat_ngens, m.table, psi))
        return self._cache["RPt_mod"]

    def e_plus_rp_tilde(self) -> FpAb:
        """Image of multiplication by (<-1> + 1) on RP~, which has RP's flat
        generators; its odd part is e_{-1}^+ RP~(A)[1/2], the group Thm 1.5
        actually feeds into the specialization diagram."""
        return half_part(self.tilde().rp_tilde, self.refined().act_permutation(self.G.neg_one()), +1)

    def rp_tilde_is_zero(self, x: RPElem) -> bool:
        if "RP~ symbols" not in self._cache:
            self._cache["RP~ symbols"] = KeyedFpAb(self.tilde().rp_tilde, self.symbol_rows(), RP_KEY_REFUSAL)
        return self._cache["RP~ symbols"].contains(x)

    # -- RP' ---------------------------------------------------------------------
    def rp_prime(self) -> RModPres:
        """RP'(A): the three relation families on primed generators."""
        if "RPprime" not in self._cache:
            rows = []
            neg1 = self.G.neg_one()
            for a in self.W:
                # (<-1> - 1)[a]' and [a]' + [1/a]'
                rows.append(self.rp_row(add({(neg1, a): 1}, {(0, a): -1})))
                rows.append(self.rp_row(add({(0, a): 1}, {(0, self.ring.inv(a)): 1})))
            m = self.refined()
            self._cache["RPprime"] = RModPres(self.G, m.ngens, RowTable.stack(m.flat_ngens, m.table, rows))
        return self._cache["RPprime"]

    def rp_prime_witness(self) -> dict:
        """Check that [a]' -> g(a) realizes RP' ~ RP_1 on odd parts."""
        rpp = self.rp_prime()
        rp1 = self.rp1_subgroup()
        rp_flat = self.rp_flat()
        # images of the flattened primed basis, as sparse RP rows by flat
        # index: (g, [a]') -> g * g(a)
        images = {}
        for i, a in enumerate(self.W):
            base = self.g_gen(a)
            for g in range(self.G.order):
                images[rpp.flat_index(g, i)] = self.rp_row(act({g: 1}, base))
        # each primed relation must die in RP_1 odd part, i.e. be 2-power
        # torsion in the flat RP cokernel
        rel_ok = True
        for rel in rpp.flat_rows():
            img: dict = {}
            for idx, c in rel.items():
                img = add(img, scale(c, images[idx]))
            if not rp_flat.element_odd_trivial(img):
                rel_ok = False
                break
        # surjectivity on odd parts: RP_1 / <images> has trivial odd part
        coords = []
        for v in images.values():
            c = rp1.solve(v)
            if c is None:
                raise AssertionError("g(a) must lie in ker(lambda_1)")
            coords.append(c)
        quot = ab_quotient(rp1.group, coords)
        return {
            "relations_die_odd": rel_ok,
            "iso_odd": iso_odd(rpp.flatten(), rp1.group),
            "spans_odd": quot.odd_order_trivial(),
        }

    # -- unit codes ------------------------------------------------------------
    def _unit_codes(self) -> tuple:
        """(order, stride, w_of), built once: the orders of the cyclic
        factors of the unit group (``Ring.unit_decomposition``), the strides
        that code an exponent vector e as the mixed-radix number e @ stride,
        and w_of[code], the W index of the unit with that code (-1 outside
        W).  A product or quotient of units is a sum or difference of
        exponents mod order, read back through w_of."""
        if "unit codes" not in self._cache:
            orders = self.ring.unit_decomposition[1]
            stride = np.cumprod([1] + orders[:-1], dtype=np.int64)
            w_of = np.full(math.prod(orders), -1, dtype=np.int64)
            w_of[self._exponents(self.W) @ stride] = np.arange(len(self.W))
            self._cache["unit codes"] = (np.array(orders, dtype=np.int64), stride, w_of)
        return self._cache["unit codes"]

    def _exponents(self, units) -> np.ndarray:
        """The exponent vectors of a list of units, one row each."""
        dlog = self.ring.unit_decomposition[2]
        return np.array([dlog[u] for u in units], dtype=np.int64).reshape(len(units), -1)

    # -- L_B and the residue sequence ---------------------------------------------
    def _one_unit_shifts(self) -> list[tuple]:
        """(u, the W indices of a u over a in W) for each one-unit u, 1
        included: multiplication by u on W's indices, read through
        ``_unit_codes`` and built once.  A product outside W is an
        AssertionError: u is no one-unit."""
        if "U1 shifts" not in self._cache:
            u1 = self.ring.u1
            order, stride, w_of = self._unit_codes()
            shifts = w_of[((self._exponents(u1)[:, None, :] + self._exponents(self.W)) % order) @ stride]
            for u, shift in zip(u1, shifts):
                if (shift < 0).any():
                    raise AssertionError(f"{u!r} moves an element of W out of W: it is no one-unit")
            self._cache["U1 shifts"] = list(zip(u1, shifts))
        return self._cache["U1 shifts"]

    def l_rows(self) -> RowTable:
        """Flattened lattice of L_B = <[au]-[a], <<u>>C_B : a in W, u in U1>,
        as a RowTable over RP's flat basis: for each one-unit u but 1, the
        rows [au] - [a] over a in W (read off ``_one_unit_shifts``), then
        <<u>>C_B, each in its |G| translates (``translates``)."""
        n, order, one = len(self.W), self.G.order, self.ring.one
        parts = []
        for u, shift in self._one_unit_shifts():
            if u != one:
                diffs = RowTable(np.stack([shift, np.arange(n)], axis=1), (1, -1), order * n)
                parts += [diffs, [self._dbl_c_row(u)]]
        return translates(RowTable.stack(order * n, *parts), n, order)

    def _dbl_c_row(self, u) -> dict:
        """<<u>>C_B as a sparse RP row."""
        return self.rp_row(act(dbl_bracket(self.G, u), self.big_c()))

    def residue_context(self) -> "ScissorsContext":
        return context(self.ring.residue_field())

    def l_submodule(self) -> dict:
        """The short exact sequence data for a non-field local ring B:
        L_B, the quotient RP~(B)/L_B (``_l_quotient``), and the comparison
        with RP~(k)."""
        ring = self.ring
        if ring.is_field:
            raise ValueError("L_B is trivial for a field; nothing to verify")
        kctx = self.residue_context()
        lrows = self.l_rows()
        quotient = self._l_quotient(kctx, lrows)
        target = kctx.tilde().rp_tilde
        # the functorial map RP_flat(B) -> RP_flat(k) sends each flat
        # index to one flat index; it kills every L_B generator exactly (the
        # rows are the program's own sparse dicts, read with no normaliser)
        m, mk = self.refined(), kctx.refined()
        residue = [0] * m.flat_ngens
        for g in range(self.G.order):
            gbar = kctx.G.class_of(ring.residue(self.G.rep(g)))
            for i, a in enumerate(self.W):
                residue[m.flat_index(g, i)] = mk.flat_index(gbar, kctx.windex[ring.residue(a)])
        kernel_ok = not target._projection().compose([{j: 1} for j in residue]).unkilled(lrows)
        return {
            "quotient": quotient,
            "target": target,
            "kernel_ok": kernel_ok,
            "match": quotient.free_rank == target.free_rank
            and quotient.invariant_factors() == target.invariant_factors(),
        }

    def _l_quotient(self, kctx: "ScissorsContext", lrows: RowTable) -> FpAb:
        """RP~(B)/L_B on RP's flat generators, read through the module of
        one-unit cosets, with no reduction of RP~(B).

        sigma sends W to the W(k) index of the residue.  Its fibres must be
        the cosets a U1: every one-unit keeps each residue, and each W(k)
        index has |U1| preimages (``ring.u1`` includes 1); else
        AssertionError.  Then the rows [au] - [a] of L_B span the
        kernel of sigma on Z^W, and a Tietze transformation takes the
        quotient to the R-module on W(k) whose relations are the sigma
        images, class kept, of RP~(B)'s relations (``refined_tilde``) and
        the rows <<u>>C_B.  That small module is reduced by
        its own certified ``flatten``, and the quotient's canonical basis
        is the kernel of its quotient map read through sigma on the flat
        index: one pass over RP's flat generators.

        The certificate is the block form's: every relation row of B, the
        |G| translates of the five-term table, ``k1_rows`` and ``l_rows``,
        must map to 0 under the quotient map of that basis, else
        AssertionError, which puts the lattice of B's relations within the
        basis's, from rows built apart from the small module's.  The reverse
        inclusion rests on the fibre check and on the small module's exact
        quotient map."""
        ring, G, nk = self.ring, self.G, len(kctx.W)
        sigma = np.array([kctx.windex[ring.residue(a)] for a in self.W], dtype=np.int64)
        if np.bincount(sigma, minlength=nk).tolist() != [len(set(ring.u1))] * nk:
            raise AssertionError("L_B quotient: a residue has not |U1| preimages")
        if any((sigma[shift] != sigma).any() for _, shift in self._one_unit_shifts()):
            raise AssertionError("L_B quotient: a one-unit moves a residue")
        # sigma on RP's flat index, the class kept
        flat = (np.arange(G.order, dtype=np.int64)[:, None] * nk + sigma).ravel()
        m, k1 = self.refined(), self.k1_rows()
        # RP~(B)'s relations and the rows <<u>>C_B, untranslated, through
        # sigma: each distinct row once
        rows = RowTable.stack(
            m.flat_ngens, self.refined_tilde().table, [self._dbl_c_row(u) for u in ring.u1 if u != ring.one]
        )
        k = rows.cols.shape[1]
        table = _distinct(np.concatenate([flat[rows.cols], rows.vals], axis=1))
        small = RModPres(G, nk, RowTable(table[:, :k], table[:, k:], G.order * nk))
        out = FpAb(
            m.flat_ngens,
            lambda: RowTable.stack(m.flat_ngens, m.flat_table(), k1, lrows),
            small.flatten()._projection().compose([{j: 1} for j in flat.tolist()]).kernel_echelon(),
        )
        proj = out._projection()
        if proj.unkilled(m.flat_table()) or proj.unkilled(k1) or proj.unkilled(lrows):
            raise AssertionError("L_B quotient: a relation row of B does not map to 0")
        return out


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array, in lexicographic order."""
    a = a[np.lexsort(a.T[::-1])]
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[keep]


# the signs of the five terms [a], [b], [b/a], [(1-a^{-1})/(1-b^{-1})] and
# [(1-a)/(1-b)] of X_{a,b} and Y_{a,b}: the one choice under which
# lambda_1 kills every Y relation exactly and Y projects to X
FIVE_TERM_SIGNS = (1, -1, 1, -1, 1)


def _five_term_table(ctx: ScissorsContext) -> RowTable:
    """The five-term relations of a ring as a RowTable over RP's flat
    basis, one row per admissible pair (a, b), lexicographic in canonical
    element order: row k has the columns class * |W| + W index of its five
    terms (m x 5), a and b first, and the values FIVE_TERM_SIGNS.  The
    classes are 0 for [a] and [b] and <a>, <a^{-1} - 1>, <1 - a> for the
    others.

    Y_{a,b} is row k, and X_{a,b} is row k with its columns taken mod |W|.

    The table is built by gathers from one W x W table of quotients.

    A unit is coded by the mixed-radix number of its exponents in the
    cyclic decomposition of the unit group (``ScissorsContext._unit_codes``),
    so x / y is a difference of exponent vectors, and ratio[x, y] is the W
    index of W[x] / W[y] (-1 outside W).  a/b picks the admissible pairs,
    and b/a, (1 - a^{-1})/(1 - b^{-1}) and (1 - a)/(1 - b) are gathers from
    the same table, at the W indices of 1 - a and 1 - a^{-1}, read once per
    a: both lie in W, since 1 minus either is a or a^{-1}, and since 1 -
    a^{-1} = -(1 - a)/a, its exponents are e(-1) + e(1 - a) - e(a), one
    ring operation per a; <a^{-1} - 1> = <1 - a><a>.  Those three terms lie
    in W whenever a/b does; a term outside W is an AssertionError."""
    ring, G, W = ctx.ring, ctx.G, ctx.W
    order, stride, w_of = ctx._unit_codes()
    one_minus = [ring.sub(ring.one, a) for a in W]
    # the exponents of a and 1 - a, and the W indices of 1 - a and 1 - a^{-1}
    ea, e1 = ctx._exponents(W), ctx._exponents(one_minus)
    u1 = np.array([ctx.windex[x] for x in one_minus], dtype=np.int64)
    u2 = w_of[((ctx._exponents([ring.neg_one()]) + e1 - ea) % order) @ stride]
    if (u2 < 0).any():
        raise AssertionError("1 - a^{-1} is not in W")
    ratio = w_of[((ea[:, None, :] - ea[None, :, :]) % order) @ stride]
    ia, ib = np.nonzero(ratio >= 0)
    gens = np.stack([ia, ib, ratio[ib, ia], ratio[u2[ia], u2[ib]], ratio[u1[ia], u1[ib]]], axis=1)
    if (gens < 0).any():
        raise AssertionError("a five-term element of an admissible pair is not in W")
    classes = [(G.class_of(a), G.class_of(b)) for a, b in zip(W, one_minus)]
    own = np.array([[0, 0, x, G.mul(x, y), y] for x, y in classes], dtype=np.int64)
    return RowTable(own[ia] * len(W) + gens, FIVE_TERM_SIGNS, G.order * len(W))


def _live_context(ring: Ring):
    """The context that owns the ring object, or None."""
    ref = ring._scissors
    return None if ref is None else ref()


@lru_cache(maxsize=None)
def _context_by_label(label: str) -> ScissorsContext:
    """The cached context of a canonical ring label (``Ring.label``)."""
    return ScissorsContext(parse_ring(label))


def context(ring_or_label) -> ScissorsContext:
    """The scissors context of a ring: the live context that owns the ring
    object, else the one cached for its canonical label.  A descriptor is
    parsed first, so "gf(121)" and "gf(11^2)" share one context."""
    ring = parse_ring(ring_or_label) if isinstance(ring_or_label, str) else ring_or_label
    live = _live_context(ring)
    return live if live is not None else _context_by_label(ring.label)
