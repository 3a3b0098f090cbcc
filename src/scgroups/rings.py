"""Finite fields GF(p^d) and finite commutative local rings (Z/p^n and
truncated polynomial rings GF(q)[t]/(t^m)) with exact, fully enumerated
arithmetic: units, the set W = {a : a and 1-a invertible}, the one-units
U1 = 1 + m, square classes, and residue maps.

All rings in scope are small (at most a few hundred elements) and local.
The element list, the units (the elements with a nonzero residue), W and
U1 are tabulated at construction.  Arithmetic in GF(p^d), d > 1, is a
lookup in O(q) Zech-logarithm tables; GF(p) and Z/p^n compute modulo an
integer, and GF(q)[t]/(t^m) multiplies truncated polynomials over its
base field.

The cyclic decomposition of the unit group (``unit_group_basis``) is the
one description of the units: a ring builds it on first read and keeps
it, and the inverse table (built on first read too) and the square classes
read its exponents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional


# the first 13 primes, as Miller-Rabin bases, and the least strong
# pseudoprime to all of them (Sorenson-Webster 2015): below it the test on
# these bases decides primality exactly
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime: by Miller-Rabin on the bases _MR_BASES below
    _MR_BOUND, where that is exact, and by trial division above it."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < _MR_BOUND:
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for a in _MR_BASES:
            x = pow(a, d, n)
            if x == 1 or x == n - 1:
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power_decompose(q: int) -> Optional[tuple[int, int]]:
    """Return (p, d) with q = p^d, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p:
            continue
        d = 0
        m = q
        while m % p == 0:
            m //= p
            d += 1
        return (p, d) if m == 1 else None
    return (q, 1)


def sufficiently_large(q: int) -> bool:
    """The paper's size hypothesis on a field of q = p^d elements:
    (p - 1)d > 6."""
    pd = prime_power_decompose(q)
    if pd is None:
        raise ValueError(f"{q} is not a prime power")
    p, d = pd
    return (p - 1) * d > 6


class Ring:
    """Base class: a finite commutative local ring with tabulated arithmetic.

    Elements are opaque hashable values; ``elements`` fixes the canonical
    enumeration order used everywhere for reproducibility.  The units are
    the elements with a nonzero residue.
    """

    kind: str
    label: str
    # the ScissorsContext that owns this ring object, held through a weak
    # reference (scissors.context reads it); None until one is built
    _scissors = None

    def __init__(self):
        self.elements = self._enumerate()
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.zero = self.elements[0]
        self.one = self._one()
        zero = self.residue_field().zero
        self.units = [x for x in self.elements if self.residue(x) != zero]
        self._unit_set = set(self.units)
        self.w_set = [a for a in self.units if self.sub(self.one, a) in self._unit_set]
        w = set(self.w_set)
        self.u1 = [a for a in self.units if a not in w]

    # arithmetic to be provided by subclasses
    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def _enumerate(self):
        raise NotImplementedError

    def _one(self):
        raise NotImplementedError

    def residue_field(self) -> "GF":
        raise NotImplementedError

    def residue(self, a):
        """Image of a in the residue field."""
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    @cached_property
    def unit_decomposition(self) -> tuple[list, list, dict]:
        """(gens, orders, dlog) of ``unit_group_basis``, built on first read
        and kept."""
        return unit_group_basis(self)

    @cached_property
    def _inverses(self) -> dict:
        """Each unit's inverse: the unit whose exponents are its negated
        exponents."""
        _, orders, dlog = self.unit_decomposition
        unit_of = {e: u for u, e in dlog.items()}
        return {u: unit_of[tuple(-x % n for x, n in zip(e, orders))] for u, e in dlog.items()}

    def inv(self, a):
        r = self._inverses.get(a)
        if r is None:
            raise ValueError(f"{a!r} is not a unit of {self.label}")
        return r

    def is_unit(self, a) -> bool:
        return a in self._unit_set

    def neg_one(self):
        return self.neg(self.one)

    def power(self, a, n: int):
        if n < 0:
            return self.power(self.inv(a), -n)
        out = self.one
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def size(self) -> int:
        return len(self.elements)

    @property
    def is_field(self) -> bool:
        """A local ring is a field iff it has as many elements as its
        residue field, whatever descriptor built it (gf(11), z/11 or
        gf(11)[t]/t^1)."""
        return self.size() == self.residue_field().size()

    def __repr__(self):
        return f"Ring({self.label})"

    def __getstate__(self):
        # a weak reference does not pickle; a copy owns no context
        state = dict(self.__dict__)
        state.pop("_scissors", None)
        return state


def _poly_mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    d = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    # reduce by the monic modulus
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if not c:
            continue
        prod[k] = 0
        for j in range(d):
            prod[k - d + j] = (prod[k - d + j] - c * modulus[j]) % p
    out = prod[:d]
    out += [0] * (d - len(out))
    return tuple(out)


def _poly_is_irreducible(coeffs: tuple, p: int) -> bool:
    """Trial division of the monic polynomial by all monic polynomials of
    degree 1..deg/2 over GF(p)."""
    d = len(coeffs) - 1
    for deg in range(1, d // 2 + 1):
        for enc in range(p**deg):
            div = _decode_poly(enc, p, deg) + (1,)
            if _poly_divides(div, coeffs, p):
                return False
    return True


def _decode_poly(enc: int, p: int, length: int) -> tuple:
    out = []
    for _ in range(length):
        out.append(enc % p)
        enc //= p
    return tuple(out)


def _poly_divides(div: tuple, f: tuple, p: int) -> bool:
    r = list(f)
    dd = len(div) - 1
    inv_lead = pow(div[-1], -1, p)
    while len(r) - 1 >= dd:
        c = (r[-1] * inv_lead) % p
        if c:
            for j in range(dd + 1):
                r[len(r) - 1 - dd + j] = (r[len(r) - 1 - dd + j] - c * div[j]) % p
        r.pop()
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        if len(r) == 1:
            break
    return all(x == 0 for x in r)


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, d: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree d over GF(p),
    scanning low-order coefficient vectors in integer-encoding order."""
    if d == 1:
        return (0, 1)
    for enc in range(p**d):
        coeffs = _decode_poly(enc, p, d) + (1,)
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible modulus found")


class GF(Ring):
    """GF(p^d); elements are coefficient tuples over Z/p (degree-1 fields
    use plain ints).

    For d > 1 arithmetic goes through Zech-logarithm tables built from the
    first primitive element g in canonical order: ``_exp[n] = g^n`` (two
    periods long, so sums of two logarithms need no reduction), ``_log``
    its inverse with ``_log[0] = None``, and ``_zech[n] = log(1 + g^n)``
    (None where 1 + g^n = 0, also two periods long, so that a difference
    of logarithms indexes it directly, negative indices included).  Then
    g^i * g^j = g^(i+j) and g^i + g^j = g^(i + Z[j-i])."""

    kind = "field"

    def __init__(self, p: int, d: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if d < 1:
            raise ValueError("degree must be >= 1")
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = smallest_irreducible(p, d) if d > 1 else None
        self.label = f"gf({p})" if d == 1 else f"gf({p}^{d})"
        if d > 1:
            self._build_tables()
        super().__init__()

    def _build_tables(self):
        n = self.q - 1
        one = self._one()
        for e in range(1, self.q):
            g = _decode_poly(e, self.p, self.d)
            powers = [one]
            x = g
            while x != one:
                powers.append(x)
                x = _poly_mul_mod(x, g, self.modulus, self.p)
            if len(powers) == n:
                break
        else:
            raise AssertionError("a finite field has a primitive element")
        zero = (0,) * self.d
        self._exp = powers + powers
        self._log = {x: i for i, x in enumerate(powers)}
        self._log[zero] = None
        zech = [self._log[((x[0] + 1) % self.p,) + x[1:]] for x in powers]
        self._zech = zech + zech
        # -1 = g^(n/2) in odd characteristic
        self._half = n // 2 if self.p != 2 else 0

    def _enumerate(self):
        if self.d == 1:
            return list(range(self.p))
        return [_decode_poly(e, self.p, self.d) for e in range(self.q)]

    def _one(self):
        if self.d == 1:
            return 1
        return (1,) + (0,) * (self.d - 1)

    def add(self, a, b):
        if self.d == 1:
            return (a + b) % self.p
        log = self._log
        la = log[a]
        if la is None:
            return b
        lb = log[b]
        if lb is None:
            return a
        z = self._zech[lb - la]
        return self.zero if z is None else self._exp[la + z]

    def neg(self, a):
        if self.d == 1:
            return (-a) % self.p
        la = self._log[a]
        if la is None or self.p == 2:
            return a
        return self._exp[la + self._half]

    def mul(self, a, b):
        if self.d == 1:
            return (a * b) % self.p
        log = self._log
        la = log[a]
        lb = log[b]
        if la is None or lb is None:
            return self.zero
        return self._exp[la + lb]

    def residue_field(self):
        return self

    def residue(self, a):
        return a


class ZMod(Ring):
    """Z/p^n; elements are ints in [0, p^n)."""

    kind = "zmod"

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("exponent must be >= 1")
        self.p = p
        self.n = n
        self.modulus = p**n
        self.label = f"z/{p}" if n == 1 else f"z/{p}^{n}"
        self._res = GF(p, 1)
        super().__init__()

    def _enumerate(self):
        return list(range(self.modulus))

    def _one(self):
        return 1 % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def residue_field(self):
        return self._res

    def residue(self, a):
        return a % self.p


class TruncPoly(Ring):
    """GF(q)[t]/(t^m); elements are m-tuples of base field elements."""

    kind = "tpoly"

    def __init__(self, base: GF, m: int):
        if m < 1:
            raise ValueError("truncation order must be >= 1")
        self.base = base
        self.m = m
        self.p = base.p
        self.label = f"{base.label}[t]/t^{m}"
        super().__init__()

    def _enumerate(self):
        elems = [()]
        for _ in range(self.m):
            elems = [e + (x,) for e in elems for x in self.base.elements]
        # sort by base-index tuples for a stable canonical order
        elems.sort(key=lambda e: tuple(self.base.index[x] for x in e))
        return elems

    def _one(self):
        return (self.base.one,) + (self.base.zero,) * (self.m - 1)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        out = [self.base.zero] * self.m
        for i, x in enumerate(a):
            if x == self.base.zero:
                continue
            for j, y in enumerate(b):
                if i + j >= self.m:
                    break
                out[i + j] = self.base.add(out[i + j], self.base.mul(x, y))
        return tuple(out)

    def residue_field(self):
        return self.base

    def residue(self, a):
        return a[0]


def make_ring(kind: str, p: int, extra) -> Ring:
    """Construct a ring: ('field', p, d), ('zmod', p, n), or
    ('tpoly', p, (d, m)) for GF(p^d)[t]/(t^m)."""
    if kind == "field":
        return GF(p, int(extra))
    if kind == "zmod":
        return ZMod(p, int(extra))
    if kind == "tpoly":
        d, m = extra
        return TruncPoly(GF(p, int(d)), int(m))
    raise ValueError(f"unknown ring kind {kind!r}")


_RING_RE = re.compile(
    r"""^\s*(?:
        gf\((?P<p1>\d+)(?:\^(?P<d1>\d+))?\)\s*\[t\]\s*/\s*t\^(?P<m>\d+)
      | gf\((?P<p2>\d+)(?:\^(?P<d2>\d+))?\)
      | z/(?P<p3>\d+)(?:\^(?P<n3>\d+))?
    )\s*$""",
    re.VERBOSE | re.IGNORECASE,
)


def descriptor_size(desc: str) -> tuple[int, int]:
    """(b, e) such that the ring a descriptor names has b^e elements: p^d
    for gf(p^d), p^n for z/p^n and p^(d*m) for gf(p^d)[t]/t^m.  Read from
    the text alone, so nothing is built, no primality is tested and a
    huge exponent is never expanded."""
    m = _RING_RE.match(desc)
    if not m:
        raise ValueError(f"bad ring descriptor {desc!r}: unrecognized grammar")
    if m.group("p1"):
        return int(m.group("p1")), int(m.group("d1") or 1) * int(m.group("m"))
    if m.group("p2"):
        return int(m.group("p2")), int(m.group("d2") or 1)
    return int(m.group("p3")), int(m.group("n3") or 1)


def parse_ring(desc: str) -> Ring:
    """Parse ring descriptors: gf(7), gf(3^2), z/7^2, gf(5)[t]/t^2."""
    try:
        return _parse_ring(desc)
    except ValueError as exc:
        raise ValueError(f"bad ring descriptor {desc!r}: {exc}") from None


def _gf_base(p: str, d: Optional[str]) -> GF:
    """The field that gf(p) or gf(p^d) names, alone or as the base of a
    truncated polynomial ring: p may be a prime power q when no exponent
    follows, read as gf(q)."""
    p, d = int(p), int(d or 1)
    if not is_prime(p):
        pd = prime_power_decompose(p)
        if pd is None or d != 1:
            raise ValueError(f"{p} is not prime")
        p, d = pd
    return GF(p, d)


def _parse_ring(desc: str) -> Ring:
    m = _RING_RE.match(desc)
    if not m:
        raise ValueError("unrecognized grammar")
    if m.group("p1"):
        return TruncPoly(_gf_base(m.group("p1"), m.group("d1")), int(m.group("m")))
    if m.group("p2"):
        return _gf_base(m.group("p2"), m.group("d2"))
    p = int(m.group("p3"))
    n = int(m.group("n3") or 1)
    if not is_prime(p):
        pd = prime_power_decompose(p)
        if pd is None:
            raise ValueError(f"{p} is not a prime power")
        if n != 1:
            raise ValueError("use z/p^n with p prime")
        p, n = pd
    return ZMod(p, n)


@dataclass
class SqClassGroup:
    """The square-class group A^x/(A^x)^2 as an F2-vector space.

    Group elements are bitmasks over ``basis`` (multiplication is xor, and
    the identity ``one`` is 0); ``class_of`` sends a unit to its class,
    ``reps`` picks the canonical unit representative of each class.
    """

    ring: Ring
    rank: int
    basis: list
    class_table: dict
    reps: list
    one = 0  # a class attribute, not a field

    @property
    def order(self) -> int:
        return 1 << self.rank

    def class_of(self, a) -> int:
        try:
            return self.class_table[a]
        except KeyError:
            raise ValueError(f"{a!r} is not a unit of {self.ring.label}") from None

    def mul(self, g: int, h: int) -> int:
        return g ^ h

    def elements(self) -> range:
        return range(self.order)

    def rep(self, g: int):
        return self.reps[g]

    def neg_one(self) -> int:
        return self.class_of(self.ring.neg_one())


def square_classes(ring: Ring) -> SqClassGroup:
    """A^x/(A^x)^2 read off the unit group's decomposition: a unit's class
    is the parity of its exponents at the even-order generators.  The basis
    is the first unit, in canonical order, of each class not yet spanned,
    and each class's rep is its first unit."""
    _, orders, dlog = ring.unit_decomposition
    even = [i for i, n in enumerate(orders) if n % 2 == 0]
    parity = {u: sum((e[i] & 1) << k for k, i in enumerate(even)) for u, e in dlog.items()}
    basis: list = []
    mask_of = {0: 0}  # parity -> bitmask over the basis
    reps: list = [None] * (1 << len(even))
    for u in ring.units:
        c = parity[u]
        if c not in mask_of:
            bit = 1 << len(basis)
            basis.append(u)
            for old, mask in list(mask_of.items()):
                mask_of[old ^ c] = mask | bit
        mask = mask_of[c]
        if reps[mask] is None:
            reps[mask] = u
    class_table = {u: mask_of[c] for u, c in parity.items()}
    return SqClassGroup(ring=ring, rank=len(basis), basis=basis, class_table=class_table, reps=reps)


def element_orders(ring: Ring) -> dict:
    return {u: _order_of(ring, u) for u in ring.units}


def unit_group_basis(ring: Ring) -> tuple[list, list, dict]:
    """Decompose A^x as a direct sum of cyclic groups.

    Returns (gens, orders, dlog) where dlog maps each unit to its exponent
    tuple with respect to gens.  Greedy maximal-order extraction with
    brute-force representative adjustment; all unit groups in scope are
    tiny, so exhaustive search is exact and fast.
    """
    gens: list = []
    gen_orders: list[int] = []
    # span: element -> exponent tuple
    span = {ring.one: ()}
    units_in_order = sorted(ring.units, key=lambda u: ring.index[u])
    while len(span) < len(ring.units):
        # the first unit of largest order modulo the current span; that
        # order divides |U| / |span|, so a unit reaching it ends the scan
        top = len(ring.units) // len(span)
        best = None
        for u in units_in_order:
            if u in span:
                continue
            k = 1
            x = u
            while x not in span:
                x = ring.mul(x, u)
                k += 1
            if best is None or k > best[0]:
                best = (k, u)
                if k == top:
                    break
        k, u = best
        # adjust u by a span element so that its true order equals k
        chosen = None
        for h in span:
            cand = ring.mul(u, h)
            if _order_of(ring, cand) == k:
                chosen = cand
                break
        assert chosen is not None, "structure theorem guarantees a representative"
        gens.append(chosen)
        gen_orders.append(k)
        new_span = {}
        for h, exps in span.items():
            x = h
            for e in range(k):
                new_span[x] = exps + (e,)
                x = ring.mul(x, chosen)
        span = {h: exps for h, exps in new_span.items()}
    dlog = {u: span[u] for u in ring.units}
    # pad exponent tuples of elements recorded before later generators
    r = len(gens)
    for u in list(dlog):
        e = dlog[u]
        if len(e) < r:
            dlog[u] = e + (0,) * (r - len(e))
    return gens, gen_orders, dlog


def _order_of(ring: Ring, u) -> int:
    n = 1
    x = u
    while x != ring.one:
        x = ring.mul(x, u)
        n += 1
    return n
