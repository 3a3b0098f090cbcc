"""Grothendieck-Witt-style presentation for a finite local ring R:
GW(R) = Z[G_R]/<<<u>><<1-u>> : u in W_R>, the fundamental ideal I(R), and
its square I^2(R), all as finitely presented abelian groups.
"""

from __future__ import annotations

import numpy as np

from .groupring import dbl_bracket, r_mul, r_vector
from .linalg import AbMap, FpAb, hnf_rows
from .rings import Ring, square_classes


class WittContext:
    def __init__(self, ring: Ring):
        self.ring = ring
        self.G = square_classes(ring)
        if not ring.w_set:
            raise ValueError(f"{ring.label} is too small: W is empty")
        self._cache: dict = {}

    def steinberg_rows(self) -> list[np.ndarray]:
        """Z-lattice of the ideal generated by <<u>><<1-u>>, u in W."""
        n = self.G.order
        rows = []
        for u in self.ring.w_set:
            val = r_mul(
                dbl_bracket(self.G, u),
                dbl_bracket(self.G, self.ring.sub(self.ring.one, u)),
            )
            for g in range(n):
                rows.append(r_vector(r_mul({g: 1}, val), n))
        return rows

    def gw(self) -> FpAb:
        if "gw" not in self._cache:
            self._cache["gw"] = FpAb(self.G.order, self.steinberg_rows())
        return self._cache["gw"]

    def multiplication_table(self) -> dict:
        """Products of the square-class generators of GW (xor on masks)."""
        return {
            (g, h): g ^ h for g in range(self.G.order) for h in range(self.G.order)
        }

    def _ideal_group(self, gen_rows: list[np.ndarray]) -> FpAb:
        """Subgroup of GW generated by the given Z[G]-vectors, presented as
        (generator lattice) / (generator lattice ∩ Steinberg lattice): the
        image of the map from Z^r onto the canonical basis of the
        generator lattice, whose relations are the coordinates of that
        intersection in the basis."""
        basis = hnf_rows(gen_rows, self.G.order)
        return AbMap(FpAb(len(basis)), self.gw(), basis).image()

    def fundamental_ideal(self) -> FpAb:
        if "I" not in self._cache:
            n = self.G.order
            rows = [r_vector({g: 1, 0: -1}, n) for g in range(1, n)]
            if not rows:
                rows = [r_vector({}, n)]
            self._cache["I"] = self._ideal_group(rows)
        return self._cache["I"]

    def i_squared(self) -> FpAb:
        if "I2" not in self._cache:
            n = self.G.order
            rows = []
            for g in range(1, n):
                for h in range(1, n):
                    rows.append(r_vector(r_mul({g: 1, 0: -1}, {h: 1, 0: -1}), n))
            if not rows:
                rows = [r_vector({}, n)]
            self._cache["I2"] = self._ideal_group(rows)
        return self._cache["I2"]


def gw(ring: Ring) -> FpAb:
    return WittContext(ring).gw()


def fundamental_ideal(ring: Ring) -> FpAb:
    return WittContext(ring).fundamental_ideal()


def i_squared(ring: Ring) -> FpAb:
    return WittContext(ring).i_squared()
