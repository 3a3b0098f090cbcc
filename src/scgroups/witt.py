"""Grothendieck-Witt-style presentation for a finite local ring R:
GW(R) = Z[G_R]/<<<u>><<1-u>> : u in W_R>, the fundamental ideal I(R), and
its square I^2(R), all as finitely presented abelian groups.  Elements of
Z[G_R] are the sparse rows {class: coefficient} that FpAb takes.
"""

from __future__ import annotations

from .groupring import RElem, r_mul, steinberg_rows
from .linalg import AbMap, FpAb

# unused here: bench/test_checks.py checks that the benchmark's tracer
# rebinds this alias of linalg.hnf_rows
from .linalg import hnf_rows  # noqa: F401
from .rings import Ring, square_classes


class WittContext:
    def __init__(self, ring: Ring):
        self.ring = ring
        self.G = square_classes(ring)
        if not ring.w_set:
            raise ValueError(f"{ring.label} is too small: W is empty")
        self._cache: dict = {}

    def steinberg_rows(self) -> list[RElem]:
        """Z-lattice of the ideal generated by <<u>><<1-u>>, u in W: the
        G-translates of each generator, the rows of lambda_1."""
        return steinberg_rows(self.G, self.ring.w_set)

    def gw(self) -> FpAb:
        if "gw" not in self._cache:
            self._cache["gw"] = FpAb(self.G.order, self.steinberg_rows())
        return self._cache["gw"]

    def _ideal_group(self, gen_rows: list[RElem]) -> FpAb:
        """Subgroup of GW generated by the given elements of Z[G], presented
        as (generator lattice) / (generator lattice ∩ Steinberg lattice): the
        image of the map from Z^r onto the canonical basis of the
        generator lattice, whose relations are the coordinates of that
        intersection in the basis."""
        basis = FpAb(self.G.order, gen_rows).echelon().basis
        return AbMap(FpAb(len(basis)), self.gw(), basis).image()

    def fundamental_ideal(self) -> FpAb:
        if "I" not in self._cache:
            rows = [{g: 1, 0: -1} for g in range(1, self.G.order)]
            self._cache["I"] = self._ideal_group(rows)
        return self._cache["I"]

    def i_squared(self) -> FpAb:
        if "I2" not in self._cache:
            n = self.G.order
            rows = [r_mul({g: 1, 0: -1}, {h: 1, 0: -1}) for g in range(1, n) for h in range(1, n)]
            self._cache["I2"] = self._ideal_group(rows)
        return self._cache["I2"]


def gw(ring: Ring) -> FpAb:
    return WittContext(ring).gw()


def fundamental_ideal(ring: Ring) -> FpAb:
    return WittContext(ring).fundamental_ideal()


def i_squared(ring: Ring) -> FpAb:
    return WittContext(ring).i_squared()
