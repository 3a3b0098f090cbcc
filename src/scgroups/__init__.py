"""scgroups: exact computation of scissors congruence groups, refined
Bloch groups, Grothendieck-Witt invariants, orbit-complex homology,
p-adic specialization maps, and the SL2 tree/amalgam structure over
finite local rings, all by arbitrary-precision integer linear algebra.
"""

__version__ = "0.1.0"

from .linalg import FpAb, SmithData, cokernel, hnf_rows, iso_odd, snf
from .rings import GF, TruncPoly, ZMod, parse_ring, square_classes
from .scissors import ScissorsContext, context

__all__ = [
    "FpAb",
    "GF",
    "ScissorsContext",
    "SmithData",
    "TruncPoly",
    "ZMod",
    "cokernel",
    "context",
    "hnf_rows",
    "iso_odd",
    "parse_ring",
    "snf",
    "square_classes",
]
