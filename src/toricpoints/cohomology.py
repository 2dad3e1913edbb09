"""The full cohomology profile of a toric divisor.

h0 is the number of lattice points of the polygon P_D
(`ToricDivisor.halfplanes`, counted by `geometry.count_lattice_points`), h2
comes from Serre duality as the count for K - D (0 when h0 > 0), chi from
Hirzebruch-Riemann-Roch, and h1 by difference in `_h1`, which the
interpolation report shares.  A divisor's coefficients are ints, so every
number here is an int.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import geometry
from .divisor import ToricDivisor, canonical_divisor, intersect_primes, pair
from .errors import InternalInconsistency


@dataclass(frozen=True)
class CohomologyProfile:
    h0: int
    h1: int
    h2: int
    chi: int


def euler_characteristic(D: ToricDivisor) -> int:
    """chi(D) = 1 + (D^2 - K.D)/2 by Hirzebruch-Riemann-Roch (chi(O) = 1),
    with K.D = -sum_j D.D_j read off the same vector as D^2.  The halving is
    exact: D^2 - K.D = 2 sum a_j a_{j+1} + 2 sum a_j + sum D_j^2 a_j (a_j + 1)."""
    pairings = intersect_primes(D)
    return 1 + (pair(D, pairings, D) + sum(pairings)) // 2


def cohomology(D: ToricDivisor) -> CohomologyProfile:
    """Full profile: h0 and h2 by lattice counts, chi by HRR, h1 = h0+h2-chi.
    h2 = h0(K - D) is 0 when h0 > 0, as h0(K) = 0 on a complete toric surface."""
    chi = euler_characteristic(D)
    h0 = geometry.count_lattice_points(D.halfplanes)
    h2 = 0 if h0 else geometry.count_lattice_points((canonical_divisor(D.fan) - D).halfplanes)
    return CohomologyProfile(h0=h0, h1=_h1(D, h0, h2, chi), h2=h2, chi=chi)


def _h1(D: ToricDivisor, h0: int, h2: int, chi: int) -> int:
    """h1(D) = h0 + h2 - chi; InternalInconsistency when it is negative."""
    h1 = h0 + h2 - chi
    if h1 < 0:
        raise InternalInconsistency(f"negative h1 = {h1} for coeffs {D.coeffs}")
    return h1

