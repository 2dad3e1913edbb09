"""The full cohomology profile of a toric divisor.

chi comes from Hirzebruch-Riemann-Roch on the coefficient and pairing vectors
(`_chi`); a nef class has h0 = chi and h1 = h2 = 0 by Demazure vanishing.
Otherwise h0 counts the lattice points of P_D (`divisor._polygon`), h2 those
of P_{K-D} by Serre duality (0 when h0 > 0), and h1 is their difference,
checked not to be negative.  A divisor's coefficients are ints, so every
number here is an int: the CLI checks the text it parses and the descriptor's
keys, and the library's contracts (`ToricDivisor`, the fan) refuse the values.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from . import geometry
from .divisor import ToricDivisor, _polygon, intersect_primes
from .errors import InternalInconsistency, _record, require


@_record
class CohomologyProfile:
    h0: int
    h1: int
    h2: int
    chi: int


def euler_characteristic(D: ToricDivisor) -> int:
    """chi(D) = 1 + (D^2 - K.D)/2 by Hirzebruch-Riemann-Roch (chi(O) = 1)."""
    return _chi(require(D, ToricDivisor).coeffs, intersect_primes(D))


def _chi(a: Sequence[int], pairings: Sequence[int]) -> int:
    """chi(D) for D = sum a_j D_j with pairings (D.D_j): D^2 = a.pairings, K.D = -sum pairings,
    and D^2 - K.D = 2 sum a_j a_{j+1} + 2 sum a_j + sum D_j^2 a_j (a_j + 1) halves exactly."""
    return 1 + (sum(map(mul, a, pairings)) + sum(pairings)) // 2


def cohomology(D: ToricDivisor) -> CohomologyProfile:
    """Full profile, chi by HRR.  A nef D (every D.D_j >= 0) is basepoint free, so
    h1 = h2 = 0 and h0 = chi by Demazure vanishing (Cox-Little-Schenck, Toric
    Varieties, Thms 6.3.12, 9.2.3).  Else h0 and h2 are counts, h1 = h0+h2-chi, and
    h2 = h0(K - D) is 0 when h0 > 0, as h0(K) = 0; P_{K-D} = {m : <m, u_i> >= 1 + a_i}."""
    pairings = intersect_primes(D)
    chi = _chi(D.coeffs, pairings)
    if min(pairings) >= 0:
        return CohomologyProfile(h0=chi, h1=0, h2=0, chi=chi)
    h0 = geometry._count(*_polygon(D.fan, D.coeffs))
    h2 = 0 if h0 else geometry._count(*_polygon(D.fan, [-1 - a for a in D.coeffs]))
    h1 = h0 + h2 - chi
    if h1 < 0:
        raise InternalInconsistency(f"negative h1 = {h1} for coeffs {D.coeffs}")
    return CohomologyProfile(h0=h0, h1=h1, h2=h2, chi=chi)
