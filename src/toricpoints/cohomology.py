"""Divisor polytopes and the full cohomology profile of a toric divisor.

h0 is a lattice-point count in the divisor polytope, h2 comes from Serre
duality as the count for K - D, chi from Hirzebruch-Riemann-Roch, and h1 by
difference.  Everything is exact; no floating point in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from . import geometry
from .divisor import (
    Positivity,
    ToricDivisor,
    canonical_divisor,
    intersection_number,
    positivity,
)
from .errors import InternalInconsistency


@dataclass(frozen=True)
class DivisorPolytope:
    """P_D = {x : <x, u_i> >= -a_i}, given by its half-planes.  Its distinct
    exact rational vertices, sorted, are clipped on first read."""

    halfplanes: Tuple[geometry.HalfPlane, ...]

    @cached_property
    def vertices(self) -> Tuple[geometry.QPoint, ...]:
        return tuple(sorted(geometry.feasible_vertices(self.halfplanes)))

    @property
    def dim(self) -> int:
        """Affine dimension of P_D: -1 empty, 0 point, 1 segment, 2 polygon."""
        return min(len(self.vertices), 3) - 1


@dataclass(frozen=True)
class CohomologyProfile:
    h0: int
    h1: int
    h2: int
    chi: int


def divisor_polytope(D: ToricDivisor) -> DivisorPolytope:
    return DivisorPolytope(tuple((u, -a) for u, a in zip(D.fan.rays, D.coeffs)))


def lattice_point_count(P: DivisorPolytope) -> int:
    return geometry.count_lattice_points(P.halfplanes)


def euler_characteristic(D: ToricDivisor) -> int:
    """chi(D) = 1 + (D^2 - K.D)/2 by Hirzebruch-Riemann-Roch (chi(O) = 1)."""
    D.require_integral("euler_characteristic")
    K = canonical_divisor(D.fan)
    num = intersection_number(D, D) - intersection_number(K, D)
    if num % 2 != 0:
        raise InternalInconsistency("D^2 - K.D is odd")
    return 1 + num // 2


def cohomology(D: ToricDivisor) -> CohomologyProfile:
    """Full profile: h0 and h2 by lattice counts, chi by HRR, h1 = h0+h2-chi.
    Defined on integral divisors only."""
    chi = euler_characteristic(D)
    K = canonical_divisor(D.fan)
    h0 = lattice_point_count(divisor_polytope(D))
    h2 = lattice_point_count(divisor_polytope(K - D))
    h1 = h0 + h2 - chi
    if h1 < 0:
        raise InternalInconsistency(f"negative h1 = {h1} for coeffs {D.coeffs}")
    return CohomologyProfile(h0=h0, h1=h1, h2=h2, chi=chi)


@dataclass(frozen=True)
class VanishingReport:
    """Which vanishings the toric vanishing theorem guarantees for floor(D)
    and -ceil(D), from the nef/ample status of the Q-divisor D alone.  The
    cohomology itself is not computed here."""

    nef: bool
    floor_higher_vanishing_expected: bool
    ample: bool
    anti_ceil_h0_h1_vanishing_expected: bool
    dim_PD: int


def vanishing_predicates(D: ToricDivisor) -> VanishingReport:
    pos = positivity(D)
    nef = pos in (Positivity.AMPLE, Positivity.NEF_NOT_AMPLE)
    ample = pos is Positivity.AMPLE
    dim_PD = divisor_polytope(D).dim
    return VanishingReport(
        nef=nef,
        floor_higher_vanishing_expected=nef,
        ample=ample,
        anti_ceil_h0_h1_vanishing_expected=ample,
        dim_PD=dim_PD,
    )
