"""Exact divisor arithmetic on a smooth complete toric surface.

Divisors are coefficient vectors over the prime toric divisors D_1..D_n of a
fixed fan.  Everything is immutable and exact (int / Fraction); cross-fan
operations raise FanMismatch rather than coerce.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import List, Optional, Tuple, Union

from . import geometry
from .errors import ContractViolation, FanMismatch
from .fan import LatticePoint, ToricSurfaceFan, dot


Coefficient = Union[int, Fraction]


def _exact(c) -> Coefficient:
    """c as an exact coefficient: an int, or a Fraction only when it is not
    integral.  Anything else (float, str, bool) is refused."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise ContractViolation(f"divisor coefficient {c!r} is not an int or a Fraction")


@dataclass(frozen=True)
class ToricDivisor:
    """Toric divisor sum(a_i D_i) with exact coefficients: integral classes
    hold ints only, Q-divisors such as C/2 keep their Fractions."""

    fan: ToricSurfaceFan
    coeffs: Tuple[Coefficient, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.fan.n:
            raise FanMismatch(
                f"{len(self.coeffs)} coefficients for a fan with {self.fan.n} rays"
            )
        object.__setattr__(self, "coeffs", tuple(map(_exact, self.coeffs)))

    @property
    def halfplanes(self) -> Tuple[geometry.HalfPlane, ...]:
        """The polygon P_D = {m : <m, u_i> >= -a_i}, as its half-planes."""
        return tuple((u, -a) for u, a in zip(self.fan.rays, self.coeffs))

    @property
    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def require_integral(self, operation: str) -> None:
        """Refuse a Q-divisor in an operation defined on integral classes only."""
        if not self.is_integral:
            raise ContractViolation(
                f"{operation} needs an integral divisor, got coefficients {self.coeffs}"
            )

    def __add__(self, other):
        _check_same_fan(self, other)
        return ToricDivisor(self.fan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        _check_same_fan(self, other)
        return ToricDivisor(self.fan, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return ToricDivisor(self.fan, tuple(-c for c in self.coeffs))

    def __mul__(self, s):
        return ToricDivisor(self.fan, tuple(c * s for c in self.coeffs))

    __rmul__ = __mul__


def _check_same_fan(D: ToricDivisor, E: ToricDivisor) -> None:
    if not D.fan.same_surface(E.fan):
        raise FanMismatch("divisors live on different fans")


def principal_divisor(fan: ToricSurfaceFan, m: LatticePoint) -> ToricDivisor:
    """div(chi^m) = sum <m, u_i> D_i."""
    return ToricDivisor(fan, tuple(dot(m, u) for u in fan.rays))


def canonical_divisor(fan: ToricSurfaceFan) -> ToricDivisor:
    """K = -sum D_i."""
    return ToricDivisor(fan, (-1,) * fan.n)


def intersect_primes(D: ToricDivisor) -> List:
    """The vector (D.D_1, ..., D.D_n).  D_j meets only its two cyclic
    neighbours, once each, so D.D_j = a_{j-1} + a_{j+1} + a_j D_j^2."""
    a = D.coeffs
    n = len(a)
    return [
        _exact(a[j - 1] + a[(j + 1) % n] + a[j] * s)
        for j, s in enumerate(D.fan.self_intersections)
    ]


def intersection_number(D: ToricDivisor, E: ToricDivisor):
    """Bilinear extension of the prime-divisor pairing: an int when the value
    is integral, a Fraction otherwise."""
    _check_same_fan(D, E)
    return _exact(sum(e * p for e, p in zip(E.coeffs, intersect_primes(D))))


def classes_equal(D: ToricDivisor, E: ToricDivisor) -> bool:
    """Linear equivalence test: D - E must be a principal divisor div(chi^m).

    The first two rays form a lattice basis (their det is 1), so m is pinned
    by two coordinates and then checked on all n.
    """
    _check_same_fan(D, E)
    diff = [a - b for a, b in zip(D.coeffs, E.coeffs)]
    u1, u2 = D.fan.rays[0], D.fan.rays[1]
    # solve <m,u1> = diff[0], <m,u2> = diff[1]; det(u1,u2) = 1
    m = (
        diff[0] * u2[1] - diff[1] * u1[1],
        u1[0] * diff[1] - u2[0] * diff[0],
    )
    if m[0] != int(m[0]) or m[1] != int(m[1]):
        return False
    m = (int(m[0]), int(m[1]))
    return all(dot(m, u) == d for u, d in zip(D.fan.rays, diff))


def floor_div(D: ToricDivisor) -> ToricDivisor:
    """Componentwise floor of the given representation (representation
    dependent by design)."""
    return ToricDivisor(D.fan, tuple(floor(c) for c in D.coeffs))


def ceil_div(D: ToricDivisor) -> ToricDivisor:
    """Componentwise ceiling of the given representation."""
    return ToricDivisor(D.fan, tuple(ceil(c) for c in D.coeffs))


class Positivity(enum.Enum):
    AMPLE = "ample"
    NEF_NOT_AMPLE = "nef_not_ample"
    NOT_NEF = "not_nef"


def positivity(D: ToricDivisor) -> Positivity:
    """Toric Kleiman classification from the n numbers D.D_i: nef iff all
    are >= 0, ample iff all are > 0."""
    pairings = intersect_primes(D)
    if all(p > 0 for p in pairings):
        return Positivity.AMPLE
    if all(p >= 0 for p in pairings):
        return Positivity.NEF_NOT_AMPLE
    return Positivity.NOT_NEF


def effective_representative(D: ToricDivisor) -> Optional[ToricDivisor]:
    """Linearly equivalent representative with all coefficients >= 0.

    Shifts by a principal divisor div(chi^m); feasible m form a bounded
    rational polygon, and among its lattice points the lexicographically
    smallest (m.x, then m.y) is taken so outputs are deterministic.  Returns
    None when no lattice point is feasible (the class is not effective).
    """
    D.require_integral("effective_representative")
    m = geometry.lexmin_lattice_point(D.halfplanes)
    if m is None:
        return None
    return ToricDivisor(D.fan, tuple(a + dot(m, u) for a, u in zip(D.coeffs, D.fan.rays)))
