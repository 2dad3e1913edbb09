"""Exact divisor arithmetic on a smooth complete toric surface.

Divisors are integer coefficient vectors over the prime toric divisors
D_1..D_n of a fixed fan.  Everything is immutable and exact: a coefficient
that is not an int (a Fraction, float, str or bool) is refused, and
cross-fan operations raise FanMismatch rather than coerce.  `ToricDivisor(fan,
coeffs)` checks both; a divisor computed here from checked ints (a sum, a
multiple, a principal or canonical divisor, a representative) is built by
`_derived` and not checked again.  A nef class's lex-min point is read off
one cone vertex, any other class's clipped (`_lexmin`).
"""

from __future__ import annotations

import enum
from operator import mul
from typing import List, Optional, Sequence, Tuple

from . import geometry
from .errors import ContractViolation, FanMismatch, _record, require, require_int, require_ints
from .fan import LatticePoint, ToricSurfaceFan, dot


@_record
class ToricDivisor:
    """Toric divisor sum(a_i D_i) with int coefficients."""

    fan: ToricSurfaceFan
    coeffs: Tuple[int, ...]

    def __post_init__(self):
        require(self.fan, ToricSurfaceFan)
        coeffs = require_ints(self.coeffs, "divisor coefficients")
        if len(coeffs) != self.fan.n:
            raise FanMismatch(f"{len(coeffs)} coefficients for a fan with {self.fan.n} rays")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def halfplanes(self) -> Tuple[geometry.HalfPlane, ...]:
        """The polygon P_D = {m : <m, u_i> >= -a_i}, as its half-planes."""
        return tuple((u, -a) for u, a in zip(self.fan.rays, self.coeffs))

    def __add__(self, other):
        _check_same_fan(self, other)
        return _derived(self.fan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        _check_same_fan(self, other)
        return _derived(self.fan, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return _derived(self.fan, tuple(-c for c in self.coeffs))

    def __mul__(self, s):
        require_int(s, "scalar")
        return _derived(self.fan, tuple(c * s for c in self.coeffs))

    __rmul__ = __mul__


def _derived(fan: ToricSurfaceFan, coeffs: Tuple[int, ...]) -> ToricDivisor:
    """The divisor sum(coeffs_i D_i) on `fan`, not checked again: the caller
    computed the n int `coeffs` from a fan and ints already checked, so what
    `ToricDivisor`'s own check would refuse cannot reach here."""
    D = object.__new__(ToricDivisor)
    values = D.__dict__  # as the record's own __init__ writes them
    values["fan"] = fan
    values["coeffs"] = coeffs
    return D


def _check_same_fan(D: ToricDivisor, E: ToricDivisor) -> None:
    if require(D, ToricDivisor).fan != require(E, ToricDivisor).fan:
        raise FanMismatch("divisors live on different fans")


def principal_divisor(fan: ToricSurfaceFan, m: LatticePoint) -> ToricDivisor:
    """div(chi^m) = sum <m, u_i> D_i."""
    require(fan, ToricSurfaceFan)
    m = require_ints(m, "lattice point coordinates")
    if len(m) != 2:
        raise ContractViolation(f"{m} is not a lattice point")
    return _derived(fan, tuple(dot(m, u) for u in fan.rays))


def canonical_divisor(fan: ToricSurfaceFan) -> ToricDivisor:
    """K = -sum D_i."""
    return _derived(fan, (-1,) * require(fan, ToricSurfaceFan).n)


def intersect_primes(D: ToricDivisor) -> List[int]:
    """The vector (D.D_1, ..., D.D_n); it gives K.D = -sum_j D.D_j, as K = -sum D_j.
    D_j meets only its two cyclic neighbours, once each, so D.D_j = a_{j-1} +
    a_{j+1} + a_j D_j^2 for D = sum a_j D_j."""
    a = require(D, ToricDivisor).coeffs
    n = len(a)
    return [a[j - 1] + a[(j + 1) % n] + a[j] * s for j, s in enumerate(D.fan.self_intersections)]


def intersection_number(D: ToricDivisor, E: ToricDivisor) -> int:
    """Bilinear extension of the prime-divisor pairing; FanMismatch across fans."""
    _check_same_fan(D, E)
    return sum(map(mul, E.coeffs, intersect_primes(D)))


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


def _polygon(fan: ToricSurfaceFan, a: Sequence[int]):
    """The clip of P_D = {m : <m, u_i> >= -a_i} for D = sum a_i D_i, from the fan's kept
    arc start: the one place outside fan.py and geometry.py that clips a polygon."""
    return geometry._clip(fan.rays, a, fan._arc_start)


def _lexmin(fan: ToricSurfaceFan, a: Sequence[int], nef: bool):
    """The lex-min lattice point of P_D for D = sum a_i D_i, or None; `nef` says
    whether every D.D_i is >= 0.  A nef D has the support function w -> min over
    P_D of <m, w>, which on each cone sigma is <m_sigma, w> for the m_sigma with
    <m_sigma, u> = -a_u on both rays u of sigma, a lattice point as their det is 1
    (Cox-Little-Schenck, Toric Varieties, Thm 6.1.7); inside sigma, m_sigma is the
    only point of P_D where the minimum is taken.  The lex-min point minimises
    <m, (1, eps)> for small eps > 0, so it is m_sigma for the one cone that holds
    (1, 0+): cone(u_{s-1}, u_s) for the fan's arc start s, the entry that crosses
    the ray (1, 0).  Any other class is clipped."""
    if nef:
        s = fan._arc_start
        (ux, uy), (vx, vy), c, b = fan.rays[s - 1], fan.rays[s], a[s - 1], a[s]
        return (b * uy - c * vy, c * vx - b * ux)
    return geometry._lexmin(*_polygon(fan, a))


def effective_representative(D: ToricDivisor) -> Optional[ToricDivisor]:
    """The linearly equivalent D + div(chi^m) with all coefficients >= 0, for the
    lattice point m of P_D least in (m.x, then m.y), so outputs are deterministic;
    None when P_D has no lattice point (the class is not effective)."""
    m = _lexmin(require(D, ToricDivisor).fan, D.coeffs, min(intersect_primes(D)) >= 0)
    if m is None:
        return None
    return _derived(D.fan, tuple(c + dot(m, u) for c, u in zip(D.coeffs, D.fan.rays)))
