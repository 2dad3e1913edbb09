"""Smooth complete toric surface fans in the rank-2 lattice.

A surface is described by its cyclically ordered primitive rays u_1,...,u_n
(counterclockwise).  Smoothness and completeness together amount to
det(u_i, u_{i+1}) = +1 for every consecutive pair and rays that wind once
around the origin; `ToricSurfaceFan` checks both when it is made.  They
also make the rays primitive (a common factor of u_i divides det(u_i, u_{i+1}))
and distinct (one winding whose turns are all under a half-turn meets no
direction twice), so neither is checked apart.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional, Sequence, Tuple

from .errors import (
    ContractViolation,
    InputError,
    NotSmoothOrNotComplete,
    _record,
    require,
    require_int,
    require_ints,
)

LatticePoint = Tuple[int, int]


def dot(m: LatticePoint, u: LatticePoint) -> int:
    return m[0] * u[0] + m[1] * u[1]


def det(a: LatticePoint, b: LatticePoint) -> int:
    return a[0] * b[1] - a[1] * b[0]


@_record
class ToricSurfaceFan:
    """Fan of a smooth complete toric surface, validated when it is made.

    Rays must be given in counterclockwise cyclic order, with int
    coordinates; the order is kept as-is so prime divisor indices stay
    stable.  Rays that make no such fan are refused with a `ToricError` when
    the fan is made, however it is built.  Immutable, safe to share.  The
    rays alone decide equality and the hash, so P1xP1 equals F0; the name
    is for display (the repr, the lambda JSON's "surface").  Two plain
    attributes outside equality and repr are fixed then as well: the winding
    check's `lower_arc_start` as `_arc_start`, for clipping polygons on the
    rays and for the cone (u_{s-1}, u_s) at s = `_arc_start`, whose vertex is
    a nef class's lex-min point, and `self_intersections`, (D_1^2, ...,
    D_n^2) with D_i^2 = -b_i for u_{i-1} + u_{i+1} = b_i u_i.  Writing
    u_{i-1} = alpha u_i + beta u_{i+1}, det(u_{i-1}, u_i) = 1 forces beta =
    -1, so b_i = alpha = det(u_{i-1}, u_{i+1}).
    """

    rays: Tuple[LatticePoint, ...]
    name: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        try:
            rays = tuple((x, y) for x, y in self.rays)
        except (TypeError, ValueError):  # not a sequence of pairs
            raise ContractViolation(f"rays must be pairs of ints, got {self.rays!r}") from None
        require_ints((c for u in rays for c in u), "ray coordinates")
        if self.name is not None:
            require(self.name, str)
        n = len(rays)
        if n < 3:
            raise NotSmoothOrNotComplete(f"need at least 3 rays, got {n}")
        for i in range(n):
            d = det(rays[i], rays[(i + 1) % n])
            if d != 1:
                raise NotSmoothOrNotComplete(
                    f"det(u_{i}, u_{(i + 1) % n}) = {d} != 1 for rays "
                    f"{rays[i]}, {rays[(i + 1) % n]}"
                )
        # Consecutive dets of +1 still allow rays that wind more than once.
        start = lower_arc_start(rays)
        if start is None:
            raise NotSmoothOrNotComplete("rays do not wind exactly once around the origin")
        object.__setattr__(self, "rays", rays)
        squares = tuple(-det(rays[i - 1], rays[(i + 1) % n]) for i in range(n))
        object.__setattr__(self, "self_intersections", squares)
        object.__setattr__(self, "_arc_start", start)

    @property
    def n(self) -> int:
        return len(self.rays)


def lower_arc_start(rays: Sequence[LatticePoint]) -> Optional[int]:
    """The one i at which the cycle enters the upper half-plane (u_{i-1} on
    or below the x-axis, u_i above it), or None when there is not exactly
    one.  For a cycle whose turns are all counterclockwise and under a
    half-turn, such an entry is a crossing of the ray (1, 0), so this
    decides whether the rays wind once around the origin."""
    start = None
    for i in range(len(rays)):
        if rays[i][1] > 0 >= rays[i - 1][1]:
            if start is not None:
                return None
            start = i
    return start


def build_fan(rays: Sequence[LatticePoint], name: Optional[str] = None) -> ToricSurfaceFan:
    """The fan on `rays`, validated as :class:`ToricSurfaceFan` validates."""
    return ToricSurfaceFan(rays, name)


def p2() -> ToricSurfaceFan:
    return build_fan([(1, 0), (0, 1), (-1, -1)], name="P2")


def hirzebruch(m: int) -> ToricSurfaceFan:
    if require_int(m, "Hirzebruch parameter m") < 0:
        raise InputError(f"Hirzebruch parameter must be >= 0, got {m}")
    return build_fan([(1, 0), (0, 1), (-1, m), (0, -1)], name=f"F{m}")


def p1xp1() -> ToricSurfaceFan:
    return build_fan([(1, 0), (0, 1), (-1, 0), (0, -1)], name="P1xP1")


def builtin_surface(name: str, m: Optional[int] = None) -> ToricSurfaceFan:
    """Look up a builtin surface by name: P2, P1xP1, hirzebruch (needs m, the
    only name that takes it) or F<m>, with m in ASCII digits."""
    key = require(name, str).strip().lower()
    if key == "hirzebruch":
        if m is None:
            raise InputError("hirzebruch surface needs the parameter m")
        return hirzebruch(m)
    if m is not None:
        raise InputError(f"only the hirzebruch surface takes the parameter m, not {name!r}")
    if key == "p2":
        return p2()
    if key == "p1xp1":
        return p1xp1()
    digits = key[1:]
    if key.startswith("f") and digits.isascii() and digits.isdigit():
        try:
            m = int(digits)
        except ValueError:  # more digits than int() converts
            raise InputError(f"Hirzebruch parameter of {len(digits)} digits is too long") from None
        return hirzebruch(m)
    raise InputError(f"unknown builtin surface {name!r}")

