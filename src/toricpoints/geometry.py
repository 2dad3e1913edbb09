"""Exact half-plane intersection and lattice-point counting in the plane.

A half-plane is a pair (normal, offset) with normal a lattice vector and an
exact offset (int or Fraction), meaning <x, normal> >= offset.  The normals
are those of a complete fan: they wind once counterclockwise around the
origin, each turn less than a half-turn, so the region is bounded (or
empty).  The clip scales each half-plane by Q, the lcm of the offsets'
denominators, and works in integers: an x-coordinate is a pair (num, den)
with den > 0, compared by cross-multiplication.  Only `feasible_vertices`
builds Fractions, for the vertices it returns; nothing is ever a float.

The region is {xlo <= x <= xhi, L(x) <= y <= U(x)}: xlo and xhi come from
the normals (+-1, 0), L is the maximum of the lower boundary lines (normals
with u_y > 0) and U the minimum of the upper ones (u_y < 0).  Both arcs of
normals are already sorted by slope, so one stack pass over each gives its
envelope in O(n).  Lattice points are counted column by column: each
integer x adds floor(U(x)) - ceil(L(x)) + 1, and the columns under one
boundary line are summed at once with `floor_sum`, so the count costs
O(n log max|offset|) instead of the area of the bounding box.  Each
question (vertices, count, lex-min point) clips its half-planes once.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .errors import ContractViolation
from .fan import LatticePoint, det

QPoint = Tuple[Fraction, Fraction]
HalfPlane = Tuple[LatticePoint, Union[int, Fraction]]
X = Tuple[int, int]  # the x-coordinate num/den as (num, den), den > 0
NEG_INF, INF = (-1, 0), (1, 0)  # the ends of the x-axis: _le puts them before and after every X
# An envelope: its boundary lines left to right, and the x where each one
# after the first takes over from its predecessor.
Chain = Tuple[List[HalfPlane], List[X]]
End = Tuple[X, HalfPlane, HalfPlane]  # an end of the region, with the lines active there


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b)/m) for n >= 0, m >= 1 and any integers
    a, b, in O(log m) steps of Euclid's algorithm (Graham-Knuth-Patashnik,
    Concrete Mathematics, section 3)."""
    total = 0
    while n > 0:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        # now 0 <= a, b < m: count the lattice points under the line by rows
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def _le(x: X, y: X) -> bool:
    return x[0] * y[1] <= y[0] * x[1]


def _ceil(x: X) -> int:
    return -(-x[0] // x[1])


_BY_X = cmp_to_key(lambda e, f: e[0][0] * f[0][1] - f[0][0] * e[0][1])  # orders ends by x


def _meet_x(h1: HalfPlane, h2: HalfPlane) -> X:
    """x-coordinate where the boundary lines of two non-parallel half-planes meet."""
    (u, c1), (v, c2) = h1, h2
    num, den = c1 * v[1] - c2 * u[1], det(u, v)
    return (num, den) if den > 0 else (-num, -den)


def _envelope(lines: Sequence[HalfPlane]) -> Chain:
    """The lines that reach the envelope, for lines given in the order in
    which they can appear on it from left to right."""
    hull: List[HalfPlane] = []
    breaks: List[X] = []
    for h in lines:
        while hull:
            x = _meet_x(hull[-1], h)
            if not breaks or not _le(x, breaks[-1]):
                breaks.append(x)
                break
            hull.pop()
            breaks.pop()
        hull.append(h)
    return hull, breaks


def _chains(halfplanes: Sequence[HalfPlane]) -> Tuple[Chain, Chain, X, X]:
    """Lower envelope L, upper envelope U, and the vertical bounds xlo, xhi
    (+-INF where there is none), of the half-planes scaled by Q."""
    normals = [u for u, _ in halfplanes]
    n = len(normals)
    starts = [i for i in range(n) if normals[i][1] > 0 >= normals[i - 1][1]]
    if len(starts) != 1 or any(det(normals[i - 1], normals[i]) <= 0 for i in range(n)):
        raise ContractViolation(
            "half-plane normals must wind once counterclockwise, each turn under a half-turn"
        )
    q = lcm(*(c.denominator for _, c in halfplanes))
    hs = [((q * ux, q * uy), c.numerator * q // c.denominator) for (ux, uy), c in halfplanes]
    hs = hs[starts[0]:] + hs[:starts[0]]
    # From the lower arc's start, the order is: lower arc (slopes rising
    # left to right), (-1, 0), upper arc (slopes rising right to left), (1, 0).
    lower = _envelope([h for h in hs if h[0][1] > 0])
    upper = _envelope([h for h in reversed(hs) if h[0][1] < 0])
    xlo, xhi = NEG_INF, INF
    for (ux, uy), c in hs:
        if uy == 0 and ux > 0:
            xlo = (c, ux)
        elif uy == 0:
            xhi = (-c, -ux)
    return lower, upper, xlo, xhi


def _pieces(lower: Chain, upper: Chain) -> Iterator[Tuple[X, X, HalfPlane, HalfPlane]]:
    """(start, end, l, u) for each x-interval on which the lower line l and
    the upper line u are the active ones, left to right from -INF to INF."""
    (lh, lb), (uh, ub) = lower, upper
    lb, ub = lb + [INF], ub + [INF]
    i = j = 0
    start = NEG_INF
    while True:
        end = lb[i] if _le(lb[i], ub[j]) else ub[j]
        yield start, end, lh[i], uh[j]
        if end is INF:
            return
        i += _le(lb[i], end)
        j += _le(ub[j], end)
        start = end


def _within(x: X, lo: X, hi: X) -> bool:
    return _le(lo, x) and _le(x, hi)


def _clip(halfplanes: Sequence[HalfPlane]) -> Tuple[Chain, Chain, List[End]]:
    """The envelopes L and U, and the region's left and right ends, each
    with the lower and upper line active there; no ends when it is empty.

    The region's x-extent is where U - L (a concave function) is >= 0 within
    [xlo, xhi].  Its ends lie among: xlo, xhi, the envelopes' breakpoints,
    and the points where the active lower and upper lines meet.
    """
    lower, upper, xlo, xhi = _chains(halfplanes)
    ends = []
    for start, end, l, u in _pieces(lower, upper):
        ((lx, ly), cl), ((ux, uy), cu) = l, u
        meet = _meet_x(l, u) if det(l[0], u[0]) else NEG_INF  # where U = L; none if parallel
        ends += [
            ((n, d), l, u)
            for n, d in (start, xlo, xhi, meet)
            if d and _within((n, d), start, end) and _within((n, d), xlo, xhi)
            and (cl * d - lx * n) * uy >= (cu * d - ux * n) * ly  # L <= U, times d l_y u_y < 0
        ]
    if ends:
        ends = [min(ends, key=_BY_X), max(ends, key=_BY_X)]
    return lower, upper, ends


def feasible_vertices(halfplanes: Sequence[HalfPlane]) -> List[QPoint]:
    """The distinct vertices of the region, counterclockwise: [] when it is
    empty, one point, the two ends of a segment, or the polygon's corners."""
    lower, upper, ends = _clip(halfplanes)
    if not ends:
        return []
    (xa, la, ua), (xb, lb, ub) = ends
    lows, ups = (
        [(x, h) for h, x in zip(*ch) if not (_le(x, xa) or _le(xb, x))] for ch in (lower, upper)
    )
    ring = [(xa, la), *lows, (xb, lb), (xb, ub), *reversed(ups), (xa, ua)]
    # the point of each boundary line ((u_x, u_y), c) at x = n/d
    ring = [(Fraction(n, d), Fraction(c * d - ux * n, uy * d)) for (n, d), ((ux, uy), c) in ring]
    # Only the ends can repeat: a point, a segment, or a vertical edge's end.
    return [p for i, p in enumerate(ring) if p != ring[i - 1]] or ring[:1]


def _column_sum(chain: Chain, a: int, b: int) -> int:
    """sum over integer x in [a, b] of floor((u_x x - c)/|u_y|) for the active
    line ((u_x, u_y), c): floor(U(x)) on the upper envelope, -ceil(L(x)) on
    the lower one.  Each column goes to the line active on [its break, the
    next break)."""
    hull, breaks = chain
    total = 0
    for k, ((ux, uy), c) in enumerate(hull):
        lo = a if k == 0 else max(a, _ceil(breaks[k - 1]))
        hi = b if k == len(breaks) else min(b, _ceil(breaks[k]) - 1)
        if lo <= hi:
            total += floor_sum(hi - lo + 1, abs(uy), ux, ux * lo - c)
    return total


def _columns(lower: Chain, upper: Chain, a: int, b: int) -> int:
    """Lattice points in the columns a..b, all inside the region's x-extent."""
    return b - a + 1 + _column_sum(lower, a, b) + _column_sum(upper, a, b)


def count_lattice_points(halfplanes: Sequence[HalfPlane]) -> int:
    """Number of lattice points in the region."""
    lower, upper, ends = _clip(halfplanes)
    a, b = (_ceil(ends[0][0]), ends[1][0][0] // ends[1][0][1]) if ends else (1, 0)
    return _columns(lower, upper, a, b)


def lexmin_lattice_point(halfplanes: Sequence[HalfPlane]) -> Optional[LatticePoint]:
    """The lattice point of the region that is smallest in (x, y), or None.

    The first non-empty column is found by bisection on the count of the
    columns up to x, so a thin sliver costs O(log width) counts.
    """
    lower, upper, ends = _clip(halfplanes)
    a, b = (_ceil(ends[0][0]), ends[1][0][0] // ends[1][0][1]) if ends else (1, 0)
    if _columns(lower, upper, a, b) == 0:
        return None
    while a < b:
        mid = (a + b) // 2
        if _columns(lower, upper, a, mid) > 0:
            b = mid
        else:
            a = mid + 1
    hull, breaks = lower  # the line active at a: the first break >= a, as floor(x) >= a iff x >= a
    (ux, uy), c = hull[bisect_left(breaks, a, key=lambda x: x[0] // x[1])]
    return a, -((ux * a - c) // uy)
