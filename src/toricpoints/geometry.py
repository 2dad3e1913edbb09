"""Exact half-plane intersection and lattice-point counting in the plane.

A half-plane is a pair (normal, offset) of a lattice vector and an int,
meaning <x, normal> >= offset.  A rational offset p/q is written as the
half-plane ((q u_x, q u_y), p), whose normal need not be primitive.  The
normals are those of a complete fan: they wind once counterclockwise around
the origin, each turn less than a half-turn, so the region is bounded (or
empty).  The clip works in integers: an x-coordinate is a pair (num, den)
with den > 0, compared by cross-multiplication.  Only `feasible_vertices`
builds Fractions, for the vertices it returns; nothing is ever a float.

The region is {xlo <= x <= xhi, L(x) <= y <= U(x)}: xlo and xhi come from
the normals (+-1, 0), L is the maximum of the lower boundary lines (normals
with u_y > 0) and U the minimum of the upper ones (u_y < 0).  Both arcs of
normals are already sorted by slope, so one stack pass over each gives its
envelope in O(n).  The region's ends take one linear solve per piece of the
envelopes.  The normals positively span the plane, so a region whose
offsets are all > 0 is empty and is not clipped.  Lattice points are
counted column by column: each integer x adds floor(U(x)) - ceil(L(x)) + 1,
and the columns under one boundary line are summed at once with
`floor_sum`.  Each envelope also keeps the integer column where each line
takes over, ceil(break), so a count of the columns a..b finds its first
line by bisection and costs O(log n) plus one sum per line that meets
[a, b].  The lex-min point gallops over such counts from the region's left
end, so it costs O(log(x* - a + 2)) counts for the first integer column a
and the answer's column x*.  Each public question (vertices, count, lex-min
point) checks its half-planes once and clips them once; a polygon on a
fan's rays is clipped from the fan's kept `_arc_start` without a check.
One clip can answer both the lex-min point and the count of a class mod 2.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import ContractViolation, require_ints
from .fan import LatticePoint, det, lower_arc_start

QPoint = Tuple[Fraction, Fraction]
HalfPlane = Tuple[LatticePoint, int]
X = Tuple[int, int]  # the x-coordinate num/den as (num, den), den > 0
NEG_INF, INF = (-1, 0), (1, 0)  # the ends of the x-axis: _le puts them before and after every X
# An envelope: its boundary lines left to right, the x where each one after
# the first takes over from its predecessor, and that x's ceiling, the first
# integer column of the line (None in place of the x for a class count's image).
Chain = Tuple[List[HalfPlane], List[X], List[int]]
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
    return hull, breaks, list(map(_ceil, breaks))


def _checked_start(halfplanes: Sequence[HalfPlane]) -> int:
    """The normals' `lower_arc_start`; ContractViolation unless they wind once
    counterclockwise, each turn under a half-turn, and every offset is an int.
    Each public question runs this on the half-planes it is given."""
    normals = [u for u, _ in halfplanes]
    start = lower_arc_start(normals)
    if start is None or any(det(normals[i - 1], normals[i]) <= 0 for i in range(len(normals))):
        raise ContractViolation(
            "half-plane normals must wind once counterclockwise, each turn under a half-turn"
        )
    require_ints((c for _, c in halfplanes), "half-plane offsets")
    return start


def _chains(halfplanes: Sequence[HalfPlane], start: int) -> Tuple[Chain, Chain, X, X]:
    """Lower envelope L, upper envelope U, and the vertical bounds xlo, xhi
    (+-INF where there is none); L and U are empty when every offset is > 0."""
    if min(c for _, c in halfplanes) > 0:
        return ([], [], []), ([], [], []), NEG_INF, INF
    hs = [*halfplanes[start:], *halfplanes[:start]]
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
    (lh, lb, _), (uh, ub, _) = lower, upper
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


def _clip(halfplanes: Sequence[HalfPlane], start: int) -> Tuple[Chain, Chain, List[End]]:
    """The envelopes L and U, and the region's left and right ends, each
    with the lower and upper line active there; no ends when it is empty.
    The half-planes are taken as checked, with `start` their lower arc's start.

    On each piece of the envelopes, clamped to [xlo, xhi], U >= L is the one
    inequality g x <= cl uy - cu ly for the active lines l and u, with
    g = det(l, u): it cuts the piece at the lines' meet (on the right when
    g > 0, on the left when g < 0) or keeps or drops all of it (g = 0).
    """
    lower, upper, xlo, xhi = _chains(halfplanes, start)
    if not lower[0]:  # every offset is > 0
        return lower, upper, []
    first = last = None
    for start, end, l, u in _pieces(lower, upper):
        lo = xlo if _le(start, xlo) else start
        hi = end if _le(end, xhi) else xhi
        ((lx, ly), cl), ((ux, uy), cu) = l, u
        g, r = lx * uy - ly * ux, cl * uy - cu * ly  # the meet is at x = r/g
        if g > 0 and _le((r, g), hi):
            hi = (r, g)
        elif g < 0 and _le(lo, (-r, -g)):
            lo = (-r, -g)
        if (g or r >= 0) and _le(lo, hi):
            first = first or (lo, l, u)
            last = (hi, l, u)
    return lower, upper, [first, last] if first else []


def feasible_vertices(halfplanes: Sequence[HalfPlane]) -> List[QPoint]:
    """The distinct vertices of the region, counterclockwise: [] when it is
    empty, one point, the two ends of a segment, or the polygon's corners."""
    lower, upper, ends = _clip(halfplanes, _checked_start(halfplanes))
    if not ends:
        return []
    (xa, la, ua), (xb, lb, ub) = ends
    lows, ups = (
        [(x, h) for h, x, _ in zip(*ch) if not (_le(x, xa) or _le(xb, x))] for ch in (lower, upper)
    )
    ring = [(xa, la), *lows, (xb, lb), (xb, ub), *reversed(ups), (xa, ua)]
    # the point of each boundary line ((u_x, u_y), c) at x = n/d
    ring = [(Fraction(n, d), Fraction(c * d - ux * n, uy * d)) for (n, d), ((ux, uy), c) in ring]
    # Only the ends can repeat: a point, a segment, or a vertical edge's end.
    return [p for i, p in enumerate(ring) if p != ring[i - 1]] or ring[:1]


def _column_sum(chain: Chain, a: int, b: int) -> int:
    """sum over integer x in [a, b] of floor((u_x x - c)/|u_y|) for the active
    line ((u_x, u_y), c): floor(U(x)) on the upper envelope, -ceil(L(x)) on
    the lower one.  Each column goes to the line whose first integer column
    is the last one <= x, found for a by bisection; then only the lines that
    meet [a, b] are summed, one `floor_sum` each."""
    hull, _, starts = chain
    total = 0
    k = bisect_right(starts, a)
    while a <= b:
        (ux, uy), c = hull[k]
        hi = min(b, starts[k] - 1) if k < len(starts) else b
        total += floor_sum(hi - a + 1, abs(uy), ux, ux * a - c)
        a, k = hi + 1, k + 1
    return total


def _columns(lower: Chain, upper: Chain, a: int, b: int) -> int:
    """Lattice points in the columns a..b, all inside the region's x-extent."""
    return b - a + 1 + _column_sum(lower, a, b) + _column_sum(upper, a, b)


def _extent(ends: List[End]) -> Tuple[int, int]:
    """The first and last integer column of a clipped region; (1, 0) when it has no ends."""
    return (_ceil(ends[0][0]), ends[1][0][0] // ends[1][0][1]) if ends else (1, 0)


def count_lattice_points(halfplanes: Sequence[HalfPlane]) -> int:
    """Number of lattice points in the region."""
    return _count(*_clip(halfplanes, _checked_start(halfplanes)))


def _count(lower: Chain, upper: Chain, ends: List[End]) -> int:
    """`count_lattice_points` of a clipped region."""
    return _columns(lower, upper, *_extent(ends))


def _class_count(lower: Chain, upper: Chain, ends: List[End], m: LatticePoint) -> int:
    """Lattice points p = m (mod 2) of a clipped region, as the lattice points
    q = (p - m)/2 of its image: a line <p, u> >= c becomes <q, 2u> >= c - <m, u>,
    and an x-coordinate x becomes (x - m_x)/2, which keeps the envelopes' order.
    An integer column s, a line's first or the region's first, becomes
    ceil((s - m_x)/2), exact as m_x is an int; the last becomes floor((s - m_x)/2)."""
    if not ends:
        return 0
    mx, my = m
    lower, upper = (
        ([((2 * ux, 2 * uy), c - mx * ux - my * uy) for (ux, uy), c in hull], None,
         [(s - mx + 1) // 2 for s in starts])
        for hull, _, starts in (lower, upper)
    )
    a, b = _extent(ends)
    return _columns(lower, upper, (a - mx + 1) // 2, (b - mx) // 2)


def lexmin_lattice_point(halfplanes: Sequence[HalfPlane]) -> Optional[LatticePoint]:
    """The lattice point of the region that is smallest in (x, y), or None."""
    return _lexmin(*_clip(halfplanes, _checked_start(halfplanes)))


def _lexmin(lower: Chain, upper: Chain, ends: List[End]) -> Optional[LatticePoint]:
    """`lexmin_lattice_point` of a clipped region.

    The first non-empty column x* is found by galloping from the region's
    first integer column a: the columns a..a+2^k-1 are counted for
    k = 0, 1, 2, ... until they hold a point, and only the last doubling is
    then bisected (Bentley-Yao unbounded search).  That costs
    O(log(x* - a + 2)) counts, exactly one when column a holds the point; a
    region with no lattice point costs O(log width).
    """
    a, b = _extent(ends)
    if a > b:
        return None
    step = 1  # count the columns a..a+step-1 for step = 1, 2, 4, ...
    while True:
        hi = min(a + step - 1, b)
        if _columns(lower, upper, a, hi) > 0:
            break
        if hi == b:
            return None
        step *= 2
    lo = a + step // 2  # the columns before the last doubling hold no point
    while lo < hi:
        mid = (lo + hi) // 2
        if _columns(lower, upper, lo, mid) > 0:
            hi = mid
        else:
            lo = mid + 1
    # the line active at lo, the last whose first integer column is <= lo
    hull, _, starts = lower
    (ux, uy), c = hull[bisect_right(starts, lo)]
    return lo, -((ux * lo - c) // uy)
