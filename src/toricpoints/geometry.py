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
the normals (+-k, 0), L is the maximum of the lower boundary lines (normals
with u_y > 0) and U the minimum of the upper ones (u_y < 0).  `_clip`, the
one clip routine, walks the normals once from the lower arc's start and
sorts each half-plane into an arc or a vertical bound as it goes.  Both arcs
come out sorted by slope, so one stack pass over each gives its envelope in
O(n), and one walk over the envelopes' pieces finds the region's ends (or
that it is empty) with one linear solve per piece.  Lattice points are
counted column by column: each integer x adds floor(U(x)) - ceil(L(x)) + 1,
and the columns under one boundary line are summed at once with
`floor_sum`.  Each envelope also keeps the integer column where each line
takes over, ceil(break), so a count of the columns a..b finds its first
line by bisection and costs O(log n) plus one sum per line that meets
[a, b].  The lex-min point gallops over such counts from the region's left
end, so it costs O(log(x* - a + 2)) counts for the first integer column a
and the answer's column x*.  Each public question (vertices, count, lex-min
point) checks its half-planes once and clips them once; a polygon on a
fan's rays is clipped straight from the rays and its divisor's
coefficients, from the fan's kept `_arc_start`, without a check.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import ContractViolation, require_ints
from .fan import LatticePoint, det, lower_arc_start

QPoint = Tuple[Fraction, Fraction]
HalfPlane = Tuple[LatticePoint, int]
X = Tuple[int, int]  # the x-coordinate num/den as (num, den), den > 0
# the ends of the x-axis: cross-multiplication puts them before and after every X
NEG_INF, INF = (-1, 0), (1, 0)
# An envelope: its boundary lines left to right, the x where each one after
# the first takes over from its predecessor, and that x's ceiling, the first
# integer column of the line.
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


def _ceil(x: X) -> int:
    return -(-x[0] // x[1])


def _envelope(lines: Sequence[HalfPlane]) -> Chain:
    """The lines that reach the envelope, for lines given in the order in
    which they can appear on it from left to right.  Each new line h meets
    the last kept line at x = num/den, with den = det of their normals
    made > 0; while that x is not right of the last break, the last line
    never reaches the envelope."""
    hull: List[HalfPlane] = []
    breaks: List[X] = []
    for h in lines:
        (vx, vy), c = h
        while hull:
            (ux, uy), b = hull[-1]
            num, den = b * vy - c * uy, ux * vy - uy * vx
            if den < 0:
                num, den = -num, -den
            if not breaks or num * breaks[-1][1] > breaks[-1][0] * den:
                breaks.append((num, den))
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


def _checked_clip(halfplanes: Sequence[HalfPlane]) -> Tuple[Chain, Chain, List[End]]:
    """`_clip` of half-planes given to a public question, after `_checked_start`."""
    start = _checked_start(halfplanes)
    return _clip([u for u, _ in halfplanes], [-c for _, c in halfplanes], start)


def _clip(
    normals: Sequence[LatticePoint], a: Sequence[int], start: int
) -> Tuple[Chain, Chain, List[End]]:
    """The envelopes L and U of the region {x : <x, u_i> >= -a_i}, and its left
    and right ends, each with the lower and upper line active there; no ends
    when it is empty.  The normals are taken as checked, with `start` their
    lower arc's start, and sorted into arcs in one walk from it: the lower
    arc (slopes rising left to right), (-k, 0), the upper arc (slopes rising
    right to left), (k, 0).

    The pieces of the envelopes are walked left to right.  On each piece,
    clamped to [xlo, xhi], U >= L is the one inequality g x <= cl uy - cu ly
    for the active lines l and u, with g = det(l, u): it cuts the piece at
    the lines' meet (on the right when g > 0, on the left when g < 0) or
    keeps or drops all of it (g = 0).
    """
    lows: List[HalfPlane] = []
    ups: List[HalfPlane] = []
    xlo, xhi = NEG_INF, INF
    for i in range(start - len(a), start):
        u, c = normals[i], -a[i]
        if u[1] > 0:
            lows.append((u, c))
        elif u[1] < 0:
            ups.append((u, c))
        elif u[0] > 0:
            xlo = (c, u[0])
        else:
            xhi = (-c, -u[0])
    ups.reverse()
    lower, upper = _envelope(lows), _envelope(ups)
    (lh, lb, _), (uh, ub, _) = lower, upper
    lb, ub = lb + [INF], ub + [INF]
    i = j = 0
    first = last = None
    start = NEG_INF
    while True:
        # the piece [start, end] of the lines l = lh[i] and u = uh[j]
        bl, bu = lb[i], ub[j]
        order = bl[0] * bu[1] - bu[0] * bl[1]  # the sign of bl - bu
        end = bu if order > 0 else bl
        lo = xlo if start[0] * xlo[1] <= xlo[0] * start[1] else start
        hi = end if end[0] * xhi[1] <= xhi[0] * end[1] else xhi
        l, u = lh[i], uh[j]
        ((lx, ly), cl), ((ux, uy), cu) = l, u
        g, r = lx * uy - ly * ux, cl * uy - cu * ly  # the meet is at x = r/g
        if g > 0 and r * hi[1] <= hi[0] * g:
            hi = (r, g)
        elif g < 0 and lo[0] * -g <= -r * lo[1]:
            lo = (-r, -g)
        if (g or r >= 0) and lo[0] * hi[1] <= hi[0] * lo[1]:
            first = first or (lo, l, u)
            last = (hi, l, u)
        if end is INF:
            return lower, upper, [first, last] if first else []
        i += order <= 0
        j += order >= 0
        start = end


def feasible_vertices(halfplanes: Sequence[HalfPlane]) -> List[QPoint]:
    """The distinct vertices of the region, counterclockwise: [] when it is
    empty, one point, the two ends of a segment, or the polygon's corners."""
    lower, upper, ends = _checked_clip(halfplanes)
    if not ends:
        return []
    (xa, la, ua), (xb, lb, ub) = ends
    lows, ups = (  # the breaks strictly between the ends
        [((n, d), h) for h, (n, d), _ in zip(*ch)
         if xa[0] * d < n * xa[1] and n * xb[1] < xb[0] * d]
        for ch in (lower, upper)
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
    return _count(*_checked_clip(halfplanes))


def _count(lower: Chain, upper: Chain, ends: List[End]) -> int:
    """`count_lattice_points` of a clipped region."""
    return _columns(lower, upper, *_extent(ends))


def lexmin_lattice_point(halfplanes: Sequence[HalfPlane]) -> Optional[LatticePoint]:
    """The lattice point of the region that is smallest in (x, y), or None."""
    return _lexmin(*_checked_clip(halfplanes))


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
