"""Test oracles that the program itself does not run: the count of a
clipped region's lattice points in one class mod 2, h0, h1 and h2 of a
toric divisor by graded pieces, the plain-data copy of a result whose
json.dumps(..., indent=2) is the text cli._json_text writes, the plane
remark's squared comparison, random blowups of P^2, the dense pairing and
the 2^n subset scan behind lambda(S), and the test for a fan.  pytest does
not collect this file; the test files import it, and no test file imports
another.  The oracles and samplers that `toricpoints selftest` runs too
live in `toricpoints.selftest`."""

import dataclasses
import itertools
from fractions import Fraction
from math import ceil, floor, gcd

from toricpoints import geometry
from toricpoints.divisor import ToricDivisor
from toricpoints.fan import build_fan, det
from toricpoints.lowdeg import DegBTable
from toricpoints.selftest import _subdivide as subdivide, _wall_numbers as wall_numbers


def jsonable(obj):
    """Recursive conversion to JSON-safe values; Fractions become exact
    strings in lowest terms."""
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, ToricDivisor):
        return list(obj.coeffs)
    if isinstance(obj, DegBTable):  # its rows, not its two fields
        return [list(row) for row in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def class_count(lower, upper, ends, m):
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
    a, b = geometry._extent(ends)
    return geometry._columns(lower, upper, (a - mx + 1) // 2, (b - mx) // 2)


def cech_box(rays, a, grow=0):
    """The integer box [x0, x1] x [y0, y1] around every meet of two lines
    <m, u_i> = -a_i, widened by `grow` times its own size on each side.

    Outside it, a lattice point m adds nothing in `cech`.  The set Q of points
    with the same N(m) is convex, cut out by the lines' sides.  If Q were
    bounded, each corner of its closure would be a meet of two lines, so Q
    would lie in the box.  So for m outside, Q holds a ray m + t w, t >= 0,
    and N(m) = N(m + t w) for every t.  For large t, i is in it when
    <w, u_i> < 0, and not when <w, u_i> > 0; both sets are non-empty, as the
    rays positively span the plane, and the first is one arc of the cycle.  A
    ray with <w, u_i> = 0 lies on the line that bounds that arc's open
    half-plane, next to one of its ends, so N(m) is one arc whether it holds
    that ray or not: neither empty nor every ray, and one arc adds no h1."""
    xs, ys = [], []
    for i, (u, ai) in enumerate(zip(rays, a)):
        for v, aj in zip(rays[i + 1:], a[i + 1:]):
            det = u[0] * v[1] - u[1] * v[0]
            if det:  # Cramer's rule for <m, u> = -ai, <m, v> = -aj
                xs.append(Fraction(aj * u[1] - ai * v[1], det))
                ys.append(Fraction(ai * v[0] - aj * u[0], det))
    wx, wy = grow * (max(xs) - min(xs) + 1), grow * (max(ys) - min(ys) + 1)
    return floor(min(xs) - wx), ceil(max(xs) + wx), floor(min(ys) - wy), ceil(max(ys) + wy)


def cech(D, grow=0):
    """(h0, h1, h2) of O(D) for D = sum a_i D_i, by graded pieces
    (Cox-Little-Schenck, Toric Varieties, Thm 9.1.3): H^p(D)_m is the reduced
    cohomology H~^{p-1} of the union of the faces of the ray cycle spanned by
    N(m) = {i : <m, u_i> < -a_i}.  On a surface that union is the arcs of
    N(m) around the cycle, so m adds 1 to h0 when N(m) is empty, 1 to h2
    when it holds every ray (a circle), and #arcs - 1 to h1 otherwise.  No
    Riemann-Roch, no Serre duality and no clip: each row of `cech_box` is
    cut where some i enters or leaves N(m), at most n cuts, and each piece
    adds its width times the contribution of its first point."""
    rays, a = D.fan.rays, D.coeffs
    n = len(rays)
    x0, x1, y0, y1 = cech_box(rays, a, grow)
    h = [0, 0, 0]
    for y in range(y0, y1 + 1):
        cuts = {x0, x1 + 1}
        for (ux, uy), ai in zip(rays, a):
            t = -ai - uy * y  # i is in N(m) iff ux * x < t
            if ux > 0:
                cuts.add(min(max(-(-t // ux), x0), x1 + 1))  # in for x < ceil(t/ux)
            elif ux < 0:
                cuts.add(min(max(t // ux + 1, x0), x1 + 1))  # in for x > floor(t/ux)
        cuts = sorted(cuts)
        for s, e in zip(cuts, cuts[1:]):
            N = [ux * s + uy * y < -ai for (ux, uy), ai in zip(rays, a)]
            arcs = sum(N[i] and not N[i - 1] for i in range(n))
            if not arcs:  # N(m) is empty or every ray
                h[2 if N[0] else 0] += e - s
            else:
                h[1] += (arcs - 1) * (e - s)
    return tuple(h)


def remark_squared(d, delta):
    """The plane remark d^2 - 8 delta >= d sqrt(d^2 - 36 delta), decided in
    integers by squaring its two sides, for d^2 >= 36 delta >= 0; the test
    `test_plane.py::test_the_remark_inequality_holds_wherever_its_root_is_real`
    proves it holds on all of them."""
    lhs = d * d - 8 * delta
    return lhs >= 0 and lhs * lhs >= d * d * (d * d - 36 * delta)


def blown_up_p2(rng, n):
    """P^2 blown up at random torus-fixed points until it has n rays."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    while len(rays) < n:
        rays = subdivide(rays, rng.randrange(len(rays)))
    return build_fan(rays)


def intersection_matrix(fan):
    """Oracle: the dense n x n pairing of prime divisors.  D_i.D_j is 1 for
    cyclic neighbours, 0 for other i != j, and D_i^2 = -b_i: u_{i-1} + u_{i+1}
    = b_i u_i and det(u_i, u_{i+1}) = 1 give b_i = det(u_{i-1}, u_{i+1})."""
    n = fan.n
    b = wall_numbers(fan.rays)
    return [
        [-b[i] if i == j else int((i - j) % n in (1, n - 1)) for j in range(n)]
        for i in range(n)
    ]


def subset_objective(fan):
    """Oracle: the map R -> (sum_R D_i).(2K + sum_R D_i) on subsets of the
    rays, from the full intersection pairing."""
    n = fan.n
    M = intersection_matrix(fan)
    kdot = [-sum(M[i][j] for i in range(n)) for j in range(n)]  # K.D_j
    return lambda R: sum(M[i][j] for i in R for j in R) + 2 * sum(kdot[i] for i in R)


def subset_scan(fan):
    """Oracle: the least (val, |R|, R) over all 2^n subsets R, with val the
    `subset_objective`.  Returns (val, R)."""
    val = subset_objective(fan)
    best = None
    for r in range(fan.n + 1):
        for subset in itertools.combinations(range(fan.n), r):
            key = (val(subset), r, subset)
            if best is None or key < best:
                best = key
    return best[0], best[2]


def is_fan(rays):
    """Oracle: primitive distinct rays, every consecutive determinant 1, and
    winding number 1, read from sum b_i = 3n - 12w for b_i =
    det(u_{i-1}, u_{i+1}) (Poonen and Rodriguez-Villegas, Lattice polygons
    and the number 12, Amer. Math. Monthly 107, 2000)."""
    n = len(rays)
    return (
        n >= 3
        and all(gcd(x, y) == 1 for x, y in rays)
        and len(set(rays)) == n
        and all(det(rays[i], rays[(i + 1) % n]) == 1 for i in range(n))
        and sum(wall_numbers(rays)) == 3 * n - 12
    )
