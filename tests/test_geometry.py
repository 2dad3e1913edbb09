"""The polygon clip, the floor-sum count and the lex-min point against
brute-force oracles: pairwise boundary-line intersections for the vertices,
a bounding-box scan for the lattice points, and a column-by-column scan for
the lex-min point and, filtered by parity, for the count of a class mod 2
(`oracles.class_count`, itself a test oracle)."""

import itertools
import random
from fractions import Fraction
from math import ceil, floor, gcd, log2

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricpoints import geometry
from toricpoints.cohomology import cohomology
from toricpoints.divisor import ToricDivisor, effective_representative
from toricpoints.errors import ContractViolation
from toricpoints.fan import build_fan, hirzebruch, p2
from toricpoints.geometry import (
    count_lattice_points,
    feasible_vertices,
    floor_sum,
    lexmin_lattice_point,
)

from toricpoints.selftest import _column_points as column_points, _polygon_class as polygon_class

from conftest import blowup_fans, count_calls
from oracles import blown_up_p2, class_count


def _feasible(halfplanes, p):
    return all(n[0] * p[0] + n[1] * p[1] >= c for n, c in halfplanes)


def pairwise_vertices(halfplanes):
    """Every intersection of two boundary lines that satisfies all the
    constraints, without repeats."""
    verts = []
    for i, ((a1, b1), c1) in enumerate(halfplanes):
        for (a2, b2), c2 in halfplanes[i + 1:]:
            d = a1 * b2 - a2 * b1
            if d == 0:
                continue
            p = (Fraction(c1 * b2 - c2 * b1, d), Fraction(a1 * c2 - a2 * c1, d))
            if _feasible(halfplanes, p) and p not in verts:
                verts.append(p)
    return verts


def hull_dimension(vertices):
    """Affine dimension of a point set: -1 empty, 0 point, 1 segment, 2 polygon."""
    if not vertices:
        return -1
    p0 = vertices[0]
    dirs = [(p[0] - p0[0], p[1] - p0[1]) for p in vertices[1:]]
    if not dirs:
        return 0
    d0 = dirs[0]
    return 2 if any(d0[0] * v[1] - d0[1] * v[0] != 0 for v in dirs) else 1


def box_lattice_points(halfplanes, vertices):
    """Every lattice point of the bounding box that satisfies all the
    constraints, sorted."""
    if not vertices:
        return []
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    return [
        (x, y)
        for x in range(floor(min(xs)), ceil(max(xs)) + 1)
        for y in range(floor(min(ys)), ceil(max(ys)) + 1)
        if _feasible(halfplanes, (x, y))
    ]


def integer_columns(vertices):
    """The first and last integer column of the region with these vertices."""
    xs = [v[0] for v in vertices]
    return ceil(min(xs)), floor(max(xs))


def integral(halfplanes):
    """The same region with int offsets: <x, u> >= p/q becomes <x, q u> >= p."""
    return [
        ((c.denominator * ux, c.denominator * uy), c.numerator)
        for (ux, uy), c in ((u, Fraction(c)) for u, c in halfplanes)
    ]


def check_against_oracles(halfplanes):
    """The clip sees the half-planes scaled to int offsets, the oracles the
    rational ones.  The lex-min search may make about 2 log2(width) + 4
    column counts; past that it is taken not to stop, and fails."""
    scaled = integral(halfplanes)
    vertices = feasible_vertices(scaled)
    expected = pairwise_vertices(halfplanes)
    assert len(set(vertices)) == len(vertices)
    assert set(vertices) == set(expected)
    assert min(len(vertices), 3) - 1 == hull_dimension(expected)
    points = box_lattice_points(halfplanes, expected)
    assert count_lattice_points(scaled) == len(points)
    a, b = integer_columns(expected) if expected else (1, 0)
    with pytest.MonkeyPatch.context() as patch:
        count_probes(patch, cap=2 * max(b - a + 2, 1).bit_length() + 4)
        assert lexmin_lattice_point(scaled) == (min(points) if points else None)
    if expected:
        want = min(points) if points else None
        assert next(column_points(halfplanes, *integer_columns(expected)), None) == want
    return vertices


# the rays of P^2 or F_m, m <= 3, blown up to at most 8 rays
FAN_RAYS = blowup_fans(max_m=3, max_rays=8).map(lambda fan: fan.rays)


def _support_numbers(rays, points):
    # the smallest polygon over these normals holding the points: for a
    # single point the region is that point
    return [min(p[0] * u[0] + p[1] * u[1] for p in points) for u in rays]


@st.composite
def regions(draw):
    """Half-planes over fan rays: small offsets (often empty, a point or a
    segment), wide ones, rational ones, or the support numbers of one to
    three rational points."""
    rays = draw(FAN_RAYS)
    small, wide = st.integers(-2, 2), st.integers(-15, 15)
    rational = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    kind = draw(st.sampled_from(["small", "wide", "rational", "points"]))
    if kind == "points":
        points = draw(st.lists(st.tuples(rational, rational), min_size=1, max_size=3))
        offsets = _support_numbers(rays, points)
    else:
        coeff = {"small": small, "wide": wide, "rational": rational}[kind]
        offsets = draw(st.lists(coeff, min_size=len(rays), max_size=len(rays)))
    return [(u, Fraction(c)) for u, c in zip(rays, offsets)]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(regions())
def test_clip_count_and_lexmin_match_the_oracles(halfplanes):
    check_against_oracles(halfplanes)


MIXED = st.fractions(min_value=-6, max_value=6, max_denominator=12)
HUGE = st.integers(10**20, 10**21) | st.integers(-(10**21), -(10**20))
SIX_RAYS = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
# denominators 5, 7, 8, 9, 11 and 12, so the scaled normals differ in length
MIXED_OFFSETS = [Fraction(-1, k) for k in (7, 8, 9, 11, 5, 12)]
# two points, shifted by a lattice vector of size 10^20
SHIFTED_POINTS = [
    (Fraction(1, 7) + 10**20, Fraction(2, 9) - 3 * 10**20),
    (Fraction(-3, 8) + 10**20, Fraction(5, 11) - 3 * 10**20),
]


@st.composite
def mixed_regions(draw):
    """Half-planes over fan rays whose offsets mix denominators 1..12, so the
    scaled normals are up to 12 times a ray; or the support numbers of one
    to three such points shifted by a lattice vector of size about 10^20, so
    the offsets are huge while the region, and the box the oracle scans,
    stay small."""
    rays = draw(FAN_RAYS)
    if draw(st.booleans()):
        return [(u, draw(MIXED)) for u in rays]
    sx, sy = draw(HUGE), draw(HUGE)
    points = draw(st.lists(st.tuples(MIXED, MIXED), min_size=1, max_size=3))
    return list(zip(rays, _support_numbers(rays, [(x + sx, y + sy) for x, y in points])))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mixed_regions())
@example(list(zip(SIX_RAYS, MIXED_OFFSETS)))
@example(list(zip(SIX_RAYS, _support_numbers(SIX_RAYS, SHIFTED_POINTS))))
def test_mixed_denominators_and_huge_offsets_match_the_oracles(halfplanes):
    check_against_oracles(halfplanes)


SHIFT = st.tuples(st.integers(-50, 50), st.integers(-50, 50))
NO_SHIFTS = [(0, 0)] * 4


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(regions(), mixed_regions()), st.lists(SHIFT, min_size=4, max_size=4))
@example(list(zip(SIX_RAYS, MIXED_OFFSETS)), NO_SHIFTS)
@example([((1, 0), 2), ((0, 1), 1), ((-1, 0), -2), ((0, -1), -3)], NO_SHIFTS)  # a segment
@example([((1, 0), 0), ((0, 1), 0), ((-1, -1), 0)], NO_SHIFTS)  # the point 0
@example([((1, 0), 1), ((0, 1), 0), ((-1, -1), 0)], NO_SHIFTS)  # empty
def test_the_class_count_is_the_column_scan_filtered_by_parity(halfplanes, shifts):
    # each class r mod 2, by a representative m = r + 2k drawn anywhere in it
    vertices = pairwise_vertices(halfplanes)
    points = list(column_points(halfplanes, *integer_columns(vertices))) if vertices else []
    scaled = integral(halfplanes)
    clip = geometry._checked_clip(scaled)
    for (rx, ry), (kx, ky) in zip(itertools.product(range(2), repeat=2), shifts):
        want = sum((x - rx) % 2 == 0 and (y - ry) % 2 == 0 for x, y in points)
        assert class_count(*clip, (rx + 2 * kx, ry + 2 * ky)) == want


def _clipped(halfplanes):
    return geometry._checked_clip(halfplanes)


@st.composite
def column_ranges(draw):
    """A region with int offsets, and a sub-range [a, b] of its integer
    columns whose ends are drawn anywhere in them or on the first integer
    column of an envelope's line.  In a region of two or more columns, a
    range spans two or more (a < b) unless a draw from 0..4 is 4, so the
    multi-column sum is what most of them check; the rest, and every region
    of one column, take one column.  A region whose x-extent holds no
    integer is moved along x by the fraction t that takes its left end onto
    one: <p - (t, 0), u> >= c is <p, u> >= c + t u_x.  Only an empty region
    is drawn again."""
    halfplanes = integral(draw(st.one_of(regions(), mixed_regions())))
    lower, upper, ends = _clipped(halfplanes)
    assume(ends)
    lo, hi = geometry._extent(ends)
    if lo > hi:
        t = lo - Fraction(*ends[0][0])
        halfplanes = integral([(u, c + t * u[0]) for u, c in halfplanes])
        lower, upper, ends = _clipped(halfplanes)
        lo, hi = geometry._extent(ends)
    starts = [s for _, _, ss in (lower, upper) for s in ss if lo <= s <= hi]
    on_a_start = st.sampled_from(starts) if starts else st.nothing()
    if hi > lo and draw(st.integers(0, 4)) < 4:
        a = draw(st.integers(lo, hi - 1) | on_a_start.filter(lambda s: s < hi))
        b = draw(st.integers(a + 1, hi) | on_a_start.filter(lambda s: s > a))
    else:
        a = b = draw(st.integers(lo, hi) | on_a_start)
    return halfplanes, a, b


@settings(derandomize=True, deadline=None, max_examples=400)
@given(column_ranges())
def test_a_count_of_any_columns_is_the_column_scan(case):
    halfplanes, a, b = case
    lower, upper, ends = _clipped(halfplanes)
    for hull, breaks, starts in (lower, upper):
        assert starts == [ceil(Fraction(*x)) for x in breaks] and len(hull) == len(starts) + 1
    want = sum(1 for _ in column_points(halfplanes, a, b))
    assert geometry._columns(lower, upper, a, b) == want


def test_a_count_ceils_each_break_once_per_clip_and_sums_one_line_per_column():
    # an ample class, so each of the 1024 rays carries an edge and a break
    fan = blown_up_p2(random.Random(0), 1024)
    halfplanes = polygon_class(fan, [1] * fan.n)[0].halfplanes
    calls = count_calls(lambda: _clipped(halfplanes), geometry._ceil)
    lower, upper, ends = _clipped(halfplanes)
    breaks = len(lower[1]) + len(upper[1])
    assert breaks == fan.n - 2 - sum(uy == 0 for _, uy in fan.rays)
    assert calls == {"_ceil": breaks}
    a, b = geometry._extent(ends)
    columns = {a, b, (a + b) // 2, *lower[2][::40], *upper[2][::40]}
    for x in sorted(columns):
        calls = count_calls(lambda: geometry._columns(lower, upper, x, x), geometry.floor_sum)
        assert calls == {"floor_sum": 2}
        assert geometry._columns(lower, upper, x, x) == sum(1 for _ in column_points(halfplanes, x, x))


def _refuse_fraction(*args):
    raise AssertionError(f"the integral path built Fraction{args}")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(FAN_RAYS, st.data())
def test_the_integral_path_builds_no_fraction(rays, data):
    offsets = data.draw(st.lists(st.integers(-15, 15), min_size=len(rays), max_size=len(rays)))
    halfplanes = list(zip(rays, offsets))
    points = box_lattice_points(halfplanes, pairwise_vertices(halfplanes))
    D = ToricDivisor(build_fan(rays), tuple(offsets))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "Fraction", _refuse_fraction)
        assert count_lattice_points(halfplanes) == len(points)
        assert lexmin_lattice_point(halfplanes) == (min(points) if points else None)
        cohomology(D)
        effective_representative(D)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(FAN_RAYS, st.data())
def test_positive_offsets_leave_the_region_empty(rays, data):
    # Normals that wind once, each turn under a half-turn, have a sum with
    # positive weights that is 0: no x has <x, u_i> > 0 for every i, and
    # with every <x, u_i> >= 0 only x = 0 is left.
    n = len(rays)
    scales = data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    normals = [(k * x, k * y) for k, (x, y) in zip(scales, rays)]
    offsets = data.draw(st.lists(st.integers(1, 10**21), min_size=n, max_size=n))
    halfplanes = list(zip(normals, offsets))
    assert feasible_vertices(halfplanes) == []
    assert count_lattice_points(halfplanes) == 0
    assert lexmin_lattice_point(halfplanes) is None
    assert check_against_oracles([(u, 0) for u in normals]) == [(0, 0)]
    i = data.draw(st.integers(0, n - 1))
    assert check_against_oracles(halfplanes[:i] + [(normals[i], 0)] + halfplanes[i + 1:]) == []


@pytest.mark.parametrize(
    "fan, coeffs, dim",
    [
        (p2(), (1, 1, 1), 2),
        (p2(), (0, 0, 0), 0),
        (p2(), (-1, 0, 0), -1),
        (hirzebruch(1), (1, 1, 1, 1), 2),
        (hirzebruch(1), (1, 0, 0, 0), 1),
        (hirzebruch(1), (1, 0, -1, 0), 0),
        (hirzebruch(1), (-1, 1, 0, 0), -1),
        (build_fan(SIX_RAYS), (3, 5, 3, 5, 3, 5), 2),
        (build_fan(SIX_RAYS), (1, 0, 0, 1, 0, 0), 0),
        (build_fan(SIX_RAYS), (1, 0, 0, -1, 0, 0), -1),
    ],
)
def test_the_polygon_of_half_a_class(fan, coeffs, dim):
    # P_{C/2} = {m : <m, u_i> >= -a_i/2}, written with the normals 2 u_i
    halfplanes = [((2 * ux, 2 * uy), -a) for (ux, uy), a in zip(fan.rays, coeffs)]
    assert min(len(feasible_vertices(halfplanes)), 3) - 1 == dim


@pytest.mark.parametrize(
    "rays, offsets, dim",
    [
        ([(1, 0), (0, 1), (-1, -1)], [1, 0, 0], -1),  # x >= 1, y >= 0, x + y <= 0
        ([(1, 0), (0, 1), (-1, -1)], [0, 0, 0], 0),
        ([(1, 0), (0, 1), (-1, 1), (0, -1)], [0, 0, -1, 0], 1),  # a fibre of F_1
        ([(1, 0), (0, 1), (-1, 0), (0, -1)], [2, -1, -2, -3], 1),  # x = 2, 1 <= y <= 3
        ([(1, 0), (0, 1), (-1, 0), (0, -1)], [0, 2, -3, -2], 1),  # y = 2, 0 <= x <= 3
        ([(1, 0), (0, 1), (-1, 0), (0, -1)], [0, 0, -3, -2], 2),
        ([(1, 0), (1, 1), (0, 1), (-1, -1)], [Fraction(1, 3), -5, Fraction(-1, 2), -7], 2),
    ],
)
def test_each_kind_of_region(rays, offsets, dim):
    halfplanes = [(u, Fraction(c)) for u, c in zip(build_fan(rays).rays, offsets)]
    vertices = check_against_oracles(halfplanes)
    assert min(len(vertices), 3) - 1 == dim


@pytest.mark.parametrize("question", [feasible_vertices, count_lattice_points, lexmin_lattice_point])
@pytest.mark.parametrize(
    "offsets", [[1, 0, 0, 0], [0, 0, 0, 0], [2, -1, -2, -3], [0, 0, -3, -2], [Fraction(1, 3), -5, 0, -7]]
)
def test_each_question_clips_once(question, offsets):
    halfplanes = integral(zip(build_fan([(1, 0), (0, 1), (-1, 0), (0, -1)]).rays, offsets))
    assert count_calls(lambda: question(halfplanes), geometry._clip) == {"_clip": 1}


@pytest.mark.parametrize("question", [feasible_vertices, count_lattice_points, lexmin_lattice_point])
@pytest.mark.parametrize("offset", [Fraction(1, 2), Fraction(2), 1.0, True])
def test_offsets_must_be_ints(question, offset):
    # with the other offsets > 0 the region is empty, which skips no check
    for others in ((0, -3), (1, 1)):
        with pytest.raises(ContractViolation, match="offsets must be ints"):
            question([((1, 0), offset), ((0, 1), others[0]), ((-1, -1), others[1])])


@settings(derandomize=True, deadline=None)
@given(
    st.integers(0, 40), st.integers(1, 40), st.integers(-100, 100), st.integers(-100, 100)
)
def test_floor_sum_matches_the_sum(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@pytest.mark.parametrize(
    "normals",
    [
        [(0, 1), (1, 0), (-1, -1)],  # clockwise
        [(1, 0), (0, 1), (-1, -1), (1, 0), (0, 1), (-1, -1)],  # winds twice
        [(1, 0), (-1, 0), (0, 1)],  # a half-turn
    ],
)
def test_normals_must_wind_once_counterclockwise(normals):
    # offsets 1 would leave the region empty, and the winding is checked
    # before the offsets
    for offsets in ([0] * len(normals), [1] * len(normals), [1.0] + [1] * (len(normals) - 1)):
        with pytest.raises(ContractViolation, match="wind once"):
            feasible_vertices(list(zip(normals, offsets)))


def count_probes(monkeypatch, cap=200):
    """Record the calls to geometry._columns, the counts the lex-min search
    makes; past `cap` calls the search is taken not to stop."""
    calls = []
    columns = geometry._columns

    def counted(lower, upper, a, b):
        calls.append((a, b))
        if len(calls) > cap:
            raise AssertionError(f"{len(calls)} column counts: the search does not stop")
        return columns(lower, upper, a, b)

    monkeypatch.setattr(geometry, "_columns", counted)
    return calls


def sliver(p, q, point, d, lo, hi, kink=False, left=0, right=0):
    """Half-planes, with rational offsets, of a thin sliver along the line
    q y - p x = k through the lattice point `point`, gcd(p, q) = 1: the
    levels lo <= q y - p x <= hi, cut by x >= point.x - d - left and
    x <= point.x + right.  With lo in (k - 1, k] and hi in [k, k + 1) its
    lattice points are those of the line, one every q columns, so for
    0 <= left < 1 and 0 <= d < q the first lies d columns past the first
    integer column.  With k - 1 < lo <= hi < k it holds none.  `kink` adds
    a lower line of slope p/q - 2 that crosses the line q y - p x = lo half
    a column before the point, so a break of the lower envelope lies in
    (x - 1, x) and the search must pick the line to the break's right."""
    x, _ = point
    halfplanes = [
        ((1, 0), Fraction(x - d) - left),
        ((-p, q), Fraction(lo)),
        ((-1, 0), -Fraction(x) - right),
        ((p, -q), -Fraction(hi)),
    ]
    if kink:
        halfplanes.insert(1, ((2 * q - p, q), lo + q * (2 * x - 1)))
    return halfplanes


FAR = 10**6 + 1
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=6).filter(lambda f: f < 1)
BIG = st.integers(-(10**6), 10**6)


@st.composite
def slivers(draw):
    """Slivers whose first lattice column lies 0 to 10^6 columns past the
    first integer column (about as often within 2^j as within 2^(j+1)), some
    with a kink just left of that column, and equally wide slivers that hold
    no lattice point; the half-planes in a random rotation."""
    j = draw(st.sampled_from(range(21)))
    d = draw(st.integers(0, min(2**j, 10**6 + 1) - 1))
    q = d + 1 + draw(st.integers(0, 3))
    p = draw(BIG)
    while gcd(p, q) != 1:
        p += 1
    point = draw(st.tuples(BIG, BIG))
    k = q * point[1] - p * point[0]
    kind = draw(st.sampled_from(["point", "point", "kink", "empty"]))
    f, g = sorted(draw(st.tuples(UNIT, UNIT)))
    if kind == "empty":
        lo, hi = k - 1 + max(f, Fraction(1, 7)), k - 1 + max(g, Fraction(1, 7))
    else:
        lo, hi = k - f, k + g
    left, right = draw(UNIT), draw(st.integers(0, 3))
    halfplanes = sliver(p, q, point, d, lo, hi, kink=kind == "kink", left=left, right=right)
    r = draw(st.integers(0, len(halfplanes) - 1))
    return halfplanes[r:] + halfplanes[:r]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(slivers())
@example(sliver(3, FAR, (5, -7), FAR - 1, -7 * FAR - 15, -7 * FAR - 15))
@example(sliver(1, FAR, (0, 0), FAR - 1, Fraction(-1, 2), Fraction(-1, 3)))  # empty
def test_the_lexmin_search_gallops_to_the_column_scan(halfplanes):
    scaled = integral(halfplanes)
    vertices = pairwise_vertices(halfplanes)
    a, b = integer_columns(vertices) if vertices else (1, 0)
    want = next(column_points(scaled, a, b), None)
    with pytest.MonkeyPatch.context() as patch:
        probes = count_probes(patch)
        assert lexmin_lattice_point(scaled) == want
    if want is None:
        assert len(probes) <= max(0, ceil(log2(b - a + 2)) + 1)
    elif want[0] == a:
        assert len(probes) == 1
    else:
        assert len(probes) <= 2 * ceil(log2(want[0] - a + 2)) + 1


@pytest.mark.parametrize(
    "region, first",
    [
        (sliver(0, 1, (0, 0), 0, 0, 0), True),  # the segment y = 0, 0 <= x <= 0
        (sliver(2, 7, (3, 1), 0, 1, 1, kink=True), True),
        (sliver(2, 7, (3, 1), 1, 1, 1), False),
        (sliver(2, 7, (3, 1), 6, 1, 1, right=3), False),
        (sliver(-5, 1001, (-40, 9), 1000, Fraction(26426, 3), Fraction(17619, 2)), False),
        (sliver(1, FAR, (7, 0), FAR - 1, -7, -7), False),
        (sliver(1, FAR, (7, 0), FAR - 1, Fraction(-15, 2), Fraction(-29, 4)), False),  # empty
    ],
)
def test_the_lexmin_search_counts_once_when_the_first_column_holds_the_point(
    monkeypatch, region, first
):
    scaled = integral(region)
    a, b = integer_columns(pairwise_vertices(region))
    want = next(column_points(scaled, a, b), None)
    probes = count_probes(monkeypatch)
    assert lexmin_lattice_point(scaled) == want
    assert (want is not None and want[0] == a) == first
    if first:
        assert len(probes) == 1
    else:
        assert 1 < len(probes) <= 2 * ceil(log2((want[0] if want else b) - a + 2)) + 1
