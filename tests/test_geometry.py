"""The polygon clip, the floor-sum count and the lex-min point against
brute-force oracles: pairwise boundary-line intersections for the vertices
and a bounding-box scan for the lattice points."""

from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricpoints import geometry
from toricpoints.cohomology import cohomology, vanishing_predicates
from toricpoints.divisor import ToricDivisor, effective_representative
from toricpoints.errors import ContractViolation
from toricpoints.fan import build_fan, hirzebruch, p2
from toricpoints.geometry import (
    count_lattice_points,
    feasible_vertices,
    floor_sum,
    lexmin_lattice_point,
)


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


def check_against_oracles(halfplanes):
    vertices = feasible_vertices(halfplanes)
    expected = pairwise_vertices(halfplanes)
    assert len(set(vertices)) == len(vertices)
    assert set(vertices) == set(expected)
    assert min(len(vertices), 3) - 1 == hull_dimension(expected)
    points = box_lattice_points(halfplanes, expected)
    assert count_lattice_points(halfplanes) == len(points)
    assert lexmin_lattice_point(halfplanes) == (min(points) if points else None)
    return vertices


# Generators of SL(2, Z); det 1 keeps the rays counterclockwise.
GENERATORS = [(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (1, 0, -1, 1), (0, -1, 1, 0)]


@st.composite
def fan_rays(draw):
    """Rays of P^2 or F_m after random blowups, a random SL(2, Z) image and a
    random rotation of the list."""
    m = draw(st.integers(0, 3))
    rays = draw(st.sampled_from([[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, m), (0, -1)]]))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rays) - 1))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays = rays[: i + 1] + [(u[0] + v[0], u[1] + v[1])] + rays[i + 1:]
    for a, b, c, d in draw(st.lists(st.sampled_from(GENERATORS), max_size=4)):
        rays = [(a * x + b * y, c * x + d * y) for x, y in rays]
    k = draw(st.integers(0, len(rays) - 1))
    return build_fan(rays[k:] + rays[:k]).rays


def _support_numbers(rays, points):
    # the smallest polygon over these normals holding the points: for a
    # single point the region is that point
    return [min(p[0] * u[0] + p[1] * u[1] for p in points) for u in rays]


@st.composite
def regions(draw):
    """Half-planes over fan rays: small offsets (often empty, a point or a
    segment), wide ones, rational ones, or the support numbers of one to
    three rational points."""
    rays = draw(fan_rays())
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
# denominators 5, 7, 8, 9, 11 and 12: the clip scales by their lcm, 27720
MIXED_OFFSETS = [Fraction(-1, k) for k in (7, 8, 9, 11, 5, 12)]
# two points, shifted by a lattice vector of size 10^20
SHIFTED_POINTS = [
    (Fraction(1, 7) + 10**20, Fraction(2, 9) - 3 * 10**20),
    (Fraction(-3, 8) + 10**20, Fraction(5, 11) - 3 * 10**20),
]


@st.composite
def mixed_regions(draw):
    """Half-planes over fan rays whose offsets mix denominators 1..12, so the
    lcm Q reaches the hundreds; or the support numbers of one to three such
    points shifted by a lattice vector of size about 10^20, so the offsets
    are huge while the region, and the box the oracle scans, stay small."""
    rays = draw(fan_rays())
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


def _refuse_fraction(*args):
    raise AssertionError(f"the integral path built Fraction{args}")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(fan_rays(), st.data())
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
    # C/2 has half-integral offsets: the clip scales them by Q = 2
    C = ToricDivisor(fan, coeffs)
    assert vanishing_predicates(C * Fraction(1, 2)).dim_PD == dim


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


def count_clips(monkeypatch):
    """Count the calls to geometry._chains, the stack passes of one clip."""
    calls = []
    chains = geometry._chains

    def counted(halfplanes):
        calls.append(halfplanes)
        return chains(halfplanes)

    monkeypatch.setattr(geometry, "_chains", counted)
    return calls


@pytest.mark.parametrize("question", [feasible_vertices, count_lattice_points, lexmin_lattice_point])
@pytest.mark.parametrize(
    "offsets", [[1, 0, 0, 0], [0, 0, 0, 0], [2, -1, -2, -3], [0, 0, -3, -2], [Fraction(1, 3), -5, 0, -7]]
)
def test_each_question_clips_once(monkeypatch, question, offsets):
    calls = count_clips(monkeypatch)
    question([(u, c) for u, c in zip(build_fan([(1, 0), (0, 1), (-1, 0), (0, -1)]).rays, offsets)])
    assert len(calls) == 1


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
    with pytest.raises(ContractViolation):
        feasible_vertices([(u, Fraction(0)) for u in normals])
