"""Every small surface and class, against oracles that share nothing with the
report: the Cech count of h0, h1 and h2 by graded pieces (`oracles.cech`),
the class count of a clip mod 2 (`oracles.class_count`), scans, and the
report checker (`selftest._report_fault`), which checks every field of a
report in one place, all but lambda by divisor arithmetic.

Every smooth complete toric surface is P^2 or some F_a blown up at
torus-fixed points, and its fan is fixed up to GL_2(Z) by the cyclic
sequence of its self-intersections (Fulton, Introduction to Toric
Varieties, 2.5; Cox-Little-Schenck, Toric Varieties, Thm 10.4.3).  So
`SURFACES` blows up P^2 and F_0..F_3 up to MAX_RAYS rays and keeps one fan
per dihedral class of that sequence.  Each fan starts at the rays (1, 0),
(0, 1), a lattice basis, so each class has exactly one representative with
a_1 = a_2 = 0, and the census ranges over a box of the other coefficients.
"""

import itertools
import random

import pytest

from toricpoints import (
    CurveOnSurface,
    ToricDivisor,
    build_fan,
    canonical_divisor,
    cohomology,
    euler_characteristic,
    hirzebruch,
    hirzebruch_counterexample,
    lambda_invariant,
    p2,
    principal_divisor,
    toric_theorem_report,
)
from toricpoints import geometry
from toricpoints.divisor import _lexmin, _polygon, intersect_primes

from toricpoints.selftest import _column_points, _halved as halved, _report_fault as report_fault
from toricpoints.selftest import _subdivide as subdivide

from oracles import cech, cech_box, class_count, subset_scan

MAX_RAYS = 7
BASES = [p2()] + [hirzebruch(a) for a in range(4)]


def _dihedral_key(seq):
    # the least rotation of the sequence or of its reverse
    n = len(seq)
    return min(s[k:] + s[:k] for s in (tuple(seq), tuple(reversed(seq))) for k in range(n))


def _normal_form(rays):
    # the map of det 1 that takes rays[0], rays[1] to (1, 0), (0, 1)
    (ax, ay), (bx, by) = rays[0], rays[1]
    return [(by * x - bx * y, ax * y - ay * x) for x, y in rays]


def census():
    """The surfaces with 3..MAX_RAYS rays, fewest rays first; a blowup of a
    fan already seen is tried at every one of its corners."""
    seen, fans, level = set(), [], []
    for n in range(3, MAX_RAYS + 1):
        tried = [list(f.rays) for f in BASES if f.n == n]
        tried += [subdivide(rays, i) for rays in level for i in range(n - 1)]
        level = []
        for rays in tried:
            key = _dihedral_key(build_fan(rays).self_intersections)
            if key not in seen:
                seen.add(key)
                fan = build_fan(_normal_form(rays))
                level.append(list(fan.rays))
                fans.append(fan)
    return fans


SURFACES = census()


def box_classes(fan):
    """The classes with a_1 = a_2 = 0 and the other coefficients in -1..4
    (n <= 5) or 0..3 (n = 6, 7)."""
    values = range(-1, 5) if fan.n <= 5 else range(0, 4)
    for rest in itertools.product(values, repeat=fan.n - 2):
        yield ToricDivisor(fan, (0, 0, *rest))


AMPLE = [C for fan in SURFACES for C in box_classes(fan) if min(intersect_primes(C)) > 0]
NEF = [D for fan in SURFACES for D in box_classes(fan) if min(intersect_primes(D)) >= 0]
MULTIPLES = (2, 3, 5, 8)
MULTIPLICITIES = ((), (2,), (3, 2))


def test_the_census_finds_each_surface_once():
    by_rays = [sum(f.n == n for f in SURFACES) for n in range(3, MAX_RAYS + 1)]
    assert by_rays == [1, 4, 4, 12, 27]
    keys = {_dihedral_key(f.self_intersections) for f in SURFACES}
    assert len(keys) == len(SURFACES)
    assert all(f.rays[:2] == ((1, 0), (0, 1)) for f in SURFACES)
    assert sum(1 for f in SURFACES for _ in box_classes(f)) == 31734
    assert len(AMPLE) == 123
    assert len(NEF) == 1728


@pytest.mark.parametrize("fan", SURFACES, ids=lambda f: ",".join(map(str, f.self_intersections)))
def test_lambda_is_the_subset_scan_on_every_surface(fan):
    res = lambda_invariant(fan)
    assert (res.inner_min, res.argmin_subset) == subset_scan(fan)


def lexmin_of(D):
    # the lex-min lattice point of P_D by a column scan over the box of its lines
    x0, x1, _, _ = cech_box(D.fan.rays, D.coeffs)
    return next(_column_points(D.halfplanes, x0, x1), None)


def h1_three_ways(C, rep):
    """h1(D - C_rep) for D = floor(C_rep/2): by cohomology, by the Cech
    count, and by the class count of the clip of P_{C+K} in the class of its
    lex-min point mod 2 (h0 = 0, h2 that count); all three agree."""
    fan, D = C.fan, halved(rep)
    CK = C + canonical_divisor(fan)
    m = lexmin_of(CK)
    assert rep == C + principal_divisor(fan, m)
    h = cohomology(D - rep)
    assert (h.h0, h.h1, h.h2) == cech(D - rep)
    assert h.h0 == 0 and class_count(*_polygon(fan, CK.coeffs), m) == h.h2
    assert h.h1 == h.h2 - euler_characteristic(D - rep)
    return h.h1


def test_every_ample_census_class_passes_the_three_conditions():
    """Every report has the fields of divisor arithmetic (the report
    checker).  On every report that reaches the conditions, the three
    verdicts pass, and h1(D - C_rep) = 0, which proof (2) gives, is the count
    of all three oracles.  Reports without conditions have no e_max: C^2 is
    too small."""
    reached = 0
    for C, k, mults in itertools.product(AMPLE, MULTIPLES, MULTIPLICITIES):
        curve = CurveOnSurface(C.fan, C * k, mults)
        r = toric_theorem_report(curve)
        assert report_fault(curve, r) is None
        if r.conditions is None:
            assert r.e_max is None
            continue
        reached += 1
        assert h1_three_ways(curve.curve_class, r.positive_rep) == 0
    assert reached == 1458


def _rotated(D, k):
    # D on its fan with the ray list rotated by k: the same polygon, and the
    # fan's arc start moved back by k
    rays, a, k = D.fan.rays, D.coeffs, k % D.fan.n
    return ToricDivisor(build_fan(rays[k:] + rays[:k]), a[k:] + a[:k])


def test_a_nef_class_reads_its_lex_min_point_off_its_cone_vertices():
    """The arc start's cone vertex (`divisor._lexmin` on a nef class) against
    the lex-min point of the clip and of a column scan, on every nef census
    box class and its multiples, the j-th on its fan rotated by j, so every
    arc start of every fan size occurs.  Most are nef and not ample, so
    vertices repeat: 0 is one point, and F on F_m is a segment."""
    repeated, starts = 0, set()
    for j, (D, k) in enumerate(itertools.product(NEF, (1,) + MULTIPLES)):
        D = _rotated(D * k, j)
        m = _lexmin(D.fan, D.coeffs, True)
        assert m == geometry._lexmin(*_polygon(D.fan, D.coeffs)) == lexmin_of(D)
        repeated += len(geometry.feasible_vertices(D.halfplanes)) < D.fan.n
        starts.add((D.fan.n, D.fan._arc_start))
    assert repeated == 8025
    assert starts == {(n, s) for n in range(3, MAX_RAYS + 1) for s in range(n)}
    for m in range(4):
        for k in range(4):
            F = _rotated(ToricDivisor(hirzebruch(m), (1, 0, 0, 0)), k)
            assert _lexmin(F.fan, F.coeffs, True) == (-1, 0) == lexmin_of(F)


def test_a_nef_class_with_edges_near_10_24_reads_the_clips_point():
    """The cone-vertex point is exact at any size: every ample census class
    and F on F_0..F_3, times about 10^24 and shifted, the j-th on its fan
    rotated by j, against the checked clip's lex-min point and a column scan
    of its column and the one before (a scan from the left would take 10^24
    columns)."""
    classes = AMPLE + [ToricDivisor(hirzebruch(m), (1, 0, 0, 0)) for m in range(4)]
    starts = set()
    for j, (C, k) in enumerate(itertools.product(classes, (10**24, 10**24 + 7))):
        D = _rotated(C * k + principal_divisor(C.fan, (k // 3, -5)), j)
        m = _lexmin(D.fan, D.coeffs, True)
        assert m == geometry.lexmin_lattice_point(D.halfplanes) and abs(m[0]) > 10**23
        assert next(_column_points(D.halfplanes, m[0] - 1, m[0])) == m
        starts.add((D.fan.n, D.fan._arc_start))
    assert starts == {(n, s) for n in range(3, MAX_RAYS + 1) for s in range(n)}


def test_a_nef_class_has_the_counted_and_the_cech_profile():
    """cohomology states (chi, 0, 0, chi) for a nef class by Demazure
    vanishing; the clip's lattice count and the Cech count agree, on every
    nef census box class and its doubles and triples."""
    for D, k in itertools.product(NEF, (1, 2, 3)):
        D = D * k
        h = cohomology(D)
        assert (h.h0, h.h1, h.h2, h.chi) == (h.chi, 0, 0, euler_characteristic(D))
        assert (h.h0, h.h1, h.h2) == (geometry._count(*_polygon(D.fan, D.coeffs)), 0, 0) == cech(D)


def test_an_ample_class_whose_c_plus_k_is_not_nef_has_no_positive_representation():
    """The lemma in `lowdeg.toric_theorem_report`: for an ample C,
    (C + K).D_j < 0 only where D_j^2 >= 0, and then C + K is not effective.
    On every ample census class and its multiples whose C + K is not nef,
    the report has no positive representation and a column scan finds no
    point of P_{C+K}."""
    found = 0
    for C, k in itertools.product(AMPLE, (1,) + MULTIPLES):
        C = C * k
        CK = C + canonical_divisor(C.fan)
        p = intersect_primes(CK)
        if min(p) < 0:
            found += 1
            assert all(C.fan.self_intersections[j] >= 0 for j, pj in enumerate(p) if pj < 0)
            assert toric_theorem_report(CurveOnSurface(C.fan, C)).positive_rep is None
            assert lexmin_of(CK) is None
    assert found == 22


# F_1 8C0 + 5F: not nef, with a positive representation and h1(D - C_rep) = 1
F1_8C0_5F = ToricDivisor(hirzebruch(1), (5, 8, 0, 0))


def test_classes_that_are_not_ample_get_no_conditions_and_the_oracles_agree():
    """Where C is not ample the report states nothing about h1 (the report
    checker), and the three counts of h1(floor(C_rep/2) - C_rep) still
    agree; there it can be > 0.  Checked on every census box class on up to
    6 rays that is not ample and has a positive representation, and on F_1
    8C0+5F."""
    checked = positive = 0
    for C in [F1_8C0_5F] + [C for f in SURFACES if f.n <= 6 for C in box_classes(f)]:
        if min(intersect_primes(C)) > 0:
            continue
        curve = CurveOnSurface(C.fan, C)
        r = toric_theorem_report(curve)
        if r.positive_rep is None:
            continue
        assert report_fault(curve, r) is None
        h1 = h1_three_ways(C, r.positive_rep)
        checked += 1
        positive += h1 > 0
        if C is F1_8C0_5F:
            assert min(intersect_primes(C)) < 0 and h1 == 1
    assert (checked, positive) == (1851, 848)


@pytest.mark.parametrize("n", range(1, 61))
def test_the_hirzebruch_family_matches_the_cech_count(n):
    f1 = hirzebruch(1)
    C, D = ToricDivisor(f1, (n + 1, n, 0, 0)), ToricDivisor(f1, (3, 1, 0, 0))
    r = hirzebruch_counterexample(n)
    assert (r.h0_D, r.h1_D) == cech(D)[:2]
    assert r.h1_D_minus_C == cech(D - C)[1]


def test_the_cech_count_is_cohomology_on_random_divisors():
    """Any divisor on a census surface; the box of `cech_box`, widened by its
    own size on each side, gives the same sums."""
    rng = random.Random(31)
    positive = [0, 0, 0]  # divisors with h0 > 0, h1 > 0, h2 > 0
    for _ in range(300):
        fan = rng.choice(SURFACES)
        D = ToricDivisor(fan, tuple(rng.randint(-8, 8) for _ in range(fan.n)))
        h = cohomology(D)
        got = cech(D)
        assert got == (h.h0, h.h1, h.h2) == cech(D, grow=1)
        positive = [k + (x > 0) for k, x in zip(positive, got)]
    assert positive == [82, 286, 55]
