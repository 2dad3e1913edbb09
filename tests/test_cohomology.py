import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpoints import (
    CurveOnSurface,
    Positivity,
    ToricDivisor,
    build_fan,
    canonical_divisor,
    cohomology,
    effective_representative,
    euler_characteristic,
    hirzebruch,
    p2,
    positivity,
    principal_divisor,
    geometry,
    toric_theorem_report,
)
from toricpoints.cli import main
from toricpoints.errors import InternalInconsistency
from toricpoints.selftest import _random_divisor as random_divisor

from conftest import FANS, count_calls

HEXAGON = build_fan([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])


def count(D):
    """Lattice points of the polygon P_D."""
    return geometry.count_lattice_points(D.halfplanes)


def dim(D):
    """Affine dimension of P_D: -1 empty, 0 point, 1 segment, 2 polygon."""
    return min(len(geometry.feasible_vertices(D.halfplanes)), 3) - 1


def test_polytope_of_2h():
    D = ToricDivisor(p2(), (2, 0, 0))
    assert set(geometry.feasible_vertices(D.halfplanes)) == {
        (Fraction(-2), Fraction(0)),
        (Fraction(-2), Fraction(2)),
        (Fraction(0), Fraction(0)),
    }
    assert dim(D) == 2
    # lattice count matches dim of degree-2 forms in 3 variables
    assert count(D) == 6


def test_polytope_point_and_empty():
    D0 = ToricDivisor(p2(), (0, 0, 0))
    assert geometry.feasible_vertices(D0.halfplanes) == [(Fraction(0), Fraction(0))]
    assert dim(D0) == 0
    assert count(D0) == 1
    Dneg = ToricDivisor(p2(), (-1, 0, 0))
    assert dim(Dneg) == -1
    assert count(Dneg) == 0


def test_segment_polytope():
    # F on F_1: a fibre has a 1-dimensional polytope
    assert dim(ToricDivisor(hirzebruch(1), (1, 0, 0, 0))) == 1


@pytest.mark.parametrize("d", [10**6, 10**12])
def test_p2_counts_far_beyond_a_box_scan(d):
    prof = cohomology(ToricDivisor(p2(), (d, 0, 0)))
    assert (prof.h0, prof.h1, prof.h2) == ((d + 1) * (d + 2) // 2, 0, 0)
    assert count(ToricDivisor(p2(), (-d - 3, 0, 0))) == 0


def test_big_f1_count_closed_form():
    # {x >= -21, y >= -23, y >= x, y <= 0}: sum_{j=1}^{22} j = 253
    assert count(ToricDivisor(hirzebruch(1), (21, 23, 0, 0))) == sum(range(1, 23)) == 253


@pytest.mark.parametrize("d", range(0, 12))
def test_p2_count_is_binomial(d):
    # sections of O(d) on P^2: (d+1)(d+2)/2 monomials
    assert count(ToricDivisor(p2(), (d, 0, 0))) == (d + 1) * (d + 2) // 2


def test_euler_characteristic_examples():
    fan = p2()
    assert euler_characteristic(ToricDivisor(fan, (2, 0, 0))) == 6  # 1 + (4+6)/2
    assert euler_characteristic(canonical_divisor(fan)) == 1  # 1 + (9-9)/2
    # class of D - C in the F_1 family at n = 26
    f1 = hirzebruch(1)
    assert euler_characteristic(ToricDivisor(f1, (-24, -25, 0, 0))) == 252


def test_cohomology_profiles():
    prof = cohomology(ToricDivisor(p2(), (2, 0, 0)))
    assert (prof.h0, prof.h1, prof.h2, prof.chi) == (6, 0, 0, 6)
    # ample D = C_0 + 3F on F_1
    f1 = hirzebruch(1)
    prof = cohomology(ToricDivisor(f1, (3, 1, 0, 0)))
    assert (prof.h0, prof.h1, prof.chi) == (7, 0, 7)
    # D - C at n = 26: h2 = 253 via K - (D - C), chi = 252, so h1 = 1
    prof = cohomology(ToricDivisor(f1, (-24, -25, 0, 0)))
    assert (prof.h0, prof.h1, prof.h2, prof.chi) == (0, 1, 253, 252)


def test_cohomology_of_trivial_class():
    for fan in FANS:
        prof = cohomology(ToricDivisor(fan, (0,) * fan.n))
        assert (prof.h0, prof.h1, prof.h2, prof.chi) == (1, 0, 0, 1)
        # K, which is -ceil(C/2) for the quartic (2,1,1) on P^2: h0 = h1 = 0
        prof = cohomology(canonical_divisor(fan))
        assert (prof.h0, prof.h1, prof.h2, prof.chi) == (0, 0, 1, 1)


def test_a_negative_h1_is_refused_as_a_bug(monkeypatch, capsys):
    # C0 on F1 is not nef, with h0 = chi = 1 (golden cohomology_not_nef_f1_c0);
    # a count that loses every point gives h0 = h2 = 0 and so h1 = -1
    monkeypatch.setattr(geometry, "_count", lambda *clip: 0)
    with pytest.raises(InternalInconsistency, match=r"^negative h1 = -1 "):
        cohomology(ToricDivisor(hirzebruch(1), (0, 1, 0, 0)))
    assert main(["cohomology", "--surface", "F1", "--divisor", "C0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: negative h1 = -1 ") and err.count("\n") == 1


def test_h0_monotone_under_effective_difference():
    rng = random.Random(31)
    for fan in FANS:
        for _ in range(30):
            D = ToricDivisor(fan, tuple(rng.randint(-3, 5) for _ in range(fan.n)))
            E = D + ToricDivisor(fan, tuple(rng.randint(0, 3) for _ in range(fan.n)))
            assert effective_representative(E - D) is not None
            assert cohomology(E).h0 >= cohomology(D).h0


def test_effectivity_matches_h0():
    rng = random.Random(37)
    for fan in FANS:
        for _ in range(40):
            D = ToricDivisor(fan, tuple(rng.randint(-4, 5) for _ in range(fan.n)))
            has_rep = effective_representative(D) is not None
            assert has_rep == (cohomology(D).h0 > 0)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(
    st.lists(
        st.tuples(st.integers(-(10**6), 10**6), st.integers(-(10**3), 10**3)), min_size=1, max_size=16
    )
)
def test_d2_minus_kd_is_even_for_any_self_intersections(column):
    """euler_characteristic halves D^2 - K.D exactly, with no parity check.

    Write a_j for D's coefficients, s_j for D_j^2 and p_j = a_{j-1} + a_{j+1}
    + s_j a_j for D.D_j, indices mod n.  As K = -sum D_j,
    D^2 - K.D = sum_j a_j p_j + sum_j p_j = sum_j (a_j + 1) p_j
              = 2 sum_j a_j a_{j+1} + 2 sum_j a_j + sum_j s_j a_j (a_j + 1),
    and a_j (a_j + 1) is even.  Only the integrality of a and s is used, so
    s is drawn here as any int vector, not only one that a fan gives."""
    a, s = zip(*column)
    n = len(a)
    p = [a[j - 1] + a[(j + 1) % n] + s[j] * a[j] for j in range(n)]
    num = sum(aj * pj for aj, pj in zip(a, p)) + sum(p)
    assert num == sum((aj + 1) * pj for aj, pj in zip(a, p))
    assert num == (
        2 * sum(a[j] * a[(j + 1) % n] for j in range(n))
        + 2 * sum(a)
        + sum(sj * aj * (aj + 1) for aj, sj in zip(a, s))
    )
    assert num % 2 == 0


def test_count_invariant_under_principal_shift():
    rng = random.Random(41)
    for fan in FANS:
        for _ in range(20):
            D = ToricDivisor(fan, tuple(rng.randint(-3, 6) for _ in range(fan.n)))
            base = count(D)
            for m in [(1, 0), (0, -2), (3, 1)]:
                assert count(D + principal_divisor(fan, m)) == base


def test_polytope_vertices_are_clipped_on_first_read():
    D = ToricDivisor(HEXAGON, (1,) * 6)  # the hexagon of -K
    seen = []
    rings = count_calls(lambda: seen.append(count(D)), geometry.feasible_vertices)
    assert seen == [7] and rings == {"feasible_vertices": 0}
    rings = count_calls(lambda: seen.append(dim(D)), geometry.feasible_vertices)
    assert seen == [7, 2] and rings == {"feasible_vertices": 1}


def test_h0_h2_and_the_effective_representative_clip_once_each():
    # a nef class is read from its cone vertices, with no clip at all
    rng = random.Random(43)
    nef = 0
    for fan in FANS + [HEXAGON]:
        for _ in range(10):
            D = random_divisor(rng, fan)
            clips = 1 if positivity(D) is Positivity.NOT_NEF else 0
            nef += clips == 0
            h = count_calls(lambda: cohomology(D), geometry._clip, geometry.feasible_vertices)
            assert h["_clip"] <= 2 * clips and h["feasible_vertices"] == 0
            rep = count_calls(
                lambda: effective_representative(D), geometry._clip, geometry.feasible_vertices
            )
            assert rep == {"_clip": clips, "feasible_vertices": 0}
    assert nef > 0


@pytest.mark.parametrize(
    "fan, coeffs, profile, clips",
    [
        (p2(), (3, 0, -1), (6, 0, 0, 6), 0),  # ample
        (p2(), (0, 0, 0), (1, 0, 0, 1), 0),  # nef, not ample
        (hirzebruch(1), (1, 0, 0, 0), (2, 0, 0, 2), 0),  # F: nef, not ample
        (hirzebruch(1), (0, 1, 0, 0), (1, 0, 0, 1), 1),  # C0: not nef, h0 > 0
        (p2(), (-4, 0, 0), (0, 0, 3, 3), 2),
    ],
    ids=["p2-3-0-minus-1", "p2-zero", "f1-F", "f1-C0", "p2-minus-4H"],
)
def test_h2_is_counted_only_when_h0_is_0(fan, coeffs, profile, clips):
    # a nef class has h1 = h2 = 0 by Demazure vanishing and is not clipped;
    # otherwise h0(D) > 0 gives h2(D) = h0(K - D) = 0, since h0(K) = 0
    D = ToricDivisor(fan, coeffs)
    seen = []
    calls = count_calls(lambda: seen.append(cohomology(D)), geometry._clip, geometry._envelope)
    assert (seen[0].h0, seen[0].h1, seen[0].h2, seen[0].chi) == profile
    assert calls == {"_clip": clips, "_envelope": 2 * clips}


@pytest.mark.parametrize(
    "fan, coeffs",
    [(p2(), (9, 0, 0)), (hirzebruch(1), (27, 26, 0, 0)), (HEXAGON, (2, 3, 2, 2, 3, 2))],
)
def test_the_report_builds_no_vertex_ring(fan, coeffs):
    curve = CurveOnSurface(fan, ToricDivisor(fan, coeffs))
    reports = []
    rings = count_calls(lambda: reports.append(toric_theorem_report(curve)), geometry.feasible_vertices)
    assert reports[0].conditions is not None  # it got as far as h1(D - C)
    assert rings == {"feasible_vertices": 0}
