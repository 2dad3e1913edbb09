"""Acceptance suite: one test per exit criterion, all exact (zero tolerance).

Each test prints a PASS line so `pytest -s tests/test_acceptance.py` doubles
as a checklist.
"""

import random
from fractions import Fraction

from toricpoints import (
    CurveOnSurface,
    Positivity,
    ToricDivisor,
    canonical_divisor,
    cohomology,
    euler_characteristic,
    hirzebruch,
    hirzebruch_counterexample,
    intersection_number,
    lambda_invariant,
    p1xp1,
    p2,
    plane_theorem_report,
    positive_curve_representation,
    positivity,
    principal_divisor,
    remark_inequality_check,
    toric_theorem_report,
)
from toricpoints.lowdeg import NOT_CERTIFIED, PASS

FANS = [p2(), hirzebruch(1), hirzebruch(2), p1xp1()]


def test_criterion_1_lambda_values():
    res = lambda_invariant(p2())
    assert res.value == Fraction(-1, 4)
    assert res.inner_min == -9
    for m in range(1, 6):
        assert lambda_invariant(hirzebruch(m)).value == Fraction(-m, 4)
    print("PASS criterion 1: lambda(P2) = -1/4 (inner min -9), lambda(F_m) = -m/4")


def test_criterion_2_f1_counterexample():
    r = hirzebruch_counterexample(26)
    assert r.C2 == 728
    assert r.deg_P == 79
    assert 9 * 79 < 728
    assert r.h1_D == 0
    assert r.h1_D_minus_C == 1
    assert r.surjectivity_fails
    print("PASS criterion 2: F_1 at n=26: C^2=728, deg P=79, h1(D)=0, h1(D-C)=1")


def test_criterion_3_p2_pipeline():
    fan = p2()
    for d in range(4, 61):
        r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (d, 0, 0))))
        assert sum(r.interp_divisor.coeffs) == d // 2 - 1
        assert 2 * r.CD <= r.C2
        if d == 9:
            assert r.e_max == 8
            assert r.degB_table[-1] == (8, 19)
    print("PASS criterion 3: P2 pipeline d=4..60, deg D = floor(d/2)-1; d=9 e_max=8 degB=19")


def test_criterion_4_debarre_klassen():
    r = plane_theorem_report(8, 0, 7)
    assert r.m == 1
    assert r.degB == 1
    assert r.e_bound == Fraction(15, 2)
    # so the largest admissible degree is 7 = d - 1
    assert r.hypotheses["e_in_range"] == PASS
    print("PASS criterion 4: plane(8,0,7) -> m=1, degB=1, bound 15/2 (e_max = 7 = d-1)")


def test_criterion_5a_nef_count_equals_chi():
    rng = random.Random(101)
    checked = 0
    while checked < 200:
        fan = FANS[checked % len(FANS)]
        D = ToricDivisor(fan, tuple(rng.randint(0, 9) for _ in range(fan.n)))
        if positivity(D) is Positivity.NOT_NEF:
            continue
        prof = cohomology(D)
        assert prof.h0 == prof.chi and prof.h1 == 0 and prof.h2 == 0
        checked += 1
    print("PASS criterion 5a: h0 = chi, h1 = h2 = 0 on 200 random nef divisors")


def test_criterion_5b_serre_duality():
    rng = random.Random(103)
    for k in range(500):
        fan = FANS[k % len(FANS)]
        D = ToricDivisor(fan, tuple(rng.randint(-6, 9) for _ in range(fan.n)))
        K = canonical_divisor(fan)
        assert euler_characteristic(D) == euler_characteristic(K - D)
    print("PASS criterion 5b: chi(D) = chi(K-D) on 500 random divisors")


def test_criterion_5c_pairing():
    rng = random.Random(107)
    grid = [(1, 0), (0, 1), (-2, 3)]
    for k in range(500):
        fan = FANS[k % len(FANS)]
        D = ToricDivisor(fan, tuple(rng.randint(-6, 9) for _ in range(fan.n)))
        E = ToricDivisor(fan, tuple(rng.randint(-6, 9) for _ in range(fan.n)))
        F = ToricDivisor(fan, tuple(rng.randint(-6, 9) for _ in range(fan.n)))
        assert intersection_number(D, E) == intersection_number(E, D)
        assert intersection_number(D + F, E) == intersection_number(
            D, E
        ) + intersection_number(F, E)
        m = grid[k % len(grid)]
        assert intersection_number(
            D + principal_divisor(fan, m), E
        ) == intersection_number(D, E)
    print("PASS criterion 5c: pairing bilinear, symmetric, class invariant (500 triples)")


def test_criterion_5d_remark_inequality():
    for d in range(4, 61):
        for delta in range(0, (d - 3) // 3 + 1):
            assert remark_inequality_check(d, delta)
            r = plane_theorem_report(d, delta, 0)  # e = 0: out of range, so no deg B check
            equality = r.term2 == r.term1
            assert equality == (delta == 0 and d % 3 == 0)
    print("PASS criterion 5d: remark inequality d=4..60; ceiled equality iff 3|d, delta=0")


def test_criterion_5e_positive_representations():
    rng = random.Random(109)
    checked = 0
    while checked < 100:
        fan = FANS[checked % len(FANS)]
        C = ToricDivisor(fan, tuple(rng.randint(1, 9) for _ in range(fan.n)))
        if positivity(C) is not Positivity.AMPLE:
            continue
        r = toric_theorem_report(CurveOnSurface(fan, C))
        rep, D = r.positive_rep, r.interp_divisor
        if rep is None:
            continue
        assert rep == positive_curve_representation(C)
        # C - 2 floor(C/2) has 0/1 coefficients
        rest = tuple(a - 2 * b for a, b in zip(rep.coeffs, D.coeffs))
        assert all(x in (0, 1) for x in rest)
        lam = lambda_invariant(fan).value
        for e in (1, 2, 6):  # the section bound at degree e
            assert r.conditions.h0_bound + r.e_max - e >= Fraction(r.C2, 4) + lam - e
        checked += 1
    print("PASS criterion 5e: C-2D in {0,1}^n and section bound >= C^2/4 + lambda - e")


def test_criterion_6_hypothesis_honesty():
    fan = p2()
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (4, 0, 0)), (2, 2)))
    assert r.hypothesis_verdicts["blowup_ample"] == NOT_CERTIFIED
    # F_1, C = 26 C0 + 27 F, D = C0 + 3F at e = deg P = 79: condition (1)
    # C.D < C^2 and (3) the section bound > 0 hold, (2) h1(D - C) = 0 fails
    f1 = hirzebruch(1)
    C, D = ToricDivisor(f1, (27, 26, 0, 0)), ToricDivisor(f1, (3, 1, 0, 0))
    h = hirzebruch_counterexample(26)
    assert h.deg_P < h.C2 and h.h1_D_minus_C == 1
    R, K = C - D - D, canonical_divisor(f1)
    assert Fraction(intersection_number(R, K + K + R), 4) + 2 + Fraction(h.C2, 4) - h.deg_P > 0
    q = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (4, 0, 0)))).conditions
    assert (q.intersection_bound, q.surjectivity, q.section_lift) == (PASS, PASS, PASS)
    print("PASS criterion 6: Seshadri not_certified honest; only condition (2) fails on F_1")
