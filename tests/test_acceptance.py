"""Acceptance suite: one test per exit criterion, all exact (zero tolerance).

Each test prints a PASS line so `pytest -s tests/test_acceptance.py` doubles
as a checklist.
"""

from fractions import Fraction

from toricpoints import (
    CurveOnSurface,
    ToricDivisor,
    hirzebruch,
    hirzebruch_counterexample,
    p2,
    plane_theorem_report,
    toric_theorem_report,
)
from toricpoints.lowdeg import FAIL, NOT_CERTIFIED, PASS
from toricpoints.selftest import SUITES, _condition_verdicts

from oracles import remark_squared


def test_criterion_1_lambda_values():
    assert SUITES["lambda-hirzebruch"][0]() is None
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
            assert (r.e_max, r.CD - r.e_max) == (8, 19)
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
    assert SUITES["hrr-vs-count"][0]() is None
    print("PASS criterion 5a: h0 = chi, h1 = h2 = 0 on 200 random nef divisors")


def test_criterion_5b_serre_duality():
    assert SUITES["serre-duality"][0]() is None
    print("PASS criterion 5b: chi(D) = chi(K-D) on 500 random divisors")


def test_criterion_5c_pairing():
    assert SUITES["pairing"][0]() is None
    print("PASS criterion 5c: pairing bilinear, symmetric, class invariant (500 triples)")


def test_criterion_5d_remark_inequality():
    for d in range(4, 61):
        for delta in range(0, (d - 3) // 3 + 1):
            assert remark_squared(d, delta)
            r = plane_theorem_report(d, delta, 0)  # e = 0: out of range, so no deg B check
            equality = r.term2 == r.term1
            assert equality == (delta == 0 and d % 3 == 0)
    print("PASS criterion 5d: remark inequality d=4..60; ceiled equality iff 3|d, delta=0")


def test_criterion_5e_positive_representations():
    # the report checker: C_rep = effective_representative(C + K) - K, C_rep - 2D
    # in {0,1}^n and the section bound at e_max >= C^2/4 + lambda - e_max, so at
    # each degree e <= e_max, where both sides gain e_max - e
    assert SUITES["positive-representation"][0]() is None
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
    v = _condition_verdicts(C, D, h.deg_P)
    assert (v.intersection_bound, v.surjectivity, v.section_lift) == (PASS, FAIL, PASS)
    q = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (4, 0, 0)))).conditions
    assert (q.intersection_bound, q.surjectivity, q.section_lift) == (PASS, PASS, PASS)
    print("PASS criterion 6: Seshadri not_certified honest; only condition (2) fails on F_1")
