import random
from fractions import Fraction

import pytest

from toricpoints import (
    CurveOnSurface,
    ToricDivisor,
    arithmetic_genus,
    blowup_self_intersection,
    build_fan,
    hirzebruch,
    hirzebruch_counterexample,
    interpolation_conditions,
    interpolation_divisor,
    lambda_invariant,
    mainprop_h0_bound,
    p1xp1,
    p2,
    positive_curve_representation,
    seshadri_ample_check,
    toric_theorem_report,
)
from toricpoints.errors import ContractViolation, NotAmple, TooManyRays
from toricpoints.lowdeg import CERTIFIED, FAIL, NOT_CERTIFIED, PASS

FANS = [p2(), hirzebruch(1), hirzebruch(2), p1xp1()]


def subdivide(rays, i):
    # stellar subdivision between rays i and i+1 keeps the fan smooth complete
    u, v = rays[i], rays[(i + 1) % len(rays)]
    w = (u[0] + v[0], u[1] + v[1])
    return rays[: i + 1] + [w] + rays[i + 1 :]


def random_smooth_fan(rng, extra=3):
    rays = [(1, 0), (0, 1), (-1, -1)]
    for _ in range(extra):
        rays = subdivide(rays, rng.randrange(len(rays)))
    return build_fan(rays)


def test_lambda_p2():
    res = lambda_invariant(p2())
    assert res.value == Fraction(-1, 4)
    assert res.inner_min == -9


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_lambda_hirzebruch(m):
    assert lambda_invariant(hirzebruch(m)).value == Fraction(-m, 4)


def test_lambda_at_most_two():
    rng = random.Random(43)
    for fan in FANS + [random_smooth_fan(rng) for _ in range(5)]:
        assert lambda_invariant(fan).value <= 2


def test_lambda_reflection_invariant():
    # mirror (x,y) -> (y,x) and reverse the cyclic order: same surface
    for fan in FANS:
        mirrored = build_fan([(u[1], u[0]) for u in reversed(fan.rays)])
        assert lambda_invariant(mirrored).value == lambda_invariant(fan).value


def test_lambda_too_many_rays():
    rng = random.Random(47)
    fan = random_smooth_fan(rng, extra=22)  # 25 rays
    with pytest.raises(TooManyRays):
        lambda_invariant(fan)


def test_curve_classes_must_be_integral():
    fan = p2()
    half = ToricDivisor(fan, (Fraction(9, 2), 0, 0))
    with pytest.raises(ContractViolation):
        arithmetic_genus(fan, half)
    with pytest.raises(ContractViolation):
        CurveOnSurface(fan=fan, curve_class=half)


def test_arithmetic_genus():
    fan = p2()
    assert arithmetic_genus(fan, ToricDivisor(fan, (4, 0, 0))) == 3
    assert arithmetic_genus(fan, ToricDivisor(fan, (3, 0, 0))) == 1
    f1 = hirzebruch(1)
    assert arithmetic_genus(f1, ToricDivisor(f1, (27, 26, 0, 0))) == 325


def test_blowup_self_intersection():
    assert blowup_self_intersection(16, []) == 16
    assert blowup_self_intersection(100, [2, 2]) == 92
    assert blowup_self_intersection(728, [2]) == 724


def test_seshadri_check():
    fan = p2()
    assert seshadri_ample_check(fan, ToricDivisor(fan, (10, 0, 0)), (2, 2)) == CERTIFIED
    assert (
        seshadri_ample_check(fan, ToricDivisor(fan, (4, 0, 0)), (2, 2)) == NOT_CERTIFIED
    )
    assert seshadri_ample_check(fan, ToricDivisor(fan, (5, 0, 0)), ()) == CERTIFIED
    with pytest.raises(NotAmple):
        seshadri_ample_check(
            hirzebruch(1), ToricDivisor(hirzebruch(1), (0, 1, 0, 0)), ()
        )


def test_positive_curve_representation():
    fan = p2()
    # lex-min m for C + K = H is (-1, 0), giving shifted coefficients (0,0,1)
    rep = positive_curve_representation(fan, ToricDivisor(fan, (4, 0, 0)))
    assert rep.coeffs == (1, 1, 2)
    rep9 = positive_curve_representation(fan, ToricDivisor(fan, (9, 0, 0)))
    assert rep9.coeffs == (1, 1, 7)
    # cubic: C + K is principal, so "> 0" fails
    assert positive_curve_representation(fan, ToricDivisor(fan, (3, 0, 0))) is None


def test_positive_representation_contract():
    rng = random.Random(53)
    from toricpoints import classes_equal, positivity, Positivity

    checked = 0
    while checked < 60:
        fan = FANS[checked % len(FANS)]
        C = ToricDivisor(fan, tuple(rng.randint(1, 9) for _ in range(fan.n)))
        if positivity(C) is not Positivity.AMPLE:
            continue
        rep = positive_curve_representation(fan, C)
        if rep is None:
            continue
        assert classes_equal(rep, C)
        assert all(a >= 1 for a in rep.coeffs)
        assert any(a >= 2 for a in rep.coeffs)
        checked += 1


def test_interpolation_divisor():
    fan = p2()
    D, CD, C2 = interpolation_divisor(fan, ToricDivisor(fan, (2, 1, 1)))
    assert D.coeffs == (1, 0, 0) and CD == 4 and C2 == 16
    D, CD, C2 = interpolation_divisor(fan, ToricDivisor(fan, (7, 1, 1)))
    assert D.coeffs == (3, 0, 0) and CD == 27 and C2 == 81
    f1 = hirzebruch(1)
    D, CD, C2 = interpolation_divisor(f1, ToricDivisor(f1, (1, 1, 1, 2)))
    assert D.coeffs == (0, 0, 0, 1)
    with pytest.raises(ContractViolation):
        interpolation_divisor(fan, ToricDivisor(fan, (1, 1, 1)))
    with pytest.raises(ContractViolation):
        interpolation_divisor(fan, ToricDivisor(fan, (3, 0, 2)))


def test_mainprop_h0_bound_values():
    fan = p2()
    # quartic rep (2,1,1), D = (1,0,0): C-2D ~ 2H, (2H).(2K+2H) = -8,
    # so the bound is -2 + 2 + 4 - 1 = 3
    assert mainprop_h0_bound(fan, ToricDivisor(fan, (2, 1, 1)), ToricDivisor(fan, (1, 0, 0)), 1) == 3
    # degree 9: C-2D ~ 3H, (3H).(2K+3H) = -9, bound = -9/4 + 2 + 81/4 - 8 = 12
    assert (
        mainprop_h0_bound(fan, ToricDivisor(fan, (7, 1, 1)), ToricDivisor(fan, (3, 0, 0)), 8)
        == 12
    )


def test_mainprop_bound_dominates_lambda_bound():
    rng = random.Random(59)
    from toricpoints import positivity, Positivity

    checked = 0
    while checked < 60:
        fan = FANS[checked % len(FANS)]
        C = ToricDivisor(fan, tuple(rng.randint(1, 9) for _ in range(fan.n)))
        if positivity(C) is not Positivity.AMPLE:
            continue
        rep = positive_curve_representation(fan, C)
        if rep is None:
            continue
        D, CD, C2 = interpolation_divisor(fan, rep)
        # C - 2D must have 0/1 coefficients (checked inside) and the bound
        # must dominate C^2/4 + lambda - e
        lam = lambda_invariant(fan).value
        for e in (1, 3, 7):
            assert mainprop_h0_bound(fan, rep, D, e) >= Fraction(C2, 4) + lam - e
        assert 2 * CD <= C2
        checked += 1


def test_interpolation_conditions_quartic():
    fan = p2()
    v = interpolation_conditions(
        fan, ToricDivisor(fan, (2, 1, 1)), ToricDivisor(fan, (1, 0, 0)), 1
    )
    assert (v.intersection_bound, v.surjectivity, v.section_lift) == (PASS, PASS, PASS)
    assert v.h1_D_minus_C == 0
    assert v.half_curve_ample


def test_interpolation_conditions_oversized_divisor():
    fan = p2()
    v = interpolation_conditions(
        fan, ToricDivisor(fan, (2, 1, 1)), ToricDivisor(fan, (5, 0, 0)), 1
    )
    assert v.intersection_bound == FAIL  # 20 >= 16


def test_interpolation_conditions_f1_counterexample():
    f1 = hirzebruch(1)
    C = ToricDivisor(f1, (27, 26, 0, 0))
    D = ToricDivisor(f1, (3, 1, 0, 0))
    v = interpolation_conditions(f1, C, D, 79)
    assert v.surjectivity == FAIL and v.h1_D_minus_C == 1
    assert v.intersection_bound == PASS and v.section_lift == PASS


def test_toric_report_quartic():
    fan = p2()
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (4, 0, 0))))
    assert r.lambda_value == Fraction(-1, 4)
    assert r.degree_bound == Fraction(16, 9)
    assert r.e_max == 1
    assert r.degB_table == ((1, 3),)
    assert sum(r.interp_divisor.coeffs) == 1  # D ~ H
    assert r.hypothesis_verdicts["curve_ample"] == PASS
    assert r.hypothesis_verdicts["C_plus_K_positive"] == PASS


def test_toric_report_degree_nine():
    fan = p2()
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (9, 0, 0))))
    assert r.degree_bound == 9
    assert r.e_max == 8
    assert r.degB_table[-1] == (8, 19)
    assert sum(r.interp_divisor.coeffs) == 3


def test_toric_report_singular():
    fan = p2()
    r = toric_theorem_report(
        CurveOnSurface(fan, ToricDivisor(fan, (10, 0, 0)), (2, 2))
    )
    assert r.blowup_C2 == 92
    assert r.degree_bound == Fraction(92, 9)
    assert r.e_max == 10
    assert r.hypothesis_verdicts["blowup_ample"] == CERTIFIED


def test_toric_report_cubic_fails_positivity():
    fan = p2()
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (3, 0, 0))))
    assert r.hypothesis_verdicts["C_plus_K_positive"] == FAIL
    assert r.positive_rep is None and r.interp_divisor is None


@pytest.mark.parametrize("d", range(4, 61))
def test_p2_interpolation_degree_closed_form(d):
    fan = p2()
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (d, 0, 0))))
    assert sum(r.interp_divisor.coeffs) == d // 2 - 1
    assert 2 * r.CD <= r.C2


def test_hirzebruch_counterexample_26():
    r = hirzebruch_counterexample(26)
    assert r.C2 == 728
    assert r.deg_P == 79
    assert r.low_degree_regime  # 711 < 728
    assert r.h1_D == 0
    assert r.h1_D_minus_C == 1
    assert r.h0_D == 7
    assert r.h0_C_P == 8
    assert r.surjectivity_fails


def test_hirzebruch_counterexample_at_a_million():
    n = 10**6
    r = hirzebruch_counterexample(n)
    assert (r.C2, r.deg_P) == (n * n + 2 * n, 3 * n + 1)
    assert (r.h0_D, r.h1_D, r.h1_D_minus_C, r.h0_C_P) == (7, 0, 1, 8)
    assert r.low_degree_regime and r.surjectivity_fails


def test_hirzebruch_counterexample_regime_threshold():
    assert not hirzebruch_counterexample(25).low_degree_regime  # 9*76 > 675
    assert not hirzebruch_counterexample(1).low_degree_regime
    r1 = hirzebruch_counterexample(1)
    assert (r1.C2, r1.deg_P) == (3, 4)
    # solving 9(3n+1) < n^2 + 2n puts the threshold at n = 26
    assert hirzebruch_counterexample(26).low_degree_regime


@pytest.mark.parametrize("n", range(2, 30))
def test_hirzebruch_more_sections_downstairs(n):
    r = hirzebruch_counterexample(n)
    if r.h1_D_minus_C > 0:
        assert r.h0_C_P > r.h0_D
