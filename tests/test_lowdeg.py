import collections.abc
import copy
import dataclasses
import gc
import itertools
import pickle
import random
import tracemalloc
import weakref
from fractions import Fraction
from math import inf

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricpoints import (
    CurveOnSurface,
    DegBTable,
    Positivity,
    ToricDivisor,
    build_fan,
    builtin_surface,
    canonical_divisor,
    cohomology,
    effective_representative,
    euler_characteristic,
    hirzebruch,
    hirzebruch_counterexample,
    intersection_number,
    lambda_invariant,
    p1xp1,
    p2,
    positivity,
    principal_divisor,
    toric_theorem_report,
)
from toricpoints import geometry, lowdeg
from toricpoints.divisor import _polygon, intersect_primes
from toricpoints.errors import ContractViolation, FanMismatch
from toricpoints.fan import lower_arc_start
from toricpoints.lowdeg import CERTIFIED, FAIL, NOT_CERTIFIED, PASS
from toricpoints.selftest import _classes_equal as classes_equal, _condition_verdicts as condition_verdicts
from toricpoints.selftest import _halved as halved, _peeled_h0 as peeled_h0
from toricpoints.selftest import _polygon_class as polygon_class, _positive_reports as positive_reports
from toricpoints.selftest import _random_blowup as random_blowup, _report_fault as report_fault
from toricpoints.selftest import _wall_numbers as wall_numbers

from conftest import FANS, GENERATORS, blowup_fans, count_calls
from oracles import blown_up_p2, class_count, intersection_matrix, jsonable, subset_objective
from oracles import subset_scan



def arithmetic_genus(C):
    """Oracle: p_a = 1 + (K + C).C / 2 by adjunction."""
    num = intersection_number(canonical_divisor(C.fan) + C, C)
    assert num % 2 == 0
    return 1 + num // 2


def subset_value(b, subset):
    """(sum_R D_i).(2K + sum_R D_i) on a cycle of n >= 3 rays."""
    n = len(b)
    inside = set(subset)
    return sum(b[i] - 4 for i in inside) + 2 * sum((i + 1) % n in inside for i in inside)


def min_value(b):
    """Oracle: the least subset value alone, by a two-state dynamic programme
    around the cycle (ray 0 out, then in)."""
    c = [bi - 4 for bi in b]
    best = 0
    for first in (0, 1):
        # least value of rays 0..i with ray i out, and with ray i in
        out, into = (0, inf) if first == 0 else (inf, c[0])
        for ci in c[1:]:
            out, into = min(out, into), min(out, into + 2) + ci
        best = min(best, out, into + 2 * first)
    return best


@settings(derandomize=True, deadline=None, max_examples=100)
@given(blowup_fans())
def test_lambda_matches_the_subset_scan(fan):
    res = lambda_invariant(fan)
    assert (res.inner_min, res.argmin_subset) == subset_scan(fan)
    assert res.value == 2 + Fraction(res.inner_min, 4)


def exact(value, want):
    """value equals want, and is an int."""
    return value == want and type(value) is int


def checked(curve):
    """The report on `curve`, once `selftest._report_fault` finds no field of
    it that divisor arithmetic refutes."""
    r = toric_theorem_report(curve)
    fault = report_fault(curve, r)
    assert fault is None, fault
    return r


def kleiman(pairings):
    if all(p > 0 for p in pairings):
        return Positivity.AMPLE
    if all(p >= 0 for p in pairings):
        return Positivity.NEF_NOT_AMPLE
    return Positivity.NOT_NEF


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.data())
def test_pairing_matches_the_dense_matrix(fan, data):
    n = fan.n
    M = intersection_matrix(fan)

    def ints(lo, hi):
        return data.draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))

    E, lengths = polygon_class(fan, ints(0, 5))  # nef; ample when no length is 0
    D = ToricDivisor(fan, tuple(ints(-12, 12)))
    for A in (D, E):
        want = [sum(a * M[i][j] for i, a in enumerate(A.coeffs)) for j in range(n)]
        assert all(exact(got, w) for got, w in zip(intersect_primes(A), want))
        assert positivity(A) is kleiman(want)
    assert intersect_primes(E) == lengths
    want = sum(a * M[i][j] * e for i, a in enumerate(D.coeffs) for j, e in enumerate(E.coeffs))
    assert exact(intersection_number(D, E), want)
    assert exact(intersection_number(E, D), want)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(blowup_fans())
def test_wall_numbers_meet_noethers_formula(fan):
    """chi(O) = 1 and e = n give K^2 = 12 - n; as K = -sum D_i and each D_i
    meets its two neighbours once, that is sum D_i^2 = 12 - 3n.

    Each D_i^2 = -b_i comes from the fan identity u_{i-1} + u_{i+1} = b_i u_i,
    which self_intersections does not check: write u_{i-1} = alpha u_i +
    beta u_{i+1} in the basis u_i, u_{i+1} (det 1).  Then det(u_{i-1}, u_i)
    = -beta is 1, so u_{i-1} + u_{i+1} = alpha u_i, and alpha =
    det(u_{i-1}, u_{i+1}) is the b_i the fan computes."""
    rays, n = fan.rays, fan.n
    for i, b in enumerate(-s for s in fan.self_intersections):
        (px, py), (ux, uy), (qx, qy) = rays[i - 1], rays[i], rays[(i + 1) % n]
        assert (px + qx, py + qy) == (b * ux, b * uy)
    assert sum(fan.self_intersections) == 12 - 3 * fan.n
    K = canonical_divisor(fan)
    assert exact(intersection_number(K, K), 12 - fan.n)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(blowup_fans(), st.data())
def test_h0_and_h2_match_the_peeling_oracle(fan, data):
    A, _ = polygon_class(fan, [1] * fan.n)  # every length >= 1: ample
    coeffs = data.draw(st.lists(st.integers(-6, 9), min_size=fan.n, max_size=fan.n))
    D = ToricDivisor(fan, tuple(coeffs))
    prof = cohomology(D)
    assert prof.h0 == peeled_h0(D, A)
    assert prof.h2 == peeled_h0(canonical_divisor(fan) - D, A)  # Serre duality


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.booleans(), st.data())
def test_half_curve_ample_matches_the_halved_class(fan, ample, data):
    # oracle: classify C/2 by its pairings with the primes, halved from the
    # dense matrix; lengths >= 1 give an ample C
    low = 1 if ample else -2
    lengths = data.draw(st.lists(st.integers(low, 3), min_size=fan.n, max_size=fan.n))
    m = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    C = polygon_class(fan, lengths)[0] + principal_divisor(fan, m)
    r = toric_theorem_report(CurveOnSurface(fan, C))
    M = intersection_matrix(fan)
    halves = [Fraction(sum(c * M[i][j] for i, c in enumerate(C.coeffs)), 2) for j in range(fan.n)]
    half_ample = kleiman(halves) is Positivity.AMPLE
    assert half_ample == (r.hypothesis_verdicts["curve_ample"] == PASS)
    assert half_ample or not ample


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.booleans(), st.data())
def test_positive_representation_exists_iff_c_plus_k_is_effective_and_not_principal(
    fan, anticanonical, data
):
    """A representation pairs like C, so the report takes C^2 from C alone.

    The representation is rep0 + (1, ..., 1), where rep0 = C + K + div(chi^m)
    for some m, so rep = C + div(chi^m) as K = -(1, ..., 1).  By the fan
    identity u_{j-1} + u_{j+1} = b_j u_j and D_j^2 = -b_j, div(chi^m).D_j =
    <m, u_{j-1} + u_{j+1} - b_j u_j> = 0, so intersect_primes(rep) =
    intersect_primes(C).  Then rep^2 = C^2 + <m, sum_j (C.D_j) u_j>, and
    sum_j (C.D_j) u_j = sum_i c_i (u_{i-1} + u_{i+1} - b_i u_i) = 0."""
    K = canonical_divisor(fan)
    if anticanonical:  # C + K ~ 0
        m = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        C = principal_divisor(fan, m) - K
    else:
        coeffs = data.draw(st.lists(st.integers(-2, 6), min_size=fan.n, max_size=fan.n))
        C = ToricDivisor(fan, tuple(coeffs))
    A, _ = polygon_class(fan, [1] * fan.n)
    CK = C + K
    principal = classes_equal(CK, ToricDivisor(fan, (0,) * fan.n))
    assert principal or not anticanonical
    rep = checked(CurveOnSurface(fan, C)).positive_rep
    assert (rep is None) == (peeled_h0(CK, A) == 0 or principal)
    if rep is not None:
        assert intersect_primes(rep) == intersect_primes(C)
        assert intersection_number(rep, rep) == intersection_number(C, C)


def test_a_fan_is_freed_after_use():
    fan = build_fan([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
    C = ToricDivisor(fan, (2, 3, 2, 2, 3, 2))
    cohomology(C)
    intersection_number(C, C)
    report = toric_theorem_report(CurveOnSurface(fan, C))
    assert report.hypothesis_verdicts["curve_ample"] == PASS
    ref = weakref.ref(fan)
    del fan, C, report
    gc.collect()
    assert ref() is None


def test_lambda_ties_take_the_lex_smallest_subset():
    """On P1xP1 both {0, 2} and {1, 3} reach -8.  On seeded random blowups
    of P^2 and F_m, subsets as small as the minimiser tie with it both
    across ray 0 (one holds ray 0, another does not) and past it (all agree
    on ray 0), and lambda takes the lex-smallest of them."""
    assert lambda_invariant(p1xp1()).argmin_subset == (0, 2)
    rng = random.Random(61)
    across = past = 0
    for _ in range(150):
        fan = random_blowup(rng)
        res = lambda_invariant(fan)
        assert (res.inner_min, res.argmin_subset) == subset_scan(fan)
        val, size = subset_objective(fan), len(res.argmin_subset)
        tied = [R for R in itertools.combinations(range(fan.n), size) if val(R) == res.inner_min]
        if len(tied) > 1:
            across += len({0 in R for R in tied}) == 2
            past += len({0 in R for R in tied}) == 1
    assert (across, past) == (7, 7)


def check_large(fan):
    res = lambda_invariant(fan)
    b = wall_numbers(fan.rays)
    assert res.inner_min == min_value(b)
    assert list(res.argmin_subset) == sorted(set(res.argmin_subset))
    assert subset_value(b, res.argmin_subset) == res.inner_min
    assert res.value == 2 + Fraction(res.inner_min, 4)


@pytest.mark.parametrize("n", [15, 25, 40, 80, 150, 300])
def test_lambda_matches_the_min_only_dp(n):
    rng = random.Random(n)
    for _ in range(3):
        check_large(blown_up_p2(rng, n))


@pytest.mark.parametrize("n", [25, 2000])
def test_lambda_has_no_ray_cap(n):
    check_large(blown_up_p2(random.Random(47), n))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 10**6])
def test_lambda_hirzebruch(m):
    assert lambda_invariant(hirzebruch(m)).value == Fraction(-m, 4)


def test_lambda_at_most_two():
    rng = random.Random(43)
    for fan in FANS + [blown_up_p2(rng, 6) for _ in range(5)]:
        assert lambda_invariant(fan).value <= 2


def test_lambda_reflection_invariant():
    # mirror (x,y) -> (y,x) and reverse the cyclic order: same surface
    for fan in FANS:
        mirrored = build_fan([(u[1], u[0]) for u in reversed(fan.rays)])
        assert lambda_invariant(mirrored).value == lambda_invariant(fan).value


def test_curve_classes_must_be_integral():
    # a class such as C/2 cannot be built, so no curve or report can hold one
    for half in ((Fraction(9, 2), 0, 0), (Fraction(9, 1), 0, 0)):
        with pytest.raises(ContractViolation):
            ToricDivisor(p2(), half)


@pytest.mark.parametrize(
    "mults", [(2.5,), (3.0,), (Fraction(5, 2),), (Fraction(3),), (2, True), ("3",)]
)
def test_multiplicities_must_be_ints(mults):
    fan = p2()
    with pytest.raises(ContractViolation):
        CurveOnSurface(fan, ToricDivisor(fan, (9, 0, 0)), mults)


H = ToricDivisor(p2(), (1, 0, 0))
MALFORMED_CALLS = {
    "hirzebruch n a str": lambda: hirzebruch_counterexample("3"),
    "hirzebruch n a float": lambda: hirzebruch_counterexample(2.5),
    "hirzebruch n a bool": lambda: hirzebruch_counterexample(True),
    "lambda of None": lambda: lambda_invariant(None),
    "divisor coefficients None": lambda: ToricDivisor(p2(), None),
    "divisor on no fan": lambda: ToricDivisor(None, (1, 0, 0)),
    "multiplicities None": lambda: CurveOnSurface(p2(), ToricDivisor(p2(), (9, 0, 0)), None),
    "curve class a tuple": lambda: CurveOnSurface(p2(), (9, 0, 0)),
    "curve on no fan": lambda: CurveOnSurface(None, ToricDivisor(p2(), (9, 0, 0))),
    # the report's positive_rep and blowup_C2 rest on these checks of C and delta_i
    "curve class None": lambda: CurveOnSurface(p2(), None),
    "multiplicities an int": lambda: CurveOnSurface(p2(), H, 2),
    "multiplicities a str": lambda: CurveOnSurface(p2(), H, "22"),
    "effective representative of None": lambda: effective_representative(None),
    "cohomology of a tuple": lambda: cohomology((1, 0, 0)),
    "effective representative of a fan": lambda: effective_representative(p2()),
    "pairing with None": lambda: intersection_number(H, None),
    "pairing None with a class": lambda: intersection_number(None, H),
    "positivity of None": lambda: positivity(None),
    "euler characteristic of None": lambda: euler_characteristic(None),
    "report of None": lambda: toric_theorem_report(None),
    "report of a class": lambda: toric_theorem_report(H),
    "report of a fan": lambda: toric_theorem_report(p2()),
    "class minus a tuple": lambda: H - (1, 0, 0),
    "cohomology of None": lambda: cohomology(None),
    "surface named None": lambda: builtin_surface(None),
    "principal divisor on no fan": lambda: principal_divisor(None, (1, 0)),
    "principal divisor of None": lambda: principal_divisor(p2(), None),
    "principal divisor of a 1-tuple": lambda: principal_divisor(p2(), (1,)),
    "canonical divisor on no fan": lambda: canonical_divisor(None),
    "divisor times None": lambda: H * None,
    "fan named 5": lambda: build_fan(p2().rays, name=5),
}


@pytest.mark.parametrize("call", MALFORMED_CALLS.values(), ids=MALFORMED_CALLS.keys())
def test_malformed_library_inputs_are_refused(call):
    with pytest.raises(ContractViolation):
        call()


@pytest.mark.parametrize("n", ["3", 2.5, True, None])
def test_hirzebruch_example_names_n_when_it_is_not_an_int(n):
    with pytest.raises(ContractViolation, match=r"^n = "):
        hirzebruch_counterexample(n)


def test_multiplicities_are_kept_as_a_tuple():
    fan = p2()
    curve = CurveOnSurface(fan, ToricDivisor(fan, (9, 0, 0)), [2, 2])
    assert type(curve.multiplicities) is tuple and curve.multiplicities == (2, 2)
    assert toric_theorem_report(curve).blowup_C2 == 73


def test_a_curve_class_on_another_fan_is_refused():
    with pytest.raises(FanMismatch):
        CurveOnSurface(hirzebruch(1), ToricDivisor(p2(), (9, 0, 0)))
    # the same rays under another name are the same surface
    C = ToricDivisor(hirzebruch(0), (2, 2, 1, 1))
    assert CurveOnSurface(p1xp1(), C).curve_class is C


def test_arithmetic_genus():
    fan = p2()
    assert arithmetic_genus(ToricDivisor(fan, (4, 0, 0))) == 3
    assert arithmetic_genus(ToricDivisor(fan, (3, 0, 0))) == 1
    f1 = hirzebruch(1)
    assert arithmetic_genus(ToricDivisor(f1, (27, 26, 0, 0))) == 325


def blowup_C2(fan, coeffs, mults=()):
    return toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, coeffs), mults)).blowup_C2


def test_blowup_self_intersection():
    # C~^2 = C^2 - sum delta_i^2: 4H, 10H with (2, 2), and F_1's 26C0 + 27F with (2,)
    assert blowup_C2(p2(), (4, 0, 0)) == 16
    assert blowup_C2(p2(), (10, 0, 0), (2, 2)) == 92
    assert blowup_C2(hirzebruch(1), (27, 26, 0, 0), (2,)) == 724


def blowup_ample(fan, coeffs, mults=()):
    # the report's Seshadri verdict
    curve = CurveOnSurface(fan, ToricDivisor(fan, coeffs), mults)
    return toric_theorem_report(curve).hypothesis_verdicts["blowup_ample"]


def test_seshadri_check():
    fan = p2()
    assert blowup_ample(fan, (10, 0, 0), (2, 2)) == CERTIFIED
    assert blowup_ample(fan, (4, 0, 0), (2, 2)) == NOT_CERTIFIED
    assert blowup_ample(fan, (5, 0, 0)) == CERTIFIED
    # a class that is not ample is not certified either
    assert blowup_ample(hirzebruch(1), (0, 1, 0, 0)) == NOT_CERTIFIED


@pytest.mark.parametrize("mults", [(1,), (2.5,), (0, 3), (-2,)])
def test_seshadri_check_refuses_bad_multiplicities(mults):
    # the multiplicities reach the check only through CurveOnSurface, which
    # refuses these; a sum below min C.D_i = 10 would have certified them
    with pytest.raises(ContractViolation):
        blowup_ample(p2(), (10, 0, 0), mults)


def positive_rep(C):
    return toric_theorem_report(CurveOnSurface(C.fan, C)).positive_rep


def test_positive_curve_representation():
    fan = p2()
    # lex-min m for C + K = H is (-1, 0), giving shifted coefficients (0,0,1)
    rep = positive_rep(ToricDivisor(fan, (4, 0, 0)))
    assert rep.coeffs == (1, 1, 2)
    rep9 = positive_rep(ToricDivisor(fan, (9, 0, 0)))
    assert rep9.coeffs == (1, 1, 7)
    # cubic: C + K is principal, so "> 0" fails
    assert positive_rep(ToricDivisor(fan, (3, 0, 0))) is None


@pytest.mark.parametrize("seed", [53, 59])
def test_positive_representations_pass_the_report_checker(seed):
    """C_rep ~ C with coefficients >= 1, and the section bound at e_max is
    >= lambda + C^2/4 - e_max, so also at each degree e: both gain e_max - e."""
    for curve, r in itertools.islice(positive_reports(random.Random(seed)), 60):
        assert report_fault(curve, r) is None, curve


def test_interpolation_divisor():
    # (class, C_rep, D = floor(C_rep/2), C.D, C^2)
    f1 = hirzebruch(1)
    for fan, C, rep, D, CD, C2 in [
        (p2(), (4, 0, 0), (1, 1, 2), (0, 0, 1), 4, 16),
        (p2(), (9, 0, 0), (1, 1, 7), (0, 0, 3), 27, 81),
        (f1, (1, 1, 1, 2), (1, 1, 1, 2), (0, 0, 0, 1), 4, 15),
    ]:
        r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, C)))
        assert (r.positive_rep.coeffs, r.interp_divisor.coeffs, r.CD, r.C2) == (rep, D, CD, C2)


def test_mainprop_h0_bound_values():
    fan = p2()
    # quartic: C_rep - 2D ~ 2H, (2H).(2K+2H) = -8, so at e = e_max = 1 the
    # bound is -2 + 2 + 4 - 1 = 3
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (4, 0, 0))))
    assert (r.e_max, r.conditions.h0_bound) == (1, 3)
    # degree 9: C_rep - 2D ~ 3H, (3H).(2K+3H) = -9, bound = -9/4 + 2 + 81/4 - 8 = 12
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (9, 0, 0))))
    assert (r.e_max, r.conditions.h0_bound) == (8, 12)


def test_interpolation_conditions_quartic():
    fan = p2()
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (4, 0, 0))))
    v = r.conditions
    assert (v.intersection_bound, v.surjectivity, v.section_lift) == (PASS, PASS, PASS)
    assert cohomology(r.interp_divisor - r.positive_rep).h1 == 0
    assert condition_verdicts(ToricDivisor(fan, (2, 1, 1)), ToricDivisor(fan, (1, 0, 0)), 1) == v


@pytest.mark.parametrize(
    "fan, coeffs",
    [(p2(), (4, 0, 0)), (p2(), (9, 0, 0)), (p1xp1(), (5, 4, 0, 0)), (hirzebruch(1), (9, 6, 0, 0)),
     (hirzebruch(2), (12, 5, 0, 0))],
)
def test_the_section_bound_at_each_degree_is_h0_bound_plus_e_max_minus_e(fan, coeffs):
    # divisor arithmetic at every degree e <= e_max: only h0_bound moves with
    # e, by e_max - e, so the checker's h0_bound >= lambda + C^2/4 - e_max > 0
    # (proof (3)) gives lambda + C^2/4 - e > 0 at each e
    r = checked(CurveOnSurface(fan, ToricDivisor(fan, coeffs)))
    assert r.e_max >= 1
    for e in range(1, r.e_max + 1):
        v = condition_verdicts(r.positive_rep, r.interp_divisor, e)
        assert v.h0_bound == r.conditions.h0_bound + r.e_max - e
        assert v == dataclasses.replace(r.conditions, h0_bound=v.h0_bound)


def test_interpolation_conditions_oversized_divisor():
    fan = p2()
    v = condition_verdicts(ToricDivisor(fan, (2, 1, 1)), ToricDivisor(fan, (5, 0, 0)), 1)
    assert v.intersection_bound == FAIL  # 20 >= 16


def test_toric_report_quartic():
    fan = p2()
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (4, 0, 0))))
    assert r.lambda_value == Fraction(-1, 4)
    assert r.degree_bound == Fraction(16, 9)
    assert r.e_max == 1
    assert tuple(r.degB_table) == ((1, 3),)
    assert sum(r.interp_divisor.coeffs) == 1  # D ~ H
    assert r.hypothesis_verdicts["curve_ample"] == PASS
    assert r.hypothesis_verdicts["C_plus_K_positive"] == PASS


def test_toric_report_degree_nine():
    fan = p2()
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (9, 0, 0))))
    assert r.degree_bound == 9
    assert r.e_max == 8
    assert (r.e_max, r.CD - r.e_max) == (8, 19) and tuple(r.degB_table)[-1] == (8, 19)
    assert sum(r.interp_divisor.coeffs) == 3


def materialised(CD, e_max):
    """Oracle: the deg B table as a stored tuple of rows."""
    return tuple((e, CD - e) for e in range(1, e_max + 1))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.integers(-50, 10**30),
    st.integers(-3, 40),
    st.integers(-3, 40),
    st.booleans(),
    st.data(),
)
def test_degb_table_matches_the_materialised_rows(CD, e_max, other_e_max, same_cd, data):
    view, rows = DegBTable(CD, e_max), materialised(CD, e_max)
    assert tuple(view) == rows and bool(view) is bool(rows)
    assert jsonable(view) == jsonable(rows)
    # the rows decide the two numbers, so a table compares and hashes by them
    other_CD = CD if same_cd else CD + data.draw(st.integers(1, 3))
    other = DegBTable(other_CD, other_e_max)
    want = rows == materialised(other_CD, other_e_max)
    assert ((view.CD, view.e_max) == (other.CD, other.e_max)) is want
    assert (view == other) is want and (view != other) is not want
    assert not want or hash(view) == hash(other)
    assert view != rows and view != list(rows)  # a table equals only a table
    # the repr names the two numbers and lists no row; every empty table is one table
    CD, e_max = (CD, e_max) if rows else (0, 0)
    assert repr(view) == f"DegBTable(CD={CD}, e_max={e_max})"


def test_the_empty_degb_table():
    for view in (DegBTable(), DegBTable(27, 0), DegBTable(-4, -2), DegBTable(CD=5, e_max=-1)):
        assert not view and tuple(view) == () and jsonable(view) == []
        assert view == DegBTable() and hash(view) == hash(DegBTable()) and view != ()
        assert (view.CD, view.e_max) == (0, 0) and repr(view) == "DegBTable(CD=0, e_max=0)"
    assert dataclasses.replace(DegBTable(27, 8), e_max=0) == DegBTable()
    f1 = hirzebruch(1)
    r = toric_theorem_report(CurveOnSurface(f1, ToricDivisor(f1, (0, 1, 0, 0))))
    assert r.e_max is None and r.degB_table == DegBTable() and not r.degB_table
    assert r.degB_table is lowdeg._NO_TABLE  # a report without an e_max builds no table


def test_a_huge_degb_table_is_read_without_len():
    e_max = 10**23
    view = DegBTable(10**24, e_max)
    assert view and list(itertools.islice(view, 2)) == [(1, 10**24 - 1), (2, 10**24 - 2)]
    assert view != DegBTable(10**24, e_max - 1) and view == DegBTable(10**24, e_max)
    assert len({view, DegBTable(10**24, e_max), DegBTable(10**24 + 1, e_max)}) == 2
    assert repr(view) == f"DegBTable(CD={10**24}, e_max={e_max})" and len(repr(view)) < 100
    # a record of two numbers, not a sequence of its rows
    assert not isinstance(view, collections.abc.Sequence) and not hasattr(view, "__len__")
    assert not hasattr(view, "__getitem__")
    with pytest.raises(TypeError):
        len(view)
    with pytest.raises(dataclasses.FrozenInstanceError):
        view.e_max = 3
    for table in (view, DegBTable()):
        assert copy.deepcopy(table) == pickle.loads(pickle.dumps(table)) == table
    for bad in ((27.0, 8), (27, Fraction(8)), (27, True), (None, 8), (27, -1.0)):
        with pytest.raises(ContractViolation):
            DegBTable(*bad)


# One tracemalloc peak bound for every class below: the report's memory
# does not grow with the class (a stored table of 10^3 H took 14 MB).
REPORT_PEAK_BYTES = 64 * 1024


def traced_peak(work):
    tracemalloc.start()
    try:
        result = work()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [10, 10**3, 10**12, 10**100])
def test_a_report_on_p2_is_the_same_size_for_every_degree(k):
    fan = p2()
    curve = CurveOnSurface(fan, ToricDivisor(fan, (k, 0, 0)))
    r, peak = traced_peak(lambda: toric_theorem_report(curve))
    assert peak < REPORT_PEAK_BYTES
    assert r.e_max == (k * k - 1) // 9 and r.CD == (k // 2 - 1) * k
    assert r.degB_table == DegBTable(r.CD, r.e_max)
    assert next(iter(r.degB_table)) == (1, r.CD - 1)


def test_a_report_on_4096_blowups_of_p2_fits_in_memory():
    C, _ = polygon_class(blown_up_p2(random.Random(4096), 4096), [1] * 4096)
    r, peak = traced_peak(lambda: toric_theorem_report(CurveOnSurface(C.fan, C)))
    # about 1.5 MB, all of it O(n) lists; the rows would be 10^11 tuples
    assert peak < 8 * 1024 * 1024
    assert r.hypothesis_verdicts["curve_ample"] == PASS and r.e_max > 10**10
    assert r.degB_table == DegBTable(r.CD, r.e_max)


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


@pytest.mark.parametrize(
    "d, bound, e_max",
    [(1, 0, None), (2, Fraction(4, 9), None), (3, 1, None), (4, Fraction(16, 9), 1)],
)
def test_e_max_is_the_largest_positive_degree_strictly_below_the_bound(d, bound, e_max):
    fan = p2()
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (d, 0, 0))))
    assert (r.degree_bound, r.e_max) == (bound, e_max)


def test_classes_that_are_not_ample_get_verdicts_and_no_interpolation():
    # 2 C.D = C^2 - C.R bounds C.D by C^2/2 only for nef C: on F2, 9C0+7F
    # has a positive representation whose D raised InternalInconsistency,
    # and on F1, 8C0+5F printed C.D = -1
    for m, a, b in [(2, 9, 7), (1, 8, 5)]:
        fan = hirzebruch(m)
        r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (b, a, 0, 0))))
        assert r.hypothesis_verdicts["curve_ample"] == FAIL
        assert r.positive_rep is not None
        assert (r.interp_divisor, r.CD, r.conditions, r.degB_table) == (None, None, None, DegBTable())
    # every class aC0 + bF on F0-F4 with a, b in -3..11
    for m, a, b in itertools.product(range(5), range(-3, 12), range(-3, 12)):
        fan = hirzebruch(m)
        checked(CurveOnSurface(fan, ToricDivisor(fan, (b, a, 0, 0))))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.data())
def test_a_report_on_any_class_raises_nothing(fan, data):
    coeffs = data.draw(st.lists(st.integers(-10, 20), min_size=fan.n, max_size=fan.n))
    mults = data.draw(st.lists(st.integers(2, 3), max_size=2))
    checked(CurveOnSurface(fan, ToricDivisor(fan, tuple(coeffs)), tuple(mults)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.data())
def test_the_three_conditions_hold_on_every_ample_class_with_an_e_max(fan, data):
    # the checker asserts the inequalities behind the verdicts, as proved in
    # the ConditionVerdicts docstring
    lengths = data.draw(st.lists(st.integers(1, 6), min_size=fan.n, max_size=fan.n))
    m = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    mults = tuple(data.draw(st.lists(st.integers(2, 3), max_size=2)))
    C = polygon_class(fan, lengths)[0] + principal_divisor(fan, m)
    assume(checked(CurveOnSurface(fan, C, mults)).conditions is not None)


def test_the_section_bound_is_lambdas_objective_at_the_odd_rays():
    """4 h0_bound - 8 - C^2 + 4 e_max is R.(2K + R) for R = C_rep - 2D, the
    sum of the D_j where C_rep is odd: the full pairing's objective at that
    subset, no less than its minimum over all subsets, 4 lambda - 8.  On
    ample classes on seeded blowups at every arc start; in some, the odd
    rays include both ray n-1 and ray 0, which neighbour each other."""
    rng = random.Random(71)
    checked = wrapped = 0
    while checked < 300:
        fan = random_blowup(rng)
        m = (rng.randint(-9, 9), rng.randint(-9, 9))
        C = polygon_class(fan, [rng.randint(1, 4) for _ in range(fan.n)])[0] * rng.randint(1, 3)
        r = toric_theorem_report(CurveOnSurface(fan, C + principal_divisor(fan, m)))
        if r.conditions is None:
            continue
        odd = tuple(j for j, c in enumerate(r.positive_rep.coeffs) if c % 2)
        RK = 4 * r.conditions.h0_bound - 8 - r.C2 + 4 * r.e_max
        assert RK == subset_objective(fan)(odd) >= 4 * r.lambda_value - 8
        checked += 1
        wrapped += {0, fan.n - 1} <= set(odd)
    assert wrapped == 141


def _invariants(rays, coeffs, mults):
    fan = build_fan(rays)
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, coeffs), mults))
    return r.lambda_value, r.C2, r.blowup_C2, r.degree_bound, r.e_max, r.hypothesis_verdicts


def test_the_reports_invariants_do_not_depend_on_the_coordinates():
    """lambda, C^2, C~^2, the degree bound, e_max and the verdicts describe
    (S, C): they are the same on the fan moved by each SL(2, Z) generator,
    with the same coefficients, and on the ray list rotated with its
    coefficients.  C.D and the section bound are left out: they read the
    lex-min point of P_{C+K}, which moves with the coordinates."""
    rng = random.Random(79)
    seen = set()
    for _ in range(300):
        fan = random_blowup(rng)
        C = polygon_class(fan, [rng.randint(1, 6) for _ in range(fan.n)])[0]
        mults = tuple(rng.randint(2, 4) for _ in range(rng.randint(0, 2)))
        want = _invariants(fan.rays, C.coeffs, mults)
        for a, b, c, d in GENERATORS:
            moved = [(a * x + b * y, c * x + d * y) for x, y in fan.rays]
            assert _invariants(moved, C.coeffs, mults) == want
        for k in range(1, fan.n):
            rotated = fan.rays[k:] + fan.rays[:k]
            assert _invariants(rotated, C.coeffs[k:] + C.coeffs[:k], mults) == want
        seen.add((len(mults), want[4] is None, want[5]["blowup_ample"]))
    # 0, 1 and 2 multiplicities, an e_max or none, certified or not
    assert [len({case[i] for case in seen}) for i in range(3)] == [3, 2, 2]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.data())
def test_h0_of_half_a_class_counts_the_even_points_of_its_polygon(fan, data):
    """h0(floor(E/2)) = #(P_E in 2Z^2) for every integral E.

    For integers t = <m, u_i> and e = e_i, t >= -floor(e/2) holds exactly
    when 2t >= -e: -floor(e/2) = ceil(-e/2), and an integer is >= -e/2
    exactly when it is >= ceil(-e/2).  So m lies in P_{floor(E/2)} exactly
    when 2m lies in P_E."""
    coeffs = data.draw(st.lists(st.integers(-12, 12), min_size=fan.n, max_size=fan.n))
    E = ToricDivisor(fan, tuple(coeffs))
    doubled = [((2 * ux, 2 * uy), c) for (ux, uy), c in E.halfplanes]  # {q : 2q in P_E}
    even = class_count(*_polygon(fan, coeffs), (0, 0))
    assert cohomology(halved(E)).h0 == geometry.count_lattice_points(doubled) == even


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.data())
def test_the_reports_h1_is_a_class_count_of_its_clip_on_ample_classes(fan, data):
    """The report states surjectivity by proof, as h1(D - C_rep) = 0; the
    class count of its one clip of P_{C+K} gives the same h1 as
    cohomology(D - C_rep), which clips P_{D - C_rep} and P_{K - D + C_rep}.

    For C_rep = sum c_i D_i with every c_i >= 1 and D = floor(C_rep/2):
    - D - C_rep has the coefficients floor(c_i/2) - c_i = -ceil(c_i/2) <= -1.
      Every offset of P_{D-C} is then >= 1; the rays span the plane
      positively, so sum w_i u_i = 0 for some w_i > 0, and an m in P_{D-C}
      would give 0 = sum w_i <m, u_i> >= sum w_i > 0.  So h0(D - C) = 0.
    - K - D + C_rep has the coefficients -1 - floor(c/2) + c = ceil(c/2) - 1
      = floor((c - 1)/2), so K - D + C_rep = floor(rep0/2) for
      rep0 = C_rep + K.
    - C_rep = C + div(chi^m) for the lex-min point m of P_{C+K}, so
      rep0 = C + K + div(chi^m), and p is in P_{rep0} exactly when
      <p + m, u_i> >= -(C + K)_i: P_{rep0} = P_{C+K} - m.
    So h2(D - C) = h0(floor(rep0/2)) counts the points of P_{C+K} - m in
    2Z^2, the points of P_{C+K} congruent to m mod 2."""
    lengths = data.draw(st.lists(st.integers(1, 6), min_size=fan.n, max_size=fan.n))
    shift = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    C = polygon_class(fan, lengths)[0] + principal_divisor(fan, shift)
    r = toric_theorem_report(CurveOnSurface(fan, C))
    assume(r.conditions is not None)
    rep, D, K = r.positive_rep, r.interp_divisor, canonical_divisor(fan)
    assert all(d == -((c + 1) // 2) <= -1 for c, d in zip(rep.coeffs, (D - rep).coeffs))
    assert cohomology(D - rep).h0 == 0
    assert K - D + rep == halved(rep + K)
    CK = C + K
    m = geometry.lexmin_lattice_point(CK.halfplanes)
    assert rep + K == CK + principal_divisor(fan, m)
    assert geometry.lexmin_lattice_point((rep + K).halfplanes) == (0, 0)
    assert geometry.count_lattice_points((rep + K).halfplanes) == cohomology(CK).h0
    assert class_count(*_polygon(fan, CK.coeffs), m) == cohomology(D - rep).h2
    assert r.conditions.surjectivity == PASS and cohomology(D - rep).h1 == 0


# every class aC0 + bF on F_1 that is not nef, has a positive
# representation and has h1(D - C) > 0, for 3 <= b < a <= 9
F1_SURJECTIVITY_FAILS = [
    (6, 3), (7, 3), (7, 4), (8, 3), (8, 4), (8, 5),
    (9, 3), (9, 4), (9, 5), (9, 6),
]


def _report_h1_against_cohomology(C):
    # h1(D - C_rep) by the class count on the positive representation of C
    # (h0 = 0, and h2 the points of the clip of P_{C+K} in the lex-min point's
    # class mod 2), and by cohomology
    clip = _polygon(C.fan, [c - 1 for c in C.coeffs])
    rep = positive_rep(C)
    D = halved(rep)
    got = class_count(*clip, geometry._lexmin(*clip)) - euler_characteristic(D - rep)
    assert got == cohomology(D - rep).h1
    return got


def test_the_class_count_gives_h1_where_surjectivity_fails():
    """The class count's identity for h1(D - C_rep) holds for every positive
    representation, nef or not (see the ample test above for its proof):
    checked on every class aC0 + bF on F_0..F_3 with a, b in -2..11 that is
    not nef and has a positive representation, F1 8C0+5F among them."""
    positive = 0
    for m, a, b in itertools.product(range(4), range(-2, 12), range(-2, 12)):
        C = ToricDivisor(hirzebruch(m), (b, a, 0, 0))
        if positivity(C) is Positivity.NOT_NEF and positive_rep(C):
            positive += _report_h1_against_cohomology(C) > 0
    assert positive == 124
    f1 = hirzebruch(1)
    assert [
        (a, b)
        for a, b in itertools.product(range(3, 10), range(3, 10))
        if b < a and _report_h1_against_cohomology(ToricDivisor(f1, (b, a, 0, 0))) > 0
    ] == F1_SURJECTIVITY_FAILS
    assert _report_h1_against_cohomology(ToricDivisor(f1, (5, 8, 0, 0))) == 1


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.data())
def test_the_class_count_gives_h1_on_classes_that_are_not_nef(fan, data):
    coeffs = data.draw(st.lists(st.integers(-3, 9), min_size=fan.n, max_size=fan.n))
    C = ToricDivisor(fan, tuple(coeffs))
    assume(positivity(C) is Positivity.NOT_NEF and positive_rep(C))
    _report_h1_against_cohomology(C)


def _checked_branch(C, mults):
    """Which branch the report on C took, once the report checker finds no
    fault in it."""
    r = checked(CurveOnSurface(C.fan, C, mults))
    if r.interp_divisor is None:
        return "not ample" if r.positive_rep is not None else "no representation"
    return "no e_max" if r.conditions is None else "conditions"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(blowup_fans(), st.booleans(), st.data())
def test_the_reports_numbers_match_divisor_arithmetic(fan, polygon, data):
    """The report checker, `selftest._report_fault`, on every branch of the
    report: ample classes come from polygons; other draws are arbitrary, so
    most are not ample or have no e_max."""
    if polygon:
        lengths = data.draw(st.lists(st.integers(1, 5), min_size=fan.n, max_size=fan.n))
        shift = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        C = polygon_class(fan, lengths)[0] + principal_divisor(fan, shift)
    else:
        coeffs = data.draw(st.lists(st.integers(-4, 12), min_size=fan.n, max_size=fan.n))
        C = ToricDivisor(fan, tuple(coeffs))
    mults = tuple(data.draw(st.lists(st.integers(2, 6), max_size=2)))
    _checked_branch(C, mults)


@pytest.mark.parametrize(
    "rays, coeffs, mults, branch",
    [
        ([(1, 0), (0, 1), (-1, -1)], (9, 0, 0), (), "conditions"),
        ([(1, 0), (0, 1), (-1, -1)], (9, 0, 0), (2, 3), "conditions"),
        ([(1, 0), (0, 1), (-1, -1)], (9, 0, 0), (6, 6), "no e_max"),
        ([(1, 0), (0, 1), (-1, 1), (0, -1)], (27, 26, 0, 0), (), "conditions"),
        ([(1, 0), (0, 1), (-1, 1), (0, -1)], (5, 8, 0, 0), (2,), "not ample"),
        ([(1, 0), (0, 1), (-1, 2), (0, -1)], (7, 9, 0, 0), (), "not ample"),
        ([(1, 0), (0, 1), (-1, -1)], (3, 0, 0), (), "no representation"),
        ([(1, 0), (0, 1), (-1, -1)], (5, 0, 0), (3, 3), "no e_max"),
    ],
)
def test_the_reports_numbers_match_divisor_arithmetic_on_each_branch(rays, coeffs, mults, branch):
    C = ToricDivisor(build_fan(rays), coeffs)
    assert _checked_branch(C, mults) == branch


@pytest.mark.parametrize("d", range(4, 61))
def test_p2_interpolation_degree_closed_form(d):
    fan = p2()
    r = checked(CurveOnSurface(fan, ToricDivisor(fan, (d, 0, 0))))  # with 2 C.D <= C^2
    assert sum(r.interp_divisor.coeffs) == d // 2 - 1


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


def test_the_report_pairs_each_class_once_and_finds_its_point_in_one_probe():
    fan = p2()
    curve = CurveOnSurface(fan, ToricDivisor(fan, (70, 0, 0)), (3,))
    counts = count_calls(
        lambda: toric_theorem_report(curve),
        intersect_primes,
        positivity,
        ToricDivisor.__post_init__,
        lowdeg.LambdaResult.__init__,
        geometry._columns,
        geometry._clip,
        geometry._envelope,
        cohomology,
        lower_arc_start,
        lowdeg._multiplicities,
        Fraction.__new__,
    )
    # built: the pairing vector p of C, which C_rep shares (C.D = d.p, and
    # R.(2K + R) is lambda's objective at the rays where C_rep is odd), and
    # the two divisors returned, C_rep and D, made from checked ints and not
    # checked again; lambda's value and subset come with no record; ampleness and the Seshadri
    # bound both read min(p), so no class is classified; C + K = 67H is nef,
    # read off p, so its lex-min point is the vertex of the cone at the fan's
    # arc start and nothing is clipped or counted, as h1(D - C) = 0
    # is stated by proof; the Fractions are lambda, the
    # degree bound and the h0 bound, each built once from ints; the
    # multiplicities were checked when the curve was made, and C~^2 reads
    # them as they are
    assert counts == {
        "intersect_primes": 1,
        "positivity": 0,
        "ToricDivisor.__post_init__": 0,
        "LambdaResult.__init__": 0,
        "_columns": 0,
        "_clip": 0,
        "_envelope": 0,
        "cohomology": 0,
        "lower_arc_start": 0,
        "_multiplicities": 0,
        "Fraction.__new__": 3,
    }


@pytest.mark.parametrize(
    "fan, coeffs, clips",
    [
        (p2(), (3, 0, 0), 0),  # C + K = 0: nef, not ample, and principal
        (hirzebruch(1), (4, 2, 0, 0), 0),  # 2C0 + 4F: C + K = F, nef, not ample
        (hirzebruch(1), (5, 8, 0, 0), 1),  # 8C0 + 5F: C + K is not nef, yet effective
        (hirzebruch(1), (1, 1, 0, 0), 1),  # C0 + F: C + K = -C0 - 2F, not effective
        (hirzebruch(1), (2, 1, 0, 0), 0),  # C0 + 2F, ample: C + K = -C0 - F, not effective
    ],
)
def test_the_report_clips_only_where_c_plus_k_is_not_nef_and_c_is_not_ample(fan, coeffs, clips):
    """P_{C+K} of a nef C + K is read from its cone vertices, with no clip
    and no column count; for an ample C, a C + K that is not nef is not
    effective, so it is not clipped either; any other C + K is clipped
    once.  The positive representation is the shift by the checked clip's
    lex-min point."""
    C = ToricDivisor(fan, coeffs)
    CK = C + canonical_divisor(fan)
    nef, ample = min(intersect_primes(CK)) >= 0, positivity(C) is Positivity.AMPLE
    assert (nef or ample) == (clips == 0)
    reports = []
    counts = count_calls(
        lambda: reports.append(toric_theorem_report(CurveOnSurface(fan, C))),
        geometry._clip,
        geometry._envelope,
        geometry._columns,
    )
    assert counts["_clip"] == clips and counts["_envelope"] == 2 * clips
    assert clips or counts["_columns"] == 0
    m = geometry.lexmin_lattice_point(CK.halfplanes)
    rep = None if m is None else C + principal_divisor(fan, m)
    assert reports[0].positive_rep == (rep if rep and max(rep.coeffs) > 1 else None)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.booleans(), st.data())
def test_the_degree_bound_and_e_max_match_the_fraction_oracle(fan, polygon, data):
    if polygon:
        lengths = data.draw(st.lists(st.integers(1, 4), min_size=fan.n, max_size=fan.n))
        C = polygon_class(fan, lengths)[0]
    else:
        coeffs = data.draw(st.lists(st.integers(-10, 20), min_size=fan.n, max_size=fan.n))
        C = ToricDivisor(fan, tuple(coeffs))
    mults = tuple(data.draw(st.lists(st.integers(2, 7), max_size=3)))
    checked(CurveOnSurface(fan, C, mults))


@pytest.mark.parametrize(
    "fan, coeffs, mults, bound, e_max",
    [
        (p2(), (9, 0, 0), (), 9, 8),  # bl2/9 = 81/9
        (p2(), (6, 0, 0), (3,), 3, 2),  # bl2/9 = 27/9
        (p2(), (3, 0, 0), (3,), 0, None),
        (p2(), (3, 0, 0), (2, 2), Fraction(1, 9), None),
        (hirzebruch(11), (15, 1, 0, 0), (), 2, 1),  # C^2/4 + lambda = 2 < 19/9
        (hirzebruch(10), (14, 1, 0, 0), (), 2, 1),  # both terms are 2
    ],
)
def test_an_integral_degree_bound_keeps_e_max_strictly_below_it(fan, coeffs, mults, bound, e_max):
    r = checked(CurveOnSurface(fan, ToricDivisor(fan, coeffs), mults))
    assert (r.degree_bound, r.e_max) == (bound, e_max)


def wall_squares(rays):
    """(-b_i) from the wall relations u_{i-1} + u_{i+1} = b_i u_i, with b_i
    read off a nonzero coordinate of u_i and the relation checked whole."""
    n, squares = len(rays), []
    for i, u in enumerate(rays):
        s = tuple(a + c for a, c in zip(rays[i - 1], rays[(i + 1) % n]))
        j = 0 if u[0] else 1
        b = s[j] // u[j]
        assert (b * u[0], b * u[1]) == s
        squares.append(-b)
    return tuple(squares)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(blowup_fans(), st.data())
def test_the_fan_keeps_the_start_the_check_finds(fan, data):
    # plain attributes, so pickle, copy and replace carry or recompute them
    want = geometry._checked_start([(u, 0) for u in fan.rays])
    squares = wall_squares(fan.rays)
    assert fan._arc_start == want and fan.self_intersections == squares
    for name in ("_arc_start", "self_intersections"):
        assert name not in {f.name for f in dataclasses.fields(fan)}
        assert name not in repr(fan)
    others = [pickle.loads(pickle.dumps(fan)), copy.copy(fan), copy.deepcopy(fan)]
    others += [dataclasses.replace(fan), dataclasses.replace(fan, name="S")]
    for other in others:
        assert other.rays == fan.rays and other._arc_start == want
        assert other.self_intersections == squares
    k = data.draw(st.integers(0, fan.n - 1))
    rotated = dataclasses.replace(fan, rays=fan.rays[k:] + fan.rays[:k])
    assert rotated._arc_start == geometry._checked_start([(u, 0) for u in rotated.rays])
    assert rotated._arc_start == (want - k) % fan.n
    assert rotated.self_intersections == squares[k:] + squares[:k]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.data())
def test_chi_and_the_h0_bound_match_the_pairing_formulas(fan, data):
    def divisor(lo, hi):
        coeffs = data.draw(st.lists(st.integers(lo, hi), min_size=fan.n, max_size=fan.n))
        return ToricDivisor(fan, tuple(coeffs))

    C, E = divisor(-9, 9), divisor(-9, 9)
    K = canonical_divisor(fan)
    num = intersection_number(E, E) - intersection_number(K, E)
    assert num % 2 == 0
    assert exact(euler_characteristic(E), 1 + num // 2)
    # the report's numbers from C's pairings and the coefficients, on any C:
    # C.D = d.p for D = floor(C/2), and R = C - 2D sums the D_j where C is odd,
    # so R.(2K + R) is lambda's objective at that subset
    D = halved(C)
    R = C - 2 * D
    odd = [j for j, c in enumerate(C.coeffs) if c % 2]
    assert exact(sum(d * p for d, p in zip(D.coeffs, intersect_primes(C))), intersection_number(C, D))
    assert subset_value(wall_numbers(fan.rays), odd) == intersection_number(R, 2 * K + R)


def test_a_class_on_another_fan_with_as_many_rays_is_refused():
    C = ToricDivisor(hirzebruch(1), (3, 2, 1, 1))
    D = ToricDivisor(hirzebruch(2), (1, 1, 0, 0))
    for call in (intersection_number, ToricDivisor.__add__, ToricDivisor.__sub__):
        with pytest.raises(FanMismatch):
            call(C, D)
    with pytest.raises(FanMismatch):
        CurveOnSurface(hirzebruch(2), C)
