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
    blowup_self_intersection,
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
    positive_curve_representation,
    positivity,
    principal_divisor,
    toric_theorem_report,
)
from toricpoints import geometry, lowdeg
from toricpoints.cli import jsonable
from toricpoints.divisor import intersect_primes
from toricpoints.errors import ContractViolation, FanMismatch
from toricpoints.lowdeg import CERTIFIED, FAIL, NOT_CERTIFIED, PASS
from toricpoints.lowdeg import _positive_representation

from conftest import count_calls
from test_divisor import classes_equal

FANS = [p2(), hirzebruch(1), hirzebruch(2), p1xp1()]


def arithmetic_genus(C):
    """Oracle: p_a = 1 + (K + C).C / 2 by adjunction."""
    num = intersection_number(canonical_divisor(C.fan) + C, C)
    assert num % 2 == 0
    return 1 + num // 2


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


def intersection_matrix(fan):
    """Oracle: the dense n x n pairing of prime divisors.  D_i.D_j is 1 for
    cyclic neighbours, 0 for other i != j, and D_i^2 = -b_i."""
    n = fan.n
    b = wall_numbers(fan.rays)
    return [
        [-b[i] if i == j else int((i - j) % n in (1, n - 1)) for j in range(n)]
        for i in range(n)
    ]


def subset_scan(fan):
    """Oracle: the least (val, |R|, R) over all 2^n subsets R, with val taken
    from the full intersection pairing.  Returns (val, R)."""
    n = fan.n
    M = intersection_matrix(fan)
    kdot = [-sum(M[i][j] for i in range(n)) for j in range(n)]  # K.D_j
    best = None
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            e2 = sum(M[i][j] for i in subset for j in subset)
            val = e2 + 2 * sum(kdot[i] for i in subset)
            key = (val, r, subset)
            if best is None or key < best:
                best = key
    return best[0], best[2]


def wall_numbers(rays):
    # u_{i-1} + u_{i+1} = b_i u_i and det(u_i, u_{i+1}) = 1 give
    # b_i = det(u_{i-1}, u_{i+1})
    n = len(rays)
    return [
        rays[i - 1][0] * rays[(i + 1) % n][1] - rays[i - 1][1] * rays[(i + 1) % n][0]
        for i in range(n)
    ]


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


# Generators of SL(2, Z); det 1 keeps the rays counterclockwise.
GENERATORS = [(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (1, 0, -1, 1), (0, -1, 1, 0)]


@st.composite
def blowup_fans(draw):
    """P^2 or F_m after up to 14 rays' worth of random blowups, under a
    random SL(2, Z) image and a random rotation of the ray list."""
    m = draw(st.integers(0, 6))
    rays = draw(st.sampled_from([[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, m), (0, -1)]]))
    for _ in range(draw(st.integers(0, 14 - len(rays)))):
        rays = subdivide(rays, draw(st.integers(0, len(rays) - 1)))
    for a, b, c, d in draw(st.lists(st.sampled_from(GENERATORS), max_size=4)):
        rays = [(a * x + b * y, c * x + d * y) for x, y in rays]
    k = draw(st.integers(0, len(rays) - 1))
    return build_fan(rays[k:] + rays[:k])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(blowup_fans())
def test_lambda_matches_the_subset_scan(fan):
    res = lambda_invariant(fan)
    assert (res.inner_min, res.argmin_subset) == subset_scan(fan)
    assert res.value == 2 + Fraction(res.inner_min, 4)


def exact(value, want):
    """value equals want, and is an int."""
    return value == want and type(value) is int


def kleiman(pairings):
    if all(p > 0 for p in pairings):
        return Positivity.AMPLE
    if all(p >= 0 for p in pairings):
        return Positivity.NEF_NOT_AMPLE
    return Positivity.NOT_NEF


def polygon_class(fan, lengths):
    """Oracle: the class of a lattice polygon with D.D_j = lengths[j], once
    two adjacent lengths have grown by what closes the polygon.  The edge on
    ray u_j runs along (u_j.y, -u_j.x), so it closes when sum l_j u_j = 0.
    Returns the class and the final lengths."""
    rays, n = fan.rays, fan.n
    lengths = list(lengths)
    rx = -sum(l * u[0] for l, u in zip(lengths, rays))
    ry = -sum(l * u[1] for l, u in zip(lengths, rays))
    for k in range(n):
        (ux, uy), (vx, vy) = rays[k], rays[(k + 1) % n]
        alpha, beta = rx * vy - ry * vx, ux * ry - uy * rx  # r = alpha u_k + beta u_k+1
        if alpha >= 0 and beta >= 0:
            lengths[k] += alpha
            lengths[(k + 1) % n] += beta
            break
    # the vertex m_j on rays j and j+1 walks the edges from m_0 = 0
    mx = my = 0
    coeffs = []
    for j, (ux, uy) in enumerate(rays):
        if j:
            mx, my = mx + lengths[j] * uy, my - lengths[j] * ux
        coeffs.append(-(mx * ux + my * uy))
    return ToricDivisor(fan, tuple(coeffs)), lengths


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


def peeled_h0(D, A):
    """Oracle: h0(D) without a polygon, for an ample class A, by peeling the
    fixed components off D curve by curve (Zariski decomposition).  Returns
    h0 and the number of curves peeled."""
    fan, n = D.fan, D.fan.n
    M = intersection_matrix(fan)
    a = list(D.coeffs)
    for peeled in itertools.count():
        p = [sum(a[i] * M[i][j] for i in range(n)) for j in range(n)]  # D.D_j
        if sum(c * pj for c, pj in zip(A.coeffs, p)) < 0:
            return 0, peeled  # D.A < 0: not effective
        negative = [j for j in range(n) if p[j] < 0]
        if not negative:
            # nef, so h0 = chi = 1 + (D^2 - K.D)/2 by Demazure vanishing
            return 1 + (sum(ai * pi for ai, pi in zip(a, p)) + sum(p)) // 2, peeled
        j = negative[0]
        if M[j][j] >= 0:
            return 0, peeled  # D_j is nef and D.D_j < 0: not effective
        a[j] -= 1  # D_j^2 < 0 and D.D_j < 0: D_j lies in every member of |D|


@settings(derandomize=True, deadline=None, max_examples=200)
@given(blowup_fans(), st.data())
def test_h0_and_h2_match_the_peeling_oracle(fan, data):
    A, _ = polygon_class(fan, [1] * fan.n)  # every length >= 1: ample
    coeffs = data.draw(st.lists(st.integers(-6, 9), min_size=fan.n, max_size=fan.n))
    D = ToricDivisor(fan, tuple(coeffs))
    prof = cohomology(D)
    assert prof.h0 == peeled_h0(D, A)[0]
    assert prof.h2 == peeled_h0(canonical_divisor(fan) - D, A)[0]  # Serre duality


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
    halved = [Fraction(sum(c * M[i][j] for i, c in enumerate(C.coeffs)), 2) for j in range(fan.n)]
    half_ample = kleiman(halved) is Positivity.AMPLE
    assert half_ample == (r.hypothesis_verdicts["curve_ample"] == PASS)
    assert half_ample or not ample
    if r.conditions is not None:
        assert r.conditions.half_curve_ample == half_ample


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
    rep = positive_curve_representation(C)
    assert (rep is None) == (peeled_h0(CK, A)[0] == 0 or principal)
    if rep is not None:
        assert classes_equal(rep, C) and min(rep.coeffs) >= 1 and max(rep.coeffs) >= 2
        assert intersect_primes(rep) == intersect_primes(C)
        assert intersection_number(rep, rep) == intersection_number(C, C)
        r = toric_theorem_report(CurveOnSurface(fan, C))
        assert r.positive_rep == rep and exact(r.C2, intersection_number(rep, rep))


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
    # on P1xP1 both {0, 2} and {1, 3} reach -8; random blowups of P^2 and
    # F_m give many more ties between subsets with and without ray 0
    assert lambda_invariant(p1xp1()).argmin_subset == (0, 2)
    rng = random.Random(61)
    for _ in range(150):
        m = rng.randint(0, 4)
        rays = rng.choice([[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, m), (0, -1)]])
        n = rng.randint(3, 10)
        while len(rays) < n:
            rays = subdivide(rays, rng.randrange(len(rays)))
        k = rng.randrange(len(rays))
        fan = build_fan(rays[k:] + rays[:k])
        res = lambda_invariant(fan)
        assert (res.inner_min, res.argmin_subset) == subset_scan(fan)


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
        check_large(random_smooth_fan(rng, extra=n - 3))


@pytest.mark.parametrize("n", [25, 2000])
def test_lambda_has_no_ray_cap(n):
    check_large(random_smooth_fan(random.Random(47), extra=n - 3))


def test_lambda_p2():
    res = lambda_invariant(p2())
    assert res.value == Fraction(-1, 4)
    assert res.inner_min == -9


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 10**6])
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
    "cohomology of a tuple": lambda: cohomology((1, 0, 0)),
    "effective representative of a fan": lambda: effective_representative(p2()),
    "pairing with None": lambda: intersection_number(H, None),
    "pairing None with a class": lambda: intersection_number(None, H),
    "positivity of None": lambda: positivity(None),
    "euler characteristic of None": lambda: euler_characteristic(None),
    "positive representation of None": lambda: positive_curve_representation(None),
    "report of None": lambda: toric_theorem_report(None),
    "report of a class": lambda: toric_theorem_report(H),
    "report of a fan": lambda: toric_theorem_report(p2()),
    "class minus a tuple": lambda: H - (1, 0, 0),
    "cohomology of None": lambda: cohomology(None),
    "blowup C^2 a float": lambda: blowup_self_intersection(81.0, ()),
    "surface named None": lambda: builtin_surface(None),
    "blowup C^2 None": lambda: blowup_self_intersection(None, ()),
    "blowup multiplicities None": lambda: blowup_self_intersection(81, None),
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


def test_blowup_self_intersection():
    assert blowup_self_intersection(16, []) == 16
    assert blowup_self_intersection(100, [2, 2]) == 92
    assert blowup_self_intersection(728, [2]) == 724


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


def test_positive_curve_representation():
    fan = p2()
    # lex-min m for C + K = H is (-1, 0), giving shifted coefficients (0,0,1)
    rep = positive_curve_representation(ToricDivisor(fan, (4, 0, 0)))
    assert rep.coeffs == (1, 1, 2)
    rep9 = positive_curve_representation(ToricDivisor(fan, (9, 0, 0)))
    assert rep9.coeffs == (1, 1, 7)
    # cubic: C + K is principal, so "> 0" fails
    assert positive_curve_representation(ToricDivisor(fan, (3, 0, 0))) is None


def test_positive_representation_contract():
    rng = random.Random(53)

    checked = 0
    while checked < 60:
        fan = FANS[checked % len(FANS)]
        C = ToricDivisor(fan, tuple(rng.randint(1, 9) for _ in range(fan.n)))
        if positivity(C) is not Positivity.AMPLE:
            continue
        rep = positive_curve_representation(C)
        if rep is None:
            continue
        assert classes_equal(rep, C)
        assert all(a >= 1 for a in rep.coeffs)
        assert any(a >= 2 for a in rep.coeffs)
        checked += 1


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


def test_mainprop_bound_dominates_lambda_bound():
    # at a degree e the section bound is h0_bound + (e_max - e)
    rng = random.Random(59)

    checked = 0
    while checked < 60:
        fan = FANS[checked % len(FANS)]
        C = ToricDivisor(fan, tuple(rng.randint(1, 9) for _ in range(fan.n)))
        if positivity(C) is not Positivity.AMPLE:
            continue
        r = toric_theorem_report(CurveOnSurface(fan, C))
        if r.positive_rep is None:
            continue
        rest = r.positive_rep - r.interp_divisor - r.interp_divisor
        assert set(rest.coeffs) <= {0, 1}
        for e in (1, 3, 7):
            bound = r.conditions.h0_bound + r.e_max - e
            assert bound >= Fraction(r.C2, 4) + r.lambda_value - e
        assert 2 * r.CD <= r.C2
        checked += 1


def verdicts_of(C_rep, D, e):
    """Oracle: the report's verdicts on the numbers of any C_rep, D and e, by
    divisor arithmetic, for a D that is not the report's floor(C_rep/2)."""
    K, R, C2 = canonical_divisor(C_rep.fan), C_rep - D - D, intersection_number(C_rep, C_rep)
    bound = Fraction(intersection_number(R, K + K + R), 4) + 2 + Fraction(C2, 4) - e
    h1 = cohomology(D - C_rep).h1
    return lowdeg._verdicts(intersection_number(C_rep, D), C2, h1, bound, intersect_primes(C_rep))


def test_interpolation_conditions_quartic():
    fan = p2()
    v = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (4, 0, 0)))).conditions
    assert (v.intersection_bound, v.surjectivity, v.section_lift) == (PASS, PASS, PASS)
    assert v.h1_D_minus_C == 0
    assert v.half_curve_ample
    assert verdicts_of(ToricDivisor(fan, (2, 1, 1)), ToricDivisor(fan, (1, 0, 0)), 1) == v


@pytest.mark.parametrize(
    "fan, coeffs",
    [(p2(), (4, 0, 0)), (p2(), (9, 0, 0)), (p1xp1(), (5, 4, 0, 0)), (hirzebruch(1), (9, 6, 0, 0)),
     (hirzebruch(2), (12, 5, 0, 0))],
)
def test_the_section_bound_at_each_degree_is_h0_bound_plus_e_max_minus_e(fan, coeffs):
    # divisor arithmetic at every degree e <= e_max: only h0_bound moves with
    # e, and proof (3) keeps it above lambda + C^2/4 - e > 0
    r = toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, coeffs)))
    assert r.e_max >= 1
    for e in range(1, r.e_max + 1):
        v = verdicts_of(r.positive_rep, r.interp_divisor, e)
        assert v.h0_bound == r.conditions.h0_bound + r.e_max - e
        assert v.h0_bound >= r.lambda_value + Fraction(r.C2, 4) - e > 0
        assert v == dataclasses.replace(r.conditions, h0_bound=v.h0_bound)


def test_interpolation_conditions_oversized_divisor():
    fan = p2()
    v = verdicts_of(ToricDivisor(fan, (2, 1, 1)), ToricDivisor(fan, (5, 0, 0)), 1)
    assert v.intersection_bound == FAIL  # 20 >= 16


def test_interpolation_conditions_f1_counterexample():
    f1 = hirzebruch(1)
    C = ToricDivisor(f1, (27, 26, 0, 0))
    D = ToricDivisor(f1, (3, 1, 0, 0))
    v = verdicts_of(C, D, 79)
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
    assert tuple(view) == rows and tuple(reversed(view)) == rows[::-1]
    assert bool(view) is bool(rows) and len(view) == len(rows)
    for i in range(-len(rows) - 2, len(rows) + 2):
        if -len(rows) <= i < len(rows):
            assert view[i] == rows[i]
        else:
            with pytest.raises(IndexError):
                view[i]
    bounds, steps = st.none() | st.integers(-45, 45), st.none() | st.integers(-5, 5).filter(bool)
    s = slice(data.draw(bounds), data.draw(bounds), data.draw(steps))
    assert view[s] == rows[s]
    other_CD = CD if same_cd else CD + data.draw(st.integers(1, 3))
    other = materialised(other_CD, other_e_max)
    want = rows == other
    for a, b in ((view, other), (other, view), (view, DegBTable(other_CD, other_e_max))):
        assert (a == b) is want and (a != b) is not want
    assert view != list(rows)  # as for a tuple, a list is never equal
    if rows:
        assert view != tuple(map(list, rows))
    assert all(row in view for row in rows[:3]) and (0, CD) not in view
    assert jsonable(view) == jsonable(rows)
    # the repr names the two numbers and lists no row; every empty view is one view
    CD, e_max = (CD, e_max) if rows else (0, 0)
    assert repr(view) == f"DegBTable(CD={CD}, e_max={e_max})"


def test_the_empty_degb_table():
    for view in (DegBTable(), DegBTable(27, 0), DegBTable(-4, -2)):
        assert not view and tuple(view) == () and view == () and view == DegBTable()
        assert view[:] == () and list(reversed(view)) == [] and jsonable(view) == []
        with pytest.raises(IndexError):
            view[0]
    f1 = hirzebruch(1)
    r = toric_theorem_report(CurveOnSurface(f1, ToricDivisor(f1, (0, 1, 0, 0))))
    assert r.e_max is None and r.degB_table == () and not r.degB_table


def test_a_huge_degb_table_is_read_without_len():
    e_max = 10**23
    view = DegBTable(10**24, e_max)
    assert view and view[0] == (1, 10**24 - 1) and view[-1] == (e_max, 10**24 - e_max)
    assert view[-2:] == ((e_max - 1, 10**24 - e_max + 1), (e_max, 10**24 - e_max))
    assert next(iter(view)) == view[0]
    assert view != () and view != DegBTable(10**24, e_max - 1) and view == DegBTable(10**24, e_max)
    assert len(repr(view)) < 100
    with pytest.raises(OverflowError):
        len(view)
    with pytest.raises(AttributeError):
        view.e_max = 3
    with pytest.raises(TypeError):
        hash(view)
    assert copy.deepcopy(view) == pickle.loads(pickle.dumps(view)) == view
    for bad in ((27.0, 8), (27, Fraction(8)), (27, True), (None, 8)):
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
    assert r.degB_table[0] == (1, r.CD - 1)
    assert r.degB_table[-1] == (r.e_max, r.CD - r.e_max)


def test_a_report_on_4096_blowups_of_p2_fits_in_memory():
    rng = random.Random(4096)
    rays = [(1, 0), (0, 1), (-1, -1)]
    while len(rays) < 4096:
        rays = subdivide(rays, rng.randrange(len(rays)))
    C, _ = polygon_class(build_fan(rays), [1] * 4096)
    r, peak = traced_peak(lambda: toric_theorem_report(CurveOnSurface(C.fan, C)))
    # about 1.5 MB, all of it O(n) lists; the rows would be 10^11 tuples
    assert peak < 8 * 1024 * 1024
    assert r.hypothesis_verdicts["curve_ample"] == PASS and r.e_max > 10**10
    assert r.degB_table[-1] == (r.e_max, r.CD - r.e_max)


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


def _interpolation_is_gated_on_ampleness(r):
    ample = r.hypothesis_verdicts["curve_ample"] == PASS
    has_divisor = ample and r.positive_rep is not None
    assert (r.interp_divisor is not None, r.CD is not None) == (has_divisor, has_divisor)
    if r.conditions is not None or r.degB_table:
        assert has_divisor and r.e_max is not None
    if has_divisor:
        assert 2 * r.CD <= r.C2


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
        _interpolation_is_gated_on_ampleness(
            toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (b, a, 0, 0))))
        )


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.data())
def test_a_report_on_any_class_raises_nothing(fan, data):
    coeffs = data.draw(st.lists(st.integers(-10, 20), min_size=fan.n, max_size=fan.n))
    mults = data.draw(st.lists(st.integers(2, 3), max_size=2))
    C = ToricDivisor(fan, tuple(coeffs))
    _interpolation_is_gated_on_ampleness(toric_theorem_report(CurveOnSurface(fan, C, tuple(mults))))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.data())
def test_the_three_conditions_hold_on_every_ample_class_with_an_e_max(fan, data):
    # the inequalities behind the verdicts, as proved in the
    # ConditionVerdicts docstring
    lengths = data.draw(st.lists(st.integers(1, 6), min_size=fan.n, max_size=fan.n))
    m = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    mults = tuple(data.draw(st.lists(st.integers(2, 3), max_size=2)))
    C = polygon_class(fan, lengths)[0] + principal_divisor(fan, m)
    r = toric_theorem_report(CurveOnSurface(fan, C, mults))
    assume(r.e_max is not None and r.positive_rep is not None)
    c, lam, e = r.conditions, r.lambda_value, r.e_max
    R = r.positive_rep - r.interp_divisor - r.interp_divisor
    assert 2 * c.CD <= c.C2 == r.C2 and c.C2 > 9
    assert intersection_number(R, canonical_divisor(fan) * 2 + R) >= 4 * lam - 8
    assert c.h0_bound >= lam + Fraction(c.C2, 4) - e > 0
    assert c.h1_D_minus_C == cohomology(r.interp_divisor - C).h1 == 0
    assert (c.intersection_bound, c.surjectivity, c.section_lift) == (PASS, PASS, PASS)


def _halved(fan, coeffs):
    # floor(E/2) componentwise
    return ToricDivisor(fan, tuple(c // 2 for c in coeffs))


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
    even = geometry._class_count(*geometry._clip(E.halfplanes), (0, 0))
    assert cohomology(_halved(fan, coeffs)).h0 == geometry.count_lattice_points(doubled) == even


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.data())
def test_the_reports_h1_is_a_class_count_of_its_clip_on_ample_classes(fan, data):
    """The report takes h1(D - C_rep) from its one clip of P_{C+K}, where
    cohomology(D - C_rep) clips P_{D - C_rep} and P_{K - D + C_rep}.

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
    assert K - D + rep == _halved(fan, (rep + K).coeffs)
    CK = C + K
    m = geometry.lexmin_lattice_point(CK.halfplanes)
    assert rep + K == CK + principal_divisor(fan, m)
    assert geometry.lexmin_lattice_point((rep + K).halfplanes) == (0, 0)
    assert geometry.count_lattice_points((rep + K).halfplanes) == cohomology(CK).h0
    assert r.conditions.h1_D_minus_C == cohomology(D - rep).h1 == 0


# every class aC0 + bF on F_1 that is not nef, has a positive
# representation and has h1(D - C) > 0, for 3 <= b < a <= 9
F1_SURJECTIVITY_FAILS = [
    (6, 3), (7, 3), (7, 4), (8, 3), (8, 4), (8, 5),
    (9, 3), (9, 4), (9, 5), (9, 6),
]


def _report_h1_against_cohomology(C):
    # the report's h1 step on the positive representation of C (h0 = 0, and h2
    # the points of its clip of P_{C+K} in the lex-min point's class mod 2),
    # and the public one
    rep, clip, m = _positive_representation(C)
    D = _halved(C.fan, rep.coeffs)
    got = geometry._class_count(*clip, m) - euler_characteristic(D - rep)
    assert got == cohomology(D - rep).h1
    return got


def test_the_class_count_gives_h1_where_surjectivity_fails():
    """The identity behind the report's h1 holds for every positive
    representation, nef or not (see the ample test above for its proof):
    checked on every class aC0 + bF on F_0..F_3 with a, b in -2..11 that is
    not nef and has a positive representation, F1 8C0+5F among them."""
    positive = 0
    for m, a, b in itertools.product(range(4), range(-2, 12), range(-2, 12)):
        C = ToricDivisor(hirzebruch(m), (b, a, 0, 0))
        if positivity(C) is Positivity.NOT_NEF and positive_curve_representation(C):
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
    assume(positivity(C) is Positivity.NOT_NEF and positive_curve_representation(C))
    _report_h1_against_cohomology(C)


def _check_report_against_divisor_arithmetic(C, mults):
    """The report's numbers, recomputed from divisor objects: R = C_rep - 2D by
    subtraction for D = floor(C_rep/2), C.D and C^2 by intersection_number on
    C itself, the bound from R and K, and h1(D - C_rep) by cohomology.
    Returns which branch the class took."""
    fan = C.fan
    r = toric_theorem_report(CurveOnSurface(fan, C, mults))
    C2 = intersection_number(C, C)
    assert exact(r.C2, C2) and r.blowup_C2 == C2 - sum(d * d for d in mults)
    rep = r.positive_rep
    if positivity(C) is not Positivity.AMPLE or rep is None:
        assert (r.interp_divisor, r.CD, r.conditions) == (None, None, None)
        return "not ample" if rep is not None else "no representation"
    assert classes_equal(rep, C)
    D = ToricDivisor(fan, tuple(c // 2 for c in rep.coeffs))
    R = rep - D - D
    assert set(R.coeffs) <= {0, 1}
    CD = intersection_number(C, D)
    assert r.interp_divisor == D and exact(r.CD, CD)
    if r.e_max is None:
        assert r.conditions is None
        return "no e_max"
    K = canonical_divisor(fan)
    bound = Fraction(intersection_number(R, K + K + R), 4) + 2 + Fraction(C2, 4) - r.e_max
    h1 = cohomology(D - rep).h1
    c = r.conditions
    assert (c.CD, c.C2, c.h1_D_minus_C, c.h0_bound) == (CD, C2, h1, bound)
    assert (c.intersection_bound, c.surjectivity, c.section_lift) == tuple(
        PASS if holds else FAIL for holds in (CD < C2, h1 == 0, bound > 0)
    )
    return "conditions"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(blowup_fans(), st.booleans(), st.data())
def test_the_reports_numbers_match_divisor_arithmetic(fan, polygon, data):
    """An oracle for the report's pairing-vector arithmetic that shares none of
    it.  Ample classes come from polygons; other draws are arbitrary, so most
    are not ample or have no e_max."""
    if polygon:
        lengths = data.draw(st.lists(st.integers(1, 5), min_size=fan.n, max_size=fan.n))
        shift = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        C = polygon_class(fan, lengths)[0] + principal_divisor(fan, shift)
    else:
        coeffs = data.draw(st.lists(st.integers(-4, 12), min_size=fan.n, max_size=fan.n))
        C = ToricDivisor(fan, tuple(coeffs))
    mults = tuple(data.draw(st.lists(st.integers(2, 6), max_size=2)))
    _check_report_against_divisor_arithmetic(C, mults)


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
    assert _check_report_against_divisor_arithmetic(C, mults) == branch


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


def test_the_report_pairs_each_class_once_and_finds_its_point_in_one_probe():
    fan = p2()
    curve = CurveOnSurface(fan, ToricDivisor(fan, (70, 0, 0)), (3,))
    counts = count_calls(
        lambda: toric_theorem_report(curve),
        intersect_primes,
        ToricDivisor.__post_init__,
        geometry._columns,
        geometry._clip,
        geometry._envelope,
        cohomology,
    )
    # built: the pairing vector p of C, which C_rep shares (D's vector q
    # comes from the coefficients, and every other number is a dot product
    # of p and q), and the two divisors returned, C_rep and D; the one clip
    # is P_{C+K}'s, and its two column counts are the lex-min probe and
    # h2(D - C), the points of the clip congruent to the lex-min point mod 2
    assert counts == {
        "intersect_primes": 1,
        "ToricDivisor.__post_init__": 2,
        "_columns": 2,
        "_clip": 1,
        "_envelope": 2,
        "cohomology": 0,
    }


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blowup_fans(), st.data())
def test_chi_and_the_h0_bound_match_the_pairing_formulas(fan, data):
    def divisor(lo, hi):
        coeffs = data.draw(st.lists(st.integers(lo, hi), min_size=fan.n, max_size=fan.n))
        return ToricDivisor(fan, tuple(coeffs))

    C, D, E = divisor(-9, 9), divisor(-5, 5), divisor(-9, 9)
    K = canonical_divisor(fan)
    num = intersection_number(E, E) - intersection_number(K, E)
    assert num % 2 == 0
    assert exact(euler_characteristic(E), 1 + num // 2)
    # the report's body on any C and D: the section bound at degree e is (b - 4e)/4
    CD, C2, b = lowdeg._interpolation(C.coeffs, intersect_primes(C), D.coeffs, intersect_primes(D))
    R = C - 2 * D
    assert exact(CD, intersection_number(C, D)) and exact(C2, intersection_number(C, C))
    assert exact(b, intersection_number(R, 2 * K + R) + 8 + C2)


def test_a_class_on_another_fan_with_as_many_rays_is_refused():
    C = ToricDivisor(hirzebruch(1), (3, 2, 1, 1))
    D = ToricDivisor(hirzebruch(2), (1, 1, 0, 0))
    for call in (intersection_number, ToricDivisor.__add__, ToricDivisor.__sub__):
        with pytest.raises(FanMismatch):
            call(C, D)
    with pytest.raises(FanMismatch):
        CurveOnSurface(hirzebruch(2), C)
