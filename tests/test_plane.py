from fractions import Fraction
from math import ceil

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpoints import (
    CurveOnSurface,
    ToricDivisor,
    find_m,
    plane_theorem_report,
    sqrt_ceil_term,
    toric_theorem_report,
)
from toricpoints import plane
from toricpoints.errors import ContractViolation, HypothesisViolation, InternalInconsistency
from toricpoints.fan import p2
from toricpoints.lowdeg import CERTIFIED, PASS

from conftest import count_calls
from oracles import remark_squared


def sympy_ceil_term(d, delta):
    # independent exact oracle for ceil((d + sqrt(d^2 - 36 delta)) / 6)
    return int(sympy.ceiling((d + sympy.sqrt(d * d - 36 * delta)) / 6))


def test_sqrt_ceil_term_examples():
    assert sqrt_ceil_term(9, 0) == 3  # (9+9)/6 exactly
    assert sqrt_ceil_term(10, 2) == 3  # (10+sqrt(28))/6 ~ 2.55
    assert sqrt_ceil_term(8, 0) == 3  # 16/6 ~ 2.67


def test_sqrt_ceil_term_against_sympy():
    for d in range(4, 61):
        for delta in range(0, (d - 3) // 3 + 1):
            assert sqrt_ceil_term(d, delta) == sympy_ceil_term(d, delta)


def test_sqrt_ceil_term_is_smallest_admissible_t():
    # the defining search: smallest t with 6t >= d and (6t - d)^2 >= disc
    for d in range(0, 120):
        for delta in range(0, d * d // 36 + 1):
            t = -(-d // 6)
            while (6 * t - d) ** 2 < d * d - 36 * delta:
                t += 1
            assert sqrt_ceil_term(d, delta) == t


def test_sqrt_ceil_smooth_closed_form():
    for d in range(1, 100):
        assert sqrt_ceil_term(d, 0) == -(-d // 3)  # ceil(d/3)


def test_sqrt_ceil_hypothesis_violation():
    with pytest.raises(HypothesisViolation):
        sqrt_ceil_term(5, 1)  # 25 < 36


def terms(d, delta):
    """(e_bound, term1, term2), read at e = 0, where e_in_range fails and the
    report's deg B check cannot raise."""
    r = plane_theorem_report(d, delta, 0)
    return r.e_bound, r.term1, r.term2


def test_plane_degree_bound_examples():
    bound, term1, term2 = terms(8, 0)
    assert (bound, term1, term2) == (Fraction(15, 2), Fraction(64, 9), Fraction(15, 2))
    bound, term1, term2 = terms(9, 0)
    assert bound == term1 == term2 == 9  # the 3 | d equality case
    bound, term1, term2 = terms(10, 2)
    assert (bound, term1, term2) == (Fraction(92, 9), Fraction(92, 9), Fraction(19, 2))


@pytest.mark.parametrize("d, delta", [(4, 0), (8, 0), (9, 0), (10, 2), (12, 4), (40, 3), (100, 30)])
def test_the_reports_terms_match_their_closed_forms_at_any_e(d, delta):
    # term1 = (d^2 - 4 delta)/9 and term2 = (t(d - t) - delta)/2 with t from
    # sympy; neither depends on e, so reading them at e = 0 loses nothing
    t = sympy_ceil_term(d, delta)
    term1, term2 = Fraction(d * d - 4 * delta, 9), Fraction(t * (d - t) - delta, 2)
    assert terms(d, delta) == (max(term1, term2), term1, term2)
    for e in (1, ceil(max(term1, term2)), 10**6):
        r = plane_theorem_report(d, delta, e)
        assert (r.e_bound, r.term1, r.term2, r.ceil_term) == (max(term1, term2), term1, term2, t)


def test_find_m_examples():
    assert find_m(8, 0, 7) == 1  # 7 <= 7 < 12: lines through one point
    assert find_m(10, 2, 10) == 1  # 9 <= 12 < 16
    assert find_m(9, 0, 5) is None  # below the gonality floor d - 1
    # e + delta >= d - 1 is where a degree-e divisor can move
    assert find_m(9, 0, 8) == 1  # 8 >= 8
    assert find_m(9, 0, 7) is None  # 7 < 8
    assert find_m(10, 2, 7) == 1  # 9 >= 9


def test_find_m_sandwich_and_monotone():
    for d in range(4, 40):
        for delta in range(0, (d - 3) // 3 + 1):
            prev = 0
            for e in range(1, d * d // 4):
                m = find_m(d, delta, e)
                if m is not None:
                    assert m * (d - m) <= e + delta < (m + 1) * (d - (m + 1))
                    assert 1 <= m and 2 * m < d
                    assert m >= prev
                    prev = m


def test_plane_report_debarre_klassen():
    r = plane_theorem_report(8, 0, 7)
    assert r.m == 1 and r.degB == 1
    assert Fraction(r.degB) < Fraction(r.e, 2)
    assert r.conclusion_guaranteed
    r = plane_theorem_report(9, 0, 8)
    assert r.m == 1 and r.degB == 1
    r = plane_theorem_report(10, 2, 10)
    assert r.m == 1 and r.degB == 0
    # delta_small (3 delta <= d - 3) also gives the m = 2 gonality
    # hypothesis delta < d - 1
    assert all(v == "pass" for v in r.hypotheses.values())


def test_the_smallest_guaranteed_degree_is_4():
    # d = 4 is in range: e_bound = max(16/9, 2) = 2, so only e = 1 lies below
    # it, and no m meets the sandwich there
    r = plane_theorem_report(4, 0, 1)
    assert r.hypotheses == dict.fromkeys(
        ["degree_at_least_4", "delta_small", "e_in_range", "blowup_ample_2delta_lt_d"], PASS
    )
    assert r.conclusion_guaranteed
    assert (r.e_bound, r.m, r.degB) == (2, None, None)


def test_plane_report_out_of_range_not_guaranteed():
    r = plane_theorem_report(8, 0, 20)
    assert not r.conclusion_guaranteed
    assert r.hypotheses["e_in_range"] == "fail"
    r = plane_theorem_report(12, 4, 10)  # 3 delta = 12 > d - 3
    assert r.hypotheses["delta_small"] == "fail"
    assert not r.conclusion_guaranteed
    r = plane_theorem_report(3, 0, 1)
    assert r.hypotheses["degree_at_least_4"] == "fail"
    r = plane_theorem_report(9, 0, 0)  # e = 0 is not in range, though all else holds
    assert [k for k, v in r.hypotheses.items() if v == "fail"] == ["e_in_range"]
    assert not r.conclusion_guaranteed
    with pytest.raises(HypothesisViolation):
        plane_theorem_report(10, 3, 10)  # d^2 < 36 delta


@pytest.mark.parametrize("d, delta", [(10, -1), (-10, 0), (-1, -1)])
def test_negative_d_or_delta_is_refused(d, delta):
    with pytest.raises(ContractViolation):
        sqrt_ceil_term(d, delta)
    with pytest.raises(ContractViolation):
        plane_theorem_report(d, delta, 3)


@pytest.mark.parametrize(
    "d, delta, e",
    [
        (9.0, 0, 5),
        (9, 0.0, 5),
        (9, 0, 2.5),
        (9, 0, Fraction(5)),
        (True, 0, 5),
        (9, 0, True),
        ("9", 0, 5),
    ],
)
def test_non_int_d_delta_or_e_is_refused(d, delta, e):
    with pytest.raises(ContractViolation):
        plane_theorem_report(d, delta, e)
    with pytest.raises(ContractViolation):
        find_m(d, delta, e)


@pytest.mark.parametrize("d, delta", [(9, 0), (0, 0)])
def test_a_degree_of_none_is_refused_before_any_arithmetic(d, delta):
    for call in (plane_theorem_report, find_m):
        with pytest.raises(ContractViolation, match=r"^e = None is not an int"):
            call(d, delta, None)


def test_plane_report_edge_raises_internal_inconsistency():
    # every hypothesis holds at the edge 3 delta = d - 3, yet deg B >= e/2
    for d, delta, e in [(9, 2, 6), (21, 6, 14), (27, 8, 18)]:
        with pytest.raises(InternalInconsistency):
            plane_theorem_report(d, delta, e)


def levels(d, delta, e):
    return [(l.level, l.degree_bound, l.m) for l in plane_theorem_report(d, delta, e).chain]


def test_decomposition_chains():
    assert levels(9, 0, 8) == [(0, Fraction(8), 1), (1, Fraction(4), None)]
    assert levels(8, 0, 7) == [(0, Fraction(7), 1), (1, Fraction(7, 2), None)]
    # deg B = 0 at level 0: nothing left to decompose
    assert levels(20, 0, 40) == [(0, Fraction(40), 2)]
    # no degree >= 1 lies below a bound e <= 0, so level 0 is the whole chain
    assert levels(50, 60, 0) == [(0, 0, 1)]
    assert levels(50, 60, -3) == [(0, -3, 1)]


@pytest.mark.parametrize(
    "call, args",
    [
        (find_m, (10, -1, 3)),  # below the gonality floor
        (find_m, (-10, 0, 3)),
        (find_m, (10, -1, 30)),  # no sandwich solution
        (plane_theorem_report, (-10, 0, 3)),
    ],
)
def test_negative_d_or_delta_is_refused_on_entry(call, args):
    with pytest.raises(ContractViolation):
        call(*args)


@pytest.mark.parametrize("d, delta, e", [(40, 39, 10), (40, 44, 1000), (36, 35, 1), (50, 60, 0)])
def test_chain_stops_when_no_positive_degree_is_left(d, delta, e):
    chain = plane_theorem_report(d, delta, e).chain
    assert len(chain) <= max(e, 1).bit_length() + 1  # floor(log2 e) + 2


def test_chain_bounds_halve():
    for d, delta, e in [(9, 0, 8), (8, 0, 7), (30, 0, 80), (40, 3, 150)]:
        chain = plane_theorem_report(d, delta, e).chain
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt.degree_bound <= prev.degree_bound / 2


def test_the_remark_inequality_holds_wherever_its_root_is_real():
    """The remark (d^2 - 4 delta)/9 >= (x(d - x) - delta)/2 at x = (d + s)/6,
    s = sqrt(d^2 - 36 delta), holds for every d^2 >= 36 delta >= 0, so the
    library does not decide it at run time.

    x(d - x) = (d + s)(5d - s)/36 = (d^2 + d s + 9 delta)/9, so the remark is
    d^2 - 8 delta >= d s.  Both sides are >= 0, since d^2 - 8 delta >= 28
    delta >= 0 once d^2 >= 36 delta, so it holds iff its square does:
    (d^2 - 8 delta)^2 - d^2 (d^2 - 36 delta) = 20 d^2 delta + 64 delta^2 >= 0.
    """
    for d in range(200):
        for delta in range(d * d // 36 + 1):
            lhs = d * d - 8 * delta
            assert lhs >= 28 * delta >= 0
            assert lhs * lhs - d * d * (d * d - 36 * delta) == 20 * d * d * delta + 64 * delta**2
            assert remark_squared(d, delta)
    for d, delta in [(10, 2), (9, 0), (4, 0), (12, 4)]:  # the remark itself, by sympy
        x = (d + sympy.sqrt(d * d - 36 * delta)) / 6
        assert sympy.Rational(d * d - 4 * delta, 9) >= (x * (d - x) - delta) / 2


def test_remark_inequality_sweep_and_ceiled_equality():
    for d in range(4, 61):
        for delta in range(0, (d - 3) // 3 + 1):
            assert remark_squared(d, delta)
            _, term1, term2 = terms(d, delta)
            if term2 == term1:
                assert delta == 0 and d % 3 == 0
            if delta == 0 and d % 3 == 0:
                assert term2 == term1


def stepping_find_m(d, delta, e):
    """Oracle: the search find_m replaced, one m at a time."""
    if d < 0 or delta < 0:
        raise ContractViolation(f"d and delta must be >= 0, got d={d}, delta={delta}")
    if e + delta < d - 1:
        return None
    m = 1
    while 2 * m < d:
        if m * (d - m) <= e + delta < (m + 1) * (d - (m + 1)):
            return m
        m += 1
    return None


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the exception type is part of the answer
        return type(exc)


def stepping_chain(d, delta, e):
    """Oracle: the chain by its definition for e >= 1, with m stepped at each
    level.  Level 0 bounds degrees by e, level k >= 1 by e/2^k from below;
    the chain stops where m is None, deg B = m d - top <= 0, or no positive
    degree top is left below the bound."""
    top, bound = e, Fraction(e)
    chain = [(0, bound, stepping_find_m(d, delta, top))]
    while chain[-1][2] is not None and chain[-1][2] * d - top > 0 and top >= 1:
        bound /= 2
        top = ceil(bound) - 1
        chain.append((len(chain), bound, stepping_find_m(d, delta, top)))
    return chain


@pytest.mark.parametrize(
    "d, delta, e",
    [(9, 0, 8), (8, 0, 7), (30, 0, 80), (40, 3, 150), (300, 10, 5000), (40, 39, 10)]
    + [(15, 2, 24), (17, 0, 32)],  # level 1 takes e/2 - 1, where m is None, not e/2
)
def test_the_chain_is_the_stepped_halving(d, delta, e):
    chain = levels(d, delta, e)
    assert chain == stepping_chain(d, delta, e)
    assert len(chain) <= e.bit_length() + 1  # floor(log2 e) + 2


def test_find_m_matches_the_stepping_search():
    for d in range(40):
        for delta in range(d * d // 36 + 2):
            for e in range(-2, d * d // 4 + 3):
                assert outcome(find_m, d, delta, e) == outcome(stepping_find_m, d, delta, e), (
                    d, delta, e
                )


def test_find_m_is_none_exactly_outside_the_sandwich_range():
    for d in range(50):
        for delta in range(3):
            for s in range(-2, d * d // 4 + 3):
                none = outcome(find_m, d, delta, s - delta) is None
                assert none == (d < 3 or s < d - 1 or s >= d * d // 4), (d, delta, s)


def test_plane_report_takes_no_step_per_m():
    r = plane_theorem_report(10**30, 0, 10**59)  # m is about 10**29
    assert r.m * (r.d - r.m) <= r.e < (r.m + 1) * (r.d - r.m - 1)
    assert r.m == r.chain[0].m and r.degB == r.m * r.d - r.e
    r = plane_theorem_report(10**7, 0, 2 * 10**13)
    assert r.m == 2763932 and len(r.chain) == 11


@pytest.mark.parametrize("args, levels_in_range", [((40, 3, 150), 3), ((9, 0, 8), 1)])
def test_the_report_checks_once_and_works_out_its_terms_once(args, levels_in_range):
    counts = count_calls(
        lambda: plane_theorem_report(*args),
        find_m,
        sqrt_ceil_term,
        plane._check_signs,
        plane._ceil_sqrt,
    )
    # one root for the discriminant, one per chain level whose s is in range
    assert counts == {
        "find_m": 0,
        "sqrt_ceil_term": 0,
        "_check_signs": 1,
        "_ceil_sqrt": 1 + levels_in_range,
    }
    chain = plane_theorem_report(*args).chain
    assert sum(level.m is not None for level in chain) == levels_in_range


@pytest.mark.parametrize("args", [(0, 20), (20, 24), (24, 27), (27, 30)])
def test_the_report_agrees_with_the_public_functions(args):
    """ceil_term, m and each chain level's m against sympy's root and the
    stepped search, which share no code with plane.py, for d in range(*args).
    The report refuses only d^2 < 36 delta and the family (3t, t - 1, 2t)."""
    for d in range(*args):
        for delta in range(d * d // 36 + 2):
            t = sympy_ceil_term(d, delta) if d * d >= 36 * delta else None
            for e in range(-2, d * d // 4 + 3):
                r = outcome(plane_theorem_report, d, delta, e)
                if t is None:
                    assert r is HypothesisViolation, (d, delta, e)
                elif d >= 9 and (d, delta, e) == (3 * (d // 3), d // 3 - 1, 2 * (d // 3)):
                    assert r is InternalInconsistency, (d, delta, e)
                else:
                    assert (r.ceil_term, r.m) == (t, stepping_find_m(d, delta, e)), (d, delta, e)
                    for level in r.chain:
                        top = e if level.level == 0 else ceil(level.degree_bound) - 1
                        assert level.m == stepping_find_m(d, delta, top), (d, delta, e, level)


def test_find_m_answers_where_the_report_refuses():
    # d^2 < 36 delta: there is no sqrt(d^2 - 36 delta), but m is defined
    assert find_m(4, 1, 2) == 1
    with pytest.raises(HypothesisViolation):
        plane_theorem_report(4, 1, 2)


@st.composite
def below_the_bound(draw):
    """(d, delta, e) with 3 <= d <= 10^40, d^2 >= 36 delta and e < e_bound,
    e often the largest such int, and often where m is defined."""
    d = draw(st.integers(3, 10**40))
    delta = draw(st.integers(0, d * d // 36))
    top = ceil(terms(d, delta)[0]) - 1
    e = draw(st.just(top) | st.integers(min(d - 1 - delta, top) - 2, top))
    return d, delta, e


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(below_the_bound())
def test_m_stays_below_the_ceiled_root_for_every_e_below_the_bound(args):
    """For d >= 3, d^2 >= 36 delta and e < e_bound, find_m(d, delta, e) is
    None or below t = sqrt_ceil_term(d, delta).

    Let r = sqrt(d^2 - 36 delta), x = (d + r)/6 <= t and s = e + delta, and
    let m be the largest m with m(d - m) <= s, so m < d/2.  Suppose m >= t.
    Then x <= t <= m < d/2, and as y(d - y) rises on [0, d/2],
    s >= m(d - m) >= t(d - t) >= x(d - x) = (d^2 + d r + 9 delta)/9.  But
    s < e_bound + delta = max((d^2 + 5 delta)/9, (t(d - t) + delta)/2), and
    both are <= t(d - t): the first as d r + 4 delta >= 0, the second as
    t(d - t) >= x(d - x) >= delta.  So s < t(d - t) <= s, which is absurd.
    Every chain level has a degree at most e, so the same holds there.
    """
    d, delta, e = args
    t = sqrt_ceil_term(d, delta)
    m = find_m(d, delta, e)
    assert m is None or m < t
    # the chain from _chain, since the report raises on the edge family (3t, t - 1, 2t)
    assert all(l.m is None or l.m < t for l in plane._chain(d, delta, e))


def test_m_stays_below_the_ceiled_root_at_the_largest_e_below_the_bound():
    # m never decreases as e grows, so the largest e below e_bound is the
    # worst case; every (d, delta) with d < 150 and d^2 >= 36 delta
    pairs, defined, tight = 0, 0, 0
    for d in range(3, 150):
        for delta in range(d * d // 36 + 1):
            e = ceil(terms(d, delta)[0]) - 1
            m, t = find_m(d, delta, e), sqrt_ceil_term(d, delta)
            assert m is None or m < t, (d, delta, e)
            pairs += 1
            defined += m is not None
            tight += m == t - 1
    assert (pairs, defined, tight) == (31039, 31032, 17)


def admissible_pairs(limit):
    return [(d, delta) for d in range(limit) for delta in range(d * d // 36 + 1)]


def p2_report(d, delta):
    """The toric report for C = dH on P^2 with delta points of multiplicity 2."""
    fan = p2()
    return toric_theorem_report(CurveOnSurface(fan, ToricDivisor(fan, (d, 0, 0)), (2,) * delta))


def test_plane_terms_specialise_the_toric_report_on_p2():
    """The plane report is the toric report on P^2 where the two overlap.

    For C = dH with delta nodes or cusps, each of multiplicity 2, the blowup
    has C~^2 = d^2 - 4 delta, so term1 = blowup_C2/9, and the Seshadri test
    sum delta_i = 2 delta < min C.D_j = d decides both ampleness verdicts.
    For d >= 2 the toric degree bound min(C~^2/9, C^2/4 + lambda) is term1:
    lambda(P^2) = -1/4, and (d^2 - 4 delta)/9 <= (d^2 - 1)/4 is
    5 d^2 + 16 delta >= 9, which d >= 2 gives.  At d = 1 (delta = 0) and
    d = 0 the bound is C^2/4 + lambda instead.
    """
    pairs = admissible_pairs(40)
    assert len(pairs) == 599  # d = 0..39, every delta <= d^2/36
    for d, delta in pairs:
        toric = p2_report(d, delta)
        r = plane_theorem_report(d, delta, 1)
        assert r.term1 == Fraction(toric.blowup_C2, 9), (d, delta)
        assert (r.hypotheses["blowup_ample_2delta_lt_d"] == PASS) == (
            toric.hypothesis_verdicts["blowup_ample"] == CERTIFIED
        ), (d, delta)
        assert (toric.degree_bound == r.term1) == (d >= 2), (d, delta)
        assert toric.degree_bound == min(r.term1, Fraction(d * d - 1, 4))


def test_the_toric_report_certifies_the_plane_edge_family():
    # (3t, t - 1, 2t) raises in the plane layer (below), yet the toric report
    # certifies the blowup, has e = 2t <= e_max, and passes all three
    # conditions, which hold for every e <= e_max
    for t in range(3, 8):
        toric = p2_report(3 * t, t - 1)
        assert toric.hypothesis_verdicts["blowup_ample"] == CERTIFIED
        assert 2 * t <= toric.e_max
        c = toric.conditions
        assert (c.intersection_bound, c.surjectivity, c.section_lift) == (PASS, PASS, PASS)


def test_the_edge_family_raises_at_the_deg_b_site_for_every_t_below_27():
    # (3t, t - 1, 2t), on the line 3 delta = d - 3: every hypothesis holds,
    # yet m = 1 and deg B = t = e/2
    for t in range(3, 27):
        with pytest.raises(InternalInconsistency, match="deg B = "):
            plane_theorem_report(3 * t, t - 1, 2 * t)


@settings(derandomize=True, deadline=None, max_examples=1500)
@given(st.integers(0, 79).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(0, d * d // 36), st.integers(-2, d * d // 4 + 2))
))
def test_the_plane_layer_raises_internal_inconsistency_only_on_the_edge_family(args):
    d, delta, e = args
    find_m(d, delta, e)
    try:
        plane_theorem_report(d, delta, e)
    except InternalInconsistency as exc:
        t = d // 3
        assert (d, delta, e) == (3 * t, t - 1, 2 * t)
        assert str(exc).startswith("deg B = ")
