"""Interpolation machinery for low-degree points on a toric surface.

Computes the surface invariant lambda(S), positive representations of an
ample curve class C, the interpolation divisor floor(C/2), the admissible
degree bound min((C^2 - sum delta_i^2)/9, C^2/4 + lambda), and the
hypothesis/condition verdicts that go with them.  The lex-min point of
P_{C+K}, one cone vertex when C + K is nef, gives the positive representation.
h1(D - C) is 0 by proof wherever the report gives its conditions
(`ConditionVerdicts`), so nothing counts it.  Every other number comes from
p = (C.D_j), which each representation of C shares, and the coefficients:
R.(2K + R) is lambda's objective at the rays where C_rep is odd.  The
report pays only for that arithmetic: it takes lambda without its record
(`_lambda`), finds C_rep, D, C.D and R.(2K + R) in one pass over the rays,
builds C_rep and D with no second check (`divisor._derived`: their ints
come from checked ones), and clips nothing for an ample C whose C + K is
not nef.  Also reproduces the F_1 family where surjectivity of restriction
fails.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul, sub
from typing import Dict, Optional, Tuple

from .cohomology import cohomology
from .divisor import ToricDivisor, _derived, _lexmin, intersect_primes, intersection_number
from .errors import (
    ContractViolation,
    FanMismatch,
    _record,
    require,
    require_int,
    require_ints,
)
from .fan import ToricSurfaceFan, hirzebruch

# verdict labels used throughout reports
PASS = "pass"
FAIL = "fail"
NOT_CERTIFIED = "not_certified"
CERTIFIED = "certified_ample"
ASSUMED = "assumed"


@_record
class CurveOnSurface:
    """Ample curve class C on the surface of `fan`, with integer singularity
    multiplicities delta_i >= 2 (empty = smooth), kept as a tuple.  Ampleness
    is a hypothesis checked by the report operations, not enforced here."""

    fan: ToricSurfaceFan
    curve_class: ToricDivisor
    multiplicities: Tuple[int, ...] = ()

    def __post_init__(self):
        require(self.curve_class, ToricDivisor)
        if require(self.fan, ToricSurfaceFan) != self.curve_class.fan:
            raise FanMismatch("the curve class lives on a different fan")
        object.__setattr__(self, "multiplicities", _multiplicities(self.multiplicities))


def _multiplicities(multiplicities) -> Tuple[int, ...]:
    """The multiplicities as a tuple; ContractViolation unless each is an int >= 2."""
    mults = require_ints(multiplicities, "singularity multiplicities")
    for d in mults:
        if d < 2:
            raise ContractViolation(f"singularity multiplicity {d} < 2")
    return mults


@_record
class LambdaResult:
    value: Fraction
    inner_min: int
    argmin_subset: Tuple[int, ...]


def lambda_invariant(fan: ToricSurfaceFan) -> LambdaResult:
    """lambda(S) = 2 + (1/4) min over subsets R of (sum_R D_i).(2K + sum_R D_i).

    On a smooth complete surface D_i.D_j = 1 for cyclic neighbours and 0 for
    other i != j, and K.D_i = b_i - 2 with D_i^2 = -b_i, so the objective is
    val(R) = sum_{i in R} (b_i - 4) + 2 #{i : i, i+1 in R}.  The empty subset
    gives 0, so the value is always <= 2.  A dynamic programme runs once
    backwards around the cycle and minimises (val, |R|) in O(n).  It keeps four
    states, ray 0 out or in crossed with ray i-1 out or in, each as a key and
    an R in two locals, and links ray i onto an R only when a state takes it.
    A state takes ray i on a tie: the tied Rs agree below the ray, and the one
    holding it sorts first; a tie at ray 0 keeps it in.  So R is the
    lexicographically smallest sorted R of the minimisers.
    """
    val, subset = _lambda(require(fan, ToricSurfaceFan))
    return LambdaResult(Fraction(8 + val, 4), val, subset)


def _lambda(fan: ToricSurfaceFan) -> Tuple[int, Tuple[int, ...]]:
    """(min val(R), R) for `lambda_invariant` on a checked fan, with no record."""
    n = fan.n
    # key = val * w + |R| orders like the pair (val, |R|), and sums of keys
    # stay exact because no partial |R| exceeds n < w
    w = n + 1
    edge = 2 * w  # two cyclic neighbours both in R
    take = [(-s - 4) * w + 1 for s in fan.self_intersections]  # (b_i - 4, 1)
    # the least key over rays i..n-1 and its R, linked as (i, rest): o0, i0 with
    # ray 0 out and ray i-1 out, in; o1, i1 likewise with ray 0 in, where the pair
    # (n-1, 0) adds an edge.  A state takes ray i, after ray i-1 out, when that is
    # no worse than leaving it out; in an i, taking it adds an edge.
    o0, i0, o1, i1 = 0, 0, 0, edge
    r_o0 = r_i0 = r_o1 = r_i1 = None
    for i in range(n - 1, 0, -1):
        t = take[i]
        k = t + i0
        if o0 < k:
            i0, r_i0 = o0, r_o0
        elif o0 < k + edge:
            o0, r_o0, i0, r_i0 = k, (i, r_i0), o0, r_o0
        else:
            o0, i0 = k, k + edge
            r_o0 = r_i0 = (i, r_i0)
        k = t + i1
        if o1 < k:
            i1, r_i1 = o1, r_o1
        elif o1 < k + edge:
            o1, r_o1, i1, r_i1 = k, (i, r_i1), o1, r_o1
        else:
            o1, i1 = k, k + edge
            r_o1 = r_i1 = (i, r_i1)
    best, linked = o0, r_o0
    if take[0] + i1 <= best:  # ties keep ray 0 in
        best, linked = take[0] + i1, (0, r_i1)
    subset = []
    while linked:
        i, linked = linked
        subset.append(i)
    return best // w, tuple(subset)


def _blowup(C2: int, low: int, total: int, squares: int) -> Tuple[int, bool]:
    """(C~^2, certified) on the blowup at points of multiplicities delta_i, with
    total = sum delta_i >= 0, squares = sum delta_i^2 and low = min_j C.D_j:
    C~^2 = C^2 - squares, certified ample by the Seshadri bound total < low,
    which makes C ample too.  The toric and plane reports both read them here."""
    return C2 - squares, total < low


@_record
class ConditionVerdicts:
    """Verdicts for the three defining conditions of a degree-e interpolation
    divisor at e = e_max, with h0_bound = (1/4)R.(2K+R) + 2 + C^2/4 - e for
    R = C_rep - 2D, which is larger by e_max - e at a degree e; C.D and C^2
    are the report's CD and C2.  The report builds them only for an ample C
    with an e_max, and there each condition holds by proof for every e <= e_max.
    (1) C.R >= 0, so C.D <= C^2/2 < C^2, as C^2 > 9 when e_max exists.
    (2) K - D + C_rep has the coefficients ceil(c_i/2) - 1, so by Serre duality
    h1(D - C_rep) = h1(K + ceil(C_rep/2)), which toric Kawamata-Viehweg
    vanishing makes 0, as C_rep/2 is ample (Cox-Little-Schenck, Thm 9.3.5).
    So the report states surjectivity "pass" uncounted; tests/test_census.py
    checks h1(D - C_rep) = 0 against lattice and Cech counts.
    (3) R sums the distinct D_i where C_rep is odd, so R.(2K + R) is lambda's
    objective at that subset, no less than its minimum 4 lambda - 8, and the
    bound is >= lambda + C^2/4 - e > 0."""

    intersection_bound: str  # C.D < C^2
    surjectivity: str  # h1(D - C) = 0 forces H0(S,D) ->> H0(C,D|_C)
    section_lift: str  # h0_bound > 0: degree-e moving divisors lift
    h0_bound: Fraction


@_record
class DegBTable:
    """The rows (e, CD - e) for e = 1..e_max: deg B = C.D - e for each
    admissible degree e.  A record of the two numbers that iterates its rows
    lazily, so a report costs the same however large e_max is (it grows as
    C^2/9).  It compares, hashes and prints by (CD, e_max), and every empty
    table is DegBTable()."""

    CD: int = 0
    e_max: int = 0

    def __post_init__(self):
        require_ints((self.CD, self.e_max), "deg B table's C.D and e_max")
        if self.e_max <= 0:  # every empty table is the same table
            object.__setattr__(self, "CD", 0)
            object.__setattr__(self, "e_max", 0)

    def __bool__(self) -> bool:
        return self.e_max > 0

    def __iter__(self):
        return zip(range(1, self.e_max + 1), range(self.CD - 1, self.CD - self.e_max - 1, -1))


_NO_TABLE = DegBTable()


@_record
class InterpolationReport:
    """Everything `toric_theorem_report` decides for one curve class.
    `degB_table` holds CD and e_max and iterates the rows (e, CD - e), e =
    1..e_max; it is empty when e_max or CD is None.  interp_divisor and CD
    are None unless C is ample and has a positive representation."""

    lambda_value: Fraction
    lambda_subset: Tuple[int, ...]
    positive_rep: Optional[ToricDivisor]
    interp_divisor: Optional[ToricDivisor]
    CD: Optional[int]
    C2: int
    blowup_C2: int
    degree_bound: Fraction
    e_max: Optional[int]
    hypothesis_verdicts: Dict[str, str]
    degB_table: DegBTable
    conditions: Optional[ConditionVerdicts]


def toric_theorem_report(curve: CurveOnSurface) -> InterpolationReport:
    """Run the whole pipeline for one curve class and aggregate verdicts.

    Hypotheses the surface data cannot decide (geometric integrality of C,
    simplicity of its singularities) are echoed as "assumed".
    """
    C = require(curve, CurveOnSurface).curve_class
    fan = curve.fan
    inner_min, subset = _lambda(fan)  # the curve checked its fan
    p = intersect_primes(C)  # every representation C + div(chi^m) of C shares it
    C2 = sum(map(mul, C.coeffs, p))
    mults = curve.multiplicities
    low = min(p)
    bl2, certified = _blowup(C2, low, sum(mults), sum(d * d for d in mults))
    ample = low > 0  # toric Kleiman: C is ample iff every C.D_j is > 0

    # the bound min(bl2/9, C^2/4 + lambda) as num/den, as C^2/4 + lambda = top/4
    top = C2 + 8 + inner_min
    num, den = (bl2, 9) if 4 * bl2 <= 9 * top else (top, 4)
    e = (num - 1) // den  # the largest int strictly below the bound
    e_max = e if e >= 1 else None

    # rep = C + div(chi^m) = effective_representative(C + K) - K for the lex-min point m
    # of P_{C+K}, all coefficients >= 1 and some >= 2, exists iff C + K > 0: a principal
    # divisor >= 0 is 0 on a complete fan, so C + K is principal iff its representative
    # is 0.  (C + K).D_j = p_j - s_j - 2 for s_j = D_j^2, as K.D_j = -(2 + s_j).  If C is
    # ample, one is < 0 only where p_j >= 1 and s_j >= 0: then D_j is nef, E.D_j >= 0
    # for an effective E, and C + K is not effective, so it is not clipped: no rep.
    nef = min(map(sub, p, fan.self_intersections)) >= 2  # C + K is nef
    m = _lexmin(fan, [c - 1 for c in C.coeffs], nef) if nef or not ample else None
    rep = D = CD = conditions = None
    table = _NO_TABLE
    if m is not None:
        # one pass over the rays gives rep's coefficients a_j, D's floor(a_j/2), C.D
        # = d.p, and R.(2K + R) for R = rep - 2D, which sums the D_j where rep is odd,
        # so it is lambda's objective there: b_j - 4 for each, 2 for each pair of neighbours
        x, y = m
        a, d, dp, RK, odd = [], [], 0, 0, 0
        for c, (ux, uy), pj, s in zip(C.coeffs, fan.rays, p, fan.self_intersections):
            c += x * ux + y * uy
            h = c >> 1
            a.append(c)
            d.append(h)
            dp += h * pj
            if c & 1:
                RK += 2 * odd - s - 4
            odd = c & 1
        RK += 2 * (a[0] & odd)  # ray n-1 neighbours ray 0
        if max(a) > 1:
            rep = _derived(fan, tuple(a))
        if ample and rep is not None:  # the interpolation is the theorem's, for ample C only
            # rep is positive by construction, and 2 C.D <= C^2 as C is nef
            D, CD = _derived(fan, tuple(d)), dp
            if e_max is not None:
                table = DegBTable(CD, e_max)
                bound = RK + 8 + C2 - 4 * e_max  # 4 h0_bound
                conditions = ConditionVerdicts(  # h1(D - C_rep) = 0 by proof (2)
                    PASS if CD < C2 else FAIL, PASS, PASS if bound > 0 else FAIL, Fraction(bound, 4)
                )
    verdicts: Dict[str, str] = {
        "geometrically_integral": ASSUMED,
        "simple_singularities": ASSUMED,
        "curve_ample": PASS if ample else FAIL,
        # NOT_CERTIFIED is not a refutation
        "blowup_ample": CERTIFIED if certified else NOT_CERTIFIED,
        "C_plus_K_positive": PASS if rep is not None else FAIL,
    }
    return InterpolationReport(  # positionally, in field order
        Fraction(8 + inner_min, 4), subset, rep, D, CD, C2, bl2,
        Fraction(num, den), e_max, verdicts, table, conditions,
    )


@_record
class HirzebruchExampleReport:
    """The F_1 family where the natural restriction map fails to surject:
    C = n C_0 + (n+1) F and D = C_0 + 3F."""

    n: int
    C2: int
    deg_P: int  # = D.C
    low_degree_regime: bool  # 9 deg_P < C^2
    h0_D: int
    h1_D: int
    h1_D_minus_C: int
    h0_C_P: int  # = h0(S,D) + h1(S,D-C)
    surjectivity_fails: bool


def hirzebruch_counterexample(n: int) -> HirzebruchExampleReport:
    if require_int(n, "n") < 1:
        raise ContractViolation(f"n must be >= 1, got {n}")
    fan = hirzebruch(1)
    # class dictionary on F_1: F ~ D_1, C_0 ~ D_2
    C = ToricDivisor(fan, (n + 1, n, 0, 0))
    D = ToricDivisor(fan, (3, 1, 0, 0))
    C2 = intersection_number(C, C)
    degP = intersection_number(D, C)
    coh_D = cohomology(D)
    h1_dc = cohomology(D - C).h1
    return HirzebruchExampleReport(
        n=n,
        C2=C2,
        deg_P=degP,
        low_degree_regime=9 * degP < C2,
        h0_D=coh_D.h0,
        h1_D=coh_D.h1,
        h1_D_minus_C=h1_dc,
        h0_C_P=coh_D.h0 + h1_dc,
        surjectivity_fails=h1_dc > 0,
    )
