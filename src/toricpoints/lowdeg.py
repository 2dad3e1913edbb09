"""Interpolation machinery for low-degree points on a toric surface.

Computes the surface invariant lambda(S), positive representations of an
ample curve class C, the interpolation divisor floor(C/2), the admissible
degree bound min((C^2 - sum delta_i^2)/9, C^2/4 + lambda), and the
hypothesis/condition verdicts that go with them.  The report clips P_{C+K}
once: its lex-min point gives the positive representation, and its points in
that point's class mod 2 give h1(D - C).  Every other number is a dot product
of p = (C.D_j), which each representation of C shares, and q = (D.D_j).
Also reproduces the F_1 family where surjectivity of restriction fails.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import floor
from operator import mul
from typing import Dict, Optional, Tuple

from . import geometry
from .cohomology import _chi, _h1, cohomology
from .divisor import (
    Positivity,
    ToricDivisor,
    _pairings,
    classify_pairings,
    intersect_primes,
    intersection_number,
)
from .errors import (
    ContractViolation,
    FanMismatch,
    require,
    require_int,
    require_ints,
)
from .fan import ToricSurfaceFan, dot, hirzebruch

# verdict labels used throughout reports
PASS = "pass"
FAIL = "fail"
NOT_CERTIFIED = "not_certified"
CERTIFIED = "certified_ample"
ASSUMED = "assumed"


@dataclass(frozen=True)
class CurveOnSurface:
    """Ample curve class C on the surface of `fan`, with integer singularity
    multiplicities delta_i >= 2 (empty = smooth), kept as a tuple.  Ampleness
    is a hypothesis checked by the report operations, not enforced here."""

    fan: ToricSurfaceFan
    curve_class: ToricDivisor
    multiplicities: Tuple[int, ...] = ()

    def __post_init__(self):
        require(self.curve_class, ToricDivisor)
        if not require(self.fan, ToricSurfaceFan).same_surface(self.curve_class.fan):
            raise FanMismatch("the curve class lives on a different fan")
        object.__setattr__(self, "multiplicities", _multiplicities(self.multiplicities))


def _multiplicities(multiplicities) -> Tuple[int, ...]:
    """The multiplicities as a tuple; ContractViolation unless each is an int >= 2."""
    mults = require_ints(multiplicities, "singularity multiplicities")
    for d in mults:
        if d < 2:
            raise ContractViolation(f"singularity multiplicity {d} < 2")
    return mults


@dataclass(frozen=True)
class LambdaResult:
    value: Fraction
    inner_min: int
    argmin_subset: Tuple[int, ...]


def lambda_invariant(fan: ToricSurfaceFan) -> LambdaResult:
    """lambda(S) = 2 + (1/4) min over subsets R of (sum_R D_i).(2K + sum_R D_i).

    On a smooth complete surface D_i.D_j = 1 for cyclic neighbours and 0 for
    other i != j, and K.D_i = b_i - 2 with D_i^2 = -b_i, so the objective is
    val(R) = sum_{i in R} (b_i - 4) + 2 #{i : i, i+1 in R}.  The empty subset
    gives 0, so the value is always <= 2.  A two-state dynamic programme
    around the cycle, run once with ray 0 out and once with it in, minimises
    (val, |R|) in O(n); R is then rebuilt from ray 0 on, taking each ray
    whenever the minimum is still reachable with it, which yields the
    lexicographically smallest sorted R among the minimisers.
    """
    n = require(fan, ToricSurfaceFan).n
    # key = val * w + |R| orders like the pair (val, |R|), and sums of keys
    # stay exact because no partial |R| exceeds n < w
    w = n + 1
    edge = 2 * w  # two cyclic neighbours both in R
    take = [(-s - 4) * w + 1 for s in fan.self_intersections]  # (b_i - 4, 1)
    runs = []
    for first in (1, 0):
        # suf[i] = least key of rays i..n-1 with ray i-1 out, and with it in;
        # the pair (n-1, 0) adds an edge when both ends are in
        suf = [None] * (n + 1)
        suf[n] = (0, edge * first)
        for i in range(n - 1, 0, -1):
            out, into = suf[i + 1]
            suf[i] = (min(out, take[i] + into), min(out, take[i] + edge + into))
        runs.append((first * take[0] + suf[1][first], first, suf))
    best, first, suf = min(runs, key=lambda run: run[0])  # ties keep ray 0 in
    subset = [0] if first else []
    acc, prev = first * take[0], first
    for i in range(1, n):
        with_i = acc + take[i] + edge * prev
        prev = int(with_i + suf[i + 1][1] == best)
        if prev:
            subset.append(i)
            acc = with_i
    val = best // w
    return LambdaResult(
        value=Fraction(2) + Fraction(val, 4), inner_min=val, argmin_subset=tuple(subset)
    )


def blowup_self_intersection(C2: int, multiplicities: Sequence[int]) -> int:
    """Self-intersection of the normalised curve on the blowup:
    C^2 - sum delta_i^2."""
    return require_int(C2, "C^2") - sum(d * d for d in _multiplicities(multiplicities))


def _seshadri(pairings: Sequence[int], multiplicities: Sequence[int]) -> str:
    """The report's blowup_ample verdict for an ample C: sum delta_i < min_i C.D_i
    (Seshadri lower bound) certifies it; NOT_CERTIFIED is not a refutation."""
    return CERTIFIED if sum(multiplicities) < min(pairings) else NOT_CERTIFIED


def positive_curve_representation(C: ToricDivisor) -> Optional[ToricDivisor]:
    """Representation C = sum a_i D_i with every a_i >= 1 and some a_j >= 2.

    Exists iff C + K > 0 (effective and not principal).  Built as the lex-min
    non-negative representative of C + K plus (1,...,1).  On a complete fan
    a principal divisor with no negative coefficient is zero, so C + K is
    principal exactly when that representative is zero; otherwise some
    shifted coefficient is >= 2.
    """
    return _positive_representation(C)[0]


def _positive_representation(C: ToricDivisor):
    """(rep, clip, m): the clip of P_{C+K}, its lex-min lattice point m, and
    rep = C + div(chi^m), or None when m is None or C + K + div(chi^m) is 0.
    C + K has the coefficients c_j - 1, so P_{C+K} = {m : <m, u_j> >= 1 - c_j}."""
    rays = require(C, ToricDivisor).fan.rays
    clip = geometry._clip([(u, 1 - c) for u, c in zip(rays, C.coeffs)])
    m = geometry._lexmin(*clip)
    rep = None if m is None else tuple(c + dot(m, u) for c, u in zip(C.coeffs, rays))
    return (ToricDivisor(C.fan, rep) if rep and set(rep) != {1} else None), clip, m


def _interpolation(a: Sequence[int], p: Sequence[int], d: Sequence[int], q: Sequence[int]):
    """(C.D, C^2, b) for C_rep = sum a_j D_j and D = sum d_j D_j, from their
    pairing vectors p = (C_rep.D_j) and q = (D.D_j): C.D = d.p, C^2 = a.p, and
    the section bound at degree e is (b - 4e)/4.  R = C_rep - 2D pairs as p - 2q
    and K.R = -sum_j R.D_j, so b = R.(2K + R) + 8 + C^2 = R.R - 2 sum_j R.D_j + 8 + C^2."""
    C2 = sum(map(mul, a, p))
    pR = [u - 2 * v for u, v in zip(p, q)]
    RR = sum(map(mul, (x - 2 * y for x, y in zip(a, d)), pR))
    return sum(map(mul, d, p)), C2, RR - 2 * sum(pR) + 8 + C2


@dataclass(frozen=True)
class ConditionVerdicts:
    """Verdicts for the three defining conditions of a degree-e interpolation
    divisor at e = e_max, with the numbers behind them: CD, C2 and h0_bound are
    dot products of the pairing vectors of C_rep and D, h1_D_minus_C is a lattice
    count.  h0_bound = (1/4)R.(2K+R) + 2 + C^2/4 - e for R = C_rep - 2D, which is
    larger by e_max - e at a degree e.  For an ample C and e <= e_max each
    condition holds by proof.  (1) C.R >= 0,
    so C.D <= C^2/2 < C^2, as C^2 > 9 when e_max exists.  (2) By Serre duality
    h1(D - C) = h1(K + ceil(C_rep/2)), which toric Kawamata-Viehweg vanishing
    makes 0 (Cox-Little-Schenck 9.3.5).  (3) R sums distinct D_i, so
    R.(2K + R) >= 4 lambda - 8 and the bound is >= lambda + C^2/4 - e > 0."""

    intersection_bound: str  # C.D < C^2
    surjectivity: str  # h1(D - C) = 0 forces H0(S,D) ->> H0(C,D|_C)
    section_lift: str  # h0_bound > 0: degree-e moving divisors lift
    CD: int
    C2: int
    h1_D_minus_C: int
    h0_bound: Fraction
    half_curve_ample: bool  # redundant cross-check: C/2 ample gives the vanishing


def _verdicts(CD: int, C2: int, h1: int, bound: Fraction, p: Sequence[int]) -> ConditionVerdicts:
    # p is C's pairing vector; halving C changes the sign of no C.D_j, so C/2 is ample iff C is
    verdicts = (PASS if holds else FAIL for holds in (CD < C2, h1 == 0, bound > 0))
    return ConditionVerdicts(*verdicts, CD, C2, h1, bound, classify_pairings(p) is Positivity.AMPLE)


class DegBTable(Sequence):
    """The rows (e, CD - e) for e = 1..e_max: deg B = C.D - e for each
    admissible degree e.  An immutable view of constant size that computes a
    row when it is read, so a report costs the same however large e_max is.
    It equals a tuple with the same rows, and another view with the same
    rows.  Like a range, len() raises OverflowError past sys.maxsize (e_max
    grows as C^2/9): test truth or read e_max instead."""

    __slots__ = ("CD", "e_max")
    __hash__ = None  # equal to tuples, whose hash needs every row

    def __init__(self, CD: int = 0, e_max: int = 0):
        require_ints((CD, e_max), "deg B table's C.D and e_max")
        if e_max <= 0:  # every empty view is the same view
            CD = e_max = 0
        object.__setattr__(self, "CD", CD)
        object.__setattr__(self, "e_max", e_max)

    def __setattr__(self, name, value):
        raise AttributeError("DegBTable is immutable")

    def __reduce__(self):
        return DegBTable, (self.CD, self.e_max)

    def __len__(self) -> int:
        return self.e_max

    def __bool__(self) -> bool:
        return self.e_max > 0

    def __getitem__(self, i):
        e = range(1, self.e_max + 1)[i]
        if isinstance(e, range):
            return tuple((k, self.CD - k) for k in e)
        return e, self.CD - e

    def __iter__(self):
        return zip(range(1, self.e_max + 1), range(self.CD - 1, self.CD - self.e_max - 1, -1))

    def __eq__(self, other):
        if isinstance(other, DegBTable):
            return (self.CD, self.e_max) == (other.CD, other.e_max)
        if isinstance(other, tuple):
            return len(other) == self.e_max and tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"DegBTable(CD={self.CD}, e_max={self.e_max})"


@dataclass(frozen=True)
class InterpolationReport:
    """Everything `toric_theorem_report` decides for one curve class.
    `degB_table` is a DegBTable view of the rows (e, CD - e), e = 1..e_max,
    not a stored tuple; it is empty when e_max or CD is None.  interp_divisor
    and CD are None unless C is ample and has a positive representation."""

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


def _largest_int_below(x: Fraction) -> Optional[int]:
    # largest integer strictly below x, or None when no positive one exists
    e = floor(x)
    if e == x:
        e -= 1
    return e if e >= 1 else None


def toric_theorem_report(curve: CurveOnSurface) -> InterpolationReport:
    """Run the whole pipeline for one curve class and aggregate verdicts.

    Hypotheses the surface data cannot decide (geometric integrality of C,
    simplicity of its singularities) are echoed as "assumed".
    """
    C = require(curve, CurveOnSurface).curve_class
    lam = lambda_invariant(curve.fan)
    verdicts: Dict[str, str] = {
        "geometrically_integral": ASSUMED,
        "simple_singularities": ASSUMED,
    }

    p = intersect_primes(C)  # every representation C + div(chi^m) of C shares it
    C2 = sum(map(mul, C.coeffs, p))
    bl2 = blowup_self_intersection(C2, curve.multiplicities)
    ample = classify_pairings(p) is Positivity.AMPLE
    verdicts["curve_ample"] = PASS if ample else FAIL
    verdicts["blowup_ample"] = _seshadri(p, curve.multiplicities) if ample else NOT_CERTIFIED

    rep, clip, m = _positive_representation(C)
    verdicts["C_plus_K_positive"] = PASS if rep is not None else FAIL

    bound = min(Fraction(bl2, 9), Fraction(C2, 4) + lam.value)
    e_max = _largest_int_below(bound)

    D = CD = conditions = None
    table = DegBTable()
    if ample and rep is not None:  # the interpolation is the theorem's, for ample C only
        # rep is positive by construction, and 2 C.D <= C^2 as C is nef
        a = rep.coeffs
        d = tuple(c // 2 for c in a)
        q = _pairings(d, curve.fan.self_intersections)
        CD, _, b = _interpolation(a, p, d, q)
        D = ToricDivisor(curve.fan, d)
        if e_max is not None:
            table = DegBTable(CD, e_max)
            E = tuple(y - x for x, y in zip(a, d))  # D - C_rep, which pairs as q - p
            # h0(E) = 0, and h2(E) counts the points of the clip in m's class mod 2
            h1 = _h1(E, 0, geometry._class_count(*clip, m), _chi(E, [v - u for u, v in zip(p, q)]))
            conditions = _verdicts(CD, C2, h1, Fraction(b - 4 * e_max, 4), p)

    return InterpolationReport(
        lambda_value=lam.value,
        lambda_subset=lam.argmin_subset,
        positive_rep=rep,
        interp_divisor=D,
        CD=CD,
        C2=C2,
        blowup_C2=bl2,
        degree_bound=bound,
        e_max=e_max,
        hypothesis_verdicts=verdicts,
        degB_table=table,
        conditions=conditions,
    )


@dataclass(frozen=True)
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
