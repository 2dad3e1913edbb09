"""Degree bounds and decomposition parameters for plane curves.

Specialises the interpolation machinery to curves of degree d in P^2 with
delta ordinary nodes and cusps.  The bounds involve sqrt(d^2 - 36 delta);
all comparisons against it are exact integer ones, never with floats,
because the interesting values sit right at integer boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Tuple

from .errors import ContractViolation, HypothesisViolation, InternalInconsistency, _record, require_int

# verdict labels and the blowup numbers shared with the toric reports
from .lowdeg import FAIL, PASS, _blowup


def _check_signs(d: int, delta: int, e: int = 0) -> None:
    for name, v in (("d", d), ("delta", delta), ("e", e)):
        require_int(v, name)
    if d < 0 or delta < 0:
        raise ContractViolation(f"d and delta must be >= 0, got d={d}, delta={delta}")


def _discriminant(d: int, delta: int) -> int:
    disc = d * d - 36 * delta
    if disc < 0:
        raise HypothesisViolation(f"d^2 < 36 delta for d={d}, delta={delta}")
    return disc


def _ceil_sqrt(n: int) -> int:
    r = isqrt(n)
    return r if r * r == n else r + 1


def _terms(d: int, delta: int) -> Tuple[Fraction, Fraction, Fraction, int, bool]:
    """(e_bound, term1, term2, t, certified) for a d and delta already checked:
    the one place these numbers are worked out.  term1 = C~^2/9 and certified
    (2 delta < d) are `_blowup`'s for C = dH with delta points of multiplicity
    2.  term2 = (t(d - t) - delta)/2, and e_bound is max(term1, term2).

    t = ceil((d + sqrt(disc)) / 6) is the smallest integer t with
    6t - d >= sqrt(disc), which for an integer 6t - d means
    6t - d >= r = ceil(sqrt(disc)).
    """
    t = -(-(d + _ceil_sqrt(_discriminant(d, delta))) // 6)
    bl2, certified = _blowup(d * d, d, 2 * delta, 4 * delta)
    term1 = Fraction(bl2, 9)
    term2 = Fraction(t * (d - t) - delta, 2)
    return max(term1, term2), term1, term2, t, certified


def sqrt_ceil_term(d: int, delta: int) -> int:
    """ceil((d + sqrt(d^2 - 36 delta)) / 6), exactly."""
    _check_signs(d, delta)
    return _terms(d, delta)[3]


def _level_m(d: int, delta: int, e: int) -> Optional[int]:
    # find_m on checked arguments
    s = e + delta
    if d < 3 or s < d - 1 or s >= d * d // 4:
        return None
    return (d - _ceil_sqrt(d * d - 4 * s)) // 2


def find_m(d: int, delta: int, e: int) -> Optional[int]:
    """The curve degree m with m(d-m) <= e + delta < (m+1)(d-(m+1)), 1 <= m < d/2.

    m(d - m) rises for m < d/2, so m is the largest m with m(d - m) <= s =
    e + delta: (d - ceil(sqrt(d^2 - 4s))) // 2.  None when s < d - 1
    (degree-e divisors cannot move, by the gonality floor), and when d < 3 or
    s >= floor(d^2/4), where no such m exists.  A negative d or delta, or a
    non-int d, delta or e, is refused; d^2 < 36 delta is not.

    Whenever e < e_bound, m is None or m < sqrt_ceil_term(d, delta).
    """
    _check_signs(d, delta, e)
    return _level_m(d, delta, e)


@_record
class ChainLevel:
    level: int
    degree_bound: Fraction  # degrees at this level are <= (level 0) or < it
    m: Optional[int]


@_record
class PlaneReport:
    d: int
    delta: int
    e: int
    e_bound: Fraction
    term1: Fraction
    ceil_term: int
    term2: Fraction
    m: Optional[int]
    degB: Optional[int]
    chain: Tuple[ChainLevel, ...]
    hypotheses: Dict[str, str]
    conclusion_guaranteed: bool


def _chain(d: int, delta: int, e: int) -> List[ChainLevel]:
    """Numeric skeleton of the inductive decomposition, on checked arguments:
    base-divisor degree bounds halve at every level (e/2, e/4, ...) until only
    non-moving and singular points can remain, or no degree >= 1 is left below
    the bound (e <= 0 stops at level 0), so at most floor(log2 e) + 2 levels."""
    levels, k = [], 0
    while True:
        top = (e - 1) >> k if k else e  # ceil(e/2^k) - 1 after level 0
        m = _level_m(d, delta, top)
        levels.append(ChainLevel(level=k, degree_bound=Fraction(e, 1 << k), m=m))
        if m is None or m * d - top <= 0 or top < 1:
            return levels
        k += 1


def plane_theorem_report(d: int, delta: int, e: int) -> PlaneReport:
    """Full verdict sheet for one (d, delta, e).

    Failed hypotheses are reported, not raised, with two exceptions:
    d^2 < 36 delta raises HypothesisViolation, as the bound needs
    sqrt(d^2 - 36 delta), and InternalInconsistency is raised where every
    hypothesis holds and deg B is not below e/2, which for d < 80 is
    exactly (d, delta, e) = (3t, t - 1, 2t), on the edge 3 delta = d - 3.
    Outside the guaranteed range we still compute m and deg B when the
    sandwich inequality has a solution, flagged via conclusion_guaranteed.
    """
    _check_signs(d, delta, e)
    e_bound, term1, term2, t, certified = _terms(d, delta)
    hypotheses = {
        "degree_at_least_4": PASS if d >= 4 else FAIL,
        "delta_small": PASS if 3 * delta <= d - 3 else FAIL,
        "e_in_range": PASS if 0 < e < e_bound else FAIL,
        "blowup_ample_2delta_lt_d": PASS if certified else FAIL,
    }
    guaranteed = all(v == PASS for v in hypotheses.values())
    chain = tuple(_chain(d, delta, e))
    m = chain[0].m
    degB = m * d - e if m is not None else None
    if guaranteed and degB is not None and 2 * degB >= e:
        raise InternalInconsistency(
            f"deg B = {degB} is not below e/2 for d={d}, delta={delta}, e={e}"
        )
    return PlaneReport(
        d=d,
        delta=delta,
        e=e,
        e_bound=e_bound,
        term1=term1,
        ceil_term=t,
        term2=term2,
        m=m,
        degB=degB,
        chain=chain,
        hypotheses=hypotheses,
        conclusion_guaranteed=guaranteed,
    )

