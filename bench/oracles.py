"""Independent checks of the program's outputs.

Each check recomputes the answer from the benchmark's own data (ray lists,
edge lengths l_i = C.D_i, coefficients) by a different route than the
program takes, and returns a list of mismatches; an empty list means the
output is right.  Nothing here imports the program.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, isqrt
from typing import List, Optional, Sequence, Tuple

Ray = Tuple[int, int]

PASS = "pass"
FAIL = "fail"
CERTIFIED = "certified_ample"
NOT_CERTIFIED = "not_certified"


def wall_numbers(rays: Sequence[Ray]) -> List[int]:
    """b_i with u_{i-1} + u_{i+1} = b_i u_i, so that D_i^2 = -b_i."""
    n = len(rays)
    out = []
    for i, u in enumerate(rays):
        p, q = rays[i - 1], rays[(i + 1) % n]
        s = (p[0] + q[0], p[1] + q[1])
        norm = u[0] * u[0] + u[1] * u[1]
        b, rest = divmod(s[0] * u[0] + s[1] * u[1], norm)
        if rest or (b * u[0], b * u[1]) != s:
            raise ValueError(f"u_{i - 1} + u_{i + 1} is not a multiple of u_{i}")
        out.append(b)
    return out


def subset_value(b: Sequence[int], subset: Sequence[int]) -> int:
    """sum_{i in S} (b_i - 4) + 2 #{i : i, i+1 in S}, indices cyclic."""
    n = len(b)
    s = set(subset)
    return sum(b[i] - 4 for i in s) + 2 * sum(1 for i in s if (i + 1) % n in s)


def lambda_inner_min(b: Sequence[int]) -> int:
    """Minimum of subset_value over all subsets, by a two-state dynamic
    programme around the cycle (once with the first ray out, once in)."""
    c = [bi - 4 for bi in b]
    best = inf
    for first in (0, 1):
        cur = [0, inf] if first == 0 else [inf, c[0]]
        for ci in c[1:]:
            cur = [min(cur[0], cur[1]), min(cur[0], cur[1] + 2) + ci]
        best = min(best, cur[0], cur[1] + 2 * first)
    return best


def largest_int_below(x: Fraction) -> Optional[int]:
    """Largest integer strictly below x, or None when it is not positive."""
    e = x.numerator // x.denominator
    if e == x:
        e -= 1
    return e if e >= 1 else None


def principal_shift(rays: Sequence[Ray], diff: Sequence[int]) -> Optional[Ray]:
    """The m with <m, u_i> = diff_i for all i, or None.  Solved on the first
    two rays (det 1) and checked on the rest."""
    (p, q), (r, s) = rays[0], rays[1]
    x, y = diff[0], diff[1]
    m = (x * s - y * q, p * y - r * x)
    if all(m[0] * u[0] + m[1] * u[1] == d for u, d in zip(rays, diff)):
        return m
    return None


def check_lambda(rays: Sequence[Ray], value: Fraction, subset: Sequence[int],
                 inner_min: Optional[int] = None) -> List[str]:
    b = wall_numbers(rays)
    val = lambda_inner_min(b)
    bad = []
    if value != 2 + Fraction(val, 4):
        bad.append(f"lambda {value} != {2 + Fraction(val, 4)}")
    if inner_min is not None and inner_min != val:
        bad.append(f"inner_min {inner_min} != {val}")
    if subset_value(b, subset) != val:
        bad.append(f"argmin subset {list(subset)} has value {subset_value(b, subset)} != {val}")
    return bad


def check_report(rays: Sequence[Ray], coeffs: Sequence[int], lengths: Sequence[int],
                 mults: Sequence[int], rep: dict) -> List[str]:
    """Check a toric interpolation report, given as a dict with the fields
    lambda_value, lambda_subset, C2, blowup_C2, degree_bound, e_max,
    hypothesis_verdicts, positive_rep, interp_divisor, CD and degB_table
    (rationals as Fractions, divisors as coefficient tuples or None)."""
    b = wall_numbers(rays)
    lam = 2 + Fraction(lambda_inner_min(b), 4)
    bad = check_lambda(rays, rep["lambda_value"], rep["lambda_subset"])
    verdicts = rep["hypothesis_verdicts"]
    c2 = sum(a * l for a, l in zip(coeffs, lengths))
    if rep["C2"] != c2:
        bad.append(f"C^2 {rep['C2']} != {c2}")
    if verdicts.get("curve_ample") != PASS:
        bad.append(f"curve_ample is {verdicts.get('curve_ample')!r} for an ample class")
    bl2 = c2 - sum(d * d for d in mults)
    if rep["blowup_C2"] != bl2:
        bad.append(f"blowup C^2 {rep['blowup_C2']} != {bl2}")
    bound = min(Fraction(bl2, 9), Fraction(c2, 4) + lam)
    if rep["degree_bound"] != bound:
        bad.append(f"degree bound {rep['degree_bound']} != {bound}")
    e_max = largest_int_below(bound)
    if rep["e_max"] != e_max:
        bad.append(f"e_max {rep['e_max']} != {e_max}")
    seshadri = CERTIFIED if sum(mults) < min(lengths) else NOT_CERTIFIED
    if verdicts.get("blowup_ample") != seshadri:
        bad.append(f"blowup_ample {verdicts.get('blowup_ample')!r} != {seshadri!r}")

    anticanonical = all(l == 2 - bi for l, bi in zip(lengths, b))
    genus = 1 + (c2 - sum(lengths)) // 2
    exists = genus >= 1 and not anticanonical
    pos = rep["positive_rep"]
    if (pos is not None) != exists:
        bad.append(f"positive representation {'missing' if exists else 'given'} (p_a = {genus})")
    if verdicts.get("C_plus_K_positive") != (PASS if exists else FAIL):
        bad.append(f"C_plus_K_positive is {verdicts.get('C_plus_K_positive')!r}")
    if pos is None:
        return bad
    if min(pos) < 1 or max(pos) < 2:
        bad.append(f"positive representation {list(pos)} is not >= 1 with some >= 2")
    if principal_shift(rays, [p - a for p, a in zip(pos, coeffs)]) is None:
        bad.append(f"positive representation {list(pos)} is not linearly equivalent to C")
    half = tuple(p // 2 for p in pos)
    if tuple(rep["interp_divisor"]) != half:
        bad.append(f"interpolation divisor {list(rep['interp_divisor'])} != {list(half)}")
    cd = sum(d * l for d, l in zip(half, lengths))
    if rep["CD"] != cd:
        bad.append(f"C.D {rep['CD']} != {cd}")
    table = tuple((e, cd - e) for e in range(1, (e_max or 0) + 1))
    if tuple(tuple(row) for row in rep["degB_table"]) != table:
        bad.append("deg B table differs")
    return bad


def report_fields(report) -> dict:
    """The fields check_report reads, from an InterpolationReport."""
    return {
        "lambda_value": report.lambda_value,
        "lambda_subset": report.lambda_subset,
        "C2": report.C2,
        "blowup_C2": report.blowup_C2,
        "degree_bound": report.degree_bound,
        "e_max": report.e_max,
        "hypothesis_verdicts": report.hypothesis_verdicts,
        "positive_rep": None if report.positive_rep is None else report.positive_rep.coeffs,
        "interp_divisor": None if report.interp_divisor is None else report.interp_divisor.coeffs,
        "CD": report.CD,
        "degB_table": report.degB_table,
    }


def report_fields_json(obj: dict) -> dict:
    """The fields check_report reads, from the check-toric --json output."""
    out = dict(obj)
    out["lambda_value"] = Fraction(obj["lambda_value"])
    out["degree_bound"] = Fraction(obj["degree_bound"])
    return out


def hirzebruch_h0(m: int, a: int, b: int) -> int:
    """h0 of the nef class aC0 + bF on F_m (a >= 0, b >= m a): the lattice
    points of the trapezoid, columns j = 0..a of height b - m j + 1."""
    return (a + 1) * (b + 1) - m * a * (a + 1) // 2


def hirzebruch_pairing(m: int, a: int, b: int, c: int, d: int) -> int:
    """(aC0 + bF).(cC0 + dF) with C0^2 = -m, C0.F = 1, F^2 = 0."""
    return -m * a * c + a * d + b * c


def ample_euler_characteristic(coeffs: Sequence[int], lengths: Sequence[int]) -> int:
    """chi = 1 + (C^2 - K.C)/2 with C^2 = sum a_i l_i and K.C = -sum l_i."""
    return 1 + (sum(a * l for a, l in zip(coeffs, lengths)) + sum(lengths)) // 2


def check_cohomology(out: dict, h0: int) -> List[str]:
    """A nef class has h1 = h2 = 0, so h0 = chi."""
    want = {"h0": h0, "h1": 0, "h2": 0, "chi": h0}
    return [f"{k} {out.get(k)} != {v}" for k, v in want.items() if out.get(k) != v]


def check_hirzebruch_example(n: int, out: dict) -> List[str]:
    bad = []
    want = {"C2": n * n + 2 * n, "deg_P": 3 * n + 1, "h0_D": hirzebruch_h0(1, 1, 3), "h1_D": 0}
    bad += [f"{k} {out.get(k)} != {v}" for k, v in want.items() if out.get(k) != v]
    if out.get("h0_C_P") != out.get("h0_D", 0) + out.get("h1_D_minus_C", 0):
        bad.append("h0(C,P) != h0(D) + h1(D-C)")
    return bad


def plane_t(d: int, delta: int) -> int:
    """ceil((d + sqrt(d^2 - 36 delta)) / 6) with math.isqrt."""
    disc = d * d - 36 * delta
    s = isqrt(disc)
    if s * s == disc:
        return -(-(d + s) // 6)
    return (d + s) // 6 + 1


def plane_m(d: int, delta: int, e: int) -> Optional[int]:
    """The m < d/2 with m(d-m) <= e + delta < (m+1)(d-m-1), by bisection on
    the increasing part of m(d-m)."""
    x = e + delta
    lo, hi = 0, (d - 1) // 2  # invariant: f(lo) <= x, searching the largest such m
    if hi < 1 or d - 1 > x:
        return None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * (d - mid) <= x:
            lo = mid
        else:
            hi = mid - 1
    m = lo
    return m if x < (m + 1) * (d - m - 1) else None


def plane_terms(d: int, delta: int) -> Tuple[int, Fraction, Fraction]:
    """(t, term1, term2): term1 = (d^2 - 4 delta)/9, term2 = (t(d-t) - delta)/2;
    the degree bound is the larger term."""
    t = plane_t(d, delta)
    return t, Fraction(d * d - 4 * delta, 9), Fraction(t * (d - t) - delta, 2)


def check_plane(d: int, delta: int, e: int, out: dict) -> List[str]:
    t, term1, term2 = plane_terms(d, delta)
    m = plane_m(d, delta, e)
    want = {
        "ceil_term": t,
        "term1": term1,
        "term2": term2,
        "e_bound": max(term1, term2),
        "m": m,
        "degB": None if m is None else m * d - e,
    }
    bad = []
    for k, v in want.items():
        got = out.get(k)
        if isinstance(v, Fraction):
            got = Fraction(got) if isinstance(got, str) else got
        if got != v:
            bad.append(f"{k} {out.get(k)} != {v}")
    return bad
