"""Cross-oracle self-test suites.

Each suite pits two independent routes at each other (lattice counts vs
Riemann-Roch, lattice counts vs peeling fixed components, pairing vs class
shifts, lambda(S) vs its closed forms on P^2 and F_m, the interpolation report
vs divisor arithmetic, the galloping lex-min search vs a column-by-column scan)
on seeded random inputs, so a fresh build can be sanity-checked from the CLI
without the dev test harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, List

from . import geometry
from .cohomology import cohomology, euler_characteristic
from .divisor import (
    Positivity,
    ToricDivisor,
    canonical_divisor,
    intersect_primes,
    intersection_number,
    positivity,
    principal_divisor,
)
from .fan import ToricSurfaceFan, build_fan, det, hirzebruch, p1xp1, p2
from .lowdeg import (
    CurveOnSurface,
    lambda_invariant,
    toric_theorem_report,
)
from .plane import remark_inequality_check

SEED = 20240601


@dataclass
class SuiteResult:
    name: str
    ok: bool
    detail: str


def _builtin_fans() -> List[ToricSurfaceFan]:
    return [p2(), hirzebruch(1), hirzebruch(2), p1xp1()]


def _random_divisor(rng: random.Random, fan: ToricSurfaceFan) -> ToricDivisor:
    return ToricDivisor(fan, tuple(rng.randint(-6, 9) for _ in range(fan.n)))


def _random_nef(rng: random.Random, fan: ToricSurfaceFan) -> ToricDivisor:
    while True:
        D = ToricDivisor(fan, tuple(rng.randint(0, 9) for _ in range(fan.n)))
        if positivity(D) is not Positivity.NOT_NEF:
            return D


def suite_hrr_vs_count() -> SuiteResult:
    """On nef divisors h0 must equal chi with h1 = h2 = 0: the lattice count
    and the intersection-number formula are fully independent."""
    rng = random.Random(SEED)
    fans = _builtin_fans()
    for k in range(200):
        fan = fans[k % len(fans)]
        D = _random_nef(rng, fan)
        prof = cohomology(D)
        if not (prof.h0 == prof.chi and prof.h1 == 0 and prof.h2 == 0):
            return SuiteResult(
                "hrr-vs-count", False, f"fan={fan.name} coeffs={D.coeffs} -> {prof}"
            )
    return SuiteResult("hrr-vs-count", True, "200 nef divisors")


def _random_blowup(rng: random.Random) -> ToricSurfaceFan:
    """P^2 or F_0..F_3 after random blowups, up to 9 rays."""
    m = rng.randint(0, 3)
    rays = rng.choice([[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, m), (0, -1)]])
    for _ in range(rng.randint(0, 9 - len(rays))):
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return build_fan(rays)


def _unit_polygon_class(fan: ToricSurfaceFan) -> ToricDivisor:
    """An ample class: the lattice polygon with every edge of length 1, once
    two adjacent edges have grown by what closes it.  The edge on ray u_j
    runs along (u_j.y, -u_j.x), so lengths l close it when sum l_j u_j = 0."""
    rays, n = fan.rays, fan.n
    lengths = [1] * n
    r = (-sum(u[0] for u in rays), -sum(u[1] for u in rays))
    for k in range(n):
        u, v = rays[k], rays[(k + 1) % n]
        alpha, beta = det(r, v), det(u, r)  # r = alpha u + beta v, as det(u, v) = 1
        if alpha >= 0 and beta >= 0:
            lengths[k] += alpha
            lengths[(k + 1) % n] += beta
            break
    # the vertex on rays j and j+1 walks the edges from the origin
    m, coeffs = (0, 0), []
    for j, (ux, uy) in enumerate(rays):
        if j:
            m = (m[0] + lengths[j] * uy, m[1] - lengths[j] * ux)
        coeffs.append(-(m[0] * ux + m[1] * uy))
    return ToricDivisor(fan, tuple(coeffs))


def _peeled_h0(D: ToricDivisor, A: ToricDivisor) -> int:
    """h0(D) without a polygon, for an ample A, by peeling fixed components
    off D curve by curve (Zariski decomposition).  If D.D_j < 0, then D_j is
    a fixed component when D_j^2 < 0 and h0(D) = 0 when D_j is nef; each peel
    lowers D.A, and D.A < 0 means h0(D) = 0.  A nef D has h0 = chi (Demazure
    vanishing)."""
    fan, a = D.fan, list(D.coeffs)
    while True:
        pairings = intersect_primes(ToricDivisor(fan, tuple(a)))  # D.D_j
        if sum(c * p for c, p in zip(A.coeffs, pairings)) < 0:
            return 0
        j = next((j for j, p in enumerate(pairings) if p < 0), None)
        if j is None:
            return euler_characteristic(ToricDivisor(fan, tuple(a)))
        if fan.self_intersections[j] >= 0:
            return 0
        a[j] -= 1


def suite_peeled_h0() -> SuiteResult:
    """h0 and h2 = h0(K - D) by lattice counts against the peeling oracle,
    on divisors that are mostly not nef, where h0 and chi part."""
    rng = random.Random(SEED + 4)
    for _ in range(500):
        fan = _random_blowup(rng)
        A = _unit_polygon_class(fan)
        D = _random_divisor(rng, fan)
        prof = cohomology(D)
        want = (_peeled_h0(D, A), _peeled_h0(canonical_divisor(fan) - D, A))
        if positivity(A) is not Positivity.AMPLE or (prof.h0, prof.h2) != want:
            return SuiteResult(
                "peeled-h0", False, f"rays={fan.rays} coeffs={D.coeffs} -> {prof}, peeled {want}"
            )
    return SuiteResult("peeled-h0", True, "500 divisors on blowups of P2 and F_0..F_3")


def suite_serre_duality() -> SuiteResult:
    rng = random.Random(SEED + 1)
    fans = _builtin_fans()
    for k in range(500):
        fan = fans[k % len(fans)]
        D = _random_divisor(rng, fan)
        K = canonical_divisor(fan)
        if euler_characteristic(D) != euler_characteristic(K - D):
            return SuiteResult("serre-duality", False, f"fan={fan.name} coeffs={D.coeffs}")
    return SuiteResult("serre-duality", True, "500 divisors")


def suite_pairing() -> SuiteResult:
    """Bilinearity, symmetry and invariance under principal shifts."""
    rng = random.Random(SEED + 2)
    fans = _builtin_fans()
    grid = [(1, 0), (0, 1), (-1, 2), (3, -2)]
    for k in range(500):
        fan = fans[k % len(fans)]
        D = _random_divisor(rng, fan)
        E = _random_divisor(rng, fan)
        F = _random_divisor(rng, fan)
        de = intersection_number(D, E)
        if de != intersection_number(E, D):
            return SuiteResult("pairing", False, f"symmetry fails on {fan.name}")
        if intersection_number(D + F, E) != de + intersection_number(F, E):
            return SuiteResult("pairing", False, f"bilinearity fails on {fan.name}")
        m = grid[k % len(grid)]
        if intersection_number(D + principal_divisor(fan, m), E) != de:
            return SuiteResult("pairing", False, f"class invariance fails on {fan.name}")
    return SuiteResult("pairing", True, "500 random triples")


def suite_lambda_table() -> SuiteResult:
    """lambda(P^2) = -1/4 with inner minimum -9, lambda(F_m) = -m/4."""
    res = lambda_invariant(p2())
    if res.value != Fraction(-1, 4) or res.inner_min != -9:
        return SuiteResult("lambda-hirzebruch", False, f"P2 -> {res}")
    for m in range(1, 6):
        val = lambda_invariant(hirzebruch(m)).value
        if val != Fraction(-m, 4):
            return SuiteResult("lambda-hirzebruch", False, f"F{m} -> {val}")
    return SuiteResult("lambda-hirzebruch", True, "P2 and F_1..F_5")


def suite_remark_inequality() -> SuiteResult:
    for d in range(4, 61):
        for delta in range(0, (d - 3) // 3 + 1):
            if not remark_inequality_check(d, delta):
                return SuiteResult("remark-inequality", False, f"d={d} delta={delta}")
    return SuiteResult("remark-inequality", True, "d = 4..60, all admissible delta")


def suite_positive_representation() -> SuiteResult:
    """For random ample C with C + K > 0, the report against divisor arithmetic:
    C_rep - C is principal, D = floor(C_rep/2), C.D and C^2 by intersection_number,
    h1 by cohomology(D - C_rep), where the report counts lattice points, and the
    section bound, which dominates C^2/4 + lambda - e_max, from R = C_rep - 2D."""
    rng = random.Random(SEED + 3)
    fans = _builtin_fans()
    done = 0
    while done < 120:
        fan = fans[done % len(fans)]
        C = ToricDivisor(fan, tuple(rng.randint(1, 9) for _ in range(fan.n)))
        if positivity(C) is not Positivity.AMPLE:
            continue
        r = toric_theorem_report(CurveOnSurface(fan, C))
        rep, c = r.positive_rep, r.conditions
        if rep is None:
            continue
        # the first two rays are a lattice basis, so they pin the m of rep - C
        diff, ((ax, ay), (bx, by)) = (rep - C).coeffs, fan.rays[:2]
        m = (diff[0] * by - diff[1] * ay, ax * diff[1] - bx * diff[0])
        D = ToricDivisor(fan, tuple(a // 2 for a in rep.coeffs))
        R, K = rep - D - D, canonical_divisor(fan)
        RR, C2 = intersection_number(R, K + K + R), intersection_number(C, C)
        CD, h1 = intersection_number(C, D), cohomology(D - rep).h1
        bound = Fraction(RR, 4) + 2 + Fraction(C2, 4) - r.e_max
        got = (principal_divisor(fan, m).coeffs, r.interp_divisor, r.CD, r.C2, c.CD, c.C2)
        got += (c.h1_D_minus_C, c.h0_bound)
        if got != (diff, D, CD, C2, CD, C2, h1, bound) or RR < 4 * r.lambda_value - 8:
            return SuiteResult(
                "positive-representation", False, f"fan={fan.name} C={C.coeffs} e={r.e_max}"
            )
        done += 1
    return SuiteResult("positive-representation", True, "120 ample curve classes")


def _column_scan(halfplanes, x0: int, x1: int):
    """The lex-min lattice point among the columns x0..x1, one column at a time."""
    for x in range(x0, x1 + 1):
        lo = max(-((ux * x - c) // uy) for (ux, uy), c in halfplanes if uy > 0)
        hi = min((c - ux * x) // uy for (ux, uy), c in halfplanes if uy < 0)
        if lo <= hi and all(ux * x >= c for (ux, uy), c in halfplanes if uy == 0):
            return x, lo
    return None


def suite_lexmin() -> SuiteResult:
    """The lex-min lattice point against a column scan, on slivers along
    q y - p x = k, whose lattice points lie q columns apart (some with a
    break of the lower envelope just left of the first), and on P_{C+K} for
    ample C: it lies in P_C, whose vertices have |x| <= B."""
    rng = random.Random(SEED + 5)
    for i in range(200):
        if i % 2:
            q, x0, k = rng.randint(1, 400), rng.randint(-99, 99), rng.randint(-999, 999)
            p = next(p for p in range(rng.randint(-99, 99), 999) if gcd(p, q) == 1)
            w = rng.randint(0, 2 * q)
            hs = [((1, 0), x0), ((-p, q), k), ((-1, 0), -x0 - w), ((p, -q), -k)]
            if i % 4 == 3:  # a lower line of slope p/q - 2 meets the sliver at x - 1/2
                x = x0 + (-k * pow(p, -1, q) - x0) % q  # the first lattice column
                hs.insert(1, ((2 * q - p, q), k + q * (2 * x - 1)))
            lo, hi = x0, x0 + w
        else:
            fan = _random_blowup(rng)
            m = (rng.randint(-9, 9), rng.randint(-9, 9))
            C = _unit_polygon_class(fan) * rng.randint(1, 4) + principal_divisor(fan, m)
            B = 2 * max(map(abs, C.coeffs)) * max(abs(c) for u in fan.rays for c in u)
            hs, lo, hi = (C + canonical_divisor(fan)).halfplanes, -B, B
        if geometry.lexmin_lattice_point(hs) != _column_scan(hs, lo, hi):
            return SuiteResult("lexmin", False, f"half-planes {hs}")
    return SuiteResult("lexmin", True, "200 slivers and polygons of C + K")


ALL_SUITES: List[Callable[[], SuiteResult]] = [
    suite_hrr_vs_count,
    suite_peeled_h0,
    suite_serre_duality,
    suite_pairing,
    suite_lambda_table,
    suite_remark_inequality,
    suite_positive_representation,
    suite_lexmin,
]


def run_selftest() -> List[SuiteResult]:
    return [suite() for suite in ALL_SUITES]
