"""Cross-oracle self-test suites.

Each suite pits two independent routes at each other (lattice counts vs
Riemann-Roch, lattice counts vs peeling fixed components, pairing vs class
shifts, lambda(S) vs its closed forms on P^2 and F_m) on seeded random
inputs, so a fresh build can be sanity-checked from the CLI without the dev
test harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

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
    interpolation_divisor,
    lambda_invariant,
    mainprop_h0_bound,
    positive_curve_representation,
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


def _random_divisor(rng: random.Random, fan: ToricSurfaceFan, lo=-6, hi=9) -> ToricDivisor:
    return ToricDivisor(fan, tuple(rng.randint(lo, hi) for _ in range(fan.n)))


def _random_nef(rng: random.Random, fan: ToricSurfaceFan) -> ToricDivisor:
    while True:
        D = ToricDivisor(fan, tuple(rng.randint(0, 9) for _ in range(fan.n)))
        if positivity(D) is not Positivity.NOT_NEF:
            return D


def suite_hrr_vs_count(count: int = 200) -> SuiteResult:
    """On nef divisors h0 must equal chi with h1 = h2 = 0: the lattice count
    and the intersection-number formula are fully independent."""
    rng = random.Random(SEED)
    fans = _builtin_fans()
    for k in range(count):
        fan = fans[k % len(fans)]
        D = _random_nef(rng, fan)
        prof = cohomology(D)
        if not (prof.h0 == prof.chi and prof.h1 == 0 and prof.h2 == 0):
            return SuiteResult(
                "hrr-vs-count", False, f"fan={fan.name} coeffs={D.coeffs} -> {prof}"
            )
    return SuiteResult("hrr-vs-count", True, f"{count} nef divisors")


def _random_blowup(rng: random.Random, max_rays: int = 9) -> ToricSurfaceFan:
    """P^2 or F_0..F_3 after random blowups, up to max_rays rays."""
    m = rng.randint(0, 3)
    rays = rng.choice([[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, m), (0, -1)]])
    for _ in range(rng.randint(0, max_rays - len(rays))):
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


def suite_peeled_h0(count: int = 500) -> SuiteResult:
    """h0 and h2 = h0(K - D) by lattice counts against the peeling oracle,
    on divisors that are mostly not nef, where h0 and chi part."""
    rng = random.Random(SEED + 4)
    for _ in range(count):
        fan = _random_blowup(rng)
        A = _unit_polygon_class(fan)
        D = _random_divisor(rng, fan)
        prof = cohomology(D)
        want = (_peeled_h0(D, A), _peeled_h0(canonical_divisor(fan) - D, A))
        if positivity(A) is not Positivity.AMPLE or (prof.h0, prof.h2) != want:
            return SuiteResult(
                "peeled-h0", False, f"rays={fan.rays} coeffs={D.coeffs} -> {prof}, peeled {want}"
            )
    return SuiteResult("peeled-h0", True, f"{count} divisors on blowups of P2 and F_0..F_3")


def suite_serre_duality(count: int = 500) -> SuiteResult:
    rng = random.Random(SEED + 1)
    fans = _builtin_fans()
    for k in range(count):
        fan = fans[k % len(fans)]
        D = _random_divisor(rng, fan)
        K = canonical_divisor(fan)
        if euler_characteristic(D) != euler_characteristic(K - D):
            return SuiteResult("serre-duality", False, f"fan={fan.name} coeffs={D.coeffs}")
    return SuiteResult("serre-duality", True, f"{count} divisors")


def suite_pairing(count: int = 500) -> SuiteResult:
    """Bilinearity, symmetry and invariance under principal shifts."""
    rng = random.Random(SEED + 2)
    fans = _builtin_fans()
    grid = [(1, 0), (0, 1), (-1, 2), (3, -2)]
    for k in range(count):
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
    return SuiteResult("pairing", True, f"{count} random triples")


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


def suite_positive_representation(count: int = 120) -> SuiteResult:
    """For random ample C with C + K > 0: C - 2 floor(C/2) has 0/1
    coefficients and the section bound dominates C^2/4 + lambda - e."""
    rng = random.Random(SEED + 3)
    fans = _builtin_fans()
    done = 0
    while done < count:
        fan = fans[done % len(fans)]
        C = ToricDivisor(fan, tuple(rng.randint(1, 9) for _ in range(fan.n)))
        if positivity(C) is not Positivity.AMPLE:
            continue
        rep = positive_curve_representation(fan, C)
        if rep is None:
            continue
        D, CD, C2 = interpolation_divisor(fan, rep)
        lam = lambda_invariant(fan).value
        for e in (1, 2, 5):
            if mainprop_h0_bound(fan, rep, D, e) < Fraction(C2, 4) + lam - e:
                return SuiteResult(
                    "positive-representation", False, f"fan={fan.name} C={C.coeffs} e={e}"
                )
        done += 1
    return SuiteResult("positive-representation", True, f"{count} ample curve classes")


ALL_SUITES: List[Callable[[], SuiteResult]] = [
    suite_hrr_vs_count,
    suite_peeled_h0,
    suite_serre_duality,
    suite_pairing,
    suite_lambda_table,
    suite_remark_inequality,
    suite_positive_representation,
]


def run_selftest() -> List[SuiteResult]:
    return [suite() for suite in ALL_SUITES]
