"""Cross-oracle self-test suites.

Each suite pits two independent routes at each other (lattice counts vs
Riemann-Roch, lattice counts vs peeling fixed components, pairing vs class
shifts, lambda(S) vs its closed forms on P^2 and F_m, the interpolation report
vs divisor arithmetic, the galloping lex-min search vs a column-by-column scan)
on seeded random inputs, so a fresh build can be sanity-checked from the CLI
without the dev test harness.  `SUITES` maps each suite's name to the suite
and what it covers; a suite returns its first failing case as text, or None
when it passes.  The oracles and samplers that the suites use live here
alone: the tests import them from this module.  Among them is the report
checker, `_report_fault`, which checks every field of an
`InterpolationReport`, all but lambda and its subset by divisor arithmetic,
and returns the first that differs.  The positive-representation suite, the
census's report tests and the report tests of `tests/test_lowdeg.py` that
go through its `checked` run their reports through it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, gcd
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import geometry
from .cohomology import cohomology, euler_characteristic
from .divisor import (
    Positivity,
    ToricDivisor,
    canonical_divisor,
    effective_representative,
    intersect_primes,
    intersection_number,
    positivity,
    principal_divisor,
)
from .fan import ToricSurfaceFan, build_fan, det, hirzebruch, p1xp1, p2
from .lowdeg import (
    ASSUMED,
    CERTIFIED,
    FAIL,
    NOT_CERTIFIED,
    PASS,
    ConditionVerdicts,
    CurveOnSurface,
    DegBTable,
    InterpolationReport,
    lambda_invariant,
    toric_theorem_report,
)

SEED = 20240601


def _builtin_fans() -> List[ToricSurfaceFan]:
    return [p2(), hirzebruch(1), hirzebruch(2), p1xp1()]


def _random_divisor(rng: random.Random, fan: ToricSurfaceFan) -> ToricDivisor:
    return ToricDivisor(fan, tuple(rng.randint(-6, 9) for _ in range(fan.n)))


def _random_nef(rng: random.Random, fan: ToricSurfaceFan) -> ToricDivisor:
    while True:
        D = ToricDivisor(fan, tuple(rng.randint(0, 9) for _ in range(fan.n)))
        if positivity(D) is not Positivity.NOT_NEF:
            return D


def suite_hrr_vs_count() -> Optional[str]:
    """On nef divisors h0 must equal chi with h1 = h2 = 0: the checked lattice
    count of P_D and the intersection-number formula are fully independent."""
    rng = random.Random(SEED)
    fans = _builtin_fans()
    for k in range(200):
        fan = fans[k % len(fans)]
        D = _random_nef(rng, fan)
        prof = cohomology(D)
        h0 = geometry.count_lattice_points(D.halfplanes)
        if not (h0 == prof.h0 == prof.chi and prof.h1 == 0 and prof.h2 == 0):
            return f"fan={fan.name} coeffs={D.coeffs} -> {prof}"


def _subdivide(rays: List[Tuple[int, int]], i: int) -> List[Tuple[int, int]]:
    u, v = rays[i], rays[(i + 1) % len(rays)]
    return rays[: i + 1] + [(u[0] + v[0], u[1] + v[1])] + rays[i + 1 :]


def _wall_numbers(rays: List[Tuple[int, int]]) -> List[int]:
    return [det(rays[j - 1], rays[(j + 1) % len(rays)]) for j in range(len(rays))]


def _random_blowup(rng: random.Random) -> ToricSurfaceFan:
    """P^2 or F_0..F_3 blown up by stellar subdivisions, up to 9 rays, at any arc start."""
    m = rng.randint(0, 3)
    rays = rng.choice([[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, m), (0, -1)]])
    for _ in range(rng.randint(0, 9 - len(rays))):
        rays = _subdivide(rays, rng.randrange(len(rays)))
    k = rng.randrange(len(rays))
    return build_fan(rays[k:] + rays[:k])


def _polygon_class(fan: ToricSurfaceFan, lengths: List[int]) -> Tuple[ToricDivisor, List[int]]:
    """The class of a lattice polygon with D.D_j = lengths[j], once two
    adjacent lengths have grown by what closes the polygon: nef, and ample
    when no length is 0.  The edge on ray u_j runs along (u_j.y, -u_j.x),
    so lengths l close it when sum l_j u_j = 0.  Returns the class and the
    final lengths."""
    rays, n, lengths = fan.rays, fan.n, list(lengths)
    r = tuple(-sum(l * u[i] for l, u in zip(lengths, rays)) for i in (0, 1))
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
    return ToricDivisor(fan, tuple(coeffs)), lengths


def _peeled_h0(D: ToricDivisor, A: ToricDivisor) -> int:
    """h0(D) without a polygon, for an ample A, by peeling fixed components
    off D curve by curve (Zariski decomposition), from the rays alone and no
    pairing of the library: u_{j-1} + u_{j+1} = b_j u_j with b_j =
    det(u_{j-1}, u_{j+1}) gives D_j^2 = -b_j and D.D_j = a_{j-1} + a_{j+1}
    - b_j a_j.  If D.D_j < 0, then D_j is a fixed component when D_j^2 < 0
    and h0(D) = 0 when D_j is nef; each peel lowers D.A, and D.A < 0 means
    h0(D) = 0.  A nef D has h0 = chi = 1 + (D^2 - K.D)/2 (Demazure
    vanishing), where K = -sum D_j."""
    n, a, b = D.fan.n, list(D.coeffs), _wall_numbers(D.fan.rays)
    while True:
        p = [a[j - 1] + a[(j + 1) % n] - b[j] * a[j] for j in range(n)]  # D.D_j
        if sum(c * pj for c, pj in zip(A.coeffs, p)) < 0:
            return 0
        j = next((j for j in range(n) if p[j] < 0), None)
        if j is None:
            return 1 + (sum(aj * pj for aj, pj in zip(a, p)) + sum(p)) // 2
        if b[j] <= 0:
            return 0
        a[j] -= 1


def suite_peeled_h0() -> Optional[str]:
    """h0 and h2 = h0(K - D) by lattice counts against the peeling oracle,
    on divisors that are mostly not nef, where h0 and chi part."""
    rng = random.Random(SEED + 4)
    for _ in range(500):
        fan = _random_blowup(rng)
        A = _polygon_class(fan, [1] * fan.n)[0]
        D = _random_divisor(rng, fan)
        prof = cohomology(D)
        want = (_peeled_h0(D, A), _peeled_h0(canonical_divisor(fan) - D, A))
        if positivity(A) is not Positivity.AMPLE or (prof.h0, prof.h2) != want:
            return f"rays={fan.rays} coeffs={D.coeffs} -> {prof}, peeled {want}"


def suite_serre_duality() -> Optional[str]:
    rng = random.Random(SEED + 1)
    fans = _builtin_fans()
    for k in range(500):
        fan = fans[k % len(fans)]
        D = _random_divisor(rng, fan)
        K = canonical_divisor(fan)
        if euler_characteristic(D) != euler_characteristic(K - D):
            return f"fan={fan.name} coeffs={D.coeffs}"


def suite_pairing() -> Optional[str]:
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
            return f"symmetry fails on {fan.name}"
        if intersection_number(D + F, E) != de + intersection_number(F, E):
            return f"bilinearity fails on {fan.name}"
        m = grid[k % len(grid)]
        if intersection_number(D + principal_divisor(fan, m), E) != de:
            return f"class invariance fails on {fan.name}"


def suite_lambda_table() -> Optional[str]:
    """lambda(P^2) = -1/4 with inner minimum -9, lambda(F_m) = -m/4."""
    res = lambda_invariant(p2())
    if res.value != Fraction(-1, 4) or res.inner_min != -9:
        return f"P2 -> {res}"
    for m in range(1, 6):
        val = lambda_invariant(hirzebruch(m)).value
        if val != Fraction(-m, 4):
            return f"F{m} -> {val}"


def _classes_equal(D: ToricDivisor, E: ToricDivisor) -> bool:
    """D ~ E iff D - E = div(chi^m): the first two rays, a lattice basis, pin m."""
    diff, ((ax, ay), (bx, by)) = (D - E).coeffs, D.fan.rays[:2]
    m = (diff[0] * by - diff[1] * ay, ax * diff[1] - bx * diff[0])
    return principal_divisor(D.fan, m).coeffs == diff


def _positive_reports(rng: random.Random) -> Iterator[Tuple[CurveOnSurface, InterpolationReport]]:
    """Pairs (curve, report) for ample C with coefficients 1..9 and a positive representation."""
    fans, taken = _builtin_fans(), 0  # the builtin fans in turn, one per class taken
    while True:
        fan = fans[taken % len(fans)]
        C = ToricDivisor(fan, tuple(rng.randint(1, 9) for _ in range(fan.n)))
        if positivity(C) is Positivity.AMPLE:
            curve = CurveOnSurface(fan, C)
            r = toric_theorem_report(curve)
            if r.positive_rep is not None:
                taken += 1
                yield curve, r


def _halved(E: ToricDivisor) -> ToricDivisor:
    """floor(E/2), coefficient by coefficient."""
    return ToricDivisor(E.fan, tuple(c // 2 for c in E.coeffs))


def _condition_verdicts(C_rep: ToricDivisor, D: ToricDivisor, e: int) -> ConditionVerdicts:
    """The verdicts on the three conditions for any C_rep, D and degree e, by
    divisor arithmetic: C.D < C^2 by `intersection_number`, h1(D - C_rep) = 0
    by `cohomology`, and the section bound R.(2K + R)/4 + 2 + C^2/4 - e > 0
    for R = C_rep - 2D."""
    K, R, C2 = canonical_divisor(C_rep.fan), C_rep - D - D, intersection_number(C_rep, C_rep)
    bound = Fraction(intersection_number(R, K + K + R), 4) + 2 + Fraction(C2, 4) - e
    holds = (intersection_number(C_rep, D) < C2, cohomology(D - C_rep).h1 == 0, bound > 0)
    return ConditionVerdicts(*(PASS if h else FAIL for h in holds), bound)


def _report_fault(curve: CurveOnSurface, r: InterpolationReport) -> Optional[str]:
    """The first field of r, the report on `curve`, that differs from its
    value by divisor arithmetic, as text, or None; a number of another type
    differs too, so C.D and C^2 are exact ints.  lambda and its subset are
    `lambda_invariant`'s, which the report reads too: here they check only
    the report's copy, and the lambda-hirzebruch suite and the tests' subset
    scan check lambda itself.  Then the facts that the report's proofs rest
    on: C_rep = effective_representative(C + K) - K is ~ C, with
    coefficients >= 1; for an ample C, D = floor(C_rep/2) has 2 C.D <= C^2;
    with an e_max too, the three conditions pass, C^2 > 9 and h0_bound >=
    lambda + C^2/4 - e_max > 0, which says R.(2K + R) >= 4 lambda - 8 for
    R = C_rep - 2D."""
    fan, C, mults = curve.fan, curve.curve_class, curve.multiplicities
    K, lam, low = canonical_divisor(fan), lambda_invariant(fan), min(intersect_primes(C))
    C2 = intersection_number(C, C)
    bl2 = C2 - sum(d * d for d in mults)
    bound = min(Fraction(bl2, 9), Fraction(C2, 4) + lam.value)
    e_max = ceil(bound) - 1 if bound > 1 else None  # the largest int >= 1 below the bound
    E = effective_representative(C + K)
    rep = E - K if E is not None and max(E.coeffs) > 0 else None  # some coefficient >= 2
    verdicts = {
        "geometrically_integral": ASSUMED,
        "simple_singularities": ASSUMED,
        "curve_ample": PASS if low > 0 else FAIL,  # toric Kleiman
        "blowup_ample": CERTIFIED if sum(mults) < low else NOT_CERTIFIED,  # Seshadri
        "C_plus_K_positive": FAIL if rep is None else PASS,
    }
    facts = {}
    if rep is not None:
        facts["C_rep ~ C, coefficients >= 1"] = min(rep.coeffs) >= 1 and _classes_equal(rep, C)
    D = CD = conditions = None
    table = DegBTable()
    if rep is not None and low > 0:  # the gate: the interpolation is for ample C only
        D = _halved(rep)
        CD = intersection_number(C, D)
        facts["2 C.D <= C^2"] = 2 * CD <= C2
        if e_max is not None:
            c = conditions = _condition_verdicts(rep, D, e_max)
            table = DegBTable(CD, e_max)
            passed = c.intersection_bound == c.surjectivity == c.section_lift == PASS
            facts["the three conditions pass"] = passed
            bounded = c.h0_bound >= lam.value + Fraction(C2, 4) - e_max > 0
            facts["C^2 > 9, h0_bound >= lambda + C^2/4 - e_max > 0"] = C2 > 9 and bounded
    # the fields in the record's order, given by position, so that a new field
    # of InterpolationReport fails this call, or meets its default, until it is
    # worked out here
    expected = InterpolationReport(
        lam.value, lam.argmin_subset, rep, D, CD, C2, bl2, bound, e_max, verdicts, table, conditions
    )
    checks = [(what, getattr(r, what), want) for what, want in vars(expected).items()]
    for what, got, want in checks + [(what, holds, True) for what, holds in facts.items()]:
        if type(got) is not type(want) or got != want:
            return f"{what}: {got!r}, not {want!r}"
    return None


def suite_positive_representation() -> Optional[str]:
    """Reports on random ample C with C + K > 0 against `_report_fault`."""
    for _, (curve, r) in zip(range(120), _positive_reports(random.Random(SEED + 3))):
        fault = _report_fault(curve, r)
        if fault is not None:
            return f"fan={curve.fan.name} C={curve.curve_class.coeffs} e={r.e_max}: {fault}"


def _column_points(halfplanes, x0: int, x1: int) -> Iterator[Tuple[int, int]]:
    """The lattice points among the columns x0..x1 of a region bounded above
    and below, scanned one column at a time, each from the bottom: the first
    is the lex-min point.  A vertical line u_x x >= c cuts the columns once,
    to those from ceil(c/u_x) when u_x > 0 and up to floor(c/u_x) when u_x < 0;
    in column x a line with u_y > 0 gives y >= ceil((c - u_x x)/u_y), and
    one with u_y < 0 gives y <= floor((c - u_x x)/u_y)."""
    below, above = [], []  # the lines with u_y > 0 and with u_y < 0
    for (ux, uy), c in halfplanes:
        if uy:
            (below if uy > 0 else above).append((ux, uy, c))
        elif ux > 0:
            x0 = max(x0, -(-c // ux))
        else:
            x1 = min(x1, c // ux)
    (bx, by, bc), *below = below  # the first line of each side starts its bound
    (ax, ay, ac), *above = above
    for x in range(x0, x1 + 1):
        lo, hi = -((bx * x - bc) // by), (ac - ax * x) // ay
        for ux, uy, c in below:
            lo = max(lo, -((ux * x - c) // uy))
        for ux, uy, c in above:
            hi = min(hi, (c - ux * x) // uy)
        for y in range(lo, hi + 1):
            yield x, y


def suite_lexmin() -> Optional[str]:
    """The lex-min lattice point against a column scan, on slivers along
    q y - p x = k, whose lattice points lie q columns apart (some with a
    break of the lower envelope just left of the first), and on P_{C+K} for
    ample C: it lies in P_C, whose vertices have |x| <= B.  There the shift of
    `effective_representative(C + K)` too, the arc start's cone vertex if nef."""
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
            C = _polygon_class(fan, [1] * fan.n)[0] * rng.randint(1, 4) + principal_divisor(fan, m)
            B = 2 * max(map(abs, C.coeffs)) * max(abs(c) for u in fan.rays for c in u)
            E = C + canonical_divisor(fan)
            hs, lo, hi = E.halfplanes, -B, B
        want = next(_column_points(hs, lo, hi), None)
        if geometry.lexmin_lattice_point(hs) != want or i % 2 == 0 and (
            effective_representative(E) != (want and E + principal_divisor(fan, want))
        ):
            return f"half-planes {hs}"


SUITES: Dict[str, Tuple[Callable[[], Optional[str]], str]] = {
    "hrr-vs-count": (suite_hrr_vs_count, "200 nef divisors"),
    "peeled-h0": (suite_peeled_h0, "500 divisors on blowups of P2 and F_0..F_3"),
    "serre-duality": (suite_serre_duality, "500 divisors"),
    "pairing": (suite_pairing, "500 random triples"),
    "lambda-hirzebruch": (suite_lambda_table, "P2 and F_1..F_5"),
    "positive-representation": (suite_positive_representation, "120 ample curve classes"),
    "lexmin": (suite_lexmin, "200 slivers and polygons of C + K"),
}


def run_selftest() -> List[Dict[str, object]]:
    """One row per suite, in the table's order: its name, whether it passed,
    and what it covers or its first failing case."""
    rows = []
    for name, (suite, covers) in SUITES.items():
        fault = suite()
        detail = covers if fault is None else fault
        rows.append({"suite": name, "ok": fault is None, "detail": detail})
    return rows
