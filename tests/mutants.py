"""A table of mutants of src/toricpoints, and the test files that must kill each.

    python tests/mutants.py              # every mutant in the table
    python tests/mutants.py NAME ...     # only the named ones

For each mutant the runner copies src/, tests/ and pytest.ini to a
temporary directory, replaces the mutant's snippet (which occurs exactly
once) with its replacement, and runs `python -m pytest -x -q <files>` there.
The mutant is killed when that run fails.  A run that outlives TIMEOUT_S
seconds is stopped and does not count as a kill: a test that hangs on a
fault has to be made to fail instead.  The runner prints one line per
mutant, killed, SURVIVED or TIMEOUT with the seconds taken, and exits 1
unless every mutant was killed.

pytest does not collect this file, since only test_*.py files are test
modules; tests/test_mutants.py checks that every snippet still occurs
exactly once in src/, so the table cannot go stale unnoticed.  A change
that adds a fast path or a check adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toricpoints"
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    file: str  # under src/toricpoints
    snippet: str  # occurs exactly once in src/
    replacement: str
    tests: Tuple[str, ...]  # files under tests/ whose run must fail


MUTANTS = (
    # --json is written in one walk from the result
    Mutant(
        "json-fraction-unquoted",
        "cli.py",
        "    Fraction: lambda f: _quote(str(f)),",
        "    Fraction: lambda f: str(f),",
        ("test_cli.py",),
    ),
    Mutant(
        "json-dataclass-fields-sorted",
        "cli.py",
        "for name in obj.__dataclass_fields__]",
        "for name in sorted(obj.__dataclass_fields__)]",
        ("test_cli.py",),
    ),
    Mutant(
        "json-divisor-as-a-dataclass",
        "cli.py",
        "    elif isinstance(obj, ToricDivisor):\n        obj = obj.coeffs\n",
        "",
        ("test_cli.py",),
    ),
    Mutant(
        "json-set-as-a-list",
        "cli.py",
        "isinstance(obj, (list, tuple, DegBTable)):",
        "isinstance(obj, (list, tuple, set, DegBTable)):",
        ("test_cli.py",),
    ),
    Mutant(
        "json-empty-list-as-object",
        "cli.py",
        '    if not obj:\n        return "[]"',
        '    if not obj:\n        return "{}"',
        ("test_cli.py",),
    ),
    Mutant(
        "json-big-int-written-short",
        "cli.py",
        "    int: int.__repr__,",
        "    int: lambda i: int.__repr__(i % 10**4000),",
        ("test_cli.py",),
    ),
    Mutant(
        "main-copies-through-jsonable",
        "cli.py",
        "text = _json_text(result)",
        "text = _json_text(jsonable(result))",
        ("test_cli.py",),
    ),
    Mutant(
        "json-degb-table-as-a-dataclass",
        "cli.py",
        "(list, tuple, DegBTable)):  # an array; a table is its rows",
        "(list, tuple)):",
        ("test_cli.py",),
    ),
    # the plane report works out its (d, delta) terms once, and m by one root
    Mutant(
        "plane-arithmetic-before-the-contract",
        "plane.py",
        "    _check_signs(d, delta, e)\n    e_bound, term1, term2, t, certified = _terms(d, delta)",
        "    e_bound, term1, term2, t, certified = _terms(d, delta)",
        ("test_plane.py",),
    ),
    # the plane report's blowup numbers are the toric report's, for C = dH
    # and delta points of multiplicity 2
    Mutant(
        "plane-blowup-squares-as-2-delta",
        "plane.py",
        "_blowup(d * d, d, 2 * delta, 4 * delta)",
        "_blowup(d * d, d, 2 * delta, 2 * delta)",
        ("test_plane.py",),
    ),
    # the chain's one loop: level k >= 1 takes ceil(e/2^k) - 1, and every
    # level, the first included, stops for want of a degree >= 1
    Mutant(
        "chain-top-at-e-over-2k-floored",
        "plane.py",
        "(e - 1) >> k",
        "e >> k",
        ("test_plane.py",),
    ),
    Mutant(
        "chain-level-0-goes-on-below-degree-1",
        "plane.py",
        "or top < 1:",
        "or top < 1 <= k:",
        ("test_plane.py",),
    ),
    Mutant(
        "plane-root-floored",
        "plane.py",
        "    t = -(-(d + _ceil_sqrt(_discriminant(d, delta))) // 6)",
        "    t = (d + _ceil_sqrt(_discriminant(d, delta))) // 6",
        ("test_plane.py",),
    ),
    Mutant(
        "plane-sandwich-top-taken",
        "plane.py",
        "s >= d * d // 4:",
        "s > d * d // 4:",
        ("test_plane.py",),
    ),
    Mutant(
        "plane-m-by-the-floored-root",
        "plane.py",
        "    return (d - _ceil_sqrt(d * d - 4 * s)) // 2",
        "    return (d - isqrt(d * d - 4 * s)) // 2",
        ("test_plane.py",),
    ),
    # d = 4 is the smallest degree in the plane report's range
    Mutant(
        "plane-degree-4-excluded",
        "plane.py",
        '"degree_at_least_4": PASS if d >= 4 else FAIL,',
        '"degree_at_least_4": PASS if d > 4 else FAIL,',
        ("test_plane.py", "test_cli.py"),
    ),
    # e = 0 is out of the plane report's range
    Mutant(
        "plane-e-in-range-takes-zero",
        "plane.py",
        "0 < e < e_bound",
        "0 <= e < e_bound",
        ("test_plane.py", "test_cli.py"),
    ),
    # the command line is read by the grammar of the command's COMMANDS row
    Mutant(
        "cli-required-options-left-out",
        "cli.py",
        "    if _REQUIRED in args.values():",
        "    if False:",
        ("test_cli.py",),
    ),
    Mutant(
        "cli-repeated-option-last-wins",
        "cli.py",
        "        if key in args:",
        "        if False:",
        ("test_cli.py",),
    ),
    Mutant(
        "cli-flag-takes-a-value",
        "cli.py",
        "            if eq:\n",
        "            if False:\n",
        ("test_cli.py",),
    ),
    Mutant(
        "cli-flags-matched-by-prefix",
        "cli.py",
        "        option = options.get(flag)\n",
        "        flag = next((f for f in options if f.startswith(flag)), flag)\n"
        "        option = options.get(flag)\n",
        ("test_cli.py",),
    ),
    # a class outside the ample cone gets verdicts
    Mutant(
        "report-without-the-ampleness-gate",
        "lowdeg.py",
        "    if ample and rep is not None:",
        "    if rep is not None:",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "largest-int-below-takes-zero",
        "lowdeg.py",
        "    e_max = e if e >= 1 else None",
        "    e_max = e if e >= 0 else None",
        ("test_lowdeg.py",),
    ),
    # the deg B table is its two numbers: it iterates the rows (e, CD - e)
    # from e = 1, every empty table is DegBTable(), and a report without an
    # e_max shares one empty table
    Mutant(
        "degb-table-empty-is-true",
        "lowdeg.py",
        "        return self.e_max > 0",
        "        return self.e_max >= 0",
        ("test_golden.py",),
    ),
    Mutant(
        "degb-rows-start-at-e-0",
        "lowdeg.py",
        "zip(range(1, self.e_max + 1), range(self.CD - 1,",
        "zip(range(0, self.e_max + 1), range(self.CD,",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "degb-table-empty-kept-as-given",
        "lowdeg.py",
        '            object.__setattr__(self, "CD", 0)\n            object.__setattr__(self, "e_max", 0)\n',
        "            pass\n",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "report-builds-an-empty-table",
        "lowdeg.py",
        "    table = _NO_TABLE\n",
        "    table = DegBTable()\n",
        ("test_lowdeg.py",),
    ),
    # the report's bound in ints, and lambda's one pass
    Mutant(
        "e-max-takes-an-integral-bound",
        "lowdeg.py",
        "    e = (num - 1) // den",
        "    e = num // den",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "lambda-tie-leaves-ray-0-out",
        "lowdeg.py",
        "    if take[0] + i1 <= best:",
        "    if take[0] + i1 < best:",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "lambda-tie-leaves-ray-i-out-after-ray-i-minus-1-in",
        "lowdeg.py",
        "        elif o0 < k + edge:",
        "        elif o0 <= k + edge:",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "lambda-link-from-the-other-state",
        "lowdeg.py",
        "o1, r_o1, i1, r_i1 = k, (i, r_i1), o1, r_o1",
        "o1, r_o1, i1, r_i1 = k, (i, r_i0), o1, r_o1",
        ("test_lowdeg.py",),
    ),
    # one home for each argument contract
    Mutant(
        "is-int-lets-bools-through",
        "errors.py",
        "    return type(value) is int",
        "    return isinstance(value, int)",
        ("test_cli.py",),
    ),
    Mutant(
        "require-ints-lets-bools-through",
        "errors.py",
        "        if type(v) is not int:",
        "        if not isinstance(v, int):",
        ("test_divisor.py", "test_geometry.py"),
    ),
    Mutant(
        "lower-arc-start-without-the-second-entry-exit",
        "fan.py",
        "            if start is not None:\n                return None\n            start = i",
        "            start = i",
        ("test_fan.py",),
    ),
    # a fan is validated where it is made
    Mutant(
        "fan-takes-dets-above-one",
        "fan.py",
        "            if d != 1:",
        "            if d < 1:",
        ("test_fan.py",),
    ),
    Mutant(
        "fan-without-the-winding-check",
        "fan.py",
        "        if start is None:\n"
        '            raise NotSmoothOrNotComplete("rays do not wind exactly once around the origin")\n',
        "",
        ("test_fan.py",),
    ),
    Mutant(
        "self-intersections-without-the-sign",
        "fan.py",
        "tuple(-det(rays[i - 1]",
        "tuple(det(rays[i - 1]",
        ("test_fan.py",),
    ),
    Mutant(
        "self-intersections-from-u-i-not-u-i-minus-1",
        "fan.py",
        "-det(rays[i - 1], rays[(i + 1) % n])",
        "-det(rays[i], rays[(i + 1) % n])",
        ("test_fan.py",),
    ),
    # a descriptor file is read once, as UTF-8, and only a failed open stats it
    Mutant(
        "surface-file-missing-reads-cannot-read",
        "cli.py",
        "        if not os.path.exists(text):",
        "        if False:",
        ("test_cli.py",),
    ),
    Mutant(
        "surface-file-of-any-kind-read",
        "cli.py",
        "            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):",
        "            if False:",
        ("test_cli.py",),
    ),
    Mutant(
        "surface-file-bytes-to-json-loads",
        "cli.py",
        'json.loads(data.decode("utf-8").replace("\\r\\n", "\\n").replace("\\r", "\\n"))',
        "json.loads(data)",
        ("test_cli.py",),
    ),
    Mutant(
        "surface-file-without-text-mode-newlines",
        "cli.py",
        '.decode("utf-8").replace("\\r\\n", "\\n").replace("\\r", "\\n")',
        '.decode("utf-8")',
        ("test_cli.py",),
    ),
    # a descriptor names one surface
    Mutant(
        "descriptor-rays-beside-builtin",
        "cli.py",
        '        if "builtin" in desc or "m" in desc:',
        '        if "m" in desc:',
        ("test_cli.py",),
    ),
    Mutant(
        "builtin-m-beside-another-name",
        "fan.py",
        "    if m is not None:\n        raise InputError(",
        "    if False:\n        raise InputError(",
        ("test_fan.py",),
    ),
    # a fan is its rays: the name is not compared
    Mutant(
        "fan-name-compared",
        "fan.py",
        "field(default=None, compare=False)",
        "None",
        ("test_divisor.py",),
    ),
    # the clip: one solve per piece
    Mutant(
        "clip-meet-clamps-swapped",
        "geometry.py",
        "        if g > 0 and r * hi[1] <= hi[0] * g:\n            hi = (r, g)\n"
        "        elif g < 0 and lo[0] * -g <= -r * lo[1]:\n            lo = (-r, -g)",
        "        if g > 0 and lo[0] * g <= r * lo[1]:\n            lo = (r, g)\n"
        "        elif g < 0 and -r * hi[1] <= hi[0] * -g:\n            hi = (-r, -g)",
        ("test_geometry.py",),
    ),
    # the clip sorts the rays into arcs in one walk from the arc start
    Mutant(
        "arc-sort-sends-minus-x-to-xlo",
        "geometry.py",
        "        elif u[0] > 0:\n            xlo = (c, u[0])",
        "        elif u[0]:\n            xlo = (c, u[0])",
        ("test_geometry.py",),
    ),
    Mutant(
        "chains-empty-exit-before-the-winding-check",
        "geometry.py",
        "    start = lower_arc_start(normals)\n"
        "    if start is None or any(det(normals[i - 1], normals[i]) <= 0 for i in range(len(normals))):",
        "    start = lower_arc_start(normals)\n"
        "    if min(c for _, c in halfplanes) > 0:\n"
        "        return 0\n"
        "    if start is None or any(det(normals[i - 1], normals[i]) <= 0 for i in range(len(normals))):",
        ("test_geometry.py",),
    ),
    # the lex-min point gallops from the first column
    Mutant(
        "lexmin-bisects-past-the-last-doubling",
        "geometry.py",
        "    lo = a + step // 2",
        "    lo = a + step",
        ("test_geometry.py",),
    ),
    Mutant(
        "lexmin-without-the-last-column-stop",
        "geometry.py",
        "        if hi == b:\n            return None\n",
        "",
        ("test_geometry.py",),
    ),
    # bisect_right(starts, x - 1) is bisect_left(starts, x) on ints: the
    # line whose first column is x is taken to start after it
    Mutant(
        "lexmin-line-by-ceiled-break",
        "geometry.py",
        "hull[bisect_right(starts, lo)]",
        "hull[bisect_right(starts, lo - 1)]",
        ("test_geometry.py",),
    ),
    # a count of the columns a..b starts at the line active at a
    Mutant(
        "column-sum-first-line-by-bisect-left",
        "geometry.py",
        "    k = bisect_right(starts, a)",
        "    k = bisect_right(starts, a - 1)",
        ("test_geometry.py",),
    ),
    # the report states surjectivity by proof, as h1(D - C) = 0; the census checks both
    Mutant(
        "report-surjectivity-stated-as-fail",
        "lowdeg.py",
        "PASS if CD < C2 else FAIL, PASS, PASS if bound > 0 else FAIL,",
        "PASS if CD < C2 else FAIL, FAIL, PASS if bound > 0 else FAIL,",
        ("test_census.py",),
    ),
    # the census against its oracles: the clip's last column, K in the section
    # bound, and the lambda DP's edge term
    Mutant(
        "census-clip-drops-the-last-column",
        "geometry.py",
        "ends[1][0][0] // ends[1][0][1]) if ends",
        "ends[1][0][0] // ends[1][0][1] - 1) if ends",
        ("test_census.py",),
    ),
    Mutant(
        "census-section-bound-without-2k",
        "lowdeg.py",
        "RK += 2 * odd - s - 4",
        "RK += 2 * odd + s",
        ("test_census.py",),
    ),
    Mutant(
        "census-lambda-edge-of-one",
        "lowdeg.py",
        "    edge = 2 * w",
        "    edge = w",
        ("test_census.py",),
    ),
    Mutant(
        "h1-check-refuses-zero",
        "cohomology.py",
        "    if h1 < 0:",
        "    if h1 <= 0:",
        ("test_cohomology.py",),
    ),
    Mutant(
        "h1-check-deleted",
        "cohomology.py",
        '    if h1 < 0:\n        raise InternalInconsistency(f"negative h1 = {h1} for coeffs {D.coeffs}")\n',
        "",
        ("test_cohomology.py",),
    ),
    # the interpolation report reads every number from C's pairing vector and
    # the coefficients: R = C_rep - 2D is the set of rays where C_rep is odd
    Mutant(
        "r-pairs-as-p-minus-q",
        "lowdeg.py",
        "            if c & 1:",
        "            if c - h:",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "odd-set-edge-not-wrapped",
        "lowdeg.py",
        "RK += 2 * (a[0] & odd)",
        "RK += 0 * (a[0] & odd)",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "seshadri-takes-equality",
        "lowdeg.py",
        "    return C2 - squares, total < low",
        "    return C2 - squares, total <= low",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "chi-subtracts-the-pairing-sum",
        "cohomology.py",
        "+ sum(pairings)) // 2",
        "- sum(pairings)) // 2",
        ("test_cohomology.py",),
    ),
    Mutant(
        "pairing-without-the-self-intersection",
        "divisor.py",
        "a[(j + 1) % n] + a[j] * s for",
        "a[(j + 1) % n] for",
        ("test_divisor.py",),
    ),
    Mutant(
        "k-minus-d-offsets-without-the-one",
        "cohomology.py",
        "[-1 - a for a in D.coeffs]",
        "[-a for a in D.coeffs]",
        ("test_cohomology.py",),
    ),
    Mutant(
        "report-clip-from-the-next-ray",
        "divisor.py",
        "fan._arc_start)",
        "fan._arc_start + 1)",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "c-plus-k-offsets-without-the-one",
        "lowdeg.py",
        "[c - 1 for c in C.coeffs]",
        "[c for c in C.coeffs]",
        ("test_lowdeg.py",),
    ),
    # a nef class's lex-min point is the vertex of the cone at its arc start, and its
    # cohomology (chi, 0, 0, chi) uncounted; both answers equal the clip's,
    # so the nef tests' mutants die on the counter pins of nef classes that
    # are not ample
    Mutant(
        "lexmin-nef-test-takes-only-ample",
        "lowdeg.py",
        "fan.self_intersections)) >= 2  #",
        "fan.self_intersections)) > 2  #",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "cone-vertex-coordinates-swapped",
        "divisor.py",
        "        return (b * uy - c * vy, c * vx - b * ux)",
        "        return (c * vx - b * ux, b * uy - c * vy)",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "nef-vertex-from-the-next-cone",
        "divisor.py",
        "fan.rays[s - 1], fan.rays[s], a[s - 1], a[s]",
        "fan.rays[s], fan.rays[(s + 1) % len(a)], a[s], a[(s + 1) % len(a)]",
        ("test_lowdeg.py",),
    ),
    # for an ample C, a C + K that is not nef is not effective and is not
    # clipped; a class that is not ample may still have a rep there
    Mutant(
        "no-clip-shortcut-takes-a-class-that-is-not-ample",
        "lowdeg.py",
        "if nef or not ample else None",
        "if nef else None",
        ("test_lowdeg.py",),
    ),
    # every record is made by one decorator, whose __init__ still runs the
    # class's check, and a divisor is built unchecked only from checked ints
    Mutant(
        "record-init-skips-post-init",
        "errors.py",
        '        lines.append("    self.__post_init__()")',
        "        pass",
        ("test_records.py",),
    ),
    Mutant(
        "principal-divisor-built-before-its-check",
        "divisor.py",
        '    m = require_ints(m, "lattice point coordinates")\n',
        "    return _derived(fan, tuple(dot(m, u) for u in fan.rays))\n",
        ("test_divisor.py",),
    ),
    # census fans all start at (1, 0), (0, 1), so arc start 1: only the
    # tests that rotate the ray list see a vertex read from a fixed cone
    Mutant(
        "nef-vertex-at-a-fixed-cone",
        "divisor.py",
        "        s = fan._arc_start\n",
        "        s = 1\n",
        ("test_census.py",),
    ),
    Mutant(
        "c-plus-k-pairings-without-the-two",
        "lowdeg.py",
        "min(map(sub, p, fan.self_intersections)) >= 2",
        "min(map(sub, p, fan.self_intersections)) >= 0",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "cohomology-nef-test-takes-only-ample",
        "cohomology.py",
        "    if min(pairings) >= 0:\n        return CohomologyProfile",
        "    if min(pairings) > 0:\n        return CohomologyProfile",
        ("test_cohomology.py",),
    ),
    Mutant(
        "nef-profile-with-h2-of-one",
        "cohomology.py",
        "return CohomologyProfile(h0=chi, h1=0, h2=0, chi=chi)",
        "return CohomologyProfile(h0=chi, h1=0, h2=1, chi=chi)",
        ("test_cohomology.py",),
    ),
    Mutant(
        "polygon-offsets-of-the-wrong-sign",
        "geometry.py",
        "        u, c = normals[i], -a[i]",
        "        u, c = normals[i], a[i]",
        ("test_cohomology.py",),
    ),
    # dH takes a sign, as each term of aC0+bF does
    Mutant(
        "dh-shorthand-without-a-sign",
        "cli.py",
        '_H_RE = re.compile(r"([+-]?)([0-9]*)H")',
        '_H_RE = re.compile(r"()([0-9]*)H")',
        ("test_cli.py",),
    ),
    # aC0+bF reads F as D_1 and C0 as D_2, so only where D_i^2 = (0, -m, 0, m)
    Mutant(
        "hirzebruch-shorthand-on-any-four-rays",
        "cli.py",
        "        if m < 0 or fan.self_intersections != (0, -m, 0, m):",
        "        if fan.n != 4:",
        ("test_cli.py",),
    ),
    Mutant(
        "hirzebruch-shorthand-takes-c-infinity-as-c0",
        "cli.py",
        "if m < 0 or fan.self_intersections",
        "if fan.self_intersections",
        ("test_cli.py",),
    ),
    # a surface descriptor refuses any key it does not read
    Mutant(
        "descriptor-takes-unknown-keys",
        "cli.py",
        '    unknown = sorted(set(desc) - {"rays", "builtin", "m", "name"})',
        "    unknown = []",
        ("test_cli.py",),
    ),
    Mutant(
        "descriptor-takes-a-name-beside-builtin",
        "cli.py",
        '        if "name" in desc:\n',
        "        if False:\n",
        ("test_cli.py",),
    ),
    # a selftest row is ok exactly when its suite returned no failing case
    Mutant(
        "selftest-row-always-ok",
        "selftest.py",
        '"ok": fault is None',
        '"ok": True',
        ("test_cli.py",),
    ),
    # the report checker refutes a report field by field, each by value and type
    Mutant(
        "report-checker-refutes-every-field",
        "selftest.py",
        "type(got) is not type(want) or got != want:",
        "type(got) is not type(want) or got == want:",
        ("test_acceptance.py",),
    ),
    Mutant(
        "report-checker-skips-interp-divisor",
        "selftest.py",
        '        ("interp_divisor", r.interp_divisor, D),\n',
        "",
        ("test_selftest.py",),
    ),
    Mutant(
        "report-checker-takes-a-number-of-any-type",
        "selftest.py",
        "if type(got) is not type(want) or got",
        "if got",
        ("test_selftest.py",),
    ),
)


def run(mutant: Mutant) -> Tuple[str, float]:
    """(outcome, seconds) for one mutant, run in a scratch copy of the tree;
    the outcome is "killed", "SURVIVED" or "TIMEOUT"."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(
            ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__", ".hypothesis")
        )
        shutil.copy(ROOT / "pytest.ini", copy / "pytest.ini")
        path = copy / "src" / "toricpoints" / mutant.file
        source = path.read_text()
        if source.count(mutant.snippet) != 1:
            raise ValueError(f"{mutant.name}: the snippet does not occur exactly once in {mutant.file}")
        path.write_text(source.replace(mutant.snippet, mutant.replacement))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(
                command + [f"tests/{name}" for name in mutant.tests],
                cwd=copy,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
            outcome = "killed" if done.returncode != 0 else "SURVIVED"
        except subprocess.TimeoutExpired:
            outcome = "TIMEOUT"
    return outcome, time.perf_counter() - started


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    missed = 0
    for mutant in chosen:
        outcome, seconds = run(mutant)
        missed += outcome != "killed"
        print(f"{outcome} {mutant.name} ({seconds:.1f} s)", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
