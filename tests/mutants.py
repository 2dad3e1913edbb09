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
        "    elif not isinstance(obj, (list, tuple, DegBTable)):",
        "    elif not isinstance(obj, (list, tuple, set, DegBTable)):",
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
    # the plane report works out its (d, delta) terms once, and m by one root
    Mutant(
        "plane-arithmetic-before-the-contract",
        "plane.py",
        "    _check_signs(d, delta, e)\n    e_bound, term1, term2, t = _terms(d, delta)",
        "    e_bound, term1, term2, t = _terms(d, delta)",
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
        "    return e if e >= 1 else None",
        "    return e if e >= 0 else None",
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
        "        if lower_arc_start(rays) is None:\n"
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
    # the clip: one solve per piece, and no clip for an empty polygon
    Mutant(
        "clip-exit-at-offsets-of-zero",
        "geometry.py",
        "    if min(offsets) > 0:",
        "    if min(offsets) >= 0:",
        ("test_geometry.py",),
    ),
    Mutant(
        "clip-meet-clamps-swapped",
        "geometry.py",
        "        if g > 0 and _le((r, g), hi):\n            hi = (r, g)\n"
        "        elif g < 0 and _le(lo, (-r, -g)):\n            lo = (-r, -g)",
        "        if g > 0 and _le(lo, (r, g)):\n            lo = (r, g)\n"
        "        elif g < 0 and _le((-r, -g), hi):\n            hi = (-r, -g)",
        ("test_geometry.py",),
    ),
    Mutant(
        "chains-empty-exit-before-the-winding-check",
        "geometry.py",
        "    start = lower_arc_start(normals)\n"
        "    if start is None or any(det(normals[i - 1], normals[i]) <= 0 for i in range(len(normals))):",
        "    start = lower_arc_start(normals)\n"
        "    if min(c for _, c in halfplanes) > 0:\n"
        "        return ([], []), ([], []), NEG_INF, INF\n"
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
    Mutant(
        "lexmin-line-by-ceiled-break",
        "geometry.py",
        "key=lambda x: x[0] // x[1]",
        "key=lambda x: -(-x[0] // x[1])",
        ("test_geometry.py",),
    ),
    # one clip per report: h1(D - C) from the points of P_{C+K} in m*'s class mod 2
    Mutant(
        "class-count-offset-dropped",
        "geometry.py",
        "    mx, my = m\n",
        "    mx, my = 0, 0\n",
        ("test_geometry.py",),
    ),
    Mutant(
        "class-count-break-not-halved",
        "geometry.py",
        "return num - mx * den, 2 * den",
        "return num - mx * den, den",
        ("test_geometry.py",),
    ),
    Mutant(
        "report-counts-the-class-of-zero",
        "lowdeg.py",
        "geometry._class_count(*clip, m)",
        "geometry._class_count(*clip, (0, 0))",
        ("test_lowdeg.py",),
    ),
    Mutant(
        "h1-check-refuses-zero",
        "cohomology.py",
        "    if h1 < 0:",
        "    if h1 <= 0:",
        ("test_cohomology.py",),
    ),
    # the interpolation report reads every number from two pairing vectors
    Mutant(
        "r-pairs-as-p-minus-q",
        "lowdeg.py",
        "pR = [u - 2 * v for u, v in zip(p, q)]",
        "pR = [u - v for u, v in zip(p, q)]",
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
        "((u, 1 + a) for u, a in",
        "((u, a) for u, a in",
        ("test_cohomology.py",),
    ),
    Mutant(
        "c-plus-k-offsets-without-the-one",
        "lowdeg.py",
        "[(u, 1 - c) for u, c in",
        "[(u, -c) for u, c in",
        ("test_lowdeg.py",),
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
