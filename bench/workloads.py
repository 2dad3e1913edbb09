"""The three workloads: seeded operation lists and how each one is checked.

A run is a number of whole passes.  Every pass has the same make-up (the
same surfaces, sizes and subcommands in the same proportions); only the
random parts differ, so every run does the same mix of work.  No valid input
repeats within a run, so a cache keyed on the input never hits.
"""

from __future__ import annotations

import io
import json
import os
import dataclasses
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

import gen
import oracles


class OpFailed(Exception):
    """The program did not end the operation the way it must: a valid input
    that did not exit 0, or a malformed input that was not rejected."""


@dataclass
class Op:
    """One timed call into the program and the check of its result.

    `call` takes the loaded program and returns a result.  `check` returns
    the mismatches against the benchmark's own computation, or raises
    OpFailed."""

    name: str
    call: Callable[[object], object]
    check: Callable[[object], List[str]]


MAX_DRAWS = 1000


def _draw(rng: random.Random, seen: set, make):
    """Call make(rng) until it returns a (key, value) whose key is new in
    this run; make returns None to reject a draw."""
    for _ in range(MAX_DRAWS):
        drawn = make(rng)
        if drawn is not None and drawn[0] not in seen:
            seen.add(drawn[0])
            return drawn[1]
    raise RuntimeError(f"no new input in {MAX_DRAWS} draws; the input space is used up")


# ------------------------------------------------------------------ reports


def _curve(rng: random.Random, base, blowups: int, lo: int, hi: int, mults: Tuple[int, ...]):
    rays = gen.transform(gen.blow_up(base, rng, len(base) + blowups), rng)
    return gen.curve(rng, rays, lo, hi, mults)


def _report_op(prog, inp: gen.CurveInput) -> Op:
    fan = prog.fan.build_fan(inp.rays)
    curve = prog.lowdeg.CurveOnSurface(
        fan, prog.divisor.ToricDivisor(fan, inp.coeffs), inp.mults
    )

    def check(report) -> List[str]:
        fields = oracles.report_fields(report)
        return oracles.check_report(inp.rays, inp.coeffs, inp.lengths, inp.mults, fields)

    return Op("toric_theorem_report", lambda p: p.lowdeg.toric_theorem_report(curve), check)


# Iterated blowups of P^2 with 11-14 rays and small ample classes (edge
# lengths 1-2 before closing, bounding box of WIDE_BOX lattice points): the
# 2^n subset scan behind lambda(S) takes most of the time and lattice counts
# stay small.  WIDE_RAYS gives the curves per pass for each ray count.  The
# counts are uneven on purpose: latency clusters by ray count, and these put
# the median and the 90th percentile inside a cluster, not on a gap.
WIDE_RAYS = {11: 2, 12: 4, 13: 6, 14: 4}
WIDE_BOX = (200, 800)


def report_wide(prog, seed: int, passes: int, files: Files) -> List[Op]:
    rng = random.Random(f"report-wide/{seed}")
    seen: set = set()
    ops = []
    for _ in range(passes):
        for n, copies in WIDE_RAYS.items():
            for copy in range(copies):
                # one curve of each ray count carries one or two singular points
                k = 0 if copy else 1 + n % 2

                def make(r, n=n, k=k):
                    inp = _curve(r, gen.P2_RAYS, n - 3, 1, 2, tuple(r.randint(2, 3) for _ in range(k)))
                    if not WIDE_BOX[0] <= inp.box <= WIDE_BOX[1]:
                        return None
                    return inp.rays, inp  # distinct fans, so lambda(S) is new every time

                ops.append(_report_op(prog, _draw(rng, seen, make)))
    return ops


# P^2, F_m and surfaces with a few blowups (<= 6 rays), with edge lengths
# chosen so C^2 runs into the thousands: lattice counting over the divisor
# polytopes dominates and lambda(S) costs nothing.
DEEP_SURFACES = (
    # (base rays, blowups, edge length range)
    (gen.P2_RAYS, 0, 60, 80),
    (gen.hirzebruch_rays(0), 0, 36, 52),
    (gen.hirzebruch_rays(1), 0, 30, 45),
    (gen.hirzebruch_rays(2), 0, 26, 40),
    (gen.hirzebruch_rays(3), 0, 24, 35),
    (gen.P2_RAYS, 2, 20, 27),
    (gen.hirzebruch_rays(1), 1, 20, 27),
    (gen.P2_RAYS, 3, 14, 19),
    (gen.hirzebruch_rays(2), 2, 11, 16),
)
# Only polygons whose bounding box has this many lattice points are kept:
# the box is what the lattice counts scan, so this evens out the cost.
DEEP_BOX = (4000, 6000)
DEEP_COPIES = 4


def report_deep(prog, seed: int, passes: int, files: Files) -> List[Op]:
    rng = random.Random(f"report-deep/{seed}")
    seen: set = set()
    ops = []
    for _ in range(passes):
        for copy in range(DEEP_COPIES):
            for base, blowups, lo, hi in DEEP_SURFACES:
                # one curve in four carries one to three singular points
                k = 0 if copy < DEEP_COPIES - 1 else 1 + blowups % 3

                def make(r, base=base, blowups=blowups, lo=lo, hi=hi, k=k):
                    mults = tuple(r.randint(2, 9) for _ in range(k))
                    inp = _curve(r, base, blowups, lo, hi, mults)
                    if not DEEP_BOX[0] <= inp.box <= DEEP_BOX[1]:
                        return None
                    return (inp.rays, inp.coeffs, inp.mults), inp

                ops.append(_report_op(prog, _draw(rng, seen, make)))
    return ops


# ------------------------------------------------------------------ cli-mix


def run_cli(main, argv: Sequence[str]) -> Tuple[int, str, str]:
    """cli.main(argv) with stdout and stderr captured; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_op(argv: List[str], check_json: Callable[[dict], List[str]]) -> Op:
    def check(result) -> List[str]:
        code, out, err = result
        if code != 0 or err:
            raise OpFailed(f"exit {code}: {err.strip()[:200]}")
        return check_json(json.loads(out))

    return Op(argv[0], lambda p: run_cli(p.cli.main, argv), check)


def _malformed_op(argv: List[str]) -> Op:
    def check(result) -> List[str]:
        code, out, err = result
        if code != 2 or out or not any(line.startswith("error:") for line in err.splitlines()):
            raise OpFailed(f"malformed input {argv} gave exit {code}, stdout {out[:80]!r}")
        return []

    return Op("malformed:" + argv[0], lambda p: run_cli(p.cli.main, argv), check)


class Files:
    """Descriptor files for one run, in a temporary directory.  Names are
    numbered, never like a builtin surface.  `write` only names the file;
    `flush` writes them all, so the disk writes stay out of the timed
    set-up."""

    def __init__(self, tmpdir: str):
        self.tmpdir = tmpdir
        self.pending: List[Tuple[str, str]] = []

    def write(self, text: str) -> str:
        path = os.path.join(self.tmpdir, f"surface{len(self.pending) + 1:05d}.json")
        self.pending.append((path, text))
        return path

    def flush(self) -> None:
        for path, text in self.pending:
            with open(path, "w") as fh:
                fh.write(text)

    def rays(self, rays) -> str:
        return self.write(json.dumps({"rays": [list(u) for u in rays]}))


def _hirzebruch_surface(rng: random.Random, files: Files, m: int) -> str:
    """F_m by name, as P1xP1 for m = 0, or as a builtin descriptor file."""
    style = rng.randrange(3)
    if style == 0:
        return f"F{m}"
    if style == 1:
        return "P1xP1" if m == 0 else f"F{m}"
    return files.write(json.dumps({"builtin": "hirzebruch", "m": m}))


def _fc(a: int, b: int) -> str:
    return f"{a}C0{b:+d}F"


def _small_curve(rng: random.Random) -> gen.CurveInput:
    """A small ample class on a blowup of P^2 or F_m with 4-8 rays."""
    base = gen.P2_RAYS if rng.randrange(2) else gen.hirzebruch_rays(rng.randint(0, 3))
    return _curve(rng, base, rng.randint(4, 8) - len(base), 1, 3, ())


def _coeff_text(rng: random.Random, coeffs) -> str:
    if rng.randrange(2):
        return ",".join(str(c) for c in coeffs)
    return json.dumps(list(coeffs))


# Plane degrees from a geometric ladder up to 10^5, one draw per rung, so
# the spread of d is log-uniform and the same in every group.
# The first rung is wide so that it holds enough distinct (d, delta, e).
PLANE_LADDER = (4, 41, 129, 408, 1290, 4079, 12899, 40790, 100000)


def _plane_args(rng: random.Random, rung: int):
    """(d, delta, e) with 3 delta <= d - 3; e is either anywhere below the
    degree bound or near the gonality floor d - 1."""
    d = rng.randint(PLANE_LADDER[rung], PLANE_LADDER[rung + 1] - 1)
    delta = rng.randint(0, max(0, (d - 3) // 3))
    bound = max(oracles.plane_terms(d, delta)[1:])
    top = max(1, bound.numerator // bound.denominator)
    e = rng.randint(1, top) if rng.randrange(2) else rng.randint(1, 2 * d)
    return d, delta, e


def _trips_plane_assert(d: int, delta: int, e: int) -> bool:
    """Inputs on which plane_theorem_report or find_m fails an assert today.

    With every hypothesis met the report asserts deg B < e/2, which does not
    hold at the edge 3 delta = d - 3 (for instance d, delta, e = 9, 2, 6), and
    find_m asserts 6m - d < 0 or (6m - d)^2 < d^2 - 36 delta below the bound.
    Such draws only occur for some seeds, so they are left out.
    """
    bound = max(oracles.plane_terms(d, delta)[1:])
    m = oracles.plane_m(d, delta, e)
    if m is None:
        return False
    met = d >= 4 and 0 <= 3 * delta <= d - 3 and 0 < e < bound and 2 * delta < d
    if met and 2 * (m * d - e) >= e:
        return True
    return e < bound and 6 * m - d >= 0 and (6 * m - d) ** 2 >= d * d - 36 * delta


# Malformed inputs: each must exit 2 with an "error:" line on stderr and
# nothing on stdout.  The KNOWN_FAULTS fail today, on every run.  A dict, or
# a string that starts with "{", stands for a descriptor file with that
# content.
KNOWN_FAULTS = (
    {"builtin": "hirzebruch", "m": "3"},  # escapes cli.main as a TypeError
    {"rays": [[1.7, 0], [0, 1], [-1, -1]]},  # accepted as P^2 with exit 0
)
MALFORMED = (
    ["lambda", "--surface", "P3"],
    ["cohomology", "--surface", "P2", "--divisor=3X"],
    ["intersect", "--surface", "P2", "--divisor=C0", "--curve=H"],
    ["check-toric", "--surface", "P2", "--curve=9H", "--multiplicities", "1"],
    ["check-toric", "--surface", "P2", "--curve=9H", "--multiplicities", "2,x"],
    ["cohomology", "--surface", "F2", "--divisor=1,2"],
    ["hirzebruch-example", "--n", "0"],
    ["plane", "--d", "10", "--delta", "20", "--e", "3"],
    ["lambda", "--surface", {"rays": [[2, 0], [0, 1], [-1, -1]]}],
    ["lambda", "--surface", {"rays": [[1, 0], [1, 2], [-1, -1]]}],
    ["lambda", "--surface", "{not json"],
)
# A cli-mix pass: one P^2 cohomology and one hirzebruch-example call, CLI_GROUPS
# groups of the small mix below, each known fault KNOWN_FAULT_COPIES times and
# MALFORMED_PER_PASS of the other malformed inputs in rotation.
CLI_GROUPS = 12
KNOWN_FAULT_COPIES = 3
MALFORMED_PER_PASS = 3
CLI_MAX_PASSES = 60  # P^2 degrees 0..59 and hirzebruch-example n in 1..60, each once


def _check_intersection(want: int):
    def check(out):
        got = out["intersection"]
        return [] if got == want else [f"intersection {got} != {want}"]

    return check


def _cli_group(rng: random.Random, seen: set, files: Files) -> List[Op]:
    """lambda x2, cohomology x4, intersect x4, check-toric x2, plane x8."""
    ops = []

    def small(r):
        inp = _small_curve(r)
        return (inp.rays, inp.coeffs), inp

    for _ in range(2):
        inp = _draw(rng, seen, small)
        ops.append(_cli_op(
            ["lambda", "--surface", files.rays(inp.rays), "--json"],
            lambda out, rays=inp.rays: oracles.check_lambda(
                rays, Fraction(out["lambda"]), out["argmin_subset"], out["inner_min"]
            ),
        ))

    def hirzebruch_class(r):
        m, a = r.randint(0, 5), r.randint(0, 12)
        b = r.randint(m * a, m * a + 29)
        return ("nef", m, a, b), (m, a, b)

    for _ in range(2):
        m, a, b = _draw(rng, seen, hirzebruch_class)
        h0 = oracles.hirzebruch_h0(m, a, b)
        ops.append(_cli_op(
            ["cohomology", "--surface", _hirzebruch_surface(rng, files, m),
             f"--divisor={_fc(a, b)}", "--json"],
            lambda out, h0=h0: oracles.check_cohomology(out, h0),
        ))
    for _ in range(2):
        inp = _draw(rng, seen, small)
        h0 = oracles.ample_euler_characteristic(inp.coeffs, inp.lengths)
        ops.append(_cli_op(
            ["cohomology", "--surface", files.rays(inp.rays),
             f"--divisor={_coeff_text(rng, inp.coeffs)}", "--json"],
            lambda out, h0=h0: oracles.check_cohomology(out, h0),
        ))

    def hirzebruch_pair(r):
        m = r.randint(0, 4)
        v = tuple(r.randint(-9, 9) for _ in range(4))
        return ("pair", m, v), (m, v)

    for _ in range(3):
        m, (a, b, c, d) = _draw(rng, seen, hirzebruch_pair)
        ops.append(_cli_op(
            ["intersect", "--surface", _hirzebruch_surface(rng, files, m),
             f"--divisor={_fc(a, b)}", f"--curve={_fc(c, d)}", "--json"],
            _check_intersection(oracles.hirzebruch_pairing(m, a, b, c, d)),
        ))
    inp = _draw(rng, seen, small)
    other = [rng.randint(-4, 4) for _ in inp.rays]
    ops.append(_cli_op(
        ["intersect", "--surface", files.rays(inp.rays), f"--divisor={_coeff_text(rng, other)}",
         f"--curve={_coeff_text(rng, inp.coeffs)}", "--json"],
        # D.C = sum d_i (C.D_i)
        _check_intersection(sum(x * l for x, l in zip(other, inp.lengths))),
    ))

    for k in range(2):
        inp = _draw(rng, seen, small)
        inp = dataclasses.replace(inp, mults=tuple(rng.randint(2, 3) for _ in range(k)))
        argv = ["check-toric", "--surface", files.rays(inp.rays),
                f"--curve={_coeff_text(rng, inp.coeffs)}", "--json"]
        if inp.mults:
            argv += ["--multiplicities", ",".join(map(str, inp.mults))]
        ops.append(_cli_op(
            argv,
            lambda out, c=inp: oracles.check_report(
                c.rays, c.coeffs, c.lengths, c.mults, oracles.report_fields_json(out)
            ),
        ))

    def plane_input(r, rung):
        args = _plane_args(r, rung)
        return None if _trips_plane_assert(*args) else (args, args)

    for rung in range(len(PLANE_LADDER) - 1):
        d, delta, e = _draw(rng, seen, lambda r, rung=rung: plane_input(r, rung))
        ops.append(_cli_op(
            ["plane", "--d", str(d), "--delta", str(delta), "--e", str(e), "--json"],
            lambda out, a=(d, delta, e): oracles.check_plane(*a, out),
        ))
    return ops


def _malformed_argv(files: Files, argv) -> List[str]:
    out = []
    for a in argv:
        if isinstance(a, dict):
            a = files.write(json.dumps(a))
        elif a.startswith("{"):
            a = files.write(a)
        out.append(a)
    return out + ["--json"]


def cli_mix(prog, seed: int, passes: int, files: Files) -> List[Op]:
    if passes > CLI_MAX_PASSES:
        raise ValueError(f"cli-mix has distinct inputs for at most {CLI_MAX_PASSES} passes")
    rng = random.Random(f"cli-mix/{seed}")
    seen: set = set()
    p2_degrees = rng.sample(range(CLI_MAX_PASSES), passes)
    example_ns = rng.sample(range(1, CLI_MAX_PASSES + 1), passes)
    ops: List[Op] = []
    for k in range(passes):
        d, n = p2_degrees[k], example_ns[k]
        batch = [
            _cli_op(
                ["cohomology", "--surface", "P2", f"--divisor={d}H", "--json"],
                lambda out, d=d: oracles.check_cohomology(out, (d + 1) * (d + 2) // 2),
            ),
            _cli_op(
                ["hirzebruch-example", "--n", str(n), "--json"],
                lambda out, n=n: oracles.check_hirzebruch_example(n, out),
            ),
        ]
        for _ in range(CLI_GROUPS):
            batch += _cli_group(rng, seen, files)
        for _ in range(KNOWN_FAULT_COPIES):
            for desc in KNOWN_FAULTS:
                batch.append(_malformed_op(_malformed_argv(files, ["lambda", "--surface", desc])))
        for j in range(MALFORMED_PER_PASS):
            argv = MALFORMED[(k * MALFORMED_PER_PASS + j) % len(MALFORMED)]
            batch.append(_malformed_op(_malformed_argv(files, argv)))
        rng.shuffle(batch)
        ops += batch
    return ops


WORKLOADS = {
    "report-wide": report_wide,
    "report-deep": report_deep,
    "cli-mix": cli_mix,
}
