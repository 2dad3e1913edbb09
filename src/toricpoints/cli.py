"""Command-line front end.

Subcommands: lambda, cohomology, intersect, check-toric, plane,
hirzebruch-example, selftest.  Exit codes: 0 success, 1 hypothesis failure
under --strict, 2 malformed input.  Rationals are printed as exact "p/q"
strings, never floats, so outputs are stable goldens.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .cohomology import cohomology
from .divisor import ToricDivisor, intersection_number
from .errors import InputError, ToricError
from .fan import ToricSurfaceFan, build_fan, builtin_surface
from .lowdeg import (
    CurveOnSurface,
    FAIL,
    hirzebruch_counterexample,
    lambda_invariant,
    toric_theorem_report,
)
from .plane import plane_theorem_report
from .selftest import run_selftest


def jsonable(obj):
    """Recursive conversion to JSON-safe values; Fractions become exact
    strings in lowest terms."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, ToricDivisor):
        return list(obj.coeffs)
    if isinstance(obj, ToricSurfaceFan):
        return {"rays": [list(u) for u in obj.rays], "name": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def parse_surface(text: str) -> ToricSurfaceFan:
    """A builtin name (P2, P1xP1, F<m>), else the path of a JSON surface
    descriptor.  Builtin names win, so a file named P2 is given as ./P2."""
    try:
        return builtin_surface(text)
    except InputError:
        if not os.path.exists(text):
            raise InputError(
                f"unknown surface {text!r}: expected P2, P1xP1, F<m> or a JSON file path"
            )
    with open(text) as fh:
        try:
            desc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed JSON in {text}: {exc}") from exc
    return surface_from_descriptor(desc)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def surface_from_descriptor(desc) -> ToricSurfaceFan:
    if not isinstance(desc, dict):
        raise InputError("surface descriptor must be a JSON object")
    if not isinstance(desc.get("name", ""), str):
        raise InputError('"name" must be a string')
    if "rays" in desc:
        rays = desc["rays"]
        if not (
            isinstance(rays, list)
            and all(isinstance(r, list) and len(r) == 2 for r in rays)
            and all(_is_int(c) for r in rays for c in r)
        ):
            raise InputError('"rays" must be a list of [x, y] pairs of integers')
        return build_fan(rays, name=desc.get("name"))
    if "builtin" in desc:
        if not isinstance(desc["builtin"], str):
            raise InputError('"builtin" must be a string')
        if "m" in desc and not _is_int(desc["m"]):
            raise InputError('"m" must be an integer')
        return builtin_surface(desc["builtin"], desc.get("m"))
    raise InputError('surface descriptor needs "rays" or "builtin"')


# ASCII digits only: int() and \d would also take "1_0" and non-ASCII digits
_INT_RE = re.compile(r"[+-]?[0-9]+")
_H_RE = re.compile(r"([0-9]*)H")
# aC0+bF: terms such as 2C0, -F or +3F, with a sign between any two terms
_FC_TERM = r"([+-]?)([0-9]*)(C0|F)"
_FC_RE = re.compile(r"[+-]?[0-9]*(?:C0|F)(?:[+-][0-9]*(?:C0|F))*")


def _ascii_int(text: str) -> int:
    """An optionally signed run of ASCII digits with whitespace around it;
    also the argparse type of the integer options."""
    if not _INT_RE.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _int_list(text: str, what: str) -> List[int]:
    try:
        return [_ascii_int(v) for v in text.split(",")]
    except argparse.ArgumentTypeError:
        raise InputError(f"{what} must be integers: {text!r}") from None


def parse_divisor(fan: ToricSurfaceFan, text: str) -> ToricDivisor:
    """Coefficient vector ("2,1,1" or JSON "[2,1,1]"), or the shorthands
    "dH" on P^2 and "aC0+bF" on a Hirzebruch surface (H -> D_1's class,
    C_0 -> D_2, F -> D_1)."""
    text = text.strip()
    m = _H_RE.fullmatch(text)
    if m:
        if fan.n != 3:
            raise InputError('"dH" shorthand only applies to P2')
        d = int(m.group(1) or "1")
        return ToricDivisor(fan, (d, 0, 0))
    if "C0" in text or text.endswith("F"):
        if fan.n != 4:
            raise InputError('"aC0+bF" shorthand only applies to Hirzebruch surfaces')
        terms = text.replace(" ", "")
        if not _FC_RE.fullmatch(terms):
            raise InputError(f"cannot parse divisor {text!r} as aC0+bF")
        coeff = {"C0": 0, "F": 0}
        for sign, digits, name in re.findall(_FC_TERM, terms):
            coeff[name] += int(sign + (digits or "1"))
        return ToricDivisor(fan, (coeff["F"], coeff["C0"], 0, 0))
    if text.startswith("["):
        try:
            coeffs = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed divisor JSON: {exc}") from exc
        if not (isinstance(coeffs, list) and all(_is_int(v) for v in coeffs)):
            raise InputError(f"divisor coefficients must be integers: {text!r}")
    else:
        coeffs = _int_list(text, "divisor coefficients")
    if len(coeffs) != fan.n:
        raise InputError(f"{len(coeffs)} coefficients for a fan with {fan.n} rays")
    return ToricDivisor(fan, tuple(coeffs))


def parse_multiplicities(text: Optional[str]) -> tuple:
    if not text:
        return ()
    return tuple(_int_list(text, "multiplicities"))


def _emit(args, payload, human_lines: List[str]) -> None:
    if args.json:
        print(json.dumps(jsonable(payload), indent=2))
    else:
        for line in human_lines:
            print(line)


def cmd_lambda(args) -> int:
    fan = parse_surface(args.surface)
    res = lambda_invariant(fan)
    _emit(
        args,
        {
            "surface": fan.name or "custom",
            "lambda": res.value,
            "inner_min": res.inner_min,
            "argmin_subset": list(res.argmin_subset),
        },
        [
            f"lambda = {res.value}",
            f"inner minimum = {res.inner_min} at subset {list(res.argmin_subset)}",
        ],
    )
    return 0


def cmd_cohomology(args) -> int:
    fan = parse_surface(args.surface)
    D = parse_divisor(fan, args.divisor)
    prof = cohomology(D)
    lines = [f"h0 = {prof.h0}", f"h1 = {prof.h1}", f"h2 = {prof.h2}", f"chi = {prof.chi}"]
    _emit(args, prof, lines)
    return 0


def cmd_intersect(args) -> int:
    fan = parse_surface(args.surface)
    D = parse_divisor(fan, args.divisor)
    E = parse_divisor(fan, args.curve)
    val = intersection_number(D, E)
    _emit(args, {"intersection": val}, [f"D.E = {val}"])
    return 0


def cmd_check_toric(args) -> int:
    fan = parse_surface(args.surface)
    C = parse_divisor(fan, args.curve)
    curve = CurveOnSurface(
        fan=fan, curve_class=C, multiplicities=parse_multiplicities(args.multiplicities)
    )
    report = toric_theorem_report(curve)
    lines = [
        f"lambda = {report.lambda_value}",
        f"C^2 = {report.C2}, blowup C~^2 = {report.blowup_C2}",
        f"degree bound = {report.degree_bound}, e_max = {report.e_max}",
    ]
    if report.positive_rep is not None:
        lines.append(f"positive representation = {list(report.positive_rep.coeffs)}")
        lines.append(
            f"interpolation divisor = {list(report.interp_divisor.coeffs)}, C.D = {report.CD}"
        )
    for name, verdict in report.hypothesis_verdicts.items():
        lines.append(f"hypothesis {name}: {verdict}")
    if report.conditions is not None:
        lines.append(
            "conditions at e_max: "
            f"(1) {report.conditions.intersection_bound} "
            f"(2) {report.conditions.surjectivity} "
            f"(3) {report.conditions.section_lift}"
        )
    if report.degB_table:
        lines.append("deg B by e: " + ", ".join(f"{e}->{b}" for e, b in report.degB_table))
    _emit(args, report, lines)
    if args.strict and any(v == FAIL for v in report.hypothesis_verdicts.values()):
        return 1
    return 0


def cmd_plane(args) -> int:
    report = plane_theorem_report(args.d, args.delta, args.e)
    lines = [
        f"e bound = {report.e_bound} (terms {report.term1}, {report.term2}; "
        f"ceil term {report.ceil_term})",
        f"m = {report.m}, deg B = {report.degB}",
        f"conclusion guaranteed: {report.conclusion_guaranteed}",
    ]
    for name, verdict in report.hypotheses.items():
        lines.append(f"hypothesis {name}: {verdict}")
    for lvl in report.chain:
        lines.append(f"chain level {lvl.level}: degree bound {lvl.degree_bound}, m = {lvl.m}")
    _emit(args, report, lines)
    if args.strict and not report.conclusion_guaranteed:
        return 1
    return 0


def cmd_hirzebruch_example(args) -> int:
    report = hirzebruch_counterexample(args.n)
    lines = [
        f"n = {report.n}: C^2 = {report.C2}, deg P = {report.deg_P}",
        f"low degree regime (9 deg P < C^2): {report.low_degree_regime}",
        f"h0(S,D) = {report.h0_D}, h1(S,D) = {report.h1_D}, "
        f"h1(S,D-C) = {report.h1_D_minus_C}",
        f"h0(C,P) = {report.h0_C_P}",
        f"surjectivity fails: {report.surjectivity_fails}",
    ]
    _emit(args, report, lines)
    if args.strict and not report.surjectivity_fails:
        return 1
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest()
    payload = [{"suite": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    lines = [f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}" for r in results]
    _emit(args, {"suites": payload}, lines)
    return 0 if all(r.ok for r in results) else 1


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="toricpoints",
        description="Exact divisor arithmetic and low-degree point bounds on toric surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    def common_strict(p):
        common(p)
        p.add_argument("--strict", action="store_true", help="exit 1 on hypothesis failure")

    p = sub.add_parser("lambda", help="surface invariant lambda(S)")
    p.add_argument("--surface", required=True)
    common(p)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("cohomology", help="h0/h1/h2/chi of a toric divisor")
    p.add_argument("--surface", required=True)
    p.add_argument("--divisor", required=True)
    common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("intersect", help="intersection number of two divisors")
    p.add_argument("--surface", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--curve", required=True)
    common(p)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("check-toric", help="full interpolation report for a curve class")
    p.add_argument("--surface", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--multiplicities", default=None)
    common_strict(p)
    p.set_defaults(func=cmd_check_toric)

    p = sub.add_parser("plane", help="plane-curve degree bounds and decomposition")
    p.add_argument("--d", type=_ascii_int, required=True)
    p.add_argument("--delta", type=_ascii_int, default=0)
    p.add_argument("--e", type=_ascii_int, required=True)
    common_strict(p)
    p.set_defaults(func=cmd_plane)

    p = sub.add_parser("hirzebruch-example", help="the F_1 surjectivity failure family")
    p.add_argument("--n", type=_ascii_int, required=True)
    common_strict(p)
    p.set_defaults(func=cmd_hirzebruch_example)

    p = sub.add_parser("selftest", help="run the cross-oracle suites")
    common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
