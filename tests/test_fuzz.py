"""Fuzzing of the input boundary.

Whatever text or descriptor file the CLI is given, `main` returns 0 or 2,
command-line refusals included: exit 2 means empty stdout and exactly one
`error:` line on stderr, and no exception escapes, SystemExit included.
Whatever rays `build_fan` is given, it returns a fan exactly when they form
a smooth complete fan, and raises a ToricError otherwise.

Whatever arguments a name that `toricpoints` exports is called with, it
returns or raises a ToricError, and what it returns holds no float.

Output is captured with contextlib.redirect_stdout/redirect_stderr, as in
tests/test_golden.py, because Hypothesis refuses function-scoped fixtures.
`check-toric` is fuzzed with a fixed small curve class only: it prints one
deg B row per e up to e_max, which grows with C^2.
"""

import contextlib
import dataclasses
import enum
import inspect
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricpoints
from toricpoints import (
    CohomologyProfile,
    CurveOnSurface,
    DegBTable,
    HirzebruchExampleReport,
    InterpolationReport,
    LambdaResult,
    PlaneReport,
    Positivity,
    ToricDivisor,
    ToricSurfaceFan,
)
from toricpoints.cli import main
from toricpoints.errors import ToricError
from toricpoints.fan import build_fan, det
from toricpoints.selftest import _subdivide as subdivide

from conftest import FANS, GENERATORS
from oracles import is_fan

# A reflection of determinant -1, and ray cycles to start from: P^2,
# F_0..F_3, and one that winds twice around the origin.
REFLECTION = (0, 1, 1, 0)
ONCE = [[(1, 0), (0, 1), (-1, -1)]] + [[(1, 0), (0, 1), (-1, m), (0, -1)] for m in range(4)]
TWICE = [(1, 0), (0, 1), (-1, -1), (0, -1), (1, 1), (-1, 0), (-2, -1)]

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

ALPHABET = "0123456789+-,[] HCFP_x٣²"
# a digit run whose square has more digits than str() converts, or that
# itself has more than int() converts, with fuzz text around it
LONG_DIGITS = st.builds(
    lambda head, digit, n, tail: head + digit * n + tail,
    st.sampled_from(["", "[", "-"]) | st.text(ALPHABET, max_size=4),
    st.sampled_from("123456789"),
    st.sampled_from([2200, 4300, 4301, 4400]) | st.integers(2200, 4400),
    st.text(ALPHABET, max_size=4),
)
# runs of tokens, which read as valid input more often than single characters
TOKENS = st.lists(
    st.sampled_from(
        ["1", "2", "12", "0", "-", "+", ",", "[", "]", " ", "H", "C0", "F", "P2", "٣", "²"]
    ),
    max_size=8,
).map("".join)
INTS = st.lists(st.integers(-20, 20), min_size=1, max_size=5).map(lambda v: ",".join(map(str, v)))
NESTED = st.sampled_from([1, 10, 1000, 100000]).map(lambda n: "[" * n)
TEXT = st.text(ALPHABET, max_size=24) | TOKENS | INTS | LONG_DIGITS | NESTED


def call(argv):
    """(exit code, stdout, stderr) of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv), out.getvalue(), err.getvalue()


def check_answers(argv):
    code, out, err = call(argv)
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, argv
    else:
        assert code == 0 and err == "" and out.endswith("\n"), argv
        if "--json" in argv:
            json.loads(out)


@FUZZ
@given(
    st.sampled_from(["surface", "divisor", "curve", "multiplicities"]),
    TEXT,
    st.sampled_from(["P2", "F1", "F3"]),
    st.booleans(),
)
def test_cli_text_inputs_answer_or_exit_2(field, text, surface, as_json):
    divisor = "H" if surface == "P2" else "F"
    argv = {
        "surface": ["lambda", f"--surface={text}"],
        "divisor": ["cohomology", f"--surface={surface}", f"--divisor={text}"],
        "curve": ["intersect", f"--surface={surface}", f"--divisor={divisor}", f"--curve={text}"],
        "multiplicities": ["check-toric", "--surface=P2", "--curve=9H", f"--multiplicities={text}"],
    }[field]
    check_answers(argv + ["--json"] * as_json)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(ALPHABET, max_size=6),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["rays", "builtin", "m", "name"]), kids, max_size=4),
    max_leaves=12,
)
DESCRIPTORS = st.fixed_dictionaries(
    {},
    optional={
        "rays": st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=6)
        | st.sampled_from(ONCE + [TWICE]).map(lambda rays: [list(u) for u in rays])
        | JSON_VALUES,
        "builtin": st.sampled_from(["P2", "p1xp1", "hirzebruch", "F2", "F٣", "F²", "Q"])
        | JSON_VALUES,
        "m": st.integers(-2, 5) | JSON_VALUES,
        "name": st.text(max_size=4) | JSON_VALUES,
    },
)
FILE_BYTES = (
    st.builds(lambda v: json.dumps(v).encode(), DESCRIPTORS)
    | st.builds(lambda v: json.dumps(v).encode(), JSON_VALUES)
    | st.sampled_from([b"1", b"9"]).map(lambda d: b'{"builtin": "F2", "m": %s}' % (d * 4301))
    | st.builds(lambda n: b"[" * n, st.sampled_from([1, 10, 1000, 100000]))
    | st.binary(max_size=24)
    | st.none()  # the directory the file would be in
)


@FUZZ
@given(FILE_BYTES, st.sampled_from([["lambda"], ["cohomology", "--divisor=1,0,0"]]), st.booleans())
def test_cli_descriptor_files_answer_or_exit_2(tmp_path_factory, data, command, as_json):
    path = tmp_path_factory.mktemp("descriptor")
    if data is not None:
        path = path / "fan.json"
        path.write_bytes(data)
    check_answers(command + [f"--surface={path}"] + ["--json"] * as_json)



@st.composite
def ray_cycles(draw):
    """(rays, expected): a start cycle after random blowups, blowdowns,
    SL(2, Z) images, rotations, reflections and reversals.  `expected` is
    whether build_fan must accept the rays when every step kept the winding
    number and the determinants (None otherwise)."""
    twice = draw(st.booleans())
    rays = list(TWICE if twice else draw(st.sampled_from(ONCE)))
    kept = True
    for _ in range(draw(st.integers(0, 10))):
        if not rays:
            break
        op = draw(st.sampled_from(["blowup", "blowdown", "image", "rotate", "reflect", "reverse"]))
        n = len(rays)
        i = draw(st.integers(0, n - 1))
        if op == "blowup":
            rays = subdivide(rays, i)
        elif op == "blowdown":
            kept = kept and n > 3 and det(rays[i - 1], rays[(i + 1) % n]) == 1
            del rays[i]
        elif op == "rotate":
            rays = rays[i:] + rays[:i]
        elif op == "reverse":
            rays.reverse()
            kept = False
        else:
            a, b, c, d = REFLECTION if op == "reflect" else draw(st.sampled_from(GENERATORS))
            rays = [(a * x + b * y, c * x + d * y) for x, y in rays]
            kept = kept and op == "image"
    return rays, (not twice) if kept else None


@settings(derandomize=True, deadline=None, max_examples=400)
@given(ray_cycles())
def test_build_fan_accepts_exactly_the_fans(case):
    rays, expected = case
    try:
        fan = build_fan(rays)
    except ToricError:
        fan = None
    assert (fan is not None) == is_fan(rays)
    if expected is not None:
        assert (fan is not None) == expected
    if fan is not None:
        assert sum(fan.self_intersections) == 12 - 3 * fan.n  # Noether


# Exported names the walk does not call.  The result records are plain
# dataclasses that validate nothing.  Calling an Enum looks a member up by
# its value, and raises ValueError for any other value.
RECORDS = {
    LambdaResult,
    CohomologyProfile,
    InterpolationReport,
    HirzebruchExampleReport,
    PlaneReport,
}
LOOKUPS = {Positivity}


# The divisor's operators, which no exported signature lists.  `self` is
# the divisor the operator is called on, and is always a valid one.
def divisor_sum(self: "ToricDivisor", E: "ToricDivisor"):
    return self + E


def divisor_difference(self: "ToricDivisor", E: "ToricDivisor"):
    return self - E


def divisor_multiple(self: "ToricDivisor", s: "int"):
    return self * s


def multiple_of_divisor(s: "int", self: "ToricDivisor"):
    return s * self


EXPORTED = sorted(
    (name, obj)
    for name, obj in vars(toricpoints).items()
    if (inspect.isfunction(obj) or inspect.isclass(obj))
    and obj.__module__.startswith("toricpoints")
    and obj not in RECORDS | LOOKUPS
)
WALKED = EXPORTED + [
    (f.__name__, f) for f in (divisor_sum, divisor_difference, divisor_multiple, multiple_of_divisor)
]
# not one of FANS, so a divisor on it is on another fan
ELSEWHERE = ToricDivisor(build_fan([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]), (1,) * 6)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),  # nan and inf included
    st.sampled_from(["3", "12"]),
    st.sampled_from([Fraction(1, 2), Fraction(3)]),
    st.sampled_from([(), (1,), (1, 2, 3, 4, 5)]),
    st.just(ELSEWHERE),
)


def valid(fan, name, annotation):
    """Values of a parameter that the name should answer for on `fan`."""
    ints = st.integers(-3, 40)
    coeffs = st.lists(st.integers(-6, 9), min_size=fan.n, max_size=fan.n).map(tuple)
    mults = st.lists(st.integers(2, 4), max_size=3).map(tuple)
    divisors = coeffs.map(lambda a: ToricDivisor(fan, a))
    if annotation == "ToricSurfaceFan":
        return st.just(fan)
    if annotation == "ToricDivisor":
        return divisors
    if annotation == "CurveOnSurface":
        return st.builds(CurveOnSurface, st.just(fan), divisors, mults)
    if annotation == "LatticePoint":
        return st.tuples(ints, ints)
    if annotation in ("Sequence[LatticePoint]", "Tuple[LatticePoint, ...]"):
        return st.just(list(fan.rays))
    if name == "coeffs":
        return coeffs
    if name == "multiplicities":
        return mults
    if "str" in annotation:
        return st.sampled_from(["P2", "P1xP1", "F3", "hirzebruch", "Q"])
    return (ints | st.none()) if annotation.startswith("Optional") else ints


def floats_in(obj):
    """Every float inside a returned value."""
    if isinstance(obj, float):
        return [obj]
    if isinstance(obj, DegBTable):  # its rows are computed from these two
        obj = (obj.CD, obj.e_max)
    elif isinstance(obj, enum.Enum):
        obj = obj.value
    elif dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        obj = [*obj, *obj.values()]
    if isinstance(obj, (tuple, list)):
        return [x for item in obj for x in floats_in(item)]
    return []


@pytest.mark.parametrize("name, function", WALKED, ids=[name for name, _ in WALKED])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_every_exported_name_answers_or_raises_a_toric_error(name, function, data):
    fan = data.draw(st.sampled_from(FANS))
    args = []
    for p in inspect.signature(function).parameters.values():
        junk = p.name != "self" and data.draw(st.booleans())
        args.append(data.draw(JUNK if junk else valid(fan, p.name, p.annotation), label=p.name))
    try:
        result = function(*args)
    except ToricError:
        return
    assert floats_in(result) == [], (name, args)


def test_the_walk_reaches_every_exported_name():
    names = {name for name, _ in EXPORTED}
    walked = {"build_fan", "ToricSurfaceFan", "principal_divisor", "ToricDivisor", "toric_theorem_report"}
    assert walked <= names
    assert names.isdisjoint({"LambdaResult", "Positivity", "LatticePoint"})
    # the public wrappers that re-ran a report's private body, and the error
    # only they raised: each number is read from a report field instead
    gone = {
        "interpolation_conditions",
        "interpolation_divisor",
        "mainprop_h0_bound",
        "seshadri_ample_check",
        "plane_degree_bound",
        "decomposition_chain",
        "NotAmple",
        "positive_curve_representation",  # the report's positive_rep
        "blowup_self_intersection",  # the report's blowup_C2
        # the fan's errors for rays that consecutive dets of 1 and one winding refuse
        "NonPrimitiveRay",
        "DuplicateRay",
    }
    for module in (toricpoints, toricpoints.errors, toricpoints.lowdeg, toricpoints.plane):
        assert gone.isdisjoint(vars(module)), module.__name__
