import json
import os
import sys

from hypothesis import settings, strategies as st

from toricpoints.fan import build_fan
from toricpoints.selftest import _builtin_fans, _subdivide as subdivide

# Every property test draws the same examples on every run, however long
# they take; a test's own settings(...) gives only its max_examples.
settings.register_profile("toricpoints", derandomize=True, deadline=None)
settings.load_profile("toricpoints")

FANS = _builtin_fans()
# P^2 blown up at its three fixed points: six rays, the hexagon of -K
HEXAGON_RAYS = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
HEXAGON = build_fan(HEXAGON_RAYS)
# primitive and distinct, every consecutive det is 1, but the cycle turns
# twice around the origin, so it is no fan
WINDS_TWICE = [(1, 0), (0, 1), (-1, -1), (0, -1), (1, 1), (-1, 0), (-2, -1)]


def count_calls(work, *functions):
    """How often `work()` enters each function, by its code object, so calls
    through every name a function was imported under are seen."""
    codes = {f.__code__: f.__qualname__ for f in functions}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return counts


# Generators of SL(2, Z); det 1 keeps the rays counterclockwise.
GENERATORS = [(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (1, 0, -1, 1), (0, -1, 1, 0)]


@st.composite
def blowup_fans(draw, max_m=6, max_rays=14):
    """P^2 or F_m for m <= max_m after random blowups up to max_rays rays,
    under a random SL(2, Z) image and a random rotation of the ray list."""
    m = draw(st.integers(0, max_m))
    rays = draw(st.sampled_from([[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, m), (0, -1)]]))
    for _ in range(draw(st.integers(0, max_rays - len(rays)))):
        rays = subdivide(rays, draw(st.integers(0, len(rays) - 1)))
    for a, b, c, d in draw(st.lists(st.sampled_from(GENERATORS), max_size=4)):
        rays = [(a * x + b * y, c * x + d * y) for x, y in rays]
    k = draw(st.integers(0, len(rays) - 1))
    return build_fan(rays[k:] + rays[:k])


# Every command line that the CLI refuses, with the one line it writes to
# stderr after "error: ".  id: (argv, made, line).  "{tmp}" in the argv and
# in the line stands for a fresh directory, and `made`, unless None, is the
# bytes written to {tmp}/fan.json before the run.
FAN_JSON = "{tmp}/fan.json"
BIG = "9" * 5000  # more digits than int() converts
P2_RAYS = b'{"rays": [[1,0],[0,1],[-1,-1]]}'
P2 = [[1, 0], [0, 1], [-1, -1]]
F2_RAYS = [[1, 0], [0, 1], [-1, 2], [0, -1]]  # D_i^2 = (0, -2, 0, 2): F, C0, F, C_inf
UNKNOWN = "unknown surface {!r}: expected P2, P1xP1, F<m> or a JSON file path"
NOT_REGULAR = "cannot read {}: not a regular file"
MALFORMED = "malformed JSON in " + FAN_JSON + ": "
CRLF_ERROR = MALFORMED + "Expecting ',' delimiter: line 4 column 3 (char 29)"
BAD_UTF8 = MALFORMED + "'utf-8' codec can't decode byte 0xff in position %d: invalid start byte"
TOO_LONG = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
    " use sys.set_int_max_str_digits() to increase the limit"
)
TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
COEFFS = "divisor coefficients must be integers: {!r}"
MULTS = "multiplicities must be integers: {!r}"
NOT_FC = "cannot parse divisor {!r} as aC0+bF"
FC_SHORTHAND = '"aC0+bF" shorthand needs D_i^2 = (0, -m, 0, m), as F_m has'
NOT_READ = "unknown surface descriptor keys: {}"
TWO_SURFACES = '"rays" takes no "builtin" or "m" beside it'
NAMED_TWICE = '"builtin" takes no "name" beside it: a builtin surface has its own'


def _surface(desc, line, *flags):
    """The row of `lambda` on {tmp}/fan.json holding `desc` as JSON."""
    return ("lambda", "--surface", FAN_JSON, *flags), json.dumps(desc).encode(), line


def _divisor(surface, text, line):
    """The row of `cohomology --json` of the divisor `text` on `surface`."""
    return ("cohomology", "--surface", surface, f"--divisor={text}", "--json"), None, line


REFUSED = {
    "unknown-name": (("lambda", "--surface", "P5"), None, UNKNOWN.format("P5")),
    "four-coefficients-on-P2": (
        ("cohomology", "--surface", "P2", "--divisor", "1,2,3,4"),
        None,
        "4 coefficients for a fan with 3 rays",
    ),
    "malformed-json": (
        ("lambda", "--surface", FAN_JSON),
        b"{not json",
        MALFORMED + "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    # aC0+bF takes one sign between any two terms
    **{
        f"F1-divisor-{text}": _divisor("F1", text, NOT_FC.format(text))
        for text in ("C0+", "2C0++F", "2C0+-F", "C0F")
    },
    # the rays of F_2 from C0, C_inf and the second F: D_i^2 = (-2, 0, 2, 0),
    # (2, 0, -2, 0) and (0, 2, 0, -2), so D_1 and D_2 are not F and C0
    **{
        f"F2-from-{start}-{D}.{D}": (
            ("intersect", "--surface", FAN_JSON, "--divisor", D, "--curve", D),
            json.dumps({"rays": F2_RAYS[k:] + F2_RAYS[:k]}).encode(),
            FC_SHORTHAND,
        )
        for k, start in ((1, "C0"), (3, "C_inf"), (2, "F"))
        for D in ("C0", "F")
    },
    "dH-on-F1": (
        ("cohomology", "--surface", "F1", "--divisor", "9H"),
        None,
        '"dH" shorthand only applies to P2',
    ),
    "aC0+bF-on-P2": (("cohomology", "--surface", "P2", "--divisor", "C0+F"), None, FC_SHORTHAND),
    "plane-negative-delta": (
        ("plane", "--d", "10", "--delta=-1", "--e", "3", "--json"),
        None,
        "d and delta must be >= 0, got d=10, delta=-1",
    ),
    "plane-negative-d": (
        ("plane", "--d=-10", "--e", "3", "--json"),
        None,
        "d and delta must be >= 0, got d=-10, delta=0",
    ),
    # only check-toric, plane and hirzebruch-example have a hypothesis to fail
    **{
        f"{argv[0]}-strict": (
            (*argv, "--strict"),
            None,
            f"{argv[0]} does not take '--strict': its options are {options}",
        )
        for argv, options in (
            (("lambda", "--surface", "P2"), "--surface, --json"),
            (("cohomology", "--surface", "P2", "--divisor", "2H"), "--surface, --divisor, --json"),
            (
                ("intersect", "--surface", "P2", "--divisor", "H", "--curve", "H"),
                "--surface, --divisor, --curve, --json",
            ),
            (("selftest",), "--json"),
        )
    },
    # the descriptor's keys are the CLI's to check, the values of its rays
    # and of its builtin name the fan's
    "string-m": _surface({"builtin": "hirzebruch", "m": "3"}, '"m" must be an integer', "--json"),
    "float-ray": _surface(
        {"rays": [[1.7, 0], [0, 1], [-1, -1]]}, "ray coordinates must be ints, got 1.7", "--json"
    ),
    # two surfaces named, once answered for one of them: P^2, P^2, F_2 and P^2
    "rays-and-builtin": _surface({"rays": P2, "builtin": "F1"}, TWO_SURFACES),
    "rays-and-m": _surface({"rays": P2, "m": 1}, TWO_SURFACES),
    **{
        f"{name}-and-m": _surface(
            {"builtin": name, "m": m},
            f"only the hirzebruch surface takes the parameter m, not {name!r}",
        )
        for name, m in (("F2", 5), ("P2", 0))
    },
    # misspelt keys were ignored, and the answer was for P^2
    "misspelt-keys": _surface(
        {"rays": P2, "Builtin": "F1", "M": 3}, NOT_READ.format("'Builtin', 'M'")
    ),
    "key-mm": _surface({"builtin": "F1", "mm": 3}, NOT_READ.format("'mm'")),
    "key-comment": _surface({"rays": P2, "comment": "P2"}, NOT_READ.format("'comment'")),
    # a builtin surface has a fixed name, and another one was dropped
    "F1-and-name": _surface({"builtin": "F1", "name": "Q"}, NAMED_TWICE),
    "hirzebruch-and-name": _surface({"builtin": "hirzebruch", "m": 1, "name": "F1"}, NAMED_TWICE),
    "not-an-object": _surface(P2, "surface descriptor must be a JSON object"),
    "no-surface": _surface({"name": "P2"}, 'surface descriptor needs "rays" or "builtin"'),
    "name-not-a-string": _surface({"rays": P2, "name": 5}, '"name" must be a string'),
    "hirzebruch-without-m": _surface(
        {"builtin": "hirzebruch"}, "hirzebruch surface needs the parameter m"
    ),
    "negative-m": _surface(
        {"builtin": "hirzebruch", "m": -1}, "Hirzebruch parameter must be >= 0, got -1"
    ),
    "two-rays": _surface({"rays": P2[:2]}, "need at least 3 rays, got 2"),
    "clockwise": _surface({"rays": P2[::-1]}, "det(u_0, u_1) = -1 != 1 for rays (-1, -1), (0, 1)"),
    "winds-twice": _surface(
        {"rays": [[1, 0], [0, 1], [-1, -1], [0, -1], [1, 1], [-1, 0], [-2, -1]]},
        "rays do not wind exactly once around the origin",
    ),
    # a JSON list's values reach ToricDivisor's contract; '{"a": 1}' is not
    # a JSON list, so it is read as a comma list, which is text the CLI parses
    **{
        f"divisor-json-{case}": _divisor("P2", text, "divisor coefficients must be ints, got " + got)
        for case, text, got in (
            ("string", '["3",0,0]', "'3'"),
            ("bool", "[true,0,0]", "True"),
            ("float", "[3.0,0,0]", "3.0"),
            ("list", "[[3],0,0]", "[3]"),
        )
    },
    "divisor-json-object": _divisor("P2", '{"a": 1}', COEFFS.format('{"a": 1}')),
    # text integers are ASCII digits only
    **{
        f"divisor-{case}": _divisor(surface, text, says.format(text))
        for case, surface, text, says in (
            ("underscore", "P2", "1_0,0,0", COEFFS),  # comma list
            ("arabic-digit", "P2", "٣,0,0", COEFFS),
            ("empty-item", "P2", "1,,0", COEFFS),
            ("trailing-comma", "P2", "1,0,0,", COEFFS),
            ("arabic-dH", "P2", "٣H", COEFFS),  # dH shorthand, read as a comma list
            ("underscore-aC0+bF", "F1", "1_0C0+F", NOT_FC),  # aC0+bF terms
            ("arabic-aC0+bF", "F1", "C0+٣F", NOT_FC),
        )
    },
    **{
        f"multiplicities-{case}": (
            ("check-toric", "--surface", "P2", "--curve=9H", "--multiplicities", text, "--json"),
            None,
            MULTS.format(text),
        )
        for case, text in (
            ("underscore", "2_0"),
            ("arabic-digit", "2,٣"),
            ("empty-item", "2,,2"),
            ("trailing-comma", "2,"),
        )
    },
    "plane-d-underscore": (("plane", "--d", "1_0", "--e", "3"), None, "not an integer: '1_0'"),
    "plane-e-arabic-digit": (("plane", "--d", "9", "--e", "٣"), None, "not an integer: '٣'"),
    "example-n-underscore": (("hirzebruch-example", "--n", "2_6"), None, "not an integer: '2_6'"),
    # a Hirzebruch name takes ASCII digits only, as the argument and as a builtin
    **{
        f"F-{case}": (("lambda", "--surface", name), None, UNKNOWN.format(name))
        for case, name in (("superscript", "F²"), ("arabic", "F٣"), ("5000-digits", "F" + BIG))
    },
    "builtin-F-superscript": _surface({"builtin": "F²"}, "unknown builtin surface 'F²'", "--json"),
    "builtin-F-arabic": _surface({"builtin": "F٣"}, "unknown builtin surface 'F٣'", "--json"),
    "builtin-F-5000-digits": _surface(
        {"builtin": "F" + BIG}, "Hirzebruch parameter of 5000 digits is too long", "--json"
    ),
    # over-long integers: the dH shorthand is named as the comma list it
    # becomes, and an aC0+bF term by its coefficient alone
    "long-coefficient": _divisor("P2", f"{BIG},0,0", COEFFS.format(f"{BIG},0,0")),
    "long-dH": _divisor("P2", f"{BIG}H", COEFFS.format(f"{BIG},0,0")),
    "long-C0": _divisor("F1", f"{BIG}C0+F", COEFFS.format(BIG)),
    "long-F": _divisor("F1", f"C0-{BIG}F", COEFFS.format("-" + BIG)),
    "long-json-coefficient": _divisor(
        "P2", f"[{BIG},0,0]", "malformed divisor JSON: " + TOO_LONG
    ),
    "long-curve-coefficient": (
        ("intersect", "--surface", "P2", "--divisor=H", f"--curve=0,{BIG},0", "--json"),
        None,
        COEFFS.format(f"0,{BIG},0"),
    ),
    "long-multiplicity": (
        ("check-toric", "--surface", "P2", "--curve=9H", f"--multiplicities=2,{BIG}", "--json"),
        None,
        MULTS.format(f"2,{BIG}"),
    ),
    "long-m": (
        ("lambda", "--surface", FAN_JSON),
        b'{"builtin": "hirzebruch", "m": %s}' % BIG.encode(),
        MALFORMED + TOO_LONG,
    ),
    "long-ray": (
        ("lambda", "--surface", FAN_JSON),
        b'{"rays": [[1, 0], [0, 1], [-1, -%s]]}' % BIG.encode(),
        MALFORMED + TOO_LONG,
    ),
    "deep-descriptor": (("lambda", "--surface", FAN_JSON), b"[" * 100000, MALFORMED + TOO_DEEP),
    "deep-divisor": (
        ("cohomology", "--surface", "P2", "--divisor=" + "[" * 100000),
        None,
        "malformed divisor JSON: " + TOO_DEEP,
    ),
    "long-d": (("plane", "--d", BIG, "--e", "5"), None, "integer too long: 5000 characters"),
    "long-n": (("hirzebruch-example", "--n", BIG), None, "integer too long: 5000 characters"),
    "directory": (("lambda", "--surface", "{tmp}"), None, "cannot read {tmp}: Is a directory"),
    "not-utf8": (
        ("lambda", "--surface", FAN_JSON, "--json"), b'{"builtin": "P2"\xff}', BAD_UTF8 % 16
    ),
    # each kind of --surface argument that names no surface
    **{
        f"surface-{case}": (("lambda", "--surface", surface, "--json"), made, line)
        for case, surface, made, line in (
            ("missing-file", "{tmp}/none.json", None, UNKNOWN.format("{tmp}/none.json")),
            ("directory", "{tmp}", None, "cannot read {tmp}: Is a directory"),
            # read as empty, were it read
            ("device", os.devnull, None, NOT_REGULAR.format(os.devnull)),
            ("path-under-a-file", FAN_JSON + "/x", P2_RAYS, UNKNOWN.format(FAN_JSON + "/x")),
            ("nul-in-path", "{tmp}/a\0b", None, UNKNOWN.format("{tmp}/a\0b")),
            (
                "utf8-bom",
                FAN_JSON,
                b"\xef\xbb\xbf" + P2_RAYS,
                MALFORMED
                + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
            ),
            (
                "invalid-utf8",
                FAN_JSON,
                b'{"rays": [[1,0],[0,1],[-1,-1]], "name": "\xff"}',
                BAD_UTF8 % 41,
            ),
            ("utf16", FAN_JSON, P2_RAYS.decode().encode("utf-16"), BAD_UTF8 % 0),
            ("empty-file", FAN_JSON, b"", MALFORMED + "Expecting value: line 1 column 1 (char 0)"),
            # CRLF and a lone CR each count as one line break, as a text-mode read has them
            ("crlf", FAN_JSON, b'{\r\n  "rays": [[1,0],\r\n [0,1]\r\n  x', CRLF_ERROR),
            ("cr", FAN_JSON, b'{\r  "rays": [[1,0],\r [0,1]\r  x', CRLF_ERROR),
            ("hirzebruch-without-m", "hirzebruch", None, UNKNOWN.format("hirzebruch")),
            ("F-and-5000-digits", "F" + BIG, None, UNKNOWN.format("F" + BIG)),
            ("5000-character-name", "x" * 5000, None, UNKNOWN.format("x" * 5000)),
        )
    },
    # refused by the library once the command line is read
    "plane-d2-below-36-delta": (
        ("plane", "--d", "10", "--delta", "3", "--e", "3"), None, "d^2 < 36 delta for d=10, delta=3"
    ),
    "example-n-0": (("hirzebruch-example", "--n", "0"), None, "n must be >= 1, got 0"),
    "multiplicity-1": (
        ("check-toric", "--surface", "P2", "--curve", "9H", "--multiplicities", "1"),
        None,
        "singularity multiplicity 1 < 2",
    ),
}


def refused_command_line(case, tmp):
    """The argv and the error line of REFUSED[case], with {tmp} read as the
    directory `tmp`, once tmp/fan.json is made."""
    argv, made, line = REFUSED[case]
    if made is not None:
        (tmp / "fan.json").write_bytes(made)
    fill = lambda text: text.replace("{tmp}", str(tmp))
    return [fill(arg) for arg in argv], fill(line)
