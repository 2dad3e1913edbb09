"""Command-line front end.

Subcommands: lambda, cohomology, intersect, check-toric, plane,
hirzebruch-example, selftest: one row each in COMMANDS, and the row's
options are the whole grammar.  argv[0] names the command; each option is
one of the row's exact flags, written `--flag value` or `--flag=value`, and
given at most once; a flag option (--json, --strict) takes no value; a value
given as the next token must not start with `--`; every required option must
be given.  `-h` or `--help` prints the usage of the commands, or anywhere
after a command name that of its options, and exits 0.  Exit codes: 0
success, 1 hypothesis failure under --strict (or a failed selftest suite), 2
malformed input (the command line included), a result too long to print or
a stdout closed before the start or during the write, -h's too; exit 2
prints one `error:` line on stderr, nothing on stdout and no traceback, and
a stderr closed either way changes no exit code.  Rationals are printed as
exact "p/q" strings, never floats, so outputs are stable goldens.
_json_text is the one JSON writer: the --json text of a result r is written
in one walk from r itself, and equals json.dumps(jsonable(r), indent=2) for
the plain-data oracle in tests/oracles.py.  It keeps one layout per record
class, its quoted keys and one attrgetter of its fields, made the first time
it meets the class, and writes a divisor's coefficients and a deg B table's
rows by one join each.
"""

from __future__ import annotations

import errno
import json
import os
import re
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cohomology import cohomology
from .divisor import ToricDivisor, intersection_number
from .errors import InputError, ToricError, is_int
from .fan import ToricSurfaceFan, build_fan, builtin_surface
from .lowdeg import (
    CurveOnSurface,
    DegBTable,
    FAIL,
    hirzebruch_counterexample,
    lambda_invariant,
    toric_theorem_report,
)
from .plane import plane_theorem_report


# How each scalar is written, by its exact type: a Fraction as the exact
# "p/q" string of it in lowest terms
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    Fraction: lambda f: _quote(str(f)),
}
# The layout of each record class _json_text has met: its quoted keys and
# one getter of its field values in order.  It is the one process-wide
# cache that the source rules allow: its keys are record classes, a finite
# set in src/, and never an argument's value
_LAYOUTS: Dict[type, Tuple[List[str], Callable[[object], tuple]]] = {}


def _json_text(obj, pad: str = "\n") -> str:
    """The JSON text of obj with an indent of 2, written in one walk from obj
    itself with no plain-data copy (CPython's C encoder skips indent); `pad`
    is the line break and indent of obj's level.  A record is written from
    its class's layout, and a divisor's coefficients and a deg B table's
    rows by one join each; exact types are tried before isinstance."""
    cls = type(obj)
    write = _SCALARS.get(cls)
    if write is not None:
        return write(obj)
    inner = pad + "  "
    layout = _LAYOUTS.get(cls)
    if layout is not None:  # a record of a class met before
        keys, get = layout
        pairs = zip(keys, get(obj))
    elif cls is list or cls is tuple or isinstance(obj, (list, tuple)):
        pairs = None  # an array
    elif cls is dict or isinstance(obj, dict):
        pairs = zip([_quote(k) + ": " for k in obj], obj.values())
    elif isinstance(obj, ToricDivisor):  # its checked int coefficients, three or more
        return "[" + inner + ("," + inner).join(map(int.__repr__, obj.coeffs)) + pad + "]"
    elif isinstance(obj, DegBTable):  # its rows (e, C.D - e) of two ints each
        if not obj:
            return "[]"
        row = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
        return "[" + inner + ("," + inner).join(map(row.__mod__, obj)) + pad + "]"
    elif hasattr(cls, "__dataclass_fields__"):  # a dataclass instance, in field order
        names = tuple(cls.__dataclass_fields__)
        keys = [_quote(name) + ": " for name in names]
        get = attrgetter(*names) if len(names) > 1 else (
            lambda r: tuple(getattr(r, n) for n in names)  # attrgetter of one name gives no tuple
        )
        _LAYOUTS[cls] = keys, get
        pairs = zip(keys, get(obj))
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    # loops, not comprehensions, which cost a call each
    items: List[str] = []
    scalar, add = _SCALARS.get, items.append
    if pairs is not None:
        for key, value in pairs:
            write = scalar(type(value))
            add(key + (write(value) if write is not None else _json_text(value, inner)))
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    for value in obj:
        write = scalar(type(value))
        add(write(value) if write is not None else _json_text(value, inner))
    return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"


def jsonable(obj):
    """The plain data that obj's --json text holds."""
    return json.loads(_json_text(obj))


def parse_surface(text: str) -> ToricSurfaceFan:
    """A builtin name (P2, P1xP1, F<m>), else the path of a JSON surface
    descriptor, read by os.read as UTF-8 with text mode's newlines, if it is
    a regular file: a FIFO's open does not wait for a writer.  Builtin names
    win, so a file named P2 is given as ./P2."""
    try:
        return builtin_surface(text)
    except InputError:
        pass
    try:
        fd = os.open(text, os.O_RDONLY | os.O_NONBLOCK)
        try:
            st = os.fstat(fd)
            if stat.S_ISDIR(st.st_mode):  # os.open opens one, where open() refuses it
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if not stat.S_ISREG(st.st_mode):  # a FIFO or a device
                raise InputError(f"cannot read {text}: not a regular file")
            chunks = []  # read to the end, however the file changed since the fstat
            while chunk := os.read(fd, st.st_size + 1):
                chunks.append(chunk)
            data = b"".join(chunks)
        finally:
            os.close(fd)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        if not os.path.exists(text):  # a stat only here, to tell "no such path" apart
            raise InputError(
                f"unknown surface {text!r}: expected P2, P1xP1, F<m> or a JSON file path"
            ) from None
        raise InputError(f"cannot read {text}: {exc.strerror}") from exc
    try:  # a CRLF or CR read as one newline, as text mode does, for the same error positions
        desc = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, over-long integers
        raise InputError(f"malformed JSON in {text}: {exc}") from exc
    return surface_from_descriptor(desc)


def surface_from_descriptor(desc) -> ToricSurfaceFan:
    if not isinstance(desc, dict):
        raise InputError("surface descriptor must be a JSON object")
    unknown = sorted(set(desc) - {"rays", "builtin", "m", "name"})
    if unknown:
        raise InputError(f"unknown surface descriptor keys: {', '.join(map(repr, unknown))}")
    if not isinstance(desc.get("name", ""), str):
        raise InputError('"name" must be a string')
    if "rays" in desc:
        if "builtin" in desc or "m" in desc:
            raise InputError('"rays" takes no "builtin" or "m" beside it')
        return build_fan(desc["rays"], name=desc.get("name"))
    if "builtin" in desc:
        if "name" in desc:
            raise InputError('"builtin" takes no "name" beside it: a builtin surface has its own')
        if "m" in desc and not is_int(desc["m"]):
            raise InputError('"m" must be an integer')
        return builtin_surface(desc["builtin"], desc.get("m"))
    raise InputError('surface descriptor needs "rays" or "builtin"')


# ASCII digits only: int() and \d would also take "1_0" and non-ASCII digits;
# \s is the whitespace that int() and str.strip() skip
_INT = r"\s*[+-]?[0-9]+\s*"
_INT_RE = re.compile(_INT)
_INT_LIST_RE = re.compile(f"{_INT}(?:,{_INT})*")
# dH: terms such as H, 4H, -H or +4H, signed as an aC0+bF term is
_H_RE = re.compile(r"([+-]?)([0-9]*)H")
# aC0+bF: terms such as 2C0, -F or +3F, with a sign between any two terms
_FC_TERM = re.compile(r"([+-]?)([0-9]*)(C0|F)")
_FC_RE = re.compile(r"[+-]?[0-9]*(?:C0|F)(?:[+-][0-9]*(?:C0|F))*")


def _ascii_int(text: str) -> int:
    """An optionally signed run of ASCII digits with whitespace around it;
    also the reader of the integer options."""
    if not _INT_RE.fullmatch(text):
        raise InputError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise InputError(f"integer too long: {len(text)} characters") from None


def _int_list(text: str, what: str) -> List[int]:
    """A comma list of what _ascii_int reads, checked by one match."""
    try:
        if _INT_LIST_RE.fullmatch(text):
            return list(map(int, text.split(",")))
    except ValueError:  # more digits than int() converts
        pass
    raise InputError(f"{what} must be integers: {text!r}")


def parse_divisor(fan: ToricSurfaceFan, text: str) -> ToricDivisor:
    """Coefficient vector ("2,1,1" or JSON "[2,1,1]"), or the shorthands
    "dH" on P^2 and "aC0+bF" on a Hirzebruch surface F_m whose rays start at
    F, so that D_i^2 = (0, -m, 0, m) (H -> D_1's class, C_0 -> D_2, F -> D_1)."""
    text = text.strip()
    h = _H_RE.fullmatch(text)
    if h:
        if fan.n != 3:
            raise InputError('"dH" shorthand only applies to P2')
        text = h.group(1) + (h.group(2) or "1") + ",0,0"  # the vector (d, 0, 0), read below
    elif "C0" in text or text.endswith("F"):
        m = fan.self_intersections[-1]
        if m < 0 or fan.self_intersections != (0, -m, 0, m):
            raise InputError('"aC0+bF" shorthand needs D_i^2 = (0, -m, 0, m), as F_m has')
        terms = text.replace(" ", "")
        if not _FC_RE.fullmatch(terms):
            raise InputError(f"cannot parse divisor {text!r} as aC0+bF")
        coeff = {"C0": 0, "F": 0}
        for sign, digits, name in _FC_TERM.findall(terms):
            coeff[name] += _int_list(sign + (digits or "1"), "divisor coefficients")[0]
        return ToricDivisor(fan, (coeff["F"], coeff["C0"], 0, 0))
    if text.startswith("["):
        try:
            coeffs = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also over-long integers
            raise InputError(f"malformed divisor JSON: {exc}") from exc
    else:
        coeffs = _int_list(text, "divisor coefficients")
    return ToricDivisor(fan, coeffs)


def parse_multiplicities(text: Optional[str]) -> tuple:
    return tuple(_int_list(text, "multiplicities")) if text else ()


_REQUIRED = object()  # the default of an option that must be given


class Option(NamedTuple):
    """One option of a command: `read` turns the text of its value into what
    the command is given, and is None for a flag, which takes no value and
    is True when given; `default` is the value when the option is left out."""

    read: Optional[Callable[[str], object]]
    default: object = _REQUIRED
    help: str = ""


class Command(NamedTuple):
    """One subcommand: `options` maps each flag to its Option, `run` maps the
    option values (keyed by the flag without its dashes) to the result,
    `human` maps the result to the lines printed without --json, and
    `failed` is the test behind exit 1, read under --strict where the row
    offers it and always where it does not (selftest)."""

    help: str
    options: Dict[str, Option]
    run: Callable[[Dict[str, object]], object]
    human: Callable[[object], List[str]]
    failed: Optional[Callable[[object], bool]] = None


def _lambda(args) -> dict:
    fan = parse_surface(args["surface"])
    res = lambda_invariant(fan)
    return {
        "surface": fan.name or "custom",
        "lambda": res.value,
        "inner_min": res.inner_min,
        "argmin_subset": list(res.argmin_subset),
    }


def _intersect(args) -> dict:
    fan = parse_surface(args["surface"])
    D = parse_divisor(fan, args["divisor"])
    return {"intersection": intersection_number(D, parse_divisor(fan, args["curve"]))}


def _check_toric(args):
    fan = parse_surface(args["surface"])
    C = parse_divisor(fan, args["curve"])
    mults = parse_multiplicities(args["multiplicities"])
    return toric_theorem_report(CurveOnSurface(fan=fan, curve_class=C, multiplicities=mults))


def _check_toric_lines(r) -> List[str]:
    lines = [
        f"lambda = {r.lambda_value}",
        f"C^2 = {r.C2}, blowup C~^2 = {r.blowup_C2}",
        f"degree bound = {r.degree_bound}, e_max = {r.e_max}",
    ]
    if r.positive_rep is not None:
        lines.append(f"positive representation = {list(r.positive_rep.coeffs)}")
    if r.interp_divisor is not None:
        lines.append(f"interpolation divisor = {list(r.interp_divisor.coeffs)}, C.D = {r.CD}")
    lines += [f"hypothesis {name}: {verdict}" for name, verdict in r.hypothesis_verdicts.items()]
    if r.conditions is not None:
        c = r.conditions
        lines.append(
            f"conditions at e_max: (1) {c.intersection_bound} "
            f"(2) {c.surjectivity} (3) {c.section_lift}"
        )
    return lines


def _plane_lines(report) -> List[str]:
    return [
        f"e bound = {report.e_bound} (terms {report.term1}, {report.term2}; "
        f"ceil term {report.ceil_term})",
        f"m = {report.m}, deg B = {report.degB}",
        f"conclusion guaranteed: {report.conclusion_guaranteed}",
        *(f"hypothesis {name}: {verdict}" for name, verdict in report.hypotheses.items()),
        *(f"chain level {l.level}: degree bound {l.degree_bound}, m = {l.m}" for l in report.chain),
    ]


def _selftest(args) -> dict:
    from .selftest import run_selftest  # loaded by this command alone, not by every import
    return {"suites": run_selftest()}


_SURFACE = ("--surface", Option(str))
_DIVISOR = ("--divisor", Option(str))
_CURVE = ("--curve", Option(str))
_JSON = ("--json", Option(None, False, "emit a JSON report"))
_STRICT = ("--strict", Option(None, False, "exit 1 on hypothesis failure"))

COMMANDS = {
    "lambda": Command(
        "surface invariant lambda(S)",
        dict((_SURFACE, _JSON)),
        _lambda,
        lambda r: [
            f"lambda = {r['lambda']}",
            f"inner minimum = {r['inner_min']} at subset {r['argmin_subset']}",
        ],
    ),
    "cohomology": Command(
        "h0/h1/h2/chi of a toric divisor",
        dict((_SURFACE, _DIVISOR, _JSON)),
        lambda args: cohomology(parse_divisor(parse_surface(args["surface"]), args["divisor"])),
        lambda p: [f"h0 = {p.h0}", f"h1 = {p.h1}", f"h2 = {p.h2}", f"chi = {p.chi}"],
    ),
    "intersect": Command(
        "intersection number of two divisors",
        dict((_SURFACE, _DIVISOR, _CURVE, _JSON)),
        _intersect,
        lambda r: [f"D.E = {r['intersection']}"],
    ),
    "check-toric": Command(
        "full interpolation report for a curve class",
        dict((_SURFACE, _CURVE, ("--multiplicities", Option(str, None)), _JSON, _STRICT)),
        _check_toric,
        _check_toric_lines,
        lambda report: any(v == FAIL for v in report.hypothesis_verdicts.values()),
    ),
    "plane": Command(
        "plane-curve degree bounds and decomposition",
        dict(
            (
                ("--d", Option(_ascii_int)),
                ("--delta", Option(_ascii_int, 0)),
                ("--e", Option(_ascii_int)),
                _JSON,
                _STRICT,
            )
        ),
        lambda args: plane_theorem_report(args["d"], args["delta"], args["e"]),
        _plane_lines,
        lambda report: not report.conclusion_guaranteed,
    ),
    "hirzebruch-example": Command(
        "the F_1 surjectivity failure family",
        dict((("--n", Option(_ascii_int)), _JSON, _STRICT)),
        lambda args: hirzebruch_counterexample(args["n"]),
        lambda r: [
            f"n = {r.n}: C^2 = {r.C2}, deg P = {r.deg_P}",
            f"low degree regime (9 deg P < C^2): {r.low_degree_regime}",
            f"h0(S,D) = {r.h0_D}, h1(S,D) = {r.h1_D}, h1(S,D-C) = {r.h1_D_minus_C}",
            f"h0(C,P) = {r.h0_C_P}",
            f"surjectivity fails: {r.surjectivity_fails}",
        ],
        lambda report: not report.surjectivity_fails,
    ),
    "selftest": Command(
        "run the cross-oracle suites",
        dict((_JSON,)),
        _selftest,
        lambda r: [
            f"{'PASS' if s['ok'] else 'FAIL'} {s['suite']}: {s['detail']}" for s in r["suites"]
        ],
        lambda r: not all(s["ok"] for s in r["suites"]),
    ),
}


def read_command_line(argv: Sequence[str]) -> Tuple[Command, Dict[str, object]]:
    """The command that argv names and the values of its options, read by
    its COMMANDS row; InputError for any other command line."""
    if not argv or argv[0] not in COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise InputError(f"{what}: expected one of {', '.join(COMMANDS)}")
    name = argv[0]
    command = COMMANDS[name]
    options = command.options
    args: Dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        option = options.get(flag)
        if option is None:
            raise InputError(f"{name} does not take {flag!r}: its options are {', '.join(options)}")
        key = flag[2:]
        if key in args:
            raise InputError(f"{flag} is given twice")
        if option.read is None:
            if eq:
                raise InputError(f"{flag} takes no value")
            args[key] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise InputError(f"{flag} needs a value")
        args[key] = option.read(value)
    for flag, option in options.items():
        args.setdefault(flag[2:], option.default)
    if _REQUIRED in args.values():
        missing = [flag for flag in options if args[flag[2:]] is _REQUIRED]
        raise InputError(f"{name} needs {', '.join(missing)}")
    return command, args


def usage(name: Optional[str] = None) -> str:
    """What -h prints: every command with its help, or one command's options."""
    if name is None:
        width = max(map(len, COMMANDS))
        return "\n".join(
            [
                "usage: toricpoints COMMAND [OPTIONS]",
                "",
                "Exact divisor arithmetic and low-degree point bounds on toric surfaces",
                "",
                "commands:",
                *(f"  {n:<{width}}  {c.help}" for n, c in COMMANDS.items()),
                "",
                "toricpoints COMMAND -h lists the options of COMMAND.",
            ]
        )
    command = COMMANDS[name]
    words = []
    for flag, option in command.options.items():
        word = flag if option.read is None else f"{flag} {flag[2:].upper()}"
        words.append(word if option.default is _REQUIRED else f"[{word}]")
    lines = [f"usage: toricpoints {name} {' '.join(words)}", "", command.help]
    helped = [(flag, option.help) for flag, option in command.options.items() if option.help]
    if helped:
        lines += ["", "options:", *(f"  {flag:<8}  {text}" for flag, text in helped)]
    return "\n".join(lines)


def _print(code: int, text: str) -> int:
    """The one writer: print text, on stdout for code 0 or 1 and on stderr for
    2, and return the exit code.  A stream that is None or raises an OSError
    is closed: its descriptor, if any, is pointed at devnull so that the flush
    at exit adds nothing, and a closed stdout gives 2 and its `error:` line."""
    stream = sys.stderr if code == 2 else sys.stdout
    try:
        stream.write(text)  # the line break apart, as print does: an unbuffered
        stream.write("\n")  # stream's short write raises nothing, and this fails
        stream.flush()
    except (AttributeError, OSError):  # AttributeError: the stream is None
        try:  # AttributeError or OSError: no descriptor behind the stream
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), stream.fileno())
        except (AttributeError, OSError):
            pass
        return 2 if code == 2 else _print(2, "error: cannot print the result: stdout is closed")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Read the command line and compute, then format and print the result
    in one step; returns the exit code and never raises SystemExit."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("-h", "--help"):
        return _print(0, usage())
    if argv and argv[0] in COMMANDS and ("-h" in argv or "--help" in argv):
        return _print(0, usage(argv[0]))
    try:
        command, args = read_command_line(argv)
        result = command.run(args)
    except ToricError as exc:
        return _print(2, f"error: {exc}")
    try:
        text = _json_text(result) if args["json"] else "\n".join(command.human(result))
    except ValueError:  # an integer with more digits than str() converts
        return _print(2, "error: result too long to print: an integer has too many digits")
    failed = command.failed is not None and args.get("strict", True) and command.failed(result)
    return _print(1 if failed else 0, text)


if __name__ == "__main__":
    sys.exit(main())
