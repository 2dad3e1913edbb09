import dataclasses
import enum
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricpoints
from toricpoints import (
    CurveOnSurface,
    Positivity,
    ToricDivisor,
    cohomology,
    hirzebruch_counterexample,
    plane_theorem_report,
    toric_theorem_report,
)
from toricpoints import cli, selftest
from toricpoints.cli import (
    _json_text,
    main,
    parse_divisor,
    parse_surface,
    surface_from_descriptor,
)
from toricpoints.errors import ContractViolation, InputError, InternalInconsistency, ToricError
from toricpoints.fan import builtin_surface, p2

from conftest import blowup_fans, count_calls
from oracles import jsonable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refused(capsys, *argv, says=""):
    """main(argv) exits 2 with empty stdout and one `error:` line holding `says`."""
    code, out, err = run(capsys, *argv)
    return (code, out, err.count("\n")) == (2, "", 1) and err.startswith("error:") and says in err


def test_lambda_p2(capsys):
    code, out, _ = run(capsys, "lambda", "--surface", "P2")
    assert code == 0
    assert "lambda = -1/4" in out
    assert "-9" in out


def test_lambda_json(capsys):
    code, out, _ = run(capsys, "lambda", "--surface", "F2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == "-1/2"


def test_cohomology_command(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--surface", "P2", "--divisor", "2H", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"h0": 6, "h1": 0, "h2": 0, "chi": 6}


def test_intersect_shorthand(capsys):
    code, out, _ = run(
        capsys, "intersect", "--surface", "F1", "--divisor", "C0", "--curve", "C0"
    )
    assert code == 0
    assert "D.E = -1" in out


def test_intersect_coeff_vector(capsys):
    code, out, _ = run(
        capsys,
        "intersect",
        "--surface",
        "F1",
        "--divisor",
        "[3,1,0,0]",
        "--curve",
        "27,26,0,0",
    )
    assert code == 0
    assert "D.E = 79" in out


def test_check_toric(capsys):
    code, out, _ = run(
        capsys, "check-toric", "--surface", "P2", "--curve", "4H", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["degree_bound"] == "16/9"
    assert data["e_max"] == 1
    assert data["lambda_value"] == "-1/4"


def test_human_check_toric_prints_11_lines_however_large_the_curve(capsys):
    # e_max is about 1.1e23 here; --json alone writes the deg B rows
    code, out, _ = run(capsys, "check-toric", "--surface", "P2", "--curve", "1000000000000H")
    assert code == 0
    assert len(out.splitlines()) == 11
    assert "e_max = 111111111111111111111111\n" in out


def test_check_toric_strict_failure(capsys):
    # cubic: C + K is principal, hypothesis fails
    code, _, _ = run(
        capsys, "check-toric", "--surface", "P2", "--curve", "3H", "--strict"
    )
    assert code == 1


def test_plane_command(capsys):
    code, out, _ = run(
        capsys, "plane", "--d", "8", "--delta", "0", "--e", "7", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 1 and data["degB"] == 1
    assert data["e_bound"] == "15/2"


def test_hirzebruch_example_command(capsys):
    code, out, _ = run(capsys, "hirzebruch-example", "--n", "26", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["C2"] == 728
    assert data["h1_D_minus_C"] == 1
    assert data["surjectivity_fails"] is True


def test_json_output_deterministic(capsys):
    _, out1, _ = run(capsys, "check-toric", "--surface", "P2", "--curve", "9H", "--json")
    _, out2, _ = run(capsys, "check-toric", "--surface", "P2", "--curve", "9H", "--json")
    assert out1 == out2


def test_bad_surface_exits_2(capsys):
    code, _, err = run(capsys, "lambda", "--surface", "P5")
    assert code == 2
    assert "error" in err


def test_bad_divisor_length_exits_2(capsys):
    code, _, _ = run(
        capsys, "cohomology", "--surface", "P2", "--divisor", "1,2,3,4"
    )
    assert code == 2


def test_surface_from_json_file(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rays": [[1, 0], [0, 1], [-1, 1], [0, -1]]}))
    code, out, _ = run(capsys, "lambda", "--surface", str(path))
    assert code == 0
    assert "lambda = -1/4" in out


def test_builtin_descriptor_file(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"builtin": "hirzebruch", "m": 3}))
    code, out, _ = run(capsys, "lambda", "--surface", str(path))
    assert code == 0
    assert "lambda = -3/4" in out


def test_malformed_json_file_exits_2(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "lambda", "--surface", str(path))
    assert code == 2


def test_parse_divisor_shorthands():
    fan = p2()
    assert parse_divisor(fan, "4H").coeffs == (4, 0, 0)
    assert parse_divisor(fan, "H").coeffs == (1, 0, 0)
    assert parse_divisor(fan, "-4H").coeffs == (-4, 0, 0)
    assert parse_divisor(fan, "+4H").coeffs == (4, 0, 0)
    assert parse_divisor(fan, "-H").coeffs == (-1, 0, 0)
    for text in ("--H", "4-H"):
        with pytest.raises(InputError):
            parse_divisor(fan, text)
    f1 = parse_surface("F1")
    assert parse_divisor(f1, "26C0+27F").coeffs == (27, 26, 0, 0)
    assert parse_divisor(f1, "C0+3F").coeffs == (3, 1, 0, 0)
    assert parse_divisor(f1, "-F").coeffs == (-1, 0, 0, 0)
    assert parse_divisor(f1, "2C0+3F").coeffs == (3, 2, 0, 0)
    assert parse_divisor(f1, "+C0").coeffs == (0, 1, 0, 0)
    assert parse_divisor(f1, "-C0+2F").coeffs == (2, -1, 0, 0)
    assert parse_divisor(f1, "C0 + F").coeffs == (1, 1, 0, 0)
    assert parse_divisor(f1, "12C0-7F").coeffs == (-7, 12, 0, 0)


@pytest.mark.parametrize("text", ["C0+", "2C0++F", "2C0+-F", "C0F"])
def test_hirzebruch_shorthand_needs_one_sign_between_terms(capsys, text):
    with pytest.raises(InputError):
        parse_divisor(parse_surface("F1"), text)
    code, out, err = run(capsys, "cohomology", "--surface", "F1", f"--divisor={text}", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def intersections_of_c0_and_f(capsys, surface):
    """What `intersect` prints for C0.C0, F.F and C0.F."""
    return [
        run(capsys, "intersect", "--surface", surface, "--divisor", D, "--curve", E)[1]
        for D, E in (("C0", "C0"), ("F", "F"), ("C0", "F"))
    ]


def descriptor_file(tmp_path, rays):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rays": rays}))
    return str(path)


F2_RAYS = [[1, 0], [0, 1], [-1, 2], [0, -1]]  # D_i^2 = (0, -2, 0, 2): F, C0, F, C_inf


@pytest.mark.parametrize(
    "surface, m",
    [("F0", 0), ("F1", 1), ("F2", 2), ("F3", 3), ("P1xP1", 0), (F2_RAYS, 2),
     ([[0, 1], [-1, 0], [0, -1], [1, 0]], 0)],  # P1xP1 from its second ray
)
def test_hirzebruch_shorthand_reads_f_as_d1_and_c0_as_d2(tmp_path, capsys, surface, m):
    if isinstance(surface, list):
        surface = descriptor_file(tmp_path, surface)
    assert intersections_of_c0_and_f(capsys, surface) == [f"D.E = {-m}\n", "D.E = 0\n", "D.E = 1\n"]
    assert parse_divisor(parse_surface(surface), "2C0+3F").coeffs == (3, 2, 0, 0)


@pytest.mark.parametrize(
    "rays",
    [
        F2_RAYS[1:] + F2_RAYS[:1],  # D_i^2 = (-2, 0, 2, 0): D_1 is C0, D_2 is F
        F2_RAYS[3:] + F2_RAYS[:3],  # (2, 0, -2, 0)
        F2_RAYS[2:] + F2_RAYS[:2],  # (0, 2, 0, -2): D_2 is C_inf
    ],
)
def test_hirzebruch_shorthand_is_refused_where_d1_and_d2_are_not_f_and_c0(tmp_path, capsys, rays):
    surface = descriptor_file(tmp_path, rays)
    for D, E in (("C0", "C0"), ("F", "F")):
        assert refused(
            capsys, "intersect", "--surface", surface, "--divisor", D, "--curve", E, says="aC0+bF"
        )
    with pytest.raises(InputError, match="D_i\\^2 = \\(0, -m, 0, m\\)"):
        parse_divisor(parse_surface(surface), "2C0+3F")


@pytest.mark.parametrize(
    "surface, divisor, says",
    [("F1", "9H", '"dH" shorthand only applies to P2'), ("P2", "C0+F", '"aC0+bF" shorthand')],
)
def test_a_shorthand_is_refused_on_the_wrong_surface(capsys, surface, divisor, says):
    assert refused(capsys, "cohomology", "--surface", surface, "--divisor", divisor, says=says)


@pytest.mark.parametrize(
    "argv", [["--d", "10", "--delta=-1", "--e", "3"], ["--d=-10", "--e", "3"]]
)
def test_plane_refuses_negative_d_and_delta(capsys, argv):
    code, out, err = run(capsys, "plane", *argv, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda", "--surface", "P2"],
        ["cohomology", "--surface", "P2", "--divisor", "2H"],
        ["intersect", "--surface", "P2", "--divisor", "H", "--curve", "H"],
        ["selftest"],
    ],
)
def test_strict_is_refused_where_it_means_nothing(capsys, argv):
    # only check-toric, plane and hirzebruch-example have a hypothesis to fail
    assert refused(capsys, *argv, "--strict", says="'--strict'")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["plane", "--d", "10", "--delta", "2", "--e", "7"], 0),
        (["plane", "--d", "4", "--e", "1"], 0),  # the smallest degree in range
        (["plane", "--d", "9", "--e", "0"], 1),  # e_in_range is 0 < e < e_bound
        (["hirzebruch-example", "--n", "26"], 0),
        (["hirzebruch-example", "--n", "2"], 1),  # surjectivity does not fail
    ],
)
def test_strict_is_kept_where_a_hypothesis_can_fail(capsys, argv, code):
    # check-toric --strict and a failing plane --strict are golden cases
    assert run(capsys, *argv, "--strict")[0] == code


def test_selftest_command(capsys):
    # the suite names themselves are pinned by the golden readme_selftest.out
    code, out, _ = run(capsys, "selftest")
    passed = [f"PASS {name}: {covers}" for name, (_, covers) in selftest.SUITES.items()]
    assert (code, out.splitlines()) == (0, passed)


def test_a_failing_suite_fails_the_selftest_command(monkeypatch, capsys):
    # the suite's case is its row's detail; the other six suites still run and pass
    case = "symmetry fails on P2"
    monkeypatch.setitem(selftest.SUITES, "pairing", (lambda: case, "500 random triples"))
    code, out, err = run(capsys, "selftest")
    lines = out.splitlines()
    assert (code, err, len(lines), lines[3]) == (1, "", 7, f"FAIL pairing: {case}")
    assert all(line.startswith("PASS ") for line in lines[:3] + lines[4:])
    code, out, err = run(capsys, "selftest", "--json")
    rows = json.loads(out)["suites"]
    assert (code, err, rows[3]) == (1, "", {"suite": "pairing", "ok": False, "detail": case})
    assert [row["ok"] for row in rows] == [True] * 3 + [False] + [True] * 3


def test_descriptor_with_string_m_exits_2(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"builtin": "hirzebruch", "m": "3"}))
    code, out, err = run(capsys, "lambda", "--surface", str(path), "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_descriptor_with_float_ray_exits_2(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rays": [[1.7, 0], [0, 1], [-1, -1]]}))
    code, out, err = run(capsys, "lambda", "--surface", str(path), "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_descriptor_field_types_are_strict():
    # the descriptor's own keys are the CLI's to check; the values of the
    # rays and the builtin name are refused by the fan's contracts
    p2_rays = [[1, 0], [0, 1], [-1, -1]]
    for desc, error in [
        ({"rays": [[True, 0], [0, 1], [-1, -1]]}, ContractViolation),
        ({"rays": [[1, 0], [0, 1], [-1, "-1"]]}, ContractViolation),
        ({"rays": p2_rays, "name": 5}, InputError),
        ({"builtin": "hirzebruch", "m": 3.0}, InputError),
        ({"builtin": "hirzebruch", "m": True}, InputError),
        ({"builtin": 2}, ContractViolation),
    ]:
        with pytest.raises(ToricError) as refused:
            surface_from_descriptor(desc)
        assert type(refused.value) is error, desc
    assert surface_from_descriptor({"rays": p2_rays, "name": "P2"}).name == "P2"
    assert surface_from_descriptor({"builtin": "hirzebruch", "m": 3}).name == "F3"


@pytest.mark.parametrize(
    "desc",
    [
        {"rays": [[1, 0], [0, 1], [-1, -1]], "builtin": "F1"},  # answered for P^2
        {"rays": [[1, 0], [0, 1], [-1, -1]], "m": 1},
        {"builtin": "F2", "m": 5},  # answered for F_2
        {"builtin": "P2", "m": 0},
    ],
)
def test_a_descriptor_that_names_two_surfaces_exits_2(tmp_path, capsys, desc):
    with pytest.raises(InputError):
        surface_from_descriptor(desc)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "lambda", "--surface", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "desc, word",
    [
        # misspelt keys were ignored, and the answer was for P^2
        ({"rays": [[1, 0], [0, 1], [-1, -1]], "Builtin": "F1", "M": 3}, "'Builtin', 'M'"),
        ({"builtin": "F1", "mm": 3}, "'mm'"),
        ({"rays": [[1, 0], [0, 1], [-1, -1]], "comment": "P2"}, "'comment'"),
        # a builtin surface has a fixed name, and another one was dropped
        ({"builtin": "F1", "name": "Q"}, '"name"'),
        ({"builtin": "hirzebruch", "m": 1, "name": "F1"}, '"name"'),
    ],
)
def test_a_descriptor_key_that_is_not_read_exits_2(tmp_path, capsys, desc, word):
    with pytest.raises(InputError, match=word):
        surface_from_descriptor(desc)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(desc))
    code, out, err = run(capsys, "lambda", "--surface", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and word in err


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_plane_edge_exits_2_with_and_without_optimisation(flags):
    # every hypothesis holds at 3 delta = d - 3 but deg B < e/2 does not
    src = Path(toricpoints.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["plane", "--d", "9", "--delta", "2", "--e", "6"]
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "toricpoints.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:")


def test_plane_with_large_delta_returns():
    # delta >= d - 1 used to halve the chain's bound forever
    src = Path(toricpoints.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["plane", "--d", "40", "--delta", "39", "--e", "10", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "toricpoints.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["chain"]) <= 5  # floor(log2 10) + 2


def test_python_dash_m_toricpoints_runs_the_cli():
    # an uninstalled checkout runs the package itself, selftest included
    src = Path(toricpoints.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "toricpoints", "lambda", "--surface", "P2", "--json"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (Path(__file__).parent / "golden" / "readme_lambda_p2.out").read_bytes()


def test_importing_the_cli_leaves_the_selftest_suites_unloaded():
    # only the selftest command imports them, so no other command pays for it
    src = Path(toricpoints.__file__).resolve().parent.parent
    code = "import sys, toricpoints.cli; print('toricpoints.selftest' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_cohomology_of_a_large_hirzebruch_class(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--surface", "F3", "--divisor=1000C0+5000F", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert (data["h1"], data["h2"]) == (0, 0)
    assert data["h0"] == data["chi"]


def test_builtin_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch, capsys):
    (tmp_path / "P2").write_text(json.dumps({"builtin": "F1"}))
    monkeypatch.chdir(tmp_path)
    assert parse_surface("P2").rays == p2().rays
    assert parse_surface("./P2").name == "F1"
    code, out, _ = run(capsys, "lambda", "--surface", "P2")
    assert code == 0
    assert "lambda = -1/4" in out


@pytest.mark.parametrize("text", ['["3",0,0]', "[true,0,0]", "[3.0,0,0]", "[[3],0,0]", '{"a": 1}'])
def test_divisor_json_coefficients_must_be_integers(capsys, text):
    # a JSON list's values reach ToricDivisor's contract; '{"a": 1}' is not
    # a JSON list, so it is read as a comma list, which is text the CLI parses
    error = InputError if text.startswith("{") else ContractViolation
    with pytest.raises(ToricError) as refused:
        parse_divisor(p2(), text)
    assert type(refused.value) is error
    code, out, err = run(capsys, "cohomology", "--surface", "P2", f"--divisor={text}", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--surface", "P2", "--divisor=1_0,0,0"],  # comma list
        ["cohomology", "--surface", "P2", "--divisor=٣,0,0"],
        ["cohomology", "--surface", "P2", "--divisor=٣H"],  # dH shorthand
        ["cohomology", "--surface", "F1", "--divisor=1_0C0+F"],  # aC0+bF terms
        ["cohomology", "--surface", "F1", "--divisor=C0+٣F"],
        ["check-toric", "--surface", "P2", "--curve=9H", "--multiplicities", "2_0"],
        ["check-toric", "--surface", "P2", "--curve=9H", "--multiplicities", "2,٣"],
    ],
)
def test_text_integers_are_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["plane", "--d", "1_0", "--e", "3"],
        ["plane", "--d", "9", "--e", "٣"],
        ["hirzebruch-example", "--n", "2_6"],
    ],
)
def test_integer_options_are_ascii_digits_only(capsys, argv):
    assert refused(capsys, *argv, says="not an integer")


def test_text_integers_take_signs_and_spaces(capsys):
    f1 = parse_surface("F1")
    assert parse_divisor(p2(), " 10, -2 ,+0").coeffs == (10, -2, 0)
    assert parse_divisor(f1, "-2C0 + 3F").coeffs == (3, -2, 0, 0)
    code, out, _ = run(
        capsys, "check-toric", "--surface", "P2", "--curve=10H", "--multiplicities", "2, 2", "--json"
    )
    assert code == 0
    assert json.loads(out)["blowup_C2"] == 92


SEQUENCE = [
    (["lambda", "--surface", "F2", "--json"], 0),
    (["cohomology", "--surface", "P2", "--divisor", "5H"], 0),
    (["plane", "--d", "12", "--delta", "1", "--e", "5", "--json"], 0),
    (["cohomology", "--surface", "P2", "--divisor=1_0,0,0"], 2),
    (["plane", "--d", "x", "--e", "5"], 2),
    (["no-such-command"], 2),
    (["check-toric", "--surface", "F1", "--curve", "26C0+27F", "--json"], 0),
    (["hirzebruch-example", "--n", "26"], 0),
    (["intersect", "--surface", "P2", "--divisor", "H"], 2),
    (["lambda", "--surface", "P2"], 0),
]


def test_each_call_reads_only_its_own_command_line(capsys):
    # the same outputs, call by call, in order and in reverse
    first = [run(capsys, *argv) for argv, _ in SEQUENCE]
    assert [code for code, _, _ in first] == [code for _, code in SEQUENCE]
    assert [run(capsys, *argv) for argv, _ in SEQUENCE[::-1]] == first[::-1]


BIG = "9" * 5000  # more digits than int() converts
LONG = "7" * 2200  # converts, but its square does not


@pytest.mark.parametrize("name", ["F²", "F٣", "F" + BIG], ids=["superscript", "arabic", "long"])
def test_hirzebruch_names_take_ascii_digits_only(tmp_path, capsys, name):
    with pytest.raises(InputError):
        builtin_surface(name)
    assert refused(capsys, "lambda", "--surface", name)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"builtin": name}))
    assert refused(capsys, "lambda", "--surface", str(path), "--json")


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--surface", "P2", f"--divisor={BIG},0,0"],
        ["cohomology", "--surface", "P2", f"--divisor={BIG}H"],
        ["cohomology", "--surface", "F1", f"--divisor={BIG}C0+F"],
        ["cohomology", "--surface", "F1", f"--divisor=C0-{BIG}F"],
        ["cohomology", "--surface", "P2", f"--divisor=[{BIG},0,0]"],
        ["intersect", "--surface", "P2", "--divisor=H", f"--curve=0,{BIG},0"],
        ["check-toric", "--surface", "P2", "--curve=9H", f"--multiplicities=2,{BIG}"],
    ],
)
def test_over_long_integers_exit_2(capsys, argv):
    assert refused(capsys, *argv, "--json")


@pytest.mark.parametrize(
    "text",
    [
        '{"builtin": "hirzebruch", "m": %s}' % BIG,
        '{"rays": [[1, 0], [0, 1], [-1, -%s]]}' % BIG,
        "[" * 100000,
    ],
    ids=["long-m", "long-ray", "deep"],
)
def test_descriptors_json_cannot_read_exit_2(tmp_path, capsys, text):
    path = tmp_path / "fan.json"
    path.write_text(text)
    assert refused(capsys, "lambda", "--surface", str(path))


def test_deeply_nested_divisor_json_exits_2(capsys):
    assert refused(capsys, "cohomology", "--surface", "P2", "--divisor=" + "[" * 100000)


@pytest.mark.parametrize(
    "argv", [["plane", "--d", BIG, "--e", "5"], ["hirzebruch-example", "--n", BIG]], ids=["d", "n"]
)
def test_over_long_integer_options_exit_2(capsys, argv):
    assert refused(capsys, *argv, says="integer too long: 5000 characters")


def test_unreadable_surface_files_exit_2(tmp_path, capsys):
    assert refused(capsys, "lambda", "--surface", str(tmp_path))  # a directory
    path = tmp_path / "fan.json"
    path.write_bytes(b'{"builtin": "P2"\xff}')  # not UTF-8
    assert refused(capsys, "lambda", "--surface", str(path), "--json")
    for text in (str(tmp_path), str(path)):
        with pytest.raises(InputError):
            parse_surface(text)


P2_RAYS = b'{"rays": [[1,0],[0,1],[-1,-1]]}'
UNKNOWN = "unknown surface {!r}: expected P2, P1xP1, F<m> or a JSON file path"
MALFORMED = "malformed JSON in {}: "
CRLF_ERROR = MALFORMED + "Expecting ',' delimiter: line 4 column 3 (char 29)"
NOT_REGULAR = "cannot read {}: not a regular file"


def descriptor(tmp_path, data: bytes) -> str:
    path = tmp_path / "fan.json"
    path.write_bytes(data)
    return str(path)


# id: (the --surface argument made from tmp_path, the error line after
# "error: " with the argument put in, or the "surface" the JSON report names)
SURFACE_ARGUMENTS = {
    "missing-file": (lambda t: str(t / "none.json"), UNKNOWN),
    "directory": (str, "cannot read {}: Is a directory"),
    "device": (lambda t: os.devnull, NOT_REGULAR),  # read as empty, were it read
    "path-under-a-file": (lambda t: descriptor(t, P2_RAYS) + "/x", UNKNOWN),
    "nul-in-path": (lambda t: str(t / "a\0b"), UNKNOWN),
    "utf8-bom": (
        lambda t: descriptor(t, b"\xef\xbb\xbf" + P2_RAYS),
        MALFORMED + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
    ),
    "invalid-utf8": (
        lambda t: descriptor(t, b'{"rays": [[1,0],[0,1],[-1,-1]], "name": "\xff"}'),
        MALFORMED + "'utf-8' codec can't decode byte 0xff in position 41: invalid start byte",
    ),
    "utf16": (
        lambda t: descriptor(t, P2_RAYS.decode().encode("utf-16")),
        MALFORMED + "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
    "empty-file": (
        lambda t: descriptor(t, b""), MALFORMED + "Expecting value: line 1 column 1 (char 0)"
    ),
    # CRLF and a lone CR each count as one line break, as a text-mode read has them
    "crlf": (lambda t: descriptor(t, b'{\r\n  "rays": [[1,0],\r\n [0,1]\r\n  x'), CRLF_ERROR),
    "cr": (lambda t: descriptor(t, b'{\r  "rays": [[1,0],\r [0,1]\r  x'), CRLF_ERROR),
    "hirzebruch-without-m": (lambda t: "hirzebruch", UNKNOWN),
    "F-and-5000-digits": (lambda t: "F" + BIG, UNKNOWN),
    "5000-character-name": (lambda t: "x" * 5000, UNKNOWN),
    "p2-rays": (lambda t: descriptor(t, P2_RAYS), "custom"),
    "non-ascii-name": (
        lambda t: descriptor(t, '{"rays": [[1,0],[0,1],[-1,-1]], "name": "café"}'.encode()),
        "café",
    ),
}


@pytest.mark.parametrize("case", SURFACE_ARGUMENTS)
def test_each_surface_argument_gets_its_exact_error_line(tmp_path, capsys, case):
    make, want = SURFACE_ARGUMENTS[case]
    surface = make(tmp_path)
    code, out, err = run(capsys, "lambda", "--surface", surface, "--json")
    if case in ("p2-rays", "non-ascii-name"):
        assert (code, err) == (0, "")
        assert f'"surface": {json.dumps(want)},' in out  # café as "caf\u00e9"
    else:
        assert (code, out, err) == (2, "", "error: " + want.format(surface) + "\n")


def test_a_fifo_surface_is_refused_without_waiting_for_a_writer(tmp_path):
    # in a subprocess, so an open that waits for a writer fails on the timeout
    fifo = tmp_path / "fan.json"
    os.mkfifo(fifo)
    src = Path(toricpoints.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "toricpoints", "lambda", "--surface", str(fifo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: " + NOT_REGULAR.format(fifo) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["hirzebruch-example", "--n", LONG],
        ["plane", "--d", LONG, "--e", "5"],
        ["cohomology", "--surface", "P2", f"--divisor={LONG}H"],
    ],
)
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_a_result_too_long_to_print_exits_2(capsys, argv, flags):
    code, out, err = run(capsys, *argv, *flags)
    assert (code, out) == (2, "")
    assert err == "error: result too long to print: an integer has too many digits\n"


def test_a_long_result_that_prints_still_exits_0(capsys):
    code, out, _ = run(capsys, "hirzebruch-example", "--n", "7" * 2000, "--json")
    assert code == 0
    assert json.loads(out)["n"] == int("7" * 2000)


# A str may hold quotes, backslashes, control characters, non-ASCII and lone
# surrogates, all of which json escapes
TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfffé😀 a') | st.characters(blacklist_categories=())
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400) | TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=40,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(JSON)
def test_json_text_is_json_dumps_with_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [10**5000, [1, {"k": [-(10**5000)]}], {"a": True, "b": int(LONG) ** 2}],
    ids=["int", "nested", "square"],
)
def test_an_int_too_long_for_str_raises_value_error_in_both(value):
    with pytest.raises(ValueError):
        json.dumps(value, indent=2)
    with pytest.raises(ValueError):
        _json_text(value)


def same_text(result):
    """The one walk from a result writes what json.dumps writes of the
    oracle's plain-data copy, and cli.jsonable reads that copy back."""
    assert _json_text(result) == json.dumps(jsonable(result), indent=2)
    assert cli.jsonable(result) == jsonable(result)


# Builtin surfaces, for the commands that read a surface by name
NAMES = st.sampled_from(["P2", "P1xP1", *(f"F{m}" for m in range(8))])


def on_the_edge_family(d, delta, e):
    # (3t, t - 1, 2t): every hypothesis holds, yet the report raises
    return d % 3 == 0 and delta == d // 3 - 1 and e == 2 * (d // 3)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_one_walk_writes_plane_reports_as_json_dumps_of_jsonable(data):
    d = data.draw(st.integers(0, 10**5) | st.integers(0, 60))
    delta = data.draw(st.integers(0, d * d // 36))
    # e <= 0, below the gonality floor (m = None), in range and past it
    e = data.draw(st.integers(-3, d + 3) | st.integers(-3, d * d // 4 + 3))
    if on_the_edge_family(d, delta, e):
        with pytest.raises(InternalInconsistency):
            plane_theorem_report(d, delta, e)
        return
    same_text(plane_theorem_report(d, delta, e))


def test_plane_reports_cover_the_cases_the_walk_must_write():
    reports = [plane_theorem_report(*args) for args in [(8, 0, 7), (9, 0, 5), (8, 0, -4), (3, 0, 1)]]
    assert reports[0].conclusion_guaranteed and reports[0].m == 1
    assert reports[1].m is None and reports[2].e <= 0
    assert reports[3].hypotheses["degree_at_least_4"] == "fail"
    for r in reports:
        same_text(r)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(blowup_fans(), st.data())
def test_one_walk_writes_reports_and_profiles_as_json_dumps_of_jsonable(fan, data):
    coeffs = tuple(data.draw(st.lists(st.integers(-10, 20), min_size=fan.n, max_size=fan.n)))
    mults = tuple(data.draw(st.lists(st.integers(2, 3), max_size=2)))
    C = ToricDivisor(fan, coeffs)
    # ample or not, with multiplicities or without
    same_text(toric_theorem_report(CurveOnSurface(fan, C, mults)))
    same_text(cohomology(C))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(NAMES, st.integers(1, 500), st.data())
def test_one_walk_writes_every_other_command_as_json_dumps_of_jsonable(name, n, data):
    n_rays = builtin_surface(name).n
    vector = st.lists(st.integers(-50, 50), min_size=n_rays, max_size=n_rays).map(
        lambda v: ",".join(map(str, v))
    )
    args = {"surface": name, "divisor": data.draw(vector), "curve": data.draw(vector)}
    same_text(cli.COMMANDS["lambda"].run(args))
    same_text(cli.COMMANDS["intersect"].run(args))
    same_text(hirzebruch_counterexample(n))


def test_one_walk_writes_the_selftest_result_as_json_dumps_of_jsonable():
    same_text(cli.COMMANDS["selftest"].run({}))


@pytest.mark.parametrize(
    "value",
    [{"k": [True, False, -(10**30)]}, (), {}],
    ids=repr,
)
def test_one_walk_writes_empty_containers_as_jsonable_does(value):
    same_text(value)


@pytest.mark.parametrize(
    "value",
    # no result holds an Enum, so neither writer converts one
    [object(), [1, {2, 3}], Positivity.AMPLE, {"p": [Positivity.NOT_NEF, None]}],
    ids=["object", "set-in-a-list", "enum", "enum-in-a-dict"],
)
def test_one_walk_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(jsonable(value), indent=2)
    with pytest.raises(TypeError):
        _json_text(value)


class Name(str):
    pass


@pytest.mark.parametrize(
    "value", [enum.IntEnum("Level", "LOW HIGH").HIGH, Name('x"y')], ids=repr
)
def test_one_walk_refuses_subclasses_of_its_scalars(value):
    # it looks scalars up by exact type, and no result holds a subclass of one
    with pytest.raises(TypeError):
        _json_text(value)
    with pytest.raises(TypeError):
        _json_text({"k": [value]})


def test_every_dataclass_lists_only_fields():
    # the walk reads __dataclass_fields__, which would also list a ClassVar
    classes = [
        cls
        for module in vars(toricpoints).values()
        if inspect.ismodule(module) and module.__name__.startswith("toricpoints.")
        for cls in vars(module).values()
        if inspect.isclass(cls) and dataclasses.is_dataclass(cls)
    ]
    assert len(classes) >= 9
    for cls in classes:
        assert list(cls.__dataclass_fields__) == [f.name for f in dataclasses.fields(cls)]


def test_a_plane_result_past_the_digit_limit_raises_value_error_in_both():
    r = plane_theorem_report(int(LONG), 0, 5)
    with pytest.raises(ValueError):
        json.dumps(jsonable(r), indent=2)
    with pytest.raises(ValueError):
        _json_text(r)


VALID = {
    "lambda": ["--surface", "P2"],
    "cohomology": ["--surface", "P2", "--divisor", "2H"],
    "intersect": ["--surface", "P2", "--divisor", "H", "--curve", "H"],
    "check-toric": ["--surface", "P2", "--curve", "9H", "--multiplicities", "2"],
    "plane": ["--d", "8", "--delta", "0", "--e", "7"],
    "hirzebruch-example": ["--n", "26"],
    "selftest": [],
}
# The values each command is given for its VALID line
READ = {
    "lambda": {"surface": "P2", "json": False},
    "cohomology": {"surface": "P2", "divisor": "2H", "json": False},
    "intersect": {"surface": "P2", "divisor": "H", "curve": "H", "json": False},
    "check-toric": {
        "surface": "P2", "curve": "9H", "multiplicities": "2", "json": False, "strict": False
    },
    "plane": {"d": 8, "delta": 0, "e": 7, "json": False, "strict": False},
    "hirzebruch-example": {"n": 26, "json": False, "strict": False},
    "selftest": {"json": False},
}
OPTIONS = {
    "lambda": "--surface, --json",
    "cohomology": "--surface, --divisor, --json",
    "intersect": "--surface, --divisor, --curve, --json",
    "check-toric": "--surface, --curve, --multiplicities, --json, --strict",
    "plane": "--d, --delta, --e, --json, --strict",
    "hirzebruch-example": "--n, --json, --strict",
    "selftest": "--json",
}
NAMED = "expected one of " + ", ".join(VALID)
HELP = "usage"  # what main makes of a line that asks for help


def not_taken(name, flag):
    return f"error: {name} does not take {flag!r}: its options are {OPTIONS[name]}"


def tails(name):
    """What main makes of the VALID line of `name` followed by each tail: the
    values its command is given, HELP for its usage, or the one error line."""
    read, strict = READ[name], "strict" in READ[name]
    return [
        ([], read),
        (["--json"], {**read, "json": True}),
        (["--strict"], {**read, "strict": True} if strict else not_taken(name, "--strict")),
        (["--bogus"], not_taken(name, "--bogus")),
        (["stray"], not_taken(name, "stray")),
        (["--d", "x"], "error: --d is given twice" if "d" in read else not_taken(name, "--d")),
        (
            ["--surface=--"],
            "error: --surface is given twice" if "surface" in read else not_taken(name, "--surface"),
        ),
        (["-h"], HELP),
        (["--"], not_taken(name, "--")),
    ]


COMMAND_LINES = (
    [([name, *VALID[name], *tail], then) for name in VALID for tail, then in tails(name)]
    + [  # a required option missing, but for selftest
        (["lambda"], "error: lambda needs --surface"),
        (["cohomology"], "error: cohomology needs --surface, --divisor"),
        (["intersect"], "error: intersect needs --surface, --divisor, --curve"),
        (["check-toric"], "error: check-toric needs --surface, --curve"),
        (["plane"], "error: plane needs --d, --e"),
        (["hirzebruch-example"], "error: hirzebruch-example needs --n"),
        (["selftest"], READ["selftest"]),
    ]
    + [
        ([], f"error: no command given: {NAMED}"),
        (["--help"], HELP),
        (["no-such-command"], f"error: unknown command 'no-such-command': {NAMED}"),
        (["--json", "lambda", "--surface", "P2"], f"error: unknown command '--json': {NAMED}"),
        (["-h", "lambda"], HELP),
        (["lambda", "--", "--surface", "P2"], not_taken("lambda", "--")),
        (
            ["cohomology", "--surface", "P2", "--div", "2H", "x", "--bogus=1"],
            not_taken("cohomology", "--div"),
        ),
        (["plane", "--d", "8", "--e=7", "--d", "9"], "error: --d is given twice"),
        (["lambda", "--json", "--json", "--surface", "P2"], "error: --json is given twice"),
        # a value given as the next token does not start with --, and "=" takes any
        (["lambda", "--surface"], "error: --surface needs a value"),
        (["lambda", "--surface", "--json"], "error: --surface needs a value"),
        (["plane", "--d", "--8", "--e", "7"], "error: --d needs a value"),
        (["plane", "--d", "-8", "--e", "7"], {**READ["plane"], "d": -8}),
        (["lambda", "--surface=--json"], {**READ["lambda"], "surface": "--json"}),
        (["lambda", "--surface=a=b", "--json"], {"surface": "a=b", "json": True}),
        (["lambda", "--surface="], {**READ["lambda"], "surface": ""}),
        (["plane", "--d=", "--e", "7"], "error: not an integer: ''"),
        (["lambda", "--surface", "-h"], HELP),
    ]
)


@pytest.mark.parametrize(
    "argv, then", COMMAND_LINES, ids=[" ".join(argv) for argv, _ in COMMAND_LINES]
)
def test_main_reads_each_command_line_by_the_grammar(monkeypatch, capsys, argv, then):
    # each command's run hands back the values it is given, in key order
    for name, row in cli.COMMANDS.items():
        echo = row._replace(run=lambda args: dict(sorted(args.items())), human=lambda r: [repr(r)])
        monkeypatch.setitem(cli.COMMANDS, name, echo._replace(failed=None))
    got = run(capsys, *argv)
    if then == HELP:
        name = argv[0] if argv[0] in cli.COMMANDS else None
        assert got == (0, cli.usage(name) + "\n", "")
    elif isinstance(then, dict):
        values = dict(sorted(then.items()))
        out = json.dumps(values, indent=2) if then["json"] else repr(values)
        assert got == (0, out + "\n", "")
    else:
        assert got == (2, "", then + "\n")


TWO_WAYS = [
    # argparse answered for the last copy: F1, and 3H
    (["lambda", "--surface", "P2", "--surface", "F1"], "--surface is given twice"),
    (
        ["cohomology", "--surface", "P2", "--divisor", "2H", "--divisor", "3H"],
        "--divisor is given twice",
    ),
    # and took an abbreviation for the option it starts
    (["lambda", "--surf", "P2"], "does not take '--surf'"),
    (["cohomology", "--surface", "P2", "--div", "2H"], "does not take '--div'"),
    # argparse refused this one by raising SystemExit, with its usage on stderr
    (["lambda", "--surface", "P2", "--json=1"], "--json takes no value"),
]


@pytest.mark.parametrize("argv, says", TWO_WAYS, ids=[" ".join(argv) for argv, _ in TWO_WAYS])
def test_a_command_line_that_could_be_read_two_ways_exits_2(capsys, argv, says):
    assert refused(capsys, *argv, says=says)


def test_help_lists_the_commands_or_one_commands_options(capsys):
    assert run(capsys, "-h") == run(capsys, "--help") == (
        0,
        "usage: toricpoints COMMAND [OPTIONS]\n"
        "\n"
        "Exact divisor arithmetic and low-degree point bounds on toric surfaces\n"
        "\n"
        "commands:\n"
        "  lambda              surface invariant lambda(S)\n"
        "  cohomology          h0/h1/h2/chi of a toric divisor\n"
        "  intersect           intersection number of two divisors\n"
        "  check-toric         full interpolation report for a curve class\n"
        "  plane               plane-curve degree bounds and decomposition\n"
        "  hirzebruch-example  the F_1 surjectivity failure family\n"
        "  selftest            run the cross-oracle suites\n"
        "\n"
        "toricpoints COMMAND -h lists the options of COMMAND.\n",
        "",
    )
    assert run(capsys, "plane", "--help") == (
        0,
        "usage: toricpoints plane --d D [--delta DELTA] --e E [--json] [--strict]\n"
        "\n"
        "plane-curve degree bounds and decomposition\n"
        "\n"
        "options:\n"
        "  --json    emit a JSON report\n"
        "  --strict  exit 1 on hypothesis failure\n",
        "",
    )
    assert run(capsys, "lambda", "-h")[1].startswith(
        "usage: toricpoints lambda --surface SURFACE [--json]\n"
    )
    assert run(capsys, "check-toric", "-h")[1].startswith(
        "usage: toricpoints check-toric --surface SURFACE --curve CURVE"
        " [--multiplicities MULTIPLICITIES] [--json] [--strict]\n"
    )


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_exits_2_with_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["check-toric", "--surface", "P2", "--curve", "9H", "--json"])
    err = capsys.readouterr().err
    assert (code, err) == (2, "error: cannot print the result: stdout is closed\n")


def test_a_closed_pipe_exits_2_without_a_traceback():
    # 300H prints about 370 KB, far more than a pipe holds, so the write fails
    src = Path(toricpoints.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["check-toric", "--surface", "P2", "--curve", "300H", "--json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "toricpoints", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "lambd'
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err == b"error: cannot print the result: stdout is closed\n"


@pytest.mark.parametrize("name", VALID)
def test_main_writes_json_without_a_plain_data_copy(capsys, name):
    argv = [name, *VALID[name], "--json"]
    assert count_calls(lambda: main(argv), cli.jsonable) == {"jsonable": 0}
    assert json.loads(capsys.readouterr().out)
