import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricpoints
from toricpoints.cli import (
    main,
    make_parser,
    parse_divisor,
    parse_surface,
    surface_from_descriptor,
)
from toricpoints.errors import InputError
from toricpoints.fan import builtin_surface, p2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--strict"])
    assert exc.value.code == 2
    assert "--strict" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["plane", "--d", "10", "--delta", "2", "--e", "7"], 0),
        (["hirzebruch-example", "--n", "26"], 0),
        (["hirzebruch-example", "--n", "2"], 1),  # surjectivity does not fail
    ],
)
def test_strict_is_kept_where_a_hypothesis_can_fail(capsys, argv, code):
    # check-toric --strict and a failing plane --strict are golden cases
    assert run(capsys, *argv, "--strict")[0] == code


def test_selftest_command(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    for name in [
        "hrr-vs-count",
        "peeled-h0",
        "serre-duality",
        "pairing",
        "lambda-hirzebruch",
        "remark-inequality",
        "positive-representation",
    ]:
        assert f"PASS {name}" in out


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
    p2_rays = [[1, 0], [0, 1], [-1, -1]]
    for desc in [
        {"rays": [[True, 0], [0, 1], [-1, -1]]},
        {"rays": [[1, 0], [0, 1], [-1, "-1"]]},
        {"rays": p2_rays, "name": 5},
        {"builtin": "hirzebruch", "m": 3.0},
        {"builtin": "hirzebruch", "m": True},
        {"builtin": 2},
    ]:
        with pytest.raises(InputError):
            surface_from_descriptor(desc)
    assert surface_from_descriptor({"rays": p2_rays, "name": "P2"}).name == "P2"
    assert surface_from_descriptor({"builtin": "hirzebruch", "m": 3}).name == "F3"


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
    with pytest.raises(InputError):
        parse_divisor(p2(), text)
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
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not an integer" in capsys.readouterr().err


def test_text_integers_take_signs_and_spaces(capsys):
    f1 = parse_surface("F1")
    assert parse_divisor(p2(), " 10, -2 ,+0").coeffs == (10, -2, 0)
    assert parse_divisor(f1, "-2C0 + 3F").coeffs == (3, -2, 0, 0)
    code, out, _ = run(
        capsys, "check-toric", "--surface", "P2", "--curve=10H", "--multiplicities", "2, 2", "--json"
    )
    assert code == 0
    assert json.loads(out)["blowup_C2"] == 92


def _call(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
    return code, capsys.readouterr().out


def test_parser_is_built_once_and_reused(capsys):
    calls = [
        ["lambda", "--surface", "F2", "--json"],
        ["cohomology", "--surface", "P2", "--divisor", "5H"],
        ["plane", "--d", "12", "--delta", "1", "--e", "5", "--json"],
        ["cohomology", "--surface", "P2", "--divisor=1_0,0,0"],
        ["plane", "--d", "x", "--e", "5"],
        ["no-such-command"],
        ["check-toric", "--surface", "F1", "--curve", "26C0+27F", "--json"],
        ["hirzebruch-example", "--n", "26"],
        ["intersect", "--surface", "P2", "--divisor", "H"],
        ["lambda", "--surface", "P2"],
    ]
    fresh = []
    for argv in calls:
        make_parser.cache_clear()
        fresh.append(_call(capsys, argv))
    parser = make_parser()
    for argv, expected in zip(calls + calls[::-1], fresh + fresh[::-1]):
        assert _call(capsys, argv) == expected
    assert make_parser() is parser
    assert [code for code, _ in fresh] == [0, 0, 0, 2, 2, 2, 0, 0, 2, 0]


BIG = "9" * 5000  # more digits than int() converts
LONG = "7" * 2200  # converts, but its square does not


def refused(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return (code, out, err.startswith("error:"), err.count("\n")) == (2, "", True, 1)


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
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "integer too long: 5000 characters" in err


def test_unreadable_surface_files_exit_2(tmp_path, capsys):
    assert refused(capsys, "lambda", "--surface", str(tmp_path))  # a directory
    path = tmp_path / "fan.json"
    path.write_bytes(b'{"builtin": "P2"\xff}')  # not UTF-8
    assert refused(capsys, "lambda", "--surface", str(path), "--json")
    for text in (str(tmp_path), str(path)):
        with pytest.raises(InputError):
            parse_surface(text)


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
