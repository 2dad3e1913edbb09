"""Golden corpus: exact stdout and exit code of `cli.main` per case.

The cases live in tests/golden/cases.json; each case's stdout is stored in
tests/golden/<name>.out and its exit code in cases.json.  A case runs with
`--json` unless it says `"json": false`, which pins the human output.  A refactor that
claims "same behaviour" must leave every case byte-identical.  After an
intended output change, regenerate with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from toricpoints.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = GOLDEN / "cases.json"


def load_cases():
    return json.loads(CASES.read_text())


def run_case(case):
    argv = [a.replace("{golden}", str(GOLDEN)) for a in case["argv"]]
    if case.get("json", True):
        argv.append("--json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_golden_corpus_is_byte_identical():
    mismatched = []
    for case in load_cases():
        code, out = run_case(case)
        expected = (GOLDEN / f"{case['name']}.out").read_bytes()
        if (code, out.encode()) != (case["exit_code"], expected):
            mismatched.append(case["name"])
    assert mismatched == []


def write_corpus():
    cases = load_cases()
    for case in cases:
        code, out = run_case(case)
        case["exit_code"] = code
        (GOLDEN / f"{case['name']}.out").write_bytes(out.encode())
    CASES.write_text(
        "[\n" + ",\n".join("  " + json.dumps(c) for c in cases) + "\n]\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_corpus()
