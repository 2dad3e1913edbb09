"""The mutation table in tests/mutants.py stays in step with the source: each
snippet occurs exactly once in src/, in the file its entry names, each entry
names a real change and test files that exist, and the mutated file still
parses, so no mutant is killed by a SyntaxError alone."""

import ast
from collections import Counter

import pytest

from mutants import MUTANTS, ROOT, SRC

SOURCES = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_mutant_names_are_distinct():
    assert [name for name, n in Counter(m.name for m in MUTANTS).items() if n > 1] == []


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_snippet_occurs_exactly_once_in_src(mutant):
    assert sum(text.count(mutant.snippet) for text in SOURCES.values()) == 1
    assert mutant.snippet in SOURCES[mutant.file]
    assert mutant.replacement != mutant.snippet
    assert mutant.tests and all((ROOT / "tests" / name).is_file() for name in mutant.tests)
    ast.parse(SOURCES[mutant.file].replace(mutant.snippet, mutant.replacement))
