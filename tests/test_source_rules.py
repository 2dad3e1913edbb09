"""Rules every library module keeps: exact arithmetic only (no float
literal, no float() call), no `assert` (python -O strips it), no
dependency outside the standard library, no process-wide cache
(functools.cache or lru_cache) on a function that takes parameters, since
such a cache keeps every argument it has seen alive, and no function that
takes a ToricSurfaceFan beside a ToricDivisor, since the divisor carries
its fan and a second one could disagree with it.  The divisor and
cohomology modules import nothing from fractions: a divisor's coefficients
are ints, and so is every number computed from them there.  Only errors.py
compares type(...) with int or calls isinstance(..., bool): its helpers are
the one home of the rule that an argument must be an int, and a bool is not
one.  No module calls json.dumps: cli._json_text is the one JSON writer,
and no other function walks a dataclass's fields (dataclasses.fields, asdict
or astuple, or __dataclass_fields__), so a second writer cannot come back.
Only errors._record names dataclasses.dataclass, and only errors.py imports
it: every record is made by that one decorator, whose `__init__` stores the
fields straight into the instance's `__dict__`.  No module imports argparse,
and cli.py holds no `raise SystemExit`: the
COMMANDS table is the one parser of the command line, and `main` returns
every exit code.  Outside fan.py and geometry.py, only divisor.py reads a
fan's `_arc_start` or calls `geometry._clip` or `geometry._lexmin`: it is the
one place where a class's coefficients become a polygon, read off one cone
vertex when the class is nef, so no caller can skip that shortcut.  Every
module-level private function is named by some code in src/ outside its own
definition: a routine that only tests call is a test oracle, and lives in
tests/.

No file under tests/ imports a test module: shared oracles live in
tests/oracles.py, or in toricpoints.selftest when the selftest command runs
them too, and shared strategies in tests/conftest.py.  No function under
tests/ has the body of a function of toricpoints.selftest, up to its
docstring and the names it binds: a sampler or check that the self-test
keeps has its one home there, and tests import it."""

import ast
import sys
from pathlib import Path

import pytest

CACHES = {"cache", "lru_cache"}
INTEGRAL = {"divisor.py", "cohomology.py"}
CONTRACTS = "errors.py"
CLI = "cli.py"
JSON_WRITER = "_json_text"  # the one function of cli.py that walks a dataclass's fields
FIELD_WALKS = {"fields", "asdict", "astuple"}  # dataclasses' walks over the fields
RECORD_MAKER = "_record"  # the one function of errors.py that names dataclasses.dataclass
# where _arc_start, geometry._clip and geometry._lexmin may appear
POLYGON = {"fan.py", "geometry.py", "divisor.py"}
CLIPPED = {"_clip", "_lexmin"}  # geometry's routines that take a clip

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "toricpoints").glob("*.py"))
SELFTEST = next(path for path in SOURCES if path.name == "selftest.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _cache_decorator(node):
    # cache, lru_cache, functools.cache or functools.lru_cache, called or not
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "functools" and node.attr in CACHES
    return isinstance(node, ast.Name) and node.id in CACHES


def _annotation(node):
    # the type a parameter is annotated with: Name, module.Name or "Name"
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1]
    return None


def _type_vs_int(node):
    # type(x) compared with int, either side, by any operator
    sides = [node.left, *node.comparators]
    return any(
        isinstance(s, ast.Call) and isinstance(s.func, ast.Name) and s.func.id == "type"
        for s in sides
    ) and any(isinstance(s, ast.Name) and s.id == "int" for s in sides)


def _isinstance_bool(node):
    # isinstance(x, bool), or bool among a tuple of types
    if not (isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(isinstance(t, ast.Name) and t.id == "bool" for t in types)


def _system_exit(node):
    # raise SystemExit, bare or called
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "SystemExit"


def _json_dumps(node):
    # json.dumps, called or only named
    return isinstance(node.value, ast.Name) and node.value.id == "json" and node.attr == "dumps"


def _field_walk(node):
    # a dataclass's fields, walked by dataclasses, read, named or imported
    if isinstance(node, ast.Attribute):
        return node.attr == "__dataclass_fields__" or (
            node.attr in FIELD_WALKS and isinstance(node.value, ast.Name) and node.value.id == "dataclasses"
        )
    if isinstance(node, ast.ImportFrom):
        return node.module == "dataclasses" and any(a.name in FIELD_WALKS for a in node.names)
    return isinstance(node, ast.Constant) and node.value == "__dataclass_fields__"


def _dataclass(node):
    # dataclasses.dataclass, called, named (a decorator too) or imported
    if isinstance(node, ast.Attribute):
        return node.attr == "dataclass" and isinstance(node.value, ast.Name) and node.value.id == "dataclasses"
    if isinstance(node, ast.ImportFrom):
        return node.module == "dataclasses" and any(a.name == "dataclass" for a in node.names)
    return isinstance(node, ast.Name) and node.id == "dataclass"


def _polygon_internal(node):
    # a fan's kept arc start, read, or geometry._clip or _lexmin, called or only named
    return node.attr == "_arc_start" or (
        node.attr in CLIPPED and isinstance(node.value, ast.Name) and node.value.id == "geometry"
    )


def breaches(tree, module=""):
    writer = {  # the nodes of cli._json_text, which may walk a dataclass's fields
        id(sub)
        for stmt in tree.body
        if module == CLI and isinstance(stmt, ast.FunctionDef) and stmt.name == JSON_WRITER
        for sub in ast.walk(stmt)
    }
    maker = {  # the nodes of errors._record, which may name dataclasses.dataclass
        id(sub)
        for stmt in tree.body
        if module == CONTRACTS and isinstance(stmt, ast.FunctionDef) and stmt.name == RECORD_MAKER
        for sub in ast.walk(stmt)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if any(map(_cache_decorator, node.decorator_list)) and (
                a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg
            ):
                yield node.lineno, f"cache on {node.name}(), which takes parameters"
            types = {_annotation(p.annotation) for p in a.posonlyargs + a.args + a.kwonlyargs}
            if {"ToricSurfaceFan", "ToricDivisor"} <= types:
                yield node.lineno, f"{node.name}() takes a fan beside a divisor"
        elif isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float() call"
        elif isinstance(node, ast.Compare) and module != CONTRACTS and _type_vs_int(node):
            yield node.lineno, f"type(...) compared with int outside {CONTRACTS}"
        elif isinstance(node, ast.Call) and module != CONTRACTS and _isinstance_bool(node):
            yield node.lineno, f"isinstance(..., bool) outside {CONTRACTS}"
        elif isinstance(node, ast.Raise) and module == CLI and _system_exit(node):
            yield node.lineno, f"raise SystemExit in {CLI}, whose main returns its exit code"
        elif isinstance(node, ast.Attribute) and _json_dumps(node):
            yield node.lineno, "json.dumps, where cli._json_text writes JSON"
        elif isinstance(node, ast.Attribute) and module not in POLYGON and _polygon_internal(node):
            yield node.lineno, f"{node.attr} outside divisor.py, which makes each class's polygon"
        elif _field_walk(node) and id(node) not in writer:
            yield node.lineno, f"a walk over a dataclass's fields outside {CLI}'s {JSON_WRITER}"
        elif _dataclass(node) and id(node) not in maker and not (
            module == CONTRACTS and isinstance(node, ast.ImportFrom)
        ):
            yield node.lineno, f"dataclass outside {CONTRACTS}'s {RECORD_MAKER}, which makes every record"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                if node.module == "geometry" and module not in POLYGON:
                    for name in sorted(CLIPPED & {a.name for a in node.names}):
                        yield node.lineno, f"{name} outside divisor.py, which makes each class's polygon"
                continue
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            imported = {a.name for a in node.names}
            if isinstance(node, ast.ImportFrom) and node.module == "json" and "dumps" in imported:
                yield node.lineno, "json.dumps, where cli._json_text writes JSON"
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    yield node.lineno, f"import of {name}, outside the standard library"
                if name.split(".")[0] == "argparse":
                    yield node.lineno, "import of argparse, where the COMMANDS table is the parser"
                if name == "fractions" and module in INTEGRAL:
                    yield node.lineno, f"import of fractions in {module}, whose numbers are ints"


def _names(node):
    # every name that code under node reads: bare, as an attribute, or imported
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (a.name for a in sub.names)


def uncalled(trees):
    """(module, line, what) for each module-level private function of the
    modules {name: tree} that no code outside its own definition names."""
    used = set()
    for tree in trees.values():
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            used.update(name for name in _names(stmt) if name != own)
    for module, tree in trees.items():
        for stmt in tree.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name.startswith("_")
                and not stmt.name.startswith("__")
                and stmt.name not in used
            ):
                yield module, stmt.lineno, f"{stmt.name}() has no caller in src, so it is a test oracle"


def imports_of_test_modules(tree):
    """(line, what) for each import of a test module, or of any name test_*,
    by `import`, `from ... import` (relative or not), importlib.import_module
    or __import__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)
        ) in {"import_module", "__import__"}:
            names = [a.value for a in node.args[:1] if isinstance(a, ast.Constant)]
        else:
            continue
        for name in names:
            if any(part.startswith("test_") for part in str(name).split(".")):
                yield node.lineno, f"import of {name}, a test module"
                break


def body_key(fn):
    """A function's body without its docstring, as an AST dump in which the
    names it binds (parameters, assigned and loop names) are numbered in order
    of first appearance, so a copy that renames them has the same key; None
    for an empty body.  The tree is left as it was."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if not body:
        return None
    a = fn.args
    bound = [p.arg for p in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg] if p]
    names = [node for stmt in body for node in ast.walk(stmt) if isinstance(node, ast.Name)]
    bound += [node.id for node in names if isinstance(node.ctx, ast.Store)]
    number = {name: f"_{k}" for k, name in enumerate(dict.fromkeys(bound))}
    given = [node.id for node in names]
    for node in names:
        node.id = number.get(node.id, node.id)
    key = ast.dump(ast.Module(body=body, type_ignores=[]))
    for node, name in zip(names, given):
        node.id = name
    return key


def copies(tree, home):
    """(line, what) for each function under `tree` whose `body_key` is that
    of a function under `home`, the tree of toricpoints.selftest."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    keys = {body_key(f): f.name for f in ast.walk(home) if isinstance(f, functions)}
    keys.pop(None, None)
    for node in ast.walk(tree):
        key = body_key(node) if isinstance(node, functions) else None
        if key in keys:
            yield node.lineno, f"{node.name}() copies selftest.{keys[key]}(), its one home"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"geometry.py", "cohomology.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_rules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in breaches(tree, path.name)] == []


def test_no_test_file_imports_a_test_module():
    assert {p.name for p in TESTS} >= {"conftest.py", "oracles.py", "test_lowdeg.py"}
    found = []
    for path in TESTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {what}" for line, what in imports_of_test_modules(tree)]
    assert found == []


def test_the_test_import_rule_catches_each_form():
    for check in (
        "import os, test_lowdeg",
        "import tests.test_lowdeg as lowdeg",
        "from test_lowdeg import subdivide as split, subset_scan",
        "from .test_lowdeg import subdivide",
        "from . import test_lowdeg",
        "from oracles import test_the_rule",
        "importlib.import_module('tests.test_lowdeg')",
        "def f():\n    return __import__('test_lowdeg')",
    ):
        assert len(list(imports_of_test_modules(ast.parse(check)))) == 1, check
    for check in (
        "import pytest, mutants\nfrom conftest import blowup_fans, count_calls",
        "from oracles import subdivide as test_free\nimport_module(name)",
        "from toricpoints.selftest import _peeled_h0\nname = 'test_lowdeg'",
    ):
        assert list(imports_of_test_modules(ast.parse(check))) == [], check


def test_no_test_function_copies_a_selftest_function():
    home = ast.parse(SELFTEST.read_text(), filename=str(SELFTEST))
    found = []
    for path in TESTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {what}" for line, what in copies(tree, home)]
    assert found == []


def test_every_private_function_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert [f"{module}:{line}: {what}" for module, line, what in uncalled(trees)] == []


def test_rules_catch_each_breach():
    source = (
        "import numpy\nfrom os import path\nfrom fractions import Fraction\nimport argparse\n"
        "from json import dumps, loads\n"
        "assert x\ny = 0.5\nz = float(1)\n"
        "@lru_cache(maxsize=None)\ndef f(fan): pass\n"
        "def g(fan: ToricSurfaceFan, C: ToricDivisor): pass\n"
        "if type(c) is not int: pass\n"
        "b = isinstance(c, bool)\n"
        "json.dumps(x)\n"
    )
    assert [what for _, what in breaches(ast.parse(source), "divisor.py")] == [
        "import of numpy, outside the standard library",
        "import of fractions in divisor.py, whose numbers are ints",
        "import of argparse, where the COMMANDS table is the parser",
        "json.dumps, where cli._json_text writes JSON",
        "assert statement",
        "cache on f(), which takes parameters",
        "g() takes a fan beside a divisor",
        "float literal 0.5",
        "float() call",
        "type(...) compared with int outside errors.py",
        "isinstance(..., bool) outside errors.py",
        "json.dumps, where cli._json_text writes JSON",
    ]
    # fractions is refused in the integral modules only
    assert len(list(breaches(ast.parse("import fractions\n"), "cohomology.py"))) == 1
    assert list(breaches(ast.parse("import fractions\n"), "lowdeg.py")) == []
    # the int contract lives in errors.py, whichever way round it is written
    for check in (
        "type(c) is not int",
        "int == type(c)",
        "isinstance(c, bool)",
        "not isinstance(c, (int, bool))",
    ):
        assert len(list(breaches(ast.parse(check), "plane.py"))) == 1
        assert list(breaches(ast.parse(check), "errors.py")) == []
    # json.dumps is refused everywhere, errors.py included; json.loads is not
    for check in ("text = json.dumps(x, indent=2)", "write = json.dumps", "from json import dumps"):
        assert len(list(breaches(ast.parse(check), "errors.py"))) == 1
    assert list(breaches(ast.parse("import json\njson.loads(s)\nisinstance(c, int)"), "cli.py")) == []
    # only cli._json_text walks a dataclass's fields, so no second JSON writer
    # can come back: not a copy in plain data, nor a walk in another module
    for check in (
        "names = [f.name for f in dataclasses.fields(r)]",
        "data = dataclasses.asdict(r)",
        "row = dataclasses.astuple(r)",
        "names = list(r.__dataclass_fields__)",
        "names = getattr(type(r), '__dataclass_fields__')",
        "from dataclasses import fields",
        "from dataclasses import dataclass, asdict as plain",
        "def jsonable(obj):\n    return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}",
        "def _text(obj):\n    def _json_text(v):\n        return v.__dataclass_fields__",
    ):
        for module in ("cli.py", "lowdeg.py"):
            assert len(list(breaches(ast.parse(check), module))) == 1, (check, module)
    walk = "def _json_text(obj):\n    if hasattr(type(obj), '__dataclass_fields__'):\n        return list(obj.__dataclass_fields__)"
    assert list(breaches(ast.parse(walk), "cli.py")) == []
    assert len(list(breaches(ast.parse(walk), "selftest.py"))) == 2
    for check in ("from dataclasses import field", "dataclasses.is_dataclass(r)", "r.fields"):
        assert list(breaches(ast.parse(check), "lowdeg.py")) == [], check
    # only errors._record makes a record, so every record's __init__ is its one;
    # errors.py imports dataclass for it, and no other module does
    for check in (
        "@dataclass(frozen=True)\nclass R:\n    x: int",
        "@dataclass\nclass R:\n    x: int",
        "@dataclasses.dataclass(frozen=True)\nclass R:\n    x: int",
        "R = dataclasses.dataclass(R)",
        "from dataclasses import dataclass, field",
        "from dataclasses import field, dataclass as record",
        "def _record(cls):\n    return dataclass(frozen=True, init=False)(cls)",
    ):
        assert [what for _, what in breaches(ast.parse(check), "lowdeg.py")] == [
            "dataclass outside errors.py's _record, which makes every record"
        ], check
    maker = "from dataclasses import dataclass\ndef _record(cls):\n    return dataclass(frozen=True, init=False)(cls)"
    assert list(breaches(ast.parse(maker), "errors.py")) == []
    assert len(list(breaches(ast.parse(maker), "lowdeg.py"))) == 2
    assert len(list(breaches(ast.parse("def record(cls):\n    return dataclass(cls)"), "errors.py"))) == 1
    # argparse is refused everywhere, however imported
    for check in ("from argparse import ArgumentParser", "import argparse as ap"):
        assert len(list(breaches(ast.parse(check), "selftest.py"))) == 1
    # cli.py raises no SystemExit, bare or called; __main__.py may
    for check in ("raise SystemExit", "raise SystemExit(2)", "def f():\n    raise SystemExit(main())"):
        assert len(list(breaches(ast.parse(check), "cli.py"))) == 1
        assert list(breaches(ast.parse(check), "__main__.py")) == []
    assert list(breaches(ast.parse("sys.exit(main())\nraise InputError('x')"), "cli.py")) == []
    # a class's polygon is made in divisor.py, from the start the fan keeps,
    # and its lex-min point is found there, so a nef class's is a cone vertex
    for check in (
        "start = D.fan._arc_start",
        "geometry._clip(hs, 0)",
        "clip = geometry._clip",
        "from .geometry import _clip",
        "from .geometry import _count, _clip as clip",
        "m = geometry._lexmin(*_polygon(fan, a))",
        "from .geometry import _lexmin",
        "from .geometry import _count, _lexmin as lexmin",
    ):
        for module in ("cohomology.py", "lowdeg.py", "selftest.py"):
            assert len(list(breaches(ast.parse(check), module))) == 1, (check, module)
        for module in POLYGON:
            assert list(breaches(ast.parse(check), module)) == [], (check, module)
    assert [what for _, what in breaches(ast.parse("from .geometry import _lexmin, _clip"), "lowdeg.py")] == [
        "_clip outside divisor.py, which makes each class's polygon",
        "_lexmin outside divisor.py, which makes each class's polygon",
    ]
    for check in (
        "geometry._count(*clip)\nfrom .geometry import _count",
        "from .divisor import _lexmin\nm = _lexmin(fan, a, nef)",
        "m = divisor._lexmin(fan, a, nef)\ngeometry.lexmin_lattice_point(hs)",
    ):
        assert list(breaches(ast.parse(check), "lowdeg.py")) == [], check
    # a private function that only calls itself, or that nothing calls, is an
    # oracle; a call by name, as a module's attribute or through an import counts
    trees = {
        "a.py": ast.parse(
            "def _oracle(n):\n    return _oracle(n - 1)\n"
            "def _bare(): pass\ndef _attr(): pass\ndef _imported(): pass\ndef _dead(): pass\n"
            "def __getattr__(name): pass\nclass C:\n    def _method(self): pass\n"
            "def f():\n    return _bare()\n"
        ),
        "b.py": ast.parse("from .a import _imported\nx = a._attr\n"),
    }
    assert [(module, what) for module, _, what in uncalled(trees)] == [
        ("a.py", "_oracle() has no caller in src, so it is a test oracle"),
        ("a.py", "_dead() has no caller in src, so it is a test oracle"),
    ]
    # a test function with the body of a selftest function is a second copy,
    # also under another name or docstring, nested in another function, or
    # with its parameters and locals renamed
    home = ast.parse(SELFTEST.read_text())
    walls = "def walls(rays):\n    return [det(rays[i - 1], rays[(i + {}) % len(rays)]) for i in range(len(rays))]"
    nef = (
        "def test_it():\n    def nef(r, f):\n        'A copy.'\n        while True:\n"
        "            E = ToricDivisor(f, tuple(r.randint(0, 9) for i in range(f.n)))\n"
        "            if positivity(E) is not Positivity.NOT_NEF:\n                return E\n"
    )
    assert [what for _, what in copies(ast.parse(walls.format(1)), home)] == [
        "walls() copies selftest._wall_numbers(), its one home"
    ]
    assert [what for _, what in copies(ast.parse(nef), home)] == [
        "nef() copies selftest._random_nef(), its one home"
    ]
    for check in (  # another constant, global name or call, or no body at all
        walls.format(2),
        walls.format(1).replace("% len(rays)", "% n"),
        "def walls(rays):\n    return _wall_numbers(rays)",
        "def fans():\n    'Only a docstring.'",
    ):
        assert list(copies(ast.parse(check), home)) == [], check


def test_a_fan_beside_a_divisor_is_refused_however_annotated():
    source = (
        "def a(D: ToricDivisor, *, fan: fan.ToricSurfaceFan): pass\n"
        "def b(fan: 'ToricSurfaceFan', D: 'divisor.ToricDivisor', /): pass\n"
        "def c(fan: ToricSurfaceFan, m: LatticePoint) -> ToricDivisor: pass\n"
        "def d(D: ToricDivisor, E: Optional[ToricDivisor]): pass\n"
    )
    assert [what for _, what in breaches(ast.parse(source))] == [
        "a() takes a fan beside a divisor",
        "b() takes a fan beside a divisor",
    ]


def test_caches_are_refused_on_functions_with_parameters():
    source = (
        "@functools.lru_cache(maxsize=None)\ndef a(fan): pass\n"
        "@lru_cache(maxsize=128)\ndef b(*rays): pass\n"
        "@functools.cache\ndef c(*, n): pass\n"
        "@cache\ndef d(): pass\n"
        "@functools.cached_property\ndef e(self): pass\n"
    )
    assert sorted(what for _, what in breaches(ast.parse(source))) == [
        "cache on a(), which takes parameters",
        "cache on b(), which takes parameters",
        "cache on c(), which takes parameters",
    ]
