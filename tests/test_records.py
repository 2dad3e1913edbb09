"""Every record of the library is made by `errors._record`: a frozen
dataclass whose generated `__init__` stores the fields straight into the
instance's `__dict__` and then runs `__post_init__`.  Its signature is the one dataclasses would give, and
equality, hash, repr, pickling, `dataclasses.replace` and
`FrozenInstanceError` are dataclasses' own."""

import dataclasses
import importlib
import inspect
import pickle
from fractions import Fraction

import pytest

from toricpoints import (
    CurveOnSurface,
    ToricDivisor,
    cohomology,
    hirzebruch,
    hirzebruch_counterexample,
    lambda_invariant,
    p2,
    plane_theorem_report,
    toric_theorem_report,
)
from toricpoints import divisor, fan, lowdeg, plane
from toricpoints.errors import ContractViolation, _record
from toricpoints.lowdeg import DegBTable
from toricpoints.plane import ChainLevel

RECORDS = sorted(
    (
        obj
        # the package's name cohomology is the function, not its module
        for module in (fan, divisor, importlib.import_module("toricpoints.cohomology"), lowdeg, plane)
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)
    ),
    key=lambda cls: cls.__name__,
)


def twin(cls):
    """A plain dataclass(frozen=True) with the fields of `cls`, in order."""
    namespace = {"__annotations__": dict(cls.__annotations__), "__module__": cls.__module__}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            namespace[f.name] = dataclasses.field(default=f.default, compare=f.compare)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def samples():
    """One value of every record."""
    f1 = hirzebruch(1)
    report = toric_theorem_report(CurveOnSurface(f1, ToricDivisor(f1, (9, 4, 0, 0)), (2,)))
    assert report.conditions is not None and report.degB_table
    chain = plane_theorem_report(50, 3, 10)
    return [
        f1,
        report.positive_rep,
        cohomology(ToricDivisor(f1, (2, -1, 0, 0))),
        CurveOnSurface(f1, ToricDivisor(f1, (3, 1, 0, 0)), (2, 3)),
        lambda_invariant(f1),
        report.conditions,
        report.degB_table,
        report,
        hirzebruch_counterexample(3),
        chain.chain[0],
        chain,
    ]


def test_every_record_is_made_by_the_decorator_and_sampled():
    names = [cls.__name__ for cls in RECORDS]
    assert len(names) == 11
    assert sorted(type(value).__name__ for value in samples()) == names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_has_the_signature_and_fields_of_a_plain_dataclass(cls):
    plain = twin(cls)
    assert inspect.signature(cls) == inspect.signature(plain)
    assert inspect.signature(cls.__init__) == inspect.signature(plain.__init__)
    assert [(f.name, f.default, f.compare) for f in dataclasses.fields(cls)] == [
        (f.name, f.default, f.compare) for f in dataclasses.fields(plain)
    ]
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__dataclass_params__.frozen


def test_a_record_is_made_by_keyword_position_and_default():
    level = ChainLevel(1, Fraction(7, 2), None)
    assert level == ChainLevel(level=1, degree_bound=Fraction(7, 2), m=None)
    assert level == ChainLevel(1, m=None, degree_bound=Fraction(7, 2))
    assert vars(level) == {"level": 1, "degree_bound": Fraction(7, 2), "m": None}
    assert DegBTable() == DegBTable(0, 0) == DegBTable(e_max=0) == DegBTable(5, 0)
    assert (DegBTable(7, 2).CD, DegBTable(e_max=2, CD=7).e_max) == (7, 2)
    f1 = hirzebruch(1)
    assert fan.ToricSurfaceFan(f1.rays).name is None
    assert fan.ToricSurfaceFan(rays=f1.rays, name="F1").name == "F1"
    C = ToricDivisor(f1, (3, 1, 0, 0))
    assert CurveOnSurface(f1, C).multiplicities == ()
    assert CurveOnSurface(curve_class=C, fan=f1, multiplicities=[2]).multiplicities == (2,)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ChainLevel(1, Fraction(2)),
        lambda: ChainLevel(1, Fraction(2), None, 4),
        lambda: ChainLevel(1, Fraction(2), None, level=1),
        lambda: ChainLevel(1, Fraction(2), None, k=0),
        lambda: ChainLevel(level=1, degree_bound=Fraction(2)),
        lambda: DegBTable(1, 2, 3),
        lambda: ToricDivisor(p2()),
        lambda: ToricDivisor(p2(), (1, 0, 0), p2()),
        lambda: fan.ToricSurfaceFan(),
    ],
)
def test_a_missing_or_extra_argument_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_post_init_runs_however_a_record_is_made():
    fan_ = p2()
    with pytest.raises(ContractViolation):
        ToricDivisor(fan_, (1.5, 0, 0))
    with pytest.raises(ContractViolation):
        ToricDivisor(fan=fan_, coeffs=(1, 0, "0"))
    D = ToricDivisor(fan_, [1, 2, 3])
    assert type(D.coeffs) is tuple
    with pytest.raises(ContractViolation):
        dataclasses.replace(D, coeffs=(True, 0, 0))
    assert dataclasses.replace(D, coeffs=[4, 0, 0]) == ToricDivisor(fan_, (4, 0, 0))
    with pytest.raises(ContractViolation):
        CurveOnSurface(fan_, D, (1,))
    assert dataclasses.replace(DegBTable(7, 3), e_max=-1) == DegBTable()


@pytest.mark.parametrize("value", samples(), ids=lambda value: type(value).__name__)
def test_a_record_pickles_compares_and_is_frozen(value):
    again = pickle.loads(pickle.dumps(value))
    assert again == value and repr(again) == repr(value) and type(again) is type(value)
    assert vars(again) == vars(value)
    assert dataclasses.replace(value) == value
    first = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, getattr(value, first))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, first)
    if not isinstance(value, (lowdeg.InterpolationReport, plane.PlaneReport)):  # they hold dicts
        assert hash(again) == hash(value)


def test_the_decorator_refuses_a_default_before_a_field_without_one():
    class Record:
        x: int = 0
        y: int

    with pytest.raises(TypeError):
        _record(Record)
