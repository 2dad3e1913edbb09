"""Each self-test suite fails when the routine it checks is at fault.

`toricpoints selftest` only ever shows the PASS side of a suite.  Here each
suite, looked up by its name in `selftest.SUITES`, is fed a fault, by
swapping the routine it checks for a broken one in the namespace the suite
reads it from, and must return a failing case from the check that the fault
breaks.  The report checker, `selftest._report_fault`, must refute a report
with any one field made wrong, on each branch of the report."""

import dataclasses
from fractions import Fraction

import pytest

from toricpoints import CurveOnSurface, InterpolationReport, ToricDivisor, hirzebruch, p2
from toricpoints import geometry, selftest, toric_theorem_report
from toricpoints.lowdeg import FAIL, LambdaResult


def wrap(name, fault):
    """A fault built from the real routine `selftest.<name>`."""
    real = getattr(selftest, name)
    return name, lambda *args: fault(real, *args)


ZERO_LAMBDA = LambdaResult(value=Fraction(0), inner_min=-8, argmin_subset=())  # F_0's, not P2's or F_1's


def report_with(**wrong):
    """A fault in the report: each field named is made wrong by its function of the right report."""
    def fault(real, curve):
        r = real(curve)
        return dataclasses.replace(r, **{field: make(r) for field, make in wrong.items()})

    return wrap("toric_theorem_report", fault)


FAULTS = [
    # (suite's name, namespace, (routine, broken routine), text in the failing case)
    ("hrr-vs-count", selftest,
     wrap("cohomology", lambda real, D: dataclasses.replace(real(D), h1=1)), "fan="),
    ("hrr-vs-count", geometry,  # the count cohomology skips
     ("count_lattice_points", lambda halfplanes: 0), "fan="),
    ("peeled-h0", selftest,
     wrap("cohomology", lambda real, D: dataclasses.replace(real(D), h0=real(D).h0 + 1)), "peeled"),
    ("serre-duality", selftest,
     wrap("euler_characteristic", lambda real, D: real(D) + D.coeffs[0]), "fan="),
    ("pairing", selftest,
     wrap("intersection_number", lambda real, D, E: real(D, E) + D.coeffs[0]), "symmetry"),
    ("pairing", selftest,
     wrap("intersection_number", lambda real, D, E: real(D, E) ** 2), "bilinearity"),
    ("pairing", selftest,  # the dot product of the coefficients
     ("intersection_number", lambda D, E: sum(a * b for a, b in zip(D.coeffs, E.coeffs))),
     "class invariance"),
    ("lambda-hirzebruch", selftest, ("lambda_invariant", lambda fan: ZERO_LAMBDA), "P2 ->"),
    ("lambda-hirzebruch", selftest,
     wrap("lambda_invariant", lambda real, fan: real(fan) if fan.n == 3 else ZERO_LAMBDA),
     "F1 ->"),
    ("positive-representation", selftest, report_with(C2=lambda r: 0), "C="),
    # faults the suite let through before it checked every field
    ("positive-representation", selftest,
     report_with(degree_bound=lambda r: r.degree_bound + 1), "degree_bound"),
    ("positive-representation", selftest, report_with(lambda_subset=lambda r: ()), "lambda_subset"),
    ("positive-representation", selftest,
     report_with(hypothesis_verdicts=lambda r: {**r.hypothesis_verdicts, "curve_ample": FAIL}),
     "hypothesis_verdicts"),
    ("lexmin", geometry, ("lexmin_lattice_point", lambda halfplanes: None), "half-planes"),
    ("lexmin", selftest,  # C + K's shift, a cone vertex when it is nef
     wrap("effective_representative", lambda real, D: real(D) and real(D) + real(D)),
     "half-planes"),
]


@pytest.mark.parametrize(
    "name, namespace, fault, says",
    FAULTS,
    ids=[f"{name}-{fault[0]}-{says}" for name, _, fault, says in FAULTS],
)
def test_each_suite_fails_on_a_fault_in_the_routine_it_checks(
    monkeypatch, name, namespace, fault, says
):
    monkeypatch.setattr(namespace, *fault)
    case = selftest.SUITES[name][0]()
    assert case is not None and says in case, case


P2, F1, F2 = p2(), hirzebruch(1), hirzebruch(2)
CURVES = {  # a report on each branch
    "P2-4H": CurveOnSurface(P2, ToricDivisor(P2, (4, 0, 0))),  # ample, with the conditions
    # ample, with the conditions, lambda = -1/2, not certified
    "F2-5C0+12F-(2)": CurveOnSurface(F2, ToricDivisor(F2, (12, 5, 0, 0)), (2,)),
    "P2-9H-(6,6)": CurveOnSurface(P2, ToricDivisor(P2, (9, 0, 0)), (6, 6)),  # no e_max: C~^2 = 9
    "F1-8C0+5F": CurveOnSurface(F1, ToricDivisor(F1, (5, 8, 0, 0))),  # not ample, with a C_rep
    "P2-3H": CurveOnSurface(P2, ToricDivisor(P2, (3, 0, 0))),  # C + K ~ 0: no C_rep
}
REPORTS = {name: toric_theorem_report(curve) for name, curve in CURVES.items()}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(InterpolationReport)])
@pytest.mark.parametrize("name", CURVES)
def test_the_report_checker_refutes_a_field_of_another_report(name, field):
    """Each field of a report, swapped for the field of another report where
    they differ, or for an int's value as a Fraction, is refuted first."""
    curve, r = CURVES[name], REPORTS[name]
    assert selftest._report_fault(curve, r) is None
    right = getattr(r, field)
    wrongs = [getattr(other, field) for other in REPORTS.values() if getattr(other, field) != right]
    wrongs += [Fraction(right)] if type(right) is int else []
    assert wrongs
    for wrong in wrongs:
        fault = selftest._report_fault(curve, dataclasses.replace(r, **{field: wrong}))
        assert fault is not None and fault.startswith(field), fault
