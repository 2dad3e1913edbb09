"""Each self-test suite fails when the routine it checks is at fault.

`toricpoints selftest` only ever shows the PASS side of a suite.  Here each
suite, looked up by its name in `selftest.SUITES`, is fed a fault, by
swapping the routine it checks for a broken one in the namespace the suite
reads it from, and must return a failing case from the check that the fault
breaks."""

import dataclasses
from fractions import Fraction

import pytest

from toricpoints import geometry, selftest
from toricpoints.lowdeg import LambdaResult


def wrap(name, fault):
    """A fault built from the real routine `selftest.<name>`."""
    real = getattr(selftest, name)
    return name, lambda *args: fault(real, *args)


ZERO_LAMBDA = LambdaResult(value=Fraction(0), inner_min=-8, argmin_subset=())  # F_0's, not P2's or F_1's


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
    ("positive-representation", selftest,
     wrap("toric_theorem_report", lambda real, curve: dataclasses.replace(real(curve), C2=0)),
     "C="),
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
