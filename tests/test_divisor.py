import json
import random
from fractions import Fraction

import pytest

from toricpoints import (
    CurveOnSurface,
    Positivity,
    ToricDivisor,
    canonical_divisor,
    effective_representative,
    hirzebruch,
    intersection_number,
    p1xp1,
    p2,
    positivity,
    principal_divisor,
)
from toricpoints.cli import main
from toricpoints.errors import ContractViolation, FanMismatch
from toricpoints.selftest import _classes_equal as classes_equal

from conftest import FANS



def test_principal_divisor_examples():
    fan = p2()
    assert principal_divisor(fan, (1, 0)).coeffs == (1, 0, -1)
    assert principal_divisor(fan, (0, 0)).coeffs == (0, 0, 0)
    f1 = hirzebruch(1)
    assert principal_divisor(f1, (0, 1)).coeffs == (0, 1, 1, -1)


@pytest.mark.parametrize(
    "make",
    [
        lambda fan: principal_divisor(fan, (0.5, 1)),
        lambda fan: principal_divisor(fan, (True, 0)),
        lambda fan: principal_divisor(fan, ("1", 0)),
        lambda fan: principal_divisor(fan, (1,)),
        lambda fan: principal_divisor(None, (1, 0)),
        lambda fan: canonical_divisor(fan.rays),
        lambda fan: ToricDivisor(fan, (1,) * fan.n) * 1.5,
        lambda fan: True * ToricDivisor(fan, (1,) * fan.n),
        lambda fan: ToricDivisor(fan, (1,) * fan.n) + (1,) * fan.n,
        lambda fan: effective_representative(fan),
    ],
)
def test_a_derived_divisor_refuses_what_its_inputs_refuse(make):
    """Sums, multiples, principal and canonical divisors and effective
    representatives are not checked again once made, so their inputs are."""
    for fan in FANS:
        with pytest.raises(ContractViolation):
            make(fan)


def test_a_derived_divisor_is_the_checked_one():
    for fan in FANS:
        D = ToricDivisor(fan, tuple(range(fan.n)))
        K = canonical_divisor(fan)
        for derived, coeffs in [
            (D + K, tuple(c - 1 for c in D.coeffs)),
            (D - K, tuple(c + 1 for c in D.coeffs)),
            (-D, tuple(-c for c in D.coeffs)),
            (3 * D, tuple(3 * c for c in D.coeffs)),
            (principal_divisor(fan, (2, -1)), tuple(2 * x - y for x, y in fan.rays)),
        ]:
            checked = ToricDivisor(fan, coeffs)
            assert derived == checked and hash(derived) == hash(checked) and repr(derived) == repr(checked)
            assert type(derived.coeffs) is tuple and vars(derived) == vars(checked)
        rep = effective_representative(D)
        assert rep == ToricDivisor(fan, rep.coeffs) and min(rep.coeffs) >= 0


def test_classes_equal():
    fan = p2()
    lines = [ToricDivisor(fan, c) for c in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    assert classes_equal(lines[0], lines[1])
    assert classes_equal(lines[1], lines[2])
    assert not classes_equal(lines[0], ToricDivisor(fan, (2, 0, 0)))
    f1 = hirzebruch(1)
    # D_2 ~ C_0 and D_4 ~ C_0 + F differ by a fibre
    assert not classes_equal(
        ToricDivisor(f1, (0, 1, 0, 0)), ToricDivisor(f1, (0, 0, 0, 1))
    )


def test_intersection_numbers():
    fan = p2()
    H = ToricDivisor(fan, (1, 0, 0))
    assert intersection_number(H, H) == 1
    f1 = hirzebruch(1)
    D1 = ToricDivisor(f1, (1, 0, 0, 0))
    D2 = ToricDivisor(f1, (0, 1, 0, 0))
    assert intersection_number(D2, D2) == -1  # the section C_0
    assert intersection_number(D2, D1) == 1  # C_0 . F
    assert intersection_number(D1, D1) == 0


def test_canonical_divisor():
    assert canonical_divisor(p2()).coeffs == (-1, -1, -1)
    assert canonical_divisor(hirzebruch(1)).coeffs == (-1, -1, -1, -1)
    # -3H on P^2
    assert classes_equal(canonical_divisor(p2()), ToricDivisor(p2(), (-3, 0, 0)))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
def test_canonical_square_hirzebruch(m):
    K = canonical_divisor(hirzebruch(m))
    assert intersection_number(K, K) == 8


def test_exact_coefficients():
    fan = p2()
    D = ToricDivisor(fan, [2, -1, 0])
    assert D.coeffs == (2, -1, 0)
    assert type(intersection_number(D, D)) is int
    # a Fraction is refused even when it is integral, and so is a non-int scalar
    for bad in (Fraction(1, 2), Fraction(4, 2), 1.7, 2.0, "1", True):
        with pytest.raises(ContractViolation):
            ToricDivisor(fan, (bad, 0, 0))
    for s in (Fraction(1, 2), Fraction(2), 0.5):
        with pytest.raises(ContractViolation):
            D * s
    assert (2 * D).coeffs == (D + D).coeffs == (4, -2, 0)


def test_positivity():
    fan = p2()
    assert positivity(ToricDivisor(fan, (1, 0, 0))) is Positivity.AMPLE
    f1 = hirzebruch(1)
    assert positivity(ToricDivisor(f1, (0, 1, 0, 0))) is Positivity.NOT_NEF  # C_0
    assert positivity(ToricDivisor(f1, (1, 0, 0, 0))) is Positivity.NEF_NOT_AMPLE  # F


def test_effective_representative_examples():
    fan = p2()
    # {m1 >= -2, m2 >= 1, -m1-m2 >= 0} has lex-min lattice point (-2, 1)
    got = effective_representative(ToricDivisor(fan, (2, -1, 0)))
    assert got.coeffs == (0, 0, 1)
    f1 = hirzebruch(1)
    # negative of an effective nonzero class
    assert effective_representative(ToricDivisor(f1, (-1, 0, 0, 0))) is None
    # coefficients >= 1 by shifting through (1, 1, 1); lex-min m = (-3, 1)
    ones = ToricDivisor(fan, (1, 1, 1))
    got = effective_representative(ToricDivisor(fan, (4, 0, 0)) - ones) + ones
    assert got.coeffs == (1, 1, 2)
    assert all(c >= 1 for c in got.coeffs)
    assert classes_equal(got, ToricDivisor(fan, (4, 0, 0)))


def test_effective_representative_stays_in_class():
    rng = random.Random(11)
    for fan in FANS:
        for _ in range(25):
            D = ToricDivisor(fan, tuple(rng.randint(-3, 6) for _ in range(fan.n)))
            rep = effective_representative(D)
            if rep is not None:
                assert all(c >= 0 for c in rep.coeffs)
                assert classes_equal(rep, D)


def test_equal_classes_intersect_equally():
    rng = random.Random(17)
    fan = hirzebruch(1)
    D = ToricDivisor(fan, (2, 3, 1, 0))
    E = D + principal_divisor(fan, (1, -2))
    assert classes_equal(D, E)
    for _ in range(20):
        F = ToricDivisor(fan, tuple(rng.randint(-5, 5) for _ in range(4)))
        assert intersection_number(D, F) == intersection_number(E, F)


def test_sum_of_primes_is_anticanonical():
    for fan in FANS:
        total = ToricDivisor(fan, (1,) * fan.n)
        K = canonical_divisor(fan)
        assert classes_equal(total, -K)
        for j in range(fan.n):
            Dj = ToricDivisor(fan, tuple(1 if i == j else 0 for i in range(fan.n)))
            assert intersection_number(total, Dj) == intersection_number(-K, Dj)


def test_fan_mismatch():
    D = ToricDivisor(p2(), (1, 0, 0))
    E = ToricDivisor(hirzebruch(1), (1, 0, 0, 0))
    with pytest.raises(FanMismatch):
        intersection_number(D, E)
    with pytest.raises(FanMismatch):
        classes_equal(D, E)
    with pytest.raises(FanMismatch):
        ToricDivisor(p2(), (1, 0, 0, 0))


def test_fans_with_the_same_rays_are_equal_whatever_their_names(capsys):
    square, f0 = p1xp1(), hirzebruch(0)
    assert (square.name, f0.name) == ("P1xP1", "F0")
    assert square == f0 and hash(square) == hash(f0)
    D, E = ToricDivisor(square, (1, 0, 0, 0)), ToricDivisor(f0, (1, 0, 0, 0))
    assert D == E and hash(D) == hash(E) and {D, E} == {D}
    assert (D - E).coeffs == (0, 0, 0, 0)
    assert CurveOnSurface(square, E + E).curve_class == D * 2
    assert "'P1xP1'" in repr(square) and "'F0'" in repr(f0)
    for name in ("P1xP1", "F0"):
        assert main(["lambda", "--surface", name, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["surface"] == name
    with pytest.raises(FanMismatch):  # as many rays, not the same ones
        D + ToricDivisor(hirzebruch(1), (1, 0, 0, 0))
    with pytest.raises(FanMismatch):
        CurveOnSurface(hirzebruch(1), D)
