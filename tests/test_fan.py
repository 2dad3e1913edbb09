import itertools

import pytest

from toricpoints import (
    ToricSurfaceFan,
    build_fan,
    builtin_surface,
    hirzebruch,
    lambda_invariant,
    p1xp1,
    p2,
)
from toricpoints.errors import (
    ContractViolation,
    InputError,
    NotSmoothOrNotComplete,
    ToricError,
)

from oracles import is_fan


def test_p2_fan():
    fan = build_fan([(1, 0), (0, 1), (-1, -1)])
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert fan.n == 3


def test_f1_fan():
    fan = build_fan([(1, 0), (0, 1), (-1, 1), (0, -1)])
    assert fan.n == 4


def test_non_smooth_rejected():
    # det((0,1), (-2,-1)) = 2
    with pytest.raises(NotSmoothOrNotComplete):
        build_fan([(1, 0), (0, 1), (-2, -1)])


def test_non_primitive_rejected():
    # det((2, 0), (0, 1)) = 2
    with pytest.raises(NotSmoothOrNotComplete):
        build_fan([(2, 0), (0, 1), (-1, -1)])


@pytest.mark.parametrize(
    "rays",
    [
        [(1.7, 0), (0, 1), (-1, -1)],  # int() would truncate it to P^2
        [(1, 0), (0, 1), (-1.0, -1)],
        [("1", 0), (0, True), (-1, -1)],
        [(1, 0, 0), (0, 1), (-1, -1)],  # not a pair
        [1, 2, 3],
        None,
    ],
)
def test_non_int_coordinates_rejected(rays):
    with pytest.raises(ContractViolation):
        build_fan(rays)


def test_non_int_hirzebruch_parameter_rejected():
    # a ray (-1, 1.5) is not truncated to F_1's (-1, 1)
    with pytest.raises(ContractViolation):
        hirzebruch(1.5)
    with pytest.raises(ContractViolation):
        hirzebruch("1")  # not compared with 0


def test_duplicate_rejected():
    # det((0, 1), (1, 0)) = -1
    with pytest.raises(NotSmoothOrNotComplete):
        build_fan([(1, 0), (0, 1), (1, 0), (0, -1)])


def test_too_few_rays_rejected():
    with pytest.raises(NotSmoothOrNotComplete):
        build_fan([(1, 0), (0, 1)])


def test_wrong_cyclic_order_rejected():
    # clockwise order flips every det to -1
    with pytest.raises(NotSmoothOrNotComplete):
        build_fan([(-1, -1), (0, 1), (1, 0)])


# primitive, distinct, every consecutive det is 1, but two turns
WINDS_TWICE = [(1, 0), (0, 1), (-1, -1), (0, -1), (1, 1), (-1, 0), (-2, -1)]


def test_rays_winding_twice_rejected():
    with pytest.raises(NotSmoothOrNotComplete):
        build_fan(WINDS_TWICE)


@pytest.mark.parametrize(
    "rays, name, error",
    [
        ([(1, 0), (0, 1), (-1, -1), (1, 1)], None, NotSmoothOrNotComplete),
        ([(1, 0), (2, 1), (0, 1), (-1, -1)], None, NotSmoothOrNotComplete),
        ([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)], None, NotSmoothOrNotComplete),
        ([(2, 0), (0, 1), (-1, -1)], None, NotSmoothOrNotComplete),
        (WINDS_TWICE, None, NotSmoothOrNotComplete),
        ([(1, 0), (0, 1)], None, NotSmoothOrNotComplete),
        ([(-1, -1), (0, 1), (1, 0)], None, NotSmoothOrNotComplete),
        ([(1.7, 0), (0, 1), (-1, -1)], None, ContractViolation),
        ([(1, 0, 0), (0, 1), (-1, -1)], None, ContractViolation),
        (None, None, ContractViolation),
        ([(1, 0), (0, 1), (-1, -1)], 5, ContractViolation),
    ],
    ids=[
        "det-0",
        "det-2",
        "repeat",
        "not-primitive",
        "winds-twice",
        "two-rays",
        "clockwise",
        "float",
        "triple",
        "none",
        "int-name",
    ],
)
def test_direct_construction_refuses_what_build_fan_refuses(rays, name, error):
    with pytest.raises(error) as built:
        build_fan(rays, name)
    with pytest.raises(error) as direct:
        ToricSurfaceFan(rays=rays, name=name)
    assert type(direct.value) is type(built.value)
    assert str(direct.value) == str(built.value)


def small_ray_lists():
    """Every list of at most 4 rays with coordinates in [-2, 2], the first of
    4 fixed to (1, 0): 1 + 25 + 25^2 + 25^3 + 25^3 = 31,901 lists."""
    points = list(itertools.product(range(-2, 3), repeat=2))
    for n in range(4):
        yield from map(list, itertools.product(points, repeat=n))
    for rest in itertools.product(points, repeat=3):
        yield [(1, 0), *rest]


def test_build_fan_accepts_exactly_the_small_fans():
    """Exhaustive over `small_ray_lists`: build_fan accepts exactly the lists
    that the `is_fan` oracle accepts, though it checks neither primitivity
    nor distinctness.  Proof that it need not: a common factor k of u_i
    divides det(u_i, u_{i+1}) = 1, so k = 1; and consecutive dets of +1 with
    one winding make the angles of u_1, ..., u_n rise strictly, each turn in
    (0, pi) and all n turns summing to 2 pi, so no direction, and hence no
    primitive ray, comes twice.  Of the lists of 3 or 4 rays, 23,058 hold a
    ray that is not primitive and 2,102 others a repeated ray; the first ray
    is fixed at n = 4 only to keep the scope small."""
    accepted = checked = 0
    for rays in small_ray_lists():
        try:
            build_fan(rays)
            built = True
        except ToricError:
            built = False
        assert built == is_fan(rays), rays
        accepted += built
        checked += 1
    assert (checked, accepted) == (31901, 73)


def test_direct_construction_keeps_the_rays_as_tuples():
    fan = ToricSurfaceFan([[1, 0], [0, 1], [-1, -1]], "P2")
    assert fan == build_fan([(1, 0), (0, 1), (-1, -1)], "P2") == p2()
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))


def test_builtin_surfaces():
    assert builtin_surface("P2").rays == ((1, 0), (0, 1), (-1, -1))
    assert builtin_surface("hirzebruch", 1).rays == ((1, 0), (0, 1), (-1, 1), (0, -1))
    assert builtin_surface("F3").rays == ((1, 0), (0, 1), (-1, 3), (0, -1))
    # F_0 = P^1 x P^1
    assert hirzebruch(0).rays == p1xp1().rays
    with pytest.raises(InputError):
        builtin_surface("P3")
    with pytest.raises(InputError):
        builtin_surface("hirzebruch", -1)
    assert p1xp1().name == "P1xP1"
    # only hirzebruch takes m: F2 with m = 5 is not quietly F2
    for name in ["F2", "P2", "P1xP1"]:
        with pytest.raises(InputError, match="takes the parameter m"):
            builtin_surface(name, 5)


def test_prime_self_intersections_p2():
    # (0,1) + (-1,-1) = -1*(1,0) etc: all lines, self-intersection 1
    assert p2().self_intersections == (1, 1, 1)


def test_prime_self_intersections_hirzebruch():
    assert hirzebruch(1).self_intersections == (0, -1, 0, 1)
    assert hirzebruch(2).self_intersections == (0, -2, 0, 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_hirzebruch_self_intersection_pattern(m):
    selfs = sorted(hirzebruch(m).self_intersections)
    assert selfs == [-m, 0, 0, m]


def test_rotation_gives_same_surface_invariants():
    base = [(1, 0), (0, 1), (-1, 1), (0, -1)]
    lam = lambda_invariant(build_fan(base)).value
    for k in range(1, 4):
        rotated = build_fan(base[k:] + base[:k])
        assert lambda_invariant(rotated).value == lam
        assert sorted(rotated.self_intersections) == sorted(
            build_fan(base).self_intersections
        )
