import sys

from hypothesis import strategies as st

from toricpoints.fan import build_fan
from toricpoints.selftest import _builtin_fans, _subdivide as subdivide

FANS = _builtin_fans()


def count_calls(work, *functions):
    """How often `work()` enters each function, by its code object, so calls
    through every name a function was imported under are seen."""
    codes = {f.__code__: f.__qualname__ for f in functions}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return counts


# Generators of SL(2, Z); det 1 keeps the rays counterclockwise.
GENERATORS = [(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (1, 0, -1, 1), (0, -1, 1, 0)]


@st.composite
def blowup_fans(draw, max_m=6, max_rays=14):
    """P^2 or F_m for m <= max_m after random blowups up to max_rays rays,
    under a random SL(2, Z) image and a random rotation of the ray list."""
    m = draw(st.integers(0, max_m))
    rays = draw(st.sampled_from([[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, m), (0, -1)]]))
    for _ in range(draw(st.integers(0, max_rays - len(rays)))):
        rays = subdivide(rays, draw(st.integers(0, len(rays) - 1)))
    for a, b, c, d in draw(st.lists(st.sampled_from(GENERATORS), max_size=4)):
        rays = [(a * x + b * y, c * x + d * y) for x, y in rays]
    k = draw(st.integers(0, len(rays) - 1))
    return build_fan(rays[k:] + rays[:k])
