"""Seeded inputs for the benchmark workloads.

Everything here is plain integer arithmetic on ray lists and edge lengths;
the program under test only ever sees the finished inputs.  A curve class is
built from its polygon: positive edge lengths l_i with sum(l_i u_i) = 0 close
up to a lattice polygon whose edge i has inner normal u_i, and the class
C = sum(a_i D_i) with a_i = -<v_i, u_i> (v_i the start of edge i) has
C.D_i = l_i > 0, so it is ample by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

Ray = Tuple[int, int]

P2_RAYS: Tuple[Ray, ...] = ((1, 0), (0, 1), (-1, -1))

# SL(2, Z) matrices (a, b, c, d) with entries in {-1, 0, 1}; det +1 keeps the
# ray order counterclockwise, and the small entries bound how skewed a
# transformed polygon can get relative to its bounding box.
SL2_SMALL: Tuple[Tuple[int, int, int, int], ...] = tuple(
    (a, b, c, d)
    for a in (-1, 0, 1)
    for b in (-1, 0, 1)
    for c in (-1, 0, 1)
    for d in (-1, 0, 1)
    if a * d - b * c == 1
)


def hirzebruch_rays(m: int) -> Tuple[Ray, ...]:
    return ((1, 0), (0, 1), (-1, m), (0, -1))


def det(a: Ray, b: Ray) -> int:
    return a[0] * b[1] - a[1] * b[0]


def blow_up(rays: Sequence[Ray], rng: random.Random, n: int) -> List[Ray]:
    """Blow up torus-fixed points (insert u_i + u_{i+1}) until there are n rays."""
    out = list(rays)
    while len(out) < n:
        i = rng.randrange(len(out))
        a, b = out[i], out[(i + 1) % len(out)]
        out.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
    return out


def transform(rays: Sequence[Ray], rng: random.Random) -> Tuple[Ray, ...]:
    """A random SL(2, Z) image of the fan with its ray list rotated."""
    a, b, c, d = rng.choice(SL2_SMALL)
    moved = [(a * x + b * y, c * x + d * y) for x, y in rays]
    k = rng.randrange(len(moved))
    return tuple(moved[k:] + moved[:k])


def edge_lengths(rays: Sequence[Ray], rng: random.Random, lo: int, hi: int) -> List[int]:
    """Positive l_i with sum(l_i u_i) = 0.

    Draw l_i in [lo, hi], then add the residual -sum(l_i u_i) to the two rays
    of the cone that contains it; det = 1 makes both shares integers >= 0.
    """
    n = len(rays)
    lengths = [rng.randint(lo, hi) for _ in range(n)]
    sx = -sum(l * u[0] for l, u in zip(lengths, rays))
    sy = -sum(l * u[1] for l, u in zip(lengths, rays))
    for j in range(n):
        u, v = rays[j], rays[(j + 1) % n]
        alpha = det((sx, sy), v)
        beta = det(u, (sx, sy))
        if alpha >= 0 and beta >= 0:
            lengths[j] += alpha
            lengths[(j + 1) % n] += beta
            return lengths
    raise ValueError("rays do not form a complete fan")


def polygon(rays: Sequence[Ray], lengths: Sequence[int], origin: Ray) -> List[Ray]:
    """Vertices v_i of the polygon with the given edge lengths whose first
    vertex is at origin; edge i runs from v_i to v_{i+1}."""
    x, y = origin
    vertices = []
    for (ux, uy), l in zip(rays, lengths):
        vertices.append((x, y))
        # counterclockwise edge direction for inner normal u is (u_y, -u_x)
        x, y = x + l * uy, y - l * ux
    if (x, y) != tuple(origin):
        raise ValueError("edge lengths do not close up")
    return vertices


def box_cells(vertices: Sequence[Ray]) -> int:
    """Lattice points of the polygon's bounding box."""
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    return (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)


@dataclass(frozen=True)
class CurveInput:
    """One curve class in plain data: rays, coefficients a_i, edge lengths
    l_i = C.D_i, singularity multiplicities, and the bounding box of the
    class's polygon."""

    rays: Tuple[Ray, ...]
    coeffs: Tuple[int, ...]
    lengths: Tuple[int, ...]
    mults: Tuple[int, ...]
    box: int


def curve(rng: random.Random, rays: Sequence[Ray], lo: int, hi: int, mults=()) -> CurveInput:
    lengths = edge_lengths(rays, rng, lo, hi)
    vertices = polygon(rays, lengths, (rng.randint(-5, 5), rng.randint(-5, 5)))
    return CurveInput(
        rays=tuple(rays),
        coeffs=tuple(-(v[0] * u[0] + v[1] * u[1]) for v, u in zip(vertices, rays)),
        lengths=tuple(lengths),
        mults=tuple(mults),
        box=box_cells(vertices),
    )
