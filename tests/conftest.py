"""Shared test helpers: brute-force oracles and random input generators.

The oracles recompute areas and lattice counts along completely
different routes than the library (bounding-box scans in the ambient
plane and shoelace sums over explicit polygons), so agreement is a real
two-sided check and not an arithmetic identity.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from ghk.checks import lattice_points_in_corner_box
from ghk.errors import CollinearRays
from ghk.geometry import Cone2, Corner, Staircase, pareto_minimal
from ghk.ideals import MonomialIdeal, new_ideal


def brute_count_complement(cone: Cone2, threshold: Corner, stair: Staircase) -> int:
    """Count lattice points above the threshold but below the staircase.

    Box-scans every lattice point with corners between the threshold and
    the staircase's far ends, which holds every gap point when the
    threshold meets the staircase, and tests domination by direct
    comparison against each staircase corner.
    """
    box = lattice_points_in_corner_box(
        cone, threshold.s, stair.max_s, threshold.t, stair.max_t
    )
    count = 0
    for p in box:
        c = cone.corner(p)
        if not any(c.s >= w.s and c.t >= w.t for w in stair.corners):
            count += 1
    return count


def brute_ordinary_power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """Power oracle: every multiset of n generators, summed as lattice points."""
    sums = set()
    for combo in combinations_with_replacement(ideal.gens, n):
        sums.add((sum(p[0] for p in combo), sum(p[1] for p in combo)))
    return new_ideal(ideal.cone, sums)


def shoelace_complement_area(
    cone: Cone2, threshold: Corner, stair: Staircase
) -> Fraction:
    """Area oracle: shoelace sum over the explicit complement polygon."""
    poly = [threshold, stair.corners[0]]
    for prev, cur in zip(stair.corners, stair.corners[1:]):
        poly.append(Corner(cur.s, prev.t))
        poly.append(cur)
    twice = 0
    for a, b in zip(poly, poly[1:] + poly[:1]):
        twice += a.s * b.t - b.s * a.t
    return Fraction(abs(twice), 2 * cone.det_abs)


def random_cone(rng: random.Random, bound: int = 6) -> Cone2:
    while True:
        r1 = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        r2 = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        try:
            return Cone2.from_rays(r1, r2)
        except CollinearRays:
            continue


def random_ideal(
    rng: random.Random, cone: Cone2 = None, n_gens: int = 4, spread: int = 9,
    ray_bound: int = 6,
) -> MonomialIdeal:
    if cone is None:
        cone = random_cone(rng, ray_bound)
    # semigroup points with both corners in [0, spread]
    pool = lattice_points_in_corner_box(cone, 0, spread + 1, 0, spread + 1)
    k = min(len(pool), rng.randint(1, n_gens))
    return new_ideal(cone, rng.sample(pool, k))


def random_staircase(rng: random.Random, max_corners: int = 5, spread: int = 10):
    corners = [
        Corner(rng.randint(0, spread), rng.randint(0, spread))
        for _ in range(rng.randint(1, max_corners))
    ]
    return pareto_minimal(corners)


def grounded(stair: Staircase) -> tuple[Corner, Staircase]:
    """A threshold meeting the staircase, for bounded-region tests."""
    return Corner(stair.min_s, stair.min_t), stair
