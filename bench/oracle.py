"""Brute-force oracle for checking the benchmark's expectations on small requests.

It shares no code with ghk or with model.py.  Gap counts come from
scanning every lattice point of a bounding box in the ambient plane,
ordinary powers from summing every multiset of generators and keeping
the minimal sums, areas from the shoelace formula over the explicit
complement polygon, and the family multiplicities from their closed
forms.  It is slow on purpose and meant for small inputs only.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import ceil, floor, gcd


def cone_normals(ray1, ray2):
    """Primitive inward normals (n1 ⟂ ray1, n2 ⟂ ray2) and |det|."""

    def prim(v):
        g = gcd(v[0], v[1])
        return (v[0] // g, v[1] // g)

    r1, r2 = prim(ray1), prim(ray2)
    n1 = (-r1[1], r1[0]) if -r1[1] * r2[0] + r1[0] * r2[1] > 0 else (r1[1], -r1[0])
    n2 = (-r2[1], r2[0]) if -r2[1] * r1[0] + r2[0] * r1[1] > 0 else (r2[1], -r2[0])
    return n1, n2, abs(n1[0] * n2[1] - n1[1] * n2[0])


def corner(normals, p):
    n1, n2 = normals[0], normals[1]
    return (n1[0] * p[0] + n1[1] * p[1], n2[0] * p[0] + n2[1] * p[1])


def minimal(points, normals):
    """Generators whose corners are minimal, sorted by the first corner."""
    cs = {corner(normals, p): p for p in points}
    keep = [c for c in cs if not any(o != c and o[0] <= c[0] and o[1] <= c[1] for o in cs)]
    return [cs[c] for c in sorted(keep)]


def power(gens, n):
    """All n-fold sums of the generators (not reduced)."""
    return {(sum(p[0] for p in combo), sum(p[1] for p in combo))
            for combo in combinations_with_replacement(gens, n)}


def box_points(normals, s_lo, s_hi, t_lo, t_hi):
    """Lattice points whose corners lie in [s_lo, s_hi) x [t_lo, t_hi)."""
    n1, n2, _ = normals
    det = n1[0] * n2[1] - n1[1] * n2[0]
    xs = [Fraction(n2[1] * s - n1[1] * t, det) for s in (s_lo, s_hi) for t in (t_lo, t_hi)]
    ys = [Fraction(-n2[0] * s + n1[0] * t, det) for s in (s_lo, s_hi) for t in (t_lo, t_hi)]
    for x in range(floor(min(xs)), ceil(max(xs)) + 1):
        for y in range(floor(min(ys)), ceil(max(ys)) + 1):
            c = corner(normals, (x, y))
            if s_lo <= c[0] < s_hi and t_lo <= c[1] < t_hi:
                yield (x, y)


def count_between(normals, threshold, lower, upper) -> int:
    """Points above threshold that dominate some corner of lower but none of upper.

    lower=None means every point above the threshold.
    """
    s_hi = max(c[0] for c in upper)
    t_hi = max(c[1] for c in upper)

    def dominates(c, corners):
        return any(c[0] >= w[0] and c[1] >= w[1] for w in corners)

    corners = (corner(normals, p) for p in box_points(normals, threshold[0], s_hi, threshold[1], t_hi))
    return sum(1 for c in corners if not dominates(c, upper) and (lower is None or dominates(c, lower)))


def box_size(normals, threshold, corners) -> int:
    """Upper estimate of the lattice points a count over these corners scans."""
    n1, n2, d = normals
    s = max(c[0] for c in corners) - threshold[0]
    t = max(c[1] for c in corners) - threshold[1]
    return (abs(n1[0]) + abs(n1[1]) + abs(n2[0]) + abs(n2[1])) ** 2 * (s + 1) * (t + 1) // d


def complement_area(normals, threshold, corners) -> Fraction:
    """Shoelace area of the region above threshold and below the staircase."""
    stair = sorted(corners)
    poly = [threshold, stair[0]]
    for prev, cur in zip(stair, stair[1:]):
        poly += [(cur[0], prev[1]), cur]
    twice = sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(poly, poly[1:] + poly[:1]))
    return Fraction(abs(twice), 2 * normals[2])


def family(spec: str):
    """(rays, generators, closed-form multiplicity or None) of a family spec."""
    name, _, rest = spec.partition(":")
    if name == "quadrant":
        pairs = [tuple(int(v) for v in part.strip("()").split(",")) for part in rest.split(";")]
        return ((1, 0), (0, 1)), pairs, None
    r, m = (int(v) for v in rest.split(","))
    if name == "veronese":
        return ((1, 0), (1, r)), [(1, k) for k in range(m + 1)], Fraction(m * (m + 1), 2 * r)
    return ((0, 1), (r, -1)), [(r, -1), (m, 0)], Fraction(m * (r - m), r)
