"""Independent exact reference model for the benchmark's expected report fields.

Nothing here imports ghk.  Ideals live in corner space (the facet
coordinates of their generators), ordinary powers come from the chain
I^k = Pareto(I^(k-1) + I), and lattice counts under a staircase are sums
of floor((h - 1 - tau*s) / d) over each staircase step, evaluated in
closed form by the Euclid-like floor-sum recursion.  The costs therefore
depend on the number of staircase corners and not on q, which is what
lets the benchmark attach exact expectations to requests far too large
for a brute-force scan.  The brute-force oracle in oracle.py checks this
model on small cases.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Point = tuple[int, int]
Corner = tuple[int, int]


def _dot(a: Point, b: Point) -> int:
    return a[0] * b[0] + a[1] * b[1]


@dataclass(frozen=True)
class Cone:
    """The plane cone over two rays with its inward facet normals.

    d is |det| of the normals and tau = <normal2, u> for a lattice point u
    with <normal1, u> = 1: (s, t) is a lattice corner iff t == tau*s mod d.
    """

    ray1: Point
    ray2: Point
    normal1: Point
    normal2: Point
    d: int
    tau: int
    u: Point

    def corner(self, p: Point) -> Corner:
        return (_dot(self.normal1, p), _dot(self.normal2, p))

    def is_corner(self, c: Corner) -> bool:
        return (c[1] - self.tau * c[0]) % self.d == 0

    def preimage(self, c: Corner) -> Point:
        k, rem = divmod(c[1] - self.tau * c[0], self.d)
        if rem:
            raise ValueError(f"{c} is not the corner of a lattice point")
        return (c[0] * self.u[0] + k * self.ray1[0], c[0] * self.u[1] + k * self.ray1[1])


def make_cone(ray1: Point, ray2: Point) -> Cone:
    def primitive(v: Point) -> Point:
        g = gcd(*v)
        return (v[0] // g, v[1] // g)

    r1, r2 = primitive(ray1), primitive(ray2)

    def inward(own: Point, other: Point) -> Point:
        n = (-own[1], own[0])
        return n if _dot(n, other) > 0 else (own[1], -own[0])

    n1, n2 = inward(r1, r2), inward(r2, r1)
    d = abs(n1[0] * n2[1] - n1[1] * n2[0])
    if d == 0:
        raise ValueError("collinear rays")
    # solve <n1, u> = 1 by the extended Euclidean algorithm
    (a, b), (x0, x1), (y0, y1) = (n1[0], n1[1]), (1, 0), (0, 1)
    while b:
        q = a // b
        a, b, x0, x1, y0, y1 = b, a - q * b, x1, x0 - q * x1, y1, y0 - q * y1
    u = (x0 * a, y0 * a)  # a is +-1 because n1 is primitive
    return Cone(r1, r2, n1, n2, d, _dot(n2, u), u)


def pareto(corners) -> tuple[Corner, ...]:
    """Minimal elements of a finite corner set, s increasing and t decreasing."""
    kept: list[Corner] = []
    for c in sorted(set(corners)):
        if not kept or c[1] < kept[-1][1]:
            kept.append(c)
    return tuple(kept)


@dataclass(frozen=True)
class Ideal:
    """Minimal generators (sorted by s corner) and their staircase of corners."""

    cone: Cone
    gens: tuple[Point, ...]
    stair: tuple[Corner, ...]

    @property
    def thresholds(self) -> Corner:
        return (self.stair[0][0], self.stair[-1][1])


def make_ideal(cone: Cone, points) -> Ideal:
    by_corner = {cone.corner(p): tuple(p) for p in points}
    if any(s < 0 or t < 0 for s, t in by_corner):
        raise ValueError("generator outside the cone")
    stair = pareto(by_corner)
    return Ideal(cone, tuple(by_corner[c] for c in stair), stair)


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) for i in [0, n), any integers a, b, m > 0."""
    total = 0
    qa, a = divmod(a, m)
    qb, b = divmod(b, m)
    total += qa * n * (n - 1) // 2 + qb * n
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def count_gaps(cone: Cone, threshold: Corner, stair) -> int:
    """Lattice points above threshold whose corners do not dominate stair."""
    d, tau = cone.d, cone.tau
    total = 0
    for (s0, h), (s1, _) in zip(stair, stair[1:]):
        n = s1 - s0
        # t in [threshold.t, h) on the progression t == tau*s (mod d)
        total += floor_sum(n, d, -tau, h - 1 - tau * s0)
        total -= floor_sum(n, d, -tau, threshold[1] - 1 - tau * s0)
    return total


def area(cone: Cone, threshold: Corner, stair) -> Fraction:
    cells = sum((s1 - s0) * (h - threshold[1]) for (s0, h), (s1, _) in zip(stair, stair[1:]))
    return Fraction(cells, cone.d)


def scale(stair, q: int) -> tuple[Corner, ...]:
    return tuple((q * s, q * t) for s, t in stair)


def power_chain(stair, n_max: int) -> list[tuple[Corner, ...]]:
    """Staircases of I^1 .. I^n_max; entry k - 1 is the k-th power."""
    chain = [tuple(stair)]
    for _ in range(n_max - 1):
        chain.append(pareto((a[0] + b[0], a[1] + b[1]) for a in chain[-1] for b in stair))
    return chain


def eghk(ideal: Ideal) -> Fraction:
    return area(ideal.cone, ideal.thresholds, ideal.stair)


def gap_count(ideal: Ideal, q: int, stair) -> int:
    c1, c2 = ideal.thresholds
    return count_gaps(ideal.cone, (q * c1, q * c2), stair)


def is_saturated(ideal: Ideal) -> bool:
    return gap_count(ideal, 1, ideal.stair) == 0


def function_values(ideal: Ideal, p: int, max_n: int) -> list[int]:
    return [gap_count(ideal, p**n, scale(ideal.stair, p**n)) for n in range(max_n + 1)]


def split_counts(ideal: Ideal, q: int) -> tuple[int, int, int]:
    total = gap_count(ideal, q, scale(ideal.stair, q))
    sym = gap_count(ideal, q, power_chain(ideal.stair, q)[-1])
    return total, sym, total - sym


def h0_values(ideal: Ideal, max_n: int) -> list[int]:
    chain = power_chain(ideal.stair, max_n)
    return [gap_count(ideal, n, chain[n - 1]) for n in range(1, max_n + 1)]


def torsion(ideal: Ideal) -> tuple[int, Point, list[Point]]:
    """Least r with r*thresholds a lattice corner, the shift, the primary generators."""
    cone = ideal.cone
    c1, c2 = ideal.thresholds
    r = next(r for r in range(1, cone.d + 1) if cone.is_corner((r * c1, r * c2)))
    power = power_chain(ideal.stair, r)[-1]
    primary = [cone.preimage((s - r * c1, t - r * c2)) for s, t in power]
    return r, cone.preimage((r * c1, r * c2)), primary


def newton_multiplicity(cone: Cone, stair) -> int:
    """Twice the area between the cone and the lower convex hull, over d."""
    hull: list[Corner] = []
    for c in stair:
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (c[1] - hull[-2][1])
            - (hull[-1][1] - hull[-2][1]) * (c[0] - hull[-2][0])
        ) <= 0:
            hull.pop()
        hull.append(c)
    poly = [(0, 0)] + hull
    twice = abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(poly, poly[1:] + poly[:1])))
    return twice // cone.d


def fit(values: list[int], period: int):
    """Per-residue quadratics through the last three entries, with onsets.

    Returns None when some class fails to reproduce its last five entries.
    """
    classes = []
    for residue in range(period):
        pts = [(n, v) for n, v in enumerate(values) if n % period == residue]
        (n1, v1), (n2, v2), (n3, v3) = pts[-3:]
        # Lagrange interpolation through the three points
        coeffs = [Fraction(0)] * 3
        for (na, va), (nb, _), (nc, _) in (
            ((n1, v1), (n2, v2), (n3, v3)),
            ((n2, v2), (n1, v1), (n3, v3)),
            ((n3, v3), (n1, v1), (n2, v2)),
        ):
            w = Fraction(va, (na - nb) * (na - nc))
            coeffs[0] += w
            coeffs[1] -= w * (nb + nc)
            coeffs[2] += w * nb * nc

        def ev(n: int) -> Fraction:
            return coeffs[0] * n * n + coeffs[1] * n + coeffs[2]

        if any(ev(n) != v for n, v in pts[-5:]):
            return None
        onset = pts[-1][0]
        for n, v in reversed(pts):
            if ev(n) != v:
                break
            onset = n
        classes.append((residue, tuple(coeffs), onset))
    return classes


def convergence_holds(ideal: Ideal) -> bool:
    """The bound |count(q)/q^2 - area| <= 4 (W + H) / q at q = 8, 16, 32."""
    st = ideal.stair
    const = 4 * (st[-1][0] - st[0][0] + st[0][1] - st[-1][1])
    a = eghk(ideal)
    return all(
        abs(Fraction(gap_count(ideal, q, scale(st, q)), q * q) - a) <= Fraction(const, q)
        for q in (8, 16, 32)
    )


def veronese(r: int, m: int) -> Ideal:
    return make_ideal(make_cone((1, 0), (1, r)), [(1, k) for k in range(m + 1)])


def a_singularity(r: int, m: int) -> Ideal:
    return make_ideal(make_cone((0, 1), (r, -1)), [(r, -1), (m, 0)])


def quadrant(gens) -> Ideal:
    return make_ideal(make_cone((1, 0), (0, 1)), gens)
