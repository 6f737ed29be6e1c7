"""Exact plane geometry for lattice cones and monomial staircases.

A strongly convex rational cone in the plane has two primitive inward
facet normals.  Pairing a lattice point against the two normals gives
its facet coordinates, here called its corner: a plain (s, t) tuple of
two ints, as is every corner of a staircase.  The cone itself maps onto
the first quadrant, any translate of the cone maps onto an axis-aligned
quadrant, and the exponent region of a monomial ideal maps onto the set
of points weakly above a finite staircase.  That reduction is what lets
every area and every lattice count below be evaluated in closed form.

Facet coordinates of lattice points fill a sublattice of index det_abs
in Z^2: column s holds the t with t == tau * s (mod det_abs), so any
det_abs consecutive columns hold one point per row, and a floor sum
counts the points under any number of consecutive columns in
O(log det_abs) steps.  A staircase is stored as its maximal runs of
equal steps, found once when it is built from its corners, which are a
view listed only when read.  Every corner of an ideal's staircase is a
lattice corner and every step (w, -h) a lattice vector, h + tau * w ==
0 (mod det_abs), and a complement is counted only on such a staircase
(_require_lattice, one rule for ideals and counts).  So step j of a
run is step 0 moved by a lattice vector, and the points below its top
in each of its columns, (t - 1 - tau * s) // det_abs, are step 0's
less j * (h + tau * w) / det_abs: a run costs one column sum of its
first step, O(log det_abs), whatever its length and its width, and a
staircase that is one run, as every ordinary power of a one-run ideal
is, is never listed.  A band between two staircases is walked over
their corners and counted one run of like rectangles at a time by one
band-run kernel, a rectangle joining a run only when its bottom is a
lattice move from the last one's, so a run is read off its first
rectangle in the same way; any staircases can bound a band.  The band
between the q-th ordinary and bracket powers of a one-run ideal of m
steps is the band under its first bracket step and m - 1 lattice
translates of it, so it is one call of that kernel off the base run,
listing neither power.  The bracket powers q = p^0 .. p^n of an ideal
are counted together off its base runs: each q is one floor sum and one
column sum per distinct step width, with no staircase built.

All arithmetic is exact (Python ints and fractions.Fraction; Fraction
values are always in lowest terms with positive denominator).  Floating
point is never used.  Every function is pure: concurrent use is safe
and results do not depend on evaluation order.
"""

from bisect import bisect_right
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import CollinearRays, EmptyInput, UnboundedRegion

Point = tuple[int, int]


class Corner(NamedTuple):
    """A point of corner space with named fields: s along facet 1, t along facet 2.

    It is a tuple, so it equals, hashes and unpacks like the plain pair
    (s, t), and every function here accepts it wherever a corner is
    expected.  The library returns one only for an ideal's thresholds,
    which need not be the corner of a lattice point; every other corner
    it builds, Cone2.corner and staircase corners included, is a plain
    tuple, read by unpacking or by index.
    """

    s: int
    t: int


def dot(a: Point, b: Point) -> int:
    return a[0] * b[0] + a[1] * b[1]


def _primitive(v: Point) -> Point:
    g = gcd(v[0], v[1])
    if g == 0:
        raise CollinearRays("zero vector cannot span a cone")
    return (v[0] // g, v[1] // g)


def _inward_normal(own: Point, other: Point) -> Point:
    # own turned a quarter turn toward other
    n = (-own[1], own[0])
    return n if dot(n, other) > 0 else (own[1], -own[0])


class Cone2:
    """A strongly convex rational cone in the plane, stored as its two rays.

    ray1 and ray2 must be primitive and independent: the constructor
    raises ValueError for a ray that is not primitive and CollinearRays
    for collinear rays.  Everything else is derived from the rays at
    construction: the primitive inward facet normals normal1 and normal2,
    with <normal1, ray1> = 0 and <normal2, ray2> = 0; det_abs, the |det|
    of the rays and the index of the facet-coordinate image of Z^2, which
    both mixed pairings <normal1, ray2> and <normal2, ray1> equal; and
    the column lattice of that image.  u is a lattice point with
    <normal1, u> = 1; with tau = <normal2, u>, a pair (s, t) is the
    corner of a lattice point exactly when t == tau * s (mod det_abs),
    and then the point is s * u + k * ray1 with k = (t - tau * s) / det_abs.
    Two cones are equal when their rays are.
    """

    __slots__ = ("ray1", "ray2", "normal1", "normal2", "det_abs", "u", "tau")

    def __init__(self, ray1: Point, ray2: Point) -> None:
        if gcd(*ray1) != 1 or gcd(*ray2) != 1:
            raise ValueError(f"rays {ray1} and {ray2} must be primitive")
        self.ray1, self.ray2 = ray1, ray2
        self.det_abs = abs(ray1[0] * ray2[1] - ray1[1] * ray2[0])
        if self.det_abs == 0:
            raise CollinearRays(f"rays {ray1} and {ray2} are collinear")
        a, b = self.normal1 = _inward_normal(ray1, ray2)
        self.normal2 = _inward_normal(ray2, ray1)
        # normal1 is primitive: a is invertible modulo |b|, and b == 0 forces a == +-1
        x = pow(a, -1, abs(b)) if b else a
        self.u = (x, (1 - a * x) // b if b else 0)
        self.tau = dot(self.normal2, self.u)

    @classmethod
    def from_rays(cls, ray1: Point, ray2: Point) -> "Cone2":
        """Build the cone spanned by two rays (any nonzero integer vectors).

        Rays are reduced to primitive vectors.  Raises CollinearRays if
        they do not span the plane, naming the rays as given.
        """
        ray1, ray2 = tuple(ray1), tuple(ray2)
        reduced = _primitive(ray1), _primitive(ray2)  # a zero ray raises its own message
        try:
            return cls(*reduced)
        except CollinearRays:
            raise CollinearRays(f"rays {ray1} and {ray2} are collinear") from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cone2) and (self.ray1, self.ray2) == (other.ray1, other.ray2)

    def __hash__(self) -> int:
        return hash((self.ray1, self.ray2))

    def __repr__(self) -> str:
        return f"Cone2(ray1={self.ray1!r}, ray2={self.ray2!r})"

    def corner(self, p: Point) -> tuple[int, int]:
        (a1, b1), (a2, b2), (x, y) = self.normal1, self.normal2, p
        return (a1 * x + b1 * y, a2 * x + b2 * y)

    def preimage(self, c: tuple[int, int]) -> Optional[Point]:
        """The lattice point with the given corner, or None if there is none."""
        s, t = c
        rem = t - self.tau * s
        if rem % self.det_abs != 0:
            return None
        k = rem // self.det_abs
        return (s * self.u[0] + k * self.ray1[0], s * self.u[1] + k * self.ray1[1])


class Staircase:
    """A finite antichain of corners, stored as its maximal runs of equal steps.

    The corners, s increasing and t decreasing, describe the region of
    corners that dominate (are componentwise >=) at least one of them.
    runs is a tuple of (a, hi, w, h, r): from the corner (a, hi), r
    steps of (w, -h), each run starting at the corner where the one
    before it ends; a single corner is the run (a, hi, 0, 0, 0).  Runs
    are maximal, no two neighbours sharing a step, so they are found
    once, when the staircase is built from its corners, and are
    canonical: two staircases are equal, and hash alike, exactly when
    their runs are, which is when their corners are.  corners, a tuple
    of (s, t) pairs, is a view: corners given to the constructor are
    kept as given (the library builds plain tuples, and Corner inputs
    make an equal staircase), and a staircase built from its runs lists
    plain tuples on first read.  Everything else reads the runs.
    """

    __slots__ = ("runs", "_corners")

    def __init__(self, corners: tuple[tuple[int, int], ...]) -> None:
        if not corners:
            raise EmptyInput("a staircase needs at least one corner")
        runs, w, h, r = [], 0, 0, 0
        a, hi = s0, t0 = corners[0]
        for s1, t1 in corners[1:]:
            # only a new step is checked: one equal to the run's is as valid as it was
            if s1 - s0 != w or t0 - t1 != h or not r:
                if not (s0 < s1 and t0 > t1):
                    raise ValueError("staircase corners must be a sorted antichain")
                if r:
                    runs.append((a, hi, w, h, r))
                a, hi, w, h, r = s0, t0, s1 - s0, t0 - t1, 0
            r += 1
            s0, t0 = s1, t1
        runs.append((a, hi, w, h, r))
        self.runs, self._corners = tuple(runs), corners

    @classmethod
    def _of_runs(cls, runs: tuple[tuple[int, int, int, int, int], ...]) -> "Staircase":
        # runs that are already maximal, taken as they are
        stair = cls.__new__(cls)
        stair.runs, stair._corners = runs, None
        return stair

    @property
    def corners(self) -> tuple[tuple[int, int], ...]:
        if self._corners is None:
            listed = [(a + i * w, hi - i * h) for a, hi, w, h, r in self.runs for i in range(r)]
            self._corners = (*listed, (self.max_s, self.min_t))
        return self._corners

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Staircase) and self.runs == other.runs

    def __hash__(self) -> int:
        return hash(self.runs)

    def __repr__(self) -> str:
        return f"Staircase(corners={self.corners!r})"

    @property
    def min_s(self) -> int:
        return self.runs[0][0]

    @property
    def min_t(self) -> int:
        a, hi, w, h, r = self.runs[-1]
        return hi - r * h

    @property
    def max_s(self) -> int:
        a, hi, w, h, r = self.runs[-1]
        return a + r * w

    @property
    def max_t(self) -> int:
        return self.runs[0][1]

    def height(self, s: int) -> Optional[int]:
        """Least t such that (s, t) dominates the staircase, or None."""
        # a run (a, ...) sorts below (s + 1,) exactly when a <= s
        idx = bisect_right(self.runs, (s + 1,))
        if not idx:
            return None
        a, hi, w, h, r = self.runs[idx - 1]
        return hi - min((s - a) // w, r) * h if r else hi

    def dominates(self, c: tuple[int, int]) -> bool:
        s, t = c
        h = self.height(s)
        return h is not None and t >= h

    def scale(self, k: int) -> "Staircase":
        # k >= 1 keeps every run maximal
        runs = tuple([(k * a, k * hi, k * w, k * h, r) for a, hi, w, h, r in self.runs])
        return Staircase._of_runs(runs)


def _pareto_front(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Minimal elements of a finite set of (s, t) pairs, s increasing, t decreasing.

    Each pair kept is the input pair object itself: nothing is copied.
    """
    kept: list[tuple[int, int]] = []
    for pair in sorted(pairs):
        if not kept or pair[1] < least:
            kept.append(pair)
            least = pair[1]
    return kept


def pareto_minimal(corners: Iterable[tuple[int, int]]) -> Staircase:
    """Reduce a finite set of corners to its antichain of minimal elements.

    Raises EmptyInput on an empty collection.
    """
    kept = _pareto_front(corners)
    if not kept:
        raise EmptyInput("no corners given")
    return Staircase(tuple(kept))


def _box_points_bound(w: int, h: int, d: int) -> int:
    # points of a w x h corner box: at most ceil(h / d) per column and ceil(w / d) per row
    return min(w * -(-h // d), h * -(-w // d))


def _require_lattice(cone: Cone2, stair: Staircase) -> None:
    # every run starts at the corner of a lattice point and steps by a lattice vector
    tau, d = cone.tau, cone.det_abs
    if any((hi - tau * a) % d or (h + tau * w) % d for a, hi, w, h, _ in stair.runs):
        raise ValueError("staircase corner is not the corner of a lattice point")


def _require_bounded(threshold: Corner, stair: Staircase) -> None:
    # the region between threshold quadrant and staircase is bounded exactly
    # when the staircase touches both threshold lines
    s, t = threshold
    if stair.min_s != s or stair.min_t != t:
        raise UnboundedRegion(
            f"staircase minima {(stair.min_s, stair.min_t)} do not meet "
            f"threshold {(s, t)}; the complement has infinite area"
        )


def _rectangles(lower: Staircase, upper: Staircase) -> list[tuple[int, int, int, int]]:
    """Cells (a, b, lo, hi), s increasing, tiling the corners dominating lower but not upper.

    Columns are cut at every corner of either staircase.  The region must
    be bounded: lower.min_s >= upper.min_s and lower.min_t >= upper.min_t.
    """
    steps = [(s, 0, t) for s, t in upper.corners] + [(s, 1, t) for s, t in lower.corners]
    steps.sort()
    heights = [None, None]
    rects = []
    for (a, side, t), (b, _, _) in zip(steps, steps[1:]):
        heights[side] = t
        hi, lo = heights
        if a < b and lo is not None and lo < hi:
            rects.append((a, b, lo, hi))
    return rects


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    # sum of (a * i + b) // m over 0 <= i < n, for m >= 1: Euclid on a and m
    total = 0
    while n:
        total += (a // m) * (n * (n - 1) // 2) + (b // m) * n
        a, b = a % m, b % m
        top = a * n + b
        n, b, m, a = top // m, top % m, a, m
    return total


def _columns(tau: int, step: int, bits: int, n: int, c: int) -> int:
    # sum of (c - tau * x) // step over 0 <= x < n: one floor sum, or column by column
    # when n is at most bits, the narrow steps that ordinary-power staircases are made of
    if n > bits:
        return _floor_sum(n, step, -tau, c)
    total = 0
    for _ in range(n):
        total += c // step
        c -= tau
    return total


def _band_run(
    tau: int, step: int, bits: int, a0: int, w: int, lo0: int, top: int, delta: int, run: int
) -> int:
    """Lattice points of a run of R = run touching rectangles of one width and top.

    Rectangle j = 0 .. R - 1 spans the columns [a0 + j * w, a0 + (j + 1) * w)
    and the rows [lo0 + j * delta, top); step is det_abs and bits is
    step.bit_length(), computed once per count.  Column s = a0 + j * w + x
    of rectangle j holds
    (top - 1 - tau * s) // step - (lo0 + j * delta - 1 - tau * s) // step
    points.  When R >= 2 the bottoms move by a lattice vector, det_abs
    dividing delta - tau * w, so each column of rectangle j sums
    j * sink more below its bottom than rectangle 0's, sink being
    (delta - tau * w) / det_abs: the top side is one column sum over all
    R * w columns, the bottoms R times rectangle 0's bottom side plus
    sink * w * R * (R - 1) / 2, two column sums in all.
    """
    sink = (delta - tau * w) // step
    bottom = _columns(tau, step, bits, w, lo0 - 1 - tau * a0)
    total = _columns(tau, step, bits, run * w, top - 1 - tau * a0)
    return total - run * bottom - sink * w * (run * (run - 1) // 2)


def _count_between(cone: Cone2, lower: Staircase, upper: Staircase) -> int:
    """Lattice points whose corners dominate lower but not upper: the band count.

    The band is walked as the rectangles (a, b, lo, hi) of _rectangles,
    and each run of them is counted by _band_run, a run being a maximal
    stretch of touching rectangles of one width w and one top hi whose
    bottoms move by one constant delta that is a lattice move: det_abs
    divides delta - tau * w.  A rectangle whose bottom is no lattice
    move from the last one's starts a run of its own, so the band of any
    two staircases is counted.  Complements go through _count_under
    instead, so this walk stays an independent count that the gap
    split's total_gap == sym_vs_ord + ord_vs_frob can check.
    """
    tau = cone.tau
    step = cone.det_abs
    bits = step.bit_length()
    total = 0
    # the open run: rectangles (a0 + k * w, a0 + (k + 1) * w, lo0 + k * delta, top) for
    # k < run, the last one ending at column end on bottom row last; none before the first
    a0 = w = lo0 = top = delta = run = end = last = 0
    # a closing rectangle that touches nothing ends the last run
    for a, b, lo, hi in _rectangles(lower, upper) + [(None, None, 0, 0)]:
        if a == end and b - a == w and hi == top and (
            lo - last == delta if run > 1 else (lo - last - tau * w) % step == 0
        ):
            end, last, delta, run = b, lo, lo - last, run + 1
            continue
        if run:
            total += _band_run(tau, step, bits, a0, w, lo0, top, delta, run)
        if a is None:
            return total
        a0, w, lo0, top, run, end, last = a, b - a, lo, hi, 1, b, lo


def _count_run_band(cone: Cone2, s0: int, t0: int, w: int, h: int, m: int, q: int) -> int:
    """The band between the q-th ordinary and bracket powers of a run, listing neither.

    The run is an ideal's, (s0 + i * w, t0 - i * h) for i = 0 .. m, so
    its step is a lattice vector.  Its q-th bracket power has the steps
    (q * w, -q * h), and its q-th ordinary power is the run dilated by
    q, (q * s0 + j * w, q * t0 - j * h) for j = 0 .. q * m, so under
    bracket step i the band is the R = q - 1 rectangles w wide of
    j = i * q + 1 .. i * q + R, all under the top q * t0 - i * q * h,
    each bottom h lower than the one before, as _count_between would
    find them.  That is the band under bracket step 0 moved by the
    lattice vector i * q * (w, -h), so the whole band is m times one
    _band_run: at most two floor sums, whatever m, q and w.
    """
    tau, step, top = cone.tau, cone.det_abs, q * t0
    return m * _band_run(tau, step, step.bit_length(), q * s0 + w, w, top - h, top, -h, q - 1)


def _count_under(cone: Cone2, runs: Sequence[tuple[int, int, int, int, int]]) -> int:
    """Lattice points under the steps of a lattice staircase, at or above its last corner's row.

    runs are the staircase's maximal runs (a, hi, w, h, r), as Staircase
    stores them, each starting at a lattice corner and stepping by a
    lattice vector (see _require_lattice), and lo is the last corner's
    row: column s under a step on row t counts the rows lo <= t' < t.
    Column s holds (u - 1 - tau * s) // det_abs points below row u, so
    the lo side is one floor sum over all the staircase's columns.  Each
    column of step j of a run sums lift = (h + tau * w) / det_abs fewer
    than the same column of step j - 1, so the top sides of a run of R
    steps are R times its first step's less lift * w * R * (R - 1) / 2:
    one floor sum, or at most det_abs.bit_length() columns, per run.
    """
    tau = cone.tau
    step = cone.det_abs
    bits = step.bit_length()
    a0, (a, hi, w, h, r) = runs[0][0], runs[-1]
    total = -_floor_sum(a + r * w - a0, step, -tau, hi - r * h - 1 - tau * a0)
    for a, hi, w, h, r in runs:
        lift = (h + tau * w) // step
        total += r * _columns(tau, step, bits, w, hi - 1 - tau * a) - lift * w * (r * (r - 1) // 2)
    return total


def _count_tower(
    cone: Cone2, runs: Sequence[tuple[int, int, int, int, int]], scales: Iterable[int]
) -> list[int]:
    """_count_under of an ideal's runs scaled by each q of scales, building no staircase.

    Every run (a, hi, w, h, r) of an ideal's staircase starts at a
    lattice corner and steps by a lattice vector, so k0 = (hi - tau * a)
    / det_abs and lift = (h + tau * w) / det_abs are ints.  Scaled by q,
    column x of step j holds q * (k0 - j * lift) + g(x) points below its
    top, g(x) = (-1 - tau * x) // det_abs, so the tops sum to q * q * A
    plus R_w * G(q * w) over the step widths w, where
    A = sum of w * (r * k0 - lift * r * (r - 1) / 2) over the runs, R_w
    counts the steps w wide and G(n) sums g over x < n.  A and R_w are
    read once; each q then costs one floor sum for the bottom row over
    all q * W columns, W the staircase's width, and one column sum
    per distinct width.  _count_under keeps its own single-count loop,
    which this one would slow down, and is the reference for it.
    """
    tau, step = cone.tau, cone.det_abs
    bits = step.bit_length()
    area, widths = 0, {}
    for a, hi, w, h, r in runs:
        if r:
            k0, lift = (hi - tau * a) // step, (h + tau * w) // step
            area += w * (r * k0 - lift * (r * (r - 1) // 2))
            widths[w] = widths.get(w, 0) + r
    a0, (a, hi, w, h, r) = runs[0][0], runs[-1]
    span, row = a + r * w - a0, hi - r * h - tau * a0
    counts = []
    for q in scales:
        total = q * q * area - _floor_sum(q * span, step, -tau, q * row - 1)
        for w, n in widths.items():
            total += n * _columns(tau, step, bits, q * w, -1)
        counts.append(total)
    return counts


def staircase_complement_area(cone: Cone2, threshold: Corner, stair: Staircase) -> Fraction:
    """Area of the threshold quadrant minus the staircase region.

    Measured in the ambient plane, so the corner-space cell area is
    divided by det_abs.  The staircase minima must equal the threshold
    componentwise; otherwise the complement is an infinite strip and
    UnboundedRegion is raised.
    """
    _require_bounded(threshold, stair)
    # run (a, hi, w, h, r) is r steps w wide, step i under row hi - i * h
    t = threshold[1]
    cells = sum(w * r * (hi - t) - w * h * r * (r - 1) // 2 for _, hi, w, h, r in stair.runs)
    return Fraction(cells, cone.det_abs)


def count_lattice_complement(cone: Cone2, threshold: Corner, stair: Staircase) -> int:
    """Number of lattice points in the threshold quadrant not dominating stair.

    Same boundedness precondition as staircase_complement_area, and stair
    must be a lattice staircase, each corner the corner of a lattice
    point, as an ideal's is: otherwise ValueError, with the message
    MonomialIdeal gives.  Counts actual points of Z^2, through their
    corners, with _count_under over the staircase's runs.
    """
    _require_bounded(threshold, stair)
    _require_lattice(cone, stair)
    return _count_under(cone, stair.runs)


def count_lattice_band(
    cone: Cone2, threshold: Corner, fine: Staircase, coarse: Staircase
) -> int:
    """Lattice points in the threshold quadrant dominating fine but not coarse.

    fine must describe a region containing the coarse one within the
    quadrant; both staircases must meet the threshold lines.  Unlike a
    complement, the band takes any staircases, lattice or not.
    """
    _require_bounded(threshold, fine)
    _require_bounded(threshold, coarse)
    return _count_between(cone, fine, coarse)
