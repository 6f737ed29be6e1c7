"""Shared test helpers: brute-force oracles and random input generators.

The oracles recompute areas and lattice counts along completely
different routes than the library (bounding-box scans in the ambient
plane, shoelace sums over explicit polygons, one arithmetic progression
per column, and a Euclid-like floor sum per staircase step), so
agreement is a real two-sided check and not an arithmetic identity.
The fit and pairing oracles evaluate in Fractions term by term, where
the library works in integers and builds one rational at the end.  The
region oracle lists every point and takes the corner of each translate
afresh, where the library steps corners by addition.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import ceil, floor, gcd

from ghk import geometry
from ghk.checks import lattice_points_in_corner_box
from ghk.errors import (
    BadParameters,
    CollinearRays,
    DimensionMismatch,
    NoStabilization,
)
from ghk.geometry import Cone2, Corner, Staircase, pareto_minimal
from ghk.ideals import MonomialIdeal, new_ideal
from ghk.invariants import ClassFit, QuasiPolynomial, _quadratic_through


def box_scan_points(cone: Cone2, s_lo: int, s_hi: int, t_lo: int, t_hi: int) -> list:
    """Box-scan oracle: lattice points with corners in [s_lo, s_hi) x [t_lo, t_hi).

    Tests every point of the integer bounding box of the preimage
    parallelogram, x ascending, then y ascending.
    """
    if s_hi <= s_lo or t_hi <= t_lo:
        return []
    n1, n2 = cone.normal1, cone.normal2
    det = n1[0] * n2[1] - n1[1] * n2[0]
    xs = []
    ys = []
    for s in (s_lo, s_hi):
        for t in (t_lo, t_hi):
            xs.append(Fraction(n2[1] * s - n1[1] * t, det))
            ys.append(Fraction(-n2[0] * s + n1[0] * t, det))
    pts = []
    for x in range(floor(min(xs)), ceil(max(xs)) + 1):
        for y in range(floor(min(ys)), ceil(max(ys)) + 1):
            s, t = cone.corner((x, y))
            if s_lo <= s < s_hi and t_lo <= t < t_hi:
                pts.append((x, y))
    return pts


def point_saturation_oracle(ideal: MonomialIdeal, p) -> bool:
    """Region oracle point by point: each box point listed and translated by p.

    Scans the same three corner boxes as saturation_region_oracle (the
    window past the maximal generator corners and one deep box across
    each boundary strip), but takes the corner of every translate
    p + g afresh and tests it against every generator corner.
    """
    cone = ideal.cone
    d = cone.det_abs
    ps, pt = cone.corner(p)
    corners = [cone.corner(g) for g in ideal.gens]
    t1 = max(s for s, _ in corners)
    t2 = max(t for _, t in corners)
    deep_s = t1 + max(0, -ps)
    deep_t = t2 + max(0, -pt)

    def covered(g) -> bool:
        s, t = cone.corner((p[0] + g[0], p[1] + g[1]))
        return any(s >= ws and t >= wt for ws, wt in corners)

    window = (t1, t1 + d, t2, t2 + d)
    boxes = [window, (0, t1, deep_t, deep_t + d), (deep_s, deep_s + d, 0, t2)]
    scans = (lattice_points_in_corner_box(cone, *box) for box in boxes)
    return all(all(map(covered, points)) for points in scans)


def brute_count_complement(cone: Cone2, threshold: Corner, stair: Staircase) -> int:
    """Count lattice points above the threshold but below the staircase.

    Box-scans every lattice point with corners between the threshold and
    the staircase's far ends, which holds every gap point when the
    threshold meets the staircase, and tests domination by direct
    comparison against each staircase corner.
    """
    box = box_scan_points(
        cone, threshold[0], stair.max_s, threshold[1], stair.max_t
    )
    count = 0
    for p in box:
        s, t = cone.corner(p)
        if not any(s >= ws and t >= wt for ws, wt in stair.corners):
            count += 1
    return count


def progression_count(lo: int, hi: int, residue: int, step: int) -> int:
    """Number of integers t in [lo, hi) with t == residue (mod step)."""
    if hi <= lo:
        return 0
    first = lo + (residue - lo) % step
    if first >= hi:
        return 0
    return (hi - 1 - first) // step + 1


def column_count_complement(cone: Cone2, threshold: Corner, stair: Staircase) -> int:
    """Column oracle: one arithmetic progression per column under each step."""
    tau = cone.tau
    step = cone.det_abs
    total = 0
    for (s0, t0), (s1, _) in zip(stair.corners, stair.corners[1:]):
        for s in range(s0, s1):
            total += progression_count(threshold[1], t0, (tau * s) % step, step)
    return total


def column_count_band(
    cone: Cone2, threshold: Corner, fine: Staircase, coarse: Staircase
) -> int:
    """Column oracle: per column, the progression between the two heights."""
    tau = cone.tau
    step = cone.det_abs
    total = 0
    for s in range(threshold[0], coarse.max_s):
        hi = coarse.height(s)
        lo = fine.height(s)
        if hi is None or lo is None:
            continue
        lo = max(lo, threshold[1])
        total += progression_count(lo, hi, (tau * s) % step, step)
    return total


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of (a * i + b) // m over 0 <= i < n, for n >= 0 and m >= 1.

    The Euclid-like recursion of the AtCoder Library's floor_sum, with
    Python's floor division absorbing negative a and b.
    """
    total = 0
    while True:
        total += (a // m) * (n * (n - 1) // 2) + (b // m) * n
        a, b = a % m, b % m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b, m, a = y_max // m, y_max % m, a, m


def floor_sum_count_complement(cone: Cone2, threshold: Corner, stair: Staircase) -> int:
    """Floor-sum oracle: the columns of each staircase step summed in closed form.

    Column s of a step at height h holds (h - 1 - tau s) // d -
    (threshold.t - 1 - tau s) // d lattice points.
    """
    tau = cone.tau
    d = cone.det_abs
    total = 0
    for (s0, t0), (s1, _) in zip(stair.corners, stair.corners[1:]):
        n = s1 - s0
        total += floor_sum(n, d, -tau, t0 - 1 - tau * s0)
        total -= floor_sum(n, d, -tau, threshold[1] - 1 - tau * s0)
    return total


def brute_ordinary_power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """Power oracle: every multiset of n generators, summed as lattice points."""
    sums = set()
    for combo in combinations_with_replacement(ideal.gens, n):
        sums.add((sum(p[0] for p in combo), sum(p[1] for p in combo)))
    return new_ideal(ideal.cone, sums)


def non_run_ideal() -> MonomialIdeal:
    """A fresh saturated ideal whose corners (0, 7), (1, 5), (5, 4) are not one run.

    Its single powers go through the power DP, where a one-run ideal's
    powers are written down; the cone is over (1, 0) and (2, 7).
    """
    return new_ideal(Cone2.from_rays((1, 0), (2, 7)), [(1, 0), (1, 1), (2, 5)])


def search_torsion_order(ideal: MonomialIdeal, bound: int):
    """Torsion oracle: the least r <= bound whose scaled thresholds have a preimage.

    Tries every r in turn with one preimage call each; returns (r, u) for
    the first lattice point u found, or None.
    """
    c1, c2 = ideal.thresholds
    for r in range(1, bound + 1):
        u = ideal.cone.preimage(Corner(r * c1, r * c2))
        if u is not None:
            return r, u
    return None


def shoelace_complement_area(
    cone: Cone2, threshold: Corner, stair: Staircase
) -> Fraction:
    """Area oracle: shoelace sum over the explicit complement polygon."""
    poly = [threshold, stair.corners[0]]
    for prev, cur in zip(stair.corners, stair.corners[1:]):
        poly.append(Corner(cur[0], prev[1]))
        poly.append(cur)
    twice = 0
    for (s0, t0), (s1, t1) in zip(poly, poly[1:] + poly[:1]):
        twice += s0 * t1 - s1 * t0
    return Fraction(abs(twice), 2 * cone.det_abs)


def random_cone(rng: random.Random, bound: int = 6) -> Cone2:
    while True:
        r1 = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        r2 = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        try:
            return Cone2.from_rays(r1, r2)
        except CollinearRays:
            continue


def unimodular(rng: random.Random) -> tuple[tuple[int, int], tuple[int, int]]:
    """A random integer matrix of determinant +-1: shears and a swap."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(3):
        k = rng.randint(-3, 3)
        a, b, c, d = (a + k * c, b + k * d, c, d) if rng.random() < 0.5 else (a, b, c + k * a, d + k * b)
    if rng.random() < 0.5:
        a, b, c, d = c, d, a, b
    return (a, b), (c, d)


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


def one_run_ideal(
    rng: random.Random, m: int, cone: Cone2 = None, w: int = None
) -> MonomialIdeal:
    """An ideal whose m + 1 corners are one run of equal steps (w, -h).

    (s0 + i * w, t0 - i * h) is the corner of a lattice point for every i
    when t0 == tau * s0 and h == -tau * w modulo det_abs.  The cone and
    the step width w are random unless given.
    """
    if cone is None:
        cone = random_cone(rng, 3)
    tau = cone.tau
    d = cone.det_abs
    if w is None:
        w = rng.randint(1, 3)
    h = (-tau * w) % d or d
    s0 = rng.randint(0, 3)
    t0 = (tau * s0) % d + d * (-(-m * h // d) + rng.randint(0, 1))
    run = tuple(Corner(s0 + i * w, t0 - i * h) for i in range(m + 1))
    return MonomialIdeal(cone, Staircase(run))


def random_index_ideal(rng: random.Random, d_max: int = 10**4) -> MonomialIdeal:
    """An ideal of a cone of index up to d_max whose steps are up to 30 columns wide.

    Steps that wide are often wider than det_abs has bits, so counts
    over them take the floor-sum branches.  The ideals are not always
    saturated.
    """
    d = rng.randint(2, d_max)
    k = rng.randint(-d, d)
    while gcd(k, d) != 1:
        k = rng.randint(-d, d)
    cone = Cone2.from_rays(*rng.choice([((1, 0), (k, d)), ((0, 1), (d, k))]))
    tau = cone.tau
    ss = [rng.randint(0, 3)]
    for _ in range(rng.randint(1, 3)):
        ss.append(ss[-1] + rng.randint(1, 30))
    # the least admissible t above the previous one, plus up to two whole periods
    ts = [(tau * ss[-1]) % d]
    for s in reversed(ss[:-1]):
        ts.append(ts[-1] + 1 + (tau * s - ts[-1] - 1) % d + d * rng.randint(0, 2))
    return MonomialIdeal(cone, Staircase(tuple(Corner(s, t) for s, t in zip(ss, reversed(ts)))))


def random_staircase(rng: random.Random, max_corners: int = 5, spread: int = 10):
    corners = [
        Corner(rng.randint(0, spread), rng.randint(0, spread))
        for _ in range(rng.randint(1, max_corners))
    ]
    return pareto_minimal(corners)


def grounded(stair: Staircase) -> tuple[Corner, Staircase]:
    """A threshold meeting the staircase, for bounded-region tests."""
    return Corner(stair.min_s, stair.min_t), stair


def fit_oracle(seq, period: int, verify_window: int = 5) -> QuasiPolynomial:
    """Fit oracle: each class's quadratic evaluated in Fractions at every entry.

    Interpolates through the last three entries of a class, checks the
    last verify_window entries, then walks back from the last entry
    while the quadratic still matches to find the onset.  Raises the
    same exceptions, with the same messages, as fit_quasi_polynomial.
    """
    if period < 1:
        raise BadParameters("period must be a positive integer")
    if verify_window < 3:
        raise BadParameters("verify window must be at least 3")
    if len(seq) < 7 * period:
        raise BadParameters(
            f"need at least {7 * period} entries to fit period {period}"
        )
    classes = []
    for residue in range(period):
        pts = [(n, seq[n]) for n in range(len(seq)) if n % period == residue]
        coeffs = _quadratic_through(pts[-3:])
        fit = ClassFit(residue, coeffs, pts[0][0])
        if any(fit.evaluate(n) != v for n, v in pts[-verify_window:]):
            raise NoStabilization(
                f"residue class {residue} does not match its quadratic "
                f"on the last {verify_window} entries"
            )
        onset = pts[-1][0]
        for n, v in reversed(pts):
            if fit.evaluate(n) != v:
                break
            onset = n
        classes.append(ClassFit(residue, coeffs, onset))
    return QuasiPolynomial(period, tuple(classes))


def tor_table_oracle(r: int) -> tuple[tuple[int, ...], ...]:
    """Type A Tor table oracle: min(i, j, r - i, r - j) entry by entry."""
    return tuple(tuple(min(i, j, r - i, r - j) for j in range(1, r)) for i in range(1, r))


def pairing_oracle(multiplicities, weights, table) -> Fraction:
    """Pairing oracle: the double sum of u_i * w_j * T(i, j), one Fraction term at a time."""
    u = list(multiplicities)
    v = [Fraction(w) for w in weights]
    if len(u) != table.dim or len(v) != table.dim:
        raise DimensionMismatch(
            f"table is {table.dim}x{table.dim} but got {len(u)} multiplicities "
            f"and {len(v)} weights"
        )
    if any(x < 0 for x in u):
        raise BadParameters("module multiplicities must be nonnegative")
    if any(w < 0 for w in v):
        raise BadParameters("limit weights must be nonnegative")
    total = Fraction(0)
    for i, ui in enumerate(u, start=1):
        if ui == 0:
            continue
        for j, vj in enumerate(v, start=1):
            total += ui * vj * table.entry(i, j)
    return total


def forbid_listing(monkeypatch, most: int = 0) -> None:
    """Make listing more than most corners of a staircase raise.

    A staircase lists its corners when it is built from over most of
    them, and when the corners of one stored only as its runs are read.
    The corners a staircase was built from stay readable.
    """
    build, view = Staircase.__init__, Staircase.corners

    def building(stair, corners):
        if len(corners) > most:
            raise AssertionError(f"listed {len(corners)} corners, over {most}")
        build(stair, corners)

    def reading(stair):
        if stair._corners is None:
            raise AssertionError(f"listed the corners of the runs {stair.runs}")
        return view.fget(stair)

    monkeypatch.setattr(Staircase, "__init__", building)
    monkeypatch.setattr(Staircase, "corners", property(reading))


def count_floor_sums(monkeypatch) -> list:
    """Record the arguments of every geometry._floor_sum call from now on."""
    calls, inner = [], geometry._floor_sum

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(geometry, "_floor_sum", counted)
    return calls


def column_walk_dots(rect, tau: int, step: int) -> list:
    """Dot oracle: the lattice corners of a rectangle, one column at a time."""
    a, b, lo, hi = rect
    return [(s, t) for s in range(a, b) for t in range(lo + (tau * s - lo) % step, hi, step)]


def assert_value_type(make, other) -> None:
    """Two values built separately by make() are equal and hash alike; other is unequal."""
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other and other != a
