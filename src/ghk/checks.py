"""Self-contained consistency checks and the brute-force region oracle.

The oracle answers the defining question about the limit closure
directly, without the threshold shortcut: translating the cone to a
point p, is everything far out in the translate already inside the
ideal region?  It walks actual lattice points: one exact integer
interval per line of the ambient plane, along the axis with fewer
lines, not by the arithmetic-progression counting the fast path uses.
Each line's interval is a few floor divisions in closed form.  Along a
line it steps the corner by one addition per coordinate, listing no
points, and compares each corner, shifted by p's, with the generator
corners in turn, in a plain loop that stops at the first it dominates.
Far means three corner boxes: a fundamental window beyond the maximal
generator corners and one deep box across each boundary strip, which
decides the strip's tails because membership is monotone along columns
and rows.  One call answers a list of points and lists each box's lines
once: the window is the same for every point, and a strip the same for
every point of the same depth.

run_instance_checks bundles the oracle with the scaling, additivity,
and convergence properties into a pass/fail report for one instance.
Its cost is linear in det_abs and in the staircase's far ends, so it
estimates the scan work first and refuses above _MAX_VERIFY_WORK.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import BadParameters, GhkError
from .geometry import Cone2, Point, _box_points_bound
from .ideals import (
    MonomialIdeal,
    frobenius_power,
    is_saturated,
    ordinary_power,
    saturation,
    torsion_factorization,
)
from .invariants import (
    convergence_constant,
    eghk,
    epsilon_estimate,
    frobenius_gap_split,
    ghk_function,
    newton_multiplicity,
)


def threshold_membership(ideal: MonomialIdeal, p: Point) -> bool:
    """The fast limit-closure test: both corners weakly above the thresholds."""
    s, t = ideal.cone.corner(p)
    c1, c2 = ideal.thresholds
    return s >= c1 and t >= c2


def _spans(cone: Cone2, w: int, h: int) -> tuple[int, int]:
    # det_abs times the y- and the x-extent of a w x h corner box's preimage
    (a1, b1), (a2, b2) = cone.normal1, cone.normal2
    return abs(a2) * w + abs(a1) * h, abs(b2) * w + abs(b1) * h


def _lines(n1: Point, n2: Point, box: tuple[int, int, int, int]) -> list[tuple[int, int, int]]:
    # (x, y_lo, y_hi) per vertical line x: its points (x, y) with corners <n1, p>, <n2, p>
    # in the box are those with y_lo <= y <= y_hi; no lines for an empty box
    (a1, b1), (a2, b2), (s_lo, s_hi, t_lo, t_hi) = n1, n2, box
    if s_hi <= s_lo or t_hi <= t_lo:
        return []
    det = a1 * b2 - b1 * a2
    # det times the x-coordinates of the parallelogram's vertices; dividing by a
    # negative det reverses their order, and row scans swap the normals' components
    xs = [b2 * s - b1 * t for s in (s_lo, s_hi) for t in (t_lo, t_hi)]
    left, right = (min(xs), max(xs)) if det > 0 else (max(xs), min(xs))
    x_lo, x_hi = left // det, -(-right // det) + 1
    # each side lo <= a * x + b * y < hi with b > 0 is y_lo = (lo + b - 1 - a * x) // b and
    # y_hi = (hi - 1 - a * x) // b; a primitive normal with b == 0 has a == +-1 and clips x
    sides = []
    for a, b, lo, hi in ((a1, b1, s_lo, s_hi), (a2, b2, t_lo, t_hi)):
        if b < 0 or (b == 0 and a < 0):
            a, b, lo, hi = -a, -b, 1 - hi, 1 - lo
        if b:
            sides.append((a, b, lo + b - 1, hi - 1))
        else:
            x_lo, x_hi = max(x_lo, lo), min(x_hi, hi)
    if len(sides) == 1:
        (a, b, lo, hi), = sides
        return [(x, (lo - a * x) // b, (hi - a * x) // b) for x in range(x_lo, x_hi)]
    (a1, b1, lo1, hi1), (a2, b2, lo2, hi2) = sides
    return [
        (x, max((lo1 - a1 * x) // b1, (lo2 - a2 * x) // b2),
         min((hi1 - a1 * x) // b1, (hi2 - a2 * x) // b2))
        for x in range(x_lo, x_hi)
    ]


def _scan_normals(cone: Cone2, box: tuple[int, int, int, int]) -> tuple[bool, Point, Point]:
    # whether the box is scanned along rows, and the normals _lines takes for that
    (a1, b1), (a2, b2) = cone.normal1, cone.normal2
    rows, columns = _spans(cone, box[1] - box[0], box[3] - box[2])
    if rows < columns:
        return True, (b1, a1), (b2, a2)
    return False, (a1, b1), (a2, b2)


def lattice_points_in_corner_box(
    cone: Cone2, s_lo: int, s_hi: int, t_lo: int, t_hi: int
) -> list[Point]:
    """All lattice points whose corners lie in [s_lo, s_hi) x [t_lo, t_hi).

    Points come x ascending, then y ascending.  Each line through the
    preimage parallelogram meets it in one integer interval, the
    intersection of the two corner inequalities, so scanning the
    direction with fewer lines (vertical unless horizontal is strictly
    fewer, then sorting) costs O(lines + points).  It does not rely on
    the column progression structure the fast counting uses.
    """
    box = (s_lo, s_hi, t_lo, t_hi)
    by_rows, n1, n2 = _scan_normals(cone, box)
    pts = [(x, y) for x, lo, hi in _lines(n1, n2, box) for y in range(lo, hi + 1)]
    return sorted((x, y) for y, x in pts) if by_rows else pts


def saturation_region_oracle(ideal: MonomialIdeal, points: list[Point]) -> list[bool]:
    """Brute-force test, for each point p, that p + cone is eventually inside the ideal region.

    Scans three corner boxes per point: a fundamental window past the
    maximal generator corners (coverage there propagates to every
    deeper point by monotonicity), and one deep box across the low-s
    strip and one across the low-t strip (membership along a column or
    row is monotone, so a box det_abs deep decides every tail of the
    strip).  A point g of a box is covered when corner(p) + corner(g)
    dominates some generator corner; p is outside as soon as some box
    holds a point left uncovered.  Each box is listed once per call, as
    lines: the window is shared by every point, and a strip by every
    point with the same depth.
    """
    cone = ideal.cone
    d = cone.det_abs
    corners = [cone.corner(g) for g in ideal.gens]
    t1 = max(s for s, _ in corners)
    t2 = max(t for _, t in corners)
    window = (t1, t1 + d, t2, t2 + d)
    scans = {}

    def covered(box: tuple[int, int, int, int], ps: int, pt: int) -> bool:
        # walks each line's corners, shifted by (ps, pt), one step of <n1, e>, <n2, e> per point
        if box not in scans:
            _, n1, n2 = _scan_normals(cone, box)
            # a list, never an iterator: every point that reaches the box walks it again
            scans[box] = list(_lines(n1, n2, box)), n1, n2
        lines, (a1, b1), (a2, b2) = scans[box]
        for x, lo, hi in lines:
            s, t = a1 * x + b1 * lo + ps, a2 * x + b2 * lo + pt
            for _ in range(lo, hi + 1):
                for cs, ct in corners:
                    if s >= cs and t >= ct:
                        break
                else:
                    return False
                s += b1
                t += b2
        return True

    def inside(p: Point) -> bool:
        ps, pt = cone.corner(p)
        deep_s, deep_t = t1 + max(0, -ps), t2 + max(0, -pt)
        # the window, then the low-s and the low-t strip, each scanned only if the last passed
        boxes = [window, (0, t1, deep_t, deep_t + d), (deep_s, deep_s + d, 0, t2)]
        return all(covered(box, ps, pt) for box in boxes)

    return [inside(p) for p in points]


_PROBES = 8  # points _probe_points returns, each walked by the oracle


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _probe_points(ideal: MonomialIdeal) -> list[Point]:
    """The eight lattice points on the four lines beside the threshold lines.

    Columns s = c1 - 1 and s = c1 are each cut to the det_abs rows on
    either side of t = c2, and rows t = c2 - 1 and t = c2 to the det_abs
    columns on either side of s = c1.  A line holds one lattice point
    in any det_abs consecutive places, so each thin box holds two, one on
    each side of the other threshold line: the points of column c1 and
    row c2 that are inside the threshold quadrant, and six that are
    outside, one step across a threshold line or beside the corner.  A
    test that moves either threshold by one, or ignores one, answers
    some of them wrongly.  A point may lie on a column and a row both,
    and is then listed twice.
    """
    cone, (c1, c2) = ideal.cone, ideal.thresholds
    d = cone.det_abs
    points = []
    for s in (c1 - 1, c1):
        points += lattice_points_in_corner_box(cone, s, s + 1, c2 - d, c2 + d)
    for t in (c2 - 1, c2):
        points += lattice_points_in_corner_box(cone, c1 - d, c1 + d, t, t + 1)
    return points


_MAX_VERIFY_WORK = 1_000_000  # lines and points of the box scans, about 0.15 s in process


def _box_work(cone: Cone2, w: int, h: int) -> int:
    # lines the scan walks over a w x h corner box, plus a bound on its points
    d = cone.det_abs
    return min(_spans(cone, w, h)) // d + 3 + _box_points_bound(w, h, d)


def _scan_work(ideal: MonomialIdeal, probes: int) -> int:
    """Upper estimate of the lines and points that the box scans of the suites visit.

    The four thin boxes _probe_points scans, two columns 2 * det_abs
    rows high and two rows 2 * det_abs columns wide, for the ideal and
    for its third bracket power; then per probe the oracle's three
    boxes: the window and the two strips below the staircase's largest
    s and largest t.
    """
    cone, stair, d = ideal.cone, ideal.stair, ideal.cone.det_abs
    boxes = [(d, d), (stair.max_s, d), (d, stair.max_t)]
    per_probe = sum(_box_work(cone, w, h) for w, h in boxes)
    lines = 2 * _box_work(cone, 1, 2 * d) + 2 * _box_work(cone, 2 * d, 1)
    return 2 * lines + probes * per_probe


def run_instance_checks(ideal: MonomialIdeal) -> list[CheckResult]:
    """Run every library invariant suite against one ideal.

    Raises BadParameters, before any suite runs, when the suites' box
    scans would visit more than _MAX_VERIFY_WORK lines and points.  The
    suites share the powers the ideal keeps, so each is built once.  A
    BadParameters inside a suite is a work cap (the power DP's is the
    only one a suite's arguments can reach), not a failed property, so
    it ends the run and is re-raised; any other GhkError or failed
    assertion marks its suite as FAIL.
    """
    work = _scan_work(ideal, _PROBES)
    if work > _MAX_VERIFY_WORK:
        raise BadParameters(f"verify needs about {work} scan steps, over {_MAX_VERIFY_WORK}")
    results: list[CheckResult] = []

    def record(name: str, fn) -> None:
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail or "ok"))
        except BadParameters:
            raise
        except GhkError as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc) or "assertion failed"))

    c1, c2 = ideal.thresholds

    def frobenius_scaling() -> str:
        for q in (2, 3, 5):
            fp = frobenius_power(ideal, q)
            assert fp.thresholds == (q * c1, q * c2), f"thresholds at q={q}"
            assert fp.stair.corners == ideal.stair.scale(q).corners, f"stair at q={q}"
        return "q = 2, 3, 5"

    def ordinary_thresholds() -> str:
        for n in (2, 3):
            assert ordinary_power(ideal, n).thresholds == (n * c1, n * c2), f"n={n}"
        return "n = 2, 3"

    def membership_chain() -> str:
        q = 3
        frob = frobenius_power(ideal, q)
        ordn = ordinary_power(ideal, q)
        pts = [tuple(g) for g in frob.gens] + _probe_points(frob)
        checked = 0
        for p in pts:
            c = frob.cone.corner(p)
            if frob.stair.dominates(c):
                assert ordn.stair.dominates(c), f"bracket power point {p} not in power"
            if ordn.stair.dominates(c):
                assert c[0] >= q * c1 and c[1] >= q * c2, f"power point {p} below thresholds"
            checked += 1
        return f"{checked} points at q = {q}"

    def saturation_oracle() -> str:
        pts = _probe_points(ideal)
        for p, slow in zip(pts, saturation_region_oracle(ideal, pts)):
            fast = threshold_membership(ideal, p)
            assert fast == slow, f"oracle disagrees at {p}: fast={fast} slow={slow}"
        return f"{len(pts)} probes"

    def area_count_convergence() -> str:
        area = eghk(ideal)
        n, d = area.numerator, area.denominator
        bound_scale = convergence_constant(ideal)
        for q, gaps in zip((8, 16, 32), ghk_function(ideal, 2, 5)[3:]):
            # |gaps / q^2 - n / d| <= bound_scale / q, times q^2 * d > 0
            assert abs(gaps * d - n * q * q) <= bound_scale * q * d, f"q={q}"
        return "q = 8, 16, 32"

    def frobenius_area_scaling() -> str:
        base = eghk(ideal)
        for q in (2, 3):
            assert eghk(frobenius_power(ideal, q)) == q * q * base, f"q={q}"
        return "q = 2, 3"

    def gap_split_additivity() -> str:
        if not is_saturated(ideal):
            return "skipped: ideal is not saturated"
        for q in (2, 3, 4):
            split = frobenius_gap_split(ideal, q)
            assert split.total_gap == split.sym_vs_ord + split.ord_vs_frob, f"q={q}"
        return "q = 2, 3, 4"

    def degeneracy() -> str:
        sat = saturation(ideal)
        zero_area = eghk(sat) == 0
        principal = len(sat.gens) == 1
        corner_hit = any(c == (c1, c2) for c in sat.stair.corners)
        assert zero_area == principal == corner_hit, (
            f"area zero: {zero_area}, principal: {principal}, corner: {corner_hit}"
        )
        return f"degenerate: {zero_area}"

    def epsilon_inequality() -> str:
        n_max = 10
        est = epsilon_estimate(ideal, n_max)
        assert eghk(ideal) >= est - Fraction(2, n_max), f"estimate {est}"
        return f"estimate {est} at n = {n_max}"

    def torsion_roundtrip() -> str:
        if not is_saturated(ideal):
            return "skipped: ideal is not saturated"
        fact = torsion_factorization(ideal)
        rebuilt = ordinary_power(ideal, fact.order)
        shifted = sorted((x + fact.shift[0], y + fact.shift[1]) for x, y in fact.primary.gens)
        assert shifted == sorted(rebuilt.gens), "shift does not rebuild the power"
        newton_multiplicity(fact.primary)
        return f"order {fact.order}, shift {fact.shift}"

    record("frobenius-scaling", frobenius_scaling)
    record("ordinary-power-thresholds", ordinary_thresholds)
    record("membership-chain", membership_chain)
    record("saturation-oracle", saturation_oracle)
    record("area-count-convergence", area_count_convergence)
    record("frobenius-area-scaling", frobenius_area_scaling)
    record("gap-split-additivity", gap_split_additivity)
    record("degeneracy-equivalence", degeneracy)
    record("epsilon-inequality", epsilon_inequality)
    record("torsion-roundtrip", torsion_roundtrip)
    return results

