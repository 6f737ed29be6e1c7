"""Self-contained consistency checks and the brute-force region oracle.

The oracle answers the defining question about the limit closure
directly, without the threshold shortcut: translating the cone to a
point p, is everything far out in the translate already inside the
ideal region?  It scans actual lattice points (found by bounding-box
search in the ambient plane, not by the arithmetic-progression counting
the fast path uses) and tests membership by direct comparison against
the generator corners.  Far means: a fundamental window of columns
beyond the maximal generator corners, plus one test point per column or
row of the two boundary strips, which decides each strip tail because
membership is monotone along a column.

run_instance_checks bundles the oracle with the scaling, additivity,
and convergence properties into a pass/fail report for one instance.
"""

import random
from fractions import Fraction
from math import ceil, floor
from typing import NamedTuple

from .errors import GhkError
from .geometry import Cone2, Point
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


def in_ideal_naive(ideal: MonomialIdeal, p: Point) -> bool:
    """Membership by direct domination against each generator corner."""
    c = ideal.cone.corner(p)
    return any(
        c.s >= w.s and c.t >= w.t for w in (ideal.cone.corner(g) for g in ideal.gens)
    )


def threshold_membership(ideal: MonomialIdeal, p: Point) -> bool:
    """The fast limit-closure test: both corners weakly above the thresholds."""
    c = ideal.cone.corner(p)
    c1, c2 = ideal.thresholds
    return c.s >= c1 and c.t >= c2


def lattice_points_in_corner_box(
    cone: Cone2, s_lo: int, s_hi: int, t_lo: int, t_hi: int
) -> list[Point]:
    """All lattice points whose corners lie in [s_lo, s_hi) x [t_lo, t_hi).

    Found by scanning the integer bounding box of the preimage
    parallelogram, so it does not rely on the column progression
    structure the fast counting uses.
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
            c = cone.corner((x, y))
            if s_lo <= c.s < s_hi and t_lo <= c.t < t_hi:
                pts.append((x, y))
    return pts


def saturation_region_oracle(ideal: MonomialIdeal, p: Point) -> bool:
    """Brute-force test that p + cone is eventually inside the ideal region.

    Checks three exhaustive pieces: a fundamental window of columns past
    the maximal generator corners (coverage there propagates to every
    deeper point by monotonicity), and one deep test point per column of
    the low-s strip and per row of the low-t strip (membership along a
    column or row is monotone, so a single deep point decides the tail).
    Returns False as soon as some tail stays outside.
    """
    cone = ideal.cone
    step = cone.det_abs
    pc = cone.corner(p)
    corners = [cone.corner(g) for g in ideal.gens]
    t1 = max(c.s for c in corners)
    t2 = max(c.t for c in corners)
    deep_s = t1 + max(0, -pc.s)
    deep_t = t2 + max(0, -pc.t)

    def covered(g: Point) -> bool:
        return in_ideal_naive(ideal, (p[0] + g[0], p[1] + g[1]))

    window = lattice_points_in_corner_box(cone, t1, t1 + step, t2, t2 + step)
    if not all(covered(g) for g in window):
        return False
    for s in range(0, t1):
        column = lattice_points_in_corner_box(cone, s, s + 1, deep_t, deep_t + step)
        if not all(covered(g) for g in column):
            return False
    for t in range(0, t2):
        row = lattice_points_in_corner_box(cone, deep_s, deep_s + step, t, t + 1)
        if not all(covered(g) for g in row):
            return False
    return True


def witness_ray_outside(ideal: MonomialIdeal, p: Point, count: int = 8) -> bool:
    """For p below a threshold, verify a whole ray of translates stays outside.

    Moving along the facet ray that keeps the deficient corner constant
    can never reach the ideal region; checks the first few steps.
    """
    c = ideal.cone.corner(p)
    c1, c2 = ideal.thresholds
    if c.s < c1:
        ray = ideal.cone.ray1
    elif c.t < c2:
        ray = ideal.cone.ray2
    else:
        return False
    return not any(
        in_ideal_naive(ideal, (p[0] + k * ray[0], p[1] + k * ray[1]))
        for k in range(count)
    )


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _probe_points(ideal: MonomialIdeal, rng: random.Random, want: int) -> list[Point]:
    cone = ideal.cone
    step = cone.det_abs
    c1, c2 = ideal.thresholds
    pad = 2 * step + 2
    pool = lattice_points_in_corner_box(
        cone, c1 - pad, c1 + pad + 1, c2 - pad, c2 + pad + 1
    )
    if len(pool) <= want:
        return pool
    return rng.sample(pool, want)


def run_instance_checks(ideal: MonomialIdeal, probes: int = 8) -> list[CheckResult]:
    """Run every library invariant suite against one ideal."""
    rng = random.Random(2026)
    results: list[CheckResult] = []

    def record(name: str, fn) -> None:
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail or "ok"))
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
        pts = [tuple(g) for g in frob.gens]
        pts += _probe_points(frob, rng, probes)
        checked = 0
        for p in pts:
            c = frob.cone.corner(p)
            if frob.stair.dominates(c):
                assert ordn.stair.dominates(c), f"bracket power point {p} not in power"
            if ordn.stair.dominates(c):
                assert c.s >= q * c1 and c.t >= q * c2, f"power point {p} below thresholds"
            checked += 1
        return f"{checked} points at q = {q}"

    def saturation_oracle() -> str:
        pts = _probe_points(ideal, rng, probes)
        for p in pts:
            fast = threshold_membership(ideal, p)
            slow = saturation_region_oracle(ideal, p)
            assert fast == slow, f"oracle disagrees at {p}: fast={fast} slow={slow}"
            if not fast:
                assert witness_ray_outside(ideal, p), f"no witness ray at {p}"
        return f"{len(pts)} probes"

    def area_count_convergence() -> str:
        area = eghk(ideal)
        bound_scale = convergence_constant(ideal)
        for q, gaps in zip((8, 16, 32), ghk_function(ideal, 2, 5)[3:]):
            assert abs(Fraction(gaps, q * q) - area) <= Fraction(bound_scale, q), f"q={q}"
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
        power = ordinary_power(ideal, fact.order)
        shifted = sorted(
            (x + fact.shift[0], y + fact.shift[1]) for x, y in fact.primary.gens
        )
        assert shifted == sorted(power.gens), "shift does not rebuild the power"
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

