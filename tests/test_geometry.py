import ast
import random
from collections import Counter
from fractions import Fraction
from itertools import groupby
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_value_type,
    box_scan_points,
    brute_count_complement,
    column_count_band,
    column_count_complement,
    count_floor_sums,
    floor_sum_count_complement,
    forbid_listing,
    grounded,
    non_run_ideal,
    one_run_ideal,
    progression_count,
    random_cone,
    random_ideal,
    random_index_ideal,
    random_staircase,
    shoelace_complement_area,
    unimodular,
)
from ghk import geometry
from ghk.errors import CollinearRays, EmptyInput, UnboundedRegion
from ghk.families import a_singularity, quadrant, veronese
from ghk.geometry import (
    Cone2,
    Corner,
    Staircase,
    _count_run_band,
    _count_under,
    _floor_sum,
    _rectangles,
    count_lattice_band,
    count_lattice_complement,
    dot,
    pareto_minimal,
    staircase_complement_area,
)
from ghk.ideals import (
    MonomialIdeal,
    frobenius_power,
    is_saturated,
    new_ideal,
    ordinary_power,
    saturation,
    torsion_factorization,
)
from ghk.invariants import frobenius_gap_split

GEOMETRY = Path(__file__).resolve().parent.parent / "src" / "ghk" / "geometry.py"


def record_band_runs(monkeypatch) -> list:
    """Record (tau, step, w, delta, run) for every geometry._band_run call from now on."""
    calls, inner = [], geometry._band_run

    def recorded(tau, step, bits, a0, w, lo0, top, delta, run):
        calls.append((tau, step, w, delta, run))
        return inner(tau, step, bits, a0, w, lo0, top, delta, run)

    monkeypatch.setattr(geometry, "_band_run", recorded)
    return calls


@pytest.fixture(autouse=True)
def band_runs_move_by_lattice_vectors(monkeypatch):
    # every band run that any test here counts, of lattice staircases or not, is
    # one rectangle or has bottoms that move by a lattice vector: _band_run reads
    # each run off its first rectangle and needs no residue classes
    calls = record_band_runs(monkeypatch)
    yield
    odd = [call for call in calls if call[4] > 1 and (call[3] - call[0] * call[2]) % call[1]]
    assert odd == [], odd[:5]


def lattice_row(cone: Cone2, s: int, t: int) -> int:
    """The lowest row at or above t whose corner in column s is a lattice point's."""
    return t + (cone.tau * s - t) % cone.det_abs


def on_lattice(cone: Cone2, corners) -> Staircase:
    """The staircase of the corners, each first lifted to the lowest lattice corner above it.

    Every corner is then a lattice point's and every step a lattice
    vector, as in an ideal's staircase: one a complement count takes.
    """
    return pareto_minimal([Corner(s, lattice_row(cone, s, t)) for s, t in corners])


def scaled_pair(rng: random.Random, q: int, cone: Cone2 = None, lattice: bool = False):
    """A random cone, threshold and nested staircases fine >= coarse at scale q.

    coarse is a random staircase scaled by q.  fine adds corners below it,
    some anywhere in the box and some one to three columns right of a
    coarse corner, so its steps are both narrower and wider than det_abs.
    The cone is random unless one is given.  With lattice, every corner
    is lifted onto the lattice (on_lattice), coarse's before it is scaled.
    """
    if cone is None:
        cone = random_cone(rng, rng.randint(1, 12))
    base = random_staircase(rng, max_corners=8)
    if lattice:
        base = on_lattice(cone, base.corners)
    threshold, coarse = grounded(base.scale(q))
    extra = []
    for _ in range(rng.randint(0, 4)):
        cs, ct = rng.choice(coarse.corners)
        extra.append(Corner(cs + rng.randint(1, 3), max(threshold.t, ct - rng.randint(1, 3))))
        extra.append(
            Corner(rng.randint(threshold.s, coarse.max_s), rng.randint(threshold.t, coarse.max_t))
        )
    corners = list(coarse.corners) + extra
    fine = on_lattice(cone, corners) if lattice else pareto_minimal(corners)
    return cone, threshold, fine, coarse


def run_staircase(rng: random.Random, bits: int, cone: Cone2 = None) -> Staircase:
    """Runs of 1 to 60 equal steps, each followed by up to three irregular steps.

    A run's steps are narrow (at most bits columns wide) or wide (more
    than bits), so _count_under takes every branch on them.  Given a
    cone, each step height is lifted to the lowest that makes the step a
    lattice vector, and the first corner onto the lattice.
    """
    steps = []
    for _ in range(rng.randint(1, 4)):
        w = rng.choice([rng.randint(1, bits), rng.randint(bits + 1, 3 * bits + 8)])
        steps += [(w, rng.randint(1, 12))] * rng.randint(1, 60)
        for _ in range(rng.randint(0, 3)):
            steps.append((rng.randint(1, 3 * bits + 8), rng.randint(1, 12)))
    if cone is not None:
        # (w, -h) is a lattice step when h == tau * -w (mod det_abs), the lattice row of column -w
        steps = [(w, lattice_row(cone, -w, h)) for w, h in steps]
    s, t = rng.randint(0, 5), rng.randint(0, 5) + sum(h for _, h in steps)
    if cone is not None:
        t = lattice_row(cone, s, t)
    corners = [Corner(s, t)]
    for w, h in steps:
        s, t = s + w, t - h
        corners.append(Corner(s, t))
    return Staircase(tuple(corners))


def band_runs(rects) -> list[tuple[int, int, int]]:
    """(w, R, delta) for each maximal stretch of R touching rectangles w wide
    under one top whose bottoms move by one constant delta (0 when R = 1)."""
    runs, prev = [], None
    for a, b, lo, hi in rects:
        if prev and (prev[1], prev[1] - prev[0], prev[3]) == (a, b - a, hi) and (
            runs[-1][1] == 1 or lo - prev[2] == runs[-1][2]
        ):
            runs[-1][2] = lo - prev[2]
            runs[-1][1] += 1
        else:
            runs.append([b - a, 1, 0])
        prev = (a, b, lo, hi)
    return [tuple(r) for r in runs]


def residue_kind(step: int, slope: int, run: int) -> str:
    """How the steps of a run of R = run equal steps sit against the lattice.

    The column sums of step j of the run move by slope per step, so
    steps P = det_abs / gcd(det_abs, slope) apart are one lattice vector
    apart: neighbours ("P = 1"), steps fewer than R apart ("1 < P < R")
    or no two steps of the run ("P >= R").
    """
    period = step // gcd(step, slope)
    return "P = 1" if period == 1 else "1 < P < R" if period < run else "P >= R"


QUADRANT = Cone2.from_rays((1, 0), (0, 1))
SKEW = Cone2.from_rays((1, 0), (1, 3))
DUAL = Cone2.from_rays((0, 1), (3, -1))


class TestCone:
    def test_quadrant_normals(self):
        assert QUADRANT.normal1 == (0, 1)
        assert QUADRANT.normal2 == (1, 0)
        assert QUADRANT.det_abs == 1

    def test_skew_normals(self):
        assert SKEW.normal1 == (0, 1)
        assert SKEW.normal2 == (3, -1)
        assert SKEW.det_abs == 3

    def test_dual_normals(self):
        assert DUAL.normal1 == (1, 0)
        assert DUAL.normal2 == (1, 3)
        assert DUAL.det_abs == 3

    def test_equal_rays_make_equal_cones(self):
        assert_value_type(lambda: Cone2((1, 0), (1, 3)), Cone2((1, 3), (1, 0)))
        assert Cone2.from_rays((2, 0), (1, 3)) == Cone2((1, 0), (1, 3))
        assert repr(SKEW) == f"Cone2(ray1={SKEW.ray1}, ray2={SKEW.ray2})"

    def test_rays_reduced_to_primitive(self):
        cone = Cone2.from_rays((2, 0), (0, 5))
        assert cone.ray1 == (1, 0)
        assert cone.ray2 == (0, 1)

    def test_collinear_rays_rejected(self):
        with pytest.raises(CollinearRays):
            Cone2.from_rays((1, 2), (2, 4))
        with pytest.raises(CollinearRays):
            Cone2.from_rays((1, 2), (-2, -4))
        with pytest.raises(CollinearRays):
            Cone2.from_rays((0, 0), (1, 0))

    def test_inconsistent_hand_built_cone_rejected(self):
        with pytest.raises(ValueError, match="primitive"):
            Cone2((2, 0), (0, 1))
        with pytest.raises(CollinearRays, match="collinear"):
            Cone2((1, 2), (-1, -2))

    def test_corner_examples(self):
        assert QUADRANT.corner((2, 3)) == (3, 2)
        assert SKEW.corner((2, 1)) == (1, 5)
        assert DUAL.corner((3, -1)) == (3, 0)

    def test_mixed_pairings_equal_index(self):
        # the identities between rays, normals, index and column lattice, on random
        # cones and their GL2(Z) images, with the rays in both orders
        rng = random.Random(7)
        for _ in range(200):
            base = random_cone(rng, rng.randint(1, 30))
            (a, b), (c, d) = unimodular(rng)
            image = [(a * x + b * y, c * x + d * y) for x, y in (base.ray1, base.ray2)]
            for r1, r2 in ((base.ray1, base.ray2), tuple(image)):
                for cone in (Cone2(r1, r2), Cone2(r2, r1)):
                    n1, n2 = cone.normal1, cone.normal2
                    assert abs(n1[0] * n2[1] - n1[1] * n2[0]) == cone.det_abs == base.det_abs
                    assert cone.det_abs > 0
                    assert gcd(*cone.ray1) == gcd(*cone.ray2) == gcd(*n1) == gcd(*n2) == 1
                    assert dot(n1, cone.ray1) == dot(n2, cone.ray2) == 0
                    assert dot(n1, cone.ray2) == dot(n2, cone.ray1) == cone.det_abs
                    assert dot(n1, cone.u) == 1
                    assert cone.tau == dot(n2, cone.u)
                    p = (rng.randint(-50, 50), rng.randint(-50, 50))
                    assert cone.preimage(cone.corner(p)) == p

    def test_preimage_round_trip(self):
        rng = random.Random(11)
        for _ in range(60):
            cone = random_cone(rng)
            p = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert cone.preimage(cone.corner(p)) == p

    def test_preimage_missing_residue(self):
        assert SKEW.preimage(Corner(1, 1)) is None
        assert SKEW.preimage(Corner(1, 2)) == (1, 1)

    def test_corner_injective_on_lattice(self):
        rng = random.Random(13)
        for _ in range(30):
            cone = random_cone(rng)
            seen = {}
            for x in range(-4, 5):
                for y in range(-4, 5):
                    c = cone.corner((x, y))
                    assert c not in seen
                    seen[c] = (x, y)


class TestStaircase:
    def test_equal_corners_make_equal_staircases(self):
        corners = (Corner(0, 9), Corner(2, 5), Corner(5, 2))
        assert_value_type(lambda: Staircase(tuple(corners)), Staircase(corners[1:]))
        assert repr(Staircase(corners[2:])) == "Staircase(corners=(Corner(s=5, t=2),))"

    def test_pareto_drops_dominated(self):
        stair = pareto_minimal([Corner(0, 3), Corner(1, 2), Corner(2, 2)])
        assert stair.corners == (Corner(0, 3), Corner(1, 2))

    def test_pareto_keeps_antichain(self):
        corners = (Corner(0, 9), Corner(2, 5), Corner(5, 2), Corner(9, 0))
        assert pareto_minimal(corners).corners == corners

    def test_pareto_singleton(self):
        assert pareto_minimal([Corner(4, 4)]).corners == (Corner(4, 4),)

    def test_pareto_empty_input(self):
        with pytest.raises(EmptyInput):
            pareto_minimal([])

    def test_invalid_staircase_rejected(self):
        with pytest.raises(ValueError):
            Staircase((Corner(0, 3), Corner(1, 3)))
        with pytest.raises(EmptyInput):
            Staircase(())

    def test_height_and_dominates(self):
        stair = pareto_minimal([Corner(1, 4), Corner(3, 1)])
        assert stair.height(0) is None
        assert stair.height(1) == 4
        assert stair.height(2) == 4
        assert stair.height(3) == 1
        assert stair.height(99) == 1
        assert stair.dominates(Corner(3, 1))
        assert stair.dominates(Corner(2, 4))
        assert not stair.dominates(Corner(2, 3))
        assert not stair.dominates(Corner(0, 99))

    def test_scale(self):
        stair = pareto_minimal([Corner(1, 4), Corner(3, 1)])
        assert stair.scale(3).corners == (Corner(3, 12), Corner(9, 3))

    def test_runs_are_the_maximal_runs_of_equal_steps(self):
        # the multirun golden: 2 x (1, -9), 2 x (3, -2) and 1 x (14, -1)
        stair = Staircase(((3, 23), (4, 14), (5, 5), (8, 3), (11, 1), (25, 0)))
        assert stair.runs == ((3, 23, 1, 9, 2), (5, 5, 3, 2, 2), (11, 1, 14, 1, 1))
        assert Staircase((Corner(4, 4),)).runs == ((4, 4, 0, 0, 0),)
        assert Staircase(((0, 5), (1, 3), (3, 2), (4, 0))).runs == (
            (0, 5, 1, 2, 1), (1, 3, 2, 1, 1), (3, 2, 1, 2, 1))
        # a repeated corner is a step of (0, 0), refused even before any run
        repeated = [((1, 1), (1, 1)), ((0, 3), (1, 2), (2, 1), (2, 1))]
        for corners in repeated + [((0, 3), (1, 2), (1, 1))]:
            with pytest.raises(ValueError, match="sorted antichain"):
                Staircase(corners)

    def test_runs_and_corners_are_one_staircase(self):
        # a staircase rebuilt from its runs lists the same plain corners, equals
        # and hashes like it, and answers every query alike
        rng = random.Random(41)
        stairs = [run_staircase(rng, rng.randint(1, 6)) for _ in range(40)]
        stairs += [random_staircase(rng, max_corners=8) for _ in range(40)]
        for stair in stairs:
            rebuilt = Staircase._of_runs(stair.runs)
            assert rebuilt == stair and hash(rebuilt) == hash(stair)
            assert rebuilt.corners == stair.corners
            assert_plain(rebuilt.corners)
            cs = stair.corners
            assert (stair.min_s, stair.max_t, stair.max_s, stair.min_t) == (*cs[0], *cs[-1])
            for s in range(cs[0][0] - 1, cs[-1][0] + 2):
                below = [t for c, t in cs if c <= s]
                assert rebuilt.height(s) == (below[-1] if below else None)
            k = rng.randint(1, 5)
            assert stair.scale(k).corners == tuple((k * s, k * t) for s, t in cs)
            assert stair.scale(k) == Staircase(tuple((k * s, k * t) for s, t in cs))
        assert len({len(stair.runs) for stair in stairs}) > 5

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=12
        ),
        st.tuples(st.integers(0, 32), st.integers(0, 32)),
    )
    def test_pareto_preserves_dominance(self, pts, probe):
        corners = [Corner(*p) for p in pts]
        stair = pareto_minimal(corners)
        c = Corner(*probe)
        naive = any(c.s >= w.s and c.t >= w.t for w in corners)
        assert stair.dominates(c) == naive


class TestArea:
    def test_box_area(self):
        stair = pareto_minimal([Corner(2, 0), Corner(0, 3)])
        assert staircase_complement_area(QUADRANT, Corner(0, 0), stair) == 6

    def test_skew_area(self):
        stair = pareto_minimal([Corner(0, 3), Corner(1, 2)])
        assert staircase_complement_area(SKEW, Corner(0, 2), stair) == Fraction(1, 3)

    def test_zero_area_at_threshold_corner(self):
        stair = pareto_minimal([Corner(4, 5)])
        assert staircase_complement_area(SKEW, Corner(4, 5), stair) == 0

    def test_unbounded_region_raises(self):
        stair = pareto_minimal([Corner(1, 2), Corner(3, 0)])
        with pytest.raises(UnboundedRegion):
            staircase_complement_area(QUADRANT, Corner(0, 0), stair)
        with pytest.raises(UnboundedRegion):
            count_lattice_complement(QUADRANT, Corner(0, 0), stair)

    def test_area_matches_shoelace_oracle(self):
        rng = random.Random(17)
        for _ in range(120):
            cone = random_cone(rng)
            threshold, stair = grounded(random_staircase(rng))
            assert staircase_complement_area(
                cone, threshold, stair
            ) == shoelace_complement_area(cone, threshold, stair)

    def test_threshold_quadrant_cells_are_one_per_step(self):
        # the threshold quadrant as a one-corner lower staircase: one cell
        # (s_i, s_{i+1}, min_t, t_i) under each step, in order, none for one corner
        rng = random.Random(67)
        steps = Counter()
        for _ in range(200):
            stair = random_staircase(rng, max_corners=12, spread=40)
            threshold = Staircase((Corner(stair.min_s, stair.min_t),))
            cs = stair.corners
            cells = [(a.s, b.s, stair.min_t, a.t) for a, b in zip(cs, cs[1:])]
            assert _rectangles(threshold, stair) == cells
            steps[len(cells)] += 1
        assert steps[0] >= 20 and sum(k * n for k, n in steps.items()) >= 200

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=8
        ),
        st.tuples(st.integers(0, 19), st.integers(0, 19)),
    )
    def test_area_ignores_dominated_corners(self, pts, extra):
        stair = pareto_minimal([Corner(*p) for p in pts])
        c = Corner(stair.min_s + extra[0], stair.min_t + extra[1])
        if not stair.dominates(c):
            return
        bigger = pareto_minimal(list(stair.corners) + [c])
        threshold = Corner(stair.min_s, stair.min_t)
        assert bigger.corners == stair.corners
        assert staircase_complement_area(
            QUADRANT, threshold, bigger
        ) == staircase_complement_area(QUADRANT, threshold, stair)


class TestCount:
    def test_progression_count(self):
        # the per-column arithmetic behind the column oracles
        assert progression_count(0, 10, 0, 3) == 4
        assert progression_count(0, 10, 1, 3) == 3
        assert progression_count(5, 5, 0, 3) == 0
        assert progression_count(7, 8, 1, 3) == 1
        assert progression_count(7, 8, 0, 3) == 0
        assert progression_count(-6, -1, 2, 5) == 1

    def test_kernel_matches_column_and_box_oracles(self):
        # complements are counted on lattice staircases only, bands on any
        rng = random.Random(37)
        for _ in range(80):
            q = rng.randint(1, 8)
            for lattice in (False, True):
                cone, threshold, fine, coarse = scaled_pair(rng, q, lattice=lattice)
                brute = {}
                for stair in (fine, coarse):
                    brute[stair] = brute_count_complement(cone, threshold, stair)
                    if lattice:
                        count = count_lattice_complement(cone, threshold, stair)
                        assert count == column_count_complement(cone, threshold, stair)
                        assert count == brute[stair]
                band = count_lattice_band(cone, threshold, fine, coarse)
                assert band == column_count_band(cone, threshold, fine, coarse)
                assert band == brute[coarse] - brute[fine]

    def test_kernel_matches_column_oracle_up_to_q_1000(self):
        rng = random.Random(41)
        for _ in range(40):
            q = rng.randint(9, 1000)
            for lattice in (False, True):
                cone, threshold, fine, coarse = scaled_pair(rng, q, lattice=lattice)
                for stair in (fine, coarse) if lattice else ():
                    assert count_lattice_complement(
                        cone, threshold, stair
                    ) == column_count_complement(cone, threshold, stair)
                assert count_lattice_band(
                    cone, threshold, fine, coarse
                ) == column_count_band(cone, threshold, fine, coarse)

    def test_kernel_matches_floor_sum_oracle_up_to_2_40(self):
        rng = random.Random(43)
        for _ in range(300):
            q = rng.choice([rng.randint(1, 2**40), 2 ** rng.randint(0, 40)])
            for lattice in (False, True):
                cone, threshold, fine, coarse = scaled_pair(rng, q, lattice=lattice)
                outside = {}
                for stair in (fine, coarse):
                    outside[stair] = floor_sum_count_complement(cone, threshold, stair)
                    if lattice:
                        assert count_lattice_complement(cone, threshold, stair) == outside[stair]
                band = count_lattice_band(cone, threshold, fine, coarse)
                assert band == outside[coarse] - outside[fine]

    def test_floor_sum_matches_plain_sum(self):
        rng = random.Random(47)
        for _ in range(500):
            n, m = rng.randint(0, 300), rng.randint(1, 10**4)
            a, b = rng.randint(-(10**5), 10**5), rng.randint(-(10**9), 10**9)
            assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))

    def test_kernel_matches_column_oracle_on_wide_leftovers(self):
        # det_abs up to 10^4 and steps about as wide, so most rectangles leave
        # more columns over than det_abs has bits and take the floor sum
        rng = random.Random(49)
        wide = 0
        for _ in range(60):
            d = rng.randint(2, 10**4)
            k = rng.randint(-d, d)
            while gcd(k, d) != 1:
                k = rng.randint(-d, d)
            cone = Cone2.from_rays(*rng.choice([((1, 0), (k, d)), ((0, 1), (d, k))]))
            assert cone.det_abs == d
            q, rects = rng.randint(1, d // 2 + 1), []
            for lattice in (False, True):
                _, threshold, fine, coarse = scaled_pair(rng, q, cone, lattice)
                for stair in (fine, coarse) if lattice else ():
                    assert count_lattice_complement(
                        cone, threshold, stair
                    ) == column_count_complement(cone, threshold, stair)
                assert count_lattice_band(
                    cone, threshold, fine, coarse
                ) == column_count_band(cone, threshold, fine, coarse)
                rects += _rectangles(fine, coarse) + _rectangles(Staircase((threshold,)), coarse)
            wide += any((b - a) % d > d.bit_length() for a, b, _, _ in rects)
        assert wide >= 30

    def test_run_kernel_matches_column_and_floor_sum_oracles(self):
        # half the cones random, half of index up to 10^12; a run of R equal
        # lattice steps is R times its first step less a closed-form term, one
        # column sum
        rng = random.Random(53)
        kinds = Counter()
        for i in range(100):
            cone = random_index_ideal(rng, d_max=10**12).cone if i % 2 else random_cone(rng)
            bits = cone.det_abs.bit_length()
            threshold, stair = grounded(run_staircase(rng, bits, cone))
            count = _count_under(cone, stair.runs)
            assert count == floor_sum_count_complement(cone, threshold, stair)
            assert count == column_count_complement(cone, threshold, stair)
            steps = [(b.s - a.s, a.t - b.t) for a, b in zip(stair.corners, stair.corners[1:])]
            for (w, h), run in groupby(steps):
                if len(list(run)) > 1:
                    kinds["narrow" if w <= bits else "wide"] += 1
        # runs of steps at most and over det_abs.bit_length() wide
        assert len(kinds) == 2 and min(kinds.values()) >= 10, kinds

    def test_run_count_matches_listed_run_and_oracles(self):
        # the lattice run (s0 + i * w, t0 - i * h), i = 0 .. r, counted off its
        # first step, r = 0 being a principal ideal's power; half the cones
        # random, half of index up to 10^12
        rng = random.Random(59)
        kinds = Counter()
        for i in range(160):
            small = i % 2 == 0
            cone = random_cone(rng) if small else random_index_ideal(rng, d_max=10**12).cone
            r = rng.choice([0, rng.randint(1, 8), rng.randint(9, 60)])
            w = rng.randint(1, 12) if r else 0
            h = rng.choice([rng.randint(1, 12), rng.randint(1, 3 * cone.det_abs)]) if r else 0
            h = lattice_row(cone, -w, h) if r else 0  # (w, -h) a lattice step
            s0 = rng.randint(0, 5)
            t0 = lattice_row(cone, s0, r * h + rng.randint(0, 5))
            stair = Staircase(tuple(Corner(s0 + k * w, t0 - k * h) for k in range(r + 1)))
            threshold, _ = grounded(stair)
            count = _count_under(cone, ((s0, t0, w, h, r),))
            assert stair.runs == ((s0, t0, w, h, r),)
            assert count == floor_sum_count_complement(cone, threshold, stair)
            if small and r * w * t0 <= 20_000:
                assert count == brute_count_complement(cone, threshold, stair)
                kinds["brute"] += 1
            kinds["principal" if r == 0 else "short" if r <= 8 else "long"] += 1
        assert kinds["principal"] >= 20 and kinds["brute"] >= 20 and len(kinds) == 4, kinds
        assert min(kinds.values()) >= 10, kinds

    def test_run_count_lists_nothing(self, monkeypatch):
        # a run no longer than its steps are wide is counted off s0, t0, w, h
        # and r too: a staircase stored as that run is counted unlisted
        rng = random.Random(67)
        kinds = Counter()
        for i in range(120):
            cone = random_cone(rng) if i % 2 else random_index_ideal(rng, d_max=10**12).cone
            bits = cone.det_abs.bit_length()
            r = rng.choice([0, rng.randint(1, bits), rng.randint(1, 12)])
            w = max(r, rng.choice([rng.randint(1, bits), rng.randint(bits + 1, 3 * bits + 8)]))
            h = lattice_row(cone, -w, rng.randint(1, 3 * cone.det_abs))
            s0 = rng.randint(0, 5)
            t0 = lattice_row(cone, s0, r * h + rng.randint(0, 5))
            stair = Staircase(tuple((s0 + k * w, t0 - k * h) for k in range(r + 1)))
            threshold, _ = grounded(stair)
            with monkeypatch.context() as patched:
                forbid_listing(patched)
                run = Staircase._of_runs(((s0, t0, w, h, r),))
                count = count_lattice_complement(cone, threshold, run)
            assert count == floor_sum_count_complement(cone, threshold, stair)
            kinds["principal" if r == 0 else "narrow" if w <= bits else "wide"] += 1
        assert min(kinds.values()) >= 20 and len(kinds) == 3, kinds

    def test_band_run_kernel_matches_column_oracle(self):
        # fine: runs of 1 to 60 equal steps among irregular ones; coarse: a
        # subset of its corners, so each coarse step covers touching band
        # rectangles of one top whose bottoms fall by one step's height, cut
        # wherever the subset cuts the fine runs.  Such rectangles are one run
        # when their bottoms move by a lattice vector, and are counted one at a
        # time when they do not; kinds still sorts the stretches as
        # residue_kind does, P here from delta - tau * w
        rng = random.Random(59)
        kinds = Counter()
        for i in range(120):
            cone = random_index_ideal(rng, d_max=10**12).cone if i % 2 else random_cone(rng)
            d, bits = cone.det_abs, cone.det_abs.bit_length()
            threshold, fine = grounded(run_staircase(rng, bits))
            cut = rng.choice([0.0, 0.05, 0.3])
            inner = [c for c in fine.corners[1:-1] if rng.random() < cut]
            coarse = Staircase((fine.corners[0], *inner, fine.corners[-1]))
            assert count_lattice_band(
                cone, threshold, fine, coarse
            ) == column_count_band(cone, threshold, fine, coarse)
            for w, size, delta in band_runs(_rectangles(fine, coarse)):
                if size > 1:
                    kinds[residue_kind(d, delta - cone.tau * w, size)] += 1
        # bottoms of one lattice run, of fewer than R and of R one-rectangle runs
        assert len(kinds) == 3 and min(kinds.values()) >= 10, kinds

    def test_one_run_band_matches_the_band_of_the_built_powers(self):
        # the band between the q-th ordinary and bracket powers of a run of m
        # steps, counted off the run, against the built staircases' band and the
        # column oracle: runs of m = 0 .. 4 steps after one GL2(Z) move, and on
        # cones of index up to 10^12, with the R = q - 1 band rectangles under
        # each bracket step fewer than, as many as and more than a step has
        # columns, of steps at most and over det_abs.bit_length() wide
        rng = random.Random(83)
        kinds = Counter()
        bases = [a_singularity(20, 3).ideal]
        for i in range(100):
            if i % 2:
                cone = random_index_ideal(rng, d_max=10**12).cone
                bits = cone.det_abs.bit_length()
                w = rng.choice([rng.randint(1, bits), rng.randint(bits + 1, bits + 8)])
                bases.append(one_run_ideal(rng, rng.randint(1, 4), cone, w))
                continue
            run = one_run_ideal(rng, i // 2 % 5)
            (a, b), (c, d) = unimodular(rng)

            def move(p):
                return (a * p[0] + b * p[1], c * p[0] + d * p[1])

            cone = Cone2.from_rays(move(run.cone.ray1), move(run.cone.ray2))
            bases.append(new_ideal(cone, [move(g) for g in run.gens]))
        for base in bases:
            ((s0, t0, w, h, m),) = base.stair.runs
            q = rng.choice([1, rng.randint(2, max(2, w)), w + 1, rng.randint(w + 2, w + 10)])
            frob, power = frobenius_power(base, q), ordinary_power(base, q)
            band = _count_run_band(base.cone, s0, t0, w, h, m, q)
            assert band == count_lattice_band(base.cone, frob.thresholds, power.stair, frob.stair)
            assert band == column_count_band(base.cone, frob.thresholds, power.stair, frob.stair)
            r = q - 1
            kinds["no runs" if m == 0 or r == 0 else "R < w" if r < w else "R = w" if r == w
                  else "R > w"] += 1
            if m and 0 < r <= w:
                kinds["narrow" if w % base.cone.det_abs <= base.cone.det_abs.bit_length()
                      else "wide"] += 1
        assert min(kinds.values()) >= 10 and len(kinds) == 6, kinds

    def test_split_band_runs_are_the_maximal_runs_on_saturated_ideals(self, monkeypatch):
        # the lattice join rule never cuts a run of band rectangles that split
        # counts: on saturated ideals of more than one run, _count_between makes
        # one _band_run call per maximal run of touching rectangles of one width
        # and top whose bottoms move by one constant, as band_runs finds them
        rng = random.Random(107)
        calls = record_band_runs(monkeypatch)
        ideals, long_runs = 0, 0
        while ideals < 200:
            ideal = saturation(random_ideal(rng, ray_bound=rng.randint(1, 8)))
            if len(ideal.stair.runs) == 1:
                continue
            ideals += 1
            for q in (2, 3, 5):
                del calls[:]
                frobenius_gap_split(ideal, q)
                power, frob = ordinary_power(ideal, q), frobenius_power(ideal, q)
                runs = band_runs(_rectangles(power.stair, frob.stair))
                assert all(call[4] for call in calls), (ideal, q)
                assert len(calls) == len(runs), (ideal, q)
                long_runs += sum(size > 1 for _, size, _ in runs)
        assert long_runs >= 500, long_runs

    def test_box_count_unit_lattice(self):
        stair = pareto_minimal([Corner(2, 0), Corner(0, 3)])
        assert count_lattice_complement(QUADRANT, Corner(0, 0), stair) == 6

    def test_skew_count_small(self):
        stair = pareto_minimal([Corner(0, 6), Corner(2, 4)])
        assert count_lattice_complement(SKEW, Corner(0, 4), stair) == 1

    def test_skew_count_larger(self):
        stair = pareto_minimal([Corner(0, 12), Corner(4, 8)])
        assert count_lattice_complement(SKEW, Corner(0, 8), stair) == 5

    def test_count_matches_brute_force(self):
        rng = random.Random(19)
        for _ in range(120):
            cone = random_cone(rng)
            threshold, stair = grounded(on_lattice(cone, random_staircase(rng).corners))
            assert count_lattice_complement(
                cone, threshold, stair
            ) == brute_count_complement(cone, threshold, stair)

    def test_band_of_equal_staircases_is_empty(self):
        rng = random.Random(23)
        for _ in range(40):
            cone = random_cone(rng)
            threshold, stair = grounded(random_staircase(rng))
            assert count_lattice_band(cone, threshold, stair, stair) == 0

    def test_band_complements_fine_count(self):
        # points outside coarse = points outside fine + band between them
        rng = random.Random(29)
        checked = 0
        while checked < 60:
            cone = random_cone(rng)
            threshold, fine = grounded(on_lattice(cone, random_staircase(rng).corners))
            # push corners up onto the lattice, then pin both ends so the minima
            # still meet the threshold; the result describes a subregion of fine
            shifted = [(s, t + rng.randint(0, 4)) for s, t in fine.corners]
            coarse = on_lattice(
                cone, shifted + [(fine.max_s, fine.min_t), (fine.min_s, fine.max_t)]
            )
            if any(not fine.dominates(c) for c in coarse.corners):
                continue
            total = count_lattice_complement(cone, threshold, coarse)
            inner = count_lattice_complement(cone, threshold, fine)
            band = count_lattice_band(cone, threshold, fine, coarse)
            assert total == inner + band
            checked += 1

    def test_count_approximates_area(self):
        rng = random.Random(31)
        for _ in range(25):
            cone = random_cone(rng)
            threshold, stair = grounded(on_lattice(cone, random_staircase(rng, spread=6).corners))
            area = staircase_complement_area(cone, threshold, stair)
            width = stair.max_s - stair.min_s
            height = stair.max_t - stair.min_t
            bound = 4 * (width + height)
            for q in (2, 4, 8, 16):
                scaled = Corner(q * threshold.s, q * threshold.t)
                count = count_lattice_complement(cone, scaled, stair.scale(q))
                assert abs(Fraction(count, q * q) - area) <= Fraction(bound, q)


def step_height(rng: random.Random, cone: Cone2, w: int, lattice: bool) -> int:
    """A height h >= 1 for which (w, -h) is a lattice step of the cone, or is not.

    (w, -h) is a lattice step exactly when h == -tau * w (mod det_abs);
    a step that is not needs det_abs >= 2.
    """
    d = cone.det_abs
    h = (-cone.tau * w) % d
    h += d * rng.randint(0 if h else 1, 2)
    return h + rng.randint(1, d - 1) if not lattice else h


def lattice_run_staircase(
    rng: random.Random, cone: Cone2, lattice: bool, long_max: int, wide_max: int
) -> Staircase:
    """One to three runs of equal steps, all lattice steps of the cone or none.

    A run is long and narrow, 2 to long_max steps one or two columns
    wide, or short and wide, 2 or 3 steps of 3 to wide_max columns.
    With lattice steps the first corner is a lattice corner too, so the
    staircase is one a complement count takes.
    """
    steps = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            w, size = rng.randint(1, 2), rng.randint(2, long_max)
        else:
            w, size = rng.randint(3, wide_max), rng.randint(2, 3)
        steps += [(w, step_height(rng, cone, w, lattice))] * size
    s, t = rng.randint(0, 5), rng.randint(0, 5) + sum(h for _, h in steps)
    if lattice:
        t = lattice_row(cone, s, t)
    corners = [(s, t)]
    for w, h in steps:
        s, t = s + w, t - h
        corners.append((s, t))
    return Staircase(tuple(corners))


def run_kinds(stair: Staircase, cone: Cone2) -> set:
    """(lattice, long and narrow) for each run of two or more steps."""
    d = cone.det_abs
    return {((h + cone.tau * w) % d == 0, w <= 2) for _, _, w, h, r in stair.runs if r > 1}


class TestLatticeRuns:
    # a run of lattice steps is counted off its first step in O(1) floor sums
    # whatever its length; a staircase with other steps is no ideal's, and only
    # the band counts it, one rectangle at a time where bottoms are no lattice move

    def test_counts_match_the_box_scan(self):
        # the box-scan oracle lists every lattice point of the gap box, det_abs up to 80
        rng = random.Random(89)
        kinds = Counter()
        for i in range(60):
            cone = random_index_ideal(rng, d_max=80).cone
            lattice = i % 2 == 0
            threshold, fine = grounded(lattice_run_staircase(rng, cone, lattice, 20, 20))
            inner = [c for c in fine.corners[1:-1] if rng.random() < 0.3]
            coarse = Staircase((fine.corners[0], *inner, fine.corners[-1]))
            box = box_scan_points(cone, threshold.s, fine.max_s, threshold.t, fine.max_t)
            corners = [cone.corner(p) for p in box]
            outside = {}
            for stair in (fine, coarse):
                outside[stair] = sum(
                    not any(s >= cs and t >= ct for cs, ct in stair.corners) for s, t in corners
                )
            if lattice:
                assert _count_under(cone, fine.runs) == outside[fine]
            band = count_lattice_band(cone, threshold, fine, coarse)
            assert band == outside[coarse] - outside[fine]
            kinds.update(run_kinds(fine, cone))
        assert len(kinds) == 4 and min(kinds.values()) >= 8, kinds

    def test_counts_match_the_floor_sum_oracle(self):
        # runs of up to 2000 steps and steps up to 10^4 columns wide, det_abs up to 80
        rng = random.Random(97)
        kinds = Counter()
        for i in range(60):
            cone = random_index_ideal(rng, d_max=80).cone
            lattice = i % 2 == 0
            threshold, fine = grounded(lattice_run_staircase(rng, cone, lattice, 2000, 10**4))
            coarse = Staircase(fine.corners[: -1 : rng.randint(2, 40)] + fine.corners[-1:])
            outside = [floor_sum_count_complement(cone, threshold, st) for st in (fine, coarse)]
            if lattice:
                assert _count_under(cone, fine.runs) == outside[0]
            assert count_lattice_band(cone, threshold, fine, coarse) == outside[1] - outside[0]
            kinds.update(run_kinds(fine, cone))
        assert len(kinds) == 4 and min(kinds.values()) >= 8, kinds

    def test_one_rule_and_one_message_for_ideals_and_complements(self):
        # a staircase whose first corner is off the lattice, and one with an
        # off-lattice step: MonomialIdeal and count_lattice_complement refuse both
        # with one message, and the band counts both
        message = "staircase corner is not the corner of a lattice point"
        stairs = [
            (SKEW, Staircase(((0, 10), (1, 6), (2, 2)))),  # lattice steps (1, -4) from (0, 10)
            (SKEW, Staircase(((0, 9), (1, 6), (2, 3), (3, 0)))),  # steps (1, -3) from (0, 9)
        ]
        rng = random.Random(109)
        for i in range(40):
            ideal = random_index_ideal(rng, d_max=10**6)
            corners = ideal.stair.corners
            if i % 2:
                # every corner one row up: the steps stay lattice vectors
                stairs.append((ideal.cone, Staircase(tuple((s, t + 1) for s, t in corners))))
            elif len(corners) > 1:
                # the last corner one column right: the last step is no lattice vector
                (s, t), rest = corners[-1], corners[:-1]
                stairs.append((ideal.cone, Staircase((*rest, (s + 1, t)))))
        kinds = Counter()
        for cone, stair in stairs:
            threshold, _ = grounded(stair)
            with pytest.raises(ValueError) as ideal_error:
                MonomialIdeal(cone, stair)
            with pytest.raises(ValueError) as count_error:
                count_lattice_complement(cone, threshold, stair)
            assert str(ideal_error.value) == str(count_error.value) == message
            ends = Staircase((stair.corners[0], stair.corners[-1]))
            for coarse in (stair, ends):
                assert count_lattice_band(
                    cone, threshold, stair, coarse
                ) == column_count_band(cone, threshold, stair, coarse)
            first_on_lattice = cone.preimage(stair.corners[0]) is not None
            kinds["off-lattice step" if first_on_lattice else "off-lattice corner"] += 1
        assert min(kinds.values()) >= 10 and len(kinds) == 2, kinds

    def test_a_lattice_run_costs_at_most_two_floor_sums(self, monkeypatch):
        # R up to 10^5 steps, each up to 10^4 columns wide; half the cones of index up to 10^12
        rng = random.Random(101)
        calls = count_floor_sums(monkeypatch)
        for i in range(60):
            cone = random_index_ideal(rng, d_max=10**12).cone if i % 2 else random_cone(rng)
            r = rng.choice([1, rng.randint(2, 60), 10**5])
            w = rng.choice([1, rng.randint(2, 60), 10**4])
            h = step_height(rng, cone, w, True)
            s0, t0 = rng.randint(0, 5), r * h + rng.randint(0, 5)
            del calls[:]
            count = _count_under(cone, ((s0, t0, w, h, r),))
            assert len(calls) <= 2, (r, w, len(calls))
            if r * w <= 4000:
                stair = Staircase(tuple((s0 + k * w, t0 - k * h) for k in range(r + 1)))
                assert count == floor_sum_count_complement(cone, *grounded(stair))

    def test_a_one_run_band_costs_at_most_two_floor_sums(self, monkeypatch):
        # m bracket steps (q * w, -q * h), q up to 10^6 and w up to 10^4, against the
        # column oracle over the listed powers when they are small
        rng = random.Random(103)
        calls = count_floor_sums(monkeypatch)
        for i in range(60):
            cone = random_index_ideal(rng, d_max=10**12).cone if i % 2 else random_cone(rng)
            m = rng.choice([0, 1, rng.randint(2, 6), 10**4])
            q = rng.choice([1, 2, rng.randint(3, 20), 10**6])
            w = rng.choice([1, rng.randint(2, 20), 10**4])
            h = step_height(rng, cone, w, True)
            s0, t0 = rng.randint(0, 5), m * h + rng.randint(0, 5)
            del calls[:]
            band = _count_run_band(cone, s0, t0, w, h, m, q)
            assert len(calls) <= 2, (m, q, w, len(calls))
            if m * q * w <= 2000:
                power = Staircase(
                    tuple((q * s0 + j * w, q * t0 - j * h) for j in range(q * m + 1)))
                frob = Staircase(
                    tuple((q * (s0 + i * w), q * (t0 - i * h)) for i in range(m + 1)))
                threshold, _ = grounded(frob)
                assert band == column_count_band(cone, threshold, power, frob)


def band_names(tree: ast.Module) -> dict[str, set[str]]:
    """The names used by the band counts and each module function they reach.

    The roots are count_lattice_band and _count_run_band, the gap split's
    band of a one-run ideal.
    """
    bodies = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo = {}, ["count_lattice_band", "_count_run_band"]
    while todo:
        name = todo.pop()
        if name in seen or name not in bodies:
            continue
        seen[name] = {n.id for n in ast.walk(bodies[name]) if isinstance(n, ast.Name)}
        todo.extend(seen[name])
    return seen


class TestBandGuard:
    # the band as a difference of two complement counts would make split's
    # total_gap == sym_vs_ord + ord_vs_frob and verify's additivity tautologies
    FORBIDDEN = {"_count_under", "count_lattice_complement"}

    def test_band_is_its_own_count(self):
        names = band_names(ast.parse(GEOMETRY.read_text(encoding="utf-8")))
        assert {"_count_between", "_count_run_band", "_band_run"} <= names.keys()
        assert [f for f, used in names.items() if used & self.FORBIDDEN] == []

    def test_guard_catches_a_complement_difference(self):
        code = (
            "def _count_under(cone, corners):\n"
            "    return 0\n"
            "def _between(cone, lower, upper):\n"
            "    return _count_under(cone, upper) - _count_under(cone, lower)\n"
            "def count_lattice_band(cone, threshold, fine, coarse):\n"
            "    return _between(cone, fine.corners, coarse.corners)\n"
        )
        names = band_names(ast.parse(code))
        assert set(names) == {"count_lattice_band", "_between", "_count_under"}
        assert [f for f, used in names.items() if used & self.FORBIDDEN] == ["_between"]


def corner_calls(tree: ast.Module) -> list[str]:
    """The qualified name of the function or class around each Corner(...) call, in order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Corner":
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, [])
    return found


def assert_plain(corners) -> None:
    assert corners and all(type(c) is tuple and len(c) == 2 for c in corners), corners


class TestPlainCorners:
    # every corner ghk builds is a plain (s, t) tuple; only the thresholds
    # are a Corner, the one corner the benchmark tracer reads by field name
    def test_new_ideal_and_pareto_minimal(self):
        assert_plain(non_run_ideal().stair.corners)
        assert_plain(random_ideal(random.Random(29)).stair.corners)
        assert_plain(pareto_minimal([(3, 1), (1, 4), (2, 2), (4, 4)]).corners)

    def test_frobenius_power(self):
        assert_plain(frobenius_power(non_run_ideal(), 3).stair.corners)

    @pytest.mark.parametrize("n", [2, 5])
    def test_one_run_ordinary_power(self, n):
        ideal = veronese(9, 7).ideal
        assert len(ideal.stair.corners) > 1 and len(ideal.stair.runs) == 1
        assert_plain(ordinary_power(ideal, n).stair.corners)

    def test_dp_ordinary_power(self):
        ideal = non_run_ideal()
        assert len(ideal.stair.runs) > 1
        assert_plain(ordinary_power(ideal, 3).stair.corners)

    def test_saturation_and_torsion_primary(self):
        ideal = quadrant([(3, 0), (1, 1), (0, 2)]).ideal
        assert not is_saturated(ideal)
        assert_plain(saturation(ideal).stair.corners)
        assert_plain(torsion_factorization(non_run_ideal()).primary.stair.corners)

    def test_cone_corner(self):
        cone = Cone2.from_rays((1, 0), (2, 7))
        assert type(cone.corner((3, 1))) is tuple

    def test_thresholds_are_a_corner(self):
        ideal = non_run_ideal()
        assert type(ideal.thresholds) is Corner
        assert type(ordinary_power(ideal, 3).thresholds) is Corner

    def test_corner_inputs_build_equal_staircases(self):
        pairs = [(0, 7), (1, 5), (5, 4), (2, 6)]
        plain = pareto_minimal(pairs)
        named = pareto_minimal([Corner(s, t) for s, t in pairs])
        assert named == plain and hash(named) == hash(plain)
        assert Staircase(tuple(Corner(s, t) for s, t in plain.corners)) == plain
        ideal = non_run_ideal()
        rebuilt = MonomialIdeal(ideal.cone, Staircase(tuple(Corner(*c) for c in ideal.stair.corners)))
        assert rebuilt == ideal and rebuilt.gens == ideal.gens
        assert new_ideal(ideal.cone, ideal.gens) == rebuilt

    def test_thresholds_is_the_only_corner_call(self):
        calls = [
            f"{path.stem}.{scope}"
            for path in sorted(GEOMETRY.parent.glob("*.py"))
            for scope in corner_calls(ast.parse(path.read_text(encoding="utf-8")))
        ]
        assert calls == ["ideals.MonomialIdeal.thresholds"]

    def test_guard_catches_a_corner_built_elsewhere(self):
        code = (
            "class Staircase:\n"
            "    def scale(self, k):\n"
            "        return [Corner(k * s, k * t) for s, t in self.corners]\n"
            "def threshold(stair):\n"
            "    return geometry.Corner(stair.min_s, stair.min_t)\n"
            "ORIGIN = Corner(0, 0)\n"
        )
        assert corner_calls(ast.parse(code)) == ["Staircase.scale", "threshold", "<module>"]
