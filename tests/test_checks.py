import ast
import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    box_scan_points,
    non_run_ideal,
    point_saturation_oracle,
    random_cone,
    random_ideal,
    random_index_ideal,
)
from ghk import checks, ideals
from ghk.cli import run_command
from ghk.checks import (
    lattice_points_in_corner_box,
    run_instance_checks,
    saturation_region_oracle,
)
from ghk.errors import BadParameters, NotMPrimary
from ghk.families import a_singularity, parse_family, veronese
from ghk.geometry import Cone2, Staircase
from ghk.ideals import MonomialIdeal, new_ideal
from ghk.invariants import eghk, ghk_function


def random_box(rng: random.Random, size: int) -> tuple[int, int, int, int]:
    # widths from -3 up, so empty and inverted boxes come up too
    s_lo, t_lo = rng.randint(-size, size), rng.randint(-size, size)
    return s_lo, s_lo + rng.randint(-3, size), t_lo, t_lo + rng.randint(-3, size)


class TestCornerBoxScan:
    def test_matches_box_scan_on_random_cones(self):
        rng = random.Random(61)
        signs, pairs = set(), set()
        for _ in range(600):
            cone = random_cone(rng, rng.randint(1, 12))
            n1, n2 = cone.normal1, cone.normal2
            signs.add(n1[0] * n2[1] - n1[1] * n2[0] > 0)
            box = random_box(rng, 30)
            # the y components of the normals _lines takes: a side bounds y for b > 0
            # and b < 0, and clips the lines' x range for b == 0
            _, (_, b1), (_, b2) = checks._scan_normals(cone, box)
            pairs.add(((b1 > 0) - (b1 < 0), (b2 > 0) - (b2 < 0)))
            assert lattice_points_in_corner_box(cone, *box) == box_scan_points(cone, *box)
        assert signs == {True, False}
        assert pairs == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)} - {(0, 0)}

    def test_normals_with_zero_y_component(self):
        rng = random.Random(67)
        for rays in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (3, -1)), ((-2, 1), (0, -1))):
            cone = Cone2.from_rays(*rays)
            assert 0 in (cone.normal1[1], cone.normal2[1])
            for _ in range(40):
                box = random_box(rng, 12)
                assert lattice_points_in_corner_box(cone, *box) == box_scan_points(cone, *box)

    def test_empty_and_inverted_boxes(self):
        cone = Cone2.from_rays((1, 0), (2, 5))
        for box in ((3, 3, 0, 9), (0, 9, 4, 4), (5, 2, 0, 9), (0, 9, 7, -1)):
            assert lattice_points_in_corner_box(cone, *box) == []

    def test_box_is_the_union_of_its_halves(self):
        # the oracle scans each boundary strip as one box, the union of its column boxes
        rng = random.Random(79)
        for _ in range(300):
            cone = random_cone(rng, rng.randint(1, 12))
            s_lo, t_lo = rng.randint(-25, 25), rng.randint(-25, 25)
            s_hi, t_hi = s_lo + rng.randint(0, 25), t_lo + rng.randint(0, 25)
            whole = lattice_points_in_corner_box(cone, s_lo, s_hi, t_lo, t_hi)
            if rng.random() < 0.5:
                s = rng.randint(s_lo, s_hi)
                halves = [(s_lo, s, t_lo, t_hi), (s, s_hi, t_lo, t_hi)]
            else:
                t = rng.randint(t_lo, t_hi)
                halves = [(s_lo, s_hi, t_lo, t), (s_lo, s_hi, t, t_hi)]
            first, second = (lattice_points_in_corner_box(cone, *half) for half in halves)
            assert sorted(first + second) == whole

    @pytest.mark.parametrize("rays", [((1, 0), (40, 1)), ((0, 1), (1, 40))])
    def test_each_scan_direction_matches_box_scan(self, rays):
        cone = Cone2.from_rays(*rays)
        rng = random.Random(83)
        directions = set()
        for _ in range(80):
            box = random_box(rng, 12)
            if box[1] > box[0] and box[3] > box[2]:
                rows, columns = checks._spans(cone, box[1] - box[0], box[3] - box[2])
                directions.add(rows < columns)
            assert lattice_points_in_corner_box(cone, *box) == box_scan_points(cone, *box)
        # rays (1, 0), (40, 1) scan rows for every box, the transpose columns
        assert directions == {rays[0] == (1, 0)}

    def test_matches_box_scan_on_skewed_large_index_cones(self):
        rng = random.Random(71)
        cones = [Cone2.from_rays((1, 0), (1, d)) for d in (1000, 1601, 4099)]
        while len(cones) < 8:
            cone = random_cone(rng, 60)
            if cone.det_abs >= 1000:
                cones.append(cone)
        for cone in cones:
            d = cone.det_abs
            for _ in range(3):
                s_lo, t_lo = rng.randint(-d, d), rng.randint(-d, d)
                box = (s_lo, s_lo + rng.randint(1, 2 * d), t_lo, t_lo + rng.randint(1, 2 * d))
                assert lattice_points_in_corner_box(cone, *box) == box_scan_points(cone, *box)


SKEWED = [((1, 0), (40, 1)), ((0, 1), (1, 40))]


def test_lines_match_box_scan_line_by_line_for_both_signs_of_det():
    # _lines takes its first and last line from the vertices' extremes, which trade
    # places when det < 0, and row scans swap the normals' components
    rng = random.Random(89)
    cones = [Cone2.from_rays(*rays) for rays in SKEWED]
    cones += [random_cone(rng, rng.randint(1, 12)) for _ in range(200)]
    signs = set()
    for cone in cones:
        for _ in range(4):
            box = random_box(rng, 30)
            by_rows, n1, n2 = checks._scan_normals(cone, box)
            walked = {
                line: list(range(lo, hi + 1)) for line, lo, hi in checks._lines(n1, n2, box)
                if lo <= hi
            }
            found = {}
            for x, y in box_scan_points(cone, *box):
                line, place = (y, x) if by_rows else (x, y)
                found.setdefault(line, []).append(place)
            assert walked == {line: sorted(places) for line, places in found.items()}, box
            if walked:
                signs.add(n1[0] * n2[1] - n1[1] * n2[0] > 0)
    assert signs == {True, False}


def random_probe(rng: random.Random, ideal):
    # a lattice point with corners from below -threshold - 2d up past 2 * threshold + 2d
    cone, (c1, c2) = ideal.cone, ideal.thresholds
    d = cone.det_abs
    s = rng.randint(-c1 - 2 * d - 2, 2 * c1 + 2 * d)
    t = rng.randint(-c2 - 2 * d - 2, 2 * c2 + 2 * d)
    k = (t - cone.tau * s) // d
    (u0, u1), (r0, r1) = cone.u, cone.ray1
    return s * u0 + k * r0, s * u1 + k * r1


class TestOracleWalk:
    def test_matches_the_point_by_point_oracle(self, monkeypatch):
        scanned, normals = [], checks._scan_normals

        def recording(cone, box):
            scan = normals(cone, box)
            scanned.append(scan[0])
            return scan

        monkeypatch.setattr(checks, "_scan_normals", recording)
        rng = random.Random(89)
        cases = [random_ideal(rng, ray_bound=rng.randint(1, 12)) for _ in range(200)]
        cases += [random_index_ideal(rng, d_max) for d_max in [10**4] * 8 + [500] * 32]
        for rays in SKEWED:
            cone = Cone2.from_rays(*rays)
            cases += [random_ideal(rng, cone, spread=rng.randint(9, 60)) for _ in range(30)]
        outcomes, directions, negative = set(), set(), False
        for ideal in cases:
            probes = checks._probe_points(ideal)
            probes += [random_probe(rng, ideal) for _ in range(3)]
            for p in probes:
                s, t = ideal.cone.corner(p)
                negative |= s < 0 or t < 0
            # only the oracle's own boxes count towards the scan directions
            scanned.clear()
            answers = saturation_region_oracle(ideal, probes)
            directions.update(scanned)
            assert answers == [point_saturation_oracle(ideal, p) for p in probes], ideal
            outcomes.update(answers)
        assert len(cases) >= 300
        assert outcomes == directions == {True, False}
        assert negative

    def test_one_call_answers_shuffled_repeated_and_negative_probes(self, monkeypatch):
        listed, scan_lines = [], checks._lines

        def recording(n1, n2, box):
            listed.append(box)
            return scan_lines(n1, n2, box)

        monkeypatch.setattr(checks, "_lines", recording)
        rng = random.Random(101)
        strips, outcomes = 0, set()
        for _ in range(80):
            ideal = random_ideal(rng, ray_bound=rng.randint(1, 8))
            probes = checks._probe_points(ideal)
            probes += [random_probe(rng, ideal) for _ in range(6)]
            probes += rng.choices(probes, k=4)
            rng.shuffle(probes)
            listed.clear()
            answers = saturation_region_oracle(ideal, probes)
            boxes = list(listed)
            assert answers == [point_saturation_oracle(ideal, p) for p in probes], ideal
            assert len(set(boxes)) == len(boxes), ideal
            # the window and the strips below probes of several depths, in one call
            strips = max(strips, len(boxes) - 1)
            outcomes.update(answers)
        assert strips > 2
        assert outcomes == {True, False}

    @pytest.mark.parametrize("spec", ["a:7,3", "veronese:9,7", "quadrant:(3,0);(1,1);(0,2)"])
    def test_verify_lists_no_oracle_box_twice(self, spec, monkeypatch):
        calls, scan_lines, oracle = [], checks._lines, checks.saturation_region_oracle

        def counting(n1, n2, box):
            if calls:
                calls[-1][n1, n2, box] += 1
            return scan_lines(n1, n2, box)

        def tracking(ideal, points):
            # the probe lines are listed before; count only the oracle's own
            calls.append(Counter())
            return oracle(ideal, points)

        monkeypatch.setattr(checks, "_lines", counting)
        monkeypatch.setattr(checks, "saturation_region_oracle", tracking)
        assert all(c.passed for c in run_instance_checks(parse_family(spec).ideal))
        # one call for the 8 probes: the window and each strip depth listed once
        [listed] = calls
        assert len(listed) >= 2
        assert max(listed.values()) == 1

    def test_probes_are_two_points_on_each_line_beside_the_thresholds(self):
        # columns c1 - 1 and c1, then rows c2 - 1 and c2, each within det_abs of the
        # other threshold line, against a plain box scan of each line
        rng = random.Random(97)
        cases = [random_ideal(rng, ray_bound=rng.randint(1, 12)) for _ in range(40)]
        cases += [random_ideal(rng, Cone2.from_rays(*rays)) for rays in SKEWED for _ in range(5)]
        cases += [random_index_ideal(rng, 300) for _ in range(10)]
        repeated = 0
        for ideal in cases:
            cone, (c1, c2) = ideal.cone, ideal.thresholds
            d = cone.det_abs
            lines = [(s, s + 1, c2 - d, c2 + d) for s in (c1 - 1, c1)]
            lines += [(c1 - d, c1 + d, t, t + 1) for t in (c2 - 1, c2)]
            probes = checks._probe_points(ideal)
            assert probes == [p for box in lines for p in box_scan_points(cone, *box)], ideal
            corners = [cone.corner(p) for p in probes]
            assert [s for s, _ in corners[:4]] == [c1 - 1, c1 - 1, c1, c1]
            assert [t for _, t in corners[4:]] == [c2 - 1, c2 - 1, c2, c2]
            # one on each side of the other threshold line, and two inside the quadrant
            assert sorted(t >= c2 for _, t in corners[:4:2] + corners[1:4:2]) == [0, 0, 1, 1]
            assert sorted(s >= c1 for s, _ in corners[4::2] + corners[5::2]) == [0, 0, 1, 1]
            assert sum(s >= c1 and t >= c2 for s, t in corners) == 2
            repeated += len(set(probes)) < 8
        assert repeated > 0


THRESHOLD_MUTANTS = {
    "s > c1": lambda s, t, c1, c2: s > c1 and t >= c2,
    "t > c2": lambda s, t, c1, c2: s >= c1 and t > c2,
    "s >= c1 - 1": lambda s, t, c1, c2: s >= c1 - 1 and t >= c2,
    "t >= c2 - 1": lambda s, t, c1, c2: s >= c1 and t >= c2 - 1,
    "ignore t": lambda s, t, c1, c2: s >= c1,
    "ignore s": lambda s, t, c1, c2: t >= c2,
}


@pytest.mark.parametrize("family", ["a:7,3", "veronese:9,7", "quadrant:(3,0);(1,1);(0,2)"])
@pytest.mark.parametrize("mutant", sorted(THRESHOLD_MUTANTS))
def test_line_probes_catch_each_threshold_mutant(family, mutant, monkeypatch):
    # an off-by-one on either threshold line, or a test that ignores one, answers a line
    # probe wrongly, so verify's saturation suite fails and verify exits 1
    def mutated(ideal, p):
        s, t = ideal.cone.corner(p)
        return THRESHOLD_MUTANTS[mutant](s, t, *ideal.thresholds)

    monkeypatch.setattr(checks, "threshold_membership", mutated)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run_command(["verify", "--family", family])
    assert code == 1
    failed = [c["name"] for c in json.loads(out.getvalue())["results"]["checks"] if not c["passed"]]
    assert failed == ["saturation-oracle"]


CHECKS = Path(checks.__file__)


def oracle_names(tree: ast.Module) -> dict[str, set[str]]:
    """The names and attributes used by saturation_region_oracle and each function it reaches."""
    bodies = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo = {}, ["saturation_region_oracle"]
    while todo:
        name = todo.pop()
        if name in seen or name not in bodies:
            continue
        nodes = list(ast.walk(bodies[name]))
        seen[name] = {n.id for n in nodes if isinstance(n, ast.Name)}
        seen[name] |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        todo.extend(seen[name])
    return seen


class TestOracleGuard:
    # the oracle is the slow side of verify's saturation suite: thresholds, the
    # staircase or the counting kernel inside it would check the fast path against itself
    FORBIDDEN = {
        "stair", "thresholds", "dominates", "height", "threshold_membership",
        "_count_under", "_floor_sum",
    }

    def test_oracle_is_independent_of_the_fast_path(self):
        names = oracle_names(ast.parse(CHECKS.read_text(encoding="utf-8")))
        assert {"saturation_region_oracle", "_scan_normals", "_lines", "_spans"} <= set(names)
        assert [f for f, used in names.items() if used & self.FORBIDDEN] == []

    def test_guard_catches_a_threshold_shortcut(self):
        code = (
            "def threshold_membership(ideal, p):\n"
            "    return ideal.thresholds\n"
            "def _covered(ideal, c):\n"
            "    return ideal.stair.dominates(c)\n"
            "def saturation_region_oracle(ideal, p):\n"
            "    return _covered(ideal, ideal.cone.corner(p))\n"
        )
        names = oracle_names(ast.parse(code))
        assert set(names) == {"saturation_region_oracle", "_covered"}
        assert [f for f, used in names.items() if used & self.FORBIDDEN] == ["_covered"]


class TestVerifyWork:
    def test_estimate_bounds_the_scanned_points(self, monkeypatch):
        # every scan walks _lines: one step per line, and one per point of the line
        work, scan_lines = [], checks._lines

        def counting_lines(*args):
            for x, lo, hi in scan_lines(*args):
                work.append(1 + max(0, hi - lo + 1))
                yield x, lo, hi

        monkeypatch.setattr(checks, "_lines", counting_lines)
        rng = random.Random(73)
        cases = [random_ideal(rng, ray_bound=rng.randint(1, 12)) for _ in range(12)]
        cases += [a_singularity(r, m).ideal for r, m in ((5, 2), (7, 3), (12, 5), (31, 9))]
        # skewed cones: the first three scan rows, the transposed one columns
        cases += [
            new_ideal(Cone2.from_rays((1, 0), (40, 1)), [(7, 0), (43, 1), (120, 3)]),
            new_ideal(Cone2.from_rays((1, 0), (40, 3)), [(7, 0), (14, 1), (40, 3)]),
            new_ideal(Cone2.from_rays((1, 0), (10**6, 1)), [(1, 0), (10**6 + 1, 1)]),
            new_ideal(Cone2.from_rays((0, 1), (1, 40)), [(0, 7), (1, 43), (3, 120)]),
        ]
        for ideal in cases:
            work.clear()
            assert all(c.passed for c in run_instance_checks(ideal))
            assert work and sum(work) <= checks._scan_work(ideal)

    def test_cap_boundary(self, monkeypatch):
        ideal = a_singularity(7, 3).ideal
        work = checks._scan_work(ideal)
        monkeypatch.setattr(checks, "_MAX_VERIFY_WORK", work)
        assert all(c.passed for c in run_instance_checks(ideal))
        monkeypatch.setattr(checks, "_MAX_VERIFY_WORK", work - 1)
        with pytest.raises(BadParameters, match=f"verify needs about {work} scan steps"):
            run_instance_checks(ideal)

    def test_cap_inside_a_suite_refuses_the_run(self):
        # the scans fit the cap, but the torsion power of order 600 is over the DP cap
        with pytest.raises(BadParameters, match="power 600 needs about 3819900 DP steps"):
            run_instance_checks(veronese(600, 7).ideal)

    @pytest.mark.parametrize(
        "name", ["frobenius_power", "frobenius_gap_split", "newton_multiplicity"]
    )
    def test_bad_parameters_inside_any_suite_refuse_the_run(self, name, monkeypatch):
        # in the first, the seventh and the last suite: every BadParameters is a cap
        def capped(*args):
            raise BadParameters("planted cap")

        monkeypatch.setattr(checks, name, capped)
        with pytest.raises(BadParameters, match="planted cap"):
            run_instance_checks(veronese(9, 7).ideal)

    def test_other_errors_inside_a_suite_fail_that_suite(self, monkeypatch):
        # a GhkError that is not BadParameters is a failed property: the other suites still run
        def failing(ideal):
            raise NotMPrimary("planted failure")

        monkeypatch.setattr(checks, "torsion_factorization", failing)
        results = run_instance_checks(veronese(9, 7).ideal)
        failed = [(c.name, c.detail) for c in results if not c.passed]
        assert failed == [("torsion-roundtrip", "NotMPrimary: planted failure")]
        assert len(results) == 10

    def test_each_power_built_once(self, monkeypatch):
        calls = []
        original = ideals._power_levels

        def recording(corners, n):
            calls.append(n)
            return original(corners, n)

        monkeypatch.setattr(ideals, "_power_levels", recording)
        run_instance_checks(non_run_ideal())
        # n = 2, 3 by the suites, 4 by the gap split, 10 by the epsilon estimate and 7
        # by the torsion factorization; every other call finds the power the ideal keeps
        assert calls == [2, 3, 4, 10, 7]


@pytest.mark.parametrize("family", ["a:7,3", "veronese:9,7"])
def test_convergence_bound_holds_at_its_least_constant(family, monkeypatch):
    # the suite's integer form of |gaps / q^2 - area| <= C / q keeps the <=: it passes
    # at the least C for which the Fraction form holds at q = 8, 16, 32, and fails below
    ideal = parse_family(family).ideal
    area, qs = eghk(ideal), (8, 16, 32)
    counts = ghk_function(ideal, 2, 5)[3:]
    errors = [q * abs(Fraction(gaps, q * q) - area) for q, gaps in zip(qs, counts)]
    least = max(errors)

    def convergence(bound):
        monkeypatch.setattr(checks, "convergence_constant", lambda ideal: bound)
        result, = (c for c in run_instance_checks(ideal) if c.name == "area-count-convergence")
        return result.passed, result.detail

    assert convergence(least) == (True, "q = 8, 16, 32")
    for below in (least - 1, least - Fraction(1, 10**9)):
        q = next(q for q, error in zip(qs, errors) if error > below)
        assert convergence(below) == (False, f"q={q}")


@pytest.mark.parametrize("family", ["a:7,3", "veronese:9,7"])
def test_additivity_catches_a_one_run_power_missing_a_corner(family, monkeypatch):
    # the band is read off the base run, not off the built power, so a one-run
    # power written down without an interior corner breaks the gap split's sum
    build = ideals._build_power

    def dropping(ideal, n):
        power = build(ideal, n)
        corners = power.stair.corners
        if len(ideal.stair.runs) > 1 or len(corners) < 3:
            return power
        return MonomialIdeal(power.cone, Staircase(corners[:1] + corners[2:]))

    monkeypatch.setattr(ideals, "_build_power", dropping)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run_command(["verify", "--family", family])
    assert code == 1
    failed = [c["name"] for c in json.loads(out.getvalue())["results"]["checks"] if not c["passed"]]
    assert "gap-split-additivity" in failed, failed


NONRUN = Path(__file__).parent / "golden" / "nonrun-verify.json"


def verify_failures(source: str, tmp_path: Path) -> dict[str, str]:
    """Run verify on a family, or on the nonrun golden's document, and return its failed suites."""
    argv = ["verify", "--family", source]
    if source == "nonrun":
        doc = json.loads(NONRUN.read_text(encoding="utf-8"))["files"]["nonrun.json"]
        (tmp_path / "nonrun.json").write_text(doc, encoding="utf-8")
        argv = ["verify", "--file", str(tmp_path / "nonrun.json")]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run_command(argv)
    checks_run = json.loads(out.getvalue())["results"]["checks"]
    failed = {c["name"]: c["detail"] for c in checks_run if not c["passed"]}
    assert code == (1 if failed else 0)
    return failed


def moved_frobenius_power(ideal, q):
    # the scaled staircase moved by the corner of ray1, a lattice vector
    ds, dt = ideal.cone.corner(ideal.cone.ray1)
    runs = ideals.frobenius_power(ideal, q).stair.runs
    moved = tuple((a + ds, hi + dt, w, h, r) for a, hi, w, h, r in runs)
    return MonomialIdeal(ideal.cone, Staircase._of_runs(moved))


def thinned_frobenius_power(ideal, q):
    # the bracket power without its second corner: the thresholds stay where they are
    corners = ideals.frobenius_power(ideal, q).stair.corners
    return MonomialIdeal(ideal.cone, Staircase(corners[:1] + corners[2:]))


def misshifted_torsion_factorization(ideal):
    fact = ideals.torsion_factorization(ideal)
    (x, y), (dx, dy) = fact.shift, ideal.cone.ray1
    return fact._replace(shift=(x + dx, y + dy))


def cube_without_its_first_corner(ideal, n):
    power = ideals.ordinary_power(ideal, n)
    if n != 3:
        return power
    return MonomialIdeal(power.cone, Staircase(power.stair.corners[1:]))


SOURCES = ["a:7,3", "veronese:9,7", "nonrun"]


class TestSuitesCompareCorners:
    @pytest.mark.parametrize("source", SOURCES)
    def test_frobenius_scaling_catches_a_moved_bracket_power(self, source, monkeypatch, tmp_path):
        monkeypatch.setattr(checks, "frobenius_power", moved_frobenius_power)
        failed = verify_failures(source, tmp_path)
        assert failed["frobenius-scaling"] == "thresholds at q=2"
        if source != "nonrun":
            # on one run no other suite sees the move
            assert list(failed) == ["frobenius-scaling"]

    @pytest.mark.parametrize("source", SOURCES[1:])
    def test_frobenius_scaling_catches_a_bracket_power_missing_a_corner(
        self, source, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(checks, "frobenius_power", thinned_frobenius_power)
        assert verify_failures(source, tmp_path)["frobenius-scaling"] == "stair at q=2"

    @pytest.mark.parametrize("source", SOURCES)
    def test_torsion_roundtrip_catches_a_shift_off_by_a_ray(self, source, monkeypatch, tmp_path):
        monkeypatch.setattr(checks, "torsion_factorization", misshifted_torsion_factorization)
        failed = verify_failures(source, tmp_path)
        assert failed == {"torsion-roundtrip": "shift does not rebuild the power"}

    @pytest.mark.parametrize("source", SOURCES)
    def test_membership_chain_names_the_point_missing_from_the_power(
        self, source, monkeypatch, tmp_path
    ):
        # the first corner of I^3 is that of 3 g, g the first generator
        ideal = non_run_ideal() if source == "nonrun" else parse_family(source).ideal
        x, y = ideal.gens[0]
        monkeypatch.setattr(checks, "ordinary_power", cube_without_its_first_corner)
        failed = verify_failures(source, tmp_path)
        assert failed["membership-chain"] == f"bracket power point {(3 * x, 3 * y)} not in power"

    def test_a_passing_verify_forms_points_only_for_the_oracle_and_the_shift(
        self, monkeypatch, tmp_path
    ):
        # the oracle reads the generators as points and the torsion factorization forms
        # its shift; every other suite compares staircases, runs or corners
        generators = len(veronese(9, 7).ideal.stair.corners)
        calls, preimage = [], Cone2.preimage

        def counting(cone, c):
            calls.append(c)
            return preimage(cone, c)

        monkeypatch.setattr(Cone2, "preimage", counting)
        assert verify_failures("veronese:9,7", tmp_path) == {}
        assert 0 < len(calls) <= generators + 1
