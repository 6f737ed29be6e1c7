import random

import pytest

from conftest import box_scan_points, non_run_ideal, random_cone, random_ideal
from ghk import checks, ideals
from ghk.checks import lattice_points_in_corner_box, run_instance_checks
from ghk.errors import BadParameters
from ghk.families import a_singularity, veronese
from ghk.geometry import Cone2
from ghk.ideals import new_ideal


def random_box(rng: random.Random, size: int) -> tuple[int, int, int, int]:
    # widths from -3 up, so empty and inverted boxes come up too
    s_lo, t_lo = rng.randint(-size, size), rng.randint(-size, size)
    return s_lo, s_lo + rng.randint(-3, size), t_lo, t_lo + rng.randint(-3, size)


class TestCornerBoxScan:
    def test_matches_box_scan_on_random_cones(self):
        rng = random.Random(61)
        signs = set()
        for _ in range(600):
            cone = random_cone(rng, rng.randint(1, 12))
            n1, n2 = cone.normal1, cone.normal2
            signs.add(n1[0] * n2[1] - n1[1] * n2[0] > 0)
            box = random_box(rng, 30)
            assert lattice_points_in_corner_box(cone, *box) == box_scan_points(cone, *box)
        assert signs == {True, False}

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


class TestVerifyWork:
    def test_estimate_bounds_the_scanned_points(self, monkeypatch):
        bounds, points = [], []
        scan_line, scan_box = checks._y_bounds, checks.lattice_points_in_corner_box

        def counting_line(*args):
            bounds.append(1)
            return scan_line(*args)

        def counting_box(*args):
            found = scan_box(*args)
            points.append(len(found))
            return found

        monkeypatch.setattr(checks, "_y_bounds", counting_line)
        monkeypatch.setattr(checks, "lattice_points_in_corner_box", counting_box)
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
            bounds.clear()
            points.clear()
            assert all(c.passed for c in run_instance_checks(ideal))
            # each line walked asks for the y-bounds of both corners
            assert bounds and len(bounds) // 2 + sum(points) <= checks._scan_work(ideal, 8)

    def test_cap_boundary(self, monkeypatch):
        ideal = a_singularity(7, 3).ideal
        work = checks._scan_work(ideal, 8)
        monkeypatch.setattr(checks, "_MAX_VERIFY_WORK", work)
        assert all(c.passed for c in run_instance_checks(ideal))
        monkeypatch.setattr(checks, "_MAX_VERIFY_WORK", work - 1)
        with pytest.raises(BadParameters, match=f"verify needs about {work} scan steps"):
            run_instance_checks(ideal)

    def test_cap_inside_a_suite_refuses_the_run(self):
        # the scans fit the cap, but the torsion power of order 600 is over the DP cap
        with pytest.raises(BadParameters, match="power 600 needs about 3819900 DP steps"):
            run_instance_checks(veronese(600, 7).ideal)

    def test_other_bad_parameters_inside_a_suite_fail_that_suite(self, monkeypatch):
        # a suite that passes a bad argument has failed; only the DP cap refuses the run
        monkeypatch.setattr(
            checks, "torsion_factorization",
            lambda ideal: ideals.torsion_factorization(ideal, max_order=0),
        )
        results = run_instance_checks(veronese(9, 7).ideal)
        failed = [(c.name, c.detail) for c in results if not c.passed]
        assert failed == [
            ("torsion-roundtrip", "BadParameters: max_order must be a positive integer")
        ]
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
