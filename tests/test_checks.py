import random

import pytest

from conftest import box_scan_points, random_cone, random_ideal
from ghk import checks, ideals, invariants
from ghk.checks import lattice_points_in_corner_box, run_instance_checks
from ghk.errors import BadParameters
from ghk.families import a_singularity, veronese
from ghk.geometry import Cone2


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
        scanned = []

        def counting(*args):
            points = lattice_points_in_corner_box(*args)
            scanned.append(len(points))
            return points

        monkeypatch.setattr(checks, "lattice_points_in_corner_box", counting)
        rng = random.Random(73)
        for _ in range(12):
            ideal = random_ideal(rng, ray_bound=rng.randint(1, 12))
            scanned.clear()
            run_instance_checks(ideal)
            assert len(scanned) + sum(scanned) <= checks._scan_work(ideal, 8)

    def test_cap_boundary(self, monkeypatch):
        ideal = a_singularity(7, 3).ideal
        work = checks._scan_work(ideal, 8)
        monkeypatch.setattr(checks, "_MAX_VERIFY_WORK", work)
        assert all(c.passed for c in run_instance_checks(ideal))
        monkeypatch.setattr(checks, "_MAX_VERIFY_WORK", work - 1)
        with pytest.raises(BadParameters, match=f"verify needs about {work} scan steps"):
            run_instance_checks(ideal)

    def test_each_power_built_once(self, monkeypatch):
        calls = []
        original = ideals.ordinary_power

        def recording(ideal, n):
            calls.append(n)
            return original(ideal, n)

        for module in (ideals, invariants, checks):
            monkeypatch.setattr(module, "ordinary_power", recording)
        run_instance_checks(veronese(9, 7).ideal)
        # n = 2, 3 and 9 by the suites here; the gap split (2, 3, 4), the epsilon
        # estimate (10) and the torsion factorization (9) build their own
        assert calls == [2, 3, 2, 3, 4, 10, 9, 9]
