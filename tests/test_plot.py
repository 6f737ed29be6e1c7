import json
import random
import re
from fractions import Fraction

import pytest

import ghk.ideals
from conftest import column_walk_dots, random_cone, random_ideal
from ghk import svgplot
from ghk.cli import run_command
from ghk.errors import BadParameters
from ghk.families import a_singularity, parse_family, veronese
from ghk.geometry import Cone2, Corner, Staircase, _rectangles
from ghk.ideals import new_ideal
from ghk.svgplot import render_region_svg

POLYGON = re.compile(r'<polygon class="([a-z-]+)"[^>]*points="([^"]+)"')
CIRCLE = re.compile(r'<circle class="([a-z-]+)"')


def polygons(svg):
    found = {}
    for cls, raw in POLYGON.findall(svg):
        pts = [tuple(int(v) for v in pair.split(",")) for pair in raw.split()]
        found.setdefault(cls, []).append(pts)
    return found


def circles(svg):
    counts = {}
    for cls in CIRCLE.findall(svg):
        counts[cls] = counts.get(cls, 0) + 1
    return counts


def shoelace2(pts):
    total = 0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        total += x1 * y2 - x2 * y1
    return abs(total)


def adjugate_to_svg(cone, s, t):
    """det_abs times the point with corner (s, t), y flipped, through the normals' adjugate."""
    n1, n2 = cone.normal1, cone.normal2
    det = n1[0] * n2[1] - n1[1] * n2[0]
    sign = 1 if det > 0 else -1
    px = sign * (n2[1] * s - n1[1] * t)
    py = sign * (-n2[0] * s + n1[0] * t)
    return px, -py


class TestRenderedRegions:
    def test_plane_map_matches_the_adjugate(self):
        rng = random.Random(17)
        off_lattice = 0
        for _ in range(300):
            cone = random_cone(rng, rng.randint(1, 30))
            to_svg = svgplot._corner_to_svg(cone)
            for _ in range(5):
                s, t = rng.randint(-60, 60), rng.randint(-60, 60)
                off_lattice += cone.preimage(Corner(s, t)) is None
                assert to_svg(s, t) == adjugate_to_svg(cone, s, t)
        assert off_lattice > 500

    def test_veronese_band_areas(self):
        inst = veronese(3, 1)
        svg = render_region_svg(inst.ideal, q_mark=2)
        polys = polygons(svg)
        det = inst.ideal.cone.det_abs
        # x-space areas reappear scaled by 2 * det^2 under the integer transform
        red = sum(shoelace2(p) for p in polys["region-red"])
        green = sum(shoelace2(p) for p in polys["region-green"])
        # red tracks the ordinary-power gap, green the band up to the scaled stair
        assert Fraction(red, 2 * det**2) == Fraction(1, 4) * 4
        assert Fraction(green, 2 * det**2) == Fraction(1, 12) * 4
        dots = circles(svg)
        assert dots["gap-dot"] == 1
        assert dots["gen-dot"] == 2

    def test_a_family_unscaled(self):
        inst = a_singularity(3, 1)
        svg = render_region_svg(inst.ideal)
        polys = polygons(svg)
        det = inst.ideal.cone.det_abs
        red = sum(shoelace2(p) for p in polys["region-red"])
        assert Fraction(red, 2 * det**2) == Fraction(2, 3)
        assert circles(svg).get("gap-dot", 0) == 0

    def test_principal_ideal_has_no_gap_region(self):
        inst = parse_family("quadrant:(2,3)")
        svg = render_region_svg(inst.ideal)
        polys = polygons(svg)
        assert "region-red" not in polys
        assert "region-green" not in polys
        assert "region-w" in polys
        dots = circles(svg)
        assert dots.get("gap-dot", 0) == 0
        assert dots["gen-dot"] == 1

    def test_deterministic_output(self):
        inst = a_singularity(5, 2)
        first = render_region_svg(inst.ideal, q_mark=3)
        second = render_region_svg(inst.ideal, q_mark=3)
        assert first == second
        assert first.startswith("<svg")
        assert 'data-power-scale="3"' in first

    def test_row_walk_draws_the_column_walk_svg(self, monkeypatch):
        # short wide gap rectangles are walked by rows, the others by columns
        rng = random.Random(61)
        wide = new_ideal(Cone2.from_rays((1, 0), (1, 1000)), [(1, 998), (1, 999), (10, 10**4)])
        cases = [(wide, None), (a_singularity(5, 2).ideal, 3), (veronese(9, 7).ideal, 5)]
        cases += [(random_ideal(rng, ray_bound=9), rng.choice((None, 2, 3))) for _ in range(30)]
        walks = set()
        for ideal, q in cases:
            svg = render_region_svg(ideal, q_mark=q)
            coarse = ideal.stair.scale(q or 1)
            threshold = Staircase((Corner(coarse.min_s, coarse.min_t),))
            for a, b, lo, hi in _rectangles(threshold, coarse):
                walks.add("rows" if hi - lo < b - a else "columns")
            with monkeypatch.context() as m:
                m.setattr(svgplot, "_gap_dots", column_walk_dots)
                assert render_region_svg(ideal, q_mark=q) == svg
        assert walks == {"rows", "columns"}
        assert circles(render_region_svg(wide))["gap-dot"] == 9

    def test_dot_cap_is_exact(self, monkeypatch):
        ideal = a_singularity(5, 2).ideal
        dots = circles(render_region_svg(ideal, q_mark=3))["gap-dot"]
        monkeypatch.setattr(svgplot, "_MAX_GAP_DOTS", dots)
        assert circles(render_region_svg(ideal, q_mark=3))["gap-dot"] == dots
        monkeypatch.setattr(svgplot, "_MAX_GAP_DOTS", dots - 1)
        with pytest.raises(BadParameters, match=f"{dots} gap dots"):
            render_region_svg(ideal, q_mark=3)


class TestPlotCommand:
    def test_writes_file_and_reports_areas(self, capsys, tmp_path):
        out = tmp_path / "region.svg"
        code = run_command(
            ["plot", "--family", "veronese:3,1", "--q-mark", "2", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        results = report["results"]
        assert results["out"] == str(out)
        assert results["power_scale"] == 2
        areas = results["areas"]
        assert areas["total_gap"]["rational"] == "1/3"
        assert areas["ordinary_gap"]["rational"] == "1/4"
        assert areas["band"]["rational"] == "1/12"
        svg = out.read_text()
        assert svg == render_region_svg(veronese(3, 1).ideal, q_mark=2)

    def test_same_bytes_across_invocations(self, capsys, tmp_path):
        first = tmp_path / "one.svg"
        second = tmp_path / "two.svg"
        for out in (first, second):
            assert run_command(["plot", "--family", "a:4,1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_q_mark_beyond_dot_cap_is_input_error(self, capsys, tmp_path):
        # 12,444,445 gap dots, about a gigabyte of SVG, refused before any power is built
        out = tmp_path / "big.svg"
        code = run_command(
            ["plot", "--family", "veronese:9,7", "--q-mark", "2000", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "12444445 gap dots" in captured.err
        assert not out.exists()

    def test_q_mark_builds_the_power_once(self, capsys, tmp_path, monkeypatch):
        original, calls = ghk.ideals._power_levels, []

        def counted(corners, n):
            calls.append(n)
            return original(corners, n)

        monkeypatch.setattr(ghk.ideals, "_power_levels", counted)
        out = tmp_path / "v.svg"
        code = run_command(
            ["plot", "--family", "quadrant:(3,0);(1,1);(0,3)", "--q-mark", "40", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert calls == [40]

    def test_q_mark_on_principal_ideal_is_scaled(self, capsys, tmp_path):
        # no gap dots pass the dot cap, so only the O(1) principal power keeps this fast
        out = tmp_path / "p.svg"
        code = run_command(
            ["plot", "--family", "quadrant:(2,3)", "--q-mark", "1000000000", "--out", str(out)]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["results"]["power_scale"] == 10**9
        assert report["results"]["areas"]["ordinary_gap"]["rational"] == "0"
        assert 'data-power-scale="1000000000"' in out.read_text()
