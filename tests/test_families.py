import re
from fractions import Fraction

import pytest

from ghk.errors import BadParameters
from ghk.families import a_singularity, parse_family, quadrant, veronese
from ghk.ideals import is_saturated, new_ideal, torsion_factorization
from ghk.invariants import eghk


class TestVeronese:
    def test_shape(self):
        inst = veronese(3, 1)
        assert inst.ideal.cone.ray2 == (1, 3)
        assert inst.ideal.gens == ((1, 0), (1, 1))
        assert inst.label == "veronese:3,1"

    def test_closed_form_matches_area(self):
        for r in range(2, 11):
            for m in range(1, r):
                inst = veronese(r, m)
                assert inst.closed_form == Fraction(m * (m + 1), 2 * r)
                assert eghk(inst.ideal) == inst.closed_form

    def test_always_saturated(self):
        for r in range(2, 9):
            for m in range(1, r):
                assert is_saturated(veronese(r, m).ideal)

    def test_parameter_bounds(self):
        for r, m in ((1, 1), (3, 0), (3, 3), (2, 2), (0, 1)):
            with pytest.raises(BadParameters):
                veronese(r, m)


class TestASingularity:
    def test_shape(self):
        inst = a_singularity(3, 1)
        assert inst.ideal.gens == ((1, 0), (3, -1))
        assert inst.ideal.thresholds == (1, 0)

    def test_closed_form_matches_area(self):
        for r in range(2, 11):
            for m in range(1, r):
                inst = a_singularity(r, m)
                assert inst.closed_form == Fraction(m * (r - m), r)
                assert eghk(inst.ideal) == inst.closed_form

    def test_symmetric_in_m(self):
        for r in range(2, 9):
            for m in range(1, r):
                assert eghk(a_singularity(r, m).ideal) == eghk(
                    a_singularity(r, r - m).ideal
                )

    def test_always_saturated(self):
        for r in range(2, 9):
            for m in range(1, r):
                assert is_saturated(a_singularity(r, m).ideal)

    def test_torsion_order_divides_index(self):
        for r in range(2, 8):
            for m in range(1, r):
                ideal = a_singularity(r, m).ideal
                fact = torsion_factorization(ideal)
                assert ideal.cone.det_abs == r
                assert r % fact.order == 0

    def test_parameter_bounds(self):
        for r, m in ((1, 1), (4, 0), (4, 4), (0, 0)):
            with pytest.raises(BadParameters):
                a_singularity(r, m)


class TestQuadrant:
    def test_examples(self):
        assert eghk(quadrant([(2, 0), (0, 3)]).ideal) == 6
        assert eghk(quadrant([(2, 3)]).ideal) == 0
        assert eghk(quadrant([(1, 0), (0, 1)]).ideal) == 1

    def test_label_uses_minimal_generators(self):
        inst = quadrant([(2, 0), (2, 1), (0, 3)])
        assert inst.label == "quadrant:(2,0);(0,3)"


class TestParse:
    def test_round_trips(self):
        for text in ("veronese:4,2", "a:5,3"):
            inst = parse_family(text)
            assert inst.label == text
            assert parse_family(inst.label).ideal == inst.ideal

    def test_families_build_what_new_ideal_builds(self):
        # the staircases are written down, not reduced from the generators
        for r in range(2, 41):
            for m in range(1, r):
                for text, gens, closed_form in (
                    (f"veronese:{r},{m}", [(1, k) for k in range(m + 1)],
                     Fraction(m * (m + 1), 2 * r)),
                    (f"a:{r},{m}", [(r, -1), (m, 0)], Fraction(m * (r - m), r)),
                ):
                    inst = parse_family(text)
                    ideal = new_ideal(inst.ideal.cone, gens)
                    assert inst.ideal == ideal
                    assert inst.ideal.stair.runs == ideal.stair.runs
                    assert inst.ideal.thresholds == ideal.thresholds
                    assert inst.closed_form == closed_form == eghk(ideal)

    def test_parameter_messages(self):
        for text, message in (
            ("veronese:1,1", "veronese degree r must be at least 2"),
            ("veronese:5,0", "veronese width m must satisfy 1 <= m <= r - 1"),
            ("veronese:5,5", "veronese width m must satisfy 1 <= m <= r - 1"),
            ("a:1,1", "type A index r must be at least 2"),
            ("a:-3,1", "type A index r must be at least 2"),
            ("a:5,-1", "type A parameter m must satisfy 1 <= m <= r - 1"),
            ("a:5,5", "type A parameter m must satisfy 1 <= m <= r - 1"),
            ("a:5,x", "family 'a:5,x' has non-integer parameters"),
            ("veronese:5", "family 'veronese:5' needs two integer parameters"),
        ):
            with pytest.raises(BadParameters, match=f"^{re.escape(message)}$"):
                parse_family(text)

    def test_quadrant_parse(self):
        inst = parse_family("quadrant:(2,0);(0,3)")
        assert inst.ideal.gens == ((2, 0), (0, 3))
        spaced = parse_family("quadrant: (2, 0) ; (0, 3) ")
        assert spaced.ideal == inst.ideal

    def test_negative_coordinates_parse(self):
        inst = parse_family("a:3,1")
        assert (3, -1) in inst.ideal.gens

    def test_rejects_malformed(self):
        bad = [
            "veronese",
            "veronese:3",
            "veronese:3,1,2",
            "veronese:x,y",
            "a:",
            "quadrant:",
            "quadrant:(1,2);bogus",
            "quadrant:1,2",
            "mystery:3,1",
        ]
        for text in bad:
            with pytest.raises(BadParameters):
                parse_family(text)
