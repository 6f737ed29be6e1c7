import gc
import random
import weakref
from collections import Counter

import pytest

from conftest import (
    assert_value_type,
    brute_count_complement,
    brute_ordinary_power,
    non_run_ideal,
    one_run_ideal,
    random_cone,
    random_ideal,
    search_torsion_order,
    unimodular,
)
from ghk.checks import lattice_points_in_corner_box
from ghk.errors import (
    BadParameters,
    EmptyInput,
    GeneratorOutsideCone,
    NotSaturated,
)
from ghk.families import a_singularity, quadrant, veronese
from ghk.geometry import Cone2, Corner, Staircase, pareto_minimal
from ghk import ideals
from ghk.ideals import (
    MonomialIdeal,
    frobenius_power,
    is_saturated,
    new_ideal,
    ordinary_power,
    saturation,
    torsion_factorization,
)
from ghk.invariants import h0_powers

QUADRANT = Cone2.from_rays((1, 0), (0, 1))
SKEW = Cone2.from_rays((1, 0), (1, 3))


class TestConstruction:
    def test_gens_sorted_by_corner(self):
        ideal = new_ideal(QUADRANT, [(0, 3), (2, 0)])
        assert ideal.gens == ((2, 0), (0, 3))
        assert ideal.stair.corners == (Corner(0, 2), Corner(3, 0))

    def test_duplicates_and_dominated_gens_dropped(self):
        ideal = new_ideal(QUADRANT, [(2, 0), (2, 0), (2, 1), (3, 5)])
        assert ideal.gens == ((2, 0),)

    def test_generator_outside_cone(self):
        with pytest.raises(GeneratorOutsideCone):
            new_ideal(QUADRANT, [(1, 1), (-1, 0)])
        with pytest.raises(GeneratorOutsideCone):
            new_ideal(SKEW, [(1, 4)])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            new_ideal(QUADRANT, [])

    def test_contains(self):
        ideal = new_ideal(QUADRANT, [(2, 0), (0, 3)])
        assert ideal.contains((2, 5))
        assert ideal.contains((0, 3))
        assert not ideal.contains((1, 2))

    def test_origin_generates_unit_ideal(self):
        ideal = new_ideal(SKEW, [(0, 0), (1, 1), (2, 0)])
        assert ideal.gens == ((0, 0),)

    def test_stored_as_cone_and_staircase_only(self):
        public = [name for name in MonomialIdeal.__slots__ if not name.startswith("_")]
        assert public == ["cone", "stair"]
        ideal = MonomialIdeal(SKEW, Staircase((Corner(0, 6), Corner(1, 5))))
        assert ideal == new_ideal(SKEW, ideal.gens)
        assert tuple(SKEW.corner(g) for g in ideal.gens) == ideal.stair.corners

    def test_equal_staircases_make_equal_ideals(self):
        corners = (Corner(0, 6), Corner(1, 5))
        assert_value_type(
            lambda: MonomialIdeal(Cone2((1, 0), (1, 3)), Staircase(corners)),
            MonomialIdeal(SKEW, Staircase(corners[:1])),
        )
        ideal = MonomialIdeal(SKEW, Staircase(corners[1:]))
        assert repr(ideal) == f"MonomialIdeal(cone={SKEW!r}, stair={ideal.stair!r})"

    def test_kept_powers_are_not_part_of_the_value(self):
        ideal = veronese(9, 7).ideal
        for n in (4, 6):
            ordinary_power(ideal, n)
        fresh = MonomialIdeal(ideal.cone, ideal.stair)
        assert ideal == fresh and hash(ideal) == hash(fresh)

    def test_corner_off_the_image_lattice_rejected(self):
        # SKEW has det_abs 3 and a corner (0, t) needs t divisible by 3
        with pytest.raises(ValueError):
            MonomialIdeal(SKEW, Staircase((Corner(0, 1),)))
        with pytest.raises(ValueError):
            MonomialIdeal(SKEW, Staircase((Corner(0, 6), Corner(1, 4))))


    def test_lattice_check_by_runs_matches_every_corner(self):
        # a run's first corner and its step decide all of its corners
        rng = random.Random(43)
        kinds = Counter()
        for _ in range(300):
            cone = random_cone(rng, 3)
            start, steps = (rng.randint(0, 9), rng.randint(30, 40)), []
            for _ in range(rng.randint(1, 3)):
                steps += [(rng.randint(1, 3), rng.randint(1, 3))] * rng.randint(1, 4)
            corners = [start]
            for w, h in steps:
                corners.append((corners[-1][0] + w, corners[-1][1] - h))
            on = all((t - cone.tau * s) % cone.det_abs == 0 for s, t in corners)
            try:
                MonomialIdeal(cone, Staircase(tuple(corners)))
            except ValueError:
                accepted = False
            else:
                accepted = True
            assert accepted == on
            kinds[on] += 1
        assert min(kinds.values()) >= 20, kinds


class TestPowers:
    def test_frobenius_power_scales_everything(self):
        ideal = veronese(3, 1).ideal
        power = frobenius_power(ideal, 2)
        assert power.gens == ((2, 0), (2, 2))
        assert power.stair.corners == (Corner(0, 6), Corner(2, 4))

    def test_frobenius_power_identity(self):
        ideal = veronese(3, 1).ideal
        assert frobenius_power(ideal, 1) == ideal

    def test_frobenius_power_bad_exponent(self):
        with pytest.raises(BadParameters):
            frobenius_power(veronese(3, 1).ideal, 0)

    def test_ordinary_power_skew(self):
        power = ordinary_power(veronese(3, 1).ideal, 2)
        assert power.gens == ((2, 0), (2, 1), (2, 2))
        assert power.stair.corners == (Corner(0, 6), Corner(1, 5), Corner(2, 4))

    def test_ordinary_power_dual(self):
        power = ordinary_power(a_singularity(3, 1).ideal, 3)
        assert power.stair.corners == (
            Corner(3, 3),
            Corner(5, 2),
            Corner(7, 1),
            Corner(9, 0),
        )

    def test_ordinary_power_identity(self):
        ideal = a_singularity(3, 1).ideal
        assert ordinary_power(ideal, 1) == ideal

    def test_ordinary_power_reduces(self):
        # the square of (x^2, xy, y^3) drops x^2 y^3, divisible by x^2 y^2
        maximal = new_ideal(QUADRANT, [(1, 0), (0, 1)])
        assert len(ordinary_power(maximal, 2).gens) == 3
        mixed = new_ideal(QUADRANT, [(2, 0), (1, 1), (0, 3)])
        square = ordinary_power(mixed, 2)
        assert (2, 3) not in square.gens
        assert sorted(square.gens) == [(0, 6), (1, 4), (2, 2), (3, 1), (4, 0)]

    def test_ordinary_power_matches_multiset_oracle(self):
        rng = random.Random(59)
        bases = []
        for _ in range(20):
            ideal = random_ideal(rng, n_gens=6)
            # points on one line s + t = m are pairwise incomparable, so a
            # sample of them keeps every point as a minimal generator
            lines: dict[int, list] = {}
            for p in lattice_points_in_corner_box(ideal.cone, 0, 13, 0, 13):
                s, t = ideal.cone.corner(p)
                lines.setdefault(s + t, []).append(p)
            row = max(lines.values(), key=len)
            wide = new_ideal(ideal.cone, rng.sample(row, min(6, len(row))))
            bases += [(ideal, 6), (wide, 6)]
        # three corners, the first two one run: the single power's DP runs over a run
        bases += [(non_run_ideal(), 12), (quadrant([(3, 0), (1, 1), (0, 2)]).ideal, 12)]
        for base, n_max in bases:
            # the DP over every generator, against the single-power path
            levels = ideals._power_levels(base.stair.corners, n_max)
            for n in range(1, n_max + 1):
                # an equal ideal with no stored powers runs the single-power DP
                power = ordinary_power(MonomialIdeal(base.cone, base.stair), n)
                brute = brute_ordinary_power(base, n)
                assert power.stair == brute.stair
                assert levels[n] == list(brute.stair.corners)
                assert power.gens == brute.gens
                corners = tuple(base.cone.corner(g) for g in power.gens)
                assert corners == power.stair.corners

    def test_two_generator_power_closed_form(self):
        # two generators: all n + 1 sums k g1 + (n - k) g2 are minimal
        ideal = a_singularity(60, 30).ideal
        (s1, t1), (s2, t2) = ideal.stair.corners
        n = 200
        corners = ordinary_power(ideal, n).stair.corners
        assert len(corners) == n + 1
        assert corners == tuple(
            Corner(k * s1 + (n - k) * s2, k * t1 + (n - k) * t2)
            for k in range(n, -1, -1)
        )

    def test_one_run_levels_match_multiset_oracle(self):
        # the DP on a run, against the multiset oracle: level k is the run dilated by k
        rng = random.Random(61)
        for i in range(18):
            ideal = one_run_ideal(rng, i % 9)
            levels = ideals._power_levels(ideal.stair.corners, 6)
            assert levels[0] == [(0, 0)]
            for k in range(1, 7):
                assert levels[k] == list(brute_ordinary_power(ideal, k).stair.corners)

    def test_levels_of_a_run_come_from_the_dp(self, monkeypatch):
        # the DP alone builds the dilated run, so it can check the closed form
        def no_closed_form(run, n):
            raise AssertionError("the power DP wrote a dilated run")

        monkeypatch.setattr(ideals, "_dilated", no_closed_form)
        # veronese:9,7 is one run of steps (1, -1); a principal ideal is the run with m = 0
        for ideal, (w, h) in [(veronese(9, 7).ideal, (1, 1)), (quadrant([(2, 3)]).ideal, (0, 0))]:
            (s0, t0), m = ideal.stair.corners[0], len(ideal.stair.corners) - 1
            levels = ideals._power_levels(ideal.stair.corners, 12)
            for k in range(13):
                assert levels[k] == [(k * s0 + i * w, k * t0 - i * h) for i in range(k * m + 1)]
            for k in range(1, 7):
                assert levels[k] == list(brute_ordinary_power(ideal, k).stair.corners)

    def test_one_run_single_powers_match_multiset_oracle(self, monkeypatch):
        # single powers of a run are the run dilated by n, with no DP, in the
        # ideal's own lattice coordinates and in two others related by GL2(Z)
        def no_dp(corners, n):
            raise AssertionError("a one-run power reached the DP")

        monkeypatch.setattr(ideals, "_power_levels", no_dp)
        rng = random.Random(79)
        for i in range(18):
            ideal = one_run_ideal(rng, i % 9)
            for mat in [((1, 0), (0, 1))] + [unimodular(rng) for _ in range(2)]:
                (a, b), (c, d) = mat

                def move(p):
                    return (a * p[0] + b * p[1], c * p[0] + d * p[1])

                cone = Cone2.from_rays(move(ideal.cone.ray1), move(ideal.cone.ray2))
                moved = new_ideal(cone, [move(g) for g in ideal.gens])
                for n in range(2, 7):
                    assert ordinary_power(moved, n) == brute_ordinary_power(moved, n)

    def test_one_run_gap_lengths_match_box_oracle(self):
        rng = random.Random(67)
        for i in range(9):
            ideal = one_run_ideal(rng, i)
            lengths = h0_powers(ideal, 6)
            for n in range(1, 7):
                brute = brute_ordinary_power(ideal, n)
                threshold = Corner(*brute.thresholds)
                assert lengths[n - 1] == brute_count_complement(ideal.cone, threshold, brute.stair)

    def test_power_chain_matches_single_powers(self):
        rng = random.Random(71)
        bases = [random_ideal(rng, n_gens=6) for _ in range(6)] + [veronese(9, 7).ideal]
        # one-run ideals, whose single powers are written down, in their own
        # lattice coordinates and after one GL2(Z) move, against the DP
        for run in [one_run_ideal(rng, m) for m in range(1, 5)] + [a_singularity(20, 3).ideal]:
            (a, b), (c, d) = unimodular(rng)

            def move(p):
                return (a * p[0] + b * p[1], c * p[0] + d * p[1])

            cone = Cone2.from_rays(move(run.cone.ray1), move(run.cone.ray2))
            bases += [run, new_ideal(cone, [move(g) for g in run.gens])]
        for base in bases:
            levels = ideals._power_levels(base.stair.corners, 40)
            assert len(levels) == 41
            for k in range(1, 41):
                power = ordinary_power(MonomialIdeal(base.cone, base.stair), k)
                assert levels[k] == list(power.stair.corners)

    def test_principal_power_is_scaled(self):
        ideal = quadrant([(2, 3)]).ideal
        n = 10**9
        assert ordinary_power(ideal, n).stair == ideal.stair.scale(n)

    @pytest.mark.parametrize("build", [ordinary_power, h0_powers])
    def test_work_cap_is_exact(self, build, monkeypatch):
        # a fresh ideal for each call: a stored power is not estimated again
        monkeypatch.setattr(ideals, "_MAX_POWER_WORK", 0)
        with pytest.raises(BadParameters, match="needs about") as refused:
            build(veronese(9, 7).ideal, 30)
        work = int(str(refused.value).split()[4])
        monkeypatch.setattr(ideals, "_MAX_POWER_WORK", work)
        build(veronese(9, 7).ideal, 30)
        monkeypatch.setattr(ideals, "_MAX_POWER_WORK", work - 1)
        with pytest.raises(BadParameters, match=f"needs about {work} DP steps"):
            build(veronese(9, 7).ideal, 30)

    def test_refused_power_is_refused_again(self, monkeypatch):
        ideal = veronese(9, 7).ideal
        monkeypatch.setattr(ideals, "_MAX_POWER_WORK", 0)
        for _ in range(2):
            with pytest.raises(BadParameters, match="power 30 needs about"):
                ordinary_power(ideal, 30)
        monkeypatch.setattr(ideals, "_MAX_POWER_WORK", 10**9)
        assert ordinary_power(ideal, 30) == ordinary_power(veronese(9, 7).ideal, 30)

    def test_each_power_is_built_once_and_kept(self, monkeypatch):
        original, calls = ideals._power_levels, []

        def counted(corners, n):
            calls.append(n)
            return original(corners, n)

        monkeypatch.setattr(ideals, "_power_levels", counted)
        ideal = non_run_ideal()
        single = ordinary_power(ideal, 5)
        assert ordinary_power(ideal, 5) is single
        assert calls == [5]
        # an equal ideal built elsewhere has its own, empty store
        assert ordinary_power(non_run_ideal(), 5) is not single
        assert calls == [5, 5]
        # a one-run ideal's single powers are written down, with no DP
        run = veronese(9, 7).ideal
        for n in (2, 5, 30):
            ordinary_power(run, n)
        assert calls == [5, 5]

    def test_powers_inside_a_counted_chain_need_no_dp(self, monkeypatch):
        original, calls = ideals._power_levels, []

        def counted(corners, n):
            calls.append(n)
            return original(corners, n)

        monkeypatch.setattr(ideals, "_power_levels", counted)
        ideal = veronese(9, 7).ideal
        longer = h0_powers(ideal, 63)
        assert h0_powers(ideal, 8) == longer[:8]
        powers = [ordinary_power(ideal, k) for k in range(1, 10)]
        # the one-run gap lengths and single powers run no DP
        assert calls == []
        assert longer[:9] == [ideals._gap_count(power) for power in powers]
        assert all(powers[k - 1] is ordinary_power(ideal, k) for k in range(1, 10))
        fresh = veronese(9, 7).ideal
        assert powers == [ordinary_power(fresh, k) for k in range(1, 10)]

    def test_ideal_with_powers_dies_without_the_collector(self):
        ideal = veronese(9, 7).ideal
        for n in (4, 6):
            ordinary_power(ideal, n)
        ref = weakref.ref(ideal)
        gc.disable()
        try:
            del ideal
            assert ref() is None
        finally:
            gc.enable()

    def test_thresholds_scale_along_powers(self):
        rng = random.Random(37)
        for _ in range(25):
            ideal = random_ideal(rng)
            c1, c2 = ideal.thresholds
            for q in (2, 3, 5):
                assert frobenius_power(ideal, q).thresholds == (q * c1, q * c2)
            for n in (2, 3):
                assert ordinary_power(ideal, n).thresholds == (n * c1, n * c2)

    def test_bracket_power_inside_ordinary_power(self):
        rng = random.Random(41)
        for _ in range(15):
            ideal = random_ideal(rng, n_gens=3, spread=6)
            q = 3
            power = ordinary_power(ideal, q)
            for g in frobenius_power(ideal, q).gens:
                assert power.contains(g)


class TestSaturation:
    def test_thresholds_examples(self):
        assert a_singularity(3, 1).ideal.thresholds == (1, 0)
        assert veronese(3, 1).ideal.thresholds == (0, 2)
        assert new_ideal(QUADRANT, [(2, 0), (0, 3)]).thresholds == (0, 0)

    def test_is_saturated(self):
        assert is_saturated(veronese(3, 1).ideal)
        assert is_saturated(a_singularity(3, 1).ideal)
        assert not is_saturated(new_ideal(QUADRANT, [(2, 0), (0, 3)]))
        assert is_saturated(new_ideal(QUADRANT, [(2, 3)]))

    def test_saturation_of_plane_ideal_is_unit(self):
        sat = saturation(new_ideal(QUADRANT, [(2, 0), (0, 3)]))
        assert sat.gens == ((0, 0),)

    def test_saturation_fixes_saturated_ideals(self):
        assert saturation(veronese(3, 1).ideal) == veronese(3, 1).ideal
        assert saturation(a_singularity(5, 2).ideal) == a_singularity(5, 2).ideal

    def test_saturation_is_saturated_and_larger(self):
        rng = random.Random(43)
        for _ in range(40):
            ideal = random_ideal(rng)
            sat = saturation(ideal)
            assert is_saturated(sat)
            assert sat.thresholds == ideal.thresholds
            for g in ideal.gens:
                assert sat.contains(g)

    def test_saturated_region_has_no_gap_points(self):
        # brute-force double check on the fast emptiness test
        rng = random.Random(47)
        for _ in range(25):
            ideal = saturation(random_ideal(rng, spread=7))
            c1, c2 = ideal.thresholds
            assert brute_count_complement(ideal.cone, Corner(c1, c2), ideal.stair) == 0


class TestTorsion:
    def test_skew_example(self):
        fact = torsion_factorization(veronese(3, 1).ideal)
        assert fact.order == 3
        assert fact.shift == (2, 0)
        assert fact.primary.stair.corners == (
            Corner(0, 3),
            Corner(1, 2),
            Corner(2, 1),
            Corner(3, 0),
        )

    def test_dual_example(self):
        fact = torsion_factorization(a_singularity(3, 1).ideal)
        assert fact.order == 3
        assert fact.shift == (3, -1)
        assert fact.primary.stair.corners == (
            Corner(0, 3),
            Corner(2, 2),
            Corner(4, 1),
            Corner(6, 0),
        )

    def test_principal_ideal_has_order_one(self):
        fact = torsion_factorization(new_ideal(QUADRANT, [(2, 3)]))
        assert fact.order == 1
        assert fact.shift == (2, 3)
        assert fact.primary.gens == ((0, 0),)

    def test_requires_saturated(self):
        with pytest.raises(NotSaturated):
            torsion_factorization(new_ideal(QUADRANT, [(2, 0), (0, 3)]))

    def test_order_formula_matches_search_oracle(self, monkeypatch):
        # the r-th power is checked by test_round_trip_rebuilds_power; here the
        # bracket power stands in for it, so orders in the thousands stay cheap
        monkeypatch.setattr(ideals, "ordinary_power", frobenius_power)
        rng = random.Random(61)
        large = 0
        for _ in range(2000):
            cone = random_cone(rng, rng.randint(1, 50))
            tau = cone.tau
            d = cone.det_abs
            c1, c2 = rng.randint(0, 2 * d), rng.randint(0, 2 * d)
            # lattice corners in column c1 and in row c2 fix the thresholds
            s = c1 + (c2 - tau * c1) * pow(tau, -1, d) % d if d > 1 else c1
            t = c2 + (tau * c1 - c2) % d + d * rng.randint(0, 2)
            ideal = saturation(MonomialIdeal(cone, pareto_minimal([Corner(c1, t), Corner(s, c2)])))
            assert ideal.thresholds == (c1, c2)
            order, shift = search_torsion_order(ideal, d)
            fact = torsion_factorization(ideal)
            assert (fact.order, fact.shift) == (order, shift)
            large += d >= 1000
        assert large >= 50

    def test_round_trip_rebuilds_power(self):
        rng = random.Random(53)
        for _ in range(25):
            ideal = saturation(random_ideal(rng, spread=7))
            fact = torsion_factorization(ideal)
            assert 1 <= fact.order <= ideal.cone.det_abs
            power = ordinary_power(MonomialIdeal(ideal.cone, ideal.stair), fact.order)
            rebuilt = sorted(
                (x + fact.shift[0], y + fact.shift[1]) for x, y in fact.primary.gens
            )
            assert rebuilt == sorted(power.gens)
            assert fact.primary.thresholds == (0, 0)
