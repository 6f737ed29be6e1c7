import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from time import perf_counter

import pytest

from conftest import (
    brute_count_complement,
    brute_ordinary_power,
    column_count_complement,
    count_floor_sums,
    fit_oracle,
    floor_sum_count_complement,
    forbid_listing,
    non_run_ideal,
    random_cone,
    random_ideal,
    random_index_ideal,
    unimodular,
)
from ghk import ideals, invariants
from ghk.cli import run_command
from ghk.errors import (
    BadParameters,
    NoStabilization,
    NotMPrimary,
    NotSaturated,
)
from ghk.families import a_singularity, parse_family, quadrant, veronese
from ghk.geometry import (
    Cone2,
    Corner,
    Staircase,
    _count_tower,
    _count_under,
    count_lattice_complement,
)
from ghk.ideals import (
    MonomialIdeal,
    _gap_count,
    frobenius_power,
    is_saturated,
    new_ideal,
    ordinary_power,
    saturation,
    torsion_factorization,
)
from ghk.invariants import (
    GapSplit,
    convergence_constant,
    eghk,
    epsilon_estimate,
    fit_quasi_polynomial,
    frobenius_gap_split,
    ghk_function,
    h0_powers,
    newton_multiplicity,
)

QUADRANT = Cone2.from_rays((1, 0), (0, 1))
VER31 = veronese(3, 1).ideal
A31 = a_singularity(3, 1).ideal


class TestEghk:
    def test_skew_example(self):
        assert eghk(VER31) == Fraction(1, 3)

    def test_dual_example(self):
        assert eghk(A31) == Fraction(2, 3)

    def test_principal_is_zero(self):
        assert eghk(new_ideal(QUADRANT, [(2, 3)])) == 0

    def test_plane_colength(self):
        assert eghk(new_ideal(QUADRANT, [(2, 0), (0, 3)])) == 6

    def test_exact_rational_output(self):
        rng = random.Random(61)
        for _ in range(40):
            value = eghk(random_ideal(rng))
            assert isinstance(value, Fraction)
            assert not isinstance(value, float)
            assert value.denominator > 0
            assert gcd(value.numerator, value.denominator) == 1
            assert value >= 0

    def test_frobenius_scaling(self):
        rng = random.Random(67)
        for _ in range(20):
            ideal = random_ideal(rng)
            base = eghk(ideal)
            for q in (2, 3):
                assert eghk(frobenius_power(ideal, q)) == q * q * base


def shared_width_ideal(rng: random.Random, d_max: int) -> MonomialIdeal:
    """An ideal of index up to d_max whose lattice steps have two widths in random order.

    Each step's height is one of the lattice heights of its width, so
    runs of one width but different heights alternate with the other
    width's, and several runs share a width.
    """
    d = rng.randint(1, d_max)
    k = rng.randint(0, d)
    while gcd(k, d) != 1:
        k = rng.randint(0, d)
    cone = Cone2.from_rays((1, 0), (k, d))
    tau = cone.tau
    widths = rng.sample(range(1, 50), 2)
    steps = []
    for _ in range(rng.randint(3, 8)):
        w = rng.choice(widths)
        steps.append((w, (-tau * w) % d + d * rng.randint(0 if (tau * w) % d else 1, 2)))
    # the last corner is a lattice corner, so every corner before it is one too
    s = rng.randint(0, 3)
    end = s + sum(w for w, _ in steps)
    t = (tau * end) % d + d * rng.randint(0, 2) + sum(h for _, h in steps)
    corners = [(s, t)]
    for w, h in steps:
        s, t = s + w, t - h
        corners.append((s, t))
    return MonomialIdeal(cone, Staircase(tuple(corners)))


TOWER_PRIMES = (2, 3, 5, 7, 2**40 - 87)  # the last one the largest 40-bit prime


def tower_bases(rng: random.Random) -> list[MonomialIdeal]:
    # random and principal ideals, ideals of index up to 10^12, and runs sharing a width
    bases = [random_ideal(rng, n_gens=5) for _ in range(6)]
    bases += [random_ideal(rng, n_gens=1) for _ in range(2)]
    bases += [random_index_ideal(rng, 10**12) for _ in range(6)]
    bases += [shared_width_ideal(rng, d_max) for d_max in (1, 7, 10**4, 10**12, 10**12)]
    return bases + [non_run_ideal(), VER31]


def distinct_widths(ideal: MonomialIdeal) -> int:
    return len({w for _, _, w, _, r in ideal.stair.runs if r})


class TestGhkFunction:
    def test_tower_matches_single_counts_of_scaled_staircases(self):
        # each q of a tower to the 4096-bit cap, against _count_under of the staircase
        # scaled by q; every tower is read at its ends and at sampled depths
        rng = random.Random(3511)
        bases = tower_bases(rng)
        assert any(len(base.stair.corners) == 1 for base in bases)
        assert sum(distinct_widths(base) < len(base.stair.runs) for base in bases) >= 4
        assert max(base.cone.det_abs for base in bases) > 10**11
        for p in TOWER_PRIMES:
            n_cap = 4096 // p.bit_length()
            for base in bases:
                depths = sorted({0, 1, 2, n_cap, *rng.sample(range(n_cap + 1), 6)})
                scales = [p**n for n in depths]
                expected = [_count_under(base.cone, base.stair.scale(q).runs) for q in scales]
                assert _count_tower(base.cone, base.stair.runs, scales) == expected, (base, p)
            values = ghk_function(VER31, p, n_cap)
            for n in (0, n_cap // 2, n_cap):
                assert values[n] == _count_under(VER31.cone, VER31.stair.scale(p**n).runs)

    def test_tower_costs_a_floor_sum_per_width_and_scales_no_staircase(self, monkeypatch):
        # each q: one floor sum for the bottom row, at most one per distinct step width
        rng = random.Random(3517)
        bases = tower_bases(rng)
        calls = count_floor_sums(monkeypatch)

        def scaling(stair, k):
            raise AssertionError("a tower scaled a staircase")

        monkeypatch.setattr(Staircase, "scale", scaling)
        tight = shared = 0
        for base in bases:
            k = distinct_widths(base)
            for p, n_max in ((2, 40), (3, 25), (5, 17)):
                calls.clear()
                values = ghk_function(base, p, n_max)
                assert len(values) == n_max + 1
                assert len(calls) <= (n_max + 1) * (k + 1), (base, p)
                # the bound is met when every column sum is a floor sum, and it is below
                # one floor sum per run for every tower
                tight += len(calls) == (n_max + 1) * (k + 1) and k > 0
                shared += len(calls) < (n_max + 1) * (len(base.stair.runs) + 1)
        assert tight >= 5 and shared == 3 * len(bases)

    def test_skew_small_prime_tower(self):
        assert ghk_function(VER31, 2, 2) == [0, 1, 5]

    def test_skew_closed_form(self):
        # the gap count at q is (q^2 - 1) / 3 here
        values = ghk_function(VER31, 2, 5)
        assert values == [(4**n - 1) // 3 for n in range(6)]

    def test_saturated_principal_all_zero(self):
        ideal = new_ideal(QUADRANT, [(3, 4)])
        assert ghk_function(ideal, 3, 3) == [0, 0, 0, 0]

    def test_plane_box_counts(self):
        ideal = new_ideal(QUADRANT, [(2, 0), (0, 3)])
        assert ghk_function(ideal, 2, 2) == [6, 24, 96]

    def test_matches_brute_force_counts(self):
        for ideal, p in ((VER31, 3), (A31, 3), (A31, 2)):
            values = ghk_function(ideal, p, 3)
            c1, c2 = ideal.thresholds
            for n, value in enumerate(values):
                q = p**n
                brute = brute_count_complement(
                    ideal.cone, Corner(q * c1, q * c2), ideal.stair.scale(q)
                )
                assert value == brute

    def test_deep_tower_matches_floor_sum_oracle(self):
        # q reaches 2^40, so this finishes only if counting is independent of q
        ideal = a_singularity(7, 3).ideal
        c1, c2 = ideal.thresholds
        expected = [
            floor_sum_count_complement(
                ideal.cone, Corner(q * c1, q * c2), ideal.stair.scale(q)
            )
            for q in (2**n for n in range(41))
        ]
        assert ghk_function(ideal, 2, 40) == expected

    def test_tower_counts_match_built_powers_and_oracles(self):
        # non-saturated random ideals, their saturations and ideals of cones with
        # det_abs up to 10^4, along the tower of each small prime up to q = 2^40
        rng = random.Random(1503)
        bases = []
        for _ in range(6):
            ideal = random_ideal(rng, n_gens=5)
            bases += [ideal, saturation(ideal)]
        bases += [random_index_ideal(rng) for _ in range(6)]
        assert sum(not is_saturated(base) for base in bases) >= 4
        columns = 0
        for p in (2, 3, 5, 7):
            n_max = max(n for n in range(41) if p**n <= 2**40)
            for base in bases:
                values = ghk_function(base, p, n_max)
                powers = [frobenius_power(base, p**n) for n in range(n_max + 1)]
                assert values == [_gap_count(power) for power in powers]
                width = base.stair.max_s - base.stair.min_s
                for n, (value, power) in enumerate(zip(values, powers)):
                    threshold = Corner(*power.thresholds)
                    assert value == floor_sum_count_complement(base.cone, threshold, power.stair)
                    if p**n * width <= 10**4:
                        columns += 1
                        assert value == column_count_complement(base.cone, threshold, power.stair)
        assert columns >= 100

    def test_rejects_bad_characteristic(self):
        for p in (1, 0, -3, 4, 9, 15):
            with pytest.raises(BadParameters):
                ghk_function(VER31, p, 2)
        with pytest.raises(BadParameters):
            ghk_function(VER31, 2, -1)

    def test_primality_by_trial_division_up_to_isqrt(self):
        # 46337^2 has its only factor at the isqrt boundary; 2^31 - 1 is
        # prime and needs about 46000 trial divisions, not 2^31
        start = perf_counter()
        for p in (2, 3, 2**31 - 1):
            assert ghk_function(VER31, p, 0) == [0]
        assert perf_counter() - start < 1
        for p in (4, 9, 25, 49, 46337 * 46337):
            with pytest.raises(BadParameters, match=f"characteristic {p} is not prime"):
                ghk_function(VER31, p, 0)

    def test_size_caps_come_before_primality(self):
        # the 54-bit prime took seconds of trial division, and 2^8000 overflowed
        # the report's integer-to-string limit after seconds of counting
        start = perf_counter()
        with pytest.raises(BadParameters, match="characteristic 10000000000000061 has 54 bits"):
            ghk_function(VER31, 10000000000000061, 0)
        with pytest.raises(BadParameters, match=r"q = 2\^8000 needs up to 16000 bits, over 4096"):
            ghk_function(VER31, 2, 8000)
        assert perf_counter() - start < 0.1

    def test_tower_cap_is_exact(self, monkeypatch):
        # the runs once, then (n_max + 1) times a floor sum and a column sum per
        # distinct width, refused before the primality test: 3 corners in 2 runs
        # of the widths 1 and 4, and 7 corners whose steps (1, -2) and (1, -1)
        # alternate, 6 runs of the one width 1
        alternating = new_ideal(QUADRANT, [(i + i // 2, 6 - i) for i in range(7)])
        for ideal, runs, widths in ((non_run_ideal(), 2, 2), (alternating, 6, 1)):
            assert len(ideal.stair.runs) == runs
            work = runs + 6 * (1 + widths)
            monkeypatch.setattr(invariants, "_MAX_TOWER_WORK", work)
            assert len(ghk_function(ideal, 2, 5)) == 6
            monkeypatch.setattr(invariants, "_MAX_TOWER_WORK", work - 1)
            refusal = rf"\^5 needs {work} count steps, over {work - 1}"
            for p in (2, 4):
                with pytest.raises(BadParameters, match=refusal):
                    ghk_function(ideal, p, 5)

    def test_digit_limit_boundary(self):
        # on the unit quadrant the count at q = 1 is exactly the gap box, n^2
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            n = 10**320 - 1
            assert ghk_function(new_ideal(QUADRANT, [(n, 0), (0, n)]), 2, 0) == [n * n]
            with pytest.raises(BadParameters, match=r"up to q = 2\^0 may pass 640 digits"):
                ghk_function(new_ideal(QUADRANT, [(n + 1, 0), (0, n + 1)]), 2, 0)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_digit_limit_check_does_not_grow_with_the_limit(self):
        # building 10^limit for every tower took about 2 s at a limit of 4,000,000
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4_000_000)
        try:
            start = perf_counter()
            assert ghk_function(a_singularity(7, 3).ideal, 2, 5) == [0, 6, 26, 108, 438, 1754]
            assert perf_counter() - start < 0.5
            assert run_command(["verify", "--family", "a:7,3"]) == 0
        finally:
            sys.set_int_max_str_digits(limit)

    def test_normalized_counts_converge(self):
        for ideal in (VER31, A31, a_singularity(5, 2).ideal):
            area = eghk(ideal)
            bound = convergence_constant(ideal)
            for p in (2, 3):
                for n, value in enumerate(ghk_function(ideal, p, 4)):
                    q = p**n
                    assert abs(Fraction(value, q * q) - area) <= Fraction(bound, q)


class TestGapSplit:
    def test_skew_example(self):
        assert frobenius_gap_split(VER31, 2) == (1, 0, 1)

    def test_dual_example(self):
        assert frobenius_gap_split(A31, 3) == (6, 3, 3)

    def test_trivial_at_q_one(self):
        assert frobenius_gap_split(VER31, 1) == (0, 0, 0)

    def test_requires_saturated(self):
        with pytest.raises(NotSaturated):
            frobenius_gap_split(new_ideal(QUADRANT, [(2, 0), (0, 3)]), 2)

    def test_additive_on_random_saturated_ideals(self):
        rng = random.Random(71)
        for _ in range(20):
            ideal = saturation(random_ideal(rng, spread=7))
            for q in (2, 3, 4):
                split = frobenius_gap_split(ideal, q)
                assert split.total_gap == split.sym_vs_ord + split.ord_vs_frob

    @pytest.mark.parametrize("family, q", [("a:47,27", 186), ("veronese:9,7", 40)])
    def test_one_run_split_and_lengths_list_no_power_corner(self, family, q, monkeypatch):
        # a one-run ideal's powers are stored as one run and counted off it: no
        # staircase of more corners than the input's is listed
        expected = frobenius_gap_split(parse_family(family).ideal, q)
        lengths = h0_powers(parse_family(family).ideal, q)
        forbid_listing(monkeypatch, len(parse_family(family).ideal.stair.corners))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert run_command(["split", "--family", family, "--q", str(q)]) == 0
        results = json.loads(out.getvalue())["results"]
        assert tuple(results[k] for k in GapSplit._fields) == expected
        assert expected.sym_vs_ord == lengths[-1]
        ideal = parse_family(family).ideal
        assert h0_powers(ideal, q) == lengths
        assert frobenius_gap_split(ideal, q) == expected
        assert len(ordinary_power(ideal, q).stair.runs) == 1

    def test_a_wide_one_run_split_takes_at_most_eight_floor_sums(self, monkeypatch):
        # a:1000003,1 is one step 1,000,002 columns wide: the saturation test and the
        # three counts each read a run off its first step, whatever q
        ideal = a_singularity(1000003, 1).ideal
        calls = count_floor_sums(monkeypatch)
        assert frobenius_gap_split(ideal, 100000) == (9999900000, 4999950000, 4999950000)
        assert len(calls) <= 8, len(calls)

    def test_sym_part_is_power_length(self):
        for ideal in (VER31, A31, a_singularity(4, 1).ideal):
            lengths = h0_powers(ideal, 6)
            for q in (2, 3, 5, 6):
                assert frobenius_gap_split(ideal, q).sym_vs_ord == lengths[q - 1]


class TestPowerLengths:
    def test_skew_example(self):
        assert h0_powers(VER31, 4) == [0, 0, 1, 2]

    def test_dual_example(self):
        assert h0_powers(A31, 3) == [0, 1, 3]

    def test_saturated_principal_all_zero(self):
        assert h0_powers(new_ideal(QUADRANT, [(3, 4)]), 5) == [0] * 5

    def test_plane_ideal_colengths(self):
        # powers of (x^2, y^3): colength of the n-th power, brute counted
        ideal = new_ideal(QUADRANT, [(2, 0), (0, 3)])
        values = h0_powers(ideal, 6)
        for n, value in enumerate(values, start=1):
            power = ordinary_power(ideal, n)
            assert value == brute_count_complement(
                ideal.cone, Corner(0, 0), power.stair
            )

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            h0_powers(VER31, 0)

    def test_counts_off_the_levels_match_built_powers_and_column_oracle(self):
        # small random cones with non-saturated and saturated ideals, whose steps
        # are narrow, and cones with det_abs up to 10^4 whose steps are often
        # wider than det_abs has bits, so the count takes its floor sum
        rng = random.Random(83)
        bases = []
        for _ in range(10):
            ideal = random_ideal(rng, n_gens=5)
            bases += [ideal, saturation(ideal)]
        for _ in range(10):
            d = rng.randint(2, 10**4)
            k = rng.randint(-d, d)
            while gcd(k, d) != 1:
                k = rng.randint(-d, d)
            cone = Cone2.from_rays(*rng.choice([((1, 0), (k, d)), ((0, 1), (d, k))]))
            tau = cone.tau
            ss = [rng.randint(0, 3)]
            for _ in range(rng.randint(1, 3)):
                ss.append(ss[-1] + rng.randint(1, 30))
            ts = [(tau * ss[-1]) % d]
            for s in reversed(ss[:-1]):
                ts.append(ts[-1] + 1 + (tau * s - ts[-1] - 1) % d + d * rng.randint(0, 2))
            stair = Staircase(tuple(Corner(s, t) for s, t in zip(ss, reversed(ts))))
            bases.append(MonomialIdeal(cone, stair))
        wide = 0
        for base in bases:
            n_max = rng.randint(1, 40)
            values = h0_powers(base, n_max)
            # every power built as an ideal off the levels of the DP over all corners
            levels = ideals._power_levels(base.stair.corners, n_max)
            chain = [MonomialIdeal(base.cone, Staircase(tuple(Corner(*c) for c in lv)))
                     for lv in levels[1:]]
            assert values == [_gap_count(power) for power in chain]
            bits = base.cone.det_abs.bit_length()
            for value, power in zip(values, chain):
                threshold = Corner(*power.thresholds)
                assert value == column_count_complement(base.cone, threshold, power.stair)
                steps = zip(power.stair.corners, power.stair.corners[1:])
                wide += any(b.s - a.s > bits for a, b in steps)
        assert wide >= 30

    def test_one_run_lengths_match_multiset_oracle(self, monkeypatch):
        # runs of two and three corners in their own lattice coordinates and in
        # two others related by GL2(Z), counted with no DP and no stored levels
        def no_dp(corners, n):
            raise AssertionError("one-run gap lengths reached the DP")

        rng = random.Random(89)
        for i in range(16):
            cone = random_cone(rng, 3)
            d, tau, m = cone.det_abs, cone.tau, 1 + i % 2
            w = rng.randint(1, 3)
            h = (-tau * w) % d or d
            s0 = rng.randint(0, 3)
            t0 = (tau * s0) % d + d * (-(-m * h // d) + rng.randint(0, 1))
            run = [cone.preimage(Corner(s0 + k * w, t0 - k * h)) for k in range(m + 1)]
            for (a, b), (c, e) in [((1, 0), (0, 1))] + [unimodular(rng) for _ in range(2)]:

                def move(p):
                    return (a * p[0] + b * p[1], c * p[0] + e * p[1])

                moved = Cone2.from_rays(move(cone.ray1), move(cone.ray2))
                fresh = new_ideal(moved, [move(g) for g in run])
                assert len(fresh.stair.corners) == m + 1
                brute = [_gap_count(brute_ordinary_power(fresh, k)) for k in range(1, 7)]
                with monkeypatch.context() as patched:
                    patched.setattr(ideals, "_power_levels", no_dp)
                    assert h0_powers(fresh, 6) == brute
                assert fresh._powers == {}

    @pytest.mark.parametrize(
        "family", ["a:7,3", "veronese:9,7", "a:20,3", "quadrant:(3,0);(1,1);(0,2)"]
    )
    def test_lengths_match_the_level_walk(self, family):
        # one-run families (a:7,3, veronese:9,7, and a:20,3 with steps wider than
        # det_abs.bit_length()), counted off the dilated run, against the DP's
        # levels, beside a non-run family whose lengths the DP's levels give
        ideal = parse_family(family).ideal
        levels = ideals._power_levels(ideal.stair.corners, 84)
        walk = [_count_under(ideal.cone, Staircase(tuple(lv)).runs) for lv in levels[1:]]
        assert h0_powers(parse_family(family).ideal, 84) == walk

    def test_one_run_refusals_keep_their_order_and_messages(self, monkeypatch):
        # the run count still takes the DP's estimate, refused at power 265
        ideal = veronese(9, 7).ideal
        assert len(h0_powers(ideal, 264)) == 264
        refused = "^power 265 needs about 1003820 DP steps, over 1000000$"
        with pytest.raises(BadParameters, match=refused):
            h0_powers(ideal, 265)
        # n_max < 1 is refused first, even under a work cap that refuses everything,
        # on a run and on an ideal that is not one; at -30 the estimate is positive
        monkeypatch.setattr(ideals, "_MAX_POWER_WORK", 0)
        for base in (ideal, non_run_ideal()):
            for n_max in (0, -3, -30):
                with pytest.raises(BadParameters, match="^n_max must be a positive integer$"):
                    h0_powers(base, n_max)

    def test_refused_chain_stores_nothing(self, monkeypatch):
        ideal = veronese(9, 7).ideal
        monkeypatch.setattr(ideals, "_MAX_POWER_WORK", 0)
        for _ in range(2):
            with pytest.raises(BadParameters, match="power 30 needs about"):
                h0_powers(ideal, 30)
        monkeypatch.setattr(ideals, "_MAX_POWER_WORK", 10**9)
        assert h0_powers(ideal, 30) == h0_powers(veronese(9, 7).ideal, 30)


class TestQuasiPolynomial:
    def test_skew_fit(self):
        fit = fit_quasi_polynomial(h0_powers(VER31, 30), 3)
        for cls in fit.classes:
            assert cls.coeffs[0] == Fraction(1, 6)
        # each residue class matches from its first member, so the
        # overall onset is the largest first member
        assert fit.onset == 2
        assert [cls.evaluate(n) for n, cls in ((3, fit.classes[0]), (5, fit.classes[2]))] == [2, 5]

    def test_dual_fit(self):
        fit = fit_quasi_polynomial(h0_powers(A31, 30), 3)
        for cls in fit.classes:
            assert cls.coeffs[0] == Fraction(1, 3)

    def test_fit_reproduces_tail(self):
        values = h0_powers(a_singularity(5, 2).ideal, 35)
        fit = fit_quasi_polynomial(values, 5)
        for n in range(fit.onset, len(values)):
            assert fit.evaluate(n) == values[n]

    def test_pure_square_sequence(self):
        fit = fit_quasi_polynomial([n * n for n in range(10)], 1)
        assert fit.classes[0].coeffs == (1, 0, 0)
        assert fit.onset == 0

    def test_zero_sequence(self):
        fit = fit_quasi_polynomial([0] * 8, 1)
        assert fit.classes[0].coeffs == (0, 0, 0)

    def test_exponential_does_not_stabilize(self):
        with pytest.raises(NoStabilization):
            fit_quasi_polynomial([2**n for n in range(11)], 1)

    def test_needs_enough_entries(self):
        with pytest.raises(BadParameters):
            fit_quasi_polynomial([0] * 20, 3)
        with pytest.raises(BadParameters):
            fit_quasi_polynomial([0] * 8, 0)

    def test_fit_matches_oracle(self):
        # quasi-polynomials with +-1 perturbations: some classes settle late,
        # some fail the five-entry window
        def outcome(fit, *args):
            try:
                return fit(*args)
            except (BadParameters, NoStabilization) as exc:
                return type(exc), str(exc)

        rng = random.Random(53)
        kinds = set()
        for _ in range(250):
            period = rng.randint(1, 4)
            length = rng.randint(7 * period - 1, 12 * period)
            coeffs = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(period)]
            seq = []
            for n in range(length):
                c2, c1, c0 = coeffs[n % period]
                seq.append(c2 * n * (n - 1) // 2 + c1 * n + c0)
            for _ in range(rng.randint(0, 3)):
                seq[rng.randrange(length)] += rng.choice((-1, 1))
            got = outcome(fit_quasi_polynomial, seq, period)
            assert got == outcome(fit_oracle, seq, period, 5)
            # a fit settles late when some class starts past its first entry
            kinds.add(got.onset >= period if hasattr(got, "onset") else got[0])
        assert kinds == {BadParameters, NoStabilization, False, True}

    def test_leading_matches_newton_prediction(self):
        for instance in (veronese(3, 1), a_singularity(3, 1), a_singularity(4, 1)):
            ideal = instance.ideal
            fact = torsion_factorization(ideal)
            predicted = Fraction(
                newton_multiplicity(fact.primary), 2 * fact.order * fact.order
            )
            fit = fit_quasi_polynomial(h0_powers(ideal, 7 * fact.order), fact.order)
            for cls in fit.classes:
                assert cls.coeffs[0] == predicted


class TestNewtonMultiplicity:
    def test_examples(self):
        assert newton_multiplicity(torsion_factorization(VER31).primary) == 3
        assert newton_multiplicity(torsion_factorization(A31).primary) == 6
        assert newton_multiplicity(quadrant([(2, 0), (1, 1), (0, 3)]).ideal) == 5
        assert newton_multiplicity(quadrant([(1, 0), (0, 1)]).ideal) == 1

    def test_plane_box(self):
        assert newton_multiplicity(quadrant([(2, 0), (0, 3)]).ideal) == 6

    def test_requires_zero_thresholds(self):
        with pytest.raises(NotMPrimary):
            newton_multiplicity(A31)


class TestEpsilon:
    def test_matches_power_length(self):
        assert epsilon_estimate(VER31, 12) == Fraction(h0_powers(VER31, 12)[-1], 144)

    def test_minimum_stage(self):
        with pytest.raises(BadParameters):
            epsilon_estimate(VER31, 9)

    def test_multiplicity_dominates_estimate(self):
        for instance in (veronese(3, 1), veronese(4, 3), a_singularity(5, 2)):
            ideal = instance.ideal
            assert eghk(ideal) >= epsilon_estimate(ideal, 15) - Fraction(2, 15)


class TestConvergenceConstant:
    def test_examples(self):
        assert convergence_constant(VER31) == 8
        assert convergence_constant(A31) == 12

    def test_bound_holds_on_random_ideals(self):
        rng = random.Random(73)
        for _ in range(15):
            ideal = random_ideal(rng, spread=7)
            area = eghk(ideal)
            bound = convergence_constant(ideal)
            c1, c2 = ideal.thresholds
            for q in (4, 16):
                count = count_lattice_complement(
                    ideal.cone, Corner(q * c1, q * c2), ideal.stair.scale(q)
                )
                assert abs(Fraction(count, q * q) - area) <= Fraction(bound, q)
