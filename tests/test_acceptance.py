"""Acceptance gate: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
criterion is exact (tolerance zero) unless its line states a bound.
"""

import random
from fractions import Fraction

from conftest import random_ideal

from ghk.checks import (
    _probe_points,
    saturation_region_oracle,
    threshold_membership,
)
from ghk.families import a_singularity, veronese
from ghk.ideals import saturation
from ghk.invariants import (
    convergence_constant,
    eghk,
    epsilon_estimate,
    fit_quasi_polynomial,
    frobenius_gap_split,
    ghk_function,
    h0_powers,
    newton_multiplicity,
)
from ghk.reptype import a_tor_table, eghk_a
from ghk.ideals import torsion_factorization


def conclude(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number} ({name}): {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def family_instances(max_r: int):
    for r in range(2, max_r + 1):
        for m in range(1, r):
            yield veronese(r, m)
            yield a_singularity(r, m)


def test_criterion_01_veronese_closed_form():
    bad = []
    for r in range(2, 11):
        for m in range(1, r):
            inst = veronese(r, m)
            if eghk(inst.ideal) != Fraction(m * (m + 1), 2 * r):
                bad.append((r, m))
    conclude(1, "veronese closed form, r <= 10, exact", not bad, f"bad={bad}" if bad else "45 instances")


def test_criterion_02_a_type_closed_form():
    bad = []
    for r in range(2, 11):
        for m in range(1, r):
            inst = a_singularity(r, m)
            if eghk(inst.ideal) != Fraction(m * (r - m), r):
                bad.append((r, m))
    conclude(2, "a-type closed form, r <= 10, exact", not bad, f"bad={bad}" if bad else "45 instances")


def test_criterion_03_exact_rationality():
    rng = random.Random(301)
    ok = True
    for _ in range(50):
        value = eghk(random_ideal(rng))
        if not (
            type(value) is Fraction
            and value.denominator > 0
            and value >= 0
        ):
            ok = False
            break
    conclude(3, "exact rational output on 50 random ideals", ok)


def test_criterion_04_gap_additivity():
    ok = frobenius_gap_split(veronese(3, 1).ideal, 2) == (1, 0, 1)
    detail = "keyed split (1,0,1)"
    checked = 0
    for inst in family_instances(6):
        for q in (2, 3, 4, 8, 9):
            split = frobenius_gap_split(inst.ideal, q)
            checked += 1
            if split.total_gap != split.sym_vs_ord + split.ord_vs_frob:
                ok = False
                detail = f"additivity broken for {inst.label}, q={q}"
    conclude(4, "gap count additivity", ok, detail if not ok else f"{checked} splits + keyed value")


def test_criterion_05_function_convergence():
    ok = True
    detail = ""
    for inst in (veronese(3, 1), a_singularity(3, 1)):
        limit = eghk(inst.ideal)
        bound_scale = convergence_constant(inst.ideal)
        for p in (2, 3):
            values = ghk_function(inst.ideal, p, 6)
            for n, value in enumerate(values):
                q = p**n
                if abs(Fraction(value, q * q) - limit) > Fraction(bound_scale, q):
                    ok = False
                    detail = f"{inst.label}, p={p}, n={n}"
    head = ghk_function(veronese(3, 1).ideal, 2, 2)
    normalized = [Fraction(v, 4**n) for n, v in enumerate(head)]
    if normalized != [Fraction(0), Fraction(1, 4), Fraction(5, 16)]:
        ok = False
        detail = f"prefix {normalized}"
    conclude(5, "ghk function converges at documented rate", ok, detail or "p in {2,3}, n <= 6")


def test_criterion_06_quasi_polynomial_leading():
    ver = veronese(3, 1)
    fit_v = fit_quasi_polynomial(h0_powers(ver.ideal, 30), 3)
    ok = all(cls.coeffs[0] == Fraction(1, 6) for cls in fit_v.classes)
    detail = "veronese leading 1/6"

    a31 = a_singularity(3, 1)
    torsion = torsion_factorization(a31.ideal)
    predicted = Fraction(newton_multiplicity(torsion.primary), 2 * torsion.order**2)
    fit_a = fit_quasi_polynomial(h0_powers(a31.ideal, 30), torsion.order)
    if predicted != Fraction(1, 3) or any(
        cls.coeffs[0] != predicted for cls in fit_a.classes
    ):
        ok = False
        detail = f"a-type leading mismatch, predicted {predicted}"
    conclude(6, "quasi-polynomial leading coefficients", ok, detail if not ok else "1/6 and 6/(2*9)=1/3")


def test_criterion_07_structural_cross_check():
    ok = True
    detail = ""
    for r in range(2, 11):
        for m in range(1, r):
            unit = [0] * (r - 1)
            unit[m - 1] = 1
            if eghk_a(r, unit) != eghk(a_singularity(r, m).ideal):
                ok = False
                detail = f"r={r}, m={m}"
    for r in range(2, 51):
        table = a_tor_table(r)
        for m in range(1, r):
            total = sum(table.entry(m, j) for j in range(1, r))
            if total != m * (r - m):
                ok = False
                detail = f"row identity r={r}, m={m}"
    conclude(7, "structural formula matches polyhedral values", ok, detail or "r <= 10 pairing, r <= 50 identity")


def test_criterion_08_degeneracy():
    rng = random.Random(808)
    counterexamples = 0
    zeros = 0
    for i in range(100):
        # alternate flat and steep cones so both branches of the
        # equivalence show up many times
        bound = 20 if i % 2 else 4
        ideal = saturation(random_ideal(rng, n_gens=5, spread=14, ray_bound=bound))
        thresholds = ideal.thresholds
        vanishes = eghk(ideal) == 0
        principal = len(ideal.gens) == 1
        at_corner = any(
            c == (thresholds.s, thresholds.t) for c in ideal.stair.corners
        )
        if not (vanishes == principal == at_corner):
            counterexamples += 1
        if vanishes:
            zeros += 1
    conclude(
        8,
        "vanishing iff principal iff threshold generator",
        counterexamples == 0 and 0 < zeros < 100,
        f"{counterexamples} counterexamples, {zeros} principal cases seen",
    )


def test_criterion_09_epsilon_inequality():
    ok = True
    detail = ""
    slack = Fraction(2, 30)
    for inst in family_instances(6):
        estimate = epsilon_estimate(inst.ideal, 30)
        if eghk(inst.ideal) < estimate - slack:
            ok = False
            detail = inst.label
    conclude(9, "eghk >= growth estimate - 2/30", ok, detail or "20 family instances")


def test_criterion_10_region_membership_oracle():
    rng = random.Random(1010)
    disagreements = 0
    probes = 0
    for _ in range(200):
        ideal = random_ideal(rng, n_gens=4, spread=8, ray_bound=5)
        pts = _probe_points(ideal)
        for p, slow in zip(pts, saturation_region_oracle(ideal, pts)):
            fast = threshold_membership(ideal, p)
            if fast != slow:
                disagreements += 1
            probes += 1
    conclude(
        10,
        "facet-threshold region test matches brute oracle",
        disagreements == 0,
        f"{probes} probes over 200 ideals",
    )
