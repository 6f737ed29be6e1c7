"""Numerical invariants of monomial ideals: multiplicities, gap counts, fits.

The central quantity is the generalized Hilbert-Kunz multiplicity of
the quotient by a monomial ideal.  For a plane cone it is the area of
the region between the saturation quadrant and the ideal staircase, an
explicit rational number.  The finite counts that converge to it (gap
points of bracket powers, local cohomology lengths of ordinary powers)
are computed exactly as lattice counts and compared against the area
through a perimeter-based error constant.
"""

import sys
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Sequence

from .errors import (
    BadParameters,
    ContractViolation,
    NoStabilization,
    NotMPrimary,
    NotSaturated,
)
from .geometry import (
    _box_points_bound,
    _count_run_band,
    _count_tower,
    _count_under,
    count_lattice_band,
    staircase_complement_area,
)
from .ideals import (
    MonomialIdeal,
    _gap_count,
    _power_runs,
    frobenius_power,
    is_saturated,
    ordinary_power,
)


def eghk(ideal: MonomialIdeal) -> Fraction:
    """Generalized Hilbert-Kunz multiplicity of the quotient by the ideal.

    Exact rational: the plane area between the threshold quadrant and
    the ideal staircase, measured in the ambient lattice normalization.
    Zero exactly when the saturation is principal.
    """
    return staircase_complement_area(ideal.cone, ideal.thresholds, ideal.stair)


# count steps over the tower: each run once, then at each q = p^n one floor sum and one
# column sum per distinct step width, each charged 1 + (n * p's bit length) // 256 as its
# ints grow with q: 0.5 to 0.9 s at the cap, report included, on det_abs 10^12 + 39 with
# 60 to 20,000 distinct widths, whether q stays under 2^24 or nears 2^4096 (2-vCPU Xeon
# VM, in process)
_MAX_TOWER_WORK = 500_000


def ghk_function(ideal: MonomialIdeal, p: int, n_max: int) -> list[int]:
    """Values of the generalized Hilbert-Kunz function at q = p^0 .. p^n_max.

    Entry n is the number of lattice points above the scaled thresholds
    that are missing from the q-th bracket power, q = p^n.  p must be
    prime and n_max nonnegative.  p over 40 bits, n_max times p's bit
    length over 4096, or a tower over _MAX_TOWER_WORK count steps raises
    BadParameters before the primality test; so does a count that could
    pass the interpreter's int-to-str digit limit, before any counting.
    The runs are charged once, and each q = p^n is charged 1 + b // 256
    steps per sum it takes, b = n times p's bit length, a bound on the
    bits of q that builds no power of p, so a tower whose q all stay
    under 2^256 is the run count plus (n_max + 1) times the sums per q.
    The digit-limit check is a bit-length test: a bound of at
    most 3 * digits bits is below 8^digits, so the power of ten is built
    only for a bound over 3 * digits bits, and the check costs the same
    under any limit.  The input ideal was validated when it was built,
    so its runs start at lattice corners and step by lattice vectors, and
    _count_tower counts the whole tower straight off them: each q costs
    one floor sum and one column sum per distinct step width, and neither
    the bracket power frobenius_power(ideal, q) nor its staircase is
    built.
    """
    if n_max < 0:
        raise BadParameters("n_max must be nonnegative")
    bits = p.bit_length()
    if bits > 40:
        raise BadParameters(f"characteristic {p} has {bits} bits, over 40")
    if n_max * bits > 4096:
        raise BadParameters(f"q = {p}^{n_max} needs up to {n_max * bits} bits, over 4096")
    runs = ideal.stair.runs
    sums = 1 + len({w for _, _, w, _, r in runs if r})  # _count_tower's sums per q
    work = len(runs) + sums * sum(1 + n * bits // 256 for n in range(n_max + 1))
    if work > _MAX_TOWER_WORK:
        raise BadParameters(
            f"q = {p}^0 .. {p}^{n_max} needs {work} count steps, over {_MAX_TOWER_WORK}"
        )
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise BadParameters(f"characteristic {p} is not prime")
    # the largest count is at most the lattice points of its gap box
    q, stair = p**n_max, ideal.stair
    width, height = q * (stair.max_s - stair.min_s), q * (stair.max_t - stair.min_t)
    bound = _box_points_bound(width, height, ideal.cone.det_abs)
    digits = sys.get_int_max_str_digits()  # 0 when the limit is switched off
    if digits and bound.bit_length() > 3 * digits and bound >= 10**digits:
        raise BadParameters(
            f"gap counts up to q = {p}^{n_max} may pass {digits} digits, "
            "the limit for printing an integer"
        )
    return _count_tower(ideal.cone, stair.runs, [p**n for n in range(n_max + 1)])


class GapSplit(NamedTuple):
    """Gap count of a bracket power split along the ordinary power.

    total_gap counts threshold-quadrant points missing from the bracket
    power; sym_vs_ord counts those missing from the ordinary power too,
    ord_vs_frob those in the ordinary power but not the bracket power.
    The three counts are enumerated independently, yet total_gap always
    equals sym_vs_ord + ord_vs_frob.
    """

    total_gap: int
    sym_vs_ord: int
    ord_vs_frob: int


def frobenius_gap_split(ideal: MonomialIdeal, q: int) -> GapSplit:
    """Split the q-th bracket-power gap count along the q-th ordinary power.

    Requires a saturated ideal, so that points above the scaled
    thresholds are exactly the points of the scaled saturation region.
    total_gap and sym_vs_ord are the complements of the bracket power and
    of the ordinary power built by ordinary_power, each counted off its
    runs; a one-run ideal's power is one run, so no corner is listed.
    When the ideal is one run, m steps (w, -h) from (s0, t0), ord_vs_frob
    is counted by _count_run_band straight off the base run, m lattice
    translates of one run of q - 1 band rectangles, and not off the
    built power, so a wrong power breaks
    total_gap == sym_vs_ord + ord_vs_frob.  Each of the three counts then
    takes at most two floor sums, whatever q, m and w.  Otherwise
    ord_vs_frob is count_lattice_band between the two built staircases.
    """
    if not is_saturated(ideal):
        raise NotSaturated("gap split needs a saturated ideal")
    if q < 1:
        raise BadParameters("q must be a positive integer")
    frob = frobenius_power(ideal, q)
    power = ordinary_power(ideal, q)
    if len(ideal.stair.runs) == 1:
        band = _count_run_band(ideal.cone, *ideal.stair.runs[0], q)
    else:
        band = count_lattice_band(ideal.cone, frob.thresholds, power.stair, frob.stair)
    return GapSplit(_gap_count(frob), _gap_count(power), band)


def h0_powers(ideal: MonomialIdeal, n_max: int) -> list[int]:
    """Local cohomology lengths of the quotients by ordinary powers, n = 1 .. n_max.

    Entry n - 1 counts lattice points above n times the thresholds that
    the n-th ordinary power misses: _count_under of each power's runs as
    _power_runs yields them, the staircase's last corner on the t
    threshold and its first on the s threshold.  No power is built as an
    ideal.  A one-run ideal's powers are one run of lattice steps each,
    listing no levels and no corners, so each length is one floor sum
    for the bottom row and one, or at most det_abs.bit_length() columns,
    for the first step's top, whatever n.  Raises BadParameters for
    n_max < 1 and then, on every path, above the DP's work estimate over
    every generator.
    """
    if n_max < 1:
        raise BadParameters("n_max must be a positive integer")
    return [_count_under(ideal.cone, runs) for runs in _power_runs(ideal, n_max)]


class ClassFit(NamedTuple):
    """Exact quadratic fitted to one residue class of a sequence."""

    residue: int
    coeffs: tuple[Fraction, Fraction, Fraction]
    onset: int

    def evaluate(self, n: int) -> Fraction:
        a2, a1, a0 = self.coeffs
        return a2 * n * n + a1 * n + a0


class QuasiPolynomial(NamedTuple):
    """Per-residue-class quadratics describing the tail of a sequence."""

    period: int
    classes: tuple[ClassFit, ...]

    def evaluate(self, n: int) -> Fraction:
        return self.classes[n % self.period].evaluate(n)

    @property
    def onset(self) -> int:
        return max(c.onset for c in self.classes)


def _quadratic_through(pts: list[tuple[int, int]]) -> tuple[Fraction, Fraction, Fraction]:
    (n1, v1), (n2, v2), (n3, v3) = pts
    # the Newton form v1 + d1 (n - n1) + a2 (n - n1)(n - n2), expanded over
    # the common denominator p * r * (p + r) of d1 = (v2 - v1) / p and a2
    p, r = n2 - n1, n3 - n2
    den = p * r * (p + r)
    d1 = (v2 - v1) * r * (p + r)
    a2 = (v3 - v2) * p - (v2 - v1) * r
    return (
        Fraction(a2, den),
        Fraction(d1 - a2 * (n1 + n2), den),
        Fraction(v1 * den - d1 * n1 + a2 * n1 * n2, den),
    )


def fit_quasi_polynomial(seq: Sequence[int], period: int) -> QuasiPolynomial:
    """Fit an exact quadratic to each residue class of seq and verify it.

    seq[i] is read as the value at n = i.  That matches ghk_function,
    whose sequence starts at n = 0, but not h0_powers, whose entry i is
    h0 of the (i + 1)-th power: a fit of h0_powers is in m = n - 1, and
    its residues, onsets and two lower coefficients are those of m (an
    open item in ROADMAP.md).  For each residue class modulo period,
    a quadratic is interpolated through the last three entries and must
    reproduce the last five entries of the class, a fixed window;
    otherwise NoStabilization reports the failing class.  The per-class
    onset is the least n from which the fit reproduces every entry.  Requires
    len(seq) >= 7 * period so each class has enough entries.  Both checks
    read the class's integer third differences, which vanish exactly
    where equally spaced entries lie on one quadratic.
    """
    if period < 1:
        raise BadParameters("period must be a positive integer")
    if len(seq) < 7 * period:
        raise BadParameters(
            f"need at least {7 * period} entries to fit period {period}"
        )
    classes = []
    for residue in range(period):
        ns, vals = range(residue, len(seq), period), seq[residue::period]
        quads = zip(vals, vals[1:], vals[2:], vals[3:])
        third = [d - 3 * c + 3 * b - a for a, b, c, d in quads]
        if any(third[-2:]):
            raise NoStabilization(
                f"residue class {residue} does not match its quadratic on the last 5 entries"
            )
        coeffs = _quadratic_through(list(zip(ns[-3:], vals[-3:])))
        start = max((k + 1 for k, d in enumerate(third) if d), default=0)
        classes.append(ClassFit(residue, coeffs, ns[start]))
    return QuasiPolynomial(period, tuple(classes))


def newton_multiplicity(ideal: MonomialIdeal) -> int:
    """Multiplicity of a finite-colength ideal from its Newton region.

    Twice the plane area between the cone and the convex hull of the
    ideal region.  The ideal must have thresholds (0, 0); the result is
    always an integer and ContractViolation flags a non-integer area.
    """
    if ideal.thresholds != (0, 0):
        raise NotMPrimary(
            f"thresholds {tuple(ideal.thresholds)} are not (0, 0); "
            "the quotient is not finite length"
        )

    def cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull: list[tuple[int, int]] = []
    for c in ideal.stair.corners:
        while len(hull) >= 2 and cross(hull[-2], hull[-1], c) <= 0:
            hull.pop()
        hull.append(c)
    # shoelace over the polygon from the origin along the hull; both edges
    # through the origin add 0
    twice = abs(sum(s0 * t1 - s1 * t0 for (s0, t0), (s1, t1) in zip(hull, hull[1:])))
    if twice % ideal.cone.det_abs != 0:
        raise ContractViolation("Newton area is not an integer multiple of the index")
    return twice // ideal.cone.det_abs


def epsilon_estimate(ideal: MonomialIdeal, n_max: int) -> Fraction:
    """Finite-stage estimate of the epsilon multiplicity.

    The local cohomology length of the n_max-th ordinary power divided
    by n_max squared.  Converges from below up to a perimeter term, and
    the generalized Hilbert-Kunz multiplicity always dominates the true
    limit.  Requires n_max >= 10 so the estimate is meaningful.
    """
    if n_max < 10:
        raise BadParameters("n_max must be at least 10")
    return Fraction(_gap_count(ordinary_power(ideal, n_max)), n_max * n_max)


def convergence_constant(ideal: MonomialIdeal) -> int:
    """Perimeter constant bounding the Hilbert-Kunz normalization error.

    C = 4 (W + H) where W and H are the corner-space width and height of
    the ideal's gap box at q = 1.  For every prime power q the scaled
    gap count satisfies |count / q^2 - area| <= C / q; the factor 4
    leaves room for the boundary columns on both sides.
    """
    stair = ideal.stair
    width = stair.max_s - stair.min_s
    height = stair.max_t - stair.min_t
    return 4 * (width + height)
