"""Monomial ideals in the semigroup ring of a plane cone.

An ideal is stored as one staircase in corner space, the maximal runs
of equal steps through the facet coordinates of its minimal generators.
The ring is normal, so the ideal's lattice region is exactly the set of
points whose corners dominate that staircase (corner domination and
monomial divisibility agree).  The corner map is linear and injective,
so the generators as lattice points are a derived view, and sums of
generators are sums of corners: bracket powers, ordinary powers,
saturation and torsion shifts are all built on corners alone.  The
powers of a one-run ideal are its run dilated, one run each, and the
powers of any other ideal come out of one Pareto DP; _power_runs and
_build_power are the only places that choose between the two.
ordinary_power keeps each power it builds on the ideal object, so each
is built once; no state is global.

Saturation with respect to the interior works threshold by threshold:
the saturation region of an ideal is the full quadrant above the
componentwise minima of its generator corners.  A point with corners
weakly above both minima stays above the staircase after adding any
deep enough semigroup element, while a point below one of the minima
admits a whole ray of translates outside the ideal region, so only the
two facet thresholds matter.
"""

from math import gcd
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BadParameters,
    ContractViolation,
    EmptyInput,
    GeneratorOutsideCone,
    NotSaturated,
)
from .geometry import (
    Cone2,
    Corner,
    Point,
    Staircase,
    _pareto_front,
    _require_lattice,
    count_lattice_complement,
    pareto_minimal,
)


class MonomialIdeal:
    """A monomial ideal of a fixed cone, stored as its staircase in corner space.

    stair holds the corners of the minimal generators, s increasing.
    Every corner must be the corner of a lattice point (t == tau * s
    modulo det_abs, see Cone2), otherwise ValueError; that is checked
    run by run, on a run's first corner and its step, by the rule that
    count_lattice_complement applies too.  gens, the
    generators as lattice points in the same order, is a view of the
    staircase, built on each read and kept nowhere.  Two ideals are
    equal when their cones and staircases are; the powers an ideal keeps
    are not part of it.  Use new_ideal to build an ideal from lattice
    points; it performs the Pareto reduction and the cone check.
    """

    __slots__ = ("cone", "stair", "_powers", "__weakref__")

    def __init__(self, cone: Cone2, stair: Staircase) -> None:
        _require_lattice(cone, stair)
        self.cone, self.stair = cone, stair
        # ordinary powers by n >= 2: the ideal under 1 would be a cycle
        self._powers: dict[int, MonomialIdeal] = {}

    def __eq__(self, other: object) -> bool:
        same_type = isinstance(other, MonomialIdeal)
        return same_type and (self.cone, self.stair) == (other.cone, other.stair)

    def __hash__(self) -> int:
        return hash((self.cone, self.stair))

    def __repr__(self) -> str:
        return f"MonomialIdeal(cone={self.cone!r}, stair={self.stair!r})"

    @property
    def gens(self) -> tuple[Point, ...]:
        """The generators as lattice points, s increasing: one preimage per corner, per read."""
        return tuple(self.cone.preimage(c) for c in self.stair.corners)

    @property
    def thresholds(self) -> Corner:
        """The saturation thresholds: the componentwise minima of the generator corners.

        They are the apex of the threshold quadrant, a point of corner
        space that need not be the corner of a lattice point.
        """
        return Corner(self.stair.min_s, self.stair.min_t)

    def contains(self, p: Point) -> bool:
        return self.stair.dominates(self.cone.corner(p))


def new_ideal(cone: Cone2, gens: Iterable[Point]) -> MonomialIdeal:
    """Build an ideal from any finite generating set.

    Duplicates and non-minimal generators are dropped.  Raises
    GeneratorOutsideCone if some generator is not in the cone and
    EmptyInput if no generators are given.
    """
    pts = set(tuple(g) for g in gens)
    if not pts:
        raise EmptyInput("an ideal needs at least one generator")
    corners = []
    for p in pts:
        s, t = c = cone.corner(p)
        if s < 0 or t < 0:
            raise GeneratorOutsideCone(f"generator {p} lies outside the cone")
        corners.append(c)
    return MonomialIdeal(cone, pareto_minimal(corners))


def frobenius_power(ideal: MonomialIdeal, q: int) -> MonomialIdeal:
    """The bracket power generated by the q-th multiples of the generators."""
    if q < 1:
        raise BadParameters("frobenius exponent must be a positive integer")
    return MonomialIdeal(ideal.cone, ideal.stair.scale(q))


_MAX_POWER_WORK = 1_000_000  # steps of the power DP, about a second of work


def _check_power_work(corners: Sequence[tuple[int, int]], n: int) -> None:
    """Raise BadParameters for a power DP over _MAX_POWER_WORK steps, in O(len(corners)).

    The size comes from the level bound |L_k| <= k * w + 1 (see
    _power_levels), with a level's list and call overhead counted as
    eight entries.  _build_power and _power_runs each run it first.
    Inside verify this refusal is a cap, not a failed property, and ends
    the run (see checks.run_instance_checks).
    """
    s0, t0 = corners[0]
    work = sum(min(gs - s0, t0 - gt) * n * (n + 1) // 2 + 8 * n for gs, gt in corners)
    if work > _MAX_POWER_WORK:
        raise BadParameters(f"power {n} needs about {work} DP steps, over {_MAX_POWER_WORK}")


def _power_levels(corners: Sequence[tuple[int, int]], n: int) -> list[list[tuple[int, int]]]:
    """Minimal k-fold sums of the corners (at least one), levels k = 0 .. n.

    Each level is a Pareto front, s increasing and t decreasing, built
    by a DP whatever the shape of the corners: the one-run closed form,
    _dilated, is tested against it.  Adding a corner g turns level k
    into the minimal elements of level k and of the new level k - 1
    shifted by g, so each level is Pareto-reduced before the next
    corner comes in.  The entries of a level have distinct s and
    distinct t, so level k has at most k * w + 1 of them, w the smaller
    span of the corners folded in so far; _check_power_work sizes the DP
    by that bound, and callers run it first.
    """
    levels: list[list[tuple[int, int]]] = [[(0, 0)]] + [[] for _ in range(n)]
    for gs, gt in corners:
        for k in range(1, n + 1):
            grown = [(s + gs, t + gt) for s, t in levels[k - 1]]
            levels[k] = _pareto_front(levels[k] + grown)
    return levels


def ordinary_power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """The n-th ordinary power, generated by all n-fold sums of generators.

    When the generators are one run, m steps (w, -h) from (s0, t0),
    the power is that run dilated by n, n * m steps (w, -h) from
    (n * s0, n * t0), and is stored as that one run in O(1), with no DP
    and no corner listed; a principal ideal is the run with m = 0.
    Other powers are built in corner space by the Pareto DP of
    _power_levels over all generators but the last, whatever their
    shape; the last one only combines with level n - i shifted by i
    times itself, so levels below n are never formed for it.  The cost
    is polynomial in n (about s * n^2 * W for s generators and
    staircase width W) where enumerating the C(n + s - 1, s - 1)
    multisets is not.  Either way the DP's work estimate over all
    generators but the last runs first: above _MAX_POWER_WORK steps it
    raises BadParameters and stores nothing, so a one-run power is
    refused exactly where the DP would be.  n = 1 returns the ideal
    itself, and each power is built once per ideal object and kept on
    it (a kept ideal keeps its powers); this is the only writer of that
    store.
    """
    if n < 1:
        raise BadParameters("power exponent must be a positive integer")
    if n == 1:
        return ideal
    power = ideal._powers.get(n)
    if power is None:
        power = ideal._powers[n] = _build_power(ideal, n)
    return power


def _dilated(run: tuple[int, int, int, int, int], n: int) -> tuple[tuple[int, ...], ...]:
    # the runs of the n-th power of the one-run staircase (a, hi, w, h, r): the run dilated by n
    a, hi, w, h, r = run
    return ((n * a, n * hi, w, h, n * r),)


def _build_power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    *rest, (last_s, last_t) = ideal.stair.corners
    if rest:
        _check_power_work(rest, n)
    if len(ideal.stair.runs) == 1:
        return MonomialIdeal(ideal.cone, Staircase._of_runs(_dilated(ideal.stair.runs[0], n)))
    levels = _power_levels(rest, n)
    sums = [(s + i * last_s, t + i * last_t) for i in range(n + 1) for s, t in levels[n - i]]
    return MonomialIdeal(ideal.cone, pareto_minimal(sums))


def _power_runs(ideal: MonomialIdeal, n_max: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The staircases of the ordinary powers I^1 .. I^n_max, as their runs.

    A one-run ideal's are its run dilated by 1 .. n_max, one run each,
    as _build_power stores a single power.  Any other ideal's are the
    runs of the levels 1 .. n_max of one _power_levels run over every
    generator, run afresh and not kept.  No power is built as an ideal.
    On either path the DP's work estimate over every generator runs
    first: above _MAX_POWER_WORK steps it raises BadParameters before
    any staircase is built.
    """
    stair = ideal.stair
    _check_power_work(stair.corners, n_max)
    if len(stair.runs) == 1:
        return (_dilated(stair.runs[0], n) for n in range(1, n_max + 1))
    return (Staircase(tuple(level)).runs for level in _power_levels(stair.corners, n_max)[1:])


def _gap_count(ideal: MonomialIdeal) -> int:
    # lattice points above the ideal's own thresholds that it misses; a power's
    # thresholds are the base ones times the exponent, so no rescaling is needed
    return count_lattice_complement(ideal.cone, ideal.thresholds, ideal.stair)


def is_saturated(ideal: MonomialIdeal) -> bool:
    """True when the ideal already contains every lattice point above its thresholds."""
    return _gap_count(ideal) == 0


def saturation(ideal: MonomialIdeal) -> MonomialIdeal:
    """The saturated ideal of all lattice points above the thresholds.

    Minimal generators live in the det_abs columns starting at the s
    threshold, one per column (the least admissible t value), so this
    costs O(det_abs) before the Pareto reduction.
    """
    cone = ideal.cone
    c1, c2 = ideal.thresholds
    tau = cone.tau
    step = cone.det_abs
    feet = [(s, c2 + (tau * s - c2) % step) for s in range(c1, c1 + step)]
    return MonomialIdeal(cone, pareto_minimal(feet))


class TorsionFactorization(NamedTuple):
    """A saturated ideal written as a lattice shift of a finite-colength ideal.

    order is the least r such that the r-th power is a shift, shift the
    lattice point moved to the origin, primary the shifted r-th power
    (its thresholds are (0, 0)).
    """

    order: int
    shift: Point
    primary: MonomialIdeal


def torsion_factorization(ideal: MonomialIdeal) -> TorsionFactorization:
    """Factor a saturated ideal through the divisor class group.

    The class group is cyclic of order det_abs through (s, t) -> t - tau * s
    mod det_abs, so the least r >= 1 such that r times the threshold corner
    (c1, c2) is the corner of a lattice point u is det_abs // gcd(det_abs,
    c2 - tau * c1); the r-th ordinary power is u plus a finite-colength
    ideal.  r divides det_abs, so no bound on it is needed; the r-th power
    is built by ordinary_power under the power DP's work cap.  Raises
    NotSaturated when the input is not saturated.
    """
    if not is_saturated(ideal):
        raise NotSaturated("torsion factorization needs a saturated ideal")
    cone = ideal.cone
    c1, c2 = ideal.thresholds
    tau = cone.tau
    r = cone.det_abs // gcd(cone.det_abs, c2 - tau * c1)
    u = cone.preimage((r * c1, r * c2))
    power = ordinary_power(ideal, r)
    # a shift keeps every run maximal
    shifted = [(a - r * c1, hi - r * c2, w, h, k) for a, hi, w, h, k in power.stair.runs]
    primary = MonomialIdeal(cone, Staircase._of_runs(tuple(shifted)))
    if primary.thresholds != (0, 0):
        raise ContractViolation("shifted power does not have zero thresholds")
    return TorsionFactorization(r, u, primary)
