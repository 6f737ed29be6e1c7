"""Named families of cones and ideals used throughout the tests and the CLI.

Two one-parameter families of two-dimensional normal toric rings:

* Veronese rings: the cone over (1, 0) and (1, r).  The ideal with
  generators (1, 0) .. (1, m) has multiplicity m (m + 1) / (2 r).
* Compound Du Val rings of type A: the cone over (0, 1) and (r, -1).
  The ideal generated by (r, -1) and (m, 0) has multiplicity
  m (r - m) / r; it matches the count over the indecomposable modules
  of the corresponding hypersurface singularity.

Both families are saturated for every parameter choice.  The quadrant
family embeds ordinary plane monomial ideals for cross-checks against
classical colength computations.
"""

import re
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import BadParameters
from .geometry import Cone2, Point, Staircase
from .ideals import MonomialIdeal, new_ideal


class ToricInstance(NamedTuple):
    """A labeled cone-plus-ideal pair, with a closed form when one is known."""

    label: str
    ideal: MonomialIdeal
    closed_form: Optional[Fraction] = None


def veronese(r: int, m: int) -> ToricInstance:
    """Veronese instance: cone over (1, 0), (1, r), generators (1, 0) .. (1, m).

    Requires r >= 2 and 1 <= m <= r - 1.
    """
    if r < 2:
        raise BadParameters("veronese degree r must be at least 2")
    if not 1 <= m <= r - 1:
        raise BadParameters("veronese width m must satisfy 1 <= m <= r - 1")
    cone = Cone2.from_rays((1, 0), (1, r))
    # the generators are already one run of minimal corners, s increasing
    ideal = MonomialIdeal(cone, Staircase(tuple(cone.corner((1, k)) for k in range(m + 1))))
    return ToricInstance(f"veronese:{r},{m}", ideal, Fraction(m * (m + 1), 2 * r))


def a_singularity(r: int, m: int) -> ToricInstance:
    """Type A instance: cone over (0, 1), (r, -1), generators (r, -1), (m, 0).

    Requires r >= 2 and 1 <= m <= r - 1.
    """
    if r < 2:
        raise BadParameters("type A index r must be at least 2")
    if not 1 <= m <= r - 1:
        raise BadParameters("type A parameter m must satisfy 1 <= m <= r - 1")
    cone = Cone2.from_rays((0, 1), (r, -1))
    ideal = MonomialIdeal(cone, Staircase((cone.corner((m, 0)), cone.corner((r, -1)))))
    return ToricInstance(f"a:{r},{m}", ideal, Fraction(m * (r - m), r))


def quadrant(gens: Sequence[Point]) -> ToricInstance:
    """A plain polynomial-ring instance: the first quadrant with given generators."""
    cone = Cone2.from_rays((1, 0), (0, 1))
    ideal = new_ideal(cone, gens)
    label = "quadrant:" + ";".join(f"({x},{y})" for x, y in ideal.gens)
    return ToricInstance(label, ideal)


_PAIR = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def parse_family(text: str) -> ToricInstance:
    """Parse a family description string.

    Accepted forms: "veronese:R,M", "a:R,M", and
    "quadrant:(a1,b1);(a2,b2);...".
    """
    name, sep, rest = text.partition(":")
    name = name.strip().lower()
    if not sep:
        raise BadParameters(f"family {text!r} has no parameters")
    if name in ("veronese", "a"):
        parts = rest.split(",")
        if len(parts) != 2:
            raise BadParameters(f"family {text!r} needs two integer parameters")
        try:
            r, m = (int(p.strip()) for p in parts)
        except ValueError:
            raise BadParameters(f"family {text!r} has non-integer parameters") from None
        return veronese(r, m) if name == "veronese" else a_singularity(r, m)
    if name == "quadrant":
        pairs = _PAIR.findall(rest)
        if not pairs or _PAIR.sub("", rest).strip("; \t"):
            raise BadParameters(f"quadrant spec {rest!r} is not a ;-list of (x,y) pairs")
        return quadrant([(int(x), int(y)) for x, y in pairs])
    raise BadParameters(f"unknown family {name!r}")
