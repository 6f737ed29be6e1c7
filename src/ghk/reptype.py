"""Multiplicities from finite representation type.

For a ring with finitely many indecomposable maximal Cohen-Macaulay
modules, the generalized Hilbert-Kunz multiplicity of a module is a
bilinear expression: decompose the module and the structural limit
weights over the indecomposables and pair them through the table of
Tor lengths.  For the type A hypersurface singularity of index r the
indecomposables are r - 1 cokernels with Tor table
min(i, j, r - i, r - j) and equal limit weights 1 / r.
"""

from fractions import Fraction
from math import lcm
from numbers import Rational
from operator import mul
from typing import Sequence

from .errors import AsymmetricTable, BadParameters, DimensionMismatch


class TorTable:
    """A symmetric table of nonnegative pairing lengths, 1-indexed."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        n = len(entries)
        if n == 0:
            raise BadParameters("a pairing table needs at least one row")
        if any(len(row) != n for row in entries):
            raise BadParameters("pairing table must be square")
        if any(min(row) < 0 for row in entries):
            raise BadParameters("pairing lengths must be nonnegative")
        e = entries
        if not all(tuple(row) == col for row, col in zip(e, zip(*e))):
            i, j = next((i, j) for i in range(n) for j in range(i) if e[i][j] != e[j][i])
            raise AsymmetricTable(f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ")
        self.entries = entries

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TorTable) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i - 1][j - 1]


def a_tor_table(r: int) -> TorTable:
    """Tor table of the type A singularity of index 2 <= r <= 1000: min(i, j, r - i, r - j)."""
    if r < 2:
        raise BadParameters("index r must be at least 2")
    if r > 1000:
        raise BadParameters(f"index r = {r} is over 1000")
    rows = []
    for i in range(1, r):
        # min(j, r - j, m) for j = 1 .. r - 1: a rise, a run of m, a fall
        m = min(i, r - i)
        rows.append((*range(1, m), *(m,) * (r - 2 * m + 1), *range(m - 1, 0, -1)))
    return TorTable(tuple(rows))


def eghk_from_type(
    multiplicities: Sequence[int],
    weights: Sequence[Rational],
    table: TorTable,
) -> Fraction:
    """Pair module multiplicities with limit weights through a Tor table.

    Returns sum over i, j of multiplicities[i] * weights[j] * table(i, j)
    as an exact rational, summed in integers over the weights' least
    common denominator.
    """
    u, v = list(multiplicities), list(weights)
    if len(u) != table.dim or len(v) != table.dim:
        raise DimensionMismatch(
            f"table is {table.dim}x{table.dim} but got {len(u)} multiplicities "
            f"and {len(v)} weights"
        )
    if any(x < 0 for x in u):
        raise BadParameters("module multiplicities must be nonnegative")
    if any(w < 0 for w in v):
        raise BadParameters("limit weights must be nonnegative")
    den = lcm(*(w.denominator for w in v))
    scaled = [w.numerator * (den // w.denominator) for w in v]
    total = sum(ui * sum(map(mul, scaled, row)) for ui, row in zip(u, table.entries) if ui)
    return Fraction(total, den)


def eghk_a(r: int, multiplicities: Sequence[int]) -> Fraction:
    """Type A multiplicity with the canonical equal weights 1 / r."""
    table = a_tor_table(r)
    weights = [Fraction(1, r)] * table.dim
    return eghk_from_type(multiplicities, weights, table)
