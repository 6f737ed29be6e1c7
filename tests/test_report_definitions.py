"""Report values against their written definitions, by enumeration alone.

Each case is a tiny document drawn with a fixed seed: rays with
coordinates at most 4 and generators whose corners are at most 7, half
of them drawn so that the ideal is saturated.  Its `eghk`, `function`,
`powers` and `split` reports, run through run_command, are checked
against the definitions stated in terms of lattice points:

- `eghk` reports the thresholds; det_abs, the |determinant| of the
  rays; whether the ideal is saturated, which is when every lattice
  point above the thresholds dominates a generator corner; and e_gHK,
  the number of integer cells (s, t) of the gap box, from the thresholds
  to the largest generator corner coordinates, that dominate no
  generator corner, over det_abs;
- `function` value n is the number of lattice points whose corners lie
  in the quadrant above q times the thresholds but dominate no q-th
  multiple of a generator, q = p^n; `normalized` entry n is that count
  over q^2, as a rational; `limit` is e_gHK as `eghk` defines it; and
  `convergence_constant` is 4 (W + H), W and H the width and height of
  the gap box from the thresholds to the largest minimal generator
  corner coordinates;
- `powers` value i is that count for the ordinary power I^(i + 1),
  generated by the sums of all (i + 1)-multisets of generators, above
  (i + 1) times the thresholds;
- `split` at q counts the points of the scaled threshold quadrant
  missing from the bracket power, those missing from the ordinary power,
  and those in the ordinary power but not the bracket power; `additive`
  is whether the first of those counts is the sum of the other two.

The recount lists points with conftest.box_scan_points and powers with
itertools.combinations_with_replacement, and tests domination corner by
corner: no ghk counting, power or fit helper is used.  Thresholds are
the componentwise minima of the generator corners.
"""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import box_scan_points
from ghk.cli import run_command
from ghk.errors import CollinearRays
from ghk.geometry import Cone2

SPLIT_Q = 3
MAX_N = 8


def _minimal(corners) -> list[tuple[int, int]]:
    # the corners that dominate no other corner of the set
    pool = set(corners)
    return [c for c in pool if not any(o != c and o[0] <= c[0] and o[1] <= c[1] for o in pool)]


def _cone(rng: random.Random, min_index: int, max_index: int) -> Cone2:
    while True:
        rays = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(2)]
        try:
            cone = Cone2.from_rays(*rays)
        except CollinearRays:
            continue
        if min_index <= cone.det_abs <= max_index:
            return cone


def _document(rng: random.Random, saturated: bool) -> dict:
    """A document whose generator corners are all at most 7.

    A saturated one lists every lattice point with corners in
    [c1, 8) x [c2, 8) on a cone of index d with c1 + d and c2 + d at
    most 8: that box holds a point of each column class above both
    thresholds, so every lattice point above them is in the ideal.  Its
    thresholds are not the corner of a lattice point, and the other
    documents have at least two minimal generators, since a principal
    ideal has no gap to count.
    """
    while True:
        if saturated:
            cone = _cone(rng, 2, 6)
            c1, c2 = (rng.randint(0, 8 - cone.det_abs) for _ in range(2))
            gens = box_scan_points(cone, c1, 8, c2, 8)
        else:
            cone = _cone(rng, 1, 32)
            pool = box_scan_points(cone, 0, 8, 0, 8)
            gens = rng.sample(pool, min(len(pool), rng.randint(2, 4)))
        if len(_minimal(cone.corner(g) for g in gens)) > 1:
            break
    return {
        "cone": {"rays": [list(cone.ray1), list(cone.ray2)]},
        "generators": [list(g) for g in gens],
    }


def _draw(count: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [_document(rng, saturated=i % 2 == 0) for i in range(count)]


DOCUMENTS = _draw(40, 23)


def _dominates(c, covers) -> bool:
    return any(c[0] >= gs and c[1] >= gt for gs, gt in covers)


class _Definition:
    """A document's cone, generator corners and thresholds, recounted by enumeration."""

    def __init__(self, doc: dict) -> None:
        self.cone = Cone2.from_rays(*doc["cone"]["rays"])
        corners = [self.cone.corner(tuple(g)) for g in doc["generators"]]
        self.gens = _minimal(corners)
        self.low = (min(s for s, _ in corners), min(t for _, t in corners))
        self.high = (max(s for s, _ in corners), max(t for _, t in corners))

    def quadrant(self, k: int) -> list[tuple[int, int]]:
        # corners of the lattice points above k times the thresholds; every point
        # past k times the far corner dominates a k-th multiple of a generator
        (s0, t0), (s1, t1) = self.low, self.high
        box = box_scan_points(self.cone, k * s0, k * s1, k * t0, k * t1)
        return [self.cone.corner(p) for p in box]

    def bracket(self, q: int) -> list[tuple[int, int]]:
        return [(q * s, q * t) for s, t in self.gens]

    def ordinary(self, n: int) -> list[tuple[int, int]]:
        sums = combinations_with_replacement(self.gens, n)
        return _minimal((sum(s for s, _ in c), sum(t for _, t in c)) for c in sums)

    def cells(self) -> int:
        # integer cells of the gap box that dominate no generator corner
        (s0, t0), (s1, t1) = self.low, self.high
        box = [(s, t) for s in range(s0, s1) for t in range(t0, t1)]
        return sum(not _dominates(c, self.gens) for c in box)

    def gap(self, k: int, covers) -> int:
        return sum(not _dominates(c, covers) for c in self.quadrant(k))

    def split(self, q: int) -> tuple[int, int, int]:
        frob, ordinary, points = self.bracket(q), self.ordinary(q), self.quadrant(q)
        band = sum(_dominates(c, ordinary) and not _dominates(c, frob) for c in points)
        return self.gap(q, frob), self.gap(q, ordinary), band

    def torsion_order(self) -> int:
        # the least r with r times the thresholds the corner of a lattice point
        (c1, c2), d = self.low, self.cone.det_abs
        return next(r for r in range(1, d + 1) if (r * (c2 - self.cone.tau * c1)) % d == 0)


def _run(capsys, argv):
    code = run_command(argv)
    out, err = capsys.readouterr()
    return code, json.loads(out)["results"] if out else None, out, err


def test_documents_cover_both_kinds():
    saturated = [spec.gap(1, spec.gens) == 0 for spec in map(_Definition, DOCUMENTS)]
    assert all(saturated[0::2]) and saturated[1::2].count(False) >= 10


@pytest.mark.parametrize("index", range(len(DOCUMENTS)))
def test_reports_match_their_definitions(index, capsys, tmp_path):
    doc, path = DOCUMENTS[index], tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    spec = _Definition(doc)
    code, results, _, _ = _run(capsys, ["eghk", "--file", str(path)])
    assert code == 0
    (x1, y1), (x2, y2) = doc["cone"]["rays"]
    det_abs = abs(x1 * y2 - y1 * x2)
    assert results["thresholds"] == list(spec.low)
    assert results["det_abs"] == det_abs
    assert results["saturated"] == (spec.gap(1, spec.gens) == 0)
    area = Fraction(spec.cells(), det_abs)
    assert Fraction(results["eghk"]["rational"]) == area
    argv = ["function", "--file", str(path), "--prime", "2", "--max-n", "2"]
    code, results, _, _ = _run(capsys, argv)
    assert code == 0
    gaps = [spec.gap(q, spec.bracket(q)) for q in (1, 2, 4)]
    assert results["values"] == gaps
    normalized = [Fraction(entry["rational"]) for entry in results["normalized"]]
    assert normalized == [Fraction(g, q * q) for g, q in zip(gaps, (1, 2, 4))]
    assert Fraction(results["limit"]["rational"]) == area
    (s0, t0), far_s, far_t = spec.low, *(max(c[i] for c in spec.gens) for i in (0, 1))
    assert results["convergence_constant"] == 4 * (far_s - s0 + far_t - t0)
    saturated = results["values"][0] == 0
    code, results, _, _ = _run(capsys, ["powers", "--file", str(path), "--max-n", str(MAX_N)])
    assert code == 0
    assert results["values"] == [spec.gap(n, spec.ordinary(n)) for n in range(1, MAX_N + 1)]
    # a saturated ideal's powers are fitted, one quadratic per torsion class,
    # only when there are seven values per class
    assert ("fit" in results) == (saturated and 7 * spec.torsion_order() <= MAX_N)
    code, results, out, err = _run(capsys, ["split", "--file", str(path), "--q", str(SPLIT_Q)])
    if not saturated:
        assert (code, out, err) == (1, "", "error: gap split needs a saturated ideal\n")
        return
    assert code == 0
    total, missing, band = spec.split(SPLIT_Q)
    assert (results["total_gap"], results["sym_vs_ord"], results["ord_vs_frob"]) == (
        total, missing, band)
    assert results["additive"] is (total == missing + band)
