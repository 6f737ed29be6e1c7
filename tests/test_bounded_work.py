"""Inputs whose work once grew with det_abs, the table size or a power's DP.

Each runs as its own `python -m ghk` process and must finish in under
2 s with its stated exit code and result: the counts take a floor sum
over leftover columns, the plot walks the shorter side of each gap
rectangle and refuses too many lines, the pairing sums in integers,
verify walks its box scans up to the scan cap and refuses past it or
when a suite hits a work cap, and function sizes a tower by its runs
and its sums per q, charged by the bits of q and by the cone's Euclid
length, refusing too many.  The counting kernel reads a long run of
lattice steps off its first step, and refuses a run of other steps; the
band count reads a long run of touching rectangles whose bottoms move by
a lattice vector off its first rectangle, and walks other rectangles one
at a time.  Both are timed in process, under 1 s.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from conftest import floor_sum_count_complement
from ghk import geometry
from ghk.geometry import (
    Cone2,
    Corner,
    Staircase,
    _band_run,
    _count_under,
    count_lattice_band,
    count_lattice_complement,
)

ROOT = Path(__file__).resolve().parent.parent
D = 10**12
# det_abs 10^12 and one gap rectangle 10^12 - 1 columns wide, all of them left over
TALL = {"cone": {"rays": [[1, 0], [1, D]]}, "generators": [[1, 0], [1, D - 1]]}
# det_abs 100000 and a gap rectangle one row high, 99900001 columns wide, 999 dots
WIDE = {
    "cone": {"rays": [[1, 0], [1, 100000]]},
    "generators": [[1, 99998], [1, 99999], [1000, 100000000]],
}
# one gap rectangle 10^7 lines long on both sides, holding 99 dots
LONG = {
    "cone": {"rays": [[1, 0], [1000001, D]]},
    "generators": [[999991, 999990000000], [1000001, D]],
}
E_GHK = "999999999998000000000001/1000000000000"
# 20,001 corners in one run: each q of a function tower counts that run once
QUADRANT = {
    "cone": {"rays": [[1, 0], [0, 1]]},
    "generators": [[i, 20000 - i] for i in range(20001)],
}
# 20,001 corners whose steps (1, -2) and (1, -1) alternate: 20,000 one-step runs,
# all of width 1
ALTERNATING = {
    "cone": {"rays": [[1, 0], [0, 1]]},
    "generators": [[i + i // 2, 20000 - i] for i in range(20001)],
}
# 251 corners on det_abs 10^12 + 39 whose lattice steps (39, -39) and (40, -40) alternate:
# 250 runs of one step, whose counts slow down as the bits of q grow
WIDE_Q = {
    "cone": {"rays": [[1, 0], [1, 10**12 + 39]]},
    "generators": [[1, 39 * i + i // 2] for i in range(251)],
}
# 251 corners on det_abs 10^12 + 39 whose lattice steps (39w, -39w), w = 1 .. 250, are
# 250 runs of distinct widths: each q of a function tower takes 251 sums
WIDTHS = {
    "cone": {"rays": [[1, 0], [1, 10**12 + 39]]},
    "generators": [[1, 39 * (w * (w + 1) // 2)] for w in range(251)],
}

# 251 corners on det_abs F_60, rays (1, 0) and (F_59, F_60), whose lattice steps
# (w, -F_59 * w), w = 1 .. 250, are 250 runs of distinct widths: -tau mod det_abs is F_59,
# so each floor sum runs 58 division steps of Euclid, not 1, and is charged 29 times
FIB = [0, 1]
while len(FIB) < 501:
    FIB.append(FIB[-1] + FIB[-2])
FIB_WIDTHS = {
    "cone": {"rays": [[1, 0], [FIB[59], FIB[60]]]},
    "generators": [[19391, w * (w + 1) // 2] for w in range(251)],
}
# one step of width 1 on det_abs F_500, 346 bits: L = 498, and each of Euclid's rounds
# divides ints of six 64-bit words, so each sum is charged 249 * 6 times
FIB_HUGE = {
    "cone": {"rays": [[1, 0], [FIB[499], FIB[500]]]},
    "generators": [[1, 0], [1, 1]],
}


def run_ghk(tmp_path, argv, doc=None):
    if doc is not None:
        (tmp_path / "input.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = argv + ["--file", "input.json"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ghk", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = perf_counter() - start
    assert elapsed < 2, f"{argv} took {elapsed:.2f} s"
    return proc


@pytest.mark.parametrize(
    "argv, key",
    [(["eghk"], "eghk"), (["function", "--prime", "2", "--max-n", "10"], "limit")],
    ids=["eghk", "function"],
)
def test_count_over_a_huge_index(tmp_path, argv, key):
    proc = run_ghk(tmp_path, argv, TALL)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"][key]["rational"] == E_GHK


def test_plot_of_a_wide_gap_rectangle(tmp_path):
    proc = run_ghk(tmp_path, ["plot", "--out", "wide.svg"], WIDE)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "wide.svg").read_text().count('class="gap-dot"') == 999


def test_plot_long_on_both_sides_is_refused(tmp_path):
    proc = run_ghk(tmp_path, ["plot", "--out", "long.svg"], LONG)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "would walk 10000000 lines" in proc.stderr
    assert not (tmp_path / "long.svg").exists()


def test_reptype_at_the_largest_index(tmp_path):
    proc = run_ghk(tmp_path, ["reptype", "--r", "1000", "--u", ",".join(["1"] * 999)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["eghk"]["rational"] == "333333/2"


def test_weight_exponent_is_refused(tmp_path):
    # twelve characters that Fraction() reads as 10^100000000, over minutes
    proc = run_ghk(tmp_path, ["reptype", "--r", "3", "--u", "1,1", "--v", "1e100000000,1"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "weights entries must be" in proc.stderr


def test_verify_refuses_a_power_over_the_cap(tmp_path):
    proc = run_ghk(tmp_path, ["verify", "--family", "veronese:600,7"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "power 600 needs about 3819900 DP steps" in proc.stderr


def scan_cap_input(d):
    # verify's box scans grow with the index d of the cone over (1, 0) and (1, d)
    return {"cone": {"rays": [[1, 0], [1, d]]}, "generators": [[1, 0], [1, 1], [2, 1]]}


def test_verify_at_the_largest_index_under_the_scan_cap(tmp_path):
    proc = run_ghk(tmp_path, ["verify"], scan_cap_input(62489))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["all_passed"] is True


def test_verify_over_the_scan_cap_is_refused(tmp_path):
    proc = run_ghk(tmp_path, ["verify"], scan_cap_input(62490))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "verify needs about 1000012 scan steps, over 1000000" in proc.stderr


def transposed_scan_cap_input(d):
    # the same cone with x and y swapped: its probe box is scanned along rows, not columns
    return {"cone": {"rays": [[0, 1], [d, 1]]}, "generators": [[0, 1], [1, 1], [1, 2]]}


def test_verify_row_scanned_at_the_largest_index_under_the_scan_cap(tmp_path):
    proc = run_ghk(tmp_path, ["verify"], transposed_scan_cap_input(62489))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["all_passed"] is True


def test_verify_row_scanned_over_the_scan_cap_is_refused(tmp_path):
    proc = run_ghk(tmp_path, ["verify"], transposed_scan_cap_input(62490))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "verify needs about 1000012 scan steps, over 1000000" in proc.stderr


def test_function_tower_over_the_cap_is_refused(tmp_path):
    # the 250 runs once, then 251 sums per q: 498736 count steps at --max-n 650,
    # the largest the cap accepts
    proc = run_ghk(tmp_path, ["function", "--prime", "3", "--max-n", "651"], WIDTHS)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: q = 3^0 .. 3^651 needs 500242 count steps, over 500000\n"
    proc = run_ghk(tmp_path, ["function", "--prime", "3", "--max-n", "650"], WIDTHS)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["results"]["values"]) == 651


def test_function_tower_charged_by_the_euclid_length(tmp_path):
    # 250 + 29 * 251 * 1986 count steps at --max-n 650, which the cap charged as
    # 498736 and ran for seconds, refused at once
    start = perf_counter()
    proc = run_ghk(tmp_path, ["function", "--prime", "3", "--max-n", "650"], FIB_WIDTHS)
    assert perf_counter() - start < 1
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: q = 3^0 .. 3^650 needs 14456344 count steps, over 500000\n"
    proc = run_ghk(tmp_path, ["function", "--prime", "3", "--max-n", "68"], FIB_WIDTHS)
    assert proc.stderr == "error: q = 3^0 .. 3^68 needs 502501 count steps, over 500000\n"
    proc = run_ghk(tmp_path, ["function", "--prime", "3", "--max-n", "67"], FIB_WIDTHS)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["results"]["values"]) == 68


def test_function_tower_charged_by_the_size_of_det_abs(tmp_path):
    # 1 + 249 * 6 * 2 * 874 count steps at the 40-bit prime's largest --max-n, 102: charged
    # by the Euclid length alone, it was admitted and ran for more than a second
    start = perf_counter()
    argv = ["function", "--prime", "1099511627689", "--max-n", "102"]
    proc = run_ghk(tmp_path, argv, FIB_HUGE)
    assert perf_counter() - start < 1
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: q = 1099511627689^0 .. 1099511627689^102 needs 2611513 count steps, over 500000\n"
    )
    argv[-1] = "43"
    proc = run_ghk(tmp_path, argv, FIB_HUGE)
    assert proc.stderr == (
        "error: q = 1099511627689^0 .. 1099511627689^43 needs 510949 count steps, over 500000\n"
    )
    argv[-1] = "42"
    proc = run_ghk(tmp_path, argv, FIB_HUGE)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["results"]["values"]) == 43


def test_function_tower_charged_per_width(tmp_path):
    # 20,000 runs of one width take two sums per q: 20052 count steps, where
    # charging every run per q refused the tower at 520000 run counts
    proc = run_ghk(tmp_path, ["function", "--prime", "2", "--max-n", "25"], ALTERNATING)
    assert proc.returncode == 0, proc.stderr
    values = json.loads(proc.stdout)["results"]["values"]
    assert values[:2] == [300010000, 1200040000] and len(values) == 26


def test_function_tower_sized_by_the_bits_of_q(tmp_path):
    # each q = 3^n costs 1 + 2n // 256 steps per sum: 250 + 251 * 16640 at
    # --max-n 1999, a tower that counts for seconds, refused at once
    start = perf_counter()
    proc = run_ghk(tmp_path, ["function", "--prime", "3", "--max-n", "1999"], WIDTHS)
    assert perf_counter() - start < 1
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: q = 3^0 .. 3^1999 needs 4176890 count steps, over 500000\n"
    # three sums per q: the bit cap on q is reached first, at 52525 count steps
    proc = run_ghk(tmp_path, ["function", "--prime", "3", "--max-n", "2048"], WIDE_Q)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["results"]["values"]) == 2049


def test_function_tower_of_one_long_run(tmp_path):
    # 2001 counts of one run, though the staircase has 20,001 corners: the gap
    # under q times the run of 20,000 steps (1, -1) is q^2 * 20000 * 20001 / 2
    proc = run_ghk(tmp_path, ["function", "--prime", "2", "--max-n", "2000"], QUADRANT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["values"] == [
        200010000 * 4**n for n in range(2001)
    ]


def test_function_tower_under_the_cap(tmp_path):
    proc = run_ghk(tmp_path, ["function", "--prime", "2", "--max-n", "20"], QUADRANT)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["limit"]["rational"] == "200010000"
    assert results["values"][0] == 200010000
    assert len(results["values"]) == 21


def timed(count, what):
    """count() and its time in seconds; a count that runs past 10 s is stopped."""

    def stop(signum, frame):
        raise TimeoutError(f"{what} took over 10 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        start = perf_counter()
        result = count()
        return result, perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("width", [100_003, 1], ids=["wide-step-by-step", "narrow-whole"])
def test_a_long_run_is_read_once(width):
    # 10^5 equal lattice steps on a cone of index 3 (tau = -1, so (w, -h) is a lattice
    # step when h == w modulo 3), wide or narrow, from a lattice corner: each step is
    # the first moved by a lattice vector, so the run is one column sum; a kernel
    # that scans the run again per step is stopped after 10 s
    cone, steps, h = Cone2.from_rays((1, 0), (1, 3)), 10**5, 3 + width % 3
    low = -steps * h % 3
    corners = tuple((i * width, low + h * (steps - i)) for i in range(steps + 1))
    what = f"{steps} steps {width} wide"
    count, elapsed = timed(lambda: _count_under(cone, Staircase(corners).runs), what)
    assert elapsed < 1, f"{what} took {elapsed:.2f} s"
    stair = Staircase(tuple(Corner(s, t) for s, t in corners))
    assert count == floor_sum_count_complement(cone, Corner(0, low), stair)


def long_run_band(width, h, low):
    # the band between a run of 10^5 equal steps (width, -h) from (0, low) on a cone
    # of index 3 and the run's two end corners: 10^5 - 1 touching rectangles of one top
    cone, steps = Cone2.from_rays((1, 0), (1, 3)), 10**5
    fine = Staircase(tuple(Corner(i * width, low + h * (steps - i)) for i in range(steps + 1)))
    coarse = Staircase((fine.corners[0], fine.corners[-1]))
    return cone, Corner(0, low), fine, coarse


def timed_band(monkeypatch, cone, threshold, fine, coarse, what):
    """The band count, its time, and the length of every run _band_run was given."""
    runs = []

    def band_run(*args):
        runs.append(args[-1])
        return _band_run(*args)

    monkeypatch.setattr(geometry, "_band_run", band_run)
    count, elapsed = timed(lambda: count_lattice_band(cone, threshold, fine, coarse), what)
    assert elapsed < 1, f"{what} took {elapsed:.2f} s"
    outside = [floor_sum_count_complement(cone, threshold, stair) for stair in (fine, coarse)]
    assert count == outside[1] - outside[0]
    assert 0 not in runs, "a _band_run call of no rectangles"
    return runs


@pytest.mark.parametrize("width", [100_003, 1], ids=["wide-by-rectangle", "narrow-whole"])
def test_a_long_band_run_is_read_once(monkeypatch, width):
    # the lattice steps of test_a_long_run_is_read_once, from a lattice corner: each
    # bottom is a lattice move from the last one's, so the 10^5 - 1 rectangles join
    # into one run, read off its first rectangle in two column sums
    h = 3 + width % 3
    band = long_run_band(width, h, -(10**5) * h % 3)
    runs = timed_band(monkeypatch, *band, f"a lattice band of 10^5 steps {width} wide")
    assert runs == [10**5 - 1]


@pytest.mark.parametrize("width", [100_003, 1], ids=["wide", "narrow"])
def test_a_non_lattice_band_is_walked_one_rectangle_at_a_time(monkeypatch, width):
    # steps (width, -3), none a lattice step: no bottom is a lattice move from the
    # last one's, so each of the 10^5 - 1 rectangles is a run of its own, two column
    # sums each
    band = long_run_band(width, 3, 0)
    runs = timed_band(monkeypatch, *band, f"a band of 10^5 steps (w, -3), w = {width}")
    assert runs == [1] * (10**5 - 1)


def test_a_long_narrow_run_on_a_huge_index():
    # 10^5 steps (40, -1) on a cone of index 10^12 + 39: no step is a lattice step, so
    # the complement count refuses the staircase at once, and the band walks its 10^5
    # rectangles one at a time, each two column sums of 40 columns
    cone, steps = Cone2.from_rays((1, 0), (1, 10**12 + 39)), 10**5
    fine = Staircase(tuple((40 * i, steps - i) for i in range(steps + 1)))
    coarse = Staircase((fine.corners[0], fine.corners[-1]))
    threshold = Corner(0, 0)
    what = f"{steps} steps 40 wide on index 10^12 + 39"
    with pytest.raises(ValueError, match="not the corner of a lattice point"):
        count_lattice_complement(cone, threshold, fine)
    band, elapsed = timed(lambda: count_lattice_band(cone, threshold, fine, coarse), what)
    assert elapsed < 1, f"the band of {what} took {elapsed:.2f} s"
    outside = [floor_sum_count_complement(cone, threshold, stair) for stair in (fine, coarse)]
    assert band == outside[1] - outside[0]
