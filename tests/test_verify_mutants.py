"""Which verify suite kills which mutant: one table, run through the CLI.

Each row patches one library function with a mutant and names the suite
of `ghk verify` expected to fail on it, or None for a mutant that every
suite still passes.  Every row runs `verify` on five inputs: three
families and the nonrun and multirun golden documents.  A killed row
expects exit 1 with its suite among the failed ones, except on an input
where that suite is skipped.  A survivor row expects exit 0 on every
input, so a change to verify that kills it has to flip its row to the
suite that now does.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import non_run_ideal
from ghk import checks, ideals, invariants
from ghk.cli import run_command
from ghk.geometry import pareto_minimal
from ghk.ideals import MonomialIdeal
from test_checks import (
    THRESHOLD_MUTANTS,
    cube_without_its_first_corner,
    misshifted_torsion_factorization,
    moved_frobenius_power,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
QUADRANT = "quadrant:(3,0);(1,1);(0,2)"
INPUTS = ["a:7,3", "veronese:9,7", QUADRANT, "nonrun", "multirun"]
# the suites an unmutated verify skips, on the one input that is not saturated
SKIPPED = {QUADRANT: {"gap-split-additivity", "torsion-roundtrip"}}


def verify(source: str, tmp_path: Path, monkeypatch) -> tuple[int, list[str], set[str]]:
    """Exit code, failed suites and skipped suites of verify on a family or a golden document."""
    argv = ["verify", "--family", source]
    if source in ("nonrun", "multirun"):
        golden = json.loads((GOLDEN / f"{source}-verify.json").read_text(encoding="utf-8"))
        for name, text in golden["files"].items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        argv = golden["argv"]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run_command(argv)
    suites = json.loads(out.getvalue())["results"]["checks"]
    failed = [c["name"] for c in suites if not c["passed"]]
    skipped = {c["name"] for c in suites if c["detail"].startswith("skipped")}
    return code, failed, skipped


def threshold_mutant(test):
    def mutated(ideal, p):
        return test(*ideal.cone.corner(p), *ideal.thresholds)

    return mutated


BUILD_POWER = ideals._build_power


def unmixed_power(ideal, n):
    # a non-run I^n from the n-fold sums of all generators but the last, and n times
    # the last, without the sums that mix the two
    if len(ideal.stair.runs) == 1:
        return BUILD_POWER(ideal, n)
    *rest, (last_s, last_t) = ideal.stair.corners
    sums = [*ideals._power_levels(rest, n)[n], (n * last_s, n * last_t)]
    return MonomialIdeal(ideal.cone, pareto_minimal(sums))


def one_percent_larger_eghk(ideal):
    return invariants.eghk(ideal) * Fraction(101, 100)


def hundredfold_convergence_constant(ideal):
    return invariants.convergence_constant(ideal) * 100


# row: (module, attribute, mutant, the suite that kills it or None)
ROWS = {
    **{
        f"threshold {name}": (checks, "threshold_membership", threshold_mutant(test),
                              "saturation-oracle")
        for name, test in THRESHOLD_MUTANTS.items()
    },
    "moved bracket power": (checks, "frobenius_power", moved_frobenius_power,
                            "frobenius-scaling"),
    "misshifted torsion": (checks, "torsion_factorization", misshifted_torsion_factorization,
                           "torsion-roundtrip"),
    "cube without its first corner": (checks, "ordinary_power", cube_without_its_first_corner,
                                      "membership-chain"),
    # survivors
    "zero newton multiplicity": (checks, "newton_multiplicity", lambda ideal: 0, None),
    "zero epsilon estimate": (checks, "epsilon_estimate", lambda ideal, n: 0, None),
    "eghk 1% too large": (checks, "eghk", one_percent_larger_eghk, None),
    "convergence constant times 100": (
        checks, "convergence_constant", hundredfold_convergence_constant, None
    ),
    "non-run power without mixed sums": (ideals, "_build_power", unmixed_power, None),
}


@pytest.mark.parametrize("source", INPUTS)
def test_unmutated_verify_passes(source, tmp_path, monkeypatch):
    assert verify(source, tmp_path, monkeypatch) == (0, [], SKIPPED.get(source, set()))


@pytest.mark.parametrize("source", INPUTS)
@pytest.mark.parametrize("row", ROWS)
def test_mutant(row, source, tmp_path, monkeypatch):
    module, name, mutant, suite = ROWS[row]
    monkeypatch.setattr(module, name, mutant)
    code, failed, skipped = verify(source, tmp_path, monkeypatch)
    if suite is None:
        assert (code, failed) == (0, [])
    elif suite in SKIPPED.get(source, ()):
        assert suite in skipped
    else:
        assert code == 1
        assert suite in failed, failed


def test_the_non_run_survivor_changes_the_power():
    # it passes verify, yet it loses corners of I^n on nonrun
    for n in (2, 3, 10):
        assert unmixed_power(non_run_ideal(), n).stair != BUILD_POWER(non_run_ideal(), n).stair
