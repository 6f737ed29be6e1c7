"""Replay the golden CLI corpus: every report stays byte-identical.

Each tests/golden/<name>.json case holds the argv of one ghk command,
the input files it reads, and the exit code, stdout, stderr and (for
plot) the SVG it produced when the corpus was captured.  A usage error
records the code argparse exits with.  The replay runs the command in a
scratch directory, so relative paths in argv and in the reports are the
same on every machine, and with COLUMNS=200, so argparse writes each
usage line unwrapped, in every terminal and on every Python version.
After an intended change to a report, rewrite the corpus with

    PYTHONPATH=src python tests/test_golden.py

or capture only the named cases, leaving every other file untouched, with

    PYTHONPATH=src python tests/test_golden.py NAME...
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest

from ghk import cli
from ghk.cli import run_command

GOLDEN = Path(__file__).resolve().parent / "golden"
SVG = "out.svg"

QUADRANT = "quadrant:(3,0);(1,1);(0,2)"
DOCUMENT = {
    "input.json": json.dumps(
        {
            "label": "skew",
            "cone": {"rays": [[1, 0], [2, 5]]},
            "generators": [[2, 1], [2, 2], [2, 3], [5, 4]],
        }
    )
}
# conftest.non_run_ideal: saturated, and its corners (0, 7), (1, 5), (5, 4) are not one run
NONRUN = {
    "nonrun.json": json.dumps(
        {
            "label": "nonrun",
            "cone": {"rays": [[1, 0], [2, 7]]},
            "generators": [[1, 0], [1, 1], [2, 5]],
        }
    )
}
# saturated, det_abs 25, and three maximal runs: 2 x (1, -9), 2 x (3, -2) and 1 x (14, -1),
# the last step wider than det_abs.bit_length() = 5
MULTIRUN = {
    "multirun.json": json.dumps(
        {
            "label": "multirun",
            "cone": {"rays": [[1, 0], [9, 25]]},
            "generators": [[2, 3], [2, 4], [2, 5], [3, 8], [4, 11], [9, 25]],
        }
    )
}
# saturated, det_abs 13, and one run of 4 steps (3, -1) from (0, 13): several steps,
# each wider than one column
WIDERUN = {
    "widerun.json": json.dumps(
        {
            "label": "widerun",
            "cone": {"rays": [[1, 0], [9, 13]]},
            "generators": [[1, 0], [3, 3], [5, 6], [7, 9], [9, 12]],
        }
    )
}
# rays (1, 0), (40, 1): every oracle box is scanned along rows, and one normal has y = 0
SKEW = {
    "skew.json": json.dumps(
        {
            "label": "skew",
            "cone": {"rays": [[1, 0], [40, 1]]},
            "generators": [[7, 0], [43, 1], [120, 3]],
        }
    )
}
# rays (-2, 1), (0, -1): the scans meet normals with b1 < 0 beside b2 < 0 and b2 = 0
NEGATIVE = {
    "negative.json": json.dumps(
        {
            "label": "negative",
            "cone": {"rays": [[-2, 1], [0, -1]]},
            "generators": [[-2, 1], [-3, 0], [-6, 1]],
        }
    )
}
# an explicit table with no "r", and weights given as a fraction and as a decimal
TABLE = {
    "table.json": json.dumps(
        {
            "reptype": {
                "table": [[2, 1], [1, 2]],
                "multiplicities": [1, 1],
                "weights": ["1/3", "0.25"],
            }
        }
    )
}
REPTYPE = {
    "reptype.json": json.dumps(
        {
            "reptype": {
                "r": 5,
                "multiplicities": [1, 0, 2, 0],
                "weights": ["1/5", "1/3", "1/5", "1/7"],
            }
        }
    )
}


# echoed back verbatim by every report: non-ASCII text and numbers of every JSON kind
ECHO = {
    "echo.json": (
        '{"label": "Kegel \u00e9\u2202 \u4e09", "cone": {"rays": [[1, 0], [1, 3]]}, '
        '"generators": [[1, 0], [1, 1]], "extra": {"huge": 1.5e300, "negzero": -0.0, '
        '"nan": NaN, "inf": [Infinity, -Infinity], "digits": 123456789012345678901234567890, '
        '"nested": [[1, [2.5, "tab\\there"]], [], {}, {"z": null, "a": true}]}}'
    )
}


def _toric(tag: str, spec: list[str], files: dict, q: str, prime: str, split_q: str):
    return {
        f"{tag}-eghk": (["eghk", *spec], files),
        f"{tag}-function": (["function", *spec, "--prime", prime, "--max-n", "4"], files),
        f"{tag}-split": (["split", *spec, "--q", split_q], files),
        f"{tag}-verify": (["verify", *spec], files),
        f"{tag}-plot": (["plot", *spec, "--out", SVG], files),
        f"{tag}-plot-qmark": (["plot", *spec, "--out", SVG, "--q-mark", q], files),
    }


# name -> (argv, input files written into the working directory first)
CASES = {
    **_toric("a73", ["--family", "a:7,3"], {}, "3", "2", "3"),
    **_toric("veronese97", ["--family", "veronese:9,7"], {}, "2", "3", "2"),
    **_toric("quadrant", ["--family", QUADRANT], {}, "2", "2", "2"),
    **_toric("file", ["--file", "input.json"], DOCUMENT, "2", "5", "2"),
    # q up to 2^40: finishes only because lattice counting does not grow with q
    "a73-function-deep": (["function", "--family", "a:7,3", "--prime", "2", "--max-n", "40"], {}),
    "a73-powers": (["powers", "--family", "a:7,3", "--max-n", "49"], {}),
    # fewer values than the torsion period's fit needs: the report leaves the fit out
    "a73-powers-short": (["powers", "--family", "a:7,3", "--max-n", "8"], {}),
    "a73-powers-period": (["powers", "--family", "a:7,3", "--max-n", "98", "--period", "14"], {}),
    # tower's longest band: 201 ordinary-power corners against a two-corner bracket power
    "a58-split-deep": (["split", "--family", "a:58,28", "--q", "200"], {}),
    # one-run gap splits, whose bands are m runs of R = q - 1 rectangles: R = 1 of
    # 17 columns, past det_abs.bit_length() = 5; one run with w = 17 < R = 29;
    # m = 5 runs; a principal ideal, m = 0; and q = 1, R = 0
    "a203-split-one": (["split", "--family", "a:20,3", "--q", "2"], {}),
    "a203-split-whole": (["split", "--family", "a:20,3", "--q", "30"], {}),
    "veronese125-split": (["split", "--family", "veronese:12,5", "--q", "40"], {}),
    "principal-split": (["split", "--family", "quadrant:(2,3)", "--q", "5"], {}),
    "a73-split-q1": (["split", "--family", "a:7,3", "--q", "1"], {}),
    "veronese97-powers-period": (
        ["powers", "--family", "veronese:9,7", "--max-n", "14", "--period", "1"], {}),
    # 63 gap lengths of an 8-generator ideal that is one run: counted off the dilated runs
    "veronese97-powers-deep": (["powers", "--family", "veronese:9,7", "--max-n", "63"], {}),
    # one run of steps 17 wide, past det_abs.bit_length() = 5: powers n <= 17 have
    # at most as many steps as a step has columns, powers n >= 18 more
    "a203-powers-wide": (["powers", "--family", "a:20,3", "--max-n", "140"], {}),
    "quadrant-powers-period": (
        ["powers", "--family", QUADRANT, "--max-n", "14", "--period", "1"], {}),
    "file-powers": (["powers", "--file", "input.json", "--max-n", "35"], DOCUMENT),
    # saturated and not one run: the gap lengths, then the torsion power I^7 off the DP
    "nonrun-powers": (["powers", "--file", "nonrun.json", "--max-n", "49"], NONRUN),
    "nonrun-split": (["split", "--file", "nonrun.json", "--q", "3"], NONRUN),
    "nonrun-verify": (["verify", "--file", "nonrun.json"], NONRUN),
    "multirun-function": (
        ["function", "--file", "multirun.json", "--prime", "3", "--max-n", "4"], MULTIRUN),
    "multirun-split": (["split", "--file", "multirun.json", "--q", "7"], MULTIRUN),
    "multirun-plot-qmark": (
        ["plot", "--file", "multirun.json", "--out", SVG, "--q-mark", "2"], MULTIRUN),
    "multirun-verify": (["verify", "--file", "multirun.json"], MULTIRUN),
    "widerun-split": (["split", "--file", "widerun.json", "--q", "50"], WIDERUN),
    "widerun-verify": (["verify", "--file", "widerun.json"], WIDERUN),
    "widerun-powers": (["powers", "--file", "widerun.json", "--max-n", "91"], WIDERUN),
    # one run of steps 1,000,002 wide: its band is 2999 rectangles, each wider than det_abs
    "a1000003-split": (["split", "--family", "a:1000003,1", "--q", "3000"], {}),
    "skew-verify": (["verify", "--file", "skew.json"], SKEW),
    "negative-verify": (["verify", "--file", "negative.json"], NEGATIVE),
    "file-echo-eghk": (["eghk", "--file", "echo.json"], ECHO),
    "a7-reptype": (["reptype", "--r", "7", "--u", "0,0,1,0,0,1"], {}),
    "file-reptype": (["reptype", "--file", "reptype.json"], REPTYPE),
    "a5-reptype-weights": (["reptype", "--r", "5", "--u", "1,0,2,0", "--v", "1/5,1/3,1/5,1/7"], {}),
    "file-reptype-table": (["reptype", "--file", "table.json"], TABLE),
    "error-composite-prime": (
        ["function", "--family", "a:7,3", "--prime", "9", "--max-n", "2"], {}),
    "error-split-unsaturated": (["split", "--family", QUADRANT, "--q", "3"], {}),
    "error-unknown-family": (["eghk", "--family", "cubic:2,1"], {}),
    "error-missing-file": (["eghk", "--file", "missing.json"], {}),
    "error-malformed-file": (["eghk", "--file", "bad.json"], {"bad.json": '{"cone": [1, 0'}),
    "error-reptype-dimension": (["reptype", "--r", "4", "--u", "1,0"], {}),
    # refusals by the power DP's work estimate, for one-run and non-run ideals
    "error-powers-cap-run": (["powers", "--family", "veronese:9,7", "--max-n", "265"], {}),
    "error-split-cap-run": (["split", "--family", "veronese:9,7", "--q", "306"], {}),
    "error-powers-cap-nonrun": (["powers", "--file", "nonrun.json", "--max-n", "1000"], NONRUN),
    "error-split-cap-nonrun": (["split", "--file", "nonrun.json", "--q", "2000"], NONRUN),
    "error-verify-cap": (["verify", "--family", "veronese:600,7"], {}),
    "error-powers-max-n-zero": (["powers", "--file", "nonrun.json", "--max-n", "0"], NONRUN),
    # usage errors, written by argparse; --help stays out, its wrapping follows the terminal
    "usage-unknown-option": (["eghk", "--family", "a:3,1", "--bogus"], {}),
    "usage-ambiguous-option": (["powers", "--f", "a:7,3", "--max-n", "3"], {}),
    "usage-family-and-file": (["eghk", "--family", "a:3,1", "--file", "input.json"], DOCUMENT),
    "usage-non-integer-q": (["split", "--family", "a:7,3", "--q", "two"], {}),
    "usage-missing-prime": (["function", "--family", "a:7,3", "--max-n", "2"], {}),
    "usage-negative-looking-value": (["reptype", "--r", "3", "--u", "-1,0"], {}),
}


def run_case(argv: list[str], files: dict, workdir: Path) -> dict:
    """Run one command in workdir and record everything it produced."""
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    try:
        with patch.dict(os.environ, COLUMNS="200"), redirect_stdout(out), redirect_stderr(err):
            code = run_command(list(argv))
    except SystemExit as exc:
        code = exc.code
    record = {
        "argv": list(argv),
        "files": files,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    svg = workdir / SVG
    if svg.exists():
        record["svg"] = svg.read_bytes().decode("utf-8")
    return record


def test_corpus_matches_case_list():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay(name, tmp_path, monkeypatch):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert golden["argv"] == CASES[name][0] and golden["files"] == CASES[name][1]
    monkeypatch.chdir(tmp_path)
    assert run_case(golden["argv"], golden["files"], tmp_path) == golden


@pytest.mark.parametrize("name", sorted(CASES))
def test_argparse_reads_every_argv_alike(name, tmp_path, monkeypatch):
    # the same bytes and exit code when argparse, not the option table, reads the argv
    argv, files = CASES[name]
    runs = []
    for reader in (cli._read_argv, lambda argv: None):
        monkeypatch.setattr(cli, "_read_argv", reader)
        workdir = tmp_path / str(len(runs))
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        runs.append(run_case(argv, files, workdir))
    assert runs[0] == runs[1]


def _capture(names: list[str]) -> None:
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    if not names:
        for stale in GOLDEN.glob("*.json"):
            stale.unlink()
    home = os.getcwd()
    for name in names or CASES:
        argv, files = CASES[name]
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                record = run_case(argv, files, Path(tmp))
            finally:
                os.chdir(home)
        text = json.dumps(record, indent=1, sort_keys=True) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{name}: exit {record['exit']}", file=sys.stderr)


if __name__ == "__main__":
    _capture(sys.argv[1:])
