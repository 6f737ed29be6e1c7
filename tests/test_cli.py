import argparse
import json
import os
import re
import subprocess
import sys
import time
import tomllib
from decimal import ROUND_DOWN, Inexact, localcontext
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import non_run_ideal
from ghk import checks, cli, ideals
from ghk.cli import run_command
from ghk.errors import ContractViolation, NotMPrimary
from ghk.fmt import exact_decimal, rational_json, report_json
from ghk.ideals import MonomialIdeal


def run_json(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestFormatting:
    def test_exact_decimal(self):
        assert exact_decimal(Fraction(1, 3)) == "0.333333333333"
        assert exact_decimal(Fraction(2, 3)) == "0.666666666667"
        assert exact_decimal(Fraction(1, 2)) == "0.5"
        assert exact_decimal(Fraction(-5, 4)) == "-1.25"
        assert exact_decimal(Fraction(0)) == "0"
        assert exact_decimal(Fraction(6)) == "6"
        assert exact_decimal(Fraction(10**13)) == "10000000000000"
        assert exact_decimal(Fraction(1, 7)) == "0.142857142857"
        # a 13th significant digit of exactly 5 rounds to the even 12th digit
        assert exact_decimal(Fraction(1234567890125, 10**13)) == "0.123456789012"
        assert exact_decimal(Fraction(1234567890135, 10**13)) == "0.123456789014"
        assert exact_decimal(Fraction(-1234567890125, 10**13)) == "-0.123456789012"
        assert exact_decimal(Fraction(1234567890125)) == "1234567890120"
        assert exact_decimal(Fraction(1234567890135)) == "1234567890140"
        # past 10^12 and below 10^-12: padded with zeros, never in scientific notation
        assert exact_decimal(Fraction(10**20 + 1, 3)) == "33333333333300000000"
        assert exact_decimal(Fraction(-(10**30), 7)) == "-142857142857000000000000000000"
        assert exact_decimal(Fraction(1, 3 * 10**15)) == "0.000000000000000333333333333"
        assert exact_decimal(Fraction(-5, 4 * 10**13)) == "-0.000000000000125"

    def test_exact_decimal_ignores_the_callers_context(self):
        # ROUND_DOWN gave 0.666666666666, and the Inexact trap raised
        with localcontext() as ctx:
            ctx.rounding = ROUND_DOWN
            ctx.traps[Inexact] = True
            assert rational_json(Fraction(2, 3)) == {
                "rational": "2/3",
                "decimal": "0.666666666667",
            }
            assert exact_decimal(Fraction(-2, 3)) == "-0.666666666667"

    def test_rational_json(self):
        assert rational_json(Fraction(2, 3)) == {
            "rational": "2/3",
            "decimal": "0.666666666667",
        }
        assert rational_json(Fraction(5)) == {"rational": "5", "decimal": "5"}


class Rank(IntEnum):
    LOW = -3
    HIGH = 2**70


class Count(int):
    # json writes int.__repr__ of an int subclass, never its own repr or str
    def __repr__(self):
        return "Count()"

    __str__ = __repr__


class Label(str):
    def __repr__(self):
        return "Label()"


INTS = st.integers() | st.integers(min_value=1 - 10**4300, max_value=10**4300 - 1)
# huge, negative and integer-valued rationals, each written as rational_json(value)
FRACTIONS = st.builds(
    Fraction, INTS, st.just(1) | st.integers(min_value=1) | st.integers(1, 10**4300 - 1)
)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | INTS
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x2f))
    | st.sampled_from([Rank.LOW, Rank.HIGH, True, False])
    | st.integers().map(Count)
    | st.text().map(Label)
    | FRACTIONS
)
JSON_VALUES = st.recursive(
    # all-int lists and rational dicts, whose every item the writer writes inline
    JSON_SCALARS
    | st.lists(INTS, max_size=6)
    | st.lists(FRACTIONS, max_size=6)
    | st.fixed_dictionaries({"decimal": st.text(), "rational": st.text()}),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def as_rational_json(value):
    """value with every Fraction replaced by rational_json of it."""
    if isinstance(value, Fraction):
        return rational_json(value)
    if isinstance(value, dict):
        return {key: as_rational_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(as_rational_json(item) for item in value)
    return value


class TestReportWriter:
    @seed(1503)
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_matches_stdlib_indented_dump(self, value):
        expected = json.dumps(as_rational_json(value), indent=2, sort_keys=True)
        assert report_json(value) == expected

    def test_same_errors_as_stdlib(self):
        for bad in (
            {"n": [10**4300]},
            (1, {"x": object()}),
            object(),
            [0, -1, 10**4300, 2],
            {"pair": ("x", object())},
            {"q": [Fraction(1, 3), Fraction(10**4300, 7)]},
            Fraction(-(10**4300), 3),
        ):
            with pytest.raises((ValueError, TypeError)) as expected:
                json.dumps(as_rational_json(bad), indent=2, sort_keys=True)
            with pytest.raises(expected.type, match=re.escape(str(expected.value))):
                report_json(bad)


class TestEghkCommand:
    def test_family(self, capsys):
        code, report, err = run_json(capsys, ["eghk", "--family", "a:3,1"])
        assert code == 0
        assert report["command"] == "eghk"
        assert report["input"] == {"family": "a:3,1"}
        assert report["results"]["eghk"]["rational"] == "2/3"
        assert report["results"]["thresholds"] == [1, 0]
        assert report["results"]["saturated"] is True
        assert report["results"]["closed_form"]["rational"] == "2/3"
        assert "2/3" in err

    def test_file_document(self, capsys, tmp_path):
        doc = {
            "label": "skew sample",
            "cone": {"rays": [[1, 0], [1, 3]]},
            "generators": [[1, 0], [1, 1]],
        }
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(doc))
        code, report, err = run_json(capsys, ["eghk", "--file", str(path)])
        assert code == 0
        assert report["input"] == doc
        assert report["results"]["eghk"]["rational"] == "1/3"
        assert "skew sample" in err

    def test_report_round_trips_through_json(self, capsys):
        code, report, _ = run_json(capsys, ["eghk", "--family", "veronese:4,2"])
        assert code == 0
        assert json.loads(json.dumps(report)) == report


class TestFunctionCommand:
    def test_values(self, capsys):
        code, report, _ = run_json(
            capsys,
            ["function", "--family", "veronese:3,1", "--prime", "2", "--max-n", "2"],
        )
        assert code == 0
        results = report["results"]
        assert results["values"] == [0, 1, 5]
        assert results["limit"]["rational"] == "1/3"
        assert results["convergence_constant"] == 8
        assert results["normalized"][2]["rational"] == "5/16"

    def test_characteristic_bit_cap(self, capsys):
        # 2^40 - 87 is the largest 40-bit prime; 2^40 is refused before the primality test
        argv = ["function", "--family", "a:7,3", "--max-n", "0", "--prime"]
        code, report, _ = run_json(capsys, argv + [str(2**40 - 87)])
        assert code == 0
        assert report["results"]["values"] == [0]
        code, report, err = run_json(capsys, argv + [str(2**40)])
        assert (code, report) == (1, None)
        assert err == f"error: characteristic {2**40} has 41 bits, over 40\n"

    def test_tower_bit_cap(self, capsys):
        # 2^32 - 5 is a 32-bit prime: 128 steps reach the 4096-bit cap
        argv = ["function", "--family", "a:7,3", "--prime", str(2**32 - 5), "--max-n"]
        code, report, _ = run_json(capsys, argv + ["128"])
        assert code == 0
        assert len(report["results"]["values"]) == 129
        code, report, err = run_json(capsys, argv + ["129"])
        assert (code, report) == (1, None)
        assert err == f"error: q = {2**32 - 5}^129 needs up to 4128 bits, over 4096\n"

    def test_unprintable_counts_refused_before_counting(self, capsys, tmp_path):
        # the count at q = 2^2048 has about 4430 digits, over the 4300-digit print limit
        doc = {"cone": {"rays": [[1, 0], [0, 1]]}, "generators": [[10**1600, 0], [0, 10**1600]]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        argv = ["function", "--file", str(path), "--prime", "2", "--max-n"]
        start = time.perf_counter()
        code, report, err = run_json(capsys, argv + ["2048"])
        assert time.perf_counter() - start < 0.5
        assert (code, report) == (1, None)
        assert err == (
            "error: gap counts up to q = 2^2048 may pass 4300 digits, "
            "the limit for printing an integer\n"
        )
        code, report, _ = run_json(capsys, argv + ["10"])
        assert code == 0
        assert report["results"]["values"][0] == 10**3200

    def test_counts_past_the_default_limit_print_with_the_limit_off(self, capsys, tmp_path):
        # the count at q = 1 is 10^4400, 4401 digits
        doc = {"cone": {"rays": [[1, 0], [0, 1]]}, "generators": [[10**2200, 0], [0, 10**2200]]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        argv = ["function", "--file", str(path), "--prime", "2", "--max-n", "0"]
        code, report, err = run_json(capsys, argv)
        assert (code, report) == (1, None)
        assert err == (
            "error: gap counts up to q = 2^0 may pass 4300 digits, "
            "the limit for printing an integer\n"
        )
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, report, _ = run_json(capsys, argv)
            assert code == 0
            assert report["results"]["values"][0] == 10**4400
        finally:
            sys.set_int_max_str_digits(limit)

    def test_tower_builds_one_ideal(self, capsys, monkeypatch):
        # only the family ideal: every bracket power up to 2^40 is counted off its corners
        original, built = MonomialIdeal.__init__, []

        def counted(self, *args):
            built.append(self)
            original(self, *args)

        monkeypatch.setattr(MonomialIdeal, "__init__", counted)
        code, report, _ = run_json(
            capsys, ["function", "--family", "a:7,3", "--prime", "2", "--max-n", "40"]
        )
        assert code == 0
        assert len(report["results"]["values"]) == 41
        assert len(built) == 1

    def test_composite_characteristic_fails(self, capsys):
        code, report, err = run_json(
            capsys,
            ["function", "--family", "veronese:3,1", "--prime", "4", "--max-n", "2"],
        )
        assert code == 1
        assert report is None
        assert "error" in err


class TestSplitCommand:
    def test_values(self, capsys):
        code, report, _ = run_json(
            capsys, ["split", "--family", "a:3,1", "--q", "3"]
        )
        assert code == 0
        results = report["results"]
        assert (results["total_gap"], results["sym_vs_ord"], results["ord_vs_frob"]) == (
            6,
            3,
            3,
        )
        assert results["additive"] is True

    def test_not_saturated_is_input_error(self, capsys):
        code, report, err = run_json(
            capsys, ["split", "--family", "quadrant:(2,0);(0,3)", "--q", "2"]
        )
        assert code == 1
        assert report is None
        assert "saturated" in err

    def test_bad_q(self, capsys):
        code, _, _ = run_json(capsys, ["split", "--family", "a:3,1", "--q", "0"])
        assert code == 1

    def test_q_beyond_work_cap_is_input_error(self, capsys):
        # the 5000th power of eight generators would run for minutes
        code, report, err = run_json(
            capsys, ["split", "--family", "veronese:9,7", "--q", "5000"]
        )
        assert code == 1
        assert report is None
        assert "power 5000 needs about" in err


class TestPowersCommand:
    def test_torsion_and_fit(self, capsys):
        code, report, _ = run_json(
            capsys, ["powers", "--family", "a:3,1", "--max-n", "21"]
        )
        assert code == 0
        results = report["results"]
        assert results["values"][:4] == [0, 1, 3, 5]
        torsion = results["torsion"]
        assert torsion["order"] == 3
        assert torsion["shift"] == [3, -1]
        assert torsion["newton_multiplicity"] == 6
        assert torsion["predicted_leading"]["rational"] == "1/3"
        fit = results["fit"]
        assert fit["period"] == 3
        for cls in fit["classes"]:
            assert cls["coefficients"][0]["rational"] == "1/3"

    def test_explicit_period_on_unsaturated_input(self, capsys):
        code, report, _ = run_json(
            capsys,
            [
                "powers",
                "--family",
                "quadrant:(1,0);(0,2)",
                "--max-n",
                "8",
                "--period",
                "1",
            ],
        )
        assert code == 0
        results = report["results"]
        assert "torsion" not in results
        assert results["fit"]["classes"][0]["coefficients"][0]["rational"] == "1"

    def test_too_few_values_for_the_torsion_period_leave_out_the_fit(self, capsys):
        # the default period is the torsion order, 7, whose fit needs 49 values;
        # asked for by --period, the same fit is still refused
        argv = ["powers", "--family", "a:7,3", "--max-n", "8"]
        code, report, err = run_json(capsys, argv)
        assert code == 0
        results = report["results"]
        assert results["values"] == [0, 3, 7, 13, 21, 30, 42, 54]
        assert results["torsion"]["order"] == 7 and "fit" not in results
        assert err.endswith("\nno fit: period 7 needs at least 49 values, got 8\n")
        code, report, err = run_json(capsys, [*argv, "--period", "7"])
        assert (code, report, err) == (1, None, "error: need at least 49 entries to fit period 7\n")

    def test_max_n_beyond_work_cap_is_input_error(self, capsys):
        code, report, err = run_json(
            capsys, ["powers", "--family", "veronese:9,7", "--max-n", "5000"]
        )
        assert code == 1
        assert report is None
        assert "power 5000 needs about" in err

    def test_one_run_powers_and_torsion_power_run_no_dp(self, capsys, monkeypatch):
        # veronese:9,7 is one run, so its gap lengths are counted off the dilated
        # runs and its I^9 is written down, with no DP and no levels
        original, calls = ideals._power_levels, []

        def counted(corners, n):
            calls.append(n)
            return original(corners, n)

        monkeypatch.setattr(ideals, "_power_levels", counted)
        code, report, _ = run_json(
            capsys, ["powers", "--family", "veronese:9,7", "--max-n", "63"]
        )
        assert code == 0
        assert report["results"]["torsion"]["order"] == 9
        assert calls == []

    def test_non_run_torsion_power_is_a_second_dp(self, capsys, monkeypatch, tmp_path):
        # the gap lengths run the DP over all corners to 49 and keep no levels; I^7 is not
        # one run, so the torsion factorization builds it by a second, small DP
        ideal = non_run_ideal()
        doc = {
            "cone": {"rays": [list(ideal.cone.ray1), list(ideal.cone.ray2)]},
            "generators": [list(g) for g in ideal.gens],
        }
        path = tmp_path / "non_run.json"
        path.write_text(json.dumps(doc))
        original, calls = ideals._power_levels, []

        def counted(corners, n):
            calls.append(n)
            return original(corners, n)

        monkeypatch.setattr(ideals, "_power_levels", counted)
        code, report, _ = run_json(capsys, ["powers", "--file", str(path), "--max-n", "49"])
        assert code == 0
        assert report["results"]["torsion"]["order"] == 7
        assert calls == [49, 7]

    def test_gap_lengths_build_no_ideal_per_power(self, capsys, monkeypatch):
        # the family ideal, its torsion power I^9 and the shifted primary ideal
        original, built = MonomialIdeal.__init__, []

        def counted(self, *args):
            built.append(self)
            original(self, *args)

        monkeypatch.setattr(MonomialIdeal, "__init__", counted)
        code, report, _ = run_json(
            capsys, ["powers", "--family", "veronese:9,7", "--max-n", "63"]
        )
        assert code == 0
        assert len(report["results"]["values"]) == 63
        assert len(built) <= 3

    def test_one_run_refusal_follows_the_dp_estimate(self, capsys):
        # one-run gap lengths build no levels, yet are refused where the DP would be
        code, report, _ = run_json(capsys, ["powers", "--family", "veronese:9,7", "--max-n", "264"])
        assert code == 0
        assert len(report["results"]["values"]) == 264
        code, report, err = run_json(capsys, ["powers", "--family", "veronese:9,7", "--max-n", "265"])
        assert (code, report) == (1, None)
        assert err == "error: power 265 needs about 1003820 DP steps, over 1000000\n"

    def test_large_index_torsion_order_costs_one_power(self, capsys, tmp_path):
        # torsion order 2000003: refused by the power work cap, with no search up to it
        doc = {"cone": {"rays": [[1, 0], [1, 2000003]]}, "generators": [[1, 0], [1, 1], [2, 1]]}
        path = tmp_path / "index.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, report, err = run_json(capsys, ["powers", "--file", str(path), "--max-n", "5"])
        assert time.perf_counter() - start < 0.5
        assert (code, report) == (1, None)
        assert err == "error: power 2000003 needs about 16000024 DP steps, over 1000000\n"


class TestReptypeCommand:
    def test_flags(self, capsys):
        code, report, _ = run_json(capsys, ["reptype", "--r", "3", "--u", "1,0"])
        assert code == 0
        assert report["results"]["eghk"]["rational"] == "2/3"
        assert report["results"]["weights"][0]["rational"] == "1/3"

    def test_custom_weights(self, capsys):
        code, report, _ = run_json(
            capsys, ["reptype", "--r", "3", "--u", "1,1", "--v", "1/2,1/2"]
        )
        assert code == 0
        assert report["results"]["eghk"]["rational"] == "2"

    def test_file_with_table(self, capsys, tmp_path):
        doc = {
            "reptype": {
                "table": [[1, 1], [1, 1]],
                "multiplicities": [1, 0],
                "weights": ["1/3", "1/3"],
            }
        }
        path = tmp_path / "mods.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_json(capsys, ["reptype", "--file", str(path)])
        assert code == 0
        assert report["results"]["eghk"]["rational"] == "2/3"

    def test_asymmetric_table_rejected(self, capsys, tmp_path):
        doc = {"reptype": {"table": [[1, 2], [3, 1]], "multiplicities": [1, 0],
                           "weights": ["1", "1"]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, report, err = run_json(capsys, ["reptype", "--file", str(path)])
        assert code == 1
        assert "differ" in err

    def test_missing_arguments(self, capsys):
        code, _, _ = run_json(capsys, ["reptype", "--r", "3"])
        assert code == 1

    def test_index_cap(self, capsys):
        code, report, _ = run_json(capsys, ["reptype", "--r", "1000", "--u", "1" + ",0" * 998])
        assert code == 0
        assert report["results"]["dim"] == 999
        code, report, err = run_json(capsys, ["reptype", "--r", "1001", "--u", "1"])
        assert (code, report) == (1, None)
        assert err == "error: index r = 1001 is over 1000\n"

    def test_dimension_mismatch(self, capsys):
        code, _, _ = run_json(capsys, ["reptype", "--r", "5", "--u", "1,0"])
        assert code == 1

    @pytest.mark.parametrize("r", [0, 1, -3])
    def test_index_below_two_rejected_next_to_a_table(self, capsys, tmp_path, r):
        # the default weights 1 / r divided by zero at r = 0 and exited 2
        code, report, flag_err = run_json(capsys, ["reptype", "--r", "1", "--u", "1"])
        assert (code, report) == (1, None)
        path = tmp_path / "mods.json"
        path.write_text(json.dumps({"reptype": {"r": r, "table": [[1]], "multiplicities": [1]}}))
        code, report, err = run_json(capsys, ["reptype", "--file", str(path)])
        assert (code, report) == (1, None)
        assert err == flag_err == "error: index r must be at least 2\n"


class TestVerifyCommand:
    def test_family_passes(self, capsys):
        code, report, err = run_json(capsys, ["verify", "--family", "a:4,1"])
        assert code == 0
        assert report["results"]["all_passed"] is True
        names = {c["name"] for c in report["results"]["checks"]}
        assert "saturation-oracle" in names
        assert "gap-split-additivity" in names
        assert "PASS saturation-oracle" in err

    def test_unsaturated_input_still_verifies(self, capsys):
        code, report, _ = run_json(
            capsys, ["verify", "--family", "quadrant:(2,0);(0,3)"]
        )
        assert code == 0
        assert report["results"]["all_passed"] is True


    def test_failed_suite_prints_the_report_and_exits_1(self, capsys, monkeypatch):
        # a suite that raises a GhkError other than BadParameters fails; the report and
        # summary still print
        def failing(ideal):
            raise NotMPrimary("planted failure")

        monkeypatch.setattr(checks, "torsion_factorization", failing)
        code, report, err = run_json(capsys, ["verify", "--family", "veronese:9,7"])
        assert code == 1
        assert report["command"] == "verify"
        assert report["results"]["all_passed"] is False
        failed = [c["name"] for c in report["results"]["checks"] if not c["passed"]]
        assert failed == ["torsion-roundtrip"]
        assert "FAIL torsion-roundtrip: NotMPrimary: planted failure" in err
        assert err.endswith("9/10 suites passed\n")

    @pytest.mark.parametrize(
        "fast",
        [
            lambda ideal, p: True,
            lambda ideal, p: ideal.cone.corner(p)[0] >= ideal.thresholds[0],
        ],
        ids=["always-inside", "ignores-t"],
    )
    def test_wrong_threshold_test_fails_the_saturation_suite(self, capsys, monkeypatch, fast):
        # the oracle is the slow side of the suite: a wrong fast side must not pass it
        monkeypatch.setattr(checks, "threshold_membership", fast)
        code, report, err = run_json(capsys, ["verify", "--family", "a:7,3"])
        assert code == 1
        assert report["results"]["all_passed"] is False
        failed = [c["name"] for c in report["results"]["checks"] if not c["passed"]]
        assert failed == ["saturation-oracle"]
        assert "FAIL saturation-oracle: oracle disagrees at" in err

    def test_large_index_finishes(self, capsys, tmp_path):
        # index 6401: the box scans of the oracle used to take minutes here
        doc = {"cone": {"rays": [[1, 0], [1, 6401]]}, "generators": [[1, 0], [1, 1], [2, 1]]}
        path = tmp_path / "index.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_json(capsys, ["verify", "--file", str(path)])
        assert code == 0
        assert report["results"]["all_passed"] is True

    def test_scan_work_cap_refuses_before_any_suite(self, capsys, tmp_path):
        doc = {"cone": {"rays": [[1, 0], [1, 2000003]]}, "generators": [[1, 0], [1, 1], [2, 1]]}
        path = tmp_path / "index.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, report, err = run_json(capsys, ["verify", "--file", str(path)])
        assert time.perf_counter() - start < 1
        assert (code, report) == (1, None)
        assert err == "error: verify needs about 32000220 scan steps, over 1000000\n"


    def test_skewed_cone_scans_rows(self, capsys, tmp_path):
        # normals with a large y-component: a column scan would walk millions of empty lines
        doc = {"cone": {"rays": [[1, 0], [1000000, 1]]}, "generators": [[1, 0], [1000001, 1]]}
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, report, err = run_json(capsys, ["verify", "--file", str(path)])
        assert time.perf_counter() - start < 1
        assert code == 0
        assert report["results"]["all_passed"] is True
        assert err.endswith("input: 10/10 suites passed\n")


class TestPrintLimit:
    """Numbers past the interpreter's int-to-str digit limit are bad input."""

    LIMIT = "error: a number to print passes the 4300-digit limit\n"

    @pytest.fixture
    def huge(self, tmp_path):
        # the gap area is 10^4400 / 2, a numerator of 4400 digits
        doc = {"cone": {"rays": [[1, 0], [0, 1]]}, "generators": [[10**2200, 0], [0, 10**2200]]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_eghk_exits_1(self, capsys, huge):
        code = run_command(["eghk", "--file", huge])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", self.LIMIT)

    def test_plot_exits_1_without_writing(self, capsys, huge, tmp_path):
        svg = tmp_path / "huge.svg"
        code = run_command(["plot", "--file", huge, "--out", str(svg)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", self.LIMIT)
        assert not svg.exists()

    def test_long_integer_literal_exits_1(self, capsys, tmp_path):
        path = tmp_path / "literal.json"
        literal = "1" * 4400
        path.write_text('{"cone": {"rays": [[1, 0], [0, 1]]}, "generators": [[%s, 0]]}' % literal)
        code = run_command(["eghk", "--file", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path} is not valid JSON: Exceeds the limit (4300 digits)")


OPTION_STRINGS = sorted({flag for _, options in cli._COMMANDS.values() for flag in options})
WELL_FORMED_VALUES = {
    int: ("2", "7", "40", " 7 ", "1_0", "+3", "\u0663"),
    str: ("a:3,1", "veronese:3,1", "input.json", "", "a b", "=", "2"),
}
# well-formed values, and every kind the reader must leave to argparse
ARGV_VALUES = (
    *WELL_FORMED_VALUES[int], *WELL_FORMED_VALUES[str],
    "-3", "-1,0", "x", "1.5", "0x10", "- 1", "--", "-h",
)
ARGV_NOISE = st.one_of(
    st.sampled_from([*cli._COMMANDS, "eg", "verif", "help", "-h", "--help", "--"]),
    st.sampled_from(OPTION_STRINGS),
    st.sampled_from(OPTION_STRINGS).map(lambda flag: flag[:-1]),  # abbreviations
    st.builds("{}={}".format, st.sampled_from(OPTION_STRINGS), st.sampled_from(ARGV_VALUES)),
    st.sampled_from(ARGV_VALUES),
    st.text(max_size=3),
)


@st.composite
def command_argv(draw) -> tuple[list[str], bool]:
    """An argv of one command and whether it is well-formed.

    It starts well-formed: the command, each required option once, one of
    --family and --file where the command takes them, some optional
    options, valid values, in any order.  Up to two edits then insert,
    replace or delete a token, or append an option and a value.
    """
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[name][1]
    optional = [f for f, o in options.items() if not o.required and not o.group]
    grouped = [f for f, o in options.items() if o.group]
    flags = [f for f, o in options.items() if o.required]
    flags += draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []
    flags += [draw(st.sampled_from(grouped))] if grouped else []
    argv = [name]
    for flag in draw(st.permutations(flags)):
        argv += [flag, draw(st.sampled_from(WELL_FORMED_VALUES[options[flag].type]))]
    edits = draw(st.integers(0, 2))
    for _ in range(edits):
        edit = draw(st.sampled_from(("insert", "replace", "delete", "append")))
        i = draw(st.integers(0, len(argv) - (edit != "insert")))
        if edit == "insert":
            argv.insert(i, draw(ARGV_NOISE))
        elif edit == "replace":
            argv[i] = draw(ARGV_NOISE)
        elif edit == "delete":
            del argv[i]
        else:
            argv += [draw(st.sampled_from(OPTION_STRINGS)), draw(st.sampled_from(ARGV_VALUES))]
        if not argv:
            break
    return argv, edits == 0


class TestArgvReader:
    @pytest.fixture(scope="class")
    def parser(self):
        return cli.build_parser()

    @seed(1815)
    @settings(max_examples=500, deadline=None)
    @given(case=command_argv())
    def test_reads_as_argparse_or_defers(self, parser, case):
        # an argv the reader leaves alone goes to argparse, which reads it or refuses it
        argv, well_formed = case
        args = cli._read_argv(argv)
        assert args is not None or not well_formed
        if args is not None:
            assert args == parser.parse_args(argv)


class TestDispatch:
    def test_parser_built_only_for_argv_left_to_argparse(self, capsys, monkeypatch):
        built = []
        original = cli.build_parser

        def counting():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        for argv in (
            ["eghk", "--family", "a:3,1"],
            ["function", "--family", "a:3,1", "--prime", "2", "--max-n", "2"],
            ["split", "--family", "a:3,1", "--q", "2"],
            ["reptype", "--r", "3", "--u", "1,0"],
            ["eghk", "--family", "mystery:1"],
        ):
            run_command(argv)
        assert built == []
        with pytest.raises(SystemExit):
            run_command(["eghk"])
        capsys.readouterr()
        assert built == [1]

    def test_command_replaced_after_first_call_is_dispatched(self, capsys, monkeypatch):
        assert run_command(["eghk", "--family", "a:3,1"]) == 0
        capsys.readouterr()
        seen = []

        def replaced(instance, args):
            seen.append((instance.label, args.family))
            return {"replaced": True}, ["replaced"]

        monkeypatch.setattr(cli, "_cmd_eghk", replaced)
        code, report, err = run_json(capsys, ["eghk", "--family", "a:5,2"])
        assert code == 0
        assert report == {
            "command": "eghk", "input": {"family": "a:5,2"}, "results": {"replaced": True}
        }
        assert err == "replaced\n"
        assert seen == [("a:5,2", "a:5,2")]


GOOD_DOCUMENT = b'{"cone": {"rays": [[1, 0], [1, 3]]}, "generators": [[1, 0], [1, 1]]}'
NOT_JSON = "doc.json is not valid JSON"


class TestErrorMapping:
    def test_unknown_family(self, capsys):
        code, report, err = run_json(capsys, ["eghk", "--family", "mystery:1"])
        assert code == 1
        assert report is None
        assert "error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_json(capsys, ["eghk", "--file", str(tmp_path / "no.json")])
        assert code == 1
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_json(capsys, ["eghk", "--file", str(path)])
        assert code == 1
        assert "JSON" in err

    def test_bad_document_shape(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"cone": {"rays": [[1, 0]]}, "generators": [[1, 1]]}))
        code, _, err = run_json(capsys, ["eghk", "--file", str(path)])
        assert code == 1
        assert "two rays" in err

    def test_collinear_rays_in_document(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        for rays, message in [
            # the rays as given, not as reduced to primitive vectors
            ([[1, 0], [2, 0]], "rays (1, 0) and (2, 0) are collinear"),
            ([[1, 2], [-2, -4]], "rays (1, 2) and (-2, -4) are collinear"),
            ([[0, 0], [1, 0]], "zero vector cannot span a cone"),
        ]:
            path.write_text(json.dumps({"cone": {"rays": rays}, "generators": [[1, 2]]}))
            code, report, err = run_json(capsys, ["eghk", "--file", str(path)])
            assert (code, report, err) == (1, None, f"error: {message}\n")

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"cone": {"rays": [[1, 0], [1, 3]]}, "generators": [[3.9, -1], [1.2, 0.7]]},
             "generators"),
            ({"cone": {"rays": [[1, 0], [1, 3]]}, "generators": [[True, 1]]}, "generators"),
            ({"cone": {"rays": [[1.0, 0], [1, 3]]}, "generators": [[1, 1]]}, "cone.rays"),
            ({"reptype": {"r": 3.7, "multiplicities": [1, 0]}}, '"r"'),
            ({"reptype": {"r": True, "multiplicities": [1, 0]}}, '"r"'),
            ({"reptype": {"r": 3, "multiplicities": [1.5, True]}}, "multiplicities"),
            ({"reptype": {"table": [[1, 1], [1, 1.0]], "multiplicities": [1, 0],
                          "weights": ["1/3", "1/3"]}}, "table row"),
            # a string or an object is not a list, though iterating it yields entries
            ({"reptype": {"r": 3, "multiplicities": "11"}}, "multiplicities"),
            ({"reptype": {"r": 3, "multiplicities": {"1": 0, "2": 0}}}, "multiplicities"),
            ({"reptype": {"table": ["11", "11"], "multiplicities": [1, 1],
                          "weights": ["1", "1"]}}, "table"),
            ({"reptype": {"table": [[1]], "multiplicities": "1", "weights": ["1"]}},
             "multiplicities"),
            ({"reptype": {"r": 3, "multiplicities": [1, 1], "weights": "12"}}, "weights"),
            ({"reptype": {"table": [[1]], "multiplicities": [1], "weights": None}},
             "weights"),
        ],
    )
    def test_non_integer_document_values_rejected(self, capsys, tmp_path, doc, field):
        # int() would silently truncate 3.9 to 3 and read true as 1
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        command = "reptype" if "reptype" in doc else "eghk"
        code, report, err = run_json(capsys, [command, "--file", str(path)])
        assert code == 1
        assert report is None
        assert field in err

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (["eghk"], [[1, 0], [0, 1]], "doc.json must contain a JSON object"),
            (["eghk"], {"generators": [[1, 0]]},
             'input document needs "cone" and "generators" keys'),
            (["eghk"], {"cone": {"rays": [[1, 0], [0, 1]]}},
             'input document needs "cone" and "generators" keys'),
            (["eghk"], {"cone": {"ray": [[1, 0], [0, 1]]}, "generators": [[1, 0]]},
             '"cone" must be an object with a "rays" key'),
            (["eghk"], {"label": 7, "cone": {"rays": [[1, 0], [0, 1]]}, "generators": [[1, 0]]},
             '"label" must be a string'),
            (["eghk"], {"cone": {"rays": [[1, 0], [0, 1, 2]]}, "generators": [[1, 0]]},
             "cone.rays entries must be [x, y] integer pairs, got [0, 1, 2]"),
            (["eghk"], {"cone": {"rays": [[1, 0], [0, 1]]}, "generators": [[1, 0], 5]},
             "generators entries must be [x, y] integer pairs, got 5"),
            (["reptype"], {"cone": {"rays": [[1, 0], [0, 1]]}},
             'input document needs a "reptype" object'),
            (["reptype"], {"reptype": {"multiplicities": [1]}},
             'reptype needs "r" or an explicit "table"'),
            (["reptype"], {"reptype": {"r": 3}}, 'reptype needs "multiplicities"'),
            (["reptype"], {"reptype": {"table": [[1]], "multiplicities": [1]}},
             'reptype needs "weights" when no "r" is given'),
            (["plot", "--out", "out.svg", "--q-mark", "0"],
             {"cone": {"rays": [[1, 0], [1, 3]]}, "generators": [[1, 0], [1, 1]]},
             "q_mark must be a positive integer"),
            # one gap rectangle of 99 dots, 10^7 lines long on both sides
            (["plot", "--out", "out.svg"],
             {"cone": {"rays": [[1, 0], [1000001, 10**12]]},
              "generators": [[999991, 999990000000], [1000001, 10**12]]},
             "q_mark 1 would walk 10000000 lines to place its gap dots, over 100000"),
        ],
    )
    def test_refusal_names_its_field(self, capsys, tmp_path, monkeypatch, argv, doc, message):
        monkeypatch.chdir(tmp_path)
        Path("doc.json").write_text(json.dumps(doc))
        code = run_command([argv[0], "--file", "doc.json", *argv[1:]])
        assert (code, *capsys.readouterr()) == (1, "", f"error: {message}\n")
        assert not Path("out.svg").exists()

    @pytest.mark.parametrize(
        "argv, data, message",
        [
            # json.load refuses these, and the message ends in its words
            (["eghk"], b"\xef\xbb\xbf" + GOOD_DOCUMENT, NOT_JSON),
            (["eghk"], GOOD_DOCUMENT.decode().encode("utf-16"), NOT_JSON),
            (["eghk"], b'{"label": "ab\xff", "cone": {"rays": [[1, 0], [1, 3]]}}', NOT_JSON),
            (["eghk"], GOOD_DOCUMENT[:-1] + b', "label": "\xc3\x28"}', NOT_JSON),
            # positions are counted after \r\n and \r become \n, as text mode reads them
            (["eghk"],
             b'{\r\n  "cone": {"rays": [[1, 0], [1, 3]]},\r\n  "generators": [[1, 0], [1, 1]],'
             b'\r\n  "label": "x"\r\n  oops\r\n}\r\n',
             NOT_JSON),
            (["eghk"],
             b'{\r  "cone": {"rays": [[1, 0], [1, 3]]},\r  "generators": [[1, 0], [1, 1]]\r  ]\r}',
             NOT_JSON),
            (["reptype"], b'{"reptype":\r\n {"r": 3,\r\n "multiplicities": [1, 0,]}}', NOT_JSON),
            (["eghk"], b"", NOT_JSON),
            (["eghk"], b" \r\n\t", NOT_JSON),
            # json.load reads these, and ghk writes the message
            (["eghk"],
             b'{"cone": {"rays": [[1, 0], [1, 3]]}, "generators": [[1, 0], [false, 1]]}',
             "generators entries must be [x, y] integer pairs, got [False, 1]"),
            (["eghk"], b'{"cone": {"rays": [[1, 0], [1, 3]]}, "generators": [[1.0, 0]]}',
             "generators entries must be [x, y] integer pairs, got [1.0, 0]"),
            (["eghk"], b'{"cone": {"rays": [[1, 0], [1, 3]]}, "generators": [["1", "x"]]}',
             "generators entries must be [x, y] integer pairs, got ['1', 'x']"),
            (["eghk"], b'{"cone": {"rays": [[1, 0], [1, 3]]}, "generators": ["1,0"]}',
             "generators entries must be [x, y] integer pairs, got '1,0'"),
            (["function", "--prime", "2", "--max-n", "1"],
             b'{"cone": {"rays": [[1, 0], [1, 3e0]]}, "generators": [[1, 0]]}',
             "cone.rays entries must be [x, y] integer pairs, got [1, 3.0]"),
            (["reptype"], b'{"reptype": {"r": false, "multiplicities": [1, 0]}}',
             '"r" must be an integer, got False'),
        ],
    )
    def test_document_bytes_read_as_in_text_mode(
        self, capsys, tmp_path, monkeypatch, argv, data, message
    ):
        # a JSON or UTF-8 error reads as json.load gives it on the file opened in text
        # mode, on the running interpreter: 3.13 words some of them unlike 3.11
        monkeypatch.chdir(tmp_path)
        Path("doc.json").write_bytes(data)
        try:
            with open("doc.json", encoding="utf-8") as fh:
                json.load(fh)
        except ValueError as exc:
            message = f"{message}: {exc}"
        code = run_command([argv[0], "--file", "doc.json", *argv[1:]])
        assert (code, *capsys.readouterr()) == (1, "", f"error: {message}\n")

    def test_crlf_document_reads_as_lf(self, capsys, tmp_path, monkeypatch):
        # the label's escaped \r\n is kept; the line ends around it are not
        monkeypatch.chdir(tmp_path)
        lines = [b"{", b'  "label": "two\\r\\nlines",', b'  "cone": {"rays": [[1, 0], [1, 3]]},',
                 b'  "generators": [[1, 0], [1, 1]]', b"}", b""]
        outputs = []
        for end in (b"\n", b"\r\n", b"\r"):
            Path("doc.json").write_bytes(end.join(lines))
            outputs.append((run_command(["eghk", "--file", "doc.json"]), *capsys.readouterr()))
        assert outputs[0][2] == "two\r\nlines: e_gHK = 1/3 = 0.333333333333\n"
        assert outputs == [outputs[0]] * 3

    def test_integer_strings_still_accepted(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"cone": {"rays": [["1", 0], [1, "3"]]},
                                    "generators": [["1", "0"], [1, 1]]}))
        code, report, _ = run_json(capsys, ["eghk", "--file", str(path)])
        assert code == 0
        assert report["results"]["eghk"]["rational"] == "1/3"
        path.write_text(json.dumps({"reptype": {"r": "3", "multiplicities": ["1", 0]}}))
        code, report, _ = run_json(capsys, ["reptype", "--file", str(path)])
        assert code == 0
        assert report["results"]["eghk"]["rational"] == "2/3"

    def test_unwritable_plot_output_is_input_error(self, capsys, tmp_path):
        out = tmp_path / "missing-dir" / "x.svg"
        code, report, err = run_json(
            capsys, ["plot", "--family", "a:3,1", "--out", str(out)]
        )
        assert code == 1
        assert report is None
        assert f"cannot write {out}" in err
        assert "internal error" not in err

    def test_contract_violation_maps_to_internal_error(self, capsys, monkeypatch):
        def boom(ideal):
            raise ContractViolation("boom")

        monkeypatch.setattr("ghk.cli.eghk", boom)
        code, report, err = run_json(capsys, ["eghk", "--family", "a:3,1"])
        assert code == 2
        assert report is None
        assert "internal error" in err

    def test_unexpected_exception_maps_to_internal_error(self, capsys, monkeypatch):
        def boom(ideal, q_mark=None):
            raise RuntimeError("surprise")

        monkeypatch.setattr("ghk.cli.render_region_svg", boom)
        code, _, err = run_json(
            capsys, ["plot", "--family", "a:3,1", "--out", "/tmp/unused.svg"]
        )
        assert code == 2
        assert "internal error" in err


class TestEntryPoint:
    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ghk", "eghk", "--family", "veronese:3,1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["eghk"]["rational"] == "1/3"

    @pytest.mark.parametrize(
        "argv",
        [[], ["eghk"], ["mystery"], ["eghk", "--family", "a:3,1", "--bogus"]],
        ids=["no-command", "no-input", "unknown-command", "unknown-option"],
    )
    def test_usage_errors_exit_1(self, argv, capsys, monkeypatch):
        # exit 2 means an internal error; argparse's own error() exits 2
        proc = subprocess.run(
            [sys.executable, "-m", "ghk", *argv], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
        with pytest.raises(SystemExit) as stock:
            run_command(argv)
        assert stock.value.code == 2
        assert proc.stderr == capsys.readouterr().err

    def test_console_script_runs_the_declared_entry(self):
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"ghk": "ghk.cli:main"}
        module, name = scripts["ghk"].split(":")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        argv = ["ghk", "eghk", "--family", "a:3,1"]
        for extra, code in (([], 0), (["--bogus"], 1)):
            # what the installed wrapper script does: import the callable, exit with it
            script = f"import sys\nfrom {module} import {name}\nsys.argv = {argv + extra!r}\n"
            script += f"sys.exit({name}())\n"
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=60,
            )
            assert proc.returncode == code, proc.stderr
            if code:
                assert proc.stdout == ""
            else:
                assert json.loads(proc.stdout)["results"]["eghk"]["rational"] == "2/3"

    def test_import_loads_no_code_generation_modules(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        # only what the import adds: site may load some of these before it
        code = "import sys; old = set(sys.modules); import ghk.cli; print(*set(sys.modules) - old)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "ghk.cli" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})

    def test_help_exits_0(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ghk", "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: ghk")
