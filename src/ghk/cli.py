"""Command line interface.

Every subcommand prints one JSON report document on stdout (machine
readable, keys sorted, exact rationals as {"rational", "decimal"}
pairs) and a short human summary on stderr.  Results hold each rational
as its Fraction; fmt alone knows how it prints, in the report and, with
exact_decimal, in a summary line.  Exit codes: 0 on success,
1 for invalid input or a data-dependent failure, 2 for an internal
error.  The verify subcommand also exits 1 when some property suite
fails.

Every request takes one path, run_command.  It first reads argv with
_read_argv, from the one table of subcommands and their options,
_COMMANDS.  That reader takes only well-formed argv: a command, then
each of its options at most once, by its exact long string, with a
value.  Anything else (--help, abbreviations, --opt=value, negative
numbers, every usage error) goes to the argparse parser that
build_parser makes from the same table, built only for such argv;
argparse prints help and usage errors, and usage errors exit 1, not
argparse's 2.  The load step then reads and checks every input field:
the toric instance, or for reptype the index, table, multiplicities and
weights.  run_command then calls _cmd_<name>, which only computes and
returns the results and the summary lines, prints the report and the
summary, and picks the exit code.
"""

import argparse
import json
import os
import stat
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from .checks import run_instance_checks
from .errors import BadParameters, ContractViolation, GhkError, InputError, UnboundedRegion
from .families import ToricInstance, parse_family
from .fmt import exact_decimal, report_json
from .geometry import Cone2
from .ideals import is_saturated, new_ideal, ordinary_power, torsion_factorization
from .invariants import (
    convergence_constant,
    eghk,
    fit_quasi_polynomial,
    frobenius_gap_split,
    ghk_function,
    h0_powers,
    newton_multiplicity,
)
from .reptype import TorTable, a_tor_table, eghk_from_type
from .svgplot import render_region_svg


def _load_document(path: str) -> dict:
    # read whole as bytes: the same text, newlines translated, and the same
    # error messages as json.load on the file opened in text mode
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        doc = json.loads(text)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # malformed JSON, or an integer past the digit limit
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path} must contain a JSON object")
    return doc


def _read_list(value, read, what: str, kind: str) -> list:
    """The entries of the JSON list field what, each passed through read.

    The error names the field and the one entry that read refused, never
    the whole list, which may hold thousands of entries.
    """
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list of {kind}")
    entries = []
    for item in value:
        try:
            entries.append(read(item))
        except InputError:  # a nested list names itself
            raise
        except (TypeError, ValueError, ZeroDivisionError):
            raise InputError(f"{what} entries must be {kind}, got {item!r}") from None
    return entries


def _to_int(value) -> int:
    # only ints and integer strings: int() would truncate 3.9 and read true as 1
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(value)
    return int(value)


def _to_rational(value) -> Fraction:
    # ints and integer, "p/q" or decimal strings, never a bool or a float; no
    # exponent, since Fraction("1e100000000") builds a 10^8-digit power first
    if isinstance(value, str) and "e" in value.lower():
        raise ValueError(value)
    return Fraction(value if isinstance(value, str) else _to_int(value))


def _to_pair(value) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(value)
    return _to_int(value[0]), _to_int(value[1])


def _to_row(value) -> tuple[int, ...]:
    return tuple(_read_list(value, _to_int, "table row", "integers"))


def _toric_instance(args) -> tuple[ToricInstance, dict]:
    """The toric instance and its echo, from --family or --file."""
    if args.family is not None:
        return parse_family(args.family), {"family": args.family}
    doc = _load_document(args.file)
    if "cone" not in doc or "generators" not in doc:
        raise InputError('input document needs "cone" and "generators" keys')
    cone_doc = doc["cone"]
    if not isinstance(cone_doc, dict) or "rays" not in cone_doc:
        raise InputError('"cone" must be an object with a "rays" key')
    rays = _read_list(cone_doc["rays"], _to_pair, "cone.rays", "[x, y] integer pairs")
    if len(rays) != 2:
        raise InputError("cone.rays must list exactly two rays")
    gens = _read_list(doc["generators"], _to_pair, "generators", "[x, y] integer pairs")
    cone = Cone2.from_rays(*rays)
    ideal = new_ideal(cone, gens)
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError('"label" must be a string')
    return ToricInstance(label or "input", ideal), doc


def _reptype_input(args) -> tuple[tuple, dict]:
    """(r, table, multiplicities, weights) and the echo, from --file or --r, --u and --v.

    r is None when the section gives only a table.
    """
    if args.file is not None:
        echo = _load_document(args.file)
        section = echo.get("reptype")
        if not isinstance(section, dict):
            raise InputError('input document needs a "reptype" object')
    else:
        if args.r is None or args.u is None:
            raise InputError("reptype needs either --file or both --r and --u")
        mults = _read_list(args.u.split(","), _to_int, "--u", "integers")
        section = {"r": args.r, "multiplicities": mults}
        if args.v is not None:
            section["weights"] = [w.strip() for w in args.v.split(",")]
        echo = {"reptype": section}
    r = section.get("r")
    if r is not None:
        try:
            r = _to_int(r)
        except ValueError:
            raise InputError(f'"r" must be an integer, got {r!r}') from None
        if r < 2:
            raise BadParameters("index r must be at least 2")
    if "table" in section:
        rows = _read_list(section["table"], _to_row, "table", "lists of integers")
        table = TorTable(tuple(rows))
    elif r is not None:
        table = a_tor_table(r)
    else:
        raise InputError('reptype needs "r" or an explicit "table"')
    if "multiplicities" not in section:
        raise InputError('reptype needs "multiplicities"')
    mults = _read_list(section["multiplicities"], _to_int, "multiplicities", "integers")
    if "weights" in section:
        kind = 'integers or "p/q" strings'
        weights = _read_list(section["weights"], _to_rational, "weights", kind)
    elif r is not None:
        weights = [Fraction(1, r)] * table.dim
    else:
        raise InputError('reptype needs "weights" when no "r" is given')
    return (r, table, mults, weights), echo


def _cmd_eghk(instance: ToricInstance, args) -> tuple[dict, list[str]]:
    ideal = instance.ideal
    value = eghk(ideal)
    c1, c2 = ideal.thresholds
    results = {
        "eghk": value,
        "thresholds": [c1, c2],
        "saturated": is_saturated(ideal),
        "det_abs": ideal.cone.det_abs,
    }
    if instance.closed_form is not None:
        results["closed_form"] = instance.closed_form
    return results, [f"{instance.label}: e_gHK = {value} = {exact_decimal(value)}"]


def _cmd_function(instance: ToricInstance, args) -> tuple[dict, list[str]]:
    ideal = instance.ideal
    values = ghk_function(ideal, args.prime, args.max_n)
    limit = eghk(ideal)
    normalized, q = [], 1
    for v in values:
        normalized.append(Fraction(v, q * q))
        q *= args.prime
    results = {
        "prime": args.prime,
        "values": values,
        "normalized": normalized,
        "limit": limit,
        "convergence_constant": convergence_constant(ideal),
    }
    return results, [
        f"{instance.label}: gap counts at q = {args.prime}^0 .. "
        f"{args.prime}^{args.max_n}: {values}",
        f"limit of count / q^2 is {limit} = {exact_decimal(limit)}",
    ]


def _cmd_split(instance: ToricInstance, args) -> tuple[dict, list[str]]:
    split = frobenius_gap_split(instance.ideal, args.q)
    results = {
        "q": args.q,
        "total_gap": split.total_gap,
        "sym_vs_ord": split.sym_vs_ord,
        "ord_vs_frob": split.ord_vs_frob,
        "additive": split.total_gap == split.sym_vs_ord + split.ord_vs_frob,
    }
    return results, [
        f"{instance.label}: q = {args.q}: total gap {split.total_gap} = "
        f"{split.sym_vs_ord} (ordinary) + {split.ord_vs_frob} (band)"
    ]


def _cmd_powers(instance: ToricInstance, args) -> tuple[dict, list[str]]:
    ideal = instance.ideal
    values = h0_powers(ideal, args.max_n)
    results: dict = {"values": values, "max_n": args.max_n}
    summary = [f"{instance.label}: power gap lengths {values[:12]}"]
    period = args.period
    if is_saturated(ideal):
        fact = torsion_factorization(ideal)
        newton = newton_multiplicity(fact.primary)
        predicted = Fraction(newton, 2 * fact.order * fact.order)
        results["torsion"] = {
            "order": fact.order,
            "shift": list(fact.shift),
            "primary_generators": [list(g) for g in fact.primary.gens],
            "newton_multiplicity": newton,
            "predicted_leading": predicted,
        }
        summary.append(
            f"torsion order {fact.order}, Newton multiplicity {newton}, "
            f"predicted leading coefficient {predicted}"
        )
        if period is None and len(values) < 7 * fact.order:
            summary.append(
                f"no fit: period {fact.order} needs at least {7 * fact.order} values, "
                f"got {len(values)}"
            )
        elif period is None:
            period = fact.order
    if period is not None:
        fit = fit_quasi_polynomial(values, period)
        results["fit"] = {
            "period": period,
            "onset": fit.onset,
            "classes": [
                {
                    "residue": c.residue,
                    "coefficients": c.coeffs,
                    "onset": c.onset,
                }
                for c in fit.classes
            ],
        }
        lead = ", ".join(str(c.coeffs[0]) for c in fit.classes)
        summary.append(f"quasi-polynomial of period {period}: leading {lead}")
    results["epsilon_estimate"] = Fraction(values[-1], args.max_n * args.max_n)
    return results, summary


def _cmd_reptype(source: tuple, args) -> tuple[dict, list[str]]:
    r, table, mults, weights = source
    value = eghk_from_type(mults, weights, table)
    results = {
        "eghk": value,
        "dim": table.dim,
        "multiplicities": mults,
        "weights": weights,
    }
    if r is not None:
        results["r"] = r
    return results, [f"module pairing gives e_gHK = {value} = {exact_decimal(value)}"]


def _cmd_verify(instance: ToricInstance, args) -> tuple[dict, list[str]]:
    checks = run_instance_checks(instance.ideal)
    results = {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    summary = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks]
    summary.append(
        f"{instance.label}: {sum(c.passed for c in checks)}/{len(checks)} suites passed"
    )
    return results, summary


def _cmd_plot(instance: ToricInstance, args) -> tuple[dict, list[str]]:
    ideal = instance.ideal
    data = render_region_svg(ideal, args.q_mark).encode("utf-8")
    # written over the old bytes, then cut to length: opening with O_TRUNC frees an
    # existing file's blocks first, which made rewriting a 100 B - 20 KB file take
    # 105-133 us against 9-16 us on an ext4 root mounted with discard; a device or FIFO
    # has no length to cut, and ftruncate raises EINVAL on it
    try:
        with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(data)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.ftruncate(fh.fileno(), len(data))
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from None
    q = args.q_mark or 1
    total = eghk(ideal)
    ordinary = eghk(ordinary_power(ideal, q)) / (q * q)
    results = {
        "out": args.out,
        "power_scale": q,
        "areas": {
            "total_gap": total,
            "ordinary_gap": ordinary,
            "band": total - ordinary,
        },
    }
    return results, [f"{instance.label}: wrote {args.out} (power scale {q})"]


class _Option(NamedTuple):
    dest: str
    type: type  # int or str
    required: bool
    help: str
    group: bool = False  # in the required --family/--file choice


_TORIC_INPUT = {
    "--family": _Option(
        "family", str, False, 'family spec like "veronese:3,1" or "a:5,2"', group=True
    ),
    "--file": _Option("file", str, False, "path of a JSON input document", group=True),
}

# Every subcommand's help and options, in usage-line order: the one place that
# declares an option.  build_parser makes the argparse parser from it, and
# _read_argv reads well-formed argv with it.
_COMMANDS: dict[str, tuple[str, dict[str, _Option]]] = {
    "eghk": ("exact multiplicity of the quotient", _TORIC_INPUT),
    "function": ("gap counts along a prime-power tower", {
        **_TORIC_INPUT,
        "--prime": _Option("prime", int, True, "characteristic, a prime"),
        "--max-n": _Option("max_n", int, True, "largest exponent n"),
    }),
    "split": ("bracket power gap split at one q", {
        **_TORIC_INPUT,
        "--q": _Option("q", int, True, "bracket power exponent"),
    }),
    "powers": ("ordinary power lengths, torsion, and fit", {
        **_TORIC_INPUT,
        "--max-n": _Option("max_n", int, True, "largest power"),
        "--period": _Option("period", int, False, "override the fit period"),
    }),
    "reptype": ("multiplicity from a module decomposition", {
        "--file": _Option("file", str, False, "path of a JSON input document"),
        "--r": _Option("r", int, False, "index of the type A singularity"),
        "--u": _Option("u", str, False, "comma-separated module multiplicities"),
        "--v": _Option("v", str, False, "comma-separated limit weights (rationals)"),
    }),
    "verify": ("run the property suites on an input", _TORIC_INPUT),
    "plot": ("write the region picture as SVG", {
        **_TORIC_INPUT,
        "--out": _Option("out", str, True, "output SVG path"),
        "--q-mark": _Option("q_mark", int, False, "draw the q-th bracket power"),
    }),
}


def _read_argv(argv: list[str]) -> Optional[argparse.Namespace]:
    """The Namespace argparse returns for well-formed argv, or None to leave argv to it.

    Well-formed is an exact command name, then pairs of one of its exact
    option strings and a value that does not start with "-", each option
    at most once, every int value one that int() reads, every required
    option present and, where the command has the --family/--file
    choice, exactly one of the two.  Anything else (help, abbreviations,
    --opt=value, negative numbers, repeats, every usage error) is
    argparse's to read or to refuse.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None or len(argv) % 2 == 0:
        return None
    options = command[1]
    values = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None or option.dest in values or value.startswith("-"):
            return None
        if option.type is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[option.dest] = value
    grouped = chosen = 0
    for option in options.values():
        grouped += option.group
        if option.dest in values:
            chosen += option.group
        elif option.required:
            return None
        else:
            values[option.dest] = None
    if grouped and chosen != 1:
        return None
    return argparse.Namespace(command=argv[0], **values)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, the code for bad input.

    argparse exits 2, which this CLI keeps for internal errors.
    Subparsers are built from the same class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghk",
        description=(
            "Exact generalized Hilbert-Kunz multiplicities of monomial ideals "
            "in two-dimensional normal toric rings"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        group = None
        for flag, option in options.items():
            if option.group and group is None:
                group = p.add_mutually_exclusive_group(required=True)
            (group if option.group else p).add_argument(
                flag, dest=option.dest, type=option.type, required=option.required,
                help=option.help,
            )
    return parser


def run_command(argv: Optional[list[str]] = None) -> int:
    """Run one request from argv and return its exit code.

    _cmd_<name>(source, args) gets (r, table, multiplicities, weights)
    for reptype and the toric instance otherwise, and returns (results,
    summary lines).  Results with all_passed false (a failed verify
    suite) exit 1.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        try:
            load = _reptype_input if args.command == "reptype" else _toric_instance
            source, echo = load(args)
            # looked up per call, so a command replaced after the first call still runs
            results, summary = globals()["_cmd_" + args.command](source, args)
            # formatted whole before writing, so a report that cannot be printed (an
            # unserialisable value, an int past the digit limit) writes nothing on stdout
            report = report_json({"command": args.command, "input": echo, "results": results})
            sys.stdout.write(report + "\n")
            for line in summary:
                print(line, file=sys.stderr)
            return 1 if results.get("all_passed") is False else 0
        except ValueError as exc:
            # str() of an integer past the interpreter's digit limit, in a report or a message
            if isinstance(exc, GhkError) or "integer string conversion" not in str(exc):
                raise
            digits = sys.get_int_max_str_digits()
            raise BadParameters(f"a number to print passes the {digits}-digit limit") from None
    except (UnboundedRegion, ContractViolation) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except GhkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())
