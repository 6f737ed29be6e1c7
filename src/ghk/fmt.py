"""Exact decimal strings for the CLI reports and the SVG renderer, and the report writer.

Rationals print as correctly rounded decimal strings, divided in one
module-level context, so they do not depend on the caller's decimal
context.  This is the one module that knows how a rational prints:
results hold Fractions, and report_json writes each one as the object
rational_json makes of it.  report_json writes the bytes of the
standard json.dumps with an indent of 2 and sorted keys at the speed
of the C string encoder: CPython runs its pure-Python encoder whenever
an indent is set.  The writer makes one call per dict and list; their
exact str and int items, the leaves of almost every report, and their
[x, y] lists of two exact ints, the points a --file report echoes, are
written inside that call, and each Fraction item by one call that
writes its two strings.
"""

import json
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from json.encoder import encode_basestring_ascii


_SIG = 12  # significant digits of every decimal string
# the one context every division runs in; the flags it raises are never read
_CONTEXT = Context(prec=_SIG, rounding=ROUND_HALF_EVEN)


def exact_decimal(value: Fraction) -> str:
    """Decimal string of a rational, correctly rounded to _SIG significant digits.

    Never uses scientific notation, never emits padding zeros, so equal
    rationals always format to byte-identical strings.  The numerator
    and denominator go as ints to the divide of one module-level context,
    _SIG digits rounding half to even, so the caller's decimal context
    (its rounding, its traps) has no effect.
    """
    return format(_CONTEXT.divide(value.numerator, value.denominator), "f")


def rational_json(value: Fraction) -> dict:
    """The report encoding of an exact rational."""
    return {"rational": str(value), "decimal": exact_decimal(value)}


def report_json(value) -> str:
    """The standard json.dumps of value, indent 2 and keys sorted, byte for byte.

    Every Fraction counts as the object rational_json(value).  Dicts
    (str keys only, written in sorted order), lists, tuples, str, int,
    bool, None and Fraction are written here, strings through the C
    encode_basestring_ascii and ints through int.__repr__, so an int past
    the interpreter's digit limit raises the same ValueError; so does a
    Fraction, from str(value) in rational_json.  Any other value (a float
    echoed from an input document, NaN and infinities included) goes to
    json.dumps, which also raises the TypeError for a value JSON cannot
    hold.
    """
    return _encode(value, "\n")


def _rational(value: Fraction, newline: str) -> str:
    # its keys in sorted order; the two strings hold only digits, "-", "." and "/"
    pair, inner = rational_json(value), newline + "  "
    return (f'{{{inner}"decimal": "{pair["decimal"]}",'
            f'{inner}"rational": "{pair["rational"]}"{newline}}}')


def _encode(value, newline: str) -> str:
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(key) + ": " + (
                encode_basestring_ascii(item) if type(item) is str
                else repr(item) if type(item) is int
                else _rational(item, inner) if type(item) is Fraction
                else f"[{inner}  {item[0]!r},{inner}  {item[1]!r}{inner}]"
                if type(item) is list and len(item) == 2 and type(item[0]) is type(item[1]) is int
                else _encode(item, inner))
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(item) if type(item) is str
            else repr(item) if type(item) is int
            else _rational(item, inner) if type(item) is Fraction
            else f"[{inner}  {item[0]!r},{inner}  {item[1]!r}{inner}]"
            if type(item) is list and len(item) == 2 and type(item[0]) is type(item[1]) is int
            else _encode(item, inner)
            for item in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, Fraction):
        return _rational(value, newline)
    return json.dumps(value)
