"""Guard for the rational format: only fmt knows how a rational prints.

Scans the syntax tree of every module in src/ghk.  Results hold
Fractions, and fmt.report_json writes each one through rational_json,
so no other module may call rational_json, under any binding, and cli
may not read a "decimal" entry back out of a result: a summary line
calls exact_decimal on the Fraction itself.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ghk"


def format_uses(tree: ast.AST) -> list[str]:
    """Describe every call of rational_json and every subscript by "decimal"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "rational_json":
                found.append(f"rational_json call on line {node.lineno}")
        elif isinstance(node, ast.Subscript):
            key = node.slice
            if isinstance(key, ast.Constant) and key.value == "decimal":
                found.append(f"['decimal'] on line {node.lineno}")
    return sorted(found, key=lambda f: int(f.rsplit(" ", 1)[1]))


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "fmt.py"], ids=lambda p: p.name
)
def test_only_fmt_formats_rationals(path):
    assert format_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_fmt_writes_each_rational_through_rational_json():
    # the writer's one call per rational, and its read of the pair that call returns
    found = format_uses(ast.parse((SRC / "fmt.py").read_text(encoding="utf-8")))
    assert [f.split(" on ")[0] for f in found] == ["rational_json call", "['decimal']"]


def test_guard_catches_each_kind():
    code = (
        "from .fmt import rational_json\n"
        "from . import fmt\n"
        "def _cmd_eghk(source, args):\n"
        "    results = {'eghk': rational_json(value)}\n"
        "    line = results['eghk']['decimal']\n"
        "    return fmt.rational_json(value)\n"
    )
    assert format_uses(ast.parse(code)) == [
        "rational_json call on line 4",
        "['decimal'] on line 5",
        "rational_json call on line 6",
    ]
