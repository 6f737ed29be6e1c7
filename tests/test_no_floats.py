"""Guard for exactness: the package source never touches floating point.

Scans the syntax tree of every module in src/ghk for float and complex
literals, for any use of the names float and complex, and for math
imports beyond the integer helpers gcd, lcm, isqrt, floor and ceil.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ghk"
MATH_ALLOWED = {"gcd", "lcm", "isqrt", "floor", "ceil"}


def float_uses(tree: ast.AST) -> list[str]:
    """Describe every floating-point use in a parsed module, one string each."""
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append(f"{where}: name {node.id}")
        elif isinstance(node, ast.Import):
            found += [f"{where}: import {a.name}" for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"{where}: from math import {a.name}"
                for a in node.names
                if a.name not in MATH_ALLOWED
            ]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_floats(path):
    assert float_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_guard_catches_each_kind():
    code = (
        "import math\n"
        "from math import gcd, sqrt\n"
        "x = 0.5 + 2j\n"
        "y = float(3)\n"
        "z = complex\n"
    )
    assert sorted(float_uses(ast.parse(code))) == [
        "line 1: import math",
        "line 2: from math import sqrt",
        "line 3: literal 0.5",
        "line 3: literal 2j",
        "line 4: name float",
        "line 5: name complex",
    ]
