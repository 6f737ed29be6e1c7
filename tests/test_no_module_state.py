"""Guard for request isolation: the package keeps no results at module level.

Scans the syntax tree of every module in src/ghk for global statements
and for functools cache and lru_cache decorators; none is allowed.
Computed results, such as the ordinary powers of an ideal, live on the
object they belong to and die with it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ghk"
CACHES = {"cache", "lru_cache"}
ALLOWED: dict[str, list[str]] = {}


def _decorator_name(node: ast.expr) -> str:
    # cache, functools.cache, lru_cache(maxsize=8), functools.lru_cache(...)
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def module_state(tree: ast.AST) -> list[str]:
    """Describe every global statement and cache decorator in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"line {node.lineno}: global {', '.join(node.names)}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += [
                f"@{name} on {node.name}"
                for name in map(_decorator_name, node.decorator_list)
                if name in CACHES
            ]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_keeps_no_state(path):
    found = module_state(ast.parse(path.read_text(encoding="utf-8")))
    assert found == ALLOWED.get(path.name, [])


def test_guard_catches_each_kind():
    code = (
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "seen = {}\n"
        "def f():\n"
        "    global seen, other\n"
        "@cache\n"
        "def a(): pass\n"
        "@lru_cache(maxsize=None)\n"
        "def b(): pass\n"
        "@functools.cache\n"
        "def c(): pass\n"
        "@functools.lru_cache(8)\n"
        "def d(): pass\n"
        "class E:\n"
        "    @cached_property\n"
        "    def e(self): pass\n"
    )
    assert sorted(module_state(ast.parse(code))) == [
        "@cache on a",
        "@cache on c",
        "@lru_cache on b",
        "@lru_cache on d",
        "line 5: global seen, other",
    ]
