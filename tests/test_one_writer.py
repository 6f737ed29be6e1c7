"""Guard for the one request path: only cli.run_command writes stdout.

Scans the syntax tree of every module in src/ghk.  sys.stdout may be
named only inside cli.run_command, which prints every report, and no
_cmd_* function of cli calls print: a subcommand returns its results
and summary lines, and run_command writes them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ghk"
ALLOWED = {"cli.py": ["sys.stdout in run_command"]}


def writers(tree: ast.AST) -> list[str]:
    """Describe every use of sys.stdout, and every print inside a _cmd_* function."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        where = ".".join(scope) or "module"
        if isinstance(node, ast.Attribute) and node.attr == "stdout":
            if isinstance(node.value, ast.Name) and node.value.id == "sys":
                found.append(f"sys.stdout in {where}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if any(alias.name == "stdout" for alias in node.names):
                found.append(f"sys.stdout in {where}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "print" and any(n.startswith("_cmd_") for n in scope):
                found.append(f"print in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_run_command_writes_stdout(path):
    found = writers(ast.parse(path.read_text(encoding="utf-8")))
    assert found == ALLOWED.get(path.name, [])


def test_guard_catches_each_kind():
    code = (
        "import sys\n"
        "from sys import stdout\n"
        "def _emit(report):\n"
        "    sys.stdout.write(report)\n"
        "def _cmd_eghk(source, args):\n"
        "    def show():\n"
        "        print('nested')\n"
        "    print('direct', file=sys.stderr)\n"
        "def run_command():\n"
        "    print('to stderr', file=sys.stderr)\n"
    )
    assert writers(ast.parse(code)) == [
        "sys.stdout in module",
        "sys.stdout in _emit",
        "print in _cmd_eghk.show",
        "print in _cmd_eghk",
    ]
