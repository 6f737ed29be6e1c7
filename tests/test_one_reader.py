"""Guard for the load step: no cli._cmd_* function reads an input field.

run_command loads and checks every input field before it calls a
_cmd_* function, which only computes.  Scans the syntax tree of cli.py
for any call of an input reader inside a _cmd_* function.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "ghk" / "cli.py"
READERS = {"_read_list", "_to_int", "_to_pair", "_to_rational", "_load_document"}


def reader_calls(tree: ast.AST) -> list[str]:
    """Describe every call of an input reader inside a _cmd_* function."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_"):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                    if call.func.id in READERS:
                        found.append(f"{call.func.id} in {node.name}")
    return found


def test_no_command_reads_input():
    assert reader_calls(ast.parse(CLI.read_text(encoding="utf-8"))) == []


def test_guard_catches_a_reader_call():
    code = (
        "def _cmd_reptype(section, args):\n"
        "    r = _to_int(section.get('r'))\n"
        "    def rows():\n"
        "        return _read_list(section['table'], _to_row, 'table', 'rows')\n"
        "def _reptype_input(args):\n"
        "    return _load_document(args.file)\n"
    )
    assert reader_calls(ast.parse(code)) == [
        "_to_int in _cmd_reptype",
        "_read_list in _cmd_reptype",
    ]
