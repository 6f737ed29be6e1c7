"""Print the code lines of each module of src/ghk, and their total.

A line is a code line when it holds a token that is not a comment, not
part of a docstring and not part of any other bare string statement;
blank lines, comment lines and docstring lines do not count.  A bare
string statement is an expression statement whose value is a string
constant, found with ast, so a docstring and a string left on its own
line anywhere count alike.  Only the standard library is used.

    python tools/code_lines.py
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    source = path.read_bytes()
    bare = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    ]
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _SKIP or any(lo <= tok.start < hi for lo, hi in bare):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


ROOT = Path(__file__).resolve().parent.parent / "src" / "ghk"


def main() -> int:
    counts = {path.name: code_lines(path) for path in sorted(ROOT.glob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
