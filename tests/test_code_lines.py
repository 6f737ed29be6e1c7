import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_lines_with_code_tokens_count(tmp_path):
    # 4 code lines: the def, the assignment over two lines and the return; the
    # docstring, the comment, the blank line and the bare string do not count
    source = (
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "def f(x):\n"
        '    """A docstring."""\n'
        "    # a comment\n"
        "    y = (x +\n"
        "         1)  # a trailing comment\n"
        "    'a bare string statement'\n"
        '    return y, "a string inside code"\n'
    )
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    assert load_tool().code_lines(path) == 4


def test_the_package_total_is_the_sum_of_its_modules(capsys):
    tool = load_tool()
    assert tool.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][0] == "total" and len(rows) > 2
    assert int(rows[-1][1]) == sum(int(n) for _, n in rows[:-1])
