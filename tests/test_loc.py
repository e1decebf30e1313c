"""``tools/loc.py`` counts the code lines that ROADMAP's size figures quote.
Its counting rules are pinned here on small sources: comments, docstrings
and blank lines do not count, a code string counts every line it spans, and
the printed total is the sum of the modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

SOURCE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment


class Point:
    """A class docstring."""

    x = 0


def name():
    """A function docstring
    over two lines."""

    text = """a code string
spanning three
lines"""
    "a bare string that is not the first statement"
    return os.sep + text
'''


@pytest.fixture
def loc(monkeypatch):
    spec = importlib.util.spec_from_file_location("tools_loc", LOC)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_comments_docstrings_and_blank_lines_do_not_count(loc):
    assert loc.code_lines("# only a comment\n\n") == 0
    assert loc.code_lines('"""Only a docstring."""\n') == 0
    function = 'def f():\n    """A docstring."""\n\n    # a comment\n    return 1\n'
    assert loc.code_lines(function) == 2


def test_a_code_string_counts_every_line_it_spans(loc):
    assert loc.code_lines('text = """a code string\nspanning three\nlines"""\n') == 3
    assert loc.code_lines("x = (\n    1,\n    2,\n)\n") == 4
    # import, class, x = 0, def, the three lines of text, the bare string
    # (not a docstring, since it is not the first statement) and return
    assert loc.code_lines(SOURCE) == 9


def test_the_total_is_the_sum_of_the_modules(loc, tmp_path, monkeypatch, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("import sys\n\n# done\nprint(sys.argv)\n")
    monkeypatch.setattr(loc, "PACKAGE", tmp_path)
    assert loc.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a", "9"], ["b", "2"], ["total", "11"]]


def test_the_package_counts_as_its_modules_sum(loc, capsys):
    loc.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = {name for name, _ in rows[:-1]}
    assert modules >= {"core", "cli", "offers"} and rows[-1][0] == "total"
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])
