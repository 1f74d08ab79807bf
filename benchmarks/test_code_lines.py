"""``code_lines.py`` on a fixture whose code lines are known by hand."""

from code_lines import code_lines, count_directory, main

FIXTURE = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment leaves a code line

# a comment line


class Box:
    """Class docstring."""

    size = 3


def read(path):
    """Function docstring."""
    text = """a string that is
not a docstring"""
    return os.path.join(path, text)


def one_liner(): "docstring on a code line"


def call(x):
    return max(
        x,
        0,
    )
'''

# import, class, size, def read, text (2 lines), return, def one_liner,
# def call, return max( and its three continuation lines
FIXTURE_CODE_LINES = 13


def test_fixture_counts_only_code_lines():
    assert code_lines(FIXTURE) == FIXTURE_CODE_LINES


def test_empty_and_docstring_only_modules_have_no_code():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_directory_rows_and_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert count_directory(tmp_path) == {"b.py": 2, "pkg/a.py": FIXTURE_CODE_LINES}
    assert main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split() for row in rows] == [
        ["2", "b.py"], [str(FIXTURE_CODE_LINES), "pkg/a.py"], ["15", "total"],
    ]


def test_usage_error_without_a_directory(tmp_path, capsys):
    assert main([]) == 2
    assert main([str(tmp_path / "missing")]) == 2
    assert "usage" in capsys.readouterr().err
