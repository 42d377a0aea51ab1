"""The line-count script, on a small fixture file."""
import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "line_counts.py")
_SPEC = importlib.util.spec_from_file_location("line_counts", _PATH)
line_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_counts)

# lines 1-2, 9 and 16-18 are docstrings, 5 a comment, 4, 6, 7, 13 and 14
# blank; the other seven, the string of lines 10-11 among them, are code
FIXTURE = '''"""Module docstring
over two lines."""
import os  # a trailing comment leaves the line code

# a comment line


def f(x):
    """One line."""
    text = """a string
that is no docstring"""
    return x


class C:
    """Class
    docstring.
    """
    y = 1
'''


def test_counts_of_the_fixture():
    assert line_counts.count(FIXTURE) == {"lines": 19, "code": 7, "docstrings": 6,
                                          "comments": 1}


def test_a_directory_gives_a_row_per_file_and_their_sum(tmp_path, capsys):
    for name in ("a.py", "b.py", "notes.txt"):
        (tmp_path / name).write_text(FIXTURE)
    assert line_counts.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["file", "lines", "code", "docstrings", "comments"]
    assert [os.path.basename(row[0]) for row in rows[1:]] == ["a.py", "b.py", "total"]
    assert rows[1][1:] == ["19", "7", "6", "1"]
    assert rows[3][1:] == ["38", "14", "12", "2"]
