"""``tools/loc.py``: how a module's lines split into prose and code."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# Docstrings: lines 1-3, 14 and 17-19, a blank line inside each multi-line
# one. Comment-only: 5 and 20; a comment after code, and a '#' line inside
# a string that is not a docstring, are code. Blank: 4, 7, 11, 12 and 15.
MODULE = '''"""Module doc.

More."""

# a comment
import os  # after code

TEXT = """
# in a string
"""


class C:
    """Class doc."""

    def f(self):
        """Function doc.

        Body."""
        # indented comment
        "a string statement, not the first"
        return os.sep + TEXT
'''


def test_counts_of_a_synthetic_module():
    assert loc.count(MODULE) == {"total": 22, "docstring": 7, "comment": 2, "blank": 5,
                                 "code": 8}


def test_main_sums_over_the_files_it_is_given(tmp_path, capsys):
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    for path in paths:
        path.write_text(MODULE)
    assert loc.main([str(path) for path in paths]) == 0
    assert capsys.readouterr().out == "total 44\ndocstring 14\ncomment 4\nblank 10\ncode 16\n"
