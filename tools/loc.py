"""Line counts of odelora's source, split into prose and code.

    python tools/loc.py [FILE ...]

With no files it counts ``src/odelora/*.py`` of the checkout it sits in,
and prints, summed over the files, one ``name count`` line each for:

* ``total``: every line, as ``wc -l`` counts them;
* ``docstring``: the lines of each docstring, the first string statement
  of a module, class or function, blank lines inside it included;
* ``comment``: lines that hold only a comment (found with ``tokenize``, so
  a ``#`` inside a string is not one), outside docstrings;
* ``blank``: whitespace-only lines outside docstrings;
* ``code``: the rest.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

FIELDS = ("total", "docstring", "comment", "blank", "code")
# Tokens that a comment-only line may hold besides its comment.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> dict[str, int]:
    """The counts of one module's source, keyed by ``FIELDS``."""
    lines = text.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    comment, code_tokens = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in _LAYOUT:
            code_tokens.update(range(token.start[0], token.end[0] + 1))
    comment -= code_tokens | docstring
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()} - docstring
    code = len(lines) - len(docstring) - len(comment) - len(blank)
    return {"total": len(lines), "docstring": len(docstring), "comment": len(comment),
            "blank": len(blank), "code": code}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = [Path(p) for p in argv] or sorted(
        (Path(__file__).resolve().parents[1] / "src" / "odelora").glob("*.py"))
    totals = dict.fromkeys(FIELDS, 0)
    for path in paths:
        for field, n in count(path.read_text()).items():
            totals[field] += n
    for field in FIELDS:
        print(f"{field} {totals[field]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
