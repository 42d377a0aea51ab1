"""Count each Python file's lines: in all, code, docstrings and comments.

    python3 scripts/line_counts.py [PATH ...]

A PATH is a ``.py`` file or a directory, searched for ``.py`` files below
it; the default is ``src``. A docstring line is any line of the string that
opens a module, class or function body. A comment line holds a comment and
nothing else. A code line is any other line that holds a token, so blank
lines count only in the total. One row per file, then their sum. Uses only
the standard library (``ast`` and ``tokenize``).
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

FIELDS = ("lines", "code", "docstrings", "comments")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The line counts of one file's source, keyed by ``FIELDS``."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    comments: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstrings
    comments -= code | docstrings
    return {"lines": len(source.splitlines()), "code": len(code),
            "docstrings": len(docstrings), "comments": len(comments)}


def python_files(paths: list[str]) -> list[str]:
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(os.path.join(folder, name)
                            for folder, _, names in os.walk(path)
                            for name in names if name.endswith(".py"))
        else:
            files.append(path)
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"])
    files = python_files(parser.parse_args(argv).paths)
    total = dict.fromkeys(FIELDS, 0)
    width = max([len(f) for f in files] + [len("total")])
    print(f"{'file':<{width}} " + " ".join(f"{field:>10}" for field in FIELDS))
    for path in files:
        with open(path, encoding="utf-8") as fh:
            counts = count(fh.read())
        print(f"{path:<{width}} " + " ".join(f"{counts[field]:>10}" for field in FIELDS))
        total = {field: total[field] + counts[field] for field in FIELDS}
    print(f"{'total':<{width}} " + " ".join(f"{total[field]:>10}" for field in FIELDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
