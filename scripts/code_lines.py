#!/usr/bin/env python3
"""Count the code lines of each Python module in a directory.

Usage: python scripts/code_lines.py [DIR]

A code line is a line that holds a token of code. Blank lines, comment
lines and docstrings (the string that opens a module, class or function
body) are not code lines; a line with code and a trailing comment is one.
Every other string counts on each line it spans. DIR defaults to
``src/posetglue``; its ``*.py`` files are counted, not its subdirectories.
The script prints one line per module, sorted by name, then the total.

Exit status: 0 on success, 2 when DIR is not a directory or a module does
not parse (one line on stderr).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

USAGE = "usage: code_lines.py [DIR]"

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    """Print the per-module and total counts; exit status as documented above."""
    args = sys.argv[1:]
    if len(args) > 1:
        print(USAGE, file=sys.stderr)
        return 2
    root = Path(args[0] if args else "src/posetglue")
    if not root.is_dir():
        print(f"code_lines.py: {root} is not a directory", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(root.glob("*.py")):
        try:
            count = code_lines(path.read_text(encoding="utf-8"))
        except (SyntaxError, tokenize.TokenError, UnicodeDecodeError) as exc:
            print(f"code_lines.py: {path}: {exc}", file=sys.stderr)
            return 2
        total += count
        print(f"{path.stem:<12} {count:6d}")
    print(f"{'total':<12} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
