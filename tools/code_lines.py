"""Count the code lines of the evcsmarket package: every line that holds a
token of code, leaving out blank lines, comments and docstrings (the first
string statement of a module, class or function).

    python3 tools/code_lines.py

Prints one line per module and the total.  Uses only the standard library.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers each docstring in `tree` spans."""
    lines = set()
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


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold code outside a docstring."""
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "evcsmarket"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20s} {count:6d}")
    print(f"{'total':20s} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
