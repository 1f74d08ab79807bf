"""Code lines per Python module of a directory, and their total.

A code line is a source line that holds part of a statement: blank lines,
comment-only lines and docstrings do not count.  A docstring is the string
statement that opens a module, class or function body.  Counting uses only
the standard library's ``tokenize`` and ``ast``, so the count of a checkout
does not depend on importing it::

    python3 benchmarks/code_lines.py src

prints one ``<code lines>  <module path>`` row per ``*.py`` file under the
directory, in path order, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Token types that carry no code of their own.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}

_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each docstring's string token starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Number of code lines in Python *source*."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_directory(root: Path) -> dict[str, int]:
    """Code lines of every ``*.py`` file under *root*, by relative path."""
    return {
        path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print(f"usage: {sys.argv[0]} DIRECTORY", file=sys.stderr)
        return 2
    counts = count_directory(Path(argv[0]))
    for path, n in counts.items():
        print(f"{n:7d}  {path}")
    print(f"{sum(counts.values()):7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
