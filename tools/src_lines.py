"""Count the physical and the code lines of each module of a source tree.

    python3 tools/src_lines.py [TREE]

TREE is a checkout of this repository (by default the one this tool is
in); every ``*.py`` under its ``src/`` is counted.  A code line is a line
that holds a token of the program.  Blank lines and comments carry none
(found by ``tokenize``), and the lines of a docstring are left out too:
the line span, from the AST, of the string that opens a module, a class
or a function.  A token that spans lines, such as a multi-line string
that is not a docstring, makes each of its lines a code line.

Prints one row per module, its path relative to ``src/`` with its
physical and code lines, then the totals.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent)
    src = parser.parse_args(argv).tree / "src"
    modules = sorted(src.rglob("*.py"))
    if not modules:
        parser.error(f"no *.py under {src}")
    rows = [(str(path.relative_to(src)), *count(path.read_text(encoding="utf-8"))) for path in modules]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  physical  code")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>4}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
