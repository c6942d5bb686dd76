"""Print each module's total and code lines for a package, plus the sums.

Usage, from the repository root:

    python3 tools/src_lines.py [package-directory]

The directory defaults to ``src/kannanlab``.  A code line is a line that
holds part of a token other than a comment, a docstring or layout
(newlines, indentation).  A docstring is a string literal that forms a
whole expression statement, as the module, class and function docstrings
do.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one source file."""
    text = path.read_text("utf-8")
    skip = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _LAYOUT:
                continue
            for line in range(tok.start[0], tok.end[0] + 1):
                if line not in skip:
                    code.add(line)
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/kannanlab")
    total = code = 0
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        lines, code_lines = count(path)
        total += lines
        code += code_lines
        print(f"{path.name:<20} {lines:>6} {code_lines:>6}")
    print(f"{'total':<20} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
