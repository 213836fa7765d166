"""Print the code lines of each module of the greedyexp package, and their total.

A code line is a physical line that holds part of a token other than a comment
or a docstring. Blank lines, comment lines and docstrings (the string literal
that opens a module, class or function body, found with ``ast``) do not count;
``tokenize`` finds the rest, so a line that only continues a bracket counts.

Usage, from the repository root:

    python3 tools/code_lines.py [PACKAGE_DIR]     # default src/greedyexp
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/greedyexp")
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    if not counts:
        print(f"no modules under {package}", file=sys.stderr)
        return 1
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:<16}{count:>6}")
    print(f"{'total':<16}{sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
