"""Print the lines of chronoflow's source that hold code, per file and in total.

A line counts when it holds a token that is no comment and no docstring (a
string literal that is the first statement of a module, class or function);
blank lines do not count.  ``wc -l`` counts prose too, so deleting a docstring
reads there as deleting code; this count moves only with code.  The output is
``wc -l``'s, the total last:

    python tools/srclines.py                       # src/chronoflow of this checkout
    python tools/srclines.py path/to/src/chronoflow

It reads the files with ``ast`` and ``tokenize`` and imports none of them.
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold a token other than a comment or a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type not in SKIPPED and not (token.type == tokenize.STRING
                                                  and token.start in docstrings):
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "chronoflow"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:>5} {path}")
    print(f"{total:>5} total")


if __name__ == "__main__":
    main(sys.argv[1:])
