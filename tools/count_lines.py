"""Count the lines of each module of a Python package as code, docstring,
comment or blank, each line in exactly one class.

A line is docstring if it lies within a module, class or function
docstring (found by `ast`); else code if `tokenize` finds a token on it
that is not a comment, a multi-line string's blank lines included; else
blank if it holds only whitespace; else comment.  So the four counts of
a module sum to its `wc -l`.

    python3 tools/count_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# the tokens a comment-only line may hold
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> dict[str, int]:
    """The four line counts of one module's source."""
    docstring, code = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(CLASSES, 0)
    for n, line in enumerate(source.split("\n")[:-1], 1):  # as `wc -l` counts
        kind = ("docstring" if n in docstring else "code" if n in code
                else "blank" if not line.strip() else "comment")
        counts[kind] += 1
    return counts


ROOT = Path(__file__).resolve().parents[1] / "src" / "tawq"


def main() -> int:
    total = dict.fromkeys(CLASSES, 0)
    row = "{:<16}{:>7}" + "{:>11}" * len(CLASSES)
    print(row.format("module", "lines", *CLASSES))
    for path in sorted(ROOT.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        total = {c: total[c] + counts[c] for c in CLASSES}
        print(row.format(path.name, sum(counts.values()), *counts.values()))
    print(row.format("total", sum(total.values()), *total.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
