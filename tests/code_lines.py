"""Code lines per module: the lines that hold code, not counting blank
lines, comment lines and docstring lines.

    python tests/code_lines.py                      # src/swarmtrack/*.py
    python tests/code_lines.py src/swarmtrack/policy.py tests/oracles.py

A docstring is the string literal that opens a module, class or function
body. A line counts when it holds a token other than a comment or a
docstring, so a line with code and a trailing comment counts, and every
line of a multi-line string that is not a docstring counts. Prints one
"count path" line per file and the total; standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swarmtrack"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """Numbers of the lines that a docstring of tree spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of source that hold code (see the module docstring)."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        span = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and set(span) <= docs:
            continue
        lines.update(span)
    return len(lines)


def main(argv) -> int:
    paths = [Path(arg) for arg in argv] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
