"""Count the code lines of src/lieshear, by file and in total.

A line counts when it holds a token other than a comment, a docstring, a
blank-line NL, NEWLINE, INDENT or DEDENT.  A docstring is a string that
makes up a whole statement, as a module's, class's or function's first
statement does.  Only the standard library's tokenize is used:

    python tests/code_lines.py [path ...]

With no path it counts every .py file of src/lieshear.
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "lieshear"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.NL, tokenize.COMMENT,
                   tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold code."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in SKIPPED:
            continue
        if (tok.type == tokenize.STRING and tokens[i - 1].type in STATEMENT_START
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted(SOURCE.glob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
