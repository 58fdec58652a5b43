"""Count the code lines of each Python module of a source directory.

    python3 tools/code_lines.py HEAD_DIR [BASE_DIR]

A code line holds a token that is not a comment: blank lines, comment
lines and the lines of module, class and function docstrings are left
out. With one directory, each module's count and the total are printed.
With BASE_DIR too, each module that either directory has is printed as
base -> head with the difference (0 for a module one side lacks), then
the total.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The number of lines of `text` that hold code."""
    docstrings = set()  # (row, column) where each docstring's token starts
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, _SCOPES) and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            docstrings.add((node.body[0].lineno, node.body[0].col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def counts(directory: Path) -> dict[str, int]:
    return {p.name: code_lines(p.read_text()) for p in sorted(directory.glob("*.py"))}


def report(head: Path, base: Path | None = None) -> list[str]:
    """The lines that `main` prints."""
    new = counts(head)
    if base is None:
        return [f"{name:<28} {n:5d}" for name, n in [*new.items(), ("total", sum(new.values()))]]
    old = counts(base)
    rows = [(name, old.get(name, 0), new.get(name, 0)) for name in sorted(old.keys() | new.keys())]
    rows.append(("total", sum(old.values()), sum(new.values())))
    return [f"{name:<28} {b:5d} -> {h:5d}  {h - b:+d}" for name, b, h in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("head", type=Path)
    parser.add_argument("base", type=Path, nargs="?")
    args = parser.parse_args(argv)
    print("\n".join(report(args.head, args.base)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
