"""Count the lines of each module of src/gwschemes by kind.

Prints, for each module and for their sum, the total lines and how many of
them are code, docstring, comment and blank lines.  A docstring line is a
line of the string that opens a module, class or function body (found with
ast); a comment line holds a comment and no code (found with tokenize); a
line with code and a comment counts as code.  Source LOC is worth tracking
only by the code column: a shorter docstring is no simpler design.

Standard library only:

    python tools/loc.py
"""
from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gwschemes"
COLUMNS = ("total", "code", "docstring", "comment", "blank")
LAYOUT = tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The total lines of the module at path and the lines of each kind."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text, str(path)))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    for n, line in enumerate(text.splitlines(), 1):
        if n in docs:
            kind = "docstring"
        elif n in code:
            kind = "code"
        elif n in comments:
            kind = "comment"
        else:
            kind = "blank" if not line.strip() else "code"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main() -> None:
    rows = {path.name: count(path) for path in sorted(SRC.glob("*.py"))}
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in COLUMNS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}  " + "  ".join(f"{k:>9}" for k in COLUMNS))
    for name, r in rows.items():
        print(f"{name:<{width}}  " + "  ".join(f"{r[k]:>9}" for k in COLUMNS))


if __name__ == "__main__":
    main()
