"""Print every statement of src/gwschemes that the tier-1 tests never run.

The tier-1 suite runs in this process under sys.settrace, which traces the
lines of the frames of src/gwschemes only.  A statement counts as run when a
line event fired on one of its own lines: every line of a simple statement,
and the header of a compound one, from its first decorator to the line
before its body.  Docstrings are not statements here.  Statements that only
a subprocess runs, such as sys.exit(main()), are listed too.

Standard library only, besides the pytest that runs the suite.  Tracing
makes the suite nearly twice as slow, so this is no tier-1 test:

    python tools/untested.py [pytest arguments]

Extra arguments go to pytest, say a test file to see what it alone leaves
out.  The exit code is pytest's.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gwschemes"


def _start(node: ast.stmt) -> int:
    """The first line of a statement, a decorator's for a decorated one."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
        node.value.value, str
    )


def statements(path: Path) -> list[tuple[int, range]]:
    """The first line and the own lines of each statement of the module at
    path, docstrings excluded, in line order."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and _is_docstring(node.body[0])
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in docstrings:
            body = getattr(node, "body", None)
            end = max(node.lineno, _start(body[0]) - 1) if body else node.end_lineno
            out.append((node.lineno, range(_start(node), end + 1)))
    return sorted(out)


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with args under the tracer; its exit code and the lines of
    src/gwschemes that ran, by resolved file name."""
    hit: dict[str, set[int]] = {}
    seen: dict[str, set[int] | None] = {}  # by co_filename, None outside SRC

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            path = Path(name).resolve()
            seen[name] = hit.setdefault(str(path), set()) if path.parent == SRC else None
        return local if seen[name] is not None else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        import pytest

        flags = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        code = pytest.main([*flags, *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hit


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # so that pytest reads the testpaths of pyproject.toml
    code, hit = traced_run(argv)
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        ran = hit.get(str(path), set())
        source = path.read_text().splitlines()
        for line, own in statements(path):
            if ran.isdisjoint(own):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} statements of src/gwschemes never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
