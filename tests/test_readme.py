"""The README's Library block runs and gives the values its comments state."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# expression of the block -> the value that the comment on its line states
STATED = {
    "s.classify()": "noncommutative",
    "s.valencies": [1, 1, 1, 7, 7, 7],
    "es.multiplicities": [1, 7, 8],
    "T[range(3), range(3)].equal(U).all()": True,
    "part": [[0], [1, 2], [3], [4, 5]],
}


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_gives_the_values_its_comments_state():
    code = library_block()
    ns: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, ns)
    for expr, value in STATED.items():
        (line,) = [
            line for line in code.splitlines()
            if line.startswith((f"print({expr})", f"{expr} =", f"{expr} "))
        ]
        assert str(value) in line.split("#", 1)[1], line
        assert eval(expr, ns) == value, expr
