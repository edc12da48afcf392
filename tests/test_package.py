"""The package surface: its exports, its version and its import layers."""
import ast
import re
from pathlib import Path

import pytest

import gwschemes

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = Path(gwschemes.__file__).resolve().parent

# each module imports only from modules before it
LAYERS = [
    "errors",
    "algebra",
    "kernel",
    "matrixkit",
    "designs",
    "schemes",
    "builders",
    "serialize",
    "spectra",
    "oracle",
    "cli",
]


def test_every_export_exists():
    missing = [name for name in gwschemes.__all__ if not hasattr(gwschemes, name)]
    assert missing == []


def test_version_matches_pyproject():
    # a plain match, since tomllib is missing on Python 3.10
    found = re.findall(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert found == [gwschemes.__version__]


def package_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """The package modules an import names, with the line of the import."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            out += [(name.split(".")[0], node.lineno) for name in names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gwschemes."):
            out.append((node.module.split(".")[1], node.lineno))
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("gwschemes.")]
            out += [(name.split(".")[1], node.lineno) for name in names]
    return out


def nested_imports(tree: ast.Module) -> list[int]:
    """The lines of the imports inside a function or class."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    inner = [n for scope in ast.walk(tree) if isinstance(scope, scopes) for n in ast.walk(scope)]
    return sorted({n.lineno for n in inner if isinstance(n, (ast.Import, ast.ImportFrom))})


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(modules) == sorted(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_come_from_earlier_layers_at_module_level(module):
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(), str(path))
    rank = LAYERS.index(module)
    upward = [(name, line) for name, line in package_imports(tree) if name not in LAYERS[:rank]]
    assert (upward, nested_imports(tree)) == ([], [])
