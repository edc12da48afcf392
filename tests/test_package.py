"""The package surface: its exports and its version."""
import re
from pathlib import Path

import gwschemes

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_export_exists():
    missing = [name for name in gwschemes.__all__ if not hasattr(gwschemes, name)]
    assert missing == []


def test_version_matches_pyproject():
    # a plain match, since tomllib is missing on Python 3.10
    found = re.findall(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert found == [gwschemes.__version__]
