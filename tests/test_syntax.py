"""Every Python file of the package, its tests and the benchmark parses as
the oldest Python the package supports (``requires-python`` in
``pyproject.toml``), so that a newer construct fails here and not only on
that version.  The files are read, never written."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
SOURCES = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))


def test_oldest_version_is_the_declared_floor():
    declared = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert tuple(map(int, declared.groups())) == OLDEST
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
