"""The public API: every export resolves, and the benchmark uses only exports."""

import re
from pathlib import Path

import fsindex as fx

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_export_resolves():
    for name in fx.__all__:
        assert hasattr(fx, name), name


def test_perfbench_uses_only_exports():
    used = {
        name
        for path in PERFBENCH.glob("*.py")
        for name in re.findall(r"\bfx\.(\w+)", path.read_text())
    }
    assert used, "no fx.<name> uses found under perfbench/"
    assert used <= set(fx.__all__), sorted(used - set(fx.__all__))
