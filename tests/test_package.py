"""The package's public namespace."""
from __future__ import annotations

import re
import types
from pathlib import Path

import leodoppler

ROOT = Path(__file__).resolve().parents[1]

# overhead_pdf is the paper's closed overhead density. Only tests call it,
# as an independent check of the general law doppler_pdf.
_USED_ONLY_BY_TESTS = {"overhead_pdf"}


def test_all_lists_exactly_the_public_names():
    # `from leodoppler import *` fails on a listed name that is not bound,
    # and silently leaves out a public name that is not listed.
    assert len(set(leodoppler.__all__)) == len(leodoppler.__all__)
    assert [name for name in leodoppler.__all__ if not hasattr(leodoppler, name)] == []
    public = {
        name
        for name, value in vars(leodoppler).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(leodoppler.__all__)


def _non_test_sources() -> list[str]:
    """Lines of the package modules (not __init__), demos, benchmark code
    and README: every place outside the tests that may use a public name."""
    files = [p for p in (ROOT / "src" / "leodoppler").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += [p for p in (ROOT / "benchmarks").glob("*.py") if not p.name.startswith("test_")]
    files.append(ROOT / "README.md")
    return [line for p in files for line in p.read_text().splitlines()]


def test_every_public_name_is_used_outside_the_tests():
    # A public name that only tests call is a wrapper the API need not hold.
    lines = _non_test_sources()
    unused = []
    for name in leodoppler.__all__:
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert sorted(unused) == sorted(_USED_ONLY_BY_TESTS)
