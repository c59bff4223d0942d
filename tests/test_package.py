"""The package's public namespace."""
from __future__ import annotations

import types

import leodoppler


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
