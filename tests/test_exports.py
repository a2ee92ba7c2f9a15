"""Every name a module lists in __all__ exists in that module."""

import importlib

import pytest

MODULES = [
    "modspaces",
    "modspaces.constants",
    "modspaces.modspace",
    "modspaces.partition",
    "modspaces.specialfn",
    "modspaces.superpose",
    "modspaces.weights",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
