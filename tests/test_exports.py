"""The package's export lists name only things that exist."""

import importlib

import pytest

MODULES = ["ssdkit"] + [f"ssdkit.{name}" for name in (
    "bench", "chunked", "cli", "core", "embedding", "errors", "instrumentation",
    "model_io", "stack")]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []

