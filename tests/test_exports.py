"""The package's export lists name only things that exist."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

MODULES = ["ssdkit"] + [f"ssdkit.{name}" for name in (
    "bench", "chunked", "cli", "core", "embedding", "errors", "instrumentation",
    "model_io", "stack")]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_the_harness_loads_on_first_use():
    # a fresh interpreter, so no other test has imported ssdkit.bench already
    script = textwrap.dedent("""
        import sys
        import ssdkit
        assert "ssdkit.bench" not in sys.modules, "import ssdkit loaded ssdkit.bench"
        assert ssdkit.run_sweep is ssdkit.bench.run_sweep
        assert set(ssdkit.__all__) <= set(dir(ssdkit))
        names = {}
        exec("from ssdkit import *", names)
        assert [n for n in ssdkit.__all__ if n not in names] == []
        try:
            ssdkit.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("ssdkit.no_such_name resolved")
    """)
    env = dict(os.environ)  # the tree this process imports ssdkit from comes first
    src = str(Path(importlib.import_module("ssdkit").__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
