"""Every function the perfbench tracer wraps by name exists in the package.

The tracer looks each name up with getattr when a traced run starts, so a
renamed or deleted function would otherwise surface only there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    # a slots dataclass looks its defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TRACED = load_tracing().TRACED


@pytest.mark.parametrize("short", sorted(TRACED))
def test_every_traced_name_is_a_callable_of_its_module(short):
    module = importlib.import_module(f"ssdkit.{short}")
    missing = [name for name in TRACED[short] if not callable(getattr(module, name, None))]
    assert missing == []
