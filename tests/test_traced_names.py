"""Every function the perfbench tracer wraps by name exists in the package,
and ``infer`` reaches the kernels and the stages through those names.

The tracer looks each name up with getattr when a traced run starts, so a
renamed or deleted function would otherwise surface only there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ssdkit import ModelSpec, generate_model, infer, stack

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


# The tracer's spans are only as good as the package's calls: it rebinds
# module attributes, so a layer call that reached the kernel or a stage
# through anything but its module attribute would run untraced, and the
# per-stage metrics that divide by those spans would read nothing.
WRAPPED = {"stack": ("layer_forward",),
           "chunked": ("chunked_forward", "dense_dual", "intra_chunk", "propagate_states",
                       "inter_chunk_correction")}
STAGES = ("chunked.intra_chunk", "chunked.propagate_states", "chunked.inter_chunk_correction")


def record_calls(monkeypatch):
    """Wrap every WRAPPED function wherever a package module binds it, as the
    tracer does; return the list of (name, call id, parent call id) records."""
    calls, open_ = [], []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ssdkit"]
    for short, names in WRAPPED.items():
        for fn_name in names:
            fn = getattr(importlib.import_module(f"ssdkit.{short}"), fn_name)

            def wrapper(*args, _fn=fn, _name=f"{short}.{fn_name}", **kwargs):
                calls.append((_name, len(calls), open_[-1] if open_ else None))
                open_.append(calls[-1][1])
                try:
                    return _fn(*args, **kwargs)
                finally:
                    open_.pop()

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
    return calls


# A layer call runs in tiles (see stack.layer_forward): it reaches the
# kernel once per tile, and each kernel call reaches each stage once.
@pytest.mark.parametrize("tiles", [1, 2])
@pytest.mark.parametrize("carried", [False, True])
@pytest.mark.parametrize("block_len,blocks", [(None, 1), (16, 3)], ids=["horizontal", "vertical"])
def test_infer_reaches_the_kernel_and_each_stage_once_per_tile(monkeypatch, block_len, blocks,
                                                               carried, tiles):
    spec = ModelSpec(seed=14, L=2, d=8, H=2, N=3, vocab_size=32, Q=4, V=16)
    model = generate_model(spec)
    tok = np.random.default_rng(3).integers(0, spec.vocab_size - 1, 48)
    states = np.full((spec.L, 1, spec.H, spec.N), 0.5) if carried else None
    chunks = 48 // blocks // spec.Q  # per layer call
    if tiles > 1:
        monkeypatch.setattr(stack, "_MASK_ELEMENTS_PER_ROW",
                            chunks // tiles * spec.H * spec.Q * spec.Q)
    calls = record_calls(monkeypatch)
    infer(model, tok, block_len, spec.Q, initial_states=states)

    names = {cid: name for name, cid, _ in calls}
    layers = [cid for name, cid, parent in calls if name == "stack.layer_forward"]
    assert len(layers) == spec.L * blocks
    kernels = [(cid, parent) for name, cid, parent in calls if name == "chunked.chunked_forward"]
    assert [parent for _, parent in kernels] == [cid for cid in layers for _ in range(tiles)]
    for cid, _ in kernels:
        children = [names[c] for _, c, parent in calls if parent == cid]
        assert children == list(STAGES)


def test_the_dense_route_reaches_the_kernel_through_dense_dual(monkeypatch):
    spec = ModelSpec(seed=14, L=2, d=8, H=2, N=3, vocab_size=32, Q=4)
    model = generate_model(spec)
    tok = np.random.default_rng(3).integers(0, spec.vocab_size - 1, 48)
    states = np.full((spec.L, 1, spec.H, spec.N), 0.5)  # so stage 3 runs
    calls = record_calls(monkeypatch)
    infer(model, tok, kernel="dense", initial_states=states)

    names = {cid: name for name, cid, _ in calls}
    tree = [(name, names.get(parent)) for name, _, parent in calls]
    assert tree == [("stack.layer_forward", None),
                    ("chunked.dense_dual", "stack.layer_forward"),
                    ("chunked.chunked_forward", "chunked.dense_dual"),
                    *[(stage, "chunked.chunked_forward") for stage in STAGES]] * spec.L
