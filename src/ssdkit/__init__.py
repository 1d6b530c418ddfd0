"""Memory-bounded inference engine for selective state-space sequence layers.

The same causal map is exposed three ways (a sequential recurrence, a dense
lower-triangular operator, and a chunk-decomposed evaluation whose working
set never exceeds chunk-sized blocks) plus two cross-layer schedules
(horizontal: layer at a time; vertical: fixed-length blocks through all
layers with carried states, activation memory independent of sequence
length).  Instrumentation (activation-memory ledger, per-stage flop counts),
deterministic model generation/serialization, a text-embedding head, and a
benchmarking CLI sit on top.  The sweep and equivalence harness
(``ssdkit.bench``) is loaded on first use of one of its names, not on import.
"""

import importlib

from .errors import (CapacityError, DimensionError, FormatError, IntegrityError,
                     SsdError, ValidationError)
from .core import (SsmCoefficients, build_kernel_matrix, cumulative_transition,
                   random_coefficients, recurrent_scan)
from .chunked import (DEFAULT_DENSE_LIMIT, FAULT_MODES, chunk_major, chunked_forward,
                      dense_dual, inter_chunk_correction, intra_chunk, propagate_states,
                      stage_flops, workspace_elements)
from .instrumentation import FlopCounter, MemoryLedger
from .stack import (InferenceResult, LayerParams, ModelSpec, StackedModel,
                    export_state_snapshot, generate_coefficients, horizontal_infer, infer,
                    import_state_snapshot, layer_forward, layer_shapes, vertical_infer)
from .embedding import (EmbeddingOutput, QUERY_TEMPLATE, cosine_similarity, embed_sequence,
                        format_query, info_nce_loss, tokenize_words)
from .model_io import (expected_payload_bytes, generate_model, load_model, load_model_spec,
                       load_state_snapshot, model_payload, save_model, save_model_spec,
                       save_state_snapshot)

# the names of ssdkit.bench, which no inference or embedding call uses
_BENCH_NAMES = ("STRATEGIES", "CSV_HEADER", "EquivalenceConfig", "EquivalenceReport",
                "run_equivalence", "SweepConfig", "BenchRecord", "run_sweep", "write_records",
                "read_records", "summarize_records")

__version__ = "0.1.0"

__all__ = [
    "SsdError", "DimensionError", "ValidationError", "CapacityError",
    "FormatError", "IntegrityError",
    "SsmCoefficients", "random_coefficients", "cumulative_transition",
    "build_kernel_matrix", "recurrent_scan",
    "DEFAULT_DENSE_LIMIT", "FAULT_MODES", "chunk_major", "intra_chunk",
    "propagate_states", "inter_chunk_correction", "chunked_forward", "dense_dual",
    "workspace_elements", "stage_flops",
    "FlopCounter", "MemoryLedger",
    "ModelSpec", "LayerParams", "StackedModel", "InferenceResult",
    "layer_shapes", "generate_coefficients", "layer_forward", "infer",
    "horizontal_infer", "vertical_infer",
    "export_state_snapshot", "import_state_snapshot", "save_state_snapshot",
    "load_state_snapshot",
    "QUERY_TEMPLATE", "EmbeddingOutput", "format_query",
    "tokenize_words", "embed_sequence", "cosine_similarity", "info_nce_loss",
    "generate_model", "model_payload", "expected_payload_bytes", "save_model",
    "load_model", "save_model_spec", "load_model_spec",
    *_BENCH_NAMES,
]


def __getattr__(name):
    """``ssdkit.bench`` and its names, imported on first access (PEP 562)."""
    if name == "bench" or name in _BENCH_NAMES:
        bench = importlib.import_module(".bench", __name__)
        return bench if name == "bench" else getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "bench", *_BENCH_NAMES})
