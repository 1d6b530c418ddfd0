"""Activation-memory and arithmetic instrumentation.

The memory ledger states the activation footprint of an inference call in
closed form, from the block shapes alone.  Each module describes only its
own buffers: ``chunked.workspace_elements`` is the peak a kernel call holds
beyond its inputs, its output included, and ``stack`` adds the layer's
buffers around it (the block's one residual stream u, which each layer's
output overwrites, and one tile's normalized un, coefficients a, B, C and
x, kernel output y and output projection) and the carried (L, batch, H, N)
states.  Model parameters, token ids, buffers handed back to the caller,
and elementwise temporaries inside one expression are not counted.  Only
``infer`` writes a ledger.

The flop counter tallies multiply-accumulate counts per stage of the
block-decomposed kernel (intra-chunk, state propagation, cross-chunk
correction), also in closed form: ``chunked.stage_flops`` of each kernel
call's shape alone (stage 3 reads out every chunk, the first from the state
passed in or a zero state).  Only ``infer`` counts; the kernels do not, so
counting costs them nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FlopCounter", "MemoryLedger"]


@dataclass
class FlopCounter:
    """Multiply-accumulate tallies per kernel stage."""

    intra: int = 0
    propagate: int = 0
    inter: int = 0

    @property
    def total(self) -> int:
        return self.intra + self.propagate + self.inter


@dataclass
class MemoryLedger:
    """Activation float64 element counts of one inference call.

    peak_elements is the largest footprint while it runs,
    per_layer_state_elements the carried state buffer.
    """

    peak_elements: int = 0
    per_layer_state_elements: int = 0

