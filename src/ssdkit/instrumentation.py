"""Activation-memory and arithmetic instrumentation.

A Probe carries both instruments through the kernels and layers.  The
memory ledger models the live activation footprint of an inference
schedule: code allocates its working buffers through the probe, and the
ledger records current and peak element counts.  The accounting boundary
is deliberate: model parameters, token ids, and buffers handed back to the
caller are not charged, and neither are transient elementwise temporaries
inside vectorized expressions.  What is charged is every buffer the
algorithm itself must keep alive: layer inputs/outputs, coefficient tensors,
chunk workspaces, boundary-state chains, and carried per-layer states.

The flop counter tallies multiply-accumulate counts per stage of the
block-decomposed kernel (intra-chunk, state propagation, cross-chunk
correction).  Counts are derived from closed-form per-chunk formulas, so they
are exact, deterministic, and platform independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SsdError

__all__ = ["FlopCounter", "MemoryLedger", "Probe", "UNTRACKED"]


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
    """Live / peak counts of activation scalars charged through a probe."""

    current_elements: int = 0
    peak_elements: int = 0
    per_layer_state_elements: int = 0

    def charge(self, n: int) -> None:
        self.current_elements += int(n)
        if self.current_elements > self.peak_elements:
            self.peak_elements = self.current_elements

    def discharge(self, n: int) -> None:
        self.current_elements -= int(n)
        if self.current_elements < 0:
            raise SsdError("ledger discharge below zero: release without matching allocate")


class Probe:
    """The memory ledger and flop counter of one instrumented call.

    ``allocate`` hands out fresh float64 buffers; ``track``/``release`` charge
    and discharge arrays that were created elsewhere; ``count`` adds stage
    flops.  A probe built with tracking=False writes nothing: UNTRACKED is
    the shared default, so library entry points work without instrumentation.
    """

    def __init__(self, *, tracking: bool = True):
        self.ledger = MemoryLedger()
        self.flops = FlopCounter()
        self.tracking = tracking

    def allocate(self, shape, *, zero: bool = False) -> np.ndarray:
        arr = np.zeros(shape, dtype=np.float64) if zero else np.empty(shape, dtype=np.float64)
        self.track(arr)
        return arr

    def track(self, arr: np.ndarray) -> None:
        if self.tracking:
            self.ledger.charge(arr.size)

    def release(self, arr: np.ndarray) -> None:
        if self.tracking:
            self.ledger.discharge(arr.size)

    def count(self, *, intra: int = 0, propagate: int = 0, inter: int = 0) -> None:
        if self.tracking:
            self.flops.intra += intra
            self.flops.propagate += propagate
            self.flops.inter += inter


UNTRACKED = Probe(tracking=False)
