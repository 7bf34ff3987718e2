"""The single-CPU baseline of Figures 11 and 12.

The paper times "Algorithm Prefix-sums executed p times on the Intel Core
i7 CPU" — the same sequential program, one input after another.  Our
analogue runs the identical oblivious IR through the sequential interpreter
per input, so GPU-vs-CPU comparisons hold the *program* fixed and vary only
the execution strategy (the quantity the paper isolates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError
from ..trace.interpreter import run_sequential, run_sequential_batch
from ..trace.ir import Program

__all__ = ["SequentialBaseline"]


@dataclass
class SequentialBaseline:
    """Runs an oblivious program for ``p`` inputs *in turn* on one RAM.

    The model-level cost is ``p · t`` time units (a RAM completes one
    fundamental operation per time unit, and the paper's CPU curves are
    "proportional to p because it runs O(pn) time") — linear in ``p`` from
    the very first input, which is what the GPU's flat-then-linear curves
    are compared against in Figures 11 and 12.
    """

    program: Program

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Every input's declared output words, shape ``(p,
        output_words)`` — the bulk engines' image (the whole final memory
        when the program declares no outputs)."""
        out, _ = run_sequential_batch(self.program, np.asarray(inputs))
        if self.program.outputs is None:
            return out
        return out[:, self.program.output_index()]

    def run_one(self, input_row: np.ndarray) -> np.ndarray:
        """One input's final memory (convenience for spot checks)."""
        return run_sequential(self.program, input_row, collect_trace=False).memory

    def model_time_units(self, p: int) -> int:
        """Model cost of the in-turn execution: ``p · t``."""
        if p < 0:
            raise ExecutionError(f"p must be >= 0, got {p}")
        return p * self.program.trace_length
