"""Arrangement selection — choose the layout before paying for it.

Theorem 2 says column-wise always wins *on the UMM*; on other substrates
(a sequential per-input loop, a cache-based CPU) the ordering can invert —
see the ``abl-native-layout`` bench.  This module offers both selection
modes:

* :func:`best_arrangement_model` — argmin of the simulated UMM time
  (instant, exact; always "column" for `w > 1`, by the theorem — the
  function exists so callers state intent rather than hard-code folklore);
* :func:`best_arrangement_measured` — time a trial run of each candidate
  arrangement on the actual executor and pick the winner (the autotuning
  pattern real GPU kernels use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..errors import ExecutionError
from ..machine.params import MachineParams
from ..trace.ir import Program
from .engine import BulkExecutor
from .simulate import simulate_bulk

__all__ = [
    "ArrangementChoice",
    "best_arrangement_model",
    "best_arrangement_measured",
]

_DEFAULT_CANDIDATES = ("column", "row")


@dataclass(frozen=True)
class ArrangementChoice:
    """Outcome of an arrangement selection."""

    winner: str
    scores: Dict[str, float]  # arrangement -> time (units or seconds)
    mode: str  # "model" or "measured"

    @property
    def margin(self) -> float:
        """Runner-up time over winner time (1.0 = tie)."""
        ordered = sorted(self.scores.values())
        return ordered[1] / ordered[0] if len(ordered) > 1 and ordered[0] else 1.0


def best_arrangement_model(
    program: Program,
    params: MachineParams,
    candidates: Sequence[str] = _DEFAULT_CANDIDATES,
) -> ArrangementChoice:
    """Choose by exact UMM time units (Theorem 2 made executable)."""
    if not candidates:
        raise ExecutionError("no candidate arrangements")
    scores = {
        arrangement: float(simulate_bulk(program, params, arrangement).total_time)
        for arrangement in candidates
    }
    winner = min(scores, key=scores.__getitem__)
    return ArrangementChoice(winner=winner, scores=scores, mode="model")


def best_arrangement_measured(
    program: Program,
    inputs: np.ndarray,
    candidates: Sequence[str] = _DEFAULT_CANDIDATES,
    *,
    trials: int = 3,
) -> ArrangementChoice:
    """Choose by wall clock on the real executor (autotuning).

    Runs each candidate ``trials`` times on ``inputs`` and keeps the best
    time per candidate.  The executors are discarded afterwards; build a
    fresh :class:`BulkExecutor` with the winner for production use.
    """
    import time

    arr = np.asarray(inputs, dtype=program.dtype)
    if arr.ndim != 2:
        raise ExecutionError(f"expected (p, k) inputs, got shape {arr.shape}")
    if trials < 1:
        raise ExecutionError(f"trials must be >= 1, got {trials}")
    if not candidates:
        raise ExecutionError("no candidate arrangements")
    scores: Dict[str, float] = {}
    for arrangement in candidates:
        executor = BulkExecutor(program, arr.shape[0], arrangement)
        best = float("inf")
        executor.run(arr)  # warm-up
        for _ in range(trials):
            t0 = time.perf_counter()
            executor.run(arr)
            best = min(best, time.perf_counter() - t0)
        scores[arrangement] = best
    winner = min(scores, key=scores.__getitem__)
    return ArrangementChoice(winner=winner, scores=scores, mode="measured")
