"""Grid execution: more inputs than machine threads (CUDA time sharing).

Section V: "a single kernel called to GeForce GTX Titan can run more than
2688 threads in a time sharing manner" — the paper's sweeps take ``p`` far
beyond the physical thread count.  :class:`GridExecutor` models this: the
``p`` inputs are partitioned into *blocks* of ``block_size`` threads, the
machine runs ``resident_blocks`` of them concurrently, and the whole grid
executes in ``ceil(#blocks / resident_blocks)`` rounds.

Semantics plane: blocks are independent (one input per thread), so the grid
run is just chunked bulk execution — results are identical to one giant
bulk run, which the tests assert.  Cost plane: each round is a full bulk
execution on the resident machine; rounds serialise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError, MachineConfigError
from ..machine.params import MachineParams
from ..trace.ir import Program
from .engine import BulkExecutor
from .simulate import simulate_bulk

__all__ = ["GridConfig", "GridExecutor", "grid_time_units"]


@dataclass(frozen=True, slots=True)
class GridConfig:
    """Grid geometry: blocks of threads on a machine with bounded residency.

    Parameters
    ----------
    block_size:
        Threads per block (the paper uses 64-thread CUDA blocks).
    resident_blocks:
        Blocks the machine can run concurrently (GTX Titan: 2688 cores /
        64 = 42 blocks).
    """

    block_size: int
    resident_blocks: int

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise MachineConfigError(
                f"block_size must be positive, got {self.block_size}"
            )
        if self.resident_blocks <= 0:
            raise MachineConfigError(
                f"resident_blocks must be positive, got {self.resident_blocks}"
            )

    @property
    def resident_threads(self) -> int:
        """Concurrent threads: one bulk round's width."""
        return self.block_size * self.resident_blocks

    def num_blocks(self, p: int) -> int:
        """Blocks needed for ``p`` inputs."""
        return -(-p // self.block_size)

    def num_rounds(self, p: int) -> int:
        """Sequential rounds needed for ``p`` inputs."""
        return -(-self.num_blocks(p) // self.resident_blocks)


class GridExecutor:
    """Bulk execution of ``p`` inputs through time-shared rounds."""

    def __init__(
        self,
        program: Program,
        config: GridConfig,
        arrangement: str = "column",
    ) -> None:
        self.program = program
        self.config = config
        self.arrangement = arrangement
        self._round_executor = BulkExecutor(
            program, config.resident_threads, arrangement
        )

    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Run all inputs, ``resident_threads`` at a time.

        The final (possibly partial) round is padded with zero inputs and
        the padding discarded — matching a grid whose last block has idle
        threads.
        """
        arr = np.asarray(inputs, dtype=self.program.dtype)
        if arr.ndim != 2:
            raise ExecutionError(f"expected (p, k) inputs, got shape {arr.shape}")
        p, k = arr.shape
        chunk = self.config.resident_threads
        out = np.empty((p, self.program.output_words), dtype=self.program.dtype)
        for lo in range(0, p, chunk):
            piece = arr[lo : lo + chunk]
            if piece.shape[0] < chunk:
                padded = np.zeros((chunk, k), dtype=arr.dtype)
                padded[: piece.shape[0]] = piece
                out[lo:] = self._round_executor.run(padded).outputs[: piece.shape[0]]
            else:
                out[lo : lo + chunk] = self._round_executor.run(piece).outputs
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GridExecutor({self.program.name!r}, block={self.config.block_size}, "
            f"resident={self.config.resident_blocks}, {self.arrangement})"
        )


def grid_time_units(
    program: Program,
    p: int,
    config: GridConfig,
    machine_width: int,
    machine_latency: int,
    arrangement: str = "column",
) -> int:
    """Model cost of a time-shared grid run.

    Each round is a bulk execution with ``resident_threads`` threads on the
    UMM; rounds serialise, so the total is ``rounds × round_cost``.  This
    produces exactly the flat-then-linear curves of Figures 11/12: cost is
    one round (flat) until ``p`` exceeds the resident thread count, then
    grows linearly in the number of rounds.
    """
    if p <= 0:
        raise ExecutionError(f"p must be positive, got {p}")
    resident = config.resident_threads
    params = MachineParams(p=resident, w=machine_width, l=machine_latency)
    per_round = simulate_bulk(program, params, arrangement).total_time
    return config.num_rounds(p) * per_round
