"""Streaming bulk execution: feed inputs as they arrive, drain results.

The paper's FFT motivation is a *stream* "equally partitioned into many
blocks".  :class:`BulkSession` is the convenience layer for that usage: it
accumulates inputs until a full batch of ``p`` is available, runs the bulk
executor, and yields results in arrival order — so a producer/consumer
pipeline never hand-manages batch boundaries.  ``flush()`` handles the
final partial batch by padding (idle threads), mirroring a grid whose last
block is partially full.

Sessions are context managers: a clean ``with`` exit flushes the trailing
partial batch into :attr:`BulkSession.flushed`, an exceptional exit —
including a ``KeyboardInterrupt`` arriving mid-batch — discards pending
inputs (half-fed work is never silently executed later) *and* closes the
underlying executor, releasing its compiled-kernel handle.
:attr:`BulkSession.stats` summarises the session's work — batches run,
inputs fed/executed, pad lanes wasted on partial batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Union

import numpy as np

from ..errors import ExecutionError
from ..reliability.guard import GuardPolicy
from ..trace.ir import Program
from .engine import BulkExecutor

__all__ = ["BulkSession", "SessionStats"]


@dataclass(frozen=True)
class SessionStats:
    """What a :class:`BulkSession` did so far.

    Attributes
    ----------
    batches_run:
        Bulk rounds executed (full batches + flushed partials).
    inputs_fed:
        Inputs accepted by :meth:`~BulkSession.feed` (including ones still
        pending).
    inputs_processed:
        Inputs actually executed and yielded.
    pad_lanes_wasted:
        Idle lanes burned on padded partial batches — the streaming
        analogue of a grid whose last block is not full.
    """

    batches_run: int
    inputs_fed: int
    inputs_processed: int
    pad_lanes_wasted: int

    @property
    def utilization(self) -> float:
        """Fraction of executed lanes that carried real inputs (1.0 if idle)."""
        lanes = self.inputs_processed + self.pad_lanes_wasted
        return self.inputs_processed / lanes if lanes else 1.0


class BulkSession:
    """Batch-accumulating front end over a :class:`BulkExecutor`.

    Parameters
    ----------
    program:
        The oblivious program to run.
    batch:
        Inputs per bulk round (the executor's ``p``).
    arrangement:
        Memory arrangement of each round (default column-wise).
    backend:
        Execution backend of the underlying executor (``"numpy"``,
        ``"native"`` or ``"auto"`` — see :class:`BulkExecutor`).
    guard:
        Guard policy forwarded to the executor (``None``, ``"spot"`` or a
        :class:`~repro.reliability.GuardPolicy`) — see
        :class:`BulkExecutor`.
    tile / threads:
        Native-backend tuning knobs forwarded to the executor (``None``
        defers to ``REPRO_NATIVE_TILE`` / ``REPRO_NATIVE_THREADS``, then
        the library default tile and one thread) — see
        :class:`BulkExecutor`.

    Example::

        with BulkSession(build_fft(64), batch=1024) as session:
            for block in stream_blocks():
                for spectrum in session.feed(block):
                    consume(spectrum)
        for spectrum in session.flushed:   # trailing partial batch
            consume(spectrum)
    """

    def __init__(
        self,
        program: Program,
        batch: int,
        arrangement: str = "column",
        backend: str = "numpy",
        guard: Union[None, str, GuardPolicy] = None,
        tile: Optional[int] = None,
        threads: Optional[int] = None,
    ) -> None:
        if batch <= 0:
            raise ExecutionError(f"batch must be positive, got {batch}")
        self.program = program
        self.batch = int(batch)
        self._executor = BulkExecutor(
            program, self.batch, arrangement, backend=backend, guard=guard,
            tile=tile, threads=threads,
        )
        self._pending: List[np.ndarray] = []
        self._input_width: Optional[int] = None
        self.rounds_run = 0
        self.inputs_processed = 0
        self.inputs_fed = 0
        self.pad_lanes_wasted = 0
        #: Results drained by a clean ``with`` exit (see class docstring).
        self.flushed: List[np.ndarray] = []

    # -- context management --------------------------------------------------
    def __enter__(self) -> "BulkSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flushed = list(self.flush())
        else:
            # Exceptional exit (KeyboardInterrupt included): never execute
            # half-fed work later, and never leak the kernel handle.
            self.close()
        return None

    def close(self) -> None:
        """Discard pending inputs and close the executor (idempotent)."""
        self._pending.clear()
        self._executor.close()

    @property
    def closed(self) -> bool:
        """Has the underlying executor been closed?"""
        return self._executor.closed

    # -- observability -------------------------------------------------------
    @property
    def stats(self) -> SessionStats:
        """Batches run, inputs fed/executed, pad lanes wasted so far."""
        return SessionStats(
            batches_run=self.rounds_run,
            inputs_fed=self.inputs_fed,
            inputs_processed=self.inputs_processed,
            pad_lanes_wasted=self.pad_lanes_wasted,
        )

    @property
    def backend(self) -> str:
        """The underlying executor's current backend (may have degraded)."""
        return self._executor.backend

    # -- feeding -----------------------------------------------------------
    def _coerce(self, item) -> np.ndarray:
        if self.closed:
            raise ExecutionError(
                "session is closed; half-fed work is never executed later"
            )
        row = np.asarray(item, dtype=self.program.dtype).ravel()
        if row.size > self.program.memory_words:
            raise ExecutionError(
                f"input of {row.size} words exceeds program memory "
                f"({self.program.memory_words} words)"
            )
        if self._input_width is None:
            self._input_width = row.size
        elif row.size != self._input_width:
            raise ExecutionError(
                f"inconsistent input width: got {row.size}, session started "
                f"with {self._input_width}"
            )
        self.inputs_fed += 1
        return row

    def feed(self, *items) -> Iterator[np.ndarray]:
        """Add inputs; yield any results completed by full batches.

        Accepts single inputs, several inputs, or 2-D arrays of inputs.
        Results come back in arrival order, one ``output_words`` array per
        input (the program's declared outputs; its whole memory when none).
        """
        for item in items:
            arr = np.asarray(item)
            rows = arr if arr.ndim == 2 else [arr]
            for row in rows:
                self._pending.append(self._coerce(row))
                if len(self._pending) == self.batch:
                    yield from self._run(self._pending)
                    self._pending = []

    def feed_iter(self, items: Iterable) -> Iterator[np.ndarray]:
        """Stream from an iterable (generator-friendly :meth:`feed`)."""
        for item in items:
            yield from self.feed(item)

    # -- draining -----------------------------------------------------------
    def flush(self) -> Iterator[np.ndarray]:
        """Run the final partial batch (if any), padding idle lanes."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        yield from self._run(pending)

    def _run(self, rows: List[np.ndarray]) -> Iterator[np.ndarray]:
        width = self._input_width or 0
        block = np.empty((len(rows), width), dtype=self.program.dtype)
        for i, row in enumerate(rows):
            block[i] = row
        # run_trimmed pads idle lanes and trims the outputs, so a padded
        # partial batch never leaks its idle-lane rows to the consumer.
        outputs = self._executor.run_trimmed(block)
        self.rounds_run += 1
        self.inputs_processed += len(rows)
        self.pad_lanes_wasted += self.batch - len(rows)
        yield from outputs

    @property
    def pending(self) -> int:
        """Inputs waiting for the next full batch."""
        return len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BulkSession({self.program.name!r}, batch={self.batch}, "
            f"pending={self.pending}, rounds={self.rounds_run})"
        )
