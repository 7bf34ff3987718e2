"""Hot paths read program facts; they never re-walk the instructions.

``Program.trace_length`` prices every batch the serving tier dispatches
and every ``BulkResult`` the engine returns.  A program's instructions
are immutable, so after construction and one warm-up run nothing on the
run, batch, ``stats()`` or placement path may iterate them again.  The
program here carries a tuple subclass that counts its ``__iter__`` calls.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.bulk import BulkExecutor
from repro.codegen.compile import have_compiler
from repro.serve import BulkServer, ShardConfig, ShardedServer
from repro.trace.builder import ProgramBuilder


class _CountingInstructions(tuple):
    """An instruction tuple that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _counting_program(words: int = 4):
    b = ProgramBuilder(memory_words=words, name="walk-counter")
    for i in range(words):
        b.store(i, b.load(i) + b.load(i))
    program = b.build()
    return dataclasses.replace(
        program, instructions=_CountingInstructions(program.instructions)
    )


def _rows(count: int, words: int = 4) -> np.ndarray:
    return np.arange(count * words, dtype=np.float64).reshape(count, words)


def test_counting_tuple_sees_a_walk():
    program = _counting_program()
    program.trace_length
    assert program.instructions.walks == 1
    program.trace_length
    assert program.instructions.walks == 1


def test_numpy_runs_do_not_walk():
    program = _counting_program()
    executor = BulkExecutor(program, 8, "column", backend="numpy")
    rows = _rows(8)
    executor.run(rows)
    executor.run_trimmed(rows[:3])
    program.instructions.walks = 0
    for _ in range(3):
        result = executor.run(rows)
        executor.run_trimmed(rows[:5])
    np.testing.assert_array_equal(result.outputs, rows * 2)
    assert result.trace_length == program.trace_length
    assert program.instructions.walks == 0
    executor.close()


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
def test_guarded_native_runs_do_not_walk():
    program = _counting_program()
    executor = BulkExecutor(
        program, 8, "column", backend="native", guard="spot"
    )
    rows = _rows(8)
    executor.run(rows)
    program.instructions.walks = 0
    for _ in range(3):
        result = executor.run(rows)
    assert executor.backend == "native"
    np.testing.assert_array_equal(result.outputs, rows * 2)
    assert program.instructions.walks == 0
    executor.close()


def test_bulk_server_batches_and_stats_do_not_walk():
    program = _counting_program()

    async def main():
        async with BulkServer(max_batch=32, max_linger=0.005) as server:
            await asyncio.gather(
                *(server.submit(program, row) for row in _rows(4))
            )
            program.instructions.walks = 0
            for _ in range(3):
                outs = await asyncio.gather(
                    *(server.submit(program, row) for row in _rows(6))
                )
            return outs, server.stats()

    outs, stats = asyncio.run(main())
    for row, out in zip(_rows(6), outs):
        np.testing.assert_array_equal(out, row * 2)
    assert stats["counters"]["batches.dispatched"] >= 4
    assert program.instructions.walks == 0


def test_sharded_router_pricing_does_not_walk():
    program = _counting_program()

    async def main():
        config = ShardConfig(shards=1, max_batch=32, max_linger=0.005)
        async with ShardedServer(config) as server:
            await asyncio.gather(
                *(server.submit(program, row) for row in _rows(4))
            )
            program.instructions.walks = 0
            for _ in range(3):
                outs = await asyncio.gather(
                    *(server.submit(program, row) for row in _rows(6))
                )
            return outs, server.stats()

    outs, stats = asyncio.run(main())
    for row, out in zip(_rows(6), outs):
        np.testing.assert_array_equal(out, row * 2)
    assert stats["counters"]["batches.dispatched"] >= 4
    assert program.instructions.walks == 0
