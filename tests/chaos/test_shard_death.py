"""Shard-failover chaos: kill a worker mid-load, lose nothing, repeat nothing.

ISSUE 6 acceptance: with a shard hard-killed (``os._exit``, no farewell
message — the FaultPlan ``("kill", shard, after)`` hook in
:mod:`repro.serve.shard`) while a closed load is in flight,

* every submitted request completes exactly once (none lost to the dead
  shard, none resolved twice by a zombie completion),
* every output is bit-identical to the unsharded/sequential run,
* the death is visible in stats: ``shards.deaths``, the re-dispatch
  counter, and the dead shard's ``alive: False``.

Deselect with ``-m "not chaos"`` for a fast lane.
"""

from __future__ import annotations

import asyncio
import os
import struct

import numpy as np
import pytest

from repro.algorithms.registry import get_spec
from repro.errors import ShardDeadError
from repro.serve import ShardConfig, ShardedServer, router, wire
from repro.serve.shard import KILL_EXIT_STATUS, shard_main
from repro.trace.interpreter import run_sequential

pytestmark = pytest.mark.chaos

WORKLOAD, N, COUNT = "prefix-sums", 16, 60


def _rows():
    spec = get_spec(WORKLOAD)
    return spec.make_inputs(np.random.default_rng(23), N, COUNT)


def _expected(rows):
    program = get_spec(WORKLOAD).build(N)
    return [
        run_sequential(program, row, collect_trace=False).memory.tobytes()
        for row in rows
    ]


def _run_with_fault(fault, *, shards=2, max_batch=8):
    rows = _rows()

    async def main():
        config = ShardConfig(
            shards=shards, max_batch=max_batch, max_linger=0.0,
            policy=max_batch, fault=fault,
        )
        async with ShardedServer(config) as server:
            results = await asyncio.gather(
                *(server.submit(WORKLOAD, row, n=N) for row in rows),
                return_exceptions=True,
            )
            return rows, results, server.stats()

    return asyncio.run(main())


class TestShardDeathMidLoad:
    def test_no_request_lost_and_outputs_bit_identical(self):
        # Shard 0 dies at its second batch, well inside the 60-request load.
        rows, results, stats = _run_with_fault(("kill", 0, 1))
        failures = [r for r in results if isinstance(r, BaseException)]
        assert not failures, f"requests lost to the dead shard: {failures[:3]}"
        assert [r.tobytes() for r in results] == _expected(rows)

        assert stats["counters"]["shards.deaths"] == 1
        assert stats["counters"]["requests.redispatched"] >= 1
        # Exactly once: completions equal submissions, no double resolution.
        assert stats["counters"]["requests.completed"] == COUNT
        assert stats["counters"]["requests.submitted"] == COUNT
        assert stats["shards"][0]["alive"] is False
        assert stats["shards"][1]["alive"] is True
        assert stats["incidents"].get("shard-death", 0) >= 1

    def test_survivor_absorbs_the_full_stream(self):
        # The dead shard's victims land on the survivor: its batch count
        # accounts for every completion.
        rows, results, stats = _run_with_fault(("kill", 0, 0))
        assert not [r for r in results if isinstance(r, BaseException)]
        assert [r.tobytes() for r in results] == _expected(rows)
        assert stats["shards"][1]["batches"] >= 1
        assert stats["shards"][0]["batches"] == 0  # died before completing any

    def test_immediate_death_of_sole_shard_fails_loud_not_silent(self):
        # With no survivor and the re-dispatch budget exhausted, requests
        # fail with ShardDeadError — never hang, never vanish.
        rows, results, stats = _run_with_fault(
            ("kill", 0, 0), shards=1, max_batch=COUNT
        )
        assert results, "load produced no outcomes at all"
        assert all(isinstance(r, ShardDeadError) for r in results)
        assert stats["counters"]["shards.deaths"] == 1
        assert stats["counters"].get("requests.completed", 0) == 0


class _TornOnSecondDone:
    """A completion pipe whose worker dies halfway through its second ``done``.

    The length header promises a 1 KiB frame but only one byte of it is
    written before the process exits, so the pipe holds a torn frame.
    """

    def __init__(self, conn) -> None:
        self.conn = conn
        self.dones = 0

    def send(self, msg) -> None:
        if msg[0] == wire.MSG_DONE:
            self.dones += 1
            if self.dones == 2:
                os.write(self.conn.fileno(), struct.pack("!i", 1024) + b"\x80")
                os._exit(KILL_EXIT_STATUS)
        self.conn.send(msg)

    def close(self) -> None:
        self.conn.close()


def _shard_0_dies_mid_write(shard_id, work_queue, done, **kwargs):
    if shard_id == 0:
        done = _TornOnSecondDone(done)
    shard_main(shard_id, work_queue, done, **kwargs)


class TestDeathMidWrite:
    def test_shard_killed_mid_write_never_silences_a_sibling(self, monkeypatch):
        # Each shard owns its completion channel, so a worker that dies
        # while writing tears only its own: the survivor's completions keep
        # arriving, the victims re-dispatch onto it, and nothing hangs.
        monkeypatch.setattr(router, "shard_main", _shard_0_dies_mid_write)
        rows = _rows()

        async def main():
            config = ShardConfig(
                shards=2, slots=1, max_batch=4, max_linger=0.0, policy=4,
            )
            async with ShardedServer(config) as server:
                results = await asyncio.wait_for(asyncio.gather(
                    *(server.submit(WORKLOAD, row, n=N) for row in rows),
                    return_exceptions=True,
                ), timeout=30.0)
                return results, server.stats()

        results, stats = asyncio.run(main())
        assert not [r for r in results if isinstance(r, BaseException)]
        assert [r.tobytes() for r in results] == _expected(rows)
        assert stats["counters"]["shards.deaths"] == 1
        assert stats["counters"]["requests.completed"] == COUNT
        assert stats["shards"][0]["alive"] is False
        assert stats["shards"][0]["batches"] == 1   # the torn second never lands
        assert stats["shards"][1]["alive"] is True
        assert stats["shards"][1]["batches"] >= 1
