"""Deadline propagation through the sharded tier.

A request deadline is absolute (monotonic clock, system-wide on Linux)
and rides the batch descriptor into the shard, so:

* expiry while queued fails at the router, before any slot is packed;
* expiry in flight is refused by the *shard* (``expired`` message) —
  detected without burning executor time;
* a re-dispatched request inherits its **remaining** budget, not a fresh
  one — a request whose deadline passed during the first attempt fails at
  re-dispatch instead of riding a doomed retry.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.errors import RequestDeadlineError
from repro.serve import ShardConfig, ShardedServer
from repro.serve.router import _Flight, _Request

WORKLOAD, N = "opt", 8


def _row():
    return np.arange(N) % 3


class TestRouterSideExpiry:
    def test_expired_request_fails_before_any_dispatch(self):
        async def main():
            config = ShardConfig(
                shards=1, max_linger=0.05, policy=64, max_batch=64,
            )
            async with ShardedServer(config) as server:
                # A deadline far shorter than the linger window: the batch
                # builder finds it already expired when it finally pops.
                with pytest.raises(RequestDeadlineError):
                    await server.submit(
                        WORKLOAD, _row(), n=N, deadline=0.001
                    )
                return server.stats()

        stats = asyncio.run(main())
        assert stats["counters"]["requests.deadline_exceeded"] == 1
        # Failed at the router: no batch descriptor was ever built, so no
        # executor (and no shard) touched the request.
        assert stats["counters"].get("batches.dispatched", 0) == 0


class TestShardSideExpiry:
    def test_shard_refuses_expired_batch_without_executing(self):
        async def main():
            # The stall fault holds the batch inside the worker for 0.25s
            # — past the 0.1s deadline — so the *shard's* expiry check must
            # fire and answer ``expired`` instead of executing.
            config = ShardConfig(
                shards=1, max_linger=0.0, policy=1, max_batch=1,
                fault=("stall", 0, 0),
            )
            async with ShardedServer(config) as server:
                with pytest.raises(RequestDeadlineError) as excinfo:
                    await server.submit(WORKLOAD, _row(), n=N, deadline=0.1)
                return excinfo.value, server.stats()

        exc, stats = asyncio.run(main())
        assert "dropped by shard" in str(exc)
        # The batch *was* put on the wire (dispatch histogram saw it) but no
        # completion ever came back — the shard refused it pre-execution.
        dispatch = stats["histograms"]["queue.time_to_first_dispatch_seconds"]
        assert dispatch["count"] == 1
        assert stats["counters"].get("batches.dispatched", 0) == 0
        assert stats["counters"].get("requests.completed", 0) == 0
        assert stats["counters"]["requests.deadline_exceeded"] == 1


class TestRedispatchBudget:
    def test_redispatch_inherits_remaining_not_full_deadline(self):
        # Build a flight whose request had 10s of budget but whose first
        # attempt consumed it all: at re-dispatch time the *absolute*
        # deadline is in the past, and the retry must fail it immediately
        # rather than grant a fresh window.
        async def main():
            config = ShardConfig(shards=1, max_linger=0.0, policy=1, max_batch=1)
            async with ShardedServer(config) as server:
                out = await server.submit(WORKLOAD, _row(), n=N)  # warm start
                assert isinstance(out, np.ndarray)
                loop = asyncio.get_running_loop()
                now = time.monotonic()
                state = next(iter(server._queues.values()))
                expired = _Request(
                    row=np.asarray(_row(), dtype=state.program.dtype),
                    future=loop.create_future(),
                    enqueued=now - 10.0,
                    deadline=now - 0.5,    # budget spent on the lost attempt
                )
                alive = _Request(
                    row=np.asarray(_row(), dtype=state.program.dtype),
                    future=loop.create_future(),
                    enqueued=now - 10.0,
                    deadline=now + 30.0,   # plenty of budget remaining
                )
                flight = _Flight(
                    seq=10 ** 6, key=state.key, shard=0, slot=0,
                    requests=[expired, alive], lanes=2, occupancy=2,
                    width=N, units=1.0, attempts=1,
                    first_enqueued=now - 10.0,
                )
                await server._redispatch(flight)
                with pytest.raises(RequestDeadlineError):
                    await expired.future
                survivor = await alive.future
                return survivor, server.stats()

        survivor, stats = asyncio.run(main())
        # The in-budget request rode the retry and completed normally.
        assert isinstance(survivor, np.ndarray)
        assert stats["counters"]["requests.deadline_exceeded"] == 1
        assert stats["counters"]["requests.redispatched"] == 1

    def test_batch_descriptor_carries_earliest_deadline(self):
        # Two requests in one batch: the descriptor must ship the earliest
        # absolute deadline, visible in the flight the router retains.
        async def main():
            config = ShardConfig(
                shards=1, max_linger=0.05, policy=64, max_batch=64,
            )
            async with ShardedServer(config) as server:
                a = asyncio.ensure_future(
                    server.submit(WORKLOAD, _row(), n=N, deadline=5.0)
                )
                b = asyncio.ensure_future(
                    server.submit(WORKLOAD, _row(), n=N, deadline=50.0)
                )
                before = time.monotonic()
                flights = []
                while not flights:
                    await asyncio.sleep(0.005)
                    flights = list(server._inflight.values()) or flights
                    if a.done() and b.done():
                        break
                await asyncio.gather(a, b)
                return before, flights

        before, flights = asyncio.run(main())
        assert flights, "batch was never observed in flight"
        deadline = flights[0].deadline
        # min(5s, 50s) from just before dispatch — i.e. the earliest one.
        assert before + 4.0 < deadline < before + 6.0
