"""The broker contract: coalescing, identity, backpressure, deadlines, shutdown.

``BulkServer`` and ``ShardedServer`` share one broker core, so the
``*Contract`` classes run against both placements: each ``Test*`` class
binds ``server`` to the in-process server (plus any in-process-only
tests), each ``TestSharded*`` class to a one-shard fleet.

The suite drives the event loop with ``asyncio.run`` (no pytest-asyncio in
the toolchain).  The acceptance-criterion test is
``test_served_outputs_replay_bit_identical_to_sequential``: every response
the server hands out must equal the sequential baseline on the same input,
bit for bit.
"""

from __future__ import annotations

import asyncio
import functools
import os

import numpy as np
import pytest

from repro.algorithms.registry import get_spec
from repro.errors import (
    ExecutionError,
    RequestDeadlineError,
    ServeError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.reliability import incidents
from repro.serve import BulkServer, FixedPolicy, ServeConfig, ShardedServer
from repro.trace.interpreter import run_sequential


def _sequential(program, row: np.ndarray) -> np.ndarray:
    return run_sequential(program, row, collect_trace=False).memory


def _inputs(workload: str, n: int, count: int, seed: int = 7) -> np.ndarray:
    spec = get_spec(workload)
    return spec.make_inputs(np.random.default_rng(seed), n, count)


# -- coalescing and correctness --------------------------------------------------

class CoalescingAndIdentityContract:
    """Queue resolution, coalescing and bit-identity (both placements)."""

    def test_concurrent_submissions_coalesce_into_one_batch(self):
        rows = _inputs("prefix-sums", 16, 40)
        program = get_spec("prefix-sums").build(16)

        async def main():
            async with self.server(max_linger=0.05, max_pending=64) as server:
                outs = await asyncio.gather(
                    *(server.submit("prefix-sums", row, n=16) for row in rows)
                )
                return outs, server.stats()

        outs, stats = asyncio.run(main())
        # 40 requests arriving together ride a single bulk dispatch...
        assert stats["counters"]["batches.dispatched"] == 1
        assert stats["counters"]["requests.completed"] == 40
        # ...padded up to the warp multiple (64 lanes, 24 idle).
        assert stats["counters"]["lanes.padded"] == 24
        # Results come back per-request, in submission order, bit-identical
        # to the sequential baseline.
        for row, out in zip(rows, outs):
            assert out.tobytes() == _sequential(program, row).tobytes()

    def test_served_outputs_replay_bit_identical_to_sequential(self):
        # Acceptance criterion: record every (input, output) the server
        # hands out, then replay the inputs through the sequential
        # interpreter and require bit-identity.
        workloads = [("prefix-sums", 16), ("bitonic-sort", 4)]

        async def main():
            async with self.server(max_linger=0.002, record=True) as server:
                jobs = []
                for seed, (name, n) in enumerate(workloads):
                    for row in _inputs(name, n, 12, seed=seed):
                        jobs.append(server.submit(name, row, n=n))
                await asyncio.gather(*jobs)
                return list(server.served)

        served = asyncio.run(main())
        assert len(served) == 24
        programs = {f"{name}:{n}": get_spec(name).build(n)
                    for name, n in workloads}
        for key, row, output in served:
            expected = _sequential(programs[key], row)
            assert output.tobytes() == expected.tobytes()

    def test_distinct_workloads_get_distinct_queues(self):
        async def main():
            async with self.server(max_linger=0.002) as server:
                a = server.submit("prefix-sums", np.ones(8), n=8)
                b = server.submit("matmul", np.ones(2 * 2 * 2), n=2)
                await asyncio.gather(a, b)
                return server.stats()

        stats = asyncio.run(main())
        assert sorted(stats["queues"]) == ["matmul:2", "prefix-sums:8"]
        assert stats["counters"]["batches.dispatched"] == 2

    def test_workload_shorthand_and_program_and_register(self):
        program = get_spec("prefix-sums").build(8)
        row = np.arange(8, dtype=program.dtype)
        expected = _sequential(program, row)

        async def main():
            async with self.server(max_linger=0.001) as server:
                server.register("mine", program)
                shorthand = await server.submit("prefix-sums:8", row)
                by_program = await server.submit(program, row)
                registered = await server.submit("mine", row)
                return shorthand, by_program, registered

        for out in asyncio.run(main()):
            assert out.tobytes() == expected.tobytes()

    def test_unregistered_workload_without_n_rejected(self):
        async def main():
            async with self.server() as server:
                with pytest.raises(ServeError, match="not registered"):
                    await server.submit("prefix-sums", np.ones(8))

        asyncio.run(main())

    def test_oversized_input_rejected_at_submit(self):
        async def main():
            async with self.server() as server:
                with pytest.raises(ExecutionError, match="exceeds program"):
                    await server.submit("prefix-sums", np.ones(10_000), n=8)

        asyncio.run(main())


class TestCoalescingAndIdentity(CoalescingAndIdentityContract):
    server = BulkServer


# -- backpressure ---------------------------------------------------------------

class BackpressureContract:
    """Bounded queues shed with a typed, hinted error (both placements)."""

    def test_bounded_queue_rejects_with_typed_error(self):
        rows = _inputs("prefix-sums", 8, 3)

        async def main():
            # Long linger + fill-to-cap policy keep requests queued.
            async with self.server(
                max_pending=2, max_linger=5.0, policy="full"
            ) as server:
                pending = [
                    asyncio.ensure_future(
                        server.submit("prefix-sums", row, n=8)
                    )
                    for row in rows[:2]
                ]
                await asyncio.sleep(0)  # let both enqueue
                with pytest.raises(ServerOverloadedError) as excinfo:
                    await server.submit("prefix-sums", rows[2], n=8)
                overload_error = excinfo.value
                # A second rejection in the same episode: no new incident.
                with pytest.raises(ServerOverloadedError):
                    await server.submit("prefix-sums", rows[2], n=8)
                stats = server.stats()
                await server.stop(drain=True)  # drain resolves the two
                outs = await asyncio.gather(*pending)
                return overload_error, stats, outs

        error, stats, outs = asyncio.run(main())
        assert error.key == "prefix-sums:8"
        assert error.depth == 2
        assert stats["counters"]["requests.rejected_overload"] == 2
        assert stats["incidents"] == {"server-overload": 1}
        assert [i.kind for i in incidents()] == ["server-overload"]
        assert len(outs) == 2 and all(o.shape == (8,) for o in outs)

    def test_zero_linger_overload_hints_a_positive_retry_after(self):
        # max_linger=0 (the single-lane baseline) must not tell a shed
        # client to retry immediately.
        rows = _inputs("prefix-sums", 8, 2)

        async def main():
            async with self.server(max_pending=1, max_linger=0.0) as server:
                return await asyncio.gather(
                    *(server.submit("prefix-sums", row, n=8) for row in rows),
                    return_exceptions=True,
                )

        served, shed = asyncio.run(main())
        assert isinstance(served, np.ndarray)
        assert isinstance(shed, ServerOverloadedError)
        assert shed.retry_after > 0


class TestBackpressure(BackpressureContract):
    server = BulkServer


# -- deadlines and cancellation --------------------------------------------------

class DeadlinesAndCancellationContract:
    """Expiry before dispatch and cancellation (both placements)."""

    def test_expired_deadline_fails_typed(self):
        async def main():
            async with self.server(
                max_linger=0.05, policy="full"
            ) as server:
                with pytest.raises(RequestDeadlineError, match="expired"):
                    await server.submit(
                        "prefix-sums", np.ones(8), n=8, deadline=0.005
                    )
                return server.stats()

        stats = asyncio.run(main())
        assert stats["counters"]["requests.deadline_exceeded"] == 1
        assert stats["counters"].get("requests.completed", 0) == 0

    def test_cancelled_request_dropped_from_batch(self):
        async def main():
            async with self.server(max_linger=0.05, policy="full") as server:
                doomed = asyncio.ensure_future(
                    server.submit("prefix-sums", np.ones(8), n=8)
                )
                survivor = asyncio.ensure_future(
                    server.submit("prefix-sums", np.full(8, 2.0), n=8)
                )
                await asyncio.sleep(0)
                doomed.cancel()
                out = await survivor
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                return out, server.stats()

        out, stats = asyncio.run(main())
        assert stats["counters"]["requests.cancelled"] == 1
        # The surviving request still completed, alone in its batch.
        assert stats["counters"]["requests.completed"] == 1
        assert out[-1] == pytest.approx(16.0)  # sum of eight 2.0s, in place


class TestDeadlinesAndCancellation(DeadlinesAndCancellationContract):
    server = BulkServer


# -- failure containment ---------------------------------------------------------

class TestBatchFailure:
    def test_batch_failure_fails_only_that_batch(self, monkeypatch):
        async def main():
            async with BulkServer(max_linger=0.002) as server:
                monkeypatch.setattr(
                    BulkServer,
                    "_run_batch",
                    lambda self, q, lanes, block: (_ for _ in ()).throw(
                        ExecutionError("injected engine failure")
                    ),
                )
                with pytest.raises(ServeError, match="batch execution failed"):
                    await server.submit("prefix-sums", np.ones(8), n=8)
                monkeypatch.undo()
                # The server survives and serves the next batch normally.
                out = await server.submit("prefix-sums", np.ones(8), n=8)
                return out, server.stats()

        out, stats = asyncio.run(main())
        assert stats["counters"]["requests.failed"] == 1
        assert stats["counters"]["requests.completed"] == 1
        assert stats["incidents"] == {"batch-failure": 1}
        assert out[:8].tolist() == list(range(1, 9))


# -- shutdown -------------------------------------------------------------------

class ShutdownContract:
    """Drain, abandon and refuse after stop (both placements)."""

    def test_stop_drains_pending_requests(self):
        rows = _inputs("prefix-sums", 8, 5)
        program = get_spec("prefix-sums").build(8)

        async def main():
            server = self.server(max_linger=10.0, policy="full")
            pending = [
                asyncio.ensure_future(server.submit("prefix-sums", row, n=8))
                for row in rows
            ]
            await asyncio.sleep(0)
            await server.stop()  # drain=True: every accepted request answered
            outs = await asyncio.gather(*pending)
            return outs, server

        outs, server = asyncio.run(main())
        for row, out in zip(rows, outs):
            assert out.tobytes() == _sequential(program, row).tobytes()
        assert not server.running

    def test_stop_without_drain_abandons_pending(self):
        async def main():
            server = self.server(max_linger=10.0, policy="full")
            pending = asyncio.ensure_future(
                server.submit("prefix-sums", np.ones(8), n=8)
            )
            await asyncio.sleep(0)
            await server.stop(drain=False)
            with pytest.raises(ServerClosedError, match="without draining"):
                await pending
            return server

        server = asyncio.run(main())
        assert not server.running

    def test_submit_after_stop_refused(self):
        async def main():
            server = self.server()
            await server.stop()
            await server.stop()  # idempotent
            with pytest.raises(ServerClosedError):
                await server.submit("prefix-sums", np.ones(8), n=8)

        asyncio.run(main())

    def test_exceptional_context_exit_abandons(self):
        # Mirrors BulkSession's rule: an exception (KeyboardInterrupt
        # included) must not silently execute half-fed work later.
        async def main():
            pending = {}
            with pytest.raises(KeyboardInterrupt):
                async with self.server(max_linger=10.0, policy="full") as server:
                    pending["task"] = asyncio.ensure_future(
                        server.submit("prefix-sums", np.ones(8), n=8)
                    )
                    await asyncio.sleep(0)
                    raise KeyboardInterrupt()
            with pytest.raises(ServerClosedError):
                await pending["task"]
            return server

        server = asyncio.run(main())
        assert not server.running


class TestShutdown(ShutdownContract):
    server = BulkServer

    def test_stop_closes_executors(self):
        async def main():
            server = BulkServer(max_linger=0.001)
            await server.submit("prefix-sums", np.ones(8), n=8)
            executors = [
                ex
                for q in server._queues.values()
                for ex in q.executors.values()
            ]
            await server.stop()
            return executors

        executors = asyncio.run(main())
        assert executors and all(ex.closed for ex in executors)


# -- configuration and stats -----------------------------------------------------

class StatsContract:
    """``stats()`` is sorted and stable (both placements)."""

    #: Top-level sections the placement adds after ``queues``.
    placement_sections: list = []

    def test_stats_deterministically_ordered(self):
        async def main():
            async with self.server(max_linger=0.001) as server:
                await server.submit("prefix-sums", np.ones(8), n=8)
                await server.submit("matmul", np.ones(8), n=2)
                return server.stats(), server.stats()

        stats, again = asyncio.run(main())
        def assert_sorted(d):
            assert list(d) == sorted(d)
            for v in d.values():
                if isinstance(v, dict):
                    assert_sorted(v)
        assert_sorted(stats)
        assert list(stats) == ["counters", "histograms", "incidents",
                               "policy", "queues"] + self.placement_sections
        assert stats["policy"].startswith("adaptive(")
        for info in stats["queues"].values():
            assert info["depth"] == 0
            assert info["target_batch"] >= 1
        self.assert_ran_on_numpy(stats)
        # Identical traffic, identical rendering.
        import json
        assert json.dumps(stats) == json.dumps(again)


class TestConfigAndStats(StatsContract):
    server = BulkServer

    def assert_ran_on_numpy(self, stats):
        for info in stats["queues"].values():
            assert info["backends"] == ["numpy"]

    def test_config_validation(self):
        for bad in (
            dict(max_batch=0),
            dict(warp=0),
            dict(latency=0),
            dict(max_linger=-1.0),
            dict(max_pending=0),
            dict(workers=0),
        ):
            with pytest.raises(ServeError):
                ServeConfig(**bad)

    def test_config_xor_overrides(self):
        with pytest.raises(ServeError, match="either"):
            BulkServer(ServeConfig(), max_batch=8)

    def test_single_lane_config_never_batches(self):
        rows = _inputs("prefix-sums", 8, 6)

        async def main():
            config = ServeConfig(
                max_batch=1, policy=FixedPolicy(1), pad_to_warp=False,
                max_linger=0.0,
            )
            async with BulkServer(config) as server:
                await asyncio.gather(
                    *(server.submit("prefix-sums", row, n=8) for row in rows)
                )
                return server.stats()

        stats = asyncio.run(main())
        assert stats["counters"]["batches.dispatched"] == 6
        assert stats["counters"]["lanes.padded"] == 0
        assert stats["histograms"]["batch.size"]["max"] == 1.0


# -- the same broker contract on the shard fleet ----------------------------------

_one_shard = functools.partial(ShardedServer, shards=1)


class TestShardedCoalescingAndIdentity(CoalescingAndIdentityContract):
    server = _one_shard


class TestShardedBackpressure(BackpressureContract):
    server = _one_shard


class TestShardedDeadlinesAndCancellation(DeadlinesAndCancellationContract):
    server = _one_shard


class TestShardedShutdown(ShutdownContract):
    server = _one_shard


class TestShardedStats(StatsContract):
    server = _one_shard
    placement_sections = ["shards", "supervisor"]

    def assert_ran_on_numpy(self, stats):
        assert [info["backends"] for info in stats["shards"].values()] == [
            ["numpy"]
        ]


# -- throughput acceptance (perf) ------------------------------------------------

@pytest.mark.perf
@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_TESTS") == "1",
    reason="REPRO_SKIP_PERF_TESTS=1",
)
def test_adaptive_batching_beats_single_lane_5x():
    """Acceptance criterion: adaptive micro-batching sustains >= 5x the
    request rate of batch-size-1 dispatch on a heavy workload."""
    from repro.serve import closed_loop, input_pool

    pool = input_pool("opt", 24, size=64)

    async def capacity(config):
        async with BulkServer(config) as server:
            report = await closed_loop(
                server, "opt", 24, clients=64, duration=1.5, inputs=pool
            )
        return report.throughput_rps

    adaptive = asyncio.run(capacity(ServeConfig(policy="adaptive")))
    single = asyncio.run(capacity(ServeConfig(
        max_batch=1, policy=FixedPolicy(1), pad_to_warp=False,
        max_linger=0.0,
    )))
    assert single > 0
    assert adaptive >= 5.0 * single, (
        f"adaptive {adaptive:.0f} rps vs single-lane {single:.0f} rps"
    )
