"""ShardedServer: parity with the in-process server, placement, lifecycle.

Event-loop style matches ``test_server.py`` (``asyncio.run``, no
pytest-asyncio).  Worker processes use the default ``fork`` start method —
these tests run from pytest-imported modules, so ``spawn``'s __main__
re-import constraint doesn't apply, but fork is also simply the fast path.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.algorithms.registry import get_spec
from repro.codegen.compile import have_compiler
from repro.errors import ServeError, ServerClosedError
from repro.serve import BulkServer, ShardConfig, ShardedServer, router
from repro.trace.builder import ProgramBuilder
from repro.trace.interpreter import run_sequential
from repro.trace.serialize import program_to_dict


REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _sequential(program, row: np.ndarray) -> np.ndarray:
    return run_sequential(program, row, collect_trace=False).memory


def _inputs(workload: str, n: int, count: int, seed: int = 7) -> np.ndarray:
    spec = get_spec(workload)
    return spec.make_inputs(np.random.default_rng(seed), n, count)


def _custom_doubler(words: int = 4):
    b = ProgramBuilder(memory_words=words, name="doubler")
    for i in range(words):
        b.store(i, b.load(i) + b.load(i))
    return b.build()


class TestParityWithBulkServer:
    def test_outputs_bit_identical_to_sequential(self):
        rows = _inputs("prefix-sums", 16, 30)
        program = get_spec("prefix-sums").build(16)

        async def main():
            async with ShardedServer(shards=2, max_linger=0.02) as server:
                outs = await asyncio.gather(
                    *(server.submit("prefix-sums", row, n=16) for row in rows)
                )
                return outs, server.stats()

        outs, stats = asyncio.run(main())
        for row, out in zip(rows, outs):
            assert out.tobytes() == _sequential(program, row).tobytes()
        assert stats["counters"]["requests.completed"] == 30
        assert stats["counters"].get("requests.failed", 0) == 0

    def test_matches_in_process_server(self):
        rows = _inputs("opt", 8, 20, seed=3)

        async def sharded():
            async with ShardedServer(shards=2, max_linger=0.02) as server:
                return await asyncio.gather(
                    *(server.submit("opt", row, n=8) for row in rows)
                )

        async def threaded():
            async with BulkServer(max_linger=0.02) as server:
                return await asyncio.gather(
                    *(server.submit("opt", row, n=8) for row in rows)
                )

        for a, b in zip(asyncio.run(sharded()), asyncio.run(threaded())):
            assert a.tobytes() == b.tobytes()

    def test_mixed_keys_share_the_shards(self):
        jobs = [("prefix-sums", 16), ("opt", 8)]

        async def main():
            async with ShardedServer(shards=2, max_linger=0.01) as server:
                outs = await asyncio.gather(*(
                    server.submit(name, row, n=n)
                    for seed, (name, n) in enumerate(jobs)
                    for row in _inputs(name, n, 8, seed=seed)
                ))
                return outs, server.stats()

        outs, stats = asyncio.run(main())
        assert len(outs) == 16
        assert sorted(stats["queues"]) == ["opt:8", "prefix-sums:16"]


class TestCustomPrograms:
    def test_submit_program_object_ships_ir_once(self):
        program = _custom_doubler()
        rows = np.arange(12, dtype=np.float64).reshape(3, 4)

        async def main():
            async with ShardedServer(shards=2, max_linger=0.01) as server:
                return await asyncio.gather(
                    *(server.submit(program, row) for row in rows)
                )

        for row, out in zip(rows, asyncio.run(main())):
            np.testing.assert_array_equal(out, row * 2)

    def test_program_is_serialised_once_per_key(self, monkeypatch):
        # A custom program ships to the shards as its IR document; the
        # router must serialise it once per key, not once per submit or
        # per shard that opens the key.
        program = _custom_doubler()
        rows = np.arange(96, dtype=np.float64).reshape(24, 4)
        serialised = []

        def counting_to_dict(prog):
            serialised.append(prog.name)
            return program_to_dict(prog)

        monkeypatch.setattr(router, "program_to_dict", counting_to_dict)

        async def main():
            # One slot per arena forces overlapping batches onto both shards.
            config = ShardConfig(
                shards=2, slots=1, max_batch=4, max_linger=0.0, policy=4,
            )
            async with ShardedServer(config) as server:
                outs = await asyncio.gather(
                    *(server.submit(program, row) for row in rows)
                )
                await server.submit("prefix-sums", np.ones(16), n=16)
                return outs, server.stats()

        outs, stats = asyncio.run(main())
        for row, out in zip(rows, outs):
            np.testing.assert_array_equal(out, row * 2)
        assert all(info["batches"] for info in stats["shards"].values())
        assert serialised == ["doubler"]

    def test_registered_name_resolves(self):
        program = _custom_doubler()

        async def main():
            async with ShardedServer(shards=1, max_linger=0.01) as server:
                server.register("dbl", program)
                return await server.submit("dbl", [1.0, 2.0, 3.0, 4.0])

        np.testing.assert_array_equal(asyncio.run(main()), [2, 4, 6, 8])


class TestAdmissionAndLifecycle:
    # Backpressure and stopping an unstarted fleet run against this
    # placement in test_server.py's broker-contract classes.

    def test_submit_after_stop_raises(self):
        async def main():
            server = ShardedServer(shards=1)
            async with server:
                await server.submit(
                    "prefix-sums", _inputs("prefix-sums", 16, 1)[0], n=16
                )
            with pytest.raises(ServerClosedError):
                await server.submit(
                    "prefix-sums", _inputs("prefix-sums", 16, 1)[0], n=16
                )

        asyncio.run(main())

    def test_config_validation(self):
        with pytest.raises(ServeError):
            ShardConfig(shards=0)
        with pytest.raises(ServeError):
            ShardConfig(slots=0)
        with pytest.raises(ServeError):
            ShardConfig(start_method="teleport")
        with pytest.raises(ServeError):
            ShardConfig(fault=("burn", 0, 0))


    @pytest.mark.skipif(not have_compiler(), reason="no C compiler")
    def test_native_shard_stops_without_pinned_shared_memory(self, tmp_path):
        # A full batch runs the native kernel straight out of the slot;
        # closing the executor must let the worker unmap the segment.
        # Otherwise SharedMemory.__del__ reports "Exception ignored …
        # BufferError" on the worker's stderr as the worker exits.  A
        # fresh interpreter, as a deployment runs it.
        script = textwrap.dedent("""
            import asyncio
            import numpy as np
            from repro.algorithms.registry import get_spec
            from repro.serve import ShardedServer

            spec = get_spec("prefix-sums")
            rows = spec.make_inputs(np.random.default_rng(0), 16, 32)

            async def main():
                async with ShardedServer(
                    shards=1, backend="native", max_batch=32, max_linger=0.5,
                ) as server:
                    outs = await asyncio.gather(*(
                        server.submit("prefix-sums", row, n=16) for row in rows
                    ))
                    stats = server.stats()
                assert stats["histograms"]["batch.occupancy"]["max"] == 1.0
                return outs

            outs = asyncio.run(main())
            print(len(outs))
        """)
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
                   PYTHONPATH=os.path.abspath(REPO_SRC))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["32"]
        assert "Exception ignored" not in done.stderr
        assert "BufferError" not in done.stderr


class TestPlacementAndStats:
    def test_stats_carry_shard_section(self):
        rows = _inputs("prefix-sums", 16, 16)

        async def main():
            async with ShardedServer(shards=2, max_linger=0.01) as server:
                await asyncio.gather(
                    *(server.submit("prefix-sums", row, n=16) for row in rows)
                )
                return server.stats()

        stats = asyncio.run(main())
        assert sorted(stats["shards"]) == [0, 1]
        for info in stats["shards"].values():
            assert info["alive"] and info["ready"]
            assert isinstance(info["pid"], int)
        total = sum(info["batches"] for info in stats["shards"].values())
        assert total == stats["counters"]["batches.dispatched"]
        # Executed batches leave per-shard telemetry behind.
        busy = [i for i, info in stats["shards"].items() if info["batches"]]
        assert busy
        for shard_id in busy:
            assert f"shard.{shard_id}.batch_seconds" in stats["histograms"]
            assert stats["shards"][shard_id]["backends"] == ["numpy"]

    def test_sequential_batches_spread_by_backlog_pricing(self):
        # One slot per arena and a large linger window force overlapping
        # batches; with equal analytic prices the argmin alternates off the
        # busy shard, so both shards execute work.
        rows = _inputs("prefix-sums", 16, 24, seed=11)

        async def main():
            config = ShardConfig(
                shards=2, slots=1, max_batch=4, max_linger=0.0, policy=4,
            )
            async with ShardedServer(config) as server:
                await asyncio.gather(
                    *(server.submit("prefix-sums", row, n=16) for row in rows)
                )
                return server.stats()

        stats = asyncio.run(main())
        assert stats["counters"]["requests.completed"] == 24
        worked = [info["batches"] for info in stats["shards"].values()]
        assert all(b > 0 for b in worked), f"placement starved a shard: {worked}"
