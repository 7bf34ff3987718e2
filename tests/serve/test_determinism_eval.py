"""Standing determinism eval: shard count and restarts must not show.

The sharded tier's re-dispatch-on-death story rests on every shard being a
bit-identical replica — so the *observable* contract is that the same
request stream produces byte-for-byte the same outputs at ``--shards 1``,
at ``--shards 4``, and across a full server restart.  This eval pins that
contract as a permanent test (ISSUE 6 satellite), not a one-off check.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.algorithms.registry import get_spec
from repro.serve import BulkServer, ShardedServer
from repro.trace.interpreter import run_sequential

WORKLOADS = [("prefix-sums", 16), ("opt", 8), ("xtea", 4)]
COUNT = 12


def _fixed_inputs(name: str, n: int, seed: int) -> np.ndarray:
    spec = get_spec(name)
    return spec.make_inputs(np.random.default_rng(seed), n, COUNT)


def _serve_all(server_factory):
    async def main():
        async with server_factory() as server:
            outs = await asyncio.gather(*(
                server.submit(name, row, n=n)
                for seed, (name, n) in enumerate(WORKLOADS)
                for row in _fixed_inputs(name, n, seed)
            ))
        return [out.tobytes() for out in outs]

    return asyncio.run(main())


class TestShardCountInvisibility:
    def test_one_four_and_restart_are_bit_identical(self):
        one = _serve_all(lambda: ShardedServer(shards=1, max_linger=0.01))
        four = _serve_all(lambda: ShardedServer(shards=4, max_linger=0.01))
        again = _serve_all(lambda: ShardedServer(shards=4, max_linger=0.01))
        assert one == four, "shard count leaked into outputs"
        assert four == again, "a restart changed outputs"

    def test_sharded_matches_in_process_and_sequential(self):
        sharded = _serve_all(lambda: ShardedServer(shards=2, max_linger=0.01))
        threaded = _serve_all(lambda: BulkServer(max_linger=0.01))
        assert sharded == threaded, "process boundary leaked into outputs"
        expected = []
        for seed, (name, n) in enumerate(WORKLOADS):
            program = get_spec(name).build(n)
            for row in _fixed_inputs(name, n, seed):
                # A reply carries the program's declared output words.
                expected.append(
                    run_sequential(program, row, collect_trace=False)
                    .memory[program.output_index()].tobytes()
                )
        assert sharded == expected, "serving path diverged from the interpreter"
