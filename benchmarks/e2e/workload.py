"""One workload of the end-to-end benchmark, in a process of its own.

``run.py`` starts this file once per workload with a clean environment and
collects the JSON it writes to ``--result``; run it directly only to debug
a workload::

    PYTHONPATH=src python benchmarks/e2e/workload.py --workload bulk-opt32 \\
        --seed 1 --seconds 5 --trace 0 --workdir .bench_build/debug \\
        --result .bench_build/debug.json

Every set-up starts from an empty kernel cache and an empty buffer arena,
so ``setup_s`` is what a freshly deployed process pays.  Inputs come from
``AlgorithmSpec.make_inputs`` seeded by ``--seed``; the oracle checks them
with ``AlgorithmSpec.check_outputs`` before timing starts, and every timed
output is then bit-compared with the oracle's outside the timed region.

A traced run (``--trace 1``) reports per-layer metrics from spans (see
``spans.py``) and from the servers' ``stats()``.  Its tracing overhead is
measured by interleaving: a bulk workload traces every other ``run()``, a
serving workload traces the closed phase of every other round (see
ROUND_SECONDS), and the traced share's throughput is compared with the
rest.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import statistics
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.algorithms.registry import get_spec
from repro.bulk import BulkExecutor
from repro.bulk.arena import arena_stats, clear_arena
from repro.codegen.cache import cache_stats
from repro.errors import ReproError
from repro.machine.analytic import bulk_batch_time
from repro.reliability.incidents import incident_summary
from repro.serve import BulkServer, ServeConfig, ShardConfig, ShardedServer

from load import LoadResult, closed_loop, open_loop
from spans import Tracer

#: An untraced run sets up at least SETUP_REPS times, and again while the
#: set-ups took less than SETUP_MIN_SECONDS in all (up to SETUP_MAX_REPS),
#: so a cheap set-up's median rests on enough samples; ``setup_s`` is the
#: median.  A traced run sets up once.
SETUP_REPS, SETUP_MIN_SECONDS, SETUP_MAX_REPS = 3, 1.0, 15

#: Unmeasured closed-loop load after a server's warm-up ladder: the first
#: second of traffic still runs measurably slower than the rest.
SETTLE_SECONDS = 1.0

#: A serving run's measured window is rounds of about ROUND_SECONDS: two
#: thirds open loop, then one third closed loop.  Both loads thus sample
#: the whole window, and ``throughput_per_s`` is the median over the
#: rounds' closed phases, so a busy second on the host moves one round
#: instead of the result.
ROUND_SECONDS = 1.5

#: Bulk input sets cycled by ``run()``; serving request inputs cycled.
INPUT_SETS, POOL = 3, 256

#: Machine shape the layer prices use: the serving layer's default warp
#: width and latency.
WARP, LATENCY = 32, 100


@dataclass(frozen=True)
class Bulk:
    """``run()`` calls on one executor, cycling INPUT_SETS input sets."""

    algorithm: str
    n: int
    p: int
    backend: str
    guard: Optional[str]
    limit_ms: float  # a run slower than this misses goodput


@dataclass(frozen=True)
class Serve:
    """Rounds of an open loop at ``rate`` requests/s, then ``clients``
    closed-loop callers; ``shards=0`` serves in-process with
    :class:`BulkServer`."""

    algorithm: str
    n: int
    shards: int
    rate: float
    clients: int
    limit_ms: float  # a reply later than this misses goodput


WORKLOADS: Dict[str, Union[Bulk, Serve]] = {
    "bulk-opt32": Bulk("opt", 32, 8192, "native", "spot", limit_ms=250.0),
    "bulk-prefix1024": Bulk("prefix-sums", 1024, 8192, "numpy", None, limit_ms=250.0),
    # Twice max_batch callers keep a full batch always waiting: with fewer,
    # callers split into cohorts of varying size and throughput flips
    # between levels about a third apart, for seconds at a time.
    "serve-opt32": Serve("opt", 32, shards=0, rate=1000.0, clients=512, limit_ms=100.0),
    # Here 64 callers were as steady as 512, with half the latency spread.
    "shard-prefix256": Serve("prefix-sums", 256, shards=2, rate=4000.0, clients=64,
                             limit_ms=20.0),
}


def percentile_ms(seconds: List[float], q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3 if seconds else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def more_setups(setup: List[float], trace: bool) -> bool:
    if trace:
        return not setup
    if len(setup) < SETUP_REPS:
        return True
    return sum(setup) < SETUP_MIN_SECONDS and len(setup) < SETUP_MAX_REPS


def fresh_cache(workdir: Path, label: str) -> None:
    """Point the kernel cache at a new empty directory; empty the arena."""
    path = workdir / "cache" / label
    path.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(path)
    clear_arena()
    gc.collect()


def arena_hit_frac(before) -> float:
    after = arena_stats()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    return hits / (hits + misses) if hits + misses else 0.0


def incidents() -> int:
    return sum(incident_summary().values())


def outputs_check(alg, inputs: np.ndarray, outputs: np.ndarray, n: int) -> bool:
    """``alg.check_outputs`` over row blocks: the reference's temporaries
    stay small, so the oracle does not set the workload's peak RSS."""
    try:
        for lo in range(0, len(inputs), 512):
            alg.check_outputs(inputs[lo:lo + 512], outputs[lo:lo + 512], n)
    except AssertionError:
        return False
    return True


def latency_info(samples: List[float]) -> dict:
    return {"samples": len(samples), "beyond_p90": len(samples) - int(0.9 * len(samples))}


# -- bulk workloads ------------------------------------------------------------

def run_bulk(spec: Bulk, seed: int, seconds: float, trace: bool,
             workdir: Path) -> dict:
    alg = get_spec(spec.algorithm)
    rng = np.random.default_rng(seed)
    inputs = [alg.make_inputs(rng, spec.n, spec.p) for _ in range(INPUT_SETS)]
    threads = 1 if spec.backend == "native" else None

    setup_tracer = Tracer()
    if trace:
        setup_tracer.install()
    setup: List[float] = []
    executor = None
    while more_setups(setup, trace):
        if executor is not None:
            executor.close()
        fresh_cache(workdir, f"setup{len(setup)}")
        arena_before = arena_stats()
        started = time.perf_counter()
        program = alg.build(spec.n)
        executor = BulkExecutor(program, spec.p, "column", backend=spec.backend,
                                guard=spec.guard, threads=threads)
        executor.run(inputs[0])
        setup.append(time.perf_counter() - started)
    setup_tracer.uninstall()
    kernels = cache_stats().entries

    oracle_failures = 0
    crcs = []
    for x in inputs:
        out = executor.run(x).outputs
        oracle_failures += not outputs_check(alg, x, out, spec.n)
        crcs.append(zlib.crc32(out))

    def measure(duration: float, tracer: Optional[Tracer] = None) -> List[tuple]:
        """``(seconds, correct, traced)`` per ``run()`` for ``duration``
        seconds.  With a tracer every other run is traced, so traced and
        plain runs see the same host conditions."""
        runs = []
        stop = time.perf_counter() + duration
        i = 0
        while time.perf_counter() < stop:
            k = i % len(inputs)
            traced = tracer is not None and i % 2 == 0
            i += 1
            if traced:
                tracer.install()
            started = time.perf_counter()
            try:
                out = executor.run(inputs[k]).outputs
                elapsed = time.perf_counter() - started
            except ReproError:
                out, elapsed = None, 0.0
            finally:
                if traced:
                    tracer.uninstall()
            # Bit-compare the whole output image, outside the timed region.
            runs.append((elapsed, out is not None and zlib.crc32(out) == crcs[k], traced))
            del out  # one output image alive at a time, not two
        return runs

    def times_of(runs: List[tuple]) -> List[float]:
        return [elapsed for elapsed, correct, _ in runs if correct]

    def throughput(times: List[float]) -> float:
        return spec.p * len(times) / sum(times) if times else 0.0

    info: Dict[str, object] = {"setup_s": setup, "valid": True}
    if not trace:
        runs = measure(seconds)
        times = times_of(runs)
        good = sum(correct and t * 1e3 <= spec.limit_ms for t, correct, _ in runs)
        metrics = {
            "setup_s": statistics.median(setup),
            "throughput_per_s": throughput(times),
            "latency_p50_ms": percentile_ms(times, 50),
            "latency_p90_ms": percentile_ms(times, 90),
            "goodput_frac": good / len(runs),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        tracer = Tracer()
        runs = measure(seconds, tracer)
        times = times_of([r for r in runs if r[2]])
        plain = throughput(times_of([r for r in runs if not r[2]]))
        metrics = tracer.layer_metrics()
        metrics.update({
            "codegen.compile_s": sum(setup_tracer.durations_ms("codegen.compile")) / 1e3,
            "codegen.compiles": kernels,
            "codegen.kernel_ns_per_unit": metrics["codegen.kernel_ms"] * 1e6
            / bulk_batch_time(program.trace_length, spec.p, WARP, LATENCY),
            "bulk.arena_hit_frac": arena_hit_frac(arena_before),
            "reliability.incidents": incidents(),
            "serve.executor_builds_in_window": len(tracer.durations_ms("bulk.init")),
            "trace.overhead_frac": 1.0 - throughput(times) / plain if plain else 0.0,
        })
        info["spans"] = {"setup": setup_tracer.as_json(), "window": tracer.as_json()}
    executor.close()
    info.update(latency_info(times))
    failed = oracle_failures + sum(not correct for _, correct, _ in runs)
    return {
        "correct": failed == 0,
        "attempted": len(inputs) + len(runs),
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


# -- serving workloads ---------------------------------------------------------

def make_server(spec: Serve):
    if spec.shards:
        # Batches here stay under 64 lanes, so the kernels for 96 to 256
        # lanes would only make every cold set-up compile four times the
        # kernels the workload runs.
        return ShardedServer(ShardConfig(
            shards=spec.shards, backend="native", guard="spot",
            supervise=True, native_threads=1, max_batch=64,
        ))
    return BulkServer(ServeConfig())


async def dispatched(server, key: str) -> None:
    """Wait until the queue ``key`` holds no undispatched request."""
    while True:
        await asyncio.sleep(0.0005)
        queue = server.stats()["queues"].get(key)
        if queue is not None and queue["depth"] == 0:
            return


async def warm_up(server, spec: Serve, submit, check) -> int:
    """Bursts of ``w, 2w, …, max_batch`` requests, so the executor of
    every lane count the server will use exists before timing.  A sharded
    server gets one burst per shard in flight at once, which places one
    on each shard.  Returns the number of wrong replies."""
    key = f"{spec.algorithm}:{spec.n}"
    wrong = 0
    for lanes in range(WARP, server.config.max_batch + 1, WARP):
        bursts = []
        for _ in range(max(1, spec.shards)):
            if bursts:
                await dispatched(server, key)
            bursts.append(asyncio.gather(*(submit(j % POOL) for j in range(lanes))))
        for burst in bursts:
            replies = await burst
            wrong += sum(not check(j % POOL, r) for j, r in enumerate(replies))
    return wrong


def snapshot(server) -> dict:
    stats = server.stats()
    return {
        "counters": stats["counters"],
        "histograms": stats["histograms"],
        "executors": sum(len(q.get("executors", ())) for q in stats["queues"].values()),
        "kernels": cache_stats().entries,
        "shard_batches": {sid: s["batches"] for sid, s in stats.get("shards", {}).items()},
    }


def differences(pairs: List[tuple]) -> dict:
    """Counter and shard-batch differences, and histogram ``[count, sum]``
    differences, added up over ``(before, after)`` snapshot pairs.  Sums
    and counts subtract exactly; the histograms' percentiles cover a
    sliding window of samples and do not."""
    counters: Dict[str, int] = {}
    shard_batches: Dict[str, int] = {}
    histograms: Dict[str, List[float]] = {}
    for before, after in pairs:
        for name, value in after["counters"].items():
            counters[name] = counters.get(name, 0) + value - before["counters"].get(name, 0)
        for sid, value in after["shard_batches"].items():
            shard_batches[sid] = (shard_batches.get(sid, 0) + value
                                  - before["shard_batches"].get(sid, 0))
        for name, h in after["histograms"].items():
            h0 = before["histograms"].get(name, {"count": 0, "mean": 0.0})
            total = histograms.setdefault(name, [0, 0.0])
            total[0] += h["count"] - h0["count"]
            total[1] += h["count"] * h["mean"] - h0["count"] * h0["mean"]
    return {"counters": counters, "shard_batches": shard_batches, "histograms": histograms}


def serve_layers(spec: Serve, server, program, opened: LoadResult, phases: dict,
                 window: dict, after: dict) -> Dict[str, float]:
    """Broker and router metrics over the open-loop ``phases``; failure
    counters over the whole measured ``window``."""
    counts = phases["counters"]

    def mean(name: str) -> float:
        count, total = phases["histograms"].get(name, (0, 0.0))
        return total / count if count else 0.0

    batches, done, padded = (counts.get("batches.dispatched", 0),
                             counts.get("requests.completed", 0), counts.get("lanes.padded", 0))
    lanes = round((done + padded) / batches) if batches else 0
    wait = mean("queue.time_to_first_dispatch_seconds") * 1e3
    execute = mean("batch.execute_seconds") * 1e3
    latency = statistics.fmean(opened.latencies) * 1e3 if opened.latencies else 0.0
    units = bulk_batch_time(program.trace_length, lanes, WARP, LATENCY,
                            speedup=server.config.lane_speedup()) if lanes else 0.0
    metrics = {
        "serve.queue_wait_ms": wait,
        "serve.dispatch_overhead_ms": latency - wait - execute,
        "serve.batch_execute_ms": execute,
        "serve.batch_size_mean": done / batches if batches else 0.0,
        "serve.occupancy_mean": done / (done + padded) if done else 0.0,
        "serve.ns_per_predicted_unit": execute * 1e6 / units if units else 0.0,
        "serve.latency_p99_ms": percentile_ms(opened.latencies, 99),
        "loadgen.lag_p99_ms": percentile_ms(opened.lags, 99),
    }
    if spec.shards:
        shard_batches = phases["shard_batches"]
        total = sum(shard_batches.values())
        metrics.update({
            "router.shard_batch_ms": max(
                mean(f"shard.{sid}.batch_seconds") for sid in shard_batches) * 1e3,
            "router.max_shard_batch_share": max(shard_batches.values()) / total if total else 0.0,
            "router.placement_backlog_units": mean("placement.backlog_units"),
            "router.slot_rejects": window["counters"].get("requests.rejected_slots", 0),
            "router.redispatched": window["counters"].get("requests.redispatched", 0),
            "router.respawns": after["counters"].get("shards.respawns", 0),
        })
    return metrics


async def run_serve(spec: Serve, seed: int, seconds: float, trace: bool,
                    workdir: Path) -> dict:
    alg = get_spec(spec.algorithm)
    rng = np.random.default_rng(seed)
    pool = alg.make_inputs(rng, spec.n, POOL)
    program = alg.build(spec.n)
    oracle = BulkExecutor(program, POOL, "column")
    expected = oracle.run(pool).outputs
    oracle.close()
    oracle_failures = int(not outputs_check(alg, pool, expected, spec.n))
    want = [row.tobytes() for row in expected]
    rows = [np.ascontiguousarray(row) for row in pool]

    def check(i: int, reply) -> bool:
        return reply.tobytes() == want[i]

    server = None

    def submit(i: int):
        return server.submit(spec.algorithm, rows[i], n=spec.n)

    setup: List[float] = []
    warm_wrong = 0
    while more_setups(setup, trace):
        if server is not None:
            await server.stop()
        fresh_cache(workdir, f"setup{len(setup)}")
        arena_before = arena_stats()
        started = time.perf_counter()
        server = make_server(spec)
        warm_wrong += await warm_up(server, spec, submit, check)
        setup.append(time.perf_counter() - started)
    kernels = cache_stats().entries
    limit = spec.limit_ms / 1e3
    settle = await closed_loop(submit, POOL, check, clients=spec.clients,
                               duration=SETTLE_SECONDS, limit=limit)

    # A traced run records the open phases' spans with ``tracer``; ``probe``
    # wraps the same calls in every other closed phase only for its cost.
    tracer, probe = (Tracer(), Tracer()) if trace else (None, None)
    before = snapshot(server)
    rounds = max(2, round(seconds / ROUND_SECONDS))
    opens: List[LoadResult] = []
    closes: List[LoadResult] = []
    open_phases = []
    for r in range(rounds):
        phase_start = snapshot(server)
        if tracer is not None:
            tracer.install()
        opens.append(await open_loop(submit, POOL, check, rate=spec.rate,
                                     duration=seconds * 2 / 3 / rounds, limit=limit))
        if tracer is not None:
            tracer.uninstall()
        open_phases.append((phase_start, snapshot(server)))
        if probe is not None and r % 2 == 0:
            probe.install()
        closes.append(await closed_loop(submit, POOL, check, clients=spec.clients,
                                        duration=seconds / 3 / rounds, limit=limit))
        if probe is not None:
            probe.uninstall()
    after = snapshot(server)
    builds = (after["executors"] - before["executors"]) + (after["kernels"] - before["kernels"])
    opened = LoadResult.combined(opens)

    info: Dict[str, object] = {
        "setup_s": setup,
        "round_throughput_per_s": [c.throughput for c in closes],
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "throughput_per_s": statistics.median(c.throughput for c in closes),
            "latency_p50_ms": percentile_ms(opened.latencies, 50),
            "latency_p90_ms": percentile_ms(opened.latencies, 90),
            "goodput_frac": opened.within_limit / opened.sent,
        }
    else:
        traced = LoadResult.combined(closes[0::2]).throughput
        plain = LoadResult.combined(closes[1::2]).throughput
        metrics = tracer.layer_metrics()
        metrics.update(serve_layers(spec, server, program, opened, differences(open_phases),
                                    differences([(before, after)]), after))
        metrics.update({
            "serve.executor_builds_in_window": builds,
            "codegen.compiles": kernels,
            "bulk.arena_hit_frac": arena_hit_frac(arena_before),
            "trace.overhead_frac": 1.0 - traced / plain if plain else 0.0,
        })
        info["spans"] = {"window": tracer.as_json()}
    await server.stop()
    if trace:
        metrics["reliability.incidents"] = incidents()
    else:
        metrics["peak_rss_mb"] = peak_rss_mb()
    info.update(latency_info(opened.latencies))
    info.update({
        "lag_p99_ms": percentile_ms(opened.lags, 99),
        "executor_builds_in_window": builds,
        "valid": builds == 0,
    })
    loads = [settle, *opens, *closes]
    failed = oracle_failures + warm_wrong + sum(r.failures for r in loads)
    return {
        "correct": failed == 0,
        "attempted": POOL + sum(r.sent for r in loads),
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    trace = bool(args.trace)
    if isinstance(spec, Bulk):
        result = run_bulk(spec, args.seed, args.seconds, trace, args.workdir)
    else:
        result = asyncio.run(run_serve(spec, args.seed, args.seconds, trace, args.workdir))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
