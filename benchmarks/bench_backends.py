"""Execution backends head to head: fused NumPy vs native C.

The acceptance workload is the Figure 12 flagship: Algorithm OPT on 32-gons
(26,228 IR instructions) bulk-run for p = 8192 inputs, column-wise.  The
engines execute the identical program on identical inputs:

* ``fused``           — the NumPy engine: the IR fusion pass (load/store
  elision, compare+select fusion) compiled to vector ops over all lanes;
* ``native-tiled``    — the compiled C bulk kernel: load/store forwarding,
  liveness spills, SIMD hints, ``-O3`` — single-thread;
* ``native-threaded`` — the same kernel with an OpenMP lane-parallel
  outer loop (only on multi-core hosts with a ``-fopenmp`` toolchain).

The native kernel gathers each tile of lanes from the row-major inputs
into a tile-private stack slab and scatters it into the output image, so
its data movement happens inside the kernel.

OPT declares one output word per input (``M[1, n-1]``), so every
engine's output image is ``(p, 1)``: the native kernels scatter that one
word per lane and the NumPy engine unpacks only it.  Every backend's image
must equal the fused one bit for bit, and the fused one must equal the IR
replay on the guard's sampled lanes.

The four gated ratios compare legs of the same run: ``native-tiled``
execute is fused NumPy execute / tiled execute, ``native-tiled``
end-to-end is fused NumPy ``run()`` / tiled ``run()``,
``native-threaded`` is tiled execute / threaded execute, and
``guard-replay`` is the spot guard's reference cost: replaying its 4
sampled lanes on a fused NumPy executor / through the program's IR
replay (:mod:`repro.trace.replay`, what the guard runs), recorded as the
median of 21 per-repeat ratios of alternating legs.

Two timings are reported per engine.  ``execute`` is the engine phase —
for the NumPy engine the program alone, for the native kernels the
program plus its gather and scatter; ``end-to-end`` is ``run()``: the
NumPy engine adds pack and zero-fill of the 128 MB arranged buffer and
the unpack of the declared words, the native kernels only input
validation and the output hand-off.  Both speedup columns are relative
to ``fused``.

Standalone run (writes ``results/bench_backends.txt`` and the trajectory
records ``results/BENCH_backends.json`` the CI perf gate compares
against)::

    PYTHONPATH=src python benchmarks/bench_backends.py

pytest-benchmark mode (smaller grid)::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_backends.py
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.registry import get_spec
from repro.bulk import BulkExecutor
from repro.codegen.compile import (
    BULK_DEFAULT_TILE,
    have_compiler,
    have_openmp,
    simd_isa,
)
from repro.reliability import GuardPolicy
from repro.trace.replay import replay_lanes

try:
    from conftest import run_pedantic
except ImportError:  # standalone `python benchmarks/bench_backends.py` run
    run_pedantic = None


def _executors(program, p, backends):
    made = {}
    for name in backends:
        if name == "fused":
            made[name] = BulkExecutor(program, p, "column")
        elif name == "native-threaded":
            threads = min(4, os.cpu_count() or 1)
            made[name] = BulkExecutor(
                program, p, "column", backend="native",
                tile=BULK_DEFAULT_TILE, threads=threads,
            )
        else:  # native-tiled: the library default, pinned for determinism
            made[name] = BulkExecutor(
                program, p, "column", backend="native",
                tile=BULK_DEFAULT_TILE, threads=1,
            )
    return made


def _native_backends() -> tuple:
    if not have_compiler():
        return ()
    names = ("native-tiled",)
    if have_openmp() and (os.cpu_count() or 1) > 1:
        names += ("native-threaded",)
    return names


BENCH_BACKENDS = ("fused",) + _native_backends()


@pytest.mark.parametrize("backend", BENCH_BACKENDS)
def bench_opt16_execute(benchmark, backend):
    """OPT 16-gon, p = 1024: engine phase of each backend."""
    spec = get_spec("opt")
    program = spec.build(16)
    inputs = spec.make_inputs(np.random.default_rng(0), 16, 1024)
    ex = _executors(program, 1024, (backend,))[backend]
    ex.load(inputs)
    run_pedantic(benchmark, ex.execute)


# -- standalone comparison ----------------------------------------------------

def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _guard_replays(program, inputs, repeats: int = 21) -> tuple:
    """The guard's 4-lane reference, fused NumPy against IR replay.

    The two legs alternate within each repeat, so host noise hits both,
    and each repeat yields one ratio.  Both legs last only milliseconds,
    so a ratio of two best-ofs swings with whichever leg caught a quiet
    moment; the median of the per-repeat ratios does not.  Returns
    ``(lanes, median numpy seconds, median replay seconds, median ratio)``.
    """
    rows = inputs[GuardPolicy().sample_lanes(len(inputs))]
    numpy_ref = BulkExecutor(program, len(rows), "column")
    try:
        want = numpy_ref.run(rows).outputs.copy()
        got = replay_lanes(program, rows)  # compiles the replay once
        np.testing.assert_array_equal(got[:, program.output_index()], want)
        numpy_t, replay_t = [], []
        for _ in range(repeats):
            numpy_t.append(_best_of(lambda: numpy_ref.run(rows), 1))
            replay_t.append(_best_of(lambda: replay_lanes(program, rows), 1))
    finally:
        numpy_ref.close()
    ratios = [a / b for a, b in zip(numpy_t, replay_t)]
    return (
        len(rows), statistics.median(numpy_t), statistics.median(replay_t),
        statistics.median(ratios),
    )


def main(out_path: Path | None = None, json_path: Path | None = None) -> str:
    n, p = 32, 8192
    spec = get_spec("opt")
    program = spec.build(n)
    inputs = spec.make_inputs(np.random.default_rng(20140519), n, p)

    lines = [
        f"bench_backends: bulk OPT {n}-gons for p={p} inputs, column-wise "
        f"({program.num_instructions} IR instructions, float64, "
        f"SIMD ISA {simd_isa()})",
        "",
    ]
    backends = list(BENCH_BACKENDS)
    if not have_compiler():
        lines.append("native backends unavailable (no C compiler on PATH)")
        lines.append("")

    made = {}
    compile_secs = None
    compile_was_hit = False
    for name in backends:
        if name.startswith("native"):
            from repro.codegen import cache as cache_mod

            misses0 = cache_mod._misses
        t0 = time.perf_counter()
        made[name] = _executors(program, p, (name,))[name]
        if name == "native-tiled":
            compile_secs = time.perf_counter() - t0
            compile_was_hit = cache_mod._misses == misses0

    outputs = {}
    exec_t = {}
    e2e_t = {}
    for name, ex in made.items():
        e2e_t[name] = _best_of(lambda ex=ex: ex.run(inputs), 3)
        ex.load(inputs)
        exec_t[name] = _best_of(ex.execute, 3)
        ex.load(inputs)
        ex.execute()
        outputs[name] = ex.outputs()

    base = exec_t["fused"]
    base_e2e = e2e_t["fused"]
    header = (
        f"{'backend':<16} {'execute':>10} {'speedup':>9} "
        f"{'end-to-end':>12} {'speedup':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name in backends:
        lines.append(
            f"{name:<16} {exec_t[name]:>9.4f}s {base / exec_t[name]:>8.1f}x "
            f"{e2e_t[name]:>11.4f}s {base_e2e / e2e_t[name]:>8.1f}x"
        )
    lines.append("")

    for name in backends:
        np.testing.assert_array_equal(outputs[name], outputs["fused"])
    lanes = GuardPolicy().sample_lanes(p)
    replayed = replay_lanes(program, inputs[lanes])
    np.testing.assert_array_equal(
        replayed[:, program.output_index()], outputs["fused"][lanes]
    )
    lines.append(
        f"all backends bit-identical on the declared output image "
        f"({program.output_words} word(s) per input of "
        f"{program.memory_words}); fused = IR replay on lanes {lanes}"
    )

    if "native-tiled" in exec_t:
        tiled_x = exec_t["fused"] / exec_t["native-tiled"]
        lines.append(
            f"compiled: native-tiled = {tiled_x:.2f}x fused on the execute "
            f"phase (single core; the kernel's time includes its gather "
            f"and scatter)"
        )
        lines.append(
            f"end to end: native-tiled run() = "
            f"{e2e_t['fused'] / e2e_t['native-tiled']:.2f}x fused run()"
        )
    if "native-threaded" in exec_t:
        ex = made["native-threaded"]
        lines.append(
            f"threading: {ex.threads} OpenMP threads = "
            f"{exec_t['native-tiled'] / exec_t['native-threaded']:.2f}x "
            f"native-tiled ({os.cpu_count()} host cpus)"
        )

    lanes, numpy_replay, ir_replay, replay_x = _guard_replays(program, inputs)
    lines.append(
        f"guard replay: {lanes} sampled lanes through the IR replay "
        f"{ir_replay * 1e3:.2f} ms vs a fused NumPy executor "
        f"{numpy_replay * 1e3:.2f} ms (medians) = {replay_x:.2f}x, the "
        f"median per-repeat ratio (bit-identical)"
    )

    stats = made["fused"].fusion_stats
    lines.append(
        f"fusion: {stats.instructions} instructions -> {stats.emitted_ops} "
        f"vector ops ({stats.elided_loads} loads elided, "
        f"{stats.elided_stores} stores folded into producers, "
        f"{stats.fused_compares} compares fused into select masks)"
    )
    if compile_secs is not None:
        from repro.codegen import cache_stats

        cs = cache_stats()
        how = (
            "served from the content-addressed cache"
            if compile_was_hit
            else "first compile; later runs hit the content-addressed cache"
        )
        lines.append(
            f"native: tiled kernel ready in {compile_secs:.1f}s ({how}; "
            f"{cs.entries} entries, {cs.size_bytes / 1e6:.1f} MB)"
        )
    lines.append(
        "execute = engine phase (native: including the kernel's gather and "
        "scatter); end-to-end = run(), which for the NumPy engine adds "
        "pack/zero of the 128 MB arranged buffer and the unpack of the "
        "declared words, through cache-blocked transposes and the pooled "
        "arena.  Speedups are relative to fused."
    )
    text = "\n".join(lines)
    if out_path is not None:
        out_path.write_text(text + "\n")

    if json_path is not None:
        from repro.harness.trajectory import bench_record, write_bench

        records = []
        for name in backends:
            extra = {}
            if name == "native-tiled":
                # The gated trajectory claim: fused NumPy / tiled
                # execute-phase speedup (both single-core, so no
                # host_cpus skip needed).
                extra["derived_x"] = exec_t["fused"] / exec_t[name]
            if name == "native-threaded":
                extra["derived_x"] = exec_t["native-tiled"] / exec_t[name]
                extra["host_cpus"] = os.cpu_count() or 1
                extra["threads"] = made[name].threads
            records.append(bench_record(
                bench="backends", workload="opt", n=n, p=p, backend=name,
                shards=0, method="execute", seconds=exec_t[name], **extra,
            ))
            end_to_end = {}
            if name == "native-tiled":
                # Gated too: fused NumPy run() / tiled run(), the whole
                # call a caller makes, both single-core.
                end_to_end["derived_x"] = e2e_t["fused"] / e2e_t[name]
            records.append(bench_record(
                bench="backends", workload="opt", n=n, p=p, backend=name,
                shards=0, method="end-to-end", seconds=e2e_t[name],
                **end_to_end,
            ))
        records.append(bench_record(
            bench="backends", workload="opt", n=n, p=lanes,
            backend="guard-replay", shards=0, method="execute",
            seconds=ir_replay, derived_x=replay_x,
        ))
        write_bench(json_path, records)
    return text


if __name__ == "__main__":
    repo = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=repo / "results" / "bench_backends.txt")
    parser.add_argument("--json", type=Path,
                        default=repo / "results" / "BENCH_backends.json",
                        help="trajectory records path (the CI perf gate "
                        "compares derived_x ratios against the committed "
                        "copy)")
    args = parser.parse_args()
    print(main(args.out, args.json))
    print(f"\n[wrote {args.out} and {args.json}]", file=sys.stderr)
