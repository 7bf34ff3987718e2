"""Design-choice ablations (DESIGN.md: abl-width, abl-latency, abl-dmm,
abl-vm, plus register allocation and the Select-vs-MIN formulation)."""

from __future__ import annotations

import pytest

from repro.algorithms.polygon import build_opt
from repro.algorithms.prefix_sums import build_prefix_sums
from repro.bulk import BulkExecutor, simulate_bulk
from repro.bulk.kernels import opt_bulk, prefix_sums_bulk
from repro.harness.workloads import opt_inputs, prefix_sum_inputs
from repro.machine import DMM, UMM, MachineParams

from conftest import run_pedantic


@pytest.mark.parametrize("w", [1, 4, 16, 64])
def bench_abl_width(benchmark, w):
    """abl-width: column-wise time units fall as Θ(1/w) until the latency
    term dominates."""
    params = MachineParams(p=256, w=w, l=10)
    program = build_prefix_sums(64)
    rep = run_pedantic(benchmark, lambda: simulate_bulk(program, params, "column"))
    t = program.trace_length
    assert rep.total_time == (params.num_warps + params.l - 1) * t
    benchmark.extra_info["time_units"] = rep.total_time


@pytest.mark.parametrize("l", [1, 100, 400])
def bench_abl_latency(benchmark, l):
    """abl-latency: both arrangements gain the same additive l·t term."""
    params = MachineParams(p=256, w=32, l=l)
    program = build_prefix_sums(64)

    def both():
        return (
            simulate_bulk(program, params, "row").total_time,
            simulate_bulk(program, params, "column").total_time,
        )

    row, col = run_pedantic(benchmark, both)
    t = program.trace_length
    assert row - col == (params.p - params.num_warps) * t  # gap is l-free
    benchmark.extra_info["row_minus_col"] = row - col


def bench_abl_dmm_vs_umm_row_wise(benchmark):
    """abl-dmm: with the per-input size coprime to w, the row-wise warp
    access is conflict-free on the DMM yet fully serialised on the UMM —
    the Section II power separation."""
    params = MachineParams(p=256, w=32, l=10)
    program = build_prefix_sums(33)  # 33 coprime to 32

    def both():
        return (
            simulate_bulk(program, DMM(params), "row").total_time,
            simulate_bulk(program, UMM(params), "row").total_time,
        )

    dmm_t, umm_t = run_pedantic(benchmark, both)
    assert dmm_t * 4 < umm_t, f"expected DMM << UMM, got {dmm_t} vs {umm_t}"
    benchmark.extra_info["dmm_time_units"] = dmm_t
    benchmark.extra_info["umm_time_units"] = umm_t


def bench_abl_padding(benchmark):
    """abl-padding: the shared-memory padding trick fixes DMM bank
    conflicts but buys nothing on the UMM (address groups, not banks)."""
    from repro.bulk import PaddedRowWise, make_arrangement, simulate_trace

    params = MachineParams(p=256, w=32, l=1)
    program = build_prefix_sums(64)  # n multiple of w: worst-case banks
    trace = program.address_trace()
    padded = PaddedRowWise(64, 256, pad=1)
    plain = make_arrangement("row", 64, 256)

    def all_four():
        return (
            simulate_trace(trace, plain, DMM(params)).total_time,
            simulate_trace(trace, padded, DMM(params)).total_time,
            simulate_trace(trace, plain, UMM(params)).total_time,
            simulate_trace(trace, padded, UMM(params)).total_time,
        )

    dmm_plain, dmm_pad, umm_plain, umm_pad = run_pedantic(benchmark, all_four)
    assert dmm_pad * 8 < dmm_plain          # conflicts gone on the DMM
    assert umm_pad >= umm_plain * 0.95      # no help on the UMM
    benchmark.extra_info["dmm_plain"] = dmm_plain
    benchmark.extra_info["dmm_padded"] = dmm_pad
    benchmark.extra_info["umm_padded"] = umm_pad


def bench_abl_vm_engine_prefix(benchmark):
    """abl-vm: the IR engine's per-instruction dispatch overhead vs the
    hand-vectorised prefix-sums kernel."""
    n, p = 64, 512
    inputs = prefix_sum_inputs(n, p)
    ex = BulkExecutor(build_prefix_sums(n), p, "column")
    import time

    t0 = time.perf_counter()
    for _ in range(3):
        prefix_sums_bulk(inputs)
    kernel_time = (time.perf_counter() - t0) / 3

    run_pedantic(benchmark, lambda: ex.run(inputs))
    overhead = benchmark.stats.stats.min / kernel_time
    benchmark.extra_info["engine_over_kernel"] = round(overhead, 1)


def bench_abl_vm_kernel_opt(benchmark):
    """abl-vm counterpart: the hand-vectorised OPT kernel itself."""
    n, p = 12, 512
    inputs = opt_inputs(n, p)
    weights = inputs[:, : n * n].reshape(p, n, n)
    run_pedantic(benchmark, lambda: opt_bulk(weights))


@pytest.mark.parametrize("allocate", [True, False], ids=["allocated", "ssa"])
def bench_abl_register_allocation(benchmark, allocate):
    """Register allocation ablation: SSA-width register files blow up the
    engine's working set; allocation keeps it at the live width."""
    from repro.trace.builder import ProgramBuilder

    n, p = 64, 512
    b = ProgramBuilder(n, name="prefix")
    r = b.const(0.0)
    for i in range(n):
        r = r + b.load(i)
        b.store(i, r)
    program = b.build(allocate=allocate, validate=False)
    inputs = prefix_sum_inputs(n, p)
    ex = BulkExecutor(program, p, "column")
    run_pedantic(benchmark, lambda: ex.run(inputs))
    benchmark.extra_info["registers"] = program.num_registers


@pytest.mark.parametrize("level", [0, 1, 2])
def bench_abl_optimizer(benchmark, level):
    """Optimiser ablation: O0 (as built) vs O1 (trace-preserving folding)
    vs O2 at SSA (store-forwarding: fewer memory steps, more registers) on
    the OPT DP, which re-reads table cells heavily."""
    n, p = 12, 512
    program = build_opt(n, opt_level=level)
    inputs = opt_inputs(n, p)
    ex = BulkExecutor(program, p, "column")
    run_pedantic(benchmark, lambda: ex.run(inputs))
    benchmark.extra_info["trace_length"] = program.trace_length
    benchmark.extra_info["registers"] = program.num_registers


def bench_abl_grid_time_sharing(benchmark):
    """Grid executor overhead vs one flat bulk run at equal p (semantics
    must match; rounds add only chunking overhead)."""
    import numpy as np

    from repro.bulk import GridConfig, GridExecutor, bulk_run

    n, p = 64, 2048
    program = build_prefix_sums(n)
    inputs = prefix_sum_inputs(n, p)
    grid = GridExecutor(program, GridConfig(block_size=64, resident_blocks=8))
    out = run_pedantic(benchmark, lambda: grid.run(inputs))
    np.testing.assert_array_equal(out, bulk_run(program, inputs))


def bench_abl_native_c_vs_engine(benchmark):
    """abl-native: the compiled-C bulk run vs the NumPy engine — how much a
    real compiled target (what the paper's CUDA C is) gains over the
    interpreted vector engine, results bit-checked."""
    import numpy as np

    from repro.bulk import bulk_run
    from repro.codegen import compile_program, have_compiler

    if not have_compiler():
        pytest.skip("no C compiler")
    n, p = 64, 4096
    program = build_prefix_sums(n)
    inputs = prefix_sum_inputs(n, p)
    compiled = compile_program(program)
    import time

    t0 = time.perf_counter()
    engine_out = bulk_run(program, inputs, "column")
    engine_time = time.perf_counter() - t0

    out = run_pedantic(benchmark, lambda: compiled.run_bulk(inputs, "column"))
    np.testing.assert_allclose(out, engine_out, rtol=1e-12)
    native_time = benchmark.stats.stats.min
    benchmark.extra_info["engine_over_native"] = round(engine_time / native_time, 1)


@pytest.mark.parametrize("arrangement", ["row", "column"])
def bench_abl_native_layouts(benchmark, arrangement):
    """abl-native-layout: on a *sequential* processor the per-input loop
    favours row-wise (contiguous per input), inverting the SIMD result —
    exactly why the paper implements its CPU baseline row-wise."""
    import numpy as np

    from repro.codegen import compile_program, have_compiler

    if not have_compiler():
        pytest.skip("no C compiler")
    n, p = 256, 4096
    program = build_prefix_sums(n)
    inputs = prefix_sum_inputs(n, p)
    compiled = compile_program(program)
    out = run_pedantic(benchmark, lambda: compiled.run_bulk(inputs, arrangement))
    np.testing.assert_allclose(out, np.cumsum(inputs, axis=1))


@pytest.mark.parametrize("use_select", [True, False], ids=["select", "min"])
def bench_abl_select_vs_min(benchmark, use_select):
    """The paper's predicated 'if r < s' (two instructions) vs a fused MIN:
    both oblivious, same trace, different local-op count."""
    n, p = 10, 512
    program = build_opt(n, use_select=use_select)
    inputs = opt_inputs(n, p)
    ex = BulkExecutor(program, p, "column")
    run_pedantic(benchmark, lambda: ex.run(inputs))
    benchmark.extra_info["instructions"] = program.num_instructions


@pytest.mark.parametrize("backend", ["numpy", "native"])
def bench_abl_backend(benchmark, backend):
    """abl-backend: the two execution backends on one bulk OPT workload —
    the IR-fused NumPy engine vs the compiled column-wise C kernel, each
    bit-checked against the IR replay of every lane.  The standalone
    flagship comparison (OPT n=32, p=8192) lives in ``bench_backends.py``
    and writes ``results/bench_backends.txt``."""
    import numpy as np

    from repro.codegen.compile import have_compiler
    from repro.trace.replay import replay_lanes

    if backend == "native" and not have_compiler():
        pytest.skip("no C compiler")
    n, p = 16, 1024
    program = build_opt(n)
    inputs = opt_inputs(n, p)
    ex = BulkExecutor(program, p, "column", backend=backend)
    ex.load(inputs)
    run_pedantic(benchmark, ex.execute)
    ref = replay_lanes(program, inputs)[:, program.output_index()]
    np.testing.assert_array_equal(ex.outputs(), ref)
    ex.close()
