"""The tiled/threaded native backend: bit-identity matrix, arena, knobs.

The perf PR's acceptance contract, as tests:

* **registry-wide bit identity** — every algorithm, crossed with tile
  sizes (including non-divisors of ``p``), thread counts, partial batches
  and guarded mode, produces the *same memory image* as the IR replay
  (:func:`~repro.trace.replay.replay_lanes`: every cell of the final
  memory, not just the outputs, from an engine that shares no code with
  the emitter);
* **clean degrade** — a ``threads=4`` request on a toolchain without
  OpenMP yields a working single-thread kernel, bit-identical;
* **no per-batch churn** — ``run_trimmed`` returns a view of the unpacked
  output block, never a defensive copy, and the pooled arena hands
  aligned buffers across executor lifetimes;
* **knob resolution** — a kernel's tile and threads come from the
  argument, then ``REPRO_NATIVE_TILE``/``REPRO_NATIVE_THREADS``, then the
  library default; nothing read from disk overrides them.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.algorithms.registry import all_specs, get_spec
from repro.bulk import BulkExecutor, bulk_run
from repro.bulk import arena
from repro.bulk.arrangement import make_arrangement
from repro.codegen.cache import cache_dir, cache_stats
from repro.codegen.compile import (
    compile_bulk,
    default_tile,
    have_compiler,
    have_openmp,
)
from repro.errors import ExecutionError
from repro.reliability.incidents import clear_incidents, incidents
from repro.trace.replay import replay_lanes

needs_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler")


@pytest.fixture(autouse=True)
def _tmp_kernel_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kernel-cache"))
    monkeypatch.setenv("REPRO_COMPILE_BACKOFF", "0")


def _spec_case(spec, p, seed=7):
    """A registry program and inputs.  Declared outputs are dropped, so
    the matrix keeps comparing whole memory images."""
    n = spec.sizes[0]
    program = dataclasses.replace(spec.build(n), outputs=None)
    inputs = spec.make_inputs(np.random.default_rng(seed), n, p)
    return program, inputs


def _full_memory(program, p, inputs, **kwargs):
    ex = BulkExecutor(program, p, "column", **kwargs)
    try:
        ex.load(inputs)
        ex.execute()
        return ex.memory_view().copy(), ex
    finally:
        ex.close()


# -- the bit-identity matrix -------------------------------------------------

@needs_cc
@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_registry_native_variants_bit_identical(spec):
    # p=23 is deliberately awkward: odd, non-warp, and a non-multiple of
    # every candidate tile, so every kernel exercises a ragged last tile.
    p = 23
    program, inputs = _spec_case(spec, p)
    reference = replay_lanes(program, inputs).T
    variants = [
        dict(tile=5),                 # non-divisor of 23
        dict(tile=64),                # tile > p: one partial tile
        dict(tile=8, threads=2),      # threaded (degrades sans OpenMP)
    ]
    for kwargs in variants:
        mem, ex = _full_memory(
            program, p, inputs, backend="native", **kwargs
        )
        assert ex.backend == "native"
        np.testing.assert_array_equal(
            mem, reference,
            err_msg=f"{spec.name} native {kwargs} diverged from the replay",
        )
    # 64-instruction chunks: most registry programs fit the default
    # 512-instruction chunk, so this leg is what drives their registers
    # across chunk boundaries through the spill slab.
    kernel = compile_bulk(
        program, make_arrangement("column", program.memory_words, p), chunk=64
    )
    try:
        out = np.empty((p, program.memory_words), dtype=program.dtype)
        kernel.run_bulk(np.ascontiguousarray(inputs, dtype=program.dtype), out)
    finally:
        kernel.close()
    np.testing.assert_array_equal(
        out.T, reference,
        err_msg=f"{spec.name} native chunk=64 diverged from the replay",
    )


@needs_cc
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_thread_counts_bit_identical(threads):
    p = 64
    spec = get_spec("prefix-sums")
    program, inputs = _spec_case(spec, p)
    reference = replay_lanes(program, inputs).T
    mem, ex = _full_memory(
        program, p, inputs, backend="native", tile=24, threads=threads
    )
    assert ex.backend == "native"
    if not have_openmp():
        assert ex.threads == 1
    np.testing.assert_array_equal(mem, reference)


@needs_cc
def test_partial_batches_trimmed_bit_identical():
    p = 16
    spec = get_spec("bitonic-sort")
    program, inputs = _spec_case(spec, p)
    for q in (1, 5, p):
        rows = inputs[:q]
        with_native = BulkExecutor(
            program, p, backend="native", tile=6, threads=2
        )
        try:
            got = with_native.run_trimmed(rows)
            assert got.shape[0] == q
            np.testing.assert_array_equal(got, replay_lanes(program, rows))
        finally:
            with_native.close()


@needs_cc
def test_guarded_tiled_native_bit_identical():
    p = 16
    spec = get_spec("opt")
    program, inputs = _spec_case(spec, p)
    expected = bulk_run(program, inputs)
    ex = BulkExecutor(
        program, p, backend="native", guard="spot", tile=7, threads=2
    )
    try:
        out = ex.run(inputs).outputs
        assert ex.backend == "native"  # the guard found nothing to degrade
        assert out.tobytes() == expected.tobytes()
    finally:
        ex.close()


@needs_cc
def test_threads_degrade_cleanly_without_openmp(monkeypatch):
    monkeypatch.setattr("repro.codegen.compile.have_openmp", lambda: False)
    p = 16
    spec = get_spec("prefix-sums")
    program, inputs = _spec_case(spec, p)
    reference = replay_lanes(program, inputs).T
    mem, ex = _full_memory(
        program, p, inputs, backend="native", tile=8, threads=4
    )
    assert ex.backend == "native"
    assert ex.threads == 1  # degraded request, not a compile failure
    np.testing.assert_array_equal(mem, reference)


# -- engine knobs ------------------------------------------------------------

@needs_cc
def test_env_knobs_resolve_when_args_absent(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_TILE", "48")
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")
    spec = get_spec("prefix-sums")
    program, inputs = _spec_case(spec, 16)
    ex = BulkExecutor(program, 16, backend="native")
    try:
        assert ex.tile == 48
        assert ex.threads == 1
    finally:
        ex.close()
    ex = BulkExecutor(program, 16, backend="native", tile=9)  # argument wins
    try:
        assert ex.tile == 9
    finally:
        ex.close()


@needs_cc
def test_leftover_tuning_file_changes_nothing():
    """A ``<cache>/autotune/`` entry written by an older version is never
    read: the executor gets the library default tile and one thread."""
    p = 32
    program, inputs = _spec_case(get_spec("prefix-sums"), p)
    arrangement = make_arrangement("column", program.memory_words, p)
    # The older version's file name: a content address over the program
    # text and the geometry, lane count included.
    parts = [
        program.name,
        str(program.dtype),
        str(program.memory_words),
        arrangement.name,
        str(p),
        str(getattr(arrangement, "stride", 0)),
    ]
    parts.extend(str(instr) for instr in program.instructions)
    fingerprint = hashlib.sha256("\n".join(parts).encode()).hexdigest()[:32]
    directory = cache_dir() / "autotune"
    directory.mkdir(parents=True)
    (directory / f"{fingerprint}.json").write_text(json.dumps({
        "format": "repro-autotune",
        "version": 2,
        "tile": 4,
        "threads": 1,
        "seconds": 1e-4,
        "scores": {"4x1": 1e-4},
        "fingerprint": fingerprint,
        "host_cpus": 1,
    }))
    assert default_tile(program, arrangement) != 4
    clear_incidents()
    mem, ex = _full_memory(program, p, inputs, backend="native")
    assert ex.backend == "native"
    assert ex.tile == default_tile(program, arrangement)
    assert ex.threads == 1
    assert incidents() == []
    np.testing.assert_array_equal(mem, replay_lanes(program, inputs).T)


def test_invalid_knobs_raise():
    program, _ = _spec_case(get_spec("prefix-sums"), 8)
    with pytest.raises(ExecutionError):
        BulkExecutor(program, 8, tile=0)
    with pytest.raises(ExecutionError):
        BulkExecutor(program, 8, threads=-1)


# -- run_trimmed unpacks only the real lanes ----------------------------------

def test_run_trimmed_owns_its_rows():
    p = 8
    spec = get_spec("prefix-sums")
    program, inputs = _spec_case(spec, p)
    ex = BulkExecutor(program, p)
    try:
        trimmed = ex.run_trimmed(inputs[:5])
        # The q real lanes are unpacked straight into a fresh (q, words)
        # array: no p-lane image behind it, nothing shared with the
        # executor, and no output image left alive in the executor.
        assert trimmed.base is None
        assert trimmed.shape == (5, program.memory_words)
        assert not np.may_share_memory(trimmed, ex._mem)
        assert ex._issued() is None
        want = bulk_run(program, inputs)[:5]
        np.testing.assert_array_equal(trimmed, want)
    finally:
        ex.close()


# -- the buffer arena ----------------------------------------------------------

class TestArena:
    def test_aligned_and_zeroed(self):
        buf = arena.aligned_zeros(7, 33, np.int64)
        assert buf.ctypes.data % arena.ALIGN == 0
        assert buf.flags["C_CONTIGUOUS"]
        assert not buf.any()
        assert buf.shape == (7, 33)

    def test_release_then_acquire_reuses_and_rezeroes(self):
        before = arena.arena_stats()
        buf = arena.acquire(11, 65, np.float64)
        assert buf.ctypes.data % arena.ALIGN == 0
        buf[...] = 3.5  # dirty it
        addr = buf.ctypes.data
        arena.release(buf)
        again = arena.acquire(11, 65, np.float64)
        after = arena.arena_stats()
        assert again.ctypes.data == addr  # same block came back
        assert not again.any()  # ...zeroed
        assert after.hits == before.hits + 1

    def test_byte_cap_drops_instead_of_pooling(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARENA_MAX_BYTES", "0")
        before = arena.arena_stats()
        buf = arena.acquire(3, 9, np.int64)
        arena.release(buf)
        after = arena.arena_stats()
        assert after.dropped == before.dropped + 1
        assert after.pooled_bytes == before.pooled_bytes

    def test_executor_round_trip_hits_pool(self):
        spec = get_spec("prefix-sums")
        program, inputs = _spec_case(spec, 8)
        first = BulkExecutor(program, 8)
        first.run(inputs)
        first.close()
        before = arena.arena_stats()
        second = BulkExecutor(program, 8)  # same geometry
        try:
            assert arena.arena_stats().hits == before.hits + 1
            np.testing.assert_array_equal(
                second.run(inputs).outputs, bulk_run(program, inputs)
            )
        finally:
            second.close()

    def test_stats_dict_deterministically_ordered(self):
        for stats in (arena.arena_stats(), cache_stats()):
            keys = list(stats.as_dict())
            assert keys == sorted(keys)
