"""Backend equivalence, validation, caching and perf-smoke tests.

The contract: the fused NumPy engine and the compiled C bulk kernel are
*bit-identical* to the unfused references — the IR replay
(:mod:`repro.trace.replay`, one Python statement per instruction) and the
sequential interpreter — on every registry algorithm.  Native-backend
tests skip cleanly when no C compiler is on PATH.
"""

import dataclasses

import numpy as np
import pytest

from repro.algorithms.registry import all_specs, get_spec
from repro.bulk import BACKENDS, BulkExecutor, BulkSession, bulk_run, resolve_backend
from repro.codegen.compile import have_compiler
from repro.errors import ExecutionError
from repro.trace import run_sequential
from repro.trace.replay import replay_lanes

needs_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler")

ARRANGEMENTS = ("column", "row", "padded-row")


@pytest.fixture(autouse=True)
def _tmp_kernel_cache(tmp_path, monkeypatch):
    """Keep compiled kernels out of the user's real cache directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kernel-cache"))


def _spec_case(spec, p, seed=7):
    """A registry program and inputs.  Declared outputs are dropped, so
    these suites keep comparing whole memory images."""
    n = spec.sizes[0]
    program = dataclasses.replace(spec.build(n), outputs=None)
    rng = np.random.default_rng(seed)
    inputs = spec.make_inputs(rng, n, p)
    return program, inputs


# -- bit-identical backends across the registry ---------------------------------

@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_fused_matches_unfused_and_sequential(spec):
    program, inputs = _spec_case(spec, p=7)
    fused = bulk_run(program, inputs)
    np.testing.assert_array_equal(fused, replay_lanes(program, inputs))
    for j in range(inputs.shape[0]):
        ref = run_sequential(program, inputs[j], collect_trace=False).memory
        np.testing.assert_array_equal(fused[j], ref)


@needs_cc
@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_native_matches_numpy_and_sequential(spec):
    program, inputs = _spec_case(spec, p=5)
    numpy_out = bulk_run(program, inputs, backend="numpy")
    native_out = bulk_run(program, inputs, backend="native")
    np.testing.assert_array_equal(native_out, numpy_out)
    ref = run_sequential(program, inputs[0], collect_trace=False).memory
    np.testing.assert_array_equal(native_out[0], ref)


@needs_cc
@pytest.mark.parametrize("arrangement", ARRANGEMENTS)
def test_native_matches_numpy_every_arrangement(arrangement):
    spec = get_spec("opt")
    program, inputs = _spec_case(spec, p=6)
    numpy_out = bulk_run(program, inputs, arrangement, backend="numpy")
    native_out = bulk_run(program, inputs, arrangement, backend="native")
    np.testing.assert_array_equal(native_out, numpy_out)


def test_auto_backend_always_resolves():
    spec = get_spec("prefix-sums")
    program, inputs = _spec_case(spec, p=4)
    ex = BulkExecutor(program, 4, backend="auto")
    assert ex.backend in ("numpy", "native")
    out = ex.run(inputs).outputs
    ref = run_sequential(program, inputs[0], collect_trace=False).memory
    np.testing.assert_array_equal(out[0], ref)


def test_resolve_backend_rejects_unknown():
    program = get_spec("prefix-sums").build(4)
    ex = BulkExecutor(program, 4)
    with pytest.raises(ExecutionError, match="unknown backend"):
        resolve_backend("cuda", program, ex.arrangement)
    assert set(BACKENDS) == {"numpy", "native", "auto"}


@pytest.mark.skipif(have_compiler(), reason="compiler present")
def test_explicit_native_without_compiler_raises():
    program = get_spec("prefix-sums").build(4)
    with pytest.raises(ExecutionError, match="requires a C compiler"):
        BulkExecutor(program, 4, backend="native")


# -- validation before shared-buffer mutation (satellite 1) ---------------------

def test_bad_inputs_rejected_before_buffers_touched():
    spec = get_spec("prefix-sums")
    program, inputs = _spec_case(spec, p=8)
    ex = BulkExecutor(program, 8)
    good = ex.run(inputs).outputs
    buffer_before = ex.memory_view().copy()

    with pytest.raises(ExecutionError, match="expected inputs of shape"):
        ex.run(inputs[:3])  # wrong p
    with pytest.raises(ExecutionError, match="expected inputs of shape"):
        ex.run(inputs.ravel())  # wrong ndim
    too_wide = np.zeros((8, program.memory_words + 1), dtype=program.dtype)
    with pytest.raises(ExecutionError, match="memory"):
        ex.run(too_wide)

    # The failed calls must not have dirtied the shared arranged buffer...
    np.testing.assert_array_equal(ex.memory_view(), buffer_before)
    # ...and the executor still produces correct results afterwards.
    np.testing.assert_array_equal(ex.run(inputs).outputs, good)


# -- session partial batches (satellite 2) --------------------------------------

def _session_partial_case(backend):
    spec = get_spec("prefix-sums")
    n = spec.sizes[0]
    program = spec.build(n)
    rng = np.random.default_rng(11)
    rows = spec.make_inputs(rng, n, 13)  # 13 inputs, batch 8 -> partial of 5
    session = BulkSession(program, batch=8, backend=backend)
    got = list(session.feed(rows))
    got += list(session.flush())
    assert len(got) == 13
    assert session.pending == 0
    for j, out in enumerate(got):
        assert out.shape == (program.memory_words,)
        ref = run_sequential(program, rows[j], collect_trace=False).memory
        np.testing.assert_array_equal(out, ref)


def test_session_partial_batch_numpy():
    _session_partial_case("numpy")


@needs_cc
def test_session_partial_batch_native():
    _session_partial_case("native")


# -- compilation cache (satellite 6) --------------------------------------------

@needs_cc
def test_second_compilation_is_a_cache_hit(tmp_path, monkeypatch):
    from repro.codegen import cache_stats, clear_cache
    from repro.codegen import cache as cache_mod
    from repro.codegen.compile import compile_bulk

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh-cache"))
    program = get_spec("prefix-sums").build(4)
    ex = BulkExecutor(program, 4)

    hits0, misses0 = cache_mod._hits, cache_mod._misses
    compile_bulk(program, ex.arrangement)
    stats = cache_stats()
    assert stats.entries >= 1 and stats.size_bytes > 0
    assert cache_mod._misses == misses0 + 1

    compile_bulk(program, ex.arrangement)  # same program, same flags
    assert cache_mod._hits == hits0 + 1
    assert cache_mod._misses == misses0 + 1  # no new compile
    assert cache_stats().entries == stats.entries

    assert clear_cache() == stats.entries
    assert cache_stats().entries == 0


def test_fusion_stats_report_the_pass():
    program = get_spec("opt").build(8)
    fused = BulkExecutor(program, 4)
    stats = fused.fusion_stats
    assert stats is not None and stats.elided_loads > 0
    fused.close()
