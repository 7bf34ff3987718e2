"""One native kernel per program: the lane count is a kernel argument.

The emitted bulk kernel takes ``P`` as its last parameter, so executors
of one program object at any lane count share one emission and one
compiled shared object per ``(layout, stride, tile, threads, chunk)``:

* a fresh kernel cache holds exactly one entry per layout and tile after
  executors at ragged and exact lane counts, and the emitter ran once per
  configuration;
* every lane count is bit-identical to the IR replay
  (:func:`~repro.trace.replay.replay_lanes`) on the declared outputs;
* the kernel takes ``p`` from its inputs' rows and refuses an output
  image of another row count before calling into C.
"""

import numpy as np
import pytest

import repro.codegen.c_emitter as c_emitter
from repro.algorithms.registry import get_spec
from repro.bulk import BulkExecutor
from repro.bulk.arrangement import make_arrangement
from repro.codegen.cache import cache_stats
from repro.codegen.compile import compile_bulk, have_compiler
from repro.errors import ExecutionError
from repro.trace.replay import replay_lanes

needs_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler")

#: Ragged and exact tails against the default 8-lane tile.
LANES = (1, 7, 8, 9, 33, 64, 256)
LAYOUTS = ("column", "row", "padded-row")


@pytest.fixture(autouse=True)
def _fresh_kernel_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kernel-cache"))
    monkeypatch.setenv("REPRO_COMPILE_BACKOFF", "0")


@pytest.fixture()
def emissions(monkeypatch):
    """Every ``emit_bulk_c`` call's ``(layout, tile)``."""
    calls = []
    real = c_emitter.emit_bulk_c

    def counting(program, layout="column", **kwargs):
        calls.append((layout, kwargs.get("stride"), kwargs.get("tile")))
        return real(program, layout, **kwargs)

    monkeypatch.setattr(c_emitter, "emit_bulk_c", counting)
    return calls


def _declared_reference(program, inputs):
    memory = replay_lanes(program, np.asarray(inputs, dtype=program.dtype))
    return memory[:, program.output_index()]


@needs_cc
def test_one_cache_entry_and_one_emission_per_configuration(emissions):
    spec = get_spec("prefix-sums")
    n = spec.sizes[1]
    program = spec.build(n)
    assert cache_stats().entries == 0
    configs = 0
    for layout in LAYOUTS:
        for tile in (1, None):
            configs += 1
            for p in LANES:
                inputs = spec.make_inputs(np.random.default_rng(p), n, p)
                executor = BulkExecutor(
                    program, p, layout, backend="native", tile=tile
                )
                try:
                    assert executor.backend == "native"
                    out = executor.run(inputs).outputs
                finally:
                    executor.close()
                assert out.tobytes() == _declared_reference(
                    program, inputs
                ).tobytes(), (layout, tile, p)
            assert cache_stats().entries == configs, (layout, tile)
            assert len(emissions) == configs, (layout, tile)
    assert len(set(emissions)) == configs


@needs_cc
@pytest.mark.parametrize("name", ["opt", "lcs", "matrix-chain", "prefix-sums"])
def test_every_lane_count_matches_the_replay(name):
    spec = get_spec(name)
    n = spec.sizes[1]
    program = spec.build(n)
    for p in LANES:
        inputs = spec.make_inputs(np.random.default_rng(p), n, p)
        executor = BulkExecutor(program, p, backend="native")
        try:
            assert executor.backend == "native"
            out = executor.run(inputs).outputs
        finally:
            executor.close()
        want = _declared_reference(program, inputs)
        assert out.tobytes() == want.tobytes(), (name, p)
    assert cache_stats().entries == 1


@needs_cc
def test_kernel_takes_p_from_its_inputs():
    spec = get_spec("opt")
    n = spec.sizes[0]
    program = spec.build(n)
    # Built against an arrangement of 4 lanes; the kernel serves any p.
    kernel = compile_bulk(
        program, make_arrangement("column", program.memory_words, 4)
    )
    try:
        for p in (1, 5, 17):
            inputs = np.ascontiguousarray(
                spec.make_inputs(np.random.default_rng(p), n, p),
                dtype=program.dtype,
            )
            out = np.empty((p, program.output_words), dtype=program.dtype)
            kernel.run_bulk(inputs, out)
            assert out.tobytes() == _declared_reference(
                program, inputs).tobytes()
    finally:
        kernel.close()


@needs_cc
@pytest.mark.parametrize("in_rows, out_rows", [(6, 5), (5, 6), (0, 0)])
def test_run_bulk_rejects_row_counts_before_calling_c(in_rows, out_rows):
    program = get_spec("prefix-sums").build(4)
    kernel = compile_bulk(
        program, make_arrangement("column", program.memory_words, 6)
    )
    called = []
    real = kernel._kernel
    kernel._kernel = lambda *args: called.append(args) or real(*args)
    try:
        inputs = np.zeros((in_rows, program.memory_words), program.dtype)
        out = np.empty((out_rows, program.output_words), program.dtype)
        with pytest.raises(ExecutionError, match="same p >= 1 rows"):
            kernel.run_bulk(inputs, out)
        assert called == []
    finally:
        kernel.close()
