"""The fused gather–compute–scatter native kernel, through the engine.

The native backend keeps no arranged buffer: each tile gathers its lanes'
inputs into a tile-private stack slab, runs the program there and
scatters straight into the output image.  These tests pin what that
changes above the kernel:

* a native executor never touches the buffer arena — neither building it
  nor running it — and allocates the NumPy arranged buffer only when a
  guard degrades it, after which its outputs stay bit-identical;
* ``load``/``execute``/``outputs``/``memory_view`` keep their contracts
  (the column ``memory_view`` is the transposed output image);
* tiles are slab-sized: an explicit tile (or ``REPRO_NATIVE_TILE``) whose
  slab exceeds the stack budget raises, and the default shrinks to fit.
"""

import dataclasses
import platform

import numpy as np
import pytest

from repro.algorithms.registry import get_spec
from repro.bulk import BulkExecutor, bulk_run
from repro.bulk import arena
from repro.bulk.arrangement import make_arrangement
from repro.codegen.compile import (
    BULK_DEFAULT_TILE,
    SLAB_BUDGET_BYTES,
    have_compiler,
    resolve_tile,
    slab_bytes,
)
from repro.errors import ExecutionError, SlabBudgetError
from repro.reliability import FaultPlan, clear_quarantine
from repro.reliability.incidents import clear_incidents, incidents
from repro.trace.ir import Load, Program, Store
from repro.trace.replay import replay_lanes

needs_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler")


@pytest.fixture(autouse=True)
def _tmp_kernel_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kernel-cache"))
    monkeypatch.setenv("REPRO_COMPILE_BACKOFF", "0")
    yield
    clear_quarantine()


def _case(name="opt", p=13, seed=3):
    """A registry program with its declared outputs dropped: these tests
    pin the whole-memory image contract."""
    spec = get_spec(name)
    n = spec.sizes[0]
    program = dataclasses.replace(spec.build(n), outputs=None)
    return program, spec.make_inputs(np.random.default_rng(seed), n, p)


def _wide_program(words):
    """A two-instruction program with a ``words``-word memory image."""
    return Program(
        name=f"wide-{words}",
        instructions=(Load(0, 0), Store(words - 1, 0)),
        num_registers=1,
        memory_words=words,
        dtype=np.dtype("int64"),
    )


# -- no arranged buffer on the native path -------------------------------------

@needs_cc
def test_native_run_leaves_the_arena_untouched():
    program, inputs = _case()
    expected = bulk_run(program, inputs).tobytes()
    before = arena.arena_stats()
    ex = BulkExecutor(program, 13, backend="native")
    try:
        for _ in range(3):
            assert ex.run(inputs).outputs.tobytes() == expected
        assert ex.backend == "native"
        assert ex._mem is None
        assert arena.arena_stats() == before
    finally:
        ex.close()
    assert arena.arena_stats() == before


@needs_cc
def test_guarded_native_run_leaves_the_arena_untouched():
    # The spot guard's NumPy replay executor is built on the first run;
    # from then on a guarded native run moves no arena counter either.
    program, inputs = _case()
    ex = BulkExecutor(program, 13, backend="native", guard="spot")
    try:
        ex.run(inputs)
        before = arena.arena_stats()
        for _ in range(3):
            ex.run(inputs)
        assert ex.backend == "native"
        assert arena.arena_stats() == before
    finally:
        ex.close()


@needs_cc
@pytest.mark.parametrize(
    "plan, kind",
    [
        (FaultPlan().corrupt("engine.native.outputs", times=None),
         "guard-mismatch"),
        (FaultPlan().fail("engine.native.run", times=None), "native-crash"),
    ],
    ids=["guard-mismatch", "native-crash"],
)
def test_degraded_runs_allocate_the_numpy_buffer_lazily(plan, kind):
    program, inputs = _case("bitonic-sort", p=11)
    baseline = bulk_run(program, inputs)
    clear_incidents()
    ex = BulkExecutor(program, 11, backend="native", guard="spot")
    try:
        assert ex._mem is None
        with plan.active():
            degraded = ex.run(inputs).outputs
        assert ex.backend == "numpy"
        assert ex._mem is not None  # allocated by the degradation
        assert degraded.tobytes() == baseline.tobytes()
        assert ex.run(inputs).outputs.tobytes() == baseline.tobytes()
        assert [i.kind for i in incidents(kind)] == [kind]
    finally:
        ex.close()


@needs_cc
def test_split_path_contracts_hold():
    program, inputs = _case(p=9)
    want = replay_lanes(program, inputs)
    numpy_ex = BulkExecutor(program, 9, backend="numpy")
    native_ex = BulkExecutor(program, 9, backend="native", tile=4)
    try:
        for ex in (numpy_ex, native_ex):
            ex.load(inputs)
            ex.execute()
            np.testing.assert_array_equal(ex.outputs(), want)
            np.testing.assert_array_equal(ex.memory_view(), want.T)
        image = native_ex.outputs()
        view = native_ex.memory_view()
        assert view.shape == (program.memory_words, 9)
        assert np.shares_memory(view, image)  # the transposed image
        # Every execute writes a fresh image: earlier results stay valid.
        native_ex.execute()
        assert native_ex.outputs() is not image
        np.testing.assert_array_equal(native_ex.outputs(), image)
    finally:
        numpy_ex.close()
        native_ex.close()


@needs_cc
@pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="refill needs objects freed when their last reference goes",
)
def test_released_images_are_refilled_held_ones_never():
    program, inputs = _case(p=9)
    expected = bulk_run(program, inputs)
    ex = BulkExecutor(program, 9, backend="native", guard="spot")
    try:
        first = ex.run(inputs).outputs
        held = ex.run(inputs[::-1].copy()).outputs  # `first` still held
        assert held is not first
        np.testing.assert_array_equal(first, expected)
        address = held.ctypes.data
        del first, held
        again = ex.run(inputs).outputs  # nothing held: refilled in place
        assert again.ctypes.data == address
        np.testing.assert_array_equal(again, expected)
    finally:
        ex.close()


@needs_cc
@pytest.mark.parametrize(
    "hold",
    [
        lambda image: image[:3],
        lambda image: image[1:][:2],
        lambda image: image.T,
        lambda image: image.reshape(-1),
        lambda image: memoryview(image),
        lambda image: np.frombuffer(image, dtype=image.dtype),
    ],
    ids=["view", "view-of-view", "transpose", "reshape", "memoryview",
         "frombuffer"],
)
def test_anything_reaching_an_image_keeps_it_from_refill(hold):
    program, inputs = _case(p=9)
    ex = BulkExecutor(program, 9, backend="native")
    try:
        image = ex.run(inputs).outputs
        held = hold(image)
        snapshot = np.array(held, copy=True)
        del image
        later = ex.run(inputs[::-1].copy()).outputs
        np.testing.assert_array_equal(np.asarray(held), snapshot)
        assert not np.shares_memory(np.asarray(held), later)
    finally:
        ex.close()


@needs_cc
def test_padded_row_memory_view_is_the_arranged_buffer():
    program, inputs = _case(p=7)
    views = []
    for backend in ("numpy", "native"):
        ex = BulkExecutor(program, 7, "padded-row", backend=backend)
        try:
            ex.run(inputs)
            views.append(ex.memory_view().copy())
        finally:
            ex.close()
    np.testing.assert_array_equal(views[0], views[1])


@needs_cc
def test_kernel_abi_validates_its_arrays():
    program, inputs = _case(p=6)
    ex = BulkExecutor(program, 6, backend="native")
    kernel, words = ex._native, program.memory_words
    try:
        out = np.empty((6, words), dtype=program.dtype)
        for bad_inputs, bad_out in (
            (inputs[:5], out),                              # wrong p
            (inputs.astype(np.float32), out),               # wrong dtype
            (np.asfortranarray(inputs), out),               # not C order
            (np.zeros((6, words + 1), program.dtype), out), # too many words
            (inputs, np.empty((6, words - 1), program.dtype)),
        ):
            with pytest.raises(ExecutionError):
                kernel.run_bulk(bad_inputs, bad_out)
        kernel.run_bulk(np.ascontiguousarray(inputs), out)
        np.testing.assert_array_equal(out, bulk_run(program, inputs))
    finally:
        ex.close()


# -- slab-sized tiles ----------------------------------------------------------

def test_default_tile_shrinks_to_the_slab_budget():
    small = _wide_program(64)
    arr = make_arrangement("column", 64, 8)
    assert resolve_tile(small, arr, None) == BULK_DEFAULT_TILE
    wide = _wide_program(8192)  # 64 KiB per lane
    arr = make_arrangement("column", 8192, 8)
    tile = resolve_tile(wide, arr, None)
    assert 1 <= tile < BULK_DEFAULT_TILE
    assert slab_bytes(wide, arr, tile) <= SLAB_BUDGET_BYTES < slab_bytes(
        wide, arr, tile + 1
    )


def test_over_budget_tile_raises_instead_of_overflowing_the_stack(monkeypatch):
    program = _wide_program(4000)  # ~31 KiB per lane: 8 lanes fit, 16 do not
    with pytest.raises(ExecutionError, match="slab"):
        BulkExecutor(program, 32, backend="native", tile=16)
    # A caller error, not a kernel failure: a degrading guard re-raises it.
    with pytest.raises(SlabBudgetError):
        BulkExecutor(program, 32, backend="native", tile=16, guard="spot")
    monkeypatch.setenv("REPRO_NATIVE_TILE", "16")
    with pytest.raises(ExecutionError, match="slab"):
        BulkExecutor(program, 32, backend="auto")
