"""The output image rule on the NumPy engine, and the unpack it runs.

``BulkExecutor.run`` unpacks the arranged buffer into an image drawn from
the executor's reused store (``_output_image``, the rule the native path
uses too): a released result's store is refilled, a held one never
changes.  ``run_trimmed`` unpacks only its ``q`` real lanes into a fresh
array.  The column-wise unpack itself must equal ``buffer.T`` bit for bit
on every shape, ragged ones included.
"""

import platform
import tracemalloc

import numpy as np
import pytest

from repro.algorithms.registry import get_spec
from repro.bulk import BulkExecutor
from repro.bulk.arrangement import make_arrangement
from repro.errors import ArrangementError
from repro.trace import run_sequential

needs_refcounting = pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="refill needs objects freed when their last reference goes",
)


def _case(p, arrangement="column"):
    spec = get_spec("prefix-sums")
    program = spec.build(40)  # 40 words: not a multiple of the 32-word block
    inputs = spec.make_inputs(np.random.default_rng(p), 40, p)
    ex = BulkExecutor(program, p, arrangement, backend="numpy")
    return program, inputs, ex


@needs_refcounting
@pytest.mark.parametrize("arrangement", ["column", "row", "padded-row"])
def test_released_result_refills_the_store(arrangement):
    program, inputs, ex = _case(200, arrangement)
    try:
        expected = ex.run(inputs).outputs.copy()
        store = ex._store
        for _ in range(2):
            image = ex.run(inputs).outputs
            assert ex._store is store
            assert image.tobytes() == expected.tobytes()
            del image
        tracemalloc.start()
        try:
            ex.run(inputs)  # the result is released at once
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ex._store is store
        assert peak < expected.nbytes // 2  # no fresh image was allocated
    finally:
        ex.close()


@needs_refcounting
@pytest.mark.parametrize(
    "hold",
    [
        lambda image: image[:3],
        lambda image: image.T,
        lambda image: memoryview(image),
    ],
    ids=["view", "transpose", "memoryview"],
)
def test_held_result_never_changes(hold):
    program, inputs, ex = _case(200)
    try:
        image = ex.run(inputs).outputs
        held = hold(image)
        snapshot = np.array(held, copy=True)
        del image
        later = ex.run(inputs[::-1].copy()).outputs
        assert not np.shares_memory(np.asarray(held), later)
        np.testing.assert_array_equal(np.asarray(held), snapshot)
    finally:
        ex.close()


def test_run_trimmed_result_is_fresh_and_holds_nothing():
    program, inputs, ex = _case(200)
    try:
        expected = ex.run(inputs).outputs.copy()
        trimmed = ex.run_trimmed(inputs[:13])
        view = trimmed[2:9]
        snapshot = view.copy()
        assert trimmed.shape == (13, program.memory_words)
        assert trimmed.base is None
        np.testing.assert_array_equal(trimmed, expected[:13])
        ex.run(inputs[::-1].copy())
        ex.run_trimmed(inputs[::-1][:13].copy())
        np.testing.assert_array_equal(view, snapshot)
    finally:
        ex.close()


@pytest.mark.parametrize("words, p, q", [
    (1, 1, 1),
    (40, 200, 200),       # words not a multiple of 32, p not of 64
    (40, 200, 13),        # a narrow image
    (33, 130, 127),       # just under the narrow threshold
    (33, 130, 128),       # just at it
    (257, 300, 300),      # a ragged last block at both block heights
    (257, 300, 97),
    (1024, 192, 191),
])
def test_column_unpack_equals_the_transpose(words, p, q):
    arrangement = make_arrangement("column", words, p)
    rng = np.random.default_rng(words * p + q)
    for dtype in (np.float64, np.int64):
        buffer = rng.integers(-2**62, 2**62, size=(words, p)).astype(dtype)
        out = np.full((q, words), -1, dtype=dtype)
        arrangement.unpack_rows_into(buffer, out)
        assert out.tobytes() == np.ascontiguousarray(buffer.T[:q]).tobytes()
        if q == p:
            assert arrangement.unpack(buffer).tobytes() == out.tobytes()


@pytest.mark.parametrize("kind", ["row", "padded-row"])
def test_row_layouts_unpack_their_rows(kind):
    words, p, q = 40, 200, 77
    arrangement = make_arrangement(kind, words, p)
    buffer = np.random.default_rng(1).random(arrangement.allocate(np.float64).shape)
    out = np.empty((q, words))
    arrangement.unpack_rows_into(buffer, out)
    assert out.tobytes() == np.ascontiguousarray(buffer[:q, :words]).tobytes()
    assert arrangement.unpack(buffer).tobytes() == (
        np.ascontiguousarray(buffer[:, :words]).tobytes()
    )


@pytest.mark.parametrize("kind", ["column", "row", "padded-row"])
@pytest.mark.parametrize("q", [200, 127, 13])
def test_word_ranges_unpack_into_their_columns(kind, q):
    # Declared outputs: several ranges, ragged against the 32- and 256-row
    # blocks, land back to back in the order given.
    words, p = 300, 200
    ranges = ((0, 1), (5, 70), (100, 101), (130, 300))
    arrangement = make_arrangement(kind, words, p)
    buffer = np.random.default_rng(q).random(arrangement.allocate(np.float64).shape)
    columns = np.concatenate([np.arange(lo, hi) for lo, hi in ranges])
    out = np.full((q, columns.size), -1.0)
    arrangement.unpack_rows_into(buffer, out, ranges)
    want = arrangement.unpack(buffer)[:q][:, columns]
    assert out.tobytes() == np.ascontiguousarray(want).tobytes()
    with pytest.raises(ArrangementError):
        arrangement.unpack_rows_into(buffer, np.empty((q, words)), ranges)


@pytest.mark.parametrize("arrangement", ["column", "row", "padded-row"])
def test_every_layout_matches_the_sequential_reference(arrangement):
    program, inputs, ex = _case(70, arrangement)
    try:
        got = ex.run(inputs).outputs
        want = np.array(
            [run_sequential(program, row, collect_trace=False).memory
             for row in inputs],
            dtype=program.dtype,
        )
        assert got.tobytes() == want.tobytes()
    finally:
        ex.close()
