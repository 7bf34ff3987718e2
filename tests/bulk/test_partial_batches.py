"""Partial batches across the whole registry: trimmed views are exact.

The serving layer and ``BulkSession.flush`` both execute ``q < p`` real
inputs by padding idle lanes with zeros and trimming the outputs
(:meth:`BulkExecutor.run_trimmed`).  The paper's model says idle lanes are
just threads of a partially full block — they must not perturb the real
lanes.  This suite pins that down for EVERY registry algorithm, with lane
counts that are deliberately *not* multiples of the warp width, and
requires bit-identity with the sequential baseline.
"""

import dataclasses

import numpy as np
import pytest

from repro.algorithms.registry import all_specs
from repro.bulk import BulkExecutor, BulkSession
from repro.errors import ExecutionError
from repro.trace import run_sequential

# p = 12 with w = 4: the trim sizes exercise one partially full warp
# (q = 5), a near-empty batch (q = 1) and an almost-full one (q = 11).
P = 12
TRIMS = (1, 5, 11)


def _case(spec, q, seed=23):
    """Declared outputs are dropped, so the suite compares whole memory
    images (``tests/bulk/test_declared_outputs.py`` covers the narrow
    ones)."""
    n = spec.sizes[0]
    program = dataclasses.replace(spec.build(n), outputs=None)
    inputs = spec.make_inputs(np.random.default_rng(seed), n, q)
    return program, inputs


def _sequential_rows(program, inputs):
    return np.stack([
        run_sequential(program, row, collect_trace=False).memory
        for row in inputs
    ])


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
@pytest.mark.parametrize("q", TRIMS)
def test_run_trimmed_bit_identical_to_sequential(spec, q):
    program, inputs = _case(spec, q)
    executor = BulkExecutor(program, P, "column")
    outputs = executor.run_trimmed(inputs)
    assert outputs.shape == (q, program.memory_words)
    expected = _sequential_rows(program, inputs)
    assert outputs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_session_flush_partial_batch_bit_identical(spec):
    # The streaming path: 7 inputs into a batch of 12 — flush pads 5 lanes.
    program, inputs = _case(spec, 7)
    expected = _sequential_rows(program, inputs)
    with BulkSession(program, batch=P) as session:
        streamed = list(session.feed(inputs))
    assert streamed == []  # nothing until the batch fills or flushes
    got = np.stack(session.flushed)
    assert got.tobytes() == expected.tobytes()
    assert session.stats.pad_lanes_wasted == P - 7


@pytest.mark.parametrize("spec", all_specs()[:3], ids=lambda s: s.name)
def test_run_trimmed_returns_fresh_array(spec):
    # The trimmed view must be a copy: a second run may reuse the
    # executor's buffers and must not mutate earlier results.
    program, inputs = _case(spec, 5)
    executor = BulkExecutor(program, P, "column")
    first = executor.run_trimmed(inputs)
    snapshot = first.copy()
    executor.run_trimmed(inputs[::-1].copy())
    assert first.tobytes() == snapshot.tobytes()


def test_run_trimmed_validation():
    spec = all_specs()[0]
    program, inputs = _case(spec, 5)
    executor = BulkExecutor(program, P, "column")
    with pytest.raises(ExecutionError, match="2-D"):
        executor.run_trimmed(inputs[0])
    with pytest.raises(ExecutionError, match="does not fit"):
        executor.run_trimmed(np.zeros((P + 1, inputs.shape[1])))
    with pytest.raises(ExecutionError, match="does not fit"):
        executor.run_trimmed(np.zeros((0, inputs.shape[1])))
