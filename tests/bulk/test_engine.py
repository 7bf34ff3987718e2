"""BulkExecutor: the vectorised engine vs the sequential interpreter.

The central integration property: for *any* program the builder produces
and *any* inputs, a bulk run equals running the sequential interpreter on
each input independently — the bulk execution is semantically invisible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get_spec
from repro.bulk import BulkExecutor, bulk_run
from repro.errors import ExecutionError
from repro.trace import ProgramBuilder, run_sequential
from repro.trace.interpreter import run_sequential_batch


def build_mixed_program(n=6):
    """A program exercising every instruction class."""
    b = ProgramBuilder(n, name="mixed")
    acc = b.const(1.0)
    for i in range(n - 1):
        x = b.load(i)
        y = b.load(i + 1)
        m = b.minimum(x, y)
        acc = b.select(x < y, acc + m, acc - m)
        b.store(i, abs(acc) + b.maximum(x, -y))
    b.store(n - 1, acc)
    return b.build()


class TestBasics:
    @pytest.mark.parametrize("arrangement", ["row", "column"])
    def test_prefix_sums(self, arrangement, rng):
        n, p = 8, 16
        b = ProgramBuilder(n)
        r = b.const(0.0)
        for i in range(n):
            r = r + b.load(i)
            b.store(i, r)
        prog = b.build()
        inputs = rng.uniform(-1, 1, size=(p, n))
        out = bulk_run(prog, inputs, arrangement)
        np.testing.assert_allclose(out, np.cumsum(inputs, axis=1))

    def test_wrong_input_shape(self):
        prog = build_mixed_program()
        ex = BulkExecutor(prog, p=4)
        with pytest.raises(ExecutionError):
            ex.run(np.zeros((5, 6)))

    def test_bulk_run_requires_2d(self):
        with pytest.raises(ExecutionError):
            bulk_run(build_mixed_program(), np.zeros(6))

    def test_short_inputs_zero_extended(self):
        n = 4
        b = ProgramBuilder(n)
        b.store(3, b.load(0) + b.load(3))
        prog = b.build()
        out = bulk_run(prog, np.full((2, 1), 5.0))
        np.testing.assert_array_equal(out[:, 3], [5.0, 5.0])

    def test_executor_reusable_and_stateless_between_runs(self, rng):
        prog = build_mixed_program()
        ex = BulkExecutor(prog, p=4)
        a = rng.uniform(-1, 1, (4, 6))
        first = ex.run(a).outputs
        ex.run(rng.uniform(-1, 1, (4, 6)))
        again = ex.run(a).outputs
        np.testing.assert_array_equal(first, again)

    def test_result_metadata(self):
        prog = build_mixed_program()
        res = BulkExecutor(prog, p=3).run(np.zeros((3, 6)))
        assert res.p == 3
        assert res.trace_length == prog.trace_length
        assert res.outputs.shape == (3, 6)

    def test_closed_executor_never_touches_a_pooled_buffer(self, rng):
        """A closed executor's column buffer goes back to the arena, where
        the next executor of the same shape picks it up; the closed one
        must then refuse every call instead of writing into it."""
        prog = get_spec("prefix-sums").build(8)
        a = BulkExecutor(prog, p=16)
        a.run(rng.integers(-9, 9, (16, 8)))
        a.close()
        b = BulkExecutor(prog, p=16)
        inputs = rng.integers(-9, 9, (16, 8))
        b.load(inputs)
        with pytest.raises(ExecutionError, match="closed"):
            a.load(np.zeros((16, 8), dtype=prog.dtype))
        for call in (a.execute, a.outputs, a.memory_view):
            with pytest.raises(ExecutionError, match="closed"):
                call()
        b.execute()
        want, _ = run_sequential_batch(prog, inputs)
        np.testing.assert_array_equal(b.outputs(), want)
        b.close()

    def test_int_dtype_program(self, rng):
        b = ProgramBuilder(3, dtype=np.int64)
        b.store(2, (b.load(0) & 0xF) ^ (b.load(1) << 2))
        prog = b.build()
        inputs = rng.integers(0, 100, size=(8, 2))
        out = bulk_run(prog, inputs)
        want = (inputs[:, 0] & 0xF) ^ (inputs[:, 1] << 2)
        np.testing.assert_array_equal(out[:, 2], want)


class TestAgreementWithInterpreter:
    @pytest.mark.parametrize("arrangement", ["row", "column"])
    def test_mixed_program(self, arrangement, rng):
        prog = build_mixed_program()
        inputs = rng.uniform(-3, 3, size=(10, 6))
        bulk = bulk_run(prog, inputs, arrangement)
        for j in range(10):
            seq = run_sequential(prog, inputs[j], collect_trace=False).memory
            np.testing.assert_allclose(bulk[j], seq, rtol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    def test_bulk_equals_sequential_random_programs(self, seed, p):
        """Bulk SIMD execution is per-input invisible (both arrangements)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        b = ProgramBuilder(n)
        live = [b.const(float(rng.integers(-2, 3)))]
        for _ in range(int(rng.integers(3, 25))):
            k = int(rng.integers(0, 5))
            if k == 0:
                live.append(b.load(int(rng.integers(0, n))))
            elif k == 1:
                b.store(int(rng.integers(0, n)), live[int(rng.integers(0, len(live)))])
            elif k == 2 and len(live) >= 2:
                x, y = (live[int(rng.integers(0, len(live)))] for _ in range(2))
                live.append(x * y + 0.5)
            elif k == 3 and len(live) >= 3:
                c, x, y = (live[int(rng.integers(0, len(live)))] for _ in range(3))
                live.append(b.select(c, x, y))
            else:
                live.append(b.maximum(live[-1], 0.0) - 1.0)
            live = live[-5:]
        b.store(0, live[-1])
        prog = b.build()
        inputs = rng.integers(-3, 4, size=(p, n)).astype(np.float64)
        for arrangement in ("row", "column"):
            bulk = bulk_run(prog, inputs, arrangement)
            for j in range(p):
                seq = run_sequential(prog, inputs[j], collect_trace=False).memory
                np.testing.assert_allclose(bulk[j], seq, rtol=1e-12, atol=1e-12)

    def test_row_and_column_agree(self, rng):
        prog = build_mixed_program()
        inputs = rng.uniform(-2, 2, size=(7, 6))
        np.testing.assert_array_equal(
            bulk_run(prog, inputs, "row"), bulk_run(prog, inputs, "column")
        )


class TestSelectAliasing:
    def test_select_destination_may_alias_operands(self):
        """Register reuse can make Select's rd coincide with rc/ra/rb; the
        staged copy must keep the semantics."""
        n = 2
        b = ProgramBuilder(n)
        x = b.load(0)
        y = b.load(1)
        c = x < y
        # long chain of selects over the same few values forces reuse
        v = x
        for _ in range(10):
            v = b.select(c, v + 1.0, v - 1.0)
        b.store(0, v)
        prog = b.build()
        inputs = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = bulk_run(prog, inputs)
        assert out[0, 0] == 10.0  # cond true: +1 ten times
        assert out[1, 0] == -9.0  # cond false: -1 ten times
