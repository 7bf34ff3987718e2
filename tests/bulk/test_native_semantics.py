"""One arithmetic semantics on every backend: the committed edge fixtures.

``tests/fixtures/`` holds three small programs whose edge cases the native
kernel once got wrong:

* ``int64_wraparound`` — ``x + 1 < x`` at ``INT64_MAX`` (gcc folded the
  signed-overflow compare to 1), plus wrapping SUB, MUL, NEG and ABS;
* ``int64_divisors`` — DIV and MOD by zero and ``MIN / -1`` (SIGFPE killed
  the whole process, guarded or not), SHL and SHR by counts outside
  [0, 64);
* ``float64_edges`` — MIN and MAX on NaN, MOD's signed zero, division and
  modulo by zero.

Every backend × arrangement × tile × threads combination, guarded and
unguarded, must match the sequential interpreter bit for bit on every
pair of edge values, and a guarded native run must stay native (no guard
trip, no incident).
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.bulk import BulkExecutor
from repro.codegen.compile import have_compiler
from repro.errors import BackendError
from repro.reliability import incidents
from repro.trace.interpreter import run_sequential
from repro.trace.ir import Binary, Load, Program, Store
from repro.trace.ops import BinaryOp
from repro.trace.replay import replay_lanes
from repro.trace.serialize import load_program

needs_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
I64 = np.iinfo(np.int64)
EDGES = {
    "int64": [I64.min, I64.min + 1, -65, -64, -2, -1, 0, 1, 2, 7, 63, 64, 65,
              I64.max],
    "float64": [np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5, -1.5,
                1e308],
}
CASES = ("int64_wraparound", "int64_divisors", "float64_edges")


def _case(name):
    program = load_program(FIXTURES / f"{name}.json")
    edges = EDGES[program.dtype.name]
    inputs = np.array(list(itertools.product(edges, edges)), dtype=program.dtype)
    with np.errstate(all="ignore"):
        want = np.array(
            [run_sequential(program, row).memory for row in inputs]
        )
    return program, inputs, want


@pytest.fixture(autouse=True)
def _tmp_kernel_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kernel-cache"))
    monkeypatch.setenv("REPRO_COMPILE_BACKOFF", "0")


def test_fixtures_pin_numpy_semantics():
    program, inputs, want = _case("int64_wraparound")
    at_max = list(inputs[:, 0]).index(I64.max)
    assert want[at_max, 2] == I64.min  # x + 1 wraps
    assert want[at_max, 1] == 0  # so x < x + 1 is false
    program, inputs, want = _case("int64_divisors")
    rows = {tuple(r): i for i, r in enumerate(inputs.tolist())}
    div, mod = (want[rows[I64.min, -1], a] for a in (2, 3))
    assert (div, mod) == (I64.min, 0)
    assert want[rows[7, 0], 2] == want[rows[7, 0], 3] == 0
    assert want[rows[1, 64], 4] == want[rows[1, -1], 4] == 0
    assert want[rows[-2, 64], 5] == -1 and want[rows[2, -1], 5] == 0
    program, inputs, want = _case("float64_edges")
    rows = {tuple(r): i for i, r in enumerate(inputs.tolist())}
    one_nan = rows[next(r for r in rows if np.isnan(r[1]) and r[0] == 1.0)]
    assert np.isnan(want[one_nan, 2]) and np.isnan(want[one_nan, 3])
    assert np.signbit(want[rows[1.0, -1.0], 4])  # np.mod(1, -1) is -0.0


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("fuse", [True, False])
def test_numpy_engine_and_replay(name, fuse):
    program, inputs, want = _case(name)
    ex = BulkExecutor(program, len(inputs), "column", fuse=fuse)
    with np.errstate(all="ignore"):
        out = ex.run(inputs).outputs
    ex.close()
    assert out.tobytes() == want.tobytes()
    assert replay_lanes(program, inputs).tobytes() == want.tobytes()


@needs_cc
@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("arrangement", ["column", "row", "padded-row"])
def test_native_matrix(name, arrangement):
    program, inputs, want = _case(name)
    p = len(inputs)
    for tile, threads, guard in itertools.product(
        (5, 64), (1, 2), (None, "spot")
    ):
        before = len(incidents())
        ex = BulkExecutor(
            program, p, arrangement, backend="native",
            tile=tile, threads=threads, guard=guard,
        )
        try:
            for _ in range(2):  # the guard samples other lanes each round
                out = ex.run(inputs).outputs
                assert out.tobytes() == want.tobytes(), (
                    f"{name} {arrangement} tile={tile} threads={threads} "
                    f"guard={guard}"
                )
            assert ex.backend == "native"
        finally:
            ex.close()
        assert len(incidents()) == before


@needs_cc
def test_native_emits_only_float64_and_int64():
    # An int32 program once compiled to an int64_t kernel that read and
    # wrote twice its buffers' bytes; the replay refuses it too.
    program = Program(
        (Load(0, 0), Load(1, 1), Binary(BinaryOp.ADD, 2, 0, 1), Store(2, 2)),
        3, 3, np.dtype(np.int32),
    )
    ex = BulkExecutor(program, 4, "column", backend="auto", guard="spot")
    assert ex.backend == "numpy"
    ex.close()
    with pytest.raises(BackendError, match="does not support"):
        BulkExecutor(program, 4, "column", backend="native")
