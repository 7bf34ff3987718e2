"""The IR replay (``repro.trace.replay``) against the other two engines.

The spot guard compares every guarded native run with this replay, so the
replay must compute exactly what the NumPy engine and the sequential
interpreter compute:

* every registry program at every registered size, bit for bit;
* generated programs over int64 edge values (``MIN``, ``MAX``, 0, -1 and
  shift counts 63, 64 and -1) and float64 edge values (NaN, ±0, ±inf,
  division and modulo by zero), with the NumPy engine on every
  arrangement, so the edge values also cross the row layouts' strided
  ``read_step``/``write_step`` and the fusion pass's alias
  materialisation.  The generator reuses
  :func:`~tests.bulk.test_simulate_methods.trace_configs` for the memory
  geometry and the address trace, so its Loads and Stores walk the same
  shapes the pricing equivalence tests do;
* the cost it was built for: after warm-up a guarded native ``run()``
  builds no ``BulkExecutor`` and fuses nothing, and each program's replay
  is generated and compiled once per process.
"""

import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import all_specs, get_spec
from repro.bulk import BulkExecutor
from repro.bulk import engine as engine_mod
from repro.codegen.compile import have_compiler
from repro.errors import ProgramError
from repro.trace import replay
from repro.trace.interpreter import run_sequential
from repro.trace.ir import Binary, Const, Load, Program, Select, Store, Unary
from repro.trace.ops import INT_ONLY_OPS, BinaryOp, UnaryOp
from repro.trace.serialize import program_to_dict

from .test_simulate_methods import trace_configs

needs_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler")

I64 = np.iinfo(np.int64)
INT_EDGES = [I64.min, I64.min + 1, -2, -1, 0, 1, 2, 63, 64, I64.max]
FLOAT_EDGES = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.5, 2.0, 1e308]
LAYOUTS = ("column", "row", "padded-row")


@pytest.fixture(autouse=True)
def _tmp_kernel_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kernel-cache"))


def _numpy_engine(program, inputs, arrangement="column"):
    ex = BulkExecutor(program, len(inputs), arrangement)
    try:
        return ex.run(inputs).outputs.copy()
    finally:
        ex.close()


def _sequential(program, inputs):
    return np.array(
        [run_sequential(program, row, collect_trace=False).memory
         for row in inputs],
        dtype=program.dtype,
    ).reshape(len(inputs), program.memory_words)


def _assert_same_bits(got, want, what):
    """Bit identity; two NaNs match whatever their payloads.

    IEEE 754 leaves open which payload an operation on two NaN operands
    returns, and NumPy's own SIMD and scalar loops pick differently for
    the same pair, so only NaN-ness is comparable there.
    """
    assert got.shape == want.shape and got.dtype == want.dtype, what
    same = got.view(np.uint8).reshape(got.shape + (-1,)) == (
        want.view(np.uint8).reshape(want.shape + (-1,))
    )
    same = same.all(axis=-1)
    if got.dtype.kind == "f":
        same |= np.isnan(got) & np.isnan(want)
    assert same.all(), (
        f"{what}: first difference at {np.argwhere(~same)[0].tolist()}: "
        f"{got[~same][0]!r} vs {want[~same][0]!r}"
    )


# -- registry ------------------------------------------------------------------

@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_registry_replay_matches_both_engines(spec):
    for n in spec.sizes:
        # The replay returns whole memories; so must the engine it checks.
        program = dataclasses.replace(spec.build(n), outputs=None)
        inputs = spec.make_inputs(np.random.default_rng(n), n, 5)
        got = replay.replay_lanes(program, inputs)
        engine = _numpy_engine(program, inputs)
        assert got.tobytes() == engine.tobytes(), f"{spec.name} n={n}"
        assert got.tobytes() == _sequential(program, inputs).tobytes()


# -- generated programs over edge values --------------------------------------

def _ops(dtype):
    binary = [op for op in BinaryOp
              if dtype.kind == "i" or op not in INT_ONLY_OPS]
    unary = [op for op in UnaryOp
             if dtype.kind == "i" or op not in INT_ONLY_OPS]
    return binary, unary


@st.composite
def edge_programs(draw, dtype, edges):
    """A valid program over ``edges`` and the inputs to run it on.

    Every register starts from an edge-value ``Const``; each address of
    the drawn trace becomes a Load or a Store, with up to two arithmetic
    instructions (every opcode valid for ``dtype``) before it; the
    registers are stored last so every result is observed.
    """
    _, words, trace = draw(trace_configs())
    binary, unary = _ops(dtype)
    nregs = 4
    reg = st.integers(0, nregs - 1)
    instrs = [Const(r, draw(st.sampled_from(edges))) for r in range(nregs)]
    for addr in trace.tolist():
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(("binary", "unary", "select")))
            if kind == "binary":
                instrs.append(Binary(draw(st.sampled_from(binary)),
                                     draw(reg), draw(reg), draw(reg)))
            elif kind == "unary":
                instrs.append(Unary(draw(st.sampled_from(unary)),
                                    draw(reg), draw(reg)))
            else:
                instrs.append(Select(draw(reg), draw(reg), draw(reg),
                                     draw(reg)))
        if draw(st.booleans()):
            instrs.append(Load(draw(reg), addr))
        else:
            instrs.append(Store(addr, draw(reg)))
    instrs.append(Binary(draw(st.sampled_from(binary)), 0, 1, 2))
    instrs += [Store(r % words, r) for r in range(nregs)]
    program = Program(tuple(instrs), nregs, words, dtype, name="edges")
    program.validate()
    lanes = draw(st.integers(1, 6))
    k = draw(st.integers(0, words))
    rows = draw(st.lists(
        st.lists(st.sampled_from(edges), min_size=k, max_size=k),
        min_size=lanes, max_size=lanes,
    ))
    return program, np.array(rows, dtype=dtype).reshape(lanes, k)


def _check_three_engines(program, inputs, arrangement):
    with np.errstate(all="ignore"):
        got = replay.replay_lanes(program, inputs)
        engine = _numpy_engine(program, inputs, arrangement)
        sequential = _sequential(program, inputs)
    _assert_same_bits(got, engine, f"replay vs NumPy ({arrangement})")
    _assert_same_bits(got, sequential, "replay vs run_sequential")


@given(edge_programs(np.dtype(np.int64), INT_EDGES), st.sampled_from(LAYOUTS))
@settings(max_examples=150, deadline=None)
def test_int64_edge_values_bit_identical(case, arrangement):
    _check_three_engines(*case, arrangement)


@given(edge_programs(np.dtype(np.float64), FLOAT_EDGES),
       st.sampled_from(LAYOUTS))
@settings(max_examples=150, deadline=None)
def test_float64_edge_values_bit_identical(case, arrangement):
    _check_three_engines(*case, arrangement)


@pytest.mark.parametrize("name", ["opt", "xtea", "fft", "bitonic-sort"])
def test_registers_cross_chunk_edges(name, monkeypatch):
    # Registry programs fit one default chunk; 7-instruction chunks hand
    # every live register across an edge many times.
    monkeypatch.setattr(replay, "_CHUNK", 7)
    spec = get_spec(name)
    n = spec.sizes[-1]
    program = dataclasses.replace(
        spec.build(n), name=f"{name}-chunked", outputs=None
    )
    inputs = spec.make_inputs(np.random.default_rng(3), n, 4)
    assert len(replay.emit_python(program)[0]) > 1
    got = replay.replay_lanes(program, inputs)
    assert got.tobytes() == _numpy_engine(program, inputs).tobytes()


def test_other_dtypes_refuse():
    program = Program((Const(0, 1.0), Store(0, 0)), 1, 1, np.dtype(np.float32))
    with pytest.raises(ProgramError, match="float64 and int64"):
        replay.lane_function(program)


# -- cost ----------------------------------------------------------------------

def _fresh_opt(n=8):
    """An OPT program object no replay has been compiled for yet."""
    return dataclasses.replace(get_spec("opt").build(n), name=f"opt{n}-fresh")


@pytest.fixture
def emitted(monkeypatch):
    """Names of the programs whose replay source gets generated."""
    names = []
    original = replay.emit_python
    monkeypatch.setattr(
        replay, "emit_python",
        lambda program: names.append(program.name) or original(program),
    )
    return names


def test_replay_compiled_once_per_program(emitted):
    program = _fresh_opt()
    inputs = get_spec("opt").make_inputs(np.random.default_rng(0), 8, 6)
    for lanes in (1, 4, 6, 4):
        replay.replay_lanes(program, inputs[:lanes])
    assert emitted == [program.name]
    other = dataclasses.replace(program)
    replay.replay_lanes(other, inputs)
    assert emitted == [program.name] * 2


@needs_cc
def test_replay_compiled_once_across_executor_sizes(emitted):
    program = _fresh_opt()
    spec = get_spec("opt")
    for p in (8, 16):
        ex = BulkExecutor(program, p, "column", backend="native",
                          guard="spot", tile=4)
        try:
            inputs = spec.make_inputs(np.random.default_rng(p), 8, p)
            for _ in range(3):
                ex.run(inputs)
            assert ex.backend == "native"
        finally:
            ex.close()
    assert emitted == [program.name]


@needs_cc
def test_guarded_run_builds_no_numpy_executor(monkeypatch):
    program = _fresh_opt()
    inputs = get_spec("opt").make_inputs(np.random.default_rng(1), 8, 16)
    ex = BulkExecutor(program, 16, "column", backend="native", guard="spot")
    try:
        ex.run(inputs)  # warm-up
        built, fused = [], []
        init = BulkExecutor.__init__
        monkeypatch.setattr(
            BulkExecutor, "__init__",
            lambda self, *a, **k: built.append(a) or init(self, *a, **k),
        )
        compile_fused = engine_mod.compile_fused
        monkeypatch.setattr(
            engine_mod, "compile_fused",
            lambda *a, **k: fused.append(a) or compile_fused(*a, **k),
        )
        for _ in range(3):
            ex.run(inputs)
        assert ex.backend == "native"
        assert built == [] and fused == []
    finally:
        ex.close()


def test_program_facts_untouched_by_replay_cache():
    program = _fresh_opt(4)
    before = json.dumps(program_to_dict(program))
    replay.lane_function(program)
    assert "lane" not in vars(program)
    assert json.dumps(program_to_dict(program)) == before
    clone = pickle.loads(pickle.dumps(program))
    assert clone == program
    assert replay.replay_lanes(clone, np.zeros((1, 0))).tobytes() == (
        replay.replay_lanes(program, np.zeros((1, 0))).tobytes()
    )


# -- folded loads and comparisons ----------------------------------------------

def _replay_matches_sequential(program, rows):
    inputs = np.array(rows, dtype=program.dtype)
    got = replay.replay_lanes(program, inputs)
    assert got.tobytes() == _sequential(program, inputs).tobytes()
    return "".join(replay.emit_python(program)[0])


def test_folded_load_flushed_before_a_store_to_its_word():
    # r0 = m[5] is named once (by the ADD) but word 5 is overwritten first:
    # the load must land in r0 before the store, not be re-read after it.
    program = Program((
        Load(0, 5), Const(1, 7.0), Store(5, 1),
        Binary(BinaryOp.ADD, 2, 0, 1), Store(6, 2), Const(0, 0.0),
    ), 3, 7, np.dtype(np.float64))
    source = _replay_matches_sequential(program, [[0, 1, 2, 3, 4, 10.0, 0]])
    assert source.index("r0 = m[5]") < source.index("m[5] = r1")


def test_folded_comparison_flushed_before_its_operand_changes():
    # The LT reads r0, which is redefined before the Select consumes it.
    program = Program((
        Load(0, 0), Load(1, 1), Binary(BinaryOp.LT, 2, 0, 1),
        Store(3, 0), Const(0, 100), Select(3, 2, 0, 1), Store(2, 3),
        Const(2, 0), Const(3, 0),
    ), 4, 4, np.dtype(np.int64))
    source = _replay_matches_sequential(program, [[1, 2], [2, 1], [5, 5]])
    assert source.index("r2 = (1 if r0 < r1 else 0)") < source.index(
        "r0 = 100")


def test_folded_comparison_flushed_before_a_store_to_a_word_it_reads():
    program = Program((
        Load(0, 0), Load(1, 1), Binary(BinaryOp.GT, 2, 0, 1), Const(3, 9),
        Store(0, 3), Select(3, 2, 3, 3), Store(2, 3), Const(2, 0),
    ), 4, 3, np.dtype(np.int64))
    _replay_matches_sequential(program, [[3, 1], [1, 3]])


def test_single_use_values_fold_into_their_consumer():
    program = get_spec("opt").build(8)
    sources = replay.emit_python(program)[0]
    statements = sum(len(s.splitlines()) - 3 for s in sources)
    assert statements < len(program.instructions) / 2
    assert any(" if " in line and " < " in line and "m[" not in line
               for s in sources for line in s.splitlines())
