"""Wide NumPy steps: the scheduled, renamed engine against the oracles.

The fusion pass runs independent isomorphic instructions as one call over
a ``(k, p)`` block of row slices when rows are short
(:mod:`repro.bulk.fusion`).  These tests pin what must not change and
what the rework is for:

* bit identity with the IR replay and the sequential interpreter, for
  every registry program at lane counts from 1 to 2048 (blocks capped
  to few rows at large ``p``), on every arrangement, across reused
  executor buffers;
* registers read before anything writes them (zero), after a wide group
  has freed rows, with and without the schedule's equivalence proof;
* generated programs whose copies of one template run wide at small
  ``p``, over int64 and float64 edge values (NaN conditions, -0.0,
  infinities), with and without declared outputs;
* one plan per program object: executors of eight lane counts run the
  local cleanup and its proofs once, the plan cache pins no program and
  holds no buffer;
* deterministic call counts, with no timing.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import all_specs, get_spec
from repro.bulk import BulkExecutor
from repro.bulk import fusion
from repro.trace.interpreter import run_sequential
from repro.trace.ir import Binary, Const, Load, Program, Select, Store, Unary
from repro.trace.ops import BinaryOp, UnaryOp
from repro.trace.replay import replay_lanes

from .test_replay import (
    FLOAT_EDGES, INT_EDGES, LAYOUTS, _assert_same_bits, _ops,
)

LANES = (1, 7, 31, 32, 33, 256, 2048)


def _image(program, memory):
    return np.ascontiguousarray(memory[:, program.output_index()])


def _sequential_lanes(program, inputs, lanes):
    return np.array(
        [run_sequential(program, inputs[j], collect_trace=False).memory
         for j in lanes],
        dtype=program.dtype,
    ).reshape(len(lanes), program.memory_words)


# -- registry ------------------------------------------------------------------

@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_registry_bit_identical_at_every_width(spec):
    for n in spec.sizes:
        _check_registry_program(spec, n)


def _check_registry_program(spec, n):
    program = spec.build(n)
    rng = np.random.default_rng(11)
    for p in LANES:
        sets = [spec.make_inputs(rng, n, p) for _ in range(2)]
        wants = [
            _image(program, replay_lanes(program, np.asarray(x, program.dtype)))
            for x in sets
        ]
        for arrangement in LAYOUTS:
            ex = BulkExecutor(program, p, arrangement)
            try:
                # Twice through the same buffers, the first set again last.
                for x, want in zip(sets + sets[:1], wants + wants[:1]):
                    got = ex.run(x).outputs
                    assert got.tobytes() == want.tobytes(), (
                        f"{spec.name} n={n} p={p} {arrangement}"
                    )
            finally:
                ex.close()
        lanes = sorted({0, p - 1})
        seq = _sequential_lanes(program, np.asarray(sets[0], program.dtype), lanes)
        assert _image(program, seq).tobytes() == wants[0][lanes].tobytes()


# -- generated programs that go wide -------------------------------------------

@st.composite
def wide_programs(draw, dtype, edges):
    """``copies`` copies of one drawn template over disjoint words, so the
    schedule finds same-shaped independent instructions at every level.

    Copy ``c`` owns registers ``[5c, 5c + 5)`` and words ``[w·c, w·c + w)``;
    its first four registers start from edge-value constants and are
    stored last, the fifth holds compare results.
    Some programs declare their last copy's words as the only output.
    """
    binary, unary = _ops(dtype)
    copies = draw(st.integers(2, 5))
    words = draw(st.integers(1, 3))
    template = []
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from(
            ("load", "store", "binary", "unary", "select", "cmpsel")
        ))
        regs = tuple(draw(st.integers(0, 3)) for _ in range(4))
        if kind == "binary":
            template.append((kind, draw(st.sampled_from(binary)), regs))
        elif kind == "unary":
            template.append((kind, draw(st.sampled_from(unary)), regs))
        elif kind == "cmpsel":
            cmp = draw(st.sampled_from(
                (BinaryOp.LT, BinaryOp.LE, BinaryOp.EQ, BinaryOp.NE)
            ))
            template.append((kind, cmp, regs))
        else:
            template.append((kind, draw(st.integers(0, words - 1)), regs))
    imms = [draw(st.sampled_from(edges)) for _ in range(4)]
    instrs = []
    for c in range(copies):
        r0, base = 5 * c, words * c
        instrs += [Const(r0 + r, imms[r]) for r in range(4)]
        for kind, arg, (a, b, d, e) in template:
            a, b, d, e = (r0 + x for x in (a, b, d, e))
            if kind == "load":
                instrs.append(Load(a, base + arg))
            elif kind == "store":
                instrs.append(Store(base + arg, a))
            elif kind == "binary":
                instrs.append(Binary(arg, a, b, d))
            elif kind == "unary":
                instrs.append(Unary(arg, a, b))
            elif kind == "select":
                instrs.append(Select(a, b, d, e))
            else:
                # A compare whose only reader is the select's condition.
                instrs.append(Binary(arg, r0 + 4, b, d))
                instrs.append(Select(a, r0 + 4, d, e))
        instrs += [Store(base + r % words, r0 + r) for r in range(4)]
    total = words * copies
    outputs = ((total - words, total),) if draw(st.booleans()) else None
    program = Program(
        tuple(instrs), 5 * copies, total, dtype, name="wide", outputs=outputs
    )
    program.validate()
    lanes = draw(st.integers(1, 6))
    k = draw(st.integers(0, total))
    rows = draw(st.lists(
        st.lists(st.sampled_from(edges), min_size=k, max_size=k),
        min_size=lanes, max_size=lanes,
    ))
    return program, np.array(rows, dtype=dtype).reshape(lanes, k)


def _check_wide(program, inputs, arrangement):
    p = len(inputs)
    with np.errstate(all="ignore"):
        want = _image(program, replay_lanes(program, inputs))
        seq = _image(program, _sequential_lanes(program, inputs, range(p)))
        ex = BulkExecutor(program, p, arrangement)
        try:
            got = ex.run(inputs).outputs.copy()
            again = ex.run(inputs).outputs
        finally:
            ex.close()
    _assert_same_bits(got, want, f"NumPy vs replay ({arrangement})")
    _assert_same_bits(again, want, f"reused buffers ({arrangement})")
    _assert_same_bits(seq, want, "run_sequential vs replay")


@given(wide_programs(np.dtype(np.int64), INT_EDGES), st.sampled_from(LAYOUTS))
@settings(max_examples=120, deadline=None)
def test_int64_wide_programs_bit_identical(case, arrangement):
    _check_wide(*case, arrangement)


@given(wide_programs(np.dtype(np.float64), FLOAT_EDGES),
       st.sampled_from(LAYOUTS))
@settings(max_examples=120, deadline=None)
def test_float64_wide_programs_bit_identical(case, arrangement):
    _check_wide(*case, arrangement)


def test_nan_and_negative_zero_selects_run_wide():
    """Four copies of ``s <- x if x < s else s`` and ``t <- y if c else t``
    with NaN and -0.0 operands: NaN compares false, a NaN condition is
    true, and -0.0 keeps its sign bit through every move."""
    instrs = []
    for c in range(4):
        r = 4 * c
        instrs += [
            Const(r, -0.0), Load(r + 1, 3 * c), Load(r + 2, 3 * c + 1),
            Binary(BinaryOp.LT, r + 3, r + 1, r),
            Select(r, r + 3, r + 1, r),
            Select(r + 1, r + 2, r, r + 1),
            Store(3 * c, r), Store(3 * c + 2, r + 1),
        ]
    program = Program(tuple(instrs), 16, 12, np.dtype(np.float64),
                      name="nan-selects")
    program.validate()
    col = np.array([np.nan, -0.0, 0.0, -1.0, np.inf, -np.inf])
    inputs = np.stack([np.roll(col, j)[:4].repeat(3) for j in range(6)])
    for arrangement in LAYOUTS:
        ex = BulkExecutor(program, len(inputs), arrangement)
        try:
            assert ex.fusion_stats.wide_groups > 0
            got = ex.run(inputs).outputs
            _assert_same_bits(got, replay_lanes(program, inputs), arrangement)
        finally:
            ex.close()


def _use_before_def_programs():
    """Programs reading registers nothing wrote (legal at run time: they
    hold zero), after a wide group has freed rows the zero would reuse."""
    head = (
        Load(0, 0), Load(1, 1),
        Unary(UnaryOp.NEG, 2, 0), Unary(UnaryOp.NEG, 3, 1),
    )
    yield (
        head + (Binary(BinaryOp.ADD, 4, 2, 3), Binary(BinaryOp.ADD, 5, 4, 7),
                Store(2, 5)),
        3,
    )
    # Two members of one group read the zero row, as does a select arm.
    yield (
        head + (Binary(BinaryOp.ADD, 4, 2, 7), Binary(BinaryOp.ADD, 5, 3, 7),
                Binary(BinaryOp.LT, 6, 4, 5), Select(6, 6, 4, 7),
                Store(0, 4), Store(1, 5), Store(2, 6)),
        3,
    )


@pytest.mark.parametrize("verify", ["1", "0"])
def test_registers_read_before_written_hold_zero(monkeypatch, verify):
    monkeypatch.setenv("REPRO_VERIFY_PASSES", verify)
    for instrs, words in _use_before_def_programs():
        # Fresh program objects: no plan built under the other setting.
        program = Program(instrs, 8, words, np.dtype(np.int64), name="ubd")
        for p in (1, 4, 32):
            inputs = np.arange(1, words * p + 1, dtype=np.int64)
            inputs = inputs.reshape(p, words)
            want = replay_lanes(program, inputs)
            for arrangement in LAYOUTS:
                ex = BulkExecutor(program, p, arrangement)
                try:
                    assert ex.fusion_stats.wide_groups > 0
                    for _ in range(2):  # reused buffers
                        _assert_same_bits(
                            ex.run(inputs).outputs, want, f"p={p} {arrangement}"
                        )
                finally:
                    ex.close()


# -- one plan per program object -----------------------------------------------

def _fresh_opt(n=8):
    return dataclasses.replace(get_spec("opt").build(n), name=f"opt{n}-plan")


def test_eight_lane_counts_share_one_plan(monkeypatch):
    from repro.analysis.lint import equiv

    folds, proofs = [], []
    fold = fusion.fold_constants
    prove = equiv.prove_equivalent
    monkeypatch.setattr(
        fusion, "fold_constants", lambda *a: folds.append(1) or fold(*a)
    )
    monkeypatch.setattr(
        equiv, "prove_equivalent",
        lambda *a, **k: proofs.append(a[1].name) or prove(*a, **k),
    )
    program = _fresh_opt()
    executors = [BulkExecutor(program, p) for p in range(32, 257, 32)]
    try:
        assert len(folds) == 1
        # The cleanup's proof and the schedule's, once each.
        assert len(proofs) == 2 and len(set(proofs)) == 2
    finally:
        for ex in executors:
            ex.close()


def test_plan_cache_does_not_pin_programs():
    program = _fresh_opt()
    ex = BulkExecutor(program, 8)
    ex.close()
    plan = fusion.fusion_plan(program)
    ref = weakref.ref(program)
    del ex, program
    gc.collect()
    assert ref() is None
    # The plan holds no buffer either: only instructions and ops.
    for value in vars(plan).values():
        assert not isinstance(value, np.ndarray)


# -- call counts ---------------------------------------------------------------

def test_opt32_calls_at_serving_width():
    program = get_spec("opt").build(32)
    ex = BulkExecutor(program, 32)
    try:
        stats = ex.fusion_stats
        assert stats.emitted_ops <= 2000  # 15,378 steps in program order
        assert stats.wide_groups > 0 and stats.widest >= 16
        text = stats.describe()
        assert f"{stats.wide_groups} wide groups" in text
        assert f"widest {stats.widest}" in text
    finally:
        ex.close()


def test_prefix_sums_calls_unchanged_where_nothing_goes_wide():
    program = get_spec("prefix-sums").build(1024)
    ex = BulkExecutor(program, 8192)
    try:
        stats = ex.fusion_stats
        assert stats.emitted_ops == 2049
        assert stats.wide_groups == 0 and "wide" not in stats.describe()
    finally:
        ex.close()


def test_nothing_wide_at_large_p_is_the_program_order_step_list():
    program = get_spec("opt").build(8)
    wide = BulkExecutor(program, 32)
    narrow = BulkExecutor(program, 8192)
    try:
        assert wide.fusion_stats.wide_groups > 0
        assert narrow.fusion_stats.wide_groups == 0
        plan = fusion.fusion_plan(program)
        lowered = plan.narrow()
        assert len(narrow._fused.steps) == len(lowered.ops)
    finally:
        wide.close()
        narrow.close()
