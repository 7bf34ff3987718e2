"""Declared outputs: a run returns exactly the words its program names.

The contract, for every registry program that declares outputs: a run of
the program equals a run of the same program with the declaration dropped
(``dataclasses.replace(program, outputs=None)``, the whole memory) at the
declared columns, bit for bit — whichever backend, layout, tile, thread
count, lane count or serving path produced it.  The whole-image suites
(``test_backends``, ``test_native_tiled``, ``test_partial_batches``,
``test_replay``) drop the declarations and keep comparing full images.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.algorithms.registry import all_specs, get_spec
from repro.analysis.schedule import certify_native_schedule
from repro.autofix.store import Promotion, program_fingerprint, promotion_store
from repro.bulk import BulkExecutor, BulkSession
from repro.bulk.arrangement import make_arrangement
from repro.codegen.compile import compile_bulk, have_compiler
from repro.errors import ExecutionError, ProgramError
from repro.reliability import FaultPlan, incidents
from repro.serve import ShardedServer
from repro.serve.shm import SlotArena
from repro.trace.interpreter import run_sequential
from repro.trace.ir import Const, Program, Store, concat_programs
from repro.trace.replay import replay_lanes
from repro.trace.serialize import program_from_dict, program_to_dict

needs_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler")

DECLARED = [spec for spec in all_specs() if spec.build(spec.sizes[0]).outputs]
LAYOUTS = ("column", "row", "padded-row")
#: Odd and a non-multiple of every tile below: every kernel has a ragged tile.
P = 23


@pytest.fixture(autouse=True)
def _tmp_kernel_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kernel-cache"))


def _case(spec, p=P, seed=11):
    n = spec.sizes[0]
    program = spec.build(n)
    inputs = spec.make_inputs(np.random.default_rng(seed), n, p)
    return program, inputs, n


def _whole(program, inputs, arrangement="column"):
    """The whole-memory image of the same program on the NumPy engine."""
    whole = dataclasses.replace(program, outputs=None)
    ex = BulkExecutor(whole, inputs.shape[0], arrangement)
    try:
        return ex.run(inputs).outputs.copy()
    finally:
        ex.close()


def _declared(program, image):
    return np.ascontiguousarray(image[:, program.output_index()])


def test_the_single_answer_dps_declare_their_answer():
    assert sorted(spec.name for spec in DECLARED) == ["lcs", "matrix-chain", "opt"]
    for spec in DECLARED:
        program = spec.build(spec.sizes[0])
        ((lo, hi),) = program.outputs
        assert hi == lo + 1 and program.output_words == 1


@pytest.mark.parametrize("spec", DECLARED, ids=lambda s: s.name)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_numpy_run_is_the_whole_run_at_the_declared_columns(spec, layout):
    program, inputs, n = _case(spec)
    want = _declared(program, _whole(program, inputs, layout))
    assert want.tobytes() == _declared(
        program, replay_lanes(program, inputs)
    ).tobytes()
    ex = BulkExecutor(program, P, layout)
    got = ex.run(inputs).outputs
    assert got.shape == (P, program.output_words)
    assert got.tobytes() == want.tobytes()
    spec.check_outputs(inputs, got, n)
    ex.close()


def test_numpy_load_zeroes_no_word_nobody_reads():
    # OPT's row 0 and lower triangle are neither accessed nor declared:
    # loading zeroes nothing.  A whole-memory program still zeroes its
    # untouched words, which its image shows.
    for name in ("opt", "matrix-chain", "lcs"):
        program, inputs, _ = _case(get_spec(name))
        ex = BulkExecutor(program, P)
        assert ex._tail_zero_ranges(inputs.shape[1]) == [], name
        ex.close()
    tiny = BulkExecutor(_tiny(None), 2)
    assert tiny._tail_zero_ranges(1) == [(1, 3), (4, 5)]
    tiny.close()


@pytest.mark.parametrize("spec", DECLARED, ids=lambda s: s.name)
def test_numpy_fused_and_unfused_agree_across_reused_buffers(spec):
    # Unzeroed scratch words keep the last run's contents: the declared
    # words must not depend on them.  The unfused reference is the IR
    # replay, which starts every lane from fresh memory.
    program, first, n = _case(spec)
    _, second, _ = _case(spec, seed=12)
    fused = BulkExecutor(program, P)
    try:
        for inputs in (first, second, first):
            a = fused.run(inputs).outputs.copy()
            unfused = _declared(program, replay_lanes(program, inputs))
            assert a.tobytes() == unfused.tobytes()
            assert a.tobytes() == _declared(program, _whole(program, inputs)).tobytes()
    finally:
        fused.close()


@needs_cc
@pytest.mark.parametrize("spec", DECLARED, ids=lambda s: s.name)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("tile, threads", [(5, 1), (64, 1), (8, 2)])
def test_native_run_is_the_whole_run_at_the_declared_columns(
    spec, layout, tile, threads
):
    program, inputs, _ = _case(spec)
    want = _declared(program, _whole(program, inputs, layout))
    ex = BulkExecutor(program, P, layout, backend="native", tile=tile,
                      threads=threads, guard="spot")
    try:
        got = ex.run(inputs).outputs
        assert ex.backend == "native"
        assert got.tobytes() == want.tobytes()
    finally:
        ex.close()
    assert incidents() == []


@pytest.mark.parametrize("spec", DECLARED, ids=lambda s: s.name)
@pytest.mark.parametrize("backend", ["numpy", pytest.param("native", marks=needs_cc)])
@pytest.mark.parametrize("q", [1, 5, P])
def test_trimmed_runs_return_the_declared_words(spec, backend, q):
    program, inputs, _ = _case(spec, p=q)
    want = _declared(program, _whole(program, inputs))
    ex = BulkExecutor(program, P, backend=backend)
    try:
        got = ex.run_trimmed(inputs)
        assert got.tobytes() == want.tobytes()
        out = np.full((q, program.output_words), -1.0, dtype=program.dtype)
        ex.run_trimmed_into(inputs, out)
        assert out.tobytes() == want.tobytes()
        with pytest.raises(ExecutionError, match="output buffer"):
            ex.run_trimmed_into(
                inputs, np.empty((q, program.memory_words), program.dtype)
            )
    finally:
        ex.close()


@pytest.mark.parametrize("spec", DECLARED, ids=lambda s: s.name)
def test_session_yields_the_declared_words(spec):
    program, inputs, _ = _case(spec, p=11)
    want = _declared(program, _whole(program, inputs))
    with BulkSession(program, batch=4) as session:
        streamed = list(session.feed(inputs))
    got = np.stack(streamed + list(session.flushed))
    assert got.tobytes() == want.tobytes()


def test_sharded_replies_carry_the_declared_words():
    spec = get_spec("opt")
    program, inputs, n = _case(spec, p=9)
    want = _declared(program, _whole(program, inputs))

    async def main():
        async with ShardedServer(shards=1, max_linger=0.01) as server:
            return await asyncio.gather(*(
                server.submit("opt", row, n=n) for row in inputs
            ))

    replies = asyncio.run(main())
    assert [r.shape for r in replies] == [(program.output_words,)] * len(inputs)
    assert np.stack(replies).tobytes() == want.tobytes()


def test_slot_arena_output_blocks_are_out_words_wide():
    arena = SlotArena.create(slots=2, max_batch=4, words=50, dtype=np.float64,
                             out_words=1)
    try:
        assert arena.input_view(1).shape == (4, 50)
        assert arena.output_view(1).shape == (4, 1)
        arena.output_view(1)[:] = 7.0
        assert not arena.input_view(1).any()
        assert arena.shm.size >= SlotArena.nbytes_for(2, 4, 50, np.float64, out_words=1)
        assert SlotArena.nbytes_for(2, 4, 50, np.float64, out_words=1) == 2 * 4 * 51 * 8
    finally:
        arena.close()


# -- the guard ------------------------------------------------------------------

@needs_cc
def test_corrupt_native_outputs_trip_the_guard_and_degrade():
    spec = get_spec("opt")
    program, inputs, _ = _case(spec, p=8)
    want = _declared(program, _whole(program, inputs))
    with FaultPlan().corrupt("engine.native.outputs", times=1).active():
        ex = BulkExecutor(program, 8, backend="native", guard="spot")
        out = ex.run(inputs).outputs
    assert ex.backend == "numpy"
    assert out.tobytes() == want.tobytes()
    assert [i.kind for i in incidents()] == ["guard-mismatch"]
    ex.close()


# -- the native kernel ----------------------------------------------------------

@needs_cc
def test_kernel_abi_wants_out_words_wide_rows():
    program, inputs, _ = _case(get_spec("opt"), p=6)
    kernel = compile_bulk(
        program, make_arrangement("column", program.memory_words, 6)
    )
    try:
        arr = np.ascontiguousarray(inputs)
        with pytest.raises(ExecutionError, match="1-word output rows"):
            kernel.run_bulk(arr, np.empty((6, program.memory_words)))
        out = np.empty((6, 1))
        kernel.run_bulk(arr, out)
        assert out.tobytes() == _declared(program, _whole(program, inputs)).tobytes()
    finally:
        kernel.close()


@needs_cc
def test_memory_view_refuses_a_compact_native_image():
    program, inputs, _ = _case(get_spec("opt"), p=6)
    native = BulkExecutor(program, 6, backend="native")
    numpy_ex = BulkExecutor(program, 6)
    try:
        native.run(inputs)
        with pytest.raises(ExecutionError, match="declared output words"):
            native.memory_view()
        numpy_ex.run(inputs)  # the NumPy engine still has its buffer
        assert numpy_ex.memory_view().shape == (program.memory_words, 6)
    finally:
        native.close()
        numpy_ex.close()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_declared_kernels_certify(layout):
    program = get_spec("opt").build(6)
    arr = make_arrangement(layout, program.memory_words, 19)
    diags, certs, proof = certify_native_schedule(program, arr, tile=4, threads=2)
    assert diags == [] and proof.certified
    assert any("1 declared output word(s)" in c for c in certs)


# -- the IR ---------------------------------------------------------------------

def _tiny(outputs):
    return Program(
        instructions=(Const(0, 1.0), Store(0, 0), Store(3, 0)),
        num_registers=1, memory_words=5, name="tiny", outputs=outputs,
    )


def test_output_ranges_default_to_the_whole_memory():
    program = _tiny(None)
    assert program.output_ranges == ((0, 5),)
    assert program.output_words == 5
    assert program.output_index().tolist() == [0, 1, 2, 3, 4]
    ranged = _tiny([[0, 1], (3, 5)])
    assert ranged.outputs == ((0, 1), (3, 5))
    assert ranged.output_index().tolist() == [0, 3, 4]


@pytest.mark.parametrize("outputs, match", [
    ((), "no range"),
    (((2, 2),), "empty"),
    (((0, 6),), "leaves the program memory"),
    (((-1, 1),), "leaves the program memory"),
    (((0, 3), (2, 4)), "overlaps"),
    (((3, 4), (0, 1)), "overlaps or precedes"),
])
def test_validate_rejects_malformed_outputs(outputs, match):
    with pytest.raises(ProgramError, match=match):
        _tiny(outputs).validate()


@pytest.mark.parametrize("outputs", [((3, 1),), ((0, 9),)])
def test_executors_refuse_malformed_outputs(outputs):
    # Programs built directly, never validated, still fail typed.
    with pytest.raises(ProgramError, match="output range"):
        BulkExecutor(_tiny(outputs), 4)


def test_malformed_outputs_are_a_program_error():
    with pytest.raises(ProgramError, match="word ranges"):
        _tiny(((1, 2, 3),))


def test_concat_requires_equal_outputs():
    part = _tiny(((0, 1),))
    assert concat_programs([part, part]).outputs == ((0, 1),)
    with pytest.raises(ProgramError, match="declared outputs"):
        concat_programs([part, _tiny(None)])


def test_sequential_interpreter_agrees_at_the_declared_words():
    program, inputs, _ = _case(get_spec("lcs"), p=3)
    words = program.output_index()
    ex = BulkExecutor(program, 3)
    got = ex.run(inputs).outputs
    for row, image in zip(inputs, got):
        memory = run_sequential(program, row, collect_trace=False).memory
        assert image.tobytes() == memory[words].tobytes()


# -- serialization and promotions ---------------------------------------------

def test_serialization_round_trips_outputs():
    program = get_spec("opt").build(6)
    doc = program_to_dict(program)
    assert doc["outputs"] == [list(r) for r in program.outputs]
    assert program_from_dict(doc) == program
    whole = dataclasses.replace(program, outputs=None)
    assert "outputs" not in program_to_dict(whole)  # older documents read as-is
    assert program_from_dict(program_to_dict(whole)).outputs is None


def test_fingerprints_tell_outputs_apart():
    program = get_spec("opt").build(6)
    whole = dataclasses.replace(program, outputs=None)
    assert program_fingerprint(program) != program_fingerprint(whole)
    other = dataclasses.replace(program, outputs=((0, 1),))
    assert program_fingerprint(program) != program_fingerprint(other)


def test_promotion_store_refuses_a_rewrite_with_other_outputs():
    program = get_spec("opt").build(6)
    rewrite = dataclasses.replace(program, name="opt-rewrite", outputs=None)
    store = promotion_store()
    store.install(Promotion(
        fingerprint=program_fingerprint(program), from_arrangement="column",
        program=rewrite, arrangement="column",
    ))
    assert store.resolve(program, "column") == (program, "column")
    assert store.promotions() == []  # withdrawn, not merely skipped
    assert [i.kind for i in incidents()] == ["rollback"]
    same = dataclasses.replace(program, name="opt-same")
    store.install(Promotion(
        fingerprint=program_fingerprint(program), from_arrangement="column",
        program=same, arrangement="row",
    ))
    assert store.resolve(program, "column") == (same, "row")
