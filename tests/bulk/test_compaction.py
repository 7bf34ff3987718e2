"""Memory compaction (``repro.trace.compact``): the native kernel runs each
program renamed onto the slots it keeps live.

* every registry program's native kernel, on the ``column``, ``row`` and
  ``padded-row`` layouts at tile 1 and the default tile, returns the
  declared outputs of the IR replay bit for bit — on full-width inputs
  and on a narrower ``k`` that leaves read-first input words unfed, which
  must then read zero;
* a generated program with zero-read scratch words and slot reuse does
  the same, on every layout, and its compaction is what the allocator
  promises (read-first slots first, in address order; freed slots
  reused; outputs live to the end);
* the equivalence prover rejects a renaming with two slots swapped;
* the source program — ``memory_words``, ``address_trace()`` and its UMM
  price — is untouched.
"""

import dataclasses

import numpy as np
import pytest

from repro.algorithms.registry import all_specs, get_spec
from repro.analysis.lint.equiv import prove_equivalent
from repro.bulk import BulkExecutor
from repro.bulk.simulate import simulate_bulk
from repro.bulk.arrangement import make_arrangement
from repro.codegen.compile import default_tile, have_compiler, slab_bytes
from repro.errors import EquivalenceError
from repro.machine.params import MachineParams
from repro.trace.compact import compact_memory, word_liveness
from repro.trace.ir import Binary, Const, Load, Program, Store
from repro.trace.ops import BinaryOp
from repro.trace.replay import replay_lanes

needs_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler")
LAYOUTS = ("column", "row", "padded-row")
P = 11  # odd: every tile but 1 leaves a ragged last tile


@pytest.fixture(autouse=True)
def _tmp_kernel_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kernel-cache"))
    monkeypatch.setenv("REPRO_COMPILE_BACKOFF", "0")


def _native_outputs(program, inputs, layout, tile):
    ex = BulkExecutor(program, len(inputs), layout, backend="native",
                      tile=tile)
    try:
        assert ex.backend == "native"
        return ex.run(inputs).outputs.copy()
    finally:
        ex.close()


def _reference(program, inputs):
    return replay_lanes(program, inputs)[:, program.output_index()]


def _narrow_k(program):
    """An input width that leaves the upper half of the read-first words
    unfed (they must read zero)."""
    imap = compact_memory(program).imap
    return imap[len(imap) // 2] if imap else 0


def _check_layouts(program, inputs, tiles):
    for layout in LAYOUTS:
        for tile in tiles:
            for k in (inputs.shape[1], _narrow_k(program)):
                rows = np.ascontiguousarray(inputs[:, :k])
                got = _native_outputs(program, rows, layout, tile)
                want = _reference(program, rows)
                assert got.tobytes() == want.tobytes(), (
                    f"{program.name} {layout} tile={tile} k={k}"
                )


@needs_cc
@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
def test_registry_kernels_match_the_replay(spec):
    n = spec.sizes[0]
    program = spec.build(n)
    inputs = spec.make_inputs(np.random.default_rng(n), n, P)
    arr = make_arrangement("column", program.memory_words, P)
    _check_layouts(program, inputs, (1, default_tile(program, arr)))


def _scratch_program():
    """Inputs are words 0..2; word 5 is scratch read before any store (it
    reads zero unless the caller feeds it); words 0 and 1 die at their
    first loads, so words 3, 4 and 6 are stored into freed slots; word 7
    is never touched; words 2 and 6 are the outputs."""
    return Program(
        name="scratch-reuse",
        instructions=(
            Load(0, 0), Load(1, 1), Binary(BinaryOp.ADD, 2, 0, 1),
            Store(3, 2),                          # word 3: write-first
            Load(0, 5),                           # word 5: zero-read scratch
            Binary(BinaryOp.SUB, 1, 2, 0),
            Store(4, 1),                          # word 4: write-first
            Load(0, 3), Load(1, 4),               # words 3, 4 die here
            Binary(BinaryOp.MUL, 2, 0, 1),
            Const(3, 7),
            Binary(BinaryOp.ADD, 2, 2, 3),
            Store(6, 2),                          # word 6: reuses a slot
            Load(0, 2), Binary(BinaryOp.ADD, 0, 0, 3), Store(2, 0),
        ),
        num_registers=4,
        memory_words=8,
        dtype=np.dtype(np.int64),
        outputs=((2, 3), (6, 7)),
    )


def test_scratch_program_compaction():
    program = _scratch_program()
    compaction = compact_memory(program)
    # Read-first words (0, 1, 2 and the scratch word 5) take slots 0..3
    # in address order; each write-first word takes the lowest free slot.
    assert compaction.imap == (0, 1, 2, 5)
    assert compaction.slots.tolist() == [0, 1, 2, 0, 1, 3, 0, -1]
    assert compaction.width == 4
    # Output columns: word 2 (slot 2), then word 6 (slot 0).
    assert compaction.out_runs == ((2, 3), (0, 1))
    assert word_liveness(program).reads_initial.tolist() == [
        True, True, True, False, False, True, False, False]


@needs_cc
def test_scratch_program_kernels_match_the_replay():
    program = _scratch_program()
    rng = np.random.default_rng(5)
    inputs = rng.integers(-50, 50, size=(P, 3), dtype=np.int64)
    _check_layouts(program, inputs, (1, 4))
    # A caller that feeds the scratch word too: it is read-first, so the
    # kernel gathers it like any input word.
    wide = rng.integers(-50, 50, size=(P, 8), dtype=np.int64)
    for layout in LAYOUTS:
        got = _native_outputs(program, wide, layout, 4)
        assert got.tobytes() == _reference(program, wide).tobytes()


def test_prover_rejects_swapped_slots():
    program = _scratch_program()
    compaction = compact_memory(program)
    imap = list(compaction.imap)
    imap[0], imap[1] = imap[1], imap[0]
    with pytest.raises(EquivalenceError):
        prove_equivalent(program, compaction.program, initial_map=imap,
                         output_map=compaction.out_slots.tolist())
    outs = compaction.out_slots.tolist()[::-1]
    with pytest.raises(EquivalenceError):
        prove_equivalent(program, compaction.program,
                         initial_map=compaction.imap, output_map=outs)
    # The compaction itself proves.
    prove_equivalent(program, compaction.program,
                     initial_map=compaction.imap,
                     output_map=compaction.out_slots.tolist())


def test_prover_rejects_a_swapped_slot_in_the_body():
    program = get_spec("opt").build(4)
    compaction = compact_memory(program)
    a, b = compaction.slots[compaction.slots >= 0][:2].tolist()
    swap = {a: b, b: a}
    body = tuple(
        dataclasses.replace(i, addr=swap.get(i.addr, i.addr))
        if isinstance(i, Load) else i
        for i in compaction.program.instructions
    )
    mutant = dataclasses.replace(compaction.program, instructions=body)
    with pytest.raises(EquivalenceError):
        prove_equivalent(program, mutant, initial_map=compaction.imap,
                         output_map=compaction.out_slots.tolist())


def test_source_program_is_untouched():
    program = get_spec("opt").build(8)
    words = program.memory_words
    trace = program.address_trace().copy()
    machine = MachineParams(p=256, w=32, l=16)
    prices = [simulate_bulk(program, machine, arr).total_time
              for arr in ("column", "row")]
    compaction = compact_memory(program)
    assert compaction.width < words
    assert program.memory_words == words
    assert np.array_equal(program.address_trace(), trace)
    assert [simulate_bulk(program, machine, arr).total_time
            for arr in ("column", "row")] == prices


def test_slab_budget_uses_the_compact_width():
    program = get_spec("opt").build(8)
    arr = make_arrangement("padded-row", program.memory_words, 64)
    width = compact_memory(program).width
    pad = arr.stride - program.memory_words
    per_lane = (width + pad + program.num_registers) * 8
    assert slab_bytes(program, arr, 3) == 3 * per_lane


def test_compaction_cache_follows_the_program():
    import gc
    import weakref

    program = get_spec("opt").build(4)
    alive = weakref.ref(program)
    compact_memory(program)
    del program
    gc.collect()
    assert alive() is None  # the cached compaction does not pin it
