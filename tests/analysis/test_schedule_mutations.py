"""The schedule certifier's threat model, tested by corruption.

Each test seeds one deliberate schedule bug into a known-good native
emission — the bug classes the certifier exists to catch — and asserts it
is rejected with its expected ``OBL-S70x`` rule ID:

* overlapping tile bounds (a cross-thread write race)      -> ``OBL-S702``
* a thread-count-dependent tile loop (lanes dropped)       -> ``OBL-S702``
* a shared (hoisted) register slab                         -> ``OBL-S702``
* a shared (hoisted) data slab                             -> ``OBL-S702``
* a gather that reads another lane's input row             -> ``OBL-S703``
* a scatter that writes another lane's output row          -> ``OBL-S703``
* a scatter over the whole tile, past a ragged tile's lanes -> ``OBL-S702``
* the fence after the streamed scatter deleted             -> ``OBL-S702``
* a ``stream_word`` helper redefined to write ``dst[1]``   -> ``OBL-S703``
* a plain store to the output beside the streamed scatter  -> ``OBL-S702``
* the slab's slots ``[r, WORDS)`` left unzeroed            -> ``OBL-S701``
* a ragged tile's absent lanes left unzeroed               -> ``OBL-S701``
* forwarding past an aliasing store                        -> ``OBL-S704``
* an off-by-one chunk boundary (dropped / duplicated work) -> ``OBL-S701``
* chunk calls reordered in the driver                      -> ``OBL-S701``
* the per-tile register slab zeroing skipped               -> ``OBL-S701``

and, hidden from the compiler by the preprocessor
(:class:`TestPreprocessorHoles`):

* a chunk call under ``#ifdef NEVER``                      -> ``OBL-S701``
* the register zeroing or ragged zero fill under ``#if 0``  -> ``OBL-S701``
* the ``STREAM_FENCE()`` under ``#if 0``                   -> ``OBL-S702``
* ``SLAB`` undefined and redefined before the driver       -> ``OBL-S703``
* ``SLAB`` defined short, its true definition under ``#if 0`` -> ``OBL-S703``

and, on a program with declared outputs (:class:`TestDeclaredOutputs`):

* a scatter that drops a declared word                     -> ``OBL-S701``
* a scatter that writes an undeclared word                 -> ``OBL-S702``
* a wrong ``OUT_WORDS``                                    -> ``OBL-S703``
* two ranges' scatters overlapping                         -> ``OBL-S702``
* two ranges' scatters out of order                        -> ``OBL-S701``
* a range streamed to the wrong columns (a run shifted back or forward)
                                                           -> ``OBL-S703``

and, on the compaction's gather (:class:`TestInputMap`):

* a duplicated ``IMAP`` entry (a non-injective map)        -> ``OBL-S703``
* an ``IMAP`` entry off by one                             -> ``OBL-S703``
* a zero fill that starts at ``NREAD`` instead of ``r``    -> ``OBL-S701``
* a ``WORDS`` wider or narrower than the map               -> ``OBL-S703``

The kernel runs the program's compaction (:mod:`repro.trace.compact`):
the scatter nests are runs of output *slots*, and the gather reads input
word ``IMAP[a]`` into slot ``a``.

Every mutation starts from a source that certifies cleanly, so a failure
is attributable to the seeded bug alone.
"""

import numpy as np
import pytest

from repro.analysis.schedule import certify_bulk_schedule, schedule_config
from repro.bulk.arrangement import make_arrangement
from repro.trace.ir import Binary, Const, Load, Program, Store
from repro.trace.ops import BinaryOp

P = 64
TILE = 16
THREADS = 4


def _program(outputs=None):
    return Program(
        name="sched-mut",
        outputs=outputs,
        instructions=(
            Load(0, 0),
            Const(1, 5),
            Store(0, 1),
            Load(2, 0),                     # forwarded: r2 = r1
            Binary(BinaryOp.ADD, 3, 2, 1),
            Store(1, 3),
        ),
        num_registers=4,
        memory_words=4,
        dtype=np.dtype("int64"),
    )


def _emit(program, *, chunk=None, threads=THREADS):
    config = schedule_config(
        program,
        make_arrangement("column", program.memory_words, P),
        tile=TILE,
        threads=threads,
        chunk=chunk,
    )
    return config.emit(program), config


def _rules(program, source, config):
    diags, _, _ = certify_bulk_schedule(program, source, config)
    return [d.rule_id for d in diags]


def _mutate(source, old, new, count=1):
    assert source.count(old) >= count, f"mutation anchor {old!r} not found"
    return source.replace(old, new, count)


@pytest.fixture()
def clean():
    program = _program()
    source, config = _emit(program)
    assert _rules(program, source, config) == []  # the baseline certifies
    return program, source, config


class TestSeededScheduleBugs:
    def test_overlapping_tile_bounds_is_a_race(self, clean):
        program, source, config = clean
        mutated = _mutate(source, "j0 += TILE)", "j0 += TILE - 1)")
        rules = _rules(program, mutated, config)
        assert "OBL-S702" in rules

    def test_thread_count_dependent_trace_drops_lanes(self, clean):
        program, source, config = clean
        mutated = _mutate(source, "j0 < P;", "j0 < P / THREADS;")
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        hits = [d for d in diags if d.rule_id == "OBL-S702"]
        assert hits, "dropped lanes must be OBL-S702"
        assert any("THREADS" in d.message for d in hits)

    def test_shared_register_slab_is_a_race(self, clean):
        program, source, config = clean
        # Hoist the slab out of the tile loop: one shared scratch block
        # for all OpenMP threads.
        mutated = _mutate(
            source,
            "    for (long j0 = 0; j0 < P; j0 += TILE) {\n"
            "        int64_t slab[SLAB];\n"
            "        int64_t regs[NREGS * TILE];\n",
            "    int64_t regs[NREGS * TILE];\n"
            "    for (long j0 = 0; j0 < P; j0 += TILE) {\n"
            "        int64_t slab[SLAB];\n",
        )
        rules = _rules(program, mutated, config)
        assert "OBL-S702" in rules

    def test_data_slab_shared_across_threads_is_a_race(self, clean):
        program, source, config = clean
        # One data slab for every OpenMP thread: tiles gather into and
        # scatter from the same stack words concurrently.
        mutated = _mutate(
            source,
            "    for (long j0 = 0; j0 < P; j0 += TILE) {\n"
            "        int64_t slab[SLAB];\n",
            "    int64_t slab[SLAB];\n"
            "    for (long j0 = 0; j0 < P; j0 += TILE) {\n",
        )
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert any(
            d.rule_id == "OBL-S702" and "data slab" in d.message for d in diags
        )

    def test_gather_reads_the_wrong_lane(self, clean):
        program, source, config = clean
        mutated = _mutate(
            source, "= in[(j0 + jj) * k + IMAP[a]];",
            "= in[(j0 + jj + 1) * k + IMAP[a]];",
        )
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert any(
            d.rule_id == "OBL-S703" and "input gather" in d.message
            for d in diags
        )

    def test_scatter_writes_the_wrong_row(self, clean):
        program, source, config = clean
        mutated = _mutate(
            source,
            "stream_word(&out[(j0 + jj) * OUT_WORDS + a], ",
            "stream_word(&out[(j0 + TILE - 1 - jj) * OUT_WORDS + a], ",
        )
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert any(
            d.rule_id == "OBL-S703" and "output scatter" in d.message
            for d in diags
        )

    def test_scatter_past_a_ragged_tile(self, clean):
        program, source, config = clean
        head, sep, tail = source.rpartition("for (long jj = 0; jj < len; ++jj)")
        mutated = head + "for (long jj = 0; jj < TILE; ++jj)" + tail
        assert sep and "stream_word(&out[" in tail
        rules = _rules(program, mutated, config)
        assert "OBL-S702" in rules

    def test_deleted_stream_fence(self, clean):
        program, source, config = clean
        # Streamed stores are weakly ordered: without the tile's fence the
        # caller (or another thread) may read the image before they land.
        mutated = _mutate(source, "        STREAM_FENCE();\n", "")
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert any(
            d.rule_id == "OBL-S702" and "STREAM_FENCE" in d.message
            for d in diags
        )

    @pytest.mark.parametrize("old, new", [
        ("    dst[0] = v;\n", "    dst[1] = v;\n"),
        ("_mm_stream_si64((long long *)dst, bits);",
         "_mm_stream_si64((long long *)&dst[1], bits);"),
    ], ids=["plain-branch", "stream-branch"])
    def test_stream_helper_writes_elsewhere(self, clean, old, new):
        program, source, config = clean
        # The scatter's index is right, but the helper it calls shifts
        # every word into the next one's slot.
        mutated = _mutate(source, old, new)
        rules = _rules(program, mutated, config)
        assert rules == ["OBL-S703"]

    def test_helper_redefined_by_a_macro(self, clean):
        program, source, config = clean
        mutated = _mutate(
            source,
            "#define TILE",
            "#define stream_word(dst, v) ((dst)[1] = (v))\n#define TILE",
        )
        rules = _rules(program, mutated, config)
        assert "OBL-S703" in rules

    def test_scatter_bypasses_the_stream(self, clean):
        program, source, config = clean
        # A second, plain scatter of the same words: ordinary stores mixed
        # with the weakly-ordered streamed ones, outside the proof.
        scatter = (
            "        for (long jj = 0; jj < len; ++jj)\n"
            "            for (long a = 0; a < 1; ++a)\n"
            "                stream_word(&out[(j0 + jj) * OUT_WORDS + a], "
            "slab[a * TILE + jj]);\n"
        )
        plain = (
            "        for (long jj = 0; jj < len; ++jj)\n"
            "            for (long a = 0; a < 1; ++a)\n"
            "                out[(j0 + jj) * OUT_WORDS + a] = slab[a * TILE + jj];\n"
        )
        mutated = _mutate(source, scatter, scatter + plain)
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert any(
            d.rule_id == "OBL-S702" and "outside the streamed scatter"
            in d.message for d in diags
        )

    def test_slab_tail_not_zeroed(self, clean):
        program, source, config = clean
        mutated = _mutate(
            source,
            "        for (long a = r; a < WORDS; ++a)\n"
            "            for (long jj = 0; jj < TILE; ++jj)\n"
            "                slab[a * TILE + jj] = 0;\n",
            "",
        )
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert any(
            d.rule_id == "OBL-S701" and "[r, WORDS)" in d.message
            for d in diags
        )

    def test_ragged_lanes_not_zeroed(self, clean):
        program, source, config = clean
        mutated = _mutate(
            source,
            "        if (len < TILE) for (long i = 0; i < SLAB; ++i) slab[i] = 0;\n",
            "",
        )
        rules = _rules(program, mutated, config)
        assert "OBL-S701" in rules

    def test_forwarding_past_an_aliasing_store(self, clean):
        program, source, config = clean
        # Load(2, 0) is elided as `r2 = r1` (r1 was just stored to word 0).
        # Forward from r0 instead: the *pre-store* content of word 0.
        mutated = _mutate(source, "r2 = r1;", "r2 = r0;")
        rules = _rules(program, mutated, config)
        assert "OBL-S704" in rules

    def test_off_by_one_chunk_boundary(self):
        program = _program()
        source, config = _emit(program, chunk=2)
        assert _rules(program, source, config) == []
        assert "chunk_1" in source
        # Duplicate chunk_0's store into chunk_1: the instruction runs
        # twice at the boundary (surplus emitted work).
        store = "mem[0 * TILE + jj] = r1;"
        head, _, tail = source.partition("static void chunk_1(")
        mutated_tail = _mutate(
            tail,
            "for (long jj = 0; jj < TILE; ++jj) {\n",
            "for (long jj = 0; jj < TILE; ++jj) {\n"
            f"        {store}\n",
        )
        rules = _rules(program, head + "static void chunk_1(" + mutated_tail,
                       config)
        assert "OBL-S701" in rules

    def test_dropped_statement_at_chunk_boundary(self):
        program = _program()
        source, config = _emit(program, chunk=2)
        # Delete the forwarded load's assignment from chunk_1: r2 is never
        # produced, the ADD consumes a value the schedule dropped.
        head, mid, tail = source.partition("static void chunk_1(")
        mutated_tail = _mutate(tail, "        int64_t r2 = r1;\n", "")
        rules = _rules(program, head + mid + mutated_tail, config)
        assert "OBL-S701" in rules

    def test_reordered_chunk_calls(self):
        program = _program()
        source, config = _emit(program, chunk=2)
        mutated = _mutate(
            source,
            "        chunk_0(slab, regs);\n"
            "        chunk_1(slab, regs);\n",
            "        chunk_1(slab, regs);\n"
            "        chunk_0(slab, regs);\n",
        )
        rules = _rules(program, mutated, config)
        assert "OBL-S701" in rules

    def test_skipped_slab_zeroing(self, clean):
        program, source, config = clean
        mutated = _mutate(
            source,
            "        for (long i = 0; i < NREGS * TILE; ++i) regs[i] = 0;\n",
            "",
        )
        rules = _rules(program, mutated, config)
        assert "OBL-S701" in rules


#: Words 0 and 2..3 of the four: two ranges.  Word 0 is read first and
#: words 2..3 are untouched outputs, so the compaction gathers them into
#: slots 0..2, one run; word 1, a dead store, gets slot 3.
RANGES = ((0, 1), (2, 4))
ONLY = (
    "        for (long jj = 0; jj < len; ++jj)\n"
    "            for (long a = 0; a < 3; ++a)\n"
    "                stream_word(&out[(j0 + jj) * OUT_WORDS + a], "
    "slab[a * TILE + jj]);\n"
)
#: Words 0..1 and 3: word 1, stored last, gets slot 2 after the gathered
#: words 0 and 3, so the output slots in column order are 0, 2, 1 — three
#: runs, the second shifted one column back, the third one forward.
SHUFFLED = ((0, 2), (3, 4))
FIRST = (
    "        for (long jj = 0; jj < len; ++jj)\n"
    "            for (long a = 0; a < 1; ++a)\n"
    "                stream_word(&out[(j0 + jj) * OUT_WORDS + a], "
    "slab[a * TILE + jj]);\n"
)
SECOND = (
    "        for (long jj = 0; jj < len; ++jj)\n"
    "            for (long a = 2; a < 3; ++a)\n"
    "                stream_word(&out[(j0 + jj) * OUT_WORDS + a - 1], "
    "slab[a * TILE + jj]);\n"
)
THIRD = (
    "        for (long jj = 0; jj < len; ++jj)\n"
    "            for (long a = 1; a < 2; ++a)\n"
    "                stream_word(&out[(j0 + jj) * OUT_WORDS + a + 1], "
    "slab[a * TILE + jj]);\n"
)


@pytest.fixture()
def declared():
    program = _program(RANGES)
    source, config = _emit(program)
    assert ONLY in source
    assert "#define OUT_WORDS 3L" in source
    assert _rules(program, source, config) == []
    return program, source, config


@pytest.fixture()
def shuffled():
    program = _program(SHUFFLED)
    source, config = _emit(program)
    assert FIRST + SECOND + THIRD in source
    assert _rules(program, source, config) == []
    return program, source, config


class TestDeclaredOutputs:
    def test_dropped_declared_word(self, declared):
        program, source, config = declared
        mutated = _mutate(source, "a < 3;", "a < 2;")
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert [d.rule_id for d in diags] == ["OBL-S701"]
        assert "drops declared output slot(s) 2" in diags[0].message

    def test_undeclared_word_written(self, declared):
        program, source, config = declared
        # Slot 3 holds word 1's dead store, which no output declares.
        mutated = _mutate(source, "a < 3;", "a < 4;")
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert [d.rule_id for d in diags] == ["OBL-S702"]
        assert "undeclared slot(s) 3" in diags[0].message

    def test_wrong_out_words(self, declared):
        program, source, config = declared
        mutated = _mutate(source, "#define OUT_WORDS 3L", "#define OUT_WORDS 4L")
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert [d.rule_id for d in diags] == ["OBL-S703"]
        assert "OUT_WORDS=4" in diags[0].message

    def test_overlapping_ranges(self, shuffled):
        program, source, config = shuffled
        mutated = _mutate(source, SECOND + THIRD, SECOND + SECOND + THIRD)
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert [d.rule_id for d in diags] == ["OBL-S702"]
        assert "more than once" in diags[0].message

    def test_ranges_out_of_order(self, shuffled):
        program, source, config = shuffled
        # Each nest keeps its right columns: only the order is wrong.
        mutated = _mutate(source, FIRST + SECOND, SECOND + FIRST)
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert [d.rule_id for d in diags] == ["OBL-S701"]
        assert "declared range order" in diags[0].message

    def test_range_streamed_to_the_wrong_columns(self, shuffled):
        program, source, config = shuffled
        mutated = _mutate(source, "OUT_WORDS + a - 1]", "OUT_WORDS + a - 2]")
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert [d.rule_id for d in diags] == ["OBL-S703"]
        assert "declared column is 1" in diags[0].message

    def test_forward_run_streamed_to_the_wrong_columns(self, shuffled):
        program, source, config = shuffled
        mutated = _mutate(source, "OUT_WORDS + a + 1]", "OUT_WORDS + a]")
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert [d.rule_id for d in diags] == ["OBL-S703"]
        assert "declared column is 2" in diags[0].message

    def test_certificate_counts_the_declared_words(self, declared):
        program, source, config = declared
        _, certs, proof = certify_bulk_schedule(program, source, config)
        assert proof.certified
        assert any("3 declared output word(s)" in c for c in certs)


IMAP = "static const long IMAP[NREAD + 1] = {0, 2, 3, 4};"


class TestInputMap:
    """The gather through the compaction's input map: the clean program
    reads word 0 first and returns the untouched words 2 and 3, so
    ``IMAP`` is ``{0, 2, 3}`` and the sentinel 4."""

    def test_clean_map(self, clean):
        _, source, config = clean
        assert IMAP in source
        assert config.imap == (0, 2, 3) and config.words == 4

    def test_duplicated_entry_is_not_injective(self, clean):
        program, source, config = clean
        mutated = _mutate(source, IMAP, IMAP.replace("{0, 2, 3,", "{0, 2, 2,"))
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert [d.rule_id for d in diags] == ["OBL-S703"]
        assert "not injective" in diags[0].message

    def test_entry_off_by_one(self, clean):
        program, source, config = clean
        mutated = _mutate(source, IMAP, IMAP.replace("{0, 2,", "{1, 2,"))
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert [d.rule_id for d in diags] == ["OBL-S703"]
        assert "feeds slot 0 from source word 1" in diags[0].message

    def test_zero_fill_from_the_map_length(self, clean):
        program, source, config = clean
        # Slots [r, NREAD) are read-first words past the caller's k inputs:
        # they must read zero, not whatever the stack held.
        mutated = _mutate(source, "for (long a = r; a < WORDS; ++a)",
                          "for (long a = NREAD; a < WORDS; ++a)")
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert [d.rule_id for d in diags] == ["OBL-S701"]
        assert "[r, WORDS)" in diags[0].message

    @pytest.mark.parametrize("words", [3, 5], ids=["narrower", "wider"])
    def test_words_other_than_the_map(self, clean, words):
        program, source, config = clean
        mutated = _mutate(source, "#define WORDS 4L", f"#define WORDS {words}L")
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert [d.rule_id for d in diags] == ["OBL-S703"]
        assert f"WORDS={words}" in diags[0].message

    def test_request_off_the_compaction(self, clean):
        program, source, config = clean
        import dataclasses

        wrong = dataclasses.replace(config, imap=(0, 1, 3))
        rules = _rules(program, wrong.emit(program), wrong)
        assert "OBL-S703" in rules


class TestMutationsAreErrors:
    def test_every_s_rule_defaults_to_error(self):
        from repro.analysis.lint.rules import RULES
        from repro.analysis.lint.diagnostics import Severity

        for rule_id in ("OBL-S701", "OBL-S702", "OBL-S703", "OBL-S704"):
            assert RULES[rule_id].severity is Severity.ERROR


def _hide(source, line, condition="#if 0"):
    """Wrap one whole source line in a conditional the compiler drops."""
    return _mutate(source, line, f"{condition}\n{line}#endif\n")


class TestPreprocessorHoles:
    """Lines the compiler never sees: the frame holds every line under its
    own ``#if`` nest, so a frame line wrapped in a condition, or a macro
    redefined around the frame, breaks the line's obligation."""

    @pytest.mark.parametrize("line, condition, rule", [
        ("        chunk_0(slab, regs);\n", "#ifdef NEVER", "OBL-S701"),
        ("        for (long i = 0; i < NREGS * TILE; ++i) regs[i] = 0;\n",
         "#if 0", "OBL-S701"),
        ("        if (len < TILE) for (long i = 0; i < SLAB; ++i) "
         "slab[i] = 0;\n", "#if 0", "OBL-S701"),
        ("        STREAM_FENCE();\n", "#if 0", "OBL-S702"),
    ], ids=["chunk-call", "register-zeroing", "ragged-zero-fill", "fence"])
    def test_hidden_frame_line(self, clean, line, condition, rule):
        program, source, config = clean
        diags, _, _ = certify_bulk_schedule(
            program, _hide(source, line, condition), config
        )
        assert any(
            d.rule_id == rule and "compiled only under" in d.message
            and condition in d.message for d in diags
        )

    def test_slab_redefined_before_the_driver(self, clean):
        program, source, config = clean
        # The compiled slab is int64_t slab[(4)] for a 64-word tile.
        mutated = _mutate(
            source, "void repro_bulk_kernel(",
            "#undef SLAB\n#define SLAB (4)\nvoid repro_bulk_kernel(",
        )
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert [d.rule_id for d in diags] == ["OBL-S703", "OBL-S703"]
        assert all("SLAB" in d.message for d in diags)

    def test_slab_shadowed_by_a_dead_definition(self, clean):
        program, source, config = clean
        define = "#define SLAB 64L  /* words of the tile-private slab */\n"
        mutated = _mutate(source, define, "#define SLAB 4L\n" + define)
        mutated = _hide(mutated, define)
        rules = _rules(program, mutated, config)
        assert "OBL-S703" in rules
        assert "OBL-S701" in rules  # the #if 0 / #endif themselves

    def test_hidden_lines_reject_on_every_layout(self):
        program = _program()
        for layout in ("row", "padded-row"):
            config = schedule_config(
                program, make_arrangement(layout, program.memory_words, P),
                tile=TILE, threads=THREADS,
            )
            source = config.emit(program)
            assert _rules(program, source, config) == []
            hidden = _hide(source, "        STREAM_FENCE();\n")
            assert "OBL-S702" in _rules(program, hidden, config)


class TestHiddenSideEffects:
    def test_store_hidden_in_a_right_hand_side(self, clean):
        program, source, config = clean
        # The ADD still reads exactly r2 and r1, but a comma expression
        # writes word 0 on the way.
        mutated = _mutate(
            source, "int64_t r3 = i64_add(r2, r1);",
            "int64_t r3 = (mem[0 * TILE + jj] = r0, i64_add(r2, r1));",
        )
        diags, _, _ = certify_bulk_schedule(program, mutated, config)
        assert any(
            d.rule_id == "OBL-S701" and "unrecognised statement" in d.message
            for d in diags
        )
