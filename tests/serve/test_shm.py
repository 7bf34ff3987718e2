"""SlotArena: geometry, shared views, trimming, and ownership lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import get_spec
from repro.bulk import BulkExecutor
from repro.codegen.compile import have_compiler
from repro.errors import ShardError
from repro.serve.shm import SlotArena

GEO = dict(slots=3, max_batch=8, words=5, out_words=5)


@pytest.fixture
def arena():
    a = SlotArena.create(dtype=np.float64, **GEO)
    yield a
    a.close()


class TestGeometry:
    def test_nbytes_accounts_inputs_and_outputs(self):
        assert SlotArena.nbytes_for(3, 8, 5, np.float64, out_words=5) == 3 * 2 * 8 * 5 * 8
        assert SlotArena.nbytes_for(1, 1, 1, np.int64, out_words=1) == 16

    def test_create_is_zeroed_and_named(self, arena):
        assert arena.owner and arena.name
        for slot in range(GEO["slots"]):
            assert not arena.input_view(slot).any()
            assert not arena.output_view(slot).any()

    def test_bad_geometry_rejected(self):
        with pytest.raises(ShardError):
            SlotArena.create(slots=0, max_batch=8, words=5, dtype=np.float64,
                             out_words=5)

    def test_slot_out_of_range(self, arena):
        with pytest.raises(ShardError):
            arena.input_view(GEO["slots"])
        with pytest.raises(ShardError):
            arena.output_view(-1)

    def test_trimmed_views(self, arena):
        assert arena.input_view(0, occupancy=4, width=2).shape == (4, 2)
        assert arena.output_view(0, occupancy=4).shape == (4, GEO["out_words"])
        assert arena.input_view(0).shape == (GEO["max_batch"], GEO["words"])


class TestSharedVisibility:
    def test_attach_sees_owner_writes_and_vice_versa(self, arena):
        other = SlotArena.attach(arena.name, dtype=np.float64, **GEO)
        try:
            arena.input_view(1, 2, 3)[:] = [[1, 2, 3], [4, 5, 6]]
            np.testing.assert_array_equal(
                other.input_view(1, 2, 3), [[1, 2, 3], [4, 5, 6]]
            )
            other.output_view(1, 1)[:] = 9.0
            assert arena.output_view(1, 1)[0, 0] == 9.0
        finally:
            other.close()

    def test_slots_do_not_alias(self, arena):
        arena.input_view(0)[:] = 1.0
        assert not arena.input_view(1).any()
        assert not arena.output_view(0).any()

    def test_attach_missing_segment_raises(self):
        with pytest.raises(ShardError):
            SlotArena.attach("repro-no-such-segment", 1, 1, 1, np.float64,
                             out_words=1)

    def test_attach_undersized_segment_raises(self, arena):
        with pytest.raises(ShardError):
            SlotArena.attach(
                arena.name, GEO["slots"] + 1, GEO["max_batch"], GEO["words"],
                np.float64, out_words=GEO["out_words"],
            )


class TestLifecycle:
    def test_owner_close_unlinks(self):
        arena = SlotArena.create(slots=1, max_batch=2, words=2, dtype=np.float64,
                                 out_words=2)
        name = arena.name
        arena.close()
        assert arena.closed
        with pytest.raises(ShardError):
            SlotArena.attach(name, 1, 2, 2, np.float64, out_words=2)

    def test_close_is_idempotent(self, arena):
        arena.close()
        arena.close()
        assert arena.closed

    def test_attacher_close_keeps_segment(self, arena):
        other = SlotArena.attach(arena.name, dtype=np.float64, **GEO)
        other.close()
        # The owner's mapping is untouched by a non-owner close.
        arena.input_view(0)[:] = 3.0
        again = SlotArena.attach(arena.name, dtype=np.float64, **GEO)
        try:
            assert again.input_view(0)[0, 0] == 3.0
        finally:
            again.close()


class TestReleaseAfterExecutors:
    """A native executor gathers straight out of a slot; once it is
    closed, nothing it held may keep the segment exported."""

    @pytest.mark.skipif(not have_compiler(), reason="no C compiler")
    def test_closed_native_executor_releases_the_mapping(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = get_spec("prefix-sums")
        program = spec.build(4)
        geo = dict(slots=2, max_batch=8, words=program.memory_words,
                   out_words=program.output_words)
        owner = SlotArena.create(dtype=program.dtype, **geo)
        shard = SlotArena.attach(owner.name, dtype=program.dtype, **geo)
        executor = BulkExecutor(program, 8, backend="native")
        try:
            shard.input_view(0)[:] = spec.make_inputs(
                np.random.default_rng(0), 4, 8)
            # Full occupancy: the kernel gathers from the slot itself.
            executor.run_trimmed_into(
                shard.input_view(0, 8, program.memory_words),
                shard.output_view(0, 8),
            )
        finally:
            executor.close()
            shard.close()
            owner.close()
        assert shard.shm._mmap is None  # the mapping is gone, not pinned
        assert owner.shm._mmap is None

    def test_owner_unlinks_even_while_a_view_pins_the_mapping(self):
        arena = SlotArena.create(slots=1, max_batch=2, words=2,
                                 dtype=np.float64, out_words=2)
        name = arena.name
        escaped = arena.input_view(0)
        arena.close()
        with pytest.raises(ShardError):
            SlotArena.attach(name, 1, 2, 2, np.float64, out_words=2)
        del escaped
        arena.shm.close()  # the mapping goes with the last view


class TestOutputChecksum:
    """CRC32 over the trimmed output block — the slot-corruption detector."""

    def test_matches_across_owner_and_attacher(self, arena):
        other = SlotArena.attach(arena.name, dtype=np.float64, **GEO)
        try:
            arena.output_view(2, 4)[:] = np.arange(4 * GEO["out_words"]).reshape(
                4, GEO["out_words"]
            )
            # Shard-side (attacher) and router-side (owner) compute the same
            # checksum over the same shared bytes.
            assert other.output_checksum(2, 4) == arena.output_checksum(2, 4)
        finally:
            other.close()

    def test_single_flipped_byte_changes_the_checksum(self, arena):
        arena.output_view(0, 2)[:] = 7.0
        before = arena.output_checksum(0, 2)
        arena.output_view(0, 2).view(np.uint8).reshape(-1)[0] ^= 0xFF
        assert arena.output_checksum(0, 2) != before

    def test_checksum_covers_only_the_occupied_rows(self, arena):
        arena.output_view(1, 2)[:] = 1.0
        before = arena.output_checksum(1, 2)
        # Garbage beyond the occupancy (a stale wider batch) is invisible.
        arena.output_view(1)[3:, :] = 42.0
        assert arena.output_checksum(1, 2) == before
