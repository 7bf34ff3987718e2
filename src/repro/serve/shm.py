"""Shared-memory slot arenas — the zero-copy lane between router and shards.

The sharded serving tier's design rule is that *request payloads never ride
the control plane*: a batch's input rows are written into a slot of a
``multiprocessing.shared_memory`` segment by the router, the shard executes
straight out of that slot and writes the output images back into the same
slot, and the only thing crossing the inter-process queues is a compact
descriptor naming the slot (see :mod:`repro.serve.wire`).  Per-request
pickling of ndarrays — the classic cost that caps multiprocess serving
fan-out — never happens.

One :class:`SlotArena` backs one ``(shard, queue key)`` pair and is divided
into ``slots`` independent slots, each holding an input block of
``(max_batch, words)`` items and an output block of ``(max_batch,
out_words)`` items — the served program's declared output words, which for
a single-answer DP is one item per lane.  A slot is owned by exactly one
in-flight batch at a time: the router acquires it before packing, the shard
uses it while executing, and the router releases it after reading the
outputs — so no locking is needed beyond the descriptor hand-off itself.

Lifecycle: the **router** creates segments (and is the only party that ever
unlinks them); a **shard** attaches by name and merely closes its mapping on
exit.  The well-known CPython ``shared_memory`` wart — an attaching
process' ``resource_tracker`` unlinking the segment when that process
exits — is handled by contract, not per-attach heroics: the router
guarantees its tracker is running *before* workers launch, so workers
share it (fork inherits the pipe; spawn is handed it), their attach
registrations are idempotent set-adds in that one tracker, and the
owner's single ``unlink`` balances the books.  :meth:`SlotArena.attach`
keeps an ``untrack=True`` escape hatch for attachers that genuinely own a
*separate* tracker (a process not launched by the segment's owner).
"""

from __future__ import annotations

import zlib
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from ..errors import ShardError

__all__ = ["SlotArena"]


def _untrack(name: str) -> None:
    """Drop ``name`` from this process' resource tracker (best effort).

    Only the creating process may own cleanup of a segment; an attaching
    worker must not register it, or the tracker will unlink it when the
    worker exits while the router and sibling shards still map it.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}" if not name.startswith("/") else name,
                                    "shared_memory")
    except Exception:
        pass


class SlotArena:
    """``slots`` × (input block + output block) in one shared segment.

    Parameters
    ----------
    shm:
        The attached :class:`~multiprocessing.shared_memory.SharedMemory`.
    slots, max_batch, words:
        Geometry: each slot holds a ``(max_batch, words)`` input block.
    out_words:
        Width of each slot's ``(max_batch, out_words)`` output block (the
        served program's ``output_words``).
    dtype:
        Item dtype (the served program's dtype).
    owner:
        ``True`` in the creating (router) process — the only one that may
        :meth:`unlink`.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        slots: int,
        max_batch: int,
        words: int,
        dtype: np.dtype,
        owner: bool,
        *,
        out_words: int,
    ) -> None:
        self.shm = shm
        self.slots = int(slots)
        self.max_batch = int(max_batch)
        self.words = int(words)
        self.out_words = int(out_words)
        self.dtype = np.dtype(dtype)
        self.owner = owner
        self._closed = False
        need = self.nbytes_for(
            slots, max_batch, words, self.dtype, out_words=self.out_words
        )
        if shm.size < need:
            raise ShardError(
                f"shared segment {shm.name!r} holds {shm.size} bytes but the "
                f"arena geometry needs {need}"
            )
        # Two views over the arena: every slot's input block, then every
        # slot's output block, each indexed [slot, lane, word].
        inputs = self.slots * self.max_batch * self.words
        self._inputs = np.frombuffer(
            shm.buf, dtype=self.dtype, count=inputs,
        ).reshape(self.slots, self.max_batch, self.words)
        self._outputs = np.frombuffer(
            shm.buf, dtype=self.dtype,
            count=self.slots * self.max_batch * self.out_words,
            offset=inputs * self.dtype.itemsize,
        ).reshape(self.slots, self.max_batch, self.out_words)

    # -- construction --------------------------------------------------------
    @staticmethod
    def nbytes_for(
        slots: int, max_batch: int, words: int, dtype, *, out_words: int,
    ) -> int:
        """Bytes one arena occupies (inputs + outputs for every slot)."""
        width = int(words) + int(out_words)
        return int(slots) * int(max_batch) * width * np.dtype(dtype).itemsize

    @classmethod
    def create(
        cls, slots: int, max_batch: int, words: int, dtype, *, out_words: int,
    ) -> "SlotArena":
        """Router side: allocate a fresh zeroed segment (auto-named)."""
        if slots < 1 or max_batch < 1 or words < 1 or out_words < 1:
            raise ShardError(
                f"arena geometry must be positive, got slots={slots}, "
                f"max_batch={max_batch}, words={words}, out_words={out_words}"
            )
        shm = shared_memory.SharedMemory(
            create=True,
            size=cls.nbytes_for(slots, max_batch, words, dtype, out_words=out_words),
        )
        return cls(shm, slots, max_batch, words, dtype, owner=True,
                   out_words=out_words)

    @classmethod
    def attach(
        cls, name: str, slots: int, max_batch: int, words: int, dtype,
        *, out_words: int, untrack: bool = False,
    ) -> "SlotArena":
        """Shard side: map an existing segment by name (never unlinks).

        Leave ``untrack`` off when this process shares the owner's
        resource tracker (every worker the router launches does — see the
        module docstring): unregistering there would strip the owner's own
        registration.  Set it ``True`` only in a process with a *separate*
        tracker, whose attach registration would otherwise unlink the
        segment when this process exits.
        """
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError as exc:
            raise ShardError(
                f"shared segment {name!r} does not exist (router gone?)"
            ) from exc
        if untrack:
            _untrack(shm.name)
        return cls(shm, slots, max_batch, words, dtype, owner=False,
                   out_words=out_words)

    @property
    def name(self) -> str:
        """The segment's system-wide name (what crosses the wire)."""
        return self.shm.name

    # -- slot views ----------------------------------------------------------
    def input_view(self, slot: int, occupancy: Optional[int] = None,
                   width: Optional[int] = None) -> np.ndarray:
        """Writable view of slot ``slot``'s input block.

        ``occupancy``/``width`` trim to the batch's live region; both sides
        of the wire construct the same view from the descriptor alone.
        """
        view = self._inputs[self._check_slot(slot)]
        return view[: occupancy, : width] if occupancy is not None else view

    def output_view(self, slot: int, occupancy: Optional[int] = None) -> np.ndarray:
        """Writable view of slot ``slot``'s ``(max_batch, out_words)``
        output block."""
        view = self._outputs[self._check_slot(slot)]
        return view[:occupancy] if occupancy is not None else view

    def output_checksum(self, slot: int, occupancy: int) -> int:
        """CRC32 of slot ``slot``'s live output rows.

        The shard stamps this onto the ``done`` descriptor after writing
        results; the router recomputes it before copying the rows out.  A
        mismatch means the shared bytes were silently damaged between the
        two reads — the one failure mode a zero-copy data plane adds over
        a pickling one — and the batch is re-dispatched, never served.
        """
        view = self.output_view(slot, occupancy)
        return zlib.crc32(np.ascontiguousarray(view).view(np.uint8).data)

    def _check_slot(self, slot: int) -> int:
        if not 0 <= slot < self.slots:
            raise ShardError(
                f"slot {slot} outside arena of {self.slots} slots"
            )
        return slot

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Drop this process' mapping (idempotent; owner also unlinks)."""
        if self._closed:
            return
        self._closed = True
        self._inputs = self._outputs = None
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a live view escaped
            pass  # the mapping outlives the view; the name must not
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlotArena({self.name!r}, slots={self.slots}, "
            f"max_batch={self.max_batch}, words={self.words}, "
            f"out_words={self.out_words}, "
            f"dtype={self.dtype}, owner={self.owner})"
        )
