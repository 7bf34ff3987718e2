"""Memory compaction: each lane keeps only the words it holds live.

Bulk execution gives every lane its own ``memory_words`` of memory (the
paper, Section III), but a program rarely needs them all at once.  OPT
n=32 has 2,048 words, reads 465 of its 1,024 input words and never has
more than 496 words live.  The native kernel stages each tile of lanes
through a stack slab, so its width is what sets the slab's cache
footprint.  This module is the execution lowering that narrows it, in
two steps:

1. **Word liveness** (:func:`word_liveness`): one pass records, for each
   word, its first access and whether that access is a load, its last
   access, and whether it is a declared output.  The engines' zero-fill
   bookkeeping reads the same analysis.
2. **Renaming** (:func:`compact_memory`): a linear scan renames words to
   compact slots through the register allocator's free list
   (:class:`~repro.trace.regalloc.SlotPool`).  The words whose initial
   contents the program observes — loaded before any store, or declared
   outputs nothing stores — take slots ``[0, R)`` in address order, and
   their addresses form the static input map ``imap``.  Every other word
   takes a slot at its first store.  A slot returns to the pool at its
   word's last access unless the word is a declared output, which stays
   live to the end.  A read-first word beyond the caller's inputs holds
   zero from the start, so its slot is zero-filled, not gathered.

The lowering is an execution detail, like fusion: the source
:class:`~repro.trace.ir.Program`, its ``memory_words``, its address trace
and every UMM price stay as written.  With verification on (the default,
:func:`~repro.trace.optimize.verify_passes_default`) the renamed program
is proven equal to the source on every declared output word, by the
symbolic prover of :mod:`repro.analysis.lint.equiv`, once per program
object.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .ir import Load, PerProgram, Program, Store
from .regalloc import SlotPool

__all__ = ["WordLiveness", "word_liveness", "Compaction", "compact_memory"]


@dataclass(frozen=True)
class WordLiveness:
    """Per-word access facts of one program (arrays of ``memory_words``).

    ``first``/``last`` are the address-trace steps of a word's first and
    last access (``-1`` when no instruction touches it), ``first_load``
    whether the first access is a load, ``output`` whether the word is a
    declared output.
    """

    first: np.ndarray
    last: np.ndarray
    first_load: np.ndarray
    output: np.ndarray

    @property
    def reads_initial(self) -> np.ndarray:
        """Words whose initial contents someone observes: loaded before
        any store, or a declared output no instruction touches.  Every
        other word is stored before it is read, or is never seen."""
        return self.first_load | ((self.first < 0) & self.output)

    def zero_ranges(self, k: int) -> list:
        """Half-open ranges of ``[k, memory_words)`` whose words read
        their initial zero: what an engine must clear past ``k`` inputs."""
        words = self.reads_initial.copy()
        words[:k] = False
        edges = np.flatnonzero(np.diff(np.concatenate(([0], words, [0]))))
        return [(int(lo), int(hi)) for lo, hi in edges.reshape(-1, 2)]


def _liveness(program: Program) -> WordLiveness:
    words = program.memory_words
    trace = program.address_trace()
    writes = program.write_mask()
    first = np.full(words, -1, dtype=np.int64)
    last = np.full(words, -1, dtype=np.int64)
    first_load = np.zeros(words, dtype=bool)
    touched, at = np.unique(trace, return_index=True)
    first[touched] = at
    first_load[touched] = ~writes[at]
    touched, back = np.unique(trace[::-1], return_index=True)
    last[touched] = trace.size - 1 - back
    output = np.zeros(words, dtype=bool)
    output[program.output_index()] = True
    for arr in (first, last, first_load, output):
        arr.setflags(write=False)
    return WordLiveness(first, last, first_load, output)


#: The word liveness of a program (computed once per program object).
word_liveness: "PerProgram[WordLiveness]" = PerProgram(_liveness)


@dataclass
class Compaction:
    """A program renamed onto the slots it keeps live.

    Attributes
    ----------
    program:
        The renamed program: the source's instructions with every
        ``Load``/``Store`` address replaced by its word's slot, over
        ``width`` words.  Its memory is the compact slab, so it declares
        no outputs; :attr:`out_slots` says where the source's are.
    imap:
        The input map: slot ``s < len(imap)`` starts as source word
        ``imap[s]`` (strictly increasing).  Every other slot is stored
        before it is read.
    slots:
        Source word → slot, ``-1`` for a word no instruction touches and
        no output declares.
    out_slots:
        The slot of each declared output word, in output-column order.

    It keeps no reference to the source program: the per-program cache
    drops it when the program dies.
    """

    program: Program
    imap: Tuple[int, ...]
    slots: np.ndarray
    out_slots: np.ndarray
    _proven: bool = field(default=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def width(self) -> int:
        """Words per lane of the compact slab."""
        return self.program.memory_words

    @property
    def out_runs(self) -> Tuple[Tuple[int, int], ...]:
        """:attr:`out_slots` as maximal runs ``(lo, hi)`` of consecutive
        slots, in output-column order: run ``i`` fills the columns after
        the runs before it.  Runs need not be sorted; for a program whose
        compaction is the identity they are its declared ranges."""
        slots = self.out_slots
        cuts = np.flatnonzero(np.diff(slots) != 1) + 1
        return tuple(
            (int(run[0]), int(run[-1]) + 1) for run in np.split(slots, cuts)
        )

    def prove(self, source: Program) -> None:
        """Prove the renaming of ``source`` (once): every declared output
        of the compact program, started from the gathered slots, equals
        the source's —
        :func:`~repro.analysis.lint.equiv.prove_equivalent` with the input
        map and the output slots.  Raises
        :class:`~repro.errors.EquivalenceError` otherwise."""
        with self._lock:
            if self._proven:
                return
            # Imported lazily: the linter sits above the trace layer.
            from ..analysis.lint.equiv import prove_equivalent

            prove_equivalent(
                source, self.program,
                initial_map=self.imap, output_map=self.out_slots.tolist(),
            )
            self._proven = True


def _compact(program: Program) -> Compaction:
    live = word_liveness(program)
    reads = np.flatnonzero(live.reads_initial)
    slots = np.full(program.memory_words, -1, dtype=np.int64)
    slots[reads] = np.arange(reads.size)
    pool = SlotPool(start=reads.size)
    slot = slots.tolist()
    last = live.last.tolist()
    output = live.output.tolist()
    renamed = []
    step = 0
    for instr in program.instructions:
        if isinstance(instr, (Load, Store)):
            a = instr.addr
            if slot[a] < 0:  # the first store of a write-first word
                slot[a] = pool.take()
            if step == last[a] and not output[a]:
                pool.give(slot[a])
            step += 1
            instr = (
                Load(rd=instr.rd, addr=slot[a]) if isinstance(instr, Load)
                else Store(addr=slot[a], rs=instr.rs)
            )
        renamed.append(instr)
    slots = np.asarray(slot, dtype=np.int64)
    slots.setflags(write=False)
    compact = Program(
        instructions=tuple(renamed),
        num_registers=program.num_registers,
        memory_words=max(pool.size, 1),
        dtype=program.dtype,
        name=f"{program.name}+compact",
        meta=dict(program.meta),
    )
    out_slots = slots[program.output_index()]
    out_slots.setflags(write=False)
    return Compaction(
        program=compact, imap=tuple(int(a) for a in reads),
        slots=slots, out_slots=out_slots,
    )


_compactions: "PerProgram[Compaction]" = PerProgram(_compact)


def compact_memory(program: Program, *, verify: Optional[bool] = None) -> Compaction:
    """The compaction of ``program`` (computed once per program object).

    With ``verify`` the renaming is proven before it is returned (once per
    program object; see :meth:`Compaction.prove`).  The default (``None``)
    follows :func:`~repro.trace.optimize.verify_passes_default`.
    """
    compaction = _compactions(program)
    if verify is None:
        from .optimize import verify_passes_default

        verify = verify_passes_default()
    if verify:
        compaction.prove(program)
    return compaction
