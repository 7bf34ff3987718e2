"""Liveness analysis and linear-scan register allocation.

The :class:`~repro.trace.builder.ProgramBuilder` emits SSA form — every
value gets a fresh id — which is convenient to author but ruinous to
execute in bulk: each live register of the bulk engine is a ``p``-element
vector, and an unrolled ``O(n³)`` dynamic program would define millions of
values.  Allocation compresses the register file to the program's *live
width* (a handful of registers for all the paper's algorithms) so that the
per-thread state stays cache-resident.

The algorithm is the classic linear scan specialised to straight-line code
(no control flow ⇒ each SSA value has one contiguous live interval from its
definition to its last use):

1. one backward pass records each value's last use;
2. one forward pass assigns physical registers, returning an operand's
   register to the free pool *at* its last use — which deliberately allows
   an instruction's destination to reuse one of its own operands' registers
   (the bulk engine's ufunc-with-``out=`` execution is alias-safe).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from ..errors import RegisterError
from .ir import (
    Binary,
    Const,
    Instruction,
    Load,
    Select,
    Store,
    Unary,
    instruction_def,
    instruction_uses,
)

__all__ = ["SlotPool", "allocate_registers", "live_width"]


class SlotPool:
    """The linear scan's free list: hands out the lowest released slot,
    else a fresh one past every slot taken so far.

    Registers draw from it here; :mod:`repro.trace.compact` draws memory
    slots from it.  ``size`` is the number of distinct slots handed out
    (slots ``[0, start)`` count as taken from the outset).
    """

    def __init__(self, start: int = 0) -> None:
        self.size = int(start)
        self._free: List[int] = []  # min-heap of released slots

    def take(self) -> int:
        if self._free:
            return heapq.heappop(self._free)
        self.size += 1
        return self.size - 1

    def give(self, slot: int) -> None:
        heapq.heappush(self._free, slot)


def _last_uses(instrs: Sequence[Instruction]) -> Dict[int, int]:
    """Map each SSA id to the index of its final use (or its def if unused)."""
    last: Dict[int, int] = {}
    for idx, instr in enumerate(instrs):
        rd = instruction_def(instr)
        if rd is not None and rd not in last:
            last[rd] = idx  # dead value: release right after its definition
        for r in instruction_uses(instr):
            last[r] = idx
    return last


def _rewrite(instr: Instruction, mapping: Dict[int, int], rd_phys: int | None) -> Instruction:
    if isinstance(instr, Const):
        return Const(rd=rd_phys, imm=instr.imm)
    if isinstance(instr, Load):
        return Load(rd=rd_phys, addr=instr.addr)
    if isinstance(instr, Store):
        return Store(addr=instr.addr, rs=mapping[instr.rs])
    if isinstance(instr, Binary):
        return Binary(op=instr.op, rd=rd_phys, ra=mapping[instr.ra], rb=mapping[instr.rb])
    if isinstance(instr, Unary):
        return Unary(op=instr.op, rd=rd_phys, ra=mapping[instr.ra])
    if isinstance(instr, Select):
        return Select(
            rd=rd_phys, rc=mapping[instr.rc], ra=mapping[instr.ra], rb=mapping[instr.rb]
        )
    raise RegisterError(f"unknown instruction type: {type(instr).__name__}")


def allocate_registers(
    instrs: Sequence[Instruction],
) -> Tuple[List[Instruction], int]:
    """Rewrite SSA ``instrs`` onto a minimal-ish physical register file.

    Returns ``(rewritten_instructions, num_physical_registers)``.  Raises
    :class:`RegisterError` on use-before-def (malformed SSA).
    """
    last = _last_uses(instrs)
    mapping: Dict[int, int] = {}  # live SSA id -> physical register
    pool = SlotPool()
    out: List[Instruction] = []

    for idx, instr in enumerate(instrs):
        uses = instruction_uses(instr)
        for r in uses:
            if r not in mapping:
                raise RegisterError(
                    f"instr {idx} ({instr}): SSA value %{r} used before definition"
                )
        # Snapshot the operand registers, then release the ones whose live
        # range ends here (before defining the destination, so the
        # destination may reuse an operand's register).
        operand_phys = {r: mapping[r] for r in uses}
        for r in set(uses):
            if last[r] == idx:
                pool.give(mapping.pop(r))

        rd = instruction_def(instr)
        rd_phys: int | None = None
        if rd is not None:
            if rd in mapping:
                raise RegisterError(
                    f"instr {idx} ({instr}): SSA value %{rd} defined twice"
                )
            rd_phys = pool.take()
            if last[rd] == idx:
                # Defined but never used: register is free again immediately.
                pool.give(rd_phys)
            else:
                mapping[rd] = rd_phys
        out.append(_rewrite(instr, operand_phys, rd_phys))

    return out, max(pool.size, 1)


def live_width(instrs: Sequence[Instruction]) -> int:
    """Maximum number of simultaneously-live SSA values.

    This is the lower bound on any allocation of the straight-line program;
    tests assert :func:`allocate_registers` achieves it exactly (linear scan
    is optimal on a single basic block).
    """
    last = _last_uses(instrs)
    live = 0
    peak = 0
    alive = set()
    for idx, instr in enumerate(instrs):
        for r in set(instruction_uses(instr)):
            if last[r] == idx and r in alive:
                alive.discard(r)
                live -= 1
        rd = instruction_def(instr)
        if rd is not None and last[rd] != idx:
            alive.add(rd)
            live += 1
            peak = max(peak, live)
        elif rd is not None:
            # Instantaneously live: still needs one register to exist in.
            peak = max(peak, live + 1)
    return max(peak, 1)
