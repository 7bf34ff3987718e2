"""Optimisation passes over the oblivious IR.

Straight-line code invites classic local optimisations, and because every
decision is made at build time the result is *still oblivious* — the trace
just gets shorter or the local work cheaper.  Two levels:

``level=1`` — **trace-preserving**: constant folding and dead local-code
    elimination.  Every ``Load``/``Store`` survives, so the access function
    ``a(i)``, the trace length ``t``, and hence all UMM cost results are
    unchanged; only register work shrinks.

``level=2`` — **trace-shortening**: additionally store-to-load forwarding
    (a load of a cell whose current value is already in a register becomes
    a register copy) and dead-store elimination (a store overwritten before
    ever being read is dropped).  This *reduces* ``t`` — the optimiser is
    changing the algorithm the paper would price, so cost comparisons must
    re-read ``program.trace_length``.  Final memory contents are preserved
    exactly.

All passes operate on allocated (register-reusing) programs; correctness
under reuse is property-tested against the interpreter.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np

from ..errors import ProgramError
from .ir import (
    Binary,
    Const,
    Instruction,
    Load,
    Program,
    Select,
    Store,
    Unary,
    instruction_def,
    instruction_uses,
)
from .ops import BINARY_UFUNCS, UNARY_UFUNCS, UnaryOp

__all__ = [
    "fold_constants",
    "eliminate_dead_code",
    "forward_stores",
    "eliminate_dead_stores",
    "optimize",
    "verify_passes_default",
]

#: Environment opt-out for default pass verification (``"0"`` disables).
ENV_VERIFY_PASSES = "REPRO_VERIFY_PASSES"


def verify_passes_default() -> bool:
    """Should transformation passes prove their own output by default?

    Production paths — ``optimize`` and the fusion preamble inside every
    :class:`~repro.bulk.engine.BulkExecutor` and serve shard — verify
    unless ``REPRO_VERIFY_PASSES=0``.  The proof is a linear symbolic pass,
    cheap next to compilation, and turns any future miscompilation into a
    loud build-time :class:`~repro.errors.EquivalenceError` instead of
    silently wrong lanes.
    """
    return os.environ.get(ENV_VERIFY_PASSES, "1") != "0"


def fold_constants(
    instrs: List[Instruction], dtype: np.dtype
) -> List[Instruction]:
    """Replace register ops whose operands are all known constants.

    Folding is performed in the program dtype (so integer wrap/flooring
    matches execution).  ``Select`` with a constant condition collapses to
    a ``COPY`` of the taken arm.
    """
    known: Dict[int, float] = {}  # register -> constant value (program dtype)
    out: List[Instruction] = []
    scalar = np.dtype(dtype).type

    def kill(reg: Optional[int]) -> None:
        if reg is not None:
            known.pop(reg, None)

    for instr in instrs:
        if isinstance(instr, Const):
            known[instr.rd] = scalar(instr.imm)
            out.append(instr)
        elif isinstance(instr, Binary) and instr.ra in known and instr.rb in known:
            val = scalar(BINARY_UFUNCS[instr.op](known[instr.ra], known[instr.rb]))
            known[instr.rd] = val
            out.append(Const(rd=instr.rd, imm=val.item()))
        elif isinstance(instr, Unary) and instr.ra in known:
            val = scalar(UNARY_UFUNCS[instr.op](known[instr.ra]))
            known[instr.rd] = val
            out.append(Const(rd=instr.rd, imm=val.item()))
        elif isinstance(instr, Select) and instr.rc in known:
            src = instr.ra if known[instr.rc] != 0 else instr.rb
            if src in known:
                known[instr.rd] = known[src]
                out.append(Const(rd=instr.rd, imm=known[src].item()))
            else:
                kill(instr.rd)
                out.append(Unary(op=UnaryOp.COPY, rd=instr.rd, ra=src))
            continue
        else:
            kill(instruction_def(instr))
            out.append(instr)
    return out


def eliminate_dead_code(
    instrs: List[Instruction], *, remove_dead_loads: bool = False
) -> List[Instruction]:
    """Drop register ops whose results are never observed.

    A value is observed if it reaches a ``Store`` (directly or through
    later register ops).  ``Load``s are kept by default even when their
    destination is dead — they are part of the priced access trace — unless
    ``remove_dead_loads`` (the level-2 behaviour).
    """
    live = set()  # registers whose *current* value is still needed
    keep = [False] * len(instrs)
    for idx in range(len(instrs) - 1, -1, -1):
        instr = instrs[idx]
        rd = instruction_def(instr)
        if isinstance(instr, Store):
            needed = True
        elif isinstance(instr, Load):
            needed = rd in live or not remove_dead_loads
        else:
            needed = rd in live
        if needed:
            keep[idx] = True
            if rd is not None:
                live.discard(rd)
            live.update(instruction_uses(instr))
    return [instr for idx, instr in enumerate(instrs) if keep[idx]]


def forward_stores(instrs: List[Instruction]) -> List[Instruction]:
    """Store-to-load forwarding: reuse values already in registers.

    Tracks, per memory cell, which register currently holds its value; a
    ``Load`` of such a cell becomes a register ``COPY`` (dropping one
    memory access from the trace).  A register redefinition invalidates the
    cells it backed.
    """
    cell_reg: Dict[int, int] = {}  # address -> register holding its value
    out: List[Instruction] = []
    for instr in instrs:
        if isinstance(instr, Store):
            cell_reg[instr.addr] = instr.rs
            out.append(instr)
            continue
        if isinstance(instr, Load):
            src = cell_reg.get(instr.addr)
            if src is not None:
                if src != instr.rd:
                    out.append(Unary(op=UnaryOp.COPY, rd=instr.rd, ra=src))
                # (src == rd: the value is already there; emit nothing)
            else:
                out.append(instr)
            # after either path, rd holds the cell's value — but first drop
            # cells invalidated by redefining rd
            _invalidate(cell_reg, instr.rd)
            cell_reg[instr.addr] = instr.rd
            continue
        rd = instruction_def(instr)
        if rd is not None:
            _invalidate(cell_reg, rd)
        out.append(instr)
    return out


def _invalidate(cell_reg: Dict[int, int], reg: int) -> None:
    for addr in [a for a, r in cell_reg.items() if r == reg]:
        del cell_reg[addr]


def eliminate_dead_stores(instrs: List[Instruction]) -> List[Instruction]:
    """Drop stores that are overwritten before any read (backward pass).

    The final memory image is observable, so the last store to each cell is
    always kept.
    """
    overwritten: set = set()  # cells whose next event (later in time) is a store
    keep = [True] * len(instrs)
    for idx in range(len(instrs) - 1, -1, -1):
        instr = instrs[idx]
        if isinstance(instr, Store):
            if instr.addr in overwritten:
                keep[idx] = False
            else:
                overwritten.add(instr.addr)
        elif isinstance(instr, Load):
            overwritten.discard(instr.addr)
    return [instr for idx, instr in enumerate(instrs) if keep[idx]]


def optimize(
    program: Program, *, level: int = 1, verify: Optional[bool] = None
) -> Program:
    """Apply the optimisation pipeline; returns a new validated program.

    ``level=1`` preserves the access trace exactly; ``level=2`` may shorten
    it (see the module docstring).  Raises for other levels.

    With ``verify``, the result is *proved* equivalent to the input by the
    symbolic value-numbering checker (:mod:`repro.analysis.lint.equiv`)
    before being returned — every final memory cell must denote the same
    exact function of the initial memory, and at level 1 the access trace
    must additionally be unchanged.  A failed proof raises
    :class:`~repro.errors.EquivalenceError`; the guard turns a silent
    miscompilation into a build-time error.  The default (``None``) follows
    :func:`verify_passes_default` — verification is *on* unless
    ``REPRO_VERIFY_PASSES=0``.
    """
    if verify is None:
        verify = verify_passes_default()
    if level not in (1, 2):
        raise ProgramError(f"unknown optimisation level {level}; expected 1 or 2")
    instrs: List[Instruction] = list(program.instructions)
    # Passes expose opportunities for each other (DCE can orphan a store,
    # forwarding can feed folding, ...), so iterate the pipeline to a
    # fixpoint.  Each round strictly shrinks or is the last, so the loop
    # terminates; the bound is a safety net only.
    for _ in range(len(instrs) + 1):
        before = instrs
        instrs = fold_constants(list(before), program.dtype)
        if level >= 2:
            instrs = forward_stores(instrs)
            instrs = eliminate_dead_stores(instrs)
            instrs = fold_constants(instrs, program.dtype)
        instrs = eliminate_dead_code(instrs, remove_dead_loads=(level >= 2))
        if instrs == before:
            break
    if not instrs:
        # Everything was dead; keep a single no-op so the program stays valid.
        instrs = [Const(rd=0, imm=0.0)]
    optimized = Program(
        instructions=tuple(instrs),
        num_registers=program.num_registers,
        memory_words=program.memory_words,
        dtype=program.dtype,
        name=f"{program.name}+O{level}",
        meta=dict(program.meta),
        outputs=program.outputs,
    )
    optimized.validate()
    if verify:
        # Imported lazily: the linter sits above the trace layer.
        from ..analysis.lint.equiv import prove_equivalent

        prove_equivalent(program, optimized, require_same_trace=(level == 1))
    return optimized
