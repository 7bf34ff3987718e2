"""IR fusion for the NumPy bulk engine — fewer vector passes, same bits.

One NumPy operation per IR instruction is, at large ``p``,
*memory-bandwidth* bound, not dispatch bound: every ``Load``
copies a full length-``p`` row into a register row, every comparison
materialises a 0/1 vector in the program dtype, and every ``Select`` stages
through a scratch vector.  This pass removes those redundant passes at
compile time, exploiting the same property the whole paper rests on: the
program is *straight-line and oblivious*, so every data-flow fact is static.

Rewrites (all exact — outputs are bit-identical to the IR replay,
:mod:`repro.trace.replay`, and the sequential interpreter):

**load elision**
    ``Load rd, a`` binds register ``rd`` to a *view* of memory row ``a``
    instead of copying it; downstream operations read the row in place.  A
    later ``Store`` to ``a`` materialises any live aliasing register first
    (one copy, only when actually needed).

**compare+select fusion**
    a comparison whose only consumer is the condition of a ``Select``
    skips its 0/1 vector in the program dtype entirely: the comparison is
    evaluated straight into the boolean mask buffer at the select site
    (``np.less(a, b, out=mask)``), fusing two passes into one.

**predicated-move strengthening**
    ``Select rd ← (ra if rc else rb)`` with ``rb == rd`` — the paper's own
    ``if r < s then s ← r else s ← s`` idiom — skips the "else" copy; the
    general case runs without the scratch staging vector unless ``rd``
    aliases ``ra``.

**store elision**
    a ``Store`` whose source register still aliases the same memory row is
    a no-op (the value is already there), e.g. straight after forwarding.

**constant re-fill elimination**
    a ``Const`` writing an immediate a register row already holds (from a
    previous fill) is skipped.

The pass first runs the trace-preserving ``level=1`` pipeline of
:mod:`repro.trace.optimize` (constant folding + dead local code), so the
engine also stops paying for register work whose result is never observed.
Memory instructions are never added, dropped or reordered — ``a(i)``, ``t``
and all UMM cost results are untouched; elided loads/stores still *happen*
semantically, they just cost no data movement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import ExecutionError
from ..trace.ir import (
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
from ..trace.ops import BINARY_UFUNCS, UNARY_UFUNCS, BinaryOp, UnaryOp
from ..trace.optimize import (
    eliminate_dead_code,
    fold_constants,
    verify_passes_default,
)
from .arrangement import Arrangement

__all__ = ["FusionStats", "FusedProgram", "compile_fused"]

#: Comparison opcodes whose boolean result can feed a Select mask directly.
_CMP_UFUNCS = {
    BinaryOp.LT: np.less,
    BinaryOp.LE: np.less_equal,
    BinaryOp.GT: np.greater,
    BinaryOp.GE: np.greater_equal,
    BinaryOp.EQ: np.equal,
    BinaryOp.NE: np.not_equal,
}

#: Register location: its own backing row, or an alias of a memory row.
_OWN = -1

#: Lane count above which predicated moves use the bitwise blend instead of
#: ``np.putmask`` (below it the extra ufunc dispatches dominate).
_BLEND_MIN_P = 2048


@dataclass
class FusionStats:
    """What the pass did to one program (for reports and tests)."""

    instructions: int = 0  # after level-1 fold + DCE
    emitted_ops: int = 0  # NumPy calls per run after fusion
    elided_loads: int = 0
    elided_stores: int = 0
    fused_compares: int = 0
    skipped_consts: int = 0
    skipped_copies: int = 0
    materializations: int = 0

    def describe(self) -> str:
        return (
            f"{self.instructions} instrs -> {self.emitted_ops} vector ops "
            f"(loads elided {self.elided_loads}, compares fused "
            f"{self.fused_compares}, stores elided {self.elided_stores}, "
            f"const fills skipped {self.skipped_consts}, "
            f"materializations {self.materializations})"
        )


@dataclass
class FusedProgram:
    """A compiled fused step list bound to one executor's buffers."""

    steps: List[Callable[[], None]]
    stats: FusionStats

    def run(self) -> None:
        for step in self.steps:
            step()


def _next_use_table(instrs: List[Instruction], num_registers: int) -> List[int]:
    """``next_use[i * R + r]`` = index of the first use of ``r`` at or after
    instruction ``i`` *before* ``r`` is redefined, else a sentinel > len.

    "Use at i" counts i's own reads but not its definition, so an entry of
    ``i`` means instruction ``i`` itself reads the incoming value.
    """
    n = len(instrs)
    sentinel = n + 1
    table = [sentinel] * ((n + 1) * num_registers)
    cur = [sentinel] * num_registers
    for i in range(n - 1, -1, -1):
        rd = instruction_def(instrs[i])
        if rd is not None:
            cur[rd] = sentinel  # redefinition kills the incoming value
        for r in instruction_uses(instrs[i]):
            cur[r] = i
        base = i * num_registers
        table[base : base + num_registers] = cur
    return table


def _find_fusible_compares(
    instrs: List[Instruction], num_registers: int, next_use: List[int]
) -> Dict[int, int]:
    """Map select index -> compare index for fusible (compare, select) pairs.

    A pair fuses when the compare's destination is consumed *only* as this
    select's condition and neither compare operand is redefined in between
    (so evaluating the comparison at the select site reads the same values).
    """
    n = len(instrs)
    fused: Dict[int, int] = {}
    last_def: Dict[int, int] = {}  # register -> index of its latest def
    for i, instr in enumerate(instrs):
        if isinstance(instr, Select):
            j = last_def.get(instr.rc)
            if j is None:
                rd = instruction_def(instr)
                if rd is not None:
                    last_def[rd] = i
                continue
            cmp = instrs[j]
            ok = (
                isinstance(cmp, Binary)
                and cmp.op in _CMP_UFUNCS
                and instr.rc not in (instr.ra, instr.rb)
            )
            if ok:
                # rc consumed only here: no use between the compare and the
                # select, and none after the select (before redefinition).
                for k in range(j + 1, i):
                    if instr.rc in instruction_uses(instrs[k]):
                        ok = False
                        break
                if ok and next_use[(i + 1) * num_registers + instr.rc] <= n:
                    ok = False
            if ok:
                # compare operands must still hold their values at i; a
                # store may rebind an *alias*, but materialisation preserves
                # values, so only register redefinitions matter.
                for k in range(j + 1, i):
                    krd = instruction_def(instrs[k])
                    if krd is not None and krd in (cmp.ra, cmp.rb):
                        ok = False
                        break
            if ok:
                fused[i] = j
        rd = instruction_def(instr)
        if rd is not None:
            last_def[rd] = i
    return fused


def compile_fused(
    program: Program,
    arrangement: Arrangement,
    mem: np.ndarray,
    regs: np.ndarray,
    mask: np.ndarray,
    mask2: np.ndarray,
    *,
    optimize_locals: bool = True,
    verify: Optional[bool] = None,
) -> FusedProgram:
    """Compile ``program`` into a fused step list over the given buffers.

    ``mem`` is the arrangement's physical buffer, ``regs`` the
    ``(num_registers, p)`` register file, and ``mask``/``mask2`` boolean
    scratch rows (``mask2`` only used when a select's destination aliases
    its taken arm).  The buffers are captured by the returned closures, so
    the caller must keep reusing the same arrays across runs.

    With ``verify``, the local-cleanup preamble is *proved* equivalent to
    the input program (same final memory, identical access trace) by the
    symbolic checker of :mod:`repro.analysis.lint.equiv` before fusion
    proceeds; a failed proof raises
    :class:`~repro.errors.EquivalenceError`.  The default (``None``)
    follows :func:`~repro.trace.optimize.verify_passes_default` —
    verification is *on* unless ``REPRO_VERIFY_PASSES=0`` — so every
    production executor proves its own preamble.
    """
    if verify is None:
        verify = verify_passes_default()
    instrs: List[Instruction] = list(program.instructions)
    if optimize_locals:
        # Trace-preserving local cleanup (reused from trace.optimize):
        # folding happens in the program dtype, so results stay bit-exact.
        instrs = fold_constants(instrs, program.dtype)
        instrs = eliminate_dead_code(instrs, remove_dead_loads=False)
    if verify:
        # Imported lazily: the linter imports this module via the engine.
        from ..analysis.lint.equiv import prove_equivalent

        prove_equivalent(
            program,
            Program(
                instructions=tuple(instrs),
                num_registers=program.num_registers,
                memory_words=program.memory_words,
                dtype=program.dtype,
                name=f"{program.name}+fused-locals",
            ),
            require_same_trace=True,
        )

    num_registers = program.num_registers
    next_use = _next_use_table(instrs, num_registers)
    fused_cmp = _find_fusible_compares(instrs, num_registers, next_use)
    skip_cmp: Set[int] = set(fused_cmp.values())
    skip_store: Set[int] = set()  # stores folded into a preceding select

    stats = FusionStats(instructions=len(instrs))
    steps: List[Callable[[], None]] = []

    # Predicated moves: ``np.putmask`` walks a branchy scalar loop, but for
    # integer-viewable dtypes the same move is a branch-free bitwise blend
    #     out ^= (src ^ out) * mask          (mask is 0/1, same int width)
    # over same-width integer views — three SIMD passes, and bit-exact by
    # construction (every lane keeps either ``src``'s or ``out``'s exact
    # bits).  The mask producers write the 0/1 integer row directly, so no
    # widening pass is needed.  Below ``_BLEND_MIN_P`` lanes the extra ufunc
    # dispatches cost more than putmask's scalar loop saves.
    dtype = mem.dtype
    p_lanes = mask.shape[0]
    blendable = (
        dtype.kind in "fiu"
        and dtype.itemsize in (1, 2, 4, 8)
        and p_lanes >= _BLEND_MIN_P
    )
    if blendable:
        ibits = np.dtype(f"i{dtype.itemsize}")
        sel_mask: np.ndarray = np.empty(p_lanes, dtype=ibits)
        t_int = np.empty(p_lanes, dtype=ibits)
    else:
        sel_mask = mask

    def store_fuse_row(i: int, rd: int) -> Optional[np.ndarray]:
        """The memory row to write ``rd``'s value into directly, when the
        next instruction stores ``rd`` and the register is dead after: the
        producing op then writes the row itself and the store disappears."""
        nxt = instrs[i + 1] if i + 1 < len(instrs) else None
        if (
            isinstance(nxt, Store)
            and nxt.rs == rd
            and next_use[(i + 2) * num_registers + rd] > len(instrs)
        ):
            return mem_row(nxt.addr)
        return None

    def emit_move_where(
        out: np.ndarray,
        src: np.ndarray,
        invert: bool,
        final_out: Optional[np.ndarray] = None,
    ) -> None:
        """Emit ``out[lane] = src[lane]`` where ``sel_mask`` (or its inverse).

        ``final_out`` (blend path only) redirects the last pass's result to
        another same-shape array — used to fuse a following ``Store`` by
        writing the memory row directly instead of the register.
        """
        if blendable:
            ov, sv = out.view(ibits), src.view(ibits)
            tgt = ov if final_out is None else final_out.view(ibits)
            if invert:
                # mask - 1 is -1 (all ones) exactly where the mask is 0.
                def do_sel_inv(ov=ov, sv=sv, tgt=tgt) -> None:
                    np.subtract(sel_mask, 1, out=sel_mask)
                    np.bitwise_xor(sv, ov, out=t_int)
                    np.bitwise_and(t_int, sel_mask, out=t_int)
                    np.bitwise_xor(ov, t_int, out=tgt)

                emit(do_sel_inv)
            else:
                def do_sel_keep(ov=ov, sv=sv, tgt=tgt) -> None:
                    np.bitwise_xor(sv, ov, out=t_int)
                    np.multiply(t_int, sel_mask, out=t_int)
                    np.bitwise_xor(ov, t_int, out=tgt)

                emit(do_sel_keep)
        elif invert:
            def do_sel_inv_pm(out=out, src=src) -> None:
                np.logical_not(sel_mask, out=mask2)
                np.putmask(out, mask2, src)

            emit(do_sel_inv_pm)
        else:
            def do_sel_keep_pm(out=out, src=src) -> None:
                np.putmask(out, sel_mask, src)

            emit(do_sel_keep_pm)

    # -- symbolic state --------------------------------------------------------
    loc = [_OWN] * num_registers  # _OWN or the aliased memory address
    const_val: List[Optional[float]] = [None] * num_registers
    aliases: Dict[int, Set[int]] = {}  # address -> registers aliasing it

    def mem_row(addr: int) -> Optional[np.ndarray]:
        return arrangement.step_view(mem, addr)

    can_alias = mem_row(0) is not None

    def view(r: int) -> np.ndarray:
        """The array currently holding register ``r``'s value."""
        if loc[r] == _OWN:
            return regs[r]
        row = mem_row(loc[r])
        assert row is not None
        return row

    def storage_key(r: int) -> Tuple[str, int]:
        """Identity of the storage backing ``r`` (views are fresh objects
        each call, so ``is`` cannot detect aliasing — keys can)."""
        return ("own", r) if loc[r] == _OWN else ("mem", loc[r])

    def unbind(r: int) -> None:
        """Forget ``r``'s alias (it is about to be redefined)."""
        if loc[r] != _OWN:
            aliases.get(loc[r], set()).discard(r)
            loc[r] = _OWN
        const_val[r] = None

    def bind_alias(r: int, addr: int) -> None:
        unbind(r)
        loc[r] = addr
        aliases.setdefault(addr, set()).add(r)

    def emit(fn: Callable[[], None]) -> None:
        steps.append(fn)
        stats.emitted_ops += 1

    def materialize_aliases(addr: int, i: int, keep: Optional[int] = None) -> None:
        """Copy live registers aliasing ``addr`` into their own rows before
        the row is overwritten.  ``keep`` (the store source) may stay
        aliased — its value is exactly what the row is about to hold."""
        for r in sorted(aliases.get(addr, ())):
            if r == keep:
                continue
            if next_use[i * num_registers + r] <= len(instrs):
                row = mem_row(addr)
                own = regs[r]

                def do_mat(own=own, row=row) -> None:
                    np.copyto(own, row)

                emit(do_mat)
                stats.materializations += 1
            loc[r] = _OWN
            const_val[r] = None
        aliases.pop(addr, None)

    # -- instruction walk ------------------------------------------------------
    for i, instr in enumerate(instrs):
        if isinstance(instr, Const):
            prev = const_val[instr.rd]
            if (
                loc[instr.rd] == _OWN
                and prev is not None
                # repr-equality keeps the skip bit-exact (0.0 vs -0.0).
                and prev == instr.imm
                and repr(prev) == repr(instr.imm)
            ):
                stats.skipped_consts += 1
                continue
            unbind(instr.rd)
            out = regs[instr.rd]
            imm = instr.imm

            def do_const(out=out, imm=imm) -> None:
                out.fill(imm)

            emit(do_const)
            const_val[instr.rd] = imm

        elif isinstance(instr, Load):
            if can_alias:
                bind_alias(instr.rd, instr.addr)
                stats.elided_loads += 1
            else:  # pragma: no cover - all shipped arrangements expose views
                unbind(instr.rd)
                out = regs[instr.rd]
                addr = instr.addr

                def do_load(out=out, addr=addr) -> None:
                    arrangement.read_step(mem, addr, out)

                emit(do_load)

        elif isinstance(instr, Store):
            if i in skip_store:
                continue
            if loc[instr.rs] == instr.addr:
                # The source register aliases this very row: storing it
                # back is a no-op and invalidates nothing.
                stats.elided_stores += 1
                continue
            materialize_aliases(instr.addr, i, keep=None)
            src = view(instr.rs)
            row = mem_row(instr.addr)
            if row is not None:

                def do_store(row=row, src=src) -> None:
                    np.copyto(row, src)

                emit(do_store)
            else:  # pragma: no cover - view-less arrangement fallback
                addr = instr.addr

                def do_store_generic(addr=addr, src=src) -> None:
                    arrangement.write_step(mem, addr, src)

                emit(do_store_generic)
            # After the write the source's value *is* the row's value.
            if can_alias:
                bind_alias(instr.rs, instr.addr)

        elif isinstance(instr, Binary):
            if i in skip_cmp:
                # Folded into the select's mask computation downstream; the
                # 0/1 vector in the program dtype is never materialised.
                unbind(instr.rd)
                continue
            fn = BINARY_UFUNCS[instr.op]
            # A following Store of an otherwise-dead result lets the ufunc
            # write the memory row directly (OPT's `add; store` hot pattern).
            row = store_fuse_row(i, instr.rd)
            if row is not None:
                materialize_aliases(instrs[i + 1].addr, i, keep=None)
            a, b = view(instr.ra), view(instr.rb)
            unbind(instr.rd)
            out = regs[instr.rd] if row is None else row

            def do_bin(fn=fn, a=a, b=b, out=out) -> None:
                fn(a, b, out=out)

            emit(do_bin)
            if row is not None:
                skip_store.add(i + 1)
                stats.elided_stores += 1
                bind_alias(instr.rd, instrs[i + 1].addr)

        elif isinstance(instr, Unary):
            if instr.op is UnaryOp.COPY:
                if loc[instr.ra] != _OWN and instr.ra != instr.rd:
                    # Copy of an aliased row: propagate the alias.
                    bind_alias(instr.rd, loc[instr.ra])
                    stats.skipped_copies += 1
                    continue
                if instr.ra == instr.rd and loc[instr.rd] == _OWN:
                    stats.skipped_copies += 1
                    continue
                src = view(instr.ra)
                unbind(instr.rd)
                out = regs[instr.rd]

                def do_copy(out=out, src=src) -> None:
                    np.copyto(out, src)

                emit(do_copy)
                continue
            fn = UNARY_UFUNCS[instr.op]
            row = store_fuse_row(i, instr.rd)
            if row is not None:
                materialize_aliases(instrs[i + 1].addr, i, keep=None)
            a = view(instr.ra)
            unbind(instr.rd)
            out = regs[instr.rd] if row is None else row

            def do_un(fn=fn, a=a, out=out) -> None:
                fn(a, out=out)

            emit(do_un)
            if row is not None:
                skip_store.add(i + 1)
                stats.elided_stores += 1
                bind_alias(instr.rd, instrs[i + 1].addr)

        elif isinstance(instr, Select):
            # 1. The boolean mask.
            cmp_idx = fused_cmp.get(i)
            if cmp_idx is not None:
                cmp = instrs[cmp_idx]
                assert isinstance(cmp, Binary)
                cfn = _CMP_UFUNCS[cmp.op]
                ca, cb = view(cmp.ra), view(cmp.rb)

                def do_mask(cfn=cfn, ca=ca, cb=cb) -> None:
                    cfn(ca, cb, out=sel_mask)

                emit(do_mask)
                stats.fused_compares += 1
            else:
                c = view(instr.rc)

                def do_mask_ne(c=c) -> None:
                    np.not_equal(c, 0, out=sel_mask)

                emit(do_mask_ne)

            # 2. A following Store of this select's (otherwise dead) result
            #    can absorb the blend's final pass: the row is written
            #    directly and the register write is skipped entirely.
            store_row = store_fuse_row(i, instr.rd) if blendable else None
            if store_row is not None:
                materialize_aliases(instrs[i + 1].addr, i, keep=None)

            # 3. The predicated move, avoiding the scratch vector whenever
            #    the destination does not alias the taken arm.
            a, b = view(instr.ra), view(instr.rb)
            ka, kb = storage_key(instr.ra), storage_key(instr.rb)
            unbind(instr.rd)
            out = regs[instr.rd]
            kout = ("own", instr.rd)
            if ka == kb:
                if store_row is not None:

                    def do_sel_same_store(row=store_row, a=a) -> None:
                        np.copyto(row, a)

                    emit(do_sel_same_store)
                elif ka != kout:

                    def do_sel_same(out=out, a=a) -> None:
                        np.copyto(out, a)

                    emit(do_sel_same)
            elif kb == kout:
                # The paper's `if r < s then s <- r else s <- s`: the else
                # arm is already in place, only the taken lanes move.
                emit_move_where(out, a, invert=False, final_out=store_row)
            elif ka == kout:
                emit_move_where(out, b, invert=True, final_out=store_row)
            else:

                def do_sel_copy(out=out, b=b) -> None:
                    np.copyto(out, b)

                emit(do_sel_copy)
                emit_move_where(out, a, invert=False, final_out=store_row)
            if store_row is not None:
                skip_store.add(i + 1)
                stats.elided_stores += 1
                # The register's value lives only in the row now; keep the
                # alias so any (dead-path) reader resolves to the row.
                bind_alias(instr.rd, instrs[i + 1].addr)

        else:  # pragma: no cover - unreachable with a validated program
            raise ExecutionError(f"unknown instruction: {instr!r}")

    return FusedProgram(steps=steps, stats=stats)
