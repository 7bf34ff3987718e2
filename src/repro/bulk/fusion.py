"""IR fusion for the NumPy bulk engine — fewer NumPy calls, same bits.

One NumPy call per IR instruction pays two taxes.  At large ``p`` it is
*memory-bandwidth* bound: every ``Load`` copies a full length-``p`` row,
every comparison materialises a 0/1 vector, every ``Select`` stages
through a scratch vector.  At serving sizes it is *dispatch* bound: a call
costs a fixed few hundred nanoseconds however few lanes it touches, so
OPT n=32 at ``p = 32`` spends almost all of its time entering 15k calls.
This pass removes both at compile time, exploiting the property the whole
paper rests on: the program is *straight-line and oblivious*, so every
data-flow fact is static.

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
    a no-op (the value is already there), and a ``Store`` of a value
    nothing else reads is absorbed by its producer, which writes the row.

**constant re-fill elimination**
    a ``Const`` writing an immediate a register row already holds (from a
    previous fill) is skipped.

**wide steps**
    independent isomorphic instructions run as *one* call over a
    ``(k, p)`` block.  The straight-line program is renamed to values and
    list-scheduled by dependence level (loads after the store they read,
    stores after every reader of the word they overwrite and after the
    previous store to it); same-shaped instructions at one level form a
    group, and each group's results get consecutive register rows in
    member order, so the next level's operands are row slices of a block
    — or strided slices of memory, since oblivious programs address it in
    arithmetic progressions.  Each maximal run of members whose operands
    are such slices runs as one call per block of at most
    ``_WIDE_BLOCK_BYTES``; the rest run one by one.  Rows longer than
    ``_WIDE_MAX_ROW_BYTES`` (64-bit words: ``p > 2048``), where a call's
    fixed cost is small next to its row work, run the program-order step
    list, call for call.

The program and its access trace are unchanged: wide steps change the
*execution order* only, to a schedule that respects every data and memory
dependence, and the renamed schedule is itself proved equivalent to the
program.  ``a(i)``, ``t`` and all UMM cost results are untouched; elided
loads/stores still *happen* semantically, they just cost no data movement.

The pass is split in two.  :func:`fusion_plan` is lane-independent and
built once per program object: the trace-preserving ``level=1`` cleanup of
:mod:`repro.trace.optimize` (constant folding + dead local code) and its
equivalence proof, the use tables, the fusible compares, the schedule and
both lowerings to buffer-free ops.  :func:`compile_fused` then binds a
plan to one executor's buffers, which is cheap: every lane count an
executor cache holds shares one plan.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ExecutionError
from ..trace.ir import (
    Binary,
    Const,
    Instruction,
    Load,
    PerProgram,
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

__all__ = [
    "FusionPlan",
    "FusionStats",
    "FusedProgram",
    "compile_fused",
    "fusion_plan",
]

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

#: Largest ``(k, p)`` operand block one wide call may span, so a level's
#: blocks stay cache-resident between the calls that make and consume them.
_WIDE_BLOCK_BYTES = 64 * 1024

#: Longest row that goes wide.  On OPT n=32 (64-bit words, 2-vCPU Xeon,
#: alternating fresh-process pairs of ``run_trimmed``) the wide steps beat
#: the program-order step list in every pair up to ``p = 1024`` and in 18
#: of 24 at ``p = 2048``, but in only 6 of 14 at ``p = 4096``, with a
#: slower median: there a call's fixed cost is a few percent of its row
#: work.  Longer rows run the program-order step list, call for call.
_WIDE_MAX_ROW_BYTES = 16 * 1024

# Buffer-free ops: ``(head, refs)``.  A ref names a row: register ``r`` as
# ``r >= 0``, memory word ``a`` as ``~a``.  Heads:
#   (_FILL, imm)                 refs (out,)          out.fill(imm)
#   (_COPY,)                     refs (out, src)      np.copyto(out, src)
#   (_UFUNC, fn)                 refs (out, a[, b])   fn(a[, b], out=out)
#   (_MASK, fn, has_b)           refs (a[, b])        fn(a, b or 0, out=mask)
#   (_MOVE, invert, has_final)   refs (out, src[, final])
#       out[mask] = src (``invert``: where the mask is clear), written to
#       ``final`` instead of ``out`` when given.
_FILL, _COPY, _UFUNC, _MASK, _MOVE = range(5)

#: Ref positions each op kind writes (a MOVE's out is read as well).
_OUTPUTS = {_FILL: (0,), _COPY: (0,), _UFUNC: (0,), _MASK: ()}


def _op_outputs(head: tuple) -> Tuple[int, ...]:
    if head[0] == _MOVE:
        return (0, 2) if head[2] else (0,)
    return _OUTPUTS[head[0]]


@dataclass
class FusionStats:
    """What the pass did to one program at one ``p`` (reports and tests)."""

    instructions: int = 0  # after level-1 fold + DCE
    emitted_ops: int = 0  # NumPy calls per run after fusion
    elided_loads: int = 0
    elided_stores: int = 0
    fused_compares: int = 0
    skipped_consts: int = 0
    skipped_copies: int = 0
    materializations: int = 0
    wide_groups: int = 0  # groups run as (k, p) block calls, per chunk
    widest: int = 0  # largest k

    def describe(self) -> str:
        text = (
            f"{self.instructions} instrs -> {self.emitted_ops} vector ops "
            f"(loads elided {self.elided_loads}, compares fused "
            f"{self.fused_compares}, stores elided {self.elided_stores}, "
            f"const fills skipped {self.skipped_consts}, "
            f"materializations {self.materializations})"
        )
        if self.wide_groups:
            text += f"; {self.wide_groups} wide groups, widest {self.widest}"
        return text


@dataclass
class FusedProgram:
    """A compiled fused step list bound to one executor's buffers."""

    steps: List[Callable[[], None]]
    stats: FusionStats
    zero_rows: Tuple[np.ndarray, ...] = ()

    def run(self) -> None:
        for row in self.zero_rows:  # registers read before any write
            row.fill(0)
        for step in self.steps:
            step()


# -- use facts -----------------------------------------------------------------

def _use_facts(
    instrs: Sequence[Instruction], num_registers: int
) -> Tuple[List[int], Dict[int, int]]:
    """``(last_use, fused)`` — the next-use table and fusible compares of
    ``instrs``.

    Values are numbered by the instruction defining them; register ``r``'s
    initial zero is value ``n + r``.  ``last_use[v]`` is the index of the
    last instruction reading ``v`` (-1: never read).  ``fused`` maps a
    select's index to its compare's: a pair fuses when the compare's value
    is read *only* as this select's condition and both compare operands
    still hold the same values at the select (so evaluating the comparison
    there reads what it read).
    """
    n = len(instrs)
    cur = list(range(n, n + num_registers))
    last = [-1] * (n + num_registers)
    count = [0] * (n + num_registers)
    cmp_operands: Dict[int, Tuple[int, int]] = {}
    selects: List[Tuple[int, int]] = []
    for i, instr in enumerate(instrs):
        kind = type(instr)
        if kind is Binary:
            used = (cur[instr.ra], cur[instr.rb])
            if instr.op in _CMP_UFUNCS:
                cmp_operands[i] = used
        elif kind is Select:
            used = (cur[instr.rc], cur[instr.ra], cur[instr.rb])
            if instr.rc not in (instr.ra, instr.rb):
                selects.append((i, used[0]))
        elif kind is Unary:
            used = (cur[instr.ra],)
        elif kind is Store:
            used = (cur[instr.rs],)
        else:
            used = ()
        for v in used:
            last[v] = i
            count[v] += 1
        if kind is not Store:
            cur[instr.rd] = i
    fused: Dict[int, int] = {}
    if selects:
        # Operand values at each select: a second pass replays ``cur``.
        want = {
            i: j for i, j in selects if j in cmp_operands and count[j] == 1
        }
        cur = list(range(n, n + num_registers))
        for i, instr in enumerate(instrs):
            j = want.get(i)
            if j is not None:
                cmp = instrs[j]
                if (cur[cmp.ra], cur[cmp.rb]) == cmp_operands[j]:
                    fused[i] = j
            if type(instr) is not Store:
                cur[instr.rd] = i
    return last, fused


# -- lowering: instructions -> buffer-free ops ---------------------------------

@dataclass
class _Lowered:
    """A straight-line instruction list lowered to buffer-free ops.

    ``ops[starts[i]:starts[i + 1]]`` are instruction ``i``'s ops."""

    ops: List[tuple]
    starts: List[int]
    num_registers: int
    zero_rows: Tuple[int, ...]
    stats: FusionStats  # what no lane count changes


def _lower(
    instrs: Sequence[Instruction], num_registers: int, *, rebind: bool = True
) -> _Lowered:
    """Walk ``instrs`` with the alias state machine of the rewrites above.

    ``rebind`` lets a stored register alias the row it was stored to.  A
    renamed schedule keeps every value in its own row instead: there the
    rebind would only tie a group's members to each other's rows (a value
    stored by several members would be read from the previous member's
    row) and cost materialisations when the row is overwritten."""
    n = len(instrs)
    last, fused_cmp = _use_facts(instrs, num_registers)
    skip_cmp: Set[int] = set(fused_cmp.values())
    skip_store: Set[int] = set()  # stores folded into their producer
    stats = FusionStats(instructions=n)
    ops: List[tuple] = []
    starts: List[int] = []

    loc = [_OWN] * num_registers  # _OWN or the aliased memory address
    const_val: List[Optional[float]] = [None] * num_registers
    aliases: Dict[int, Set[int]] = {}  # address -> registers aliasing it
    cur = list(range(n, n + num_registers))  # value each register holds
    zero_rows = sorted(
        {r for r in range(num_registers) if last[n + r] >= 0}
    )

    def ref(r: int) -> int:
        return r if loc[r] == _OWN else ~loc[r]

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

    def store_fuse_addr(i: int, rd: int) -> Optional[int]:
        """The address whose row takes ``rd``'s value directly, when the
        next instruction stores ``rd`` and nothing reads it after: the
        producing op then writes the row and the store disappears."""
        nxt = instrs[i + 1] if i + 1 < n else None
        if isinstance(nxt, Store) and nxt.rs == rd and last[i] <= i + 1:
            return nxt.addr
        return None

    def materialize(addr: int, i: int) -> None:
        """Copy live registers aliasing ``addr`` into their own rows before
        the row is overwritten."""
        for r in sorted(aliases.get(addr, ())):
            if last[cur[r]] >= i:
                ops.append(((_COPY,), (r, ~addr)))
                stats.materializations += 1
            loc[r] = _OWN
            const_val[r] = None
        aliases.pop(addr, None)

    def fuse_store(i: int, rd: int) -> None:
        skip_store.add(i + 1)
        stats.elided_stores += 1
        # The register's value lives only in the row now; keep the alias
        # so any (dead-path) reader resolves to the row.
        bind_alias(rd, instrs[i + 1].addr)

    for i, instr in enumerate(instrs):
        starts.append(len(ops))
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
            else:
                unbind(instr.rd)
                ops.append(((_FILL, instr.imm), (instr.rd,)))
                const_val[instr.rd] = instr.imm

        elif isinstance(instr, Load):
            bind_alias(instr.rd, instr.addr)
            stats.elided_loads += 1

        elif isinstance(instr, Store):
            if i in skip_store:
                pass
            elif loc[instr.rs] == instr.addr:
                # The source register aliases this very row: storing it
                # back is a no-op and invalidates nothing.
                stats.elided_stores += 1
            else:
                materialize(instr.addr, i)
                ops.append(((_COPY,), (~instr.addr, ref(instr.rs))))
                if rebind:
                    # After the write the source's value *is* the row's.
                    bind_alias(instr.rs, instr.addr)

        elif isinstance(instr, Binary):
            if i in skip_cmp:
                # Folded into the select's mask computation downstream; the
                # 0/1 vector in the program dtype is never materialised.
                unbind(instr.rd)
            else:
                # A following Store of an otherwise-dead result lets the
                # ufunc write the memory row directly (OPT's `add; store`).
                addr = store_fuse_addr(i, instr.rd)
                if addr is not None:
                    materialize(addr, i)
                a, b = ref(instr.ra), ref(instr.rb)
                unbind(instr.rd)
                out = instr.rd if addr is None else ~addr
                ops.append(((_UFUNC, BINARY_UFUNCS[instr.op]), (out, a, b)))
                if addr is not None:
                    fuse_store(i, instr.rd)

        elif isinstance(instr, Unary):
            if instr.op is UnaryOp.COPY:
                if loc[instr.ra] != _OWN and instr.ra != instr.rd:
                    # Copy of an aliased row: propagate the alias.
                    bind_alias(instr.rd, loc[instr.ra])
                    stats.skipped_copies += 1
                elif instr.ra == instr.rd and loc[instr.rd] == _OWN:
                    stats.skipped_copies += 1
                else:
                    src = ref(instr.ra)
                    unbind(instr.rd)
                    ops.append(((_COPY,), (instr.rd, src)))
            else:
                addr = store_fuse_addr(i, instr.rd)
                if addr is not None:
                    materialize(addr, i)
                a = ref(instr.ra)
                unbind(instr.rd)
                out = instr.rd if addr is None else ~addr
                ops.append(((_UFUNC, UNARY_UFUNCS[instr.op]), (out, a)))
                if addr is not None:
                    fuse_store(i, instr.rd)

        elif isinstance(instr, Select):
            # 1. The boolean mask.
            cmp_idx = fused_cmp.get(i)
            if cmp_idx is not None:
                cmp = instrs[cmp_idx]
                ops.append((
                    (_MASK, _CMP_UFUNCS[cmp.op], True),
                    (ref(cmp.ra), ref(cmp.rb)),
                ))
                stats.fused_compares += 1
            else:
                ops.append(((_MASK, np.not_equal, False), (ref(instr.rc),)))

            # 2. A following Store of this select's (otherwise dead) result
            #    takes the move's final write: the row is written directly
            #    and the register write is skipped.
            addr = store_fuse_addr(i, instr.rd)
            if addr is not None:
                materialize(addr, i)

            # 3. The predicated move, avoiding the scratch vector whenever
            #    the destination does not alias the taken arm.
            a, b = ref(instr.ra), ref(instr.rb)
            unbind(instr.rd)
            out = instr.rd
            tail = () if addr is None else (~addr,)
            if a == b:
                if addr is not None:
                    ops.append(((_COPY,), (~addr, a)))
                elif a != out:
                    ops.append(((_COPY,), (out, a)))
            elif b == out:
                # The paper's `if r < s then s <- r else s <- s`: the else
                # arm is already in place, only the taken lanes move.
                ops.append(((_MOVE, False, bool(tail)), (out, a) + tail))
            elif a == out:
                ops.append(((_MOVE, True, bool(tail)), (out, b) + tail))
            else:
                ops.append(((_COPY,), (out, b)))
                ops.append(((_MOVE, False, bool(tail)), (out, a) + tail))
            if addr is not None:
                fuse_store(i, instr.rd)

        else:  # pragma: no cover - unreachable with a validated program
            raise ExecutionError(f"unknown instruction: {instr!r}")
        rd = instruction_def(instr)
        if rd is not None:
            cur[rd] = i
    starts.append(len(ops))
    return _Lowered(ops, starts, num_registers, tuple(zero_rows), stats)


# -- the schedule: values, dependence levels, groups ---------------------------

def _shape(instr: Instruction) -> tuple:
    if isinstance(instr, Binary):
        return ("B", instr.op)
    if isinstance(instr, Unary):
        return ("U", instr.op)
    if isinstance(instr, Const):
        return ("C", repr(instr.imm))
    return (type(instr).__name__,)


@dataclass
class _Schedule:
    """The program renamed and reordered by dependence level.

    ``groups`` lists, per group of ``k >= 2`` same-shaped independent
    nodes, each member's ``[start, stop)`` span of ``instructions``."""

    instructions: List[Instruction]
    num_registers: int
    groups: List[List[Tuple[int, int]]]


def _schedule(
    instrs: Sequence[Instruction], num_registers: int
) -> Optional[_Schedule]:
    """List-schedule ``instrs`` by dependence level; ``None`` when no level
    holds two same-shaped nodes (nothing could ever go wide).

    Values are numbered as in :func:`_use_facts`; a ``COPY`` renames its
    operand's value.  A node is one instruction, plus the compare whose
    only reader is its select's condition and the store that is the only
    reader of its result (the fusions :func:`_lower` applies to adjacent
    instructions).  A load that every reader consumes before the next
    store to its word is no node: it is emitted, as a free alias, before
    its first reader, and the readers order against the stores; the other
    (*pinned*) loads are nodes of their own.
    """
    n = len(instrs)
    cur = list(range(n, n + num_registers))
    operands: List[Tuple[int, ...]] = [()] * n
    last = [-1] * (n + num_registers)
    count = [0] * (n + num_registers)
    for i, instr in enumerate(instrs):
        if isinstance(instr, Unary) and instr.op is UnaryOp.COPY:
            cur[instr.rd] = cur[instr.ra]
            continue
        vals = tuple(cur[r] for r in instruction_uses(instr))
        operands[i] = vals
        for v in vals:
            last[v] = i
            count[v] += 1
        rd = instruction_def(instr)
        if rd is not None:
            cur[rd] = i

    pinned = [False] * n
    next_store: Dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        instr = instrs[i]
        if isinstance(instr, Store):
            next_store[instr.addr] = i
        elif isinstance(instr, Load):
            pinned[i] = last[i] > next_store.get(instr.addr, n)

    # -- nodes and their dependences (every edge points forward) --------------
    node_of = [-1] * n
    nodes: List[List[int]] = []
    deps: List[Set[int]] = []
    sealed: List[bool] = []
    last_store: Dict[int, int] = {}  # address -> node of its latest store
    readers: Dict[int, List[int]] = {}  # address -> nodes reading that store
    load_store: Dict[int, int] = {}  # alias load -> node of the store it reads
    compute = (Binary, Unary, Select)
    for i, instr in enumerate(instrs):
        if isinstance(instr, Unary) and instr.op is UnaryOp.COPY:
            continue
        if isinstance(instr, Load):
            if last[i] < 0:
                continue  # never read: nothing to run
            s = last_store.get(instr.addr, -1)
            if not pinned[i]:
                load_store[i] = s
                continue
        node = -1
        vals = operands[i]
        if isinstance(instr, Store):
            v = vals[0]
            if (
                v < n and count[v] == 1 and isinstance(instrs[v], compute)
                and nodes[node_of[v]][-1] == v
            ):
                node = node_of[v]
        elif isinstance(instr, Select):
            c = vals[0]
            if (
                c < n and count[c] == 1 and isinstance(instrs[c], Binary)
                and instrs[c].op in _CMP_UFUNCS
                and nodes[node_of[c]] == [c]
            ):
                node = node_of[c]
        if node < 0 or sealed[node]:
            node = len(nodes)
            nodes.append([])
            deps.append(set())
            sealed.append(False)
        nodes[node].append(i)
        node_of[i] = node
        d: Set[int] = set()
        for v in vals:
            if v >= n:
                continue
            if v in load_store:
                if load_store[v] >= 0:
                    d.add(load_store[v])
                readers.setdefault(instrs[v].addr, []).append(node)
            else:
                d.add(node_of[v])
        if isinstance(instr, Load):
            if s >= 0:
                d.add(s)
            readers.setdefault(instr.addr, []).append(node)
        elif isinstance(instr, Store):
            d.update(readers.pop(instr.addr, ()))
            prev = last_store.get(instr.addr)
            if prev is not None:
                d.add(prev)
            last_store[instr.addr] = node
        d.discard(node)
        deps[node] |= d
        for x in d:
            # A node something depends on takes no more instructions, so
            # every edge runs from a smaller last instruction to a larger.
            sealed[x] = True

    # -- levels: as soon as possible, then sunk towards the first reader ------
    order = sorted(range(len(nodes)), key=lambda k: nodes[k][-1])
    level = [0] * len(nodes)
    dependents: List[List[int]] = [[] for _ in nodes]
    for k in order:
        lv = 0
        for d in deps[k]:
            dependents[d].append(k)
            if level[d] >= lv:
                lv = level[d] + 1
        level[k] = lv
    for k in reversed(order):
        # A node feeding one other node runs just before it (an operand
        # made early would hold a row for nothing); the rest stay as soon
        # as possible, which keeps equal-length chains in step.
        if len(dependents[k]) == 1:
            level[k] = level[dependents[k][0]] - 1

    buckets: Dict[tuple, List[int]] = {}
    for k in range(len(nodes)):  # node ids follow program order
        key = (level[k], tuple(_shape(instrs[i]) for i in nodes[k]))
        buckets.setdefault(key, []).append(k)
    if all(len(members) < 2 for members in buckets.values()):
        return None
    emission = sorted(
        buckets.items(), key=lambda kv: (kv[0][0], nodes[kv[1][0]][0])
    )

    # -- renaming onto register rows, each group's results consecutive --------
    last_at = [-1] * (n + num_registers)  # value -> last reading position
    for t, (_, members) in enumerate(emission):
        for k in members:
            for i in nodes[k]:
                for v in operands[i]:
                    last_at[v] = t
    free = bytearray()  # free[r] == 1: row r holds nothing live
    reg_of = [-1] * (n + num_registers)
    # Every initial register value reads one row of zeros.  It is never
    # freed, so no result lands in it and the lowering zeroes it per run.
    zero_reg = -1
    if any(v >= n for vals in operands for v in vals):
        zero_reg = len(free)
        free.extend(b"\x00")

    def alloc(k: int) -> int:
        j = free.find(b"\x01" * k)
        if j < 0:
            j = len(free.rstrip(b"\x01"))
            free.extend(b"\x00" * (j + k - len(free)))
        free[j:j + k] = b"\x00" * k
        return j

    def reg(v: int) -> int:
        return reg_of[v] if v < n else zero_reg

    out: List[Instruction] = []
    groups: List[List[Tuple[int, int]]] = []
    for t, ((_, shape), members) in enumerate(emission):
        k = len(members)
        users: Dict[int, int] = {}  # value -> the member reading it, or -1
        for m in members:
            for i in nodes[m]:
                for v in operands[i]:
                    users[v] = m if users.get(v, m) == m else -1
        kept: Set[int] = set()  # dying operand rows reused in place
        for j in range(len(shape)):
            idx = [nodes[m][j] for m in members]
            if isinstance(instrs[idx[0]], Store):
                continue
            if isinstance(instrs[idx[0]], Select):
                # The paper's predicated move writes its else arm's row
                # when that value dies here: `s <- r if r < s else s`.
                rbs = [operands[i][2] for i in idx]
                rows = [reg_of[v] if v < n else -1 for v in rbs]
                step = rows[1] - rows[0] if k > 1 else 1
                if all(
                    v < n and last_at[v] == t and users[v] == m
                    and rows[x] >= 0 and rows[x] == rows[0] + x * step
                    for x, (m, v) in enumerate(zip(members, rbs))
                ) and step != 0:
                    for i, v in zip(idx, rbs):
                        reg_of[i] = reg_of[v]
                        kept.add(v)
                    continue
            base = alloc(k)
            for x, i in enumerate(idx):
                reg_of[i] = base + x
        spans = []
        for m in members:
            start = len(out)
            for i in nodes[m]:
                instr = instrs[i]
                for v in operands[i]:
                    if v in load_store and reg_of[v] < 0:
                        reg_of[v] = alloc(1)
                        out.append(Load(reg_of[v], instrs[v].addr))
                rs = [reg(v) for v in operands[i]]
                if isinstance(instr, Store):
                    out.append(Store(instr.addr, rs[0]))
                elif isinstance(instr, Binary):
                    out.append(Binary(instr.op, reg_of[i], rs[0], rs[1]))
                elif isinstance(instr, Unary):
                    out.append(Unary(instr.op, reg_of[i], rs[0]))
                elif isinstance(instr, Select):
                    out.append(Select(reg_of[i], rs[0], rs[1], rs[2]))
                elif isinstance(instr, Const):
                    out.append(Const(reg_of[i], instr.imm))
                else:
                    out.append(Load(reg_of[i], instr.addr))
            spans.append((start, len(out)))
        if k > 1:
            groups.append(spans)
        for v in users:
            if v < n and last_at[v] == t and v not in kept:
                free[reg_of[v]] = 1
        for m in members:
            for i in nodes[m]:
                if reg_of[i] >= 0 and last_at[i] <= t:
                    free[reg_of[i]] = 1
    return _Schedule(out, len(free), groups)


# -- the plan ------------------------------------------------------------------

@dataclass
class _Group:
    """One group of the scheduled form, zipped into wide ops.

    ``ops[j]`` is member ``j``'s op list; ``heads`` their common heads;
    ``flat[j]`` member ``j``'s refs in op order.  ``runs`` are maximal
    member ranges whose every ref forms an arithmetic progression (row
    slices) and in which no member touches a row another one writes."""

    first: int  # first op of the group in the scheduled lowering
    stop: int
    ops: List[List[tuple]]
    heads: Tuple[tuple, ...]
    flat: List[Tuple[int, ...]]
    outputs: Tuple[bool, ...]  # per flat position: written by its op
    runs: List[Tuple[int, int]]


def _zip_group(lowered: _Lowered, spans: List[Tuple[int, int]]) -> Optional[_Group]:
    starts = lowered.starts
    ops = [lowered.ops[starts[s]:starts[e]] for s, e in spans]
    heads = tuple(op[0] for op in ops[0])
    if not heads or any(
        tuple(op[0] for op in member) != heads for member in ops[1:]
    ):
        return None
    outputs: List[bool] = []
    for head, refs in ops[0]:
        written = _op_outputs(head)
        outputs.extend(x in written for x in range(len(refs)))
    flat = [tuple(x for op in member for x in op[1]) for member in ops]
    k = len(flat)
    # Members run op by op, all of them at once, so none may touch a row
    # another one writes (the lowering's alias state can tie members that
    # the schedule found independent).
    writes = [{x for x, w in zip(f, outputs) if w} for f in flat]
    touches = [set(f) for f in flat]
    runs = []
    lo = 0
    while lo < k:
        hi = lo + 1
        written, touched = set(writes[lo]), set(touches[lo])
        steps: Optional[List[int]] = None
        while hi < k:
            cur, prev = flat[hi], flat[hi - 1]
            delta = [c - q for c, q in zip(cur, prev)]
            if not all(
                (c < 0) == (q < 0) for c, q in zip(cur, prev)
            ) or (
                any(d == 0 and o for d, o in zip(delta, outputs))
                if steps is None else delta != steps
            ) or writes[hi] & touched or touches[hi] & written:
                break
            steps = delta
            written |= writes[hi]
            touched |= touches[hi]
            hi += 1
        runs.append((lo, hi))
        lo = hi
    first = starts[spans[0][0]]
    return _Group(
        first, starts[spans[-1][1]], ops, heads, flat, tuple(outputs), runs
    )


class FusionPlan:
    """Everything about fusing one program that no lane count changes.

    Built once per program object (:func:`fusion_plan`) and shared by
    every executor of it; holds no buffer.  ``cleaned`` is the level-1
    cleanup of the program (proved equivalent, same trace, when
    ``verify``); its program-order lowering and its level schedule (proved
    equivalent too) are built on first use.
    """

    def __init__(self, program: Program, *, verify: bool) -> None:
        # Trace-preserving local cleanup (reused from trace.optimize):
        # folding happens in the program dtype, so results stay bit-exact.
        instrs = fold_constants(list(program.instructions), program.dtype)
        instrs = eliminate_dead_code(instrs, remove_dead_loads=False)
        # No reference to ``program``: the plan cache must not pin it.
        self.cleaned = Program(
            instructions=tuple(instrs),
            num_registers=program.num_registers,
            memory_words=program.memory_words,
            dtype=program.dtype,
            name=f"{program.name}+fused-locals",
        )
        self.verify = verify
        if verify:
            _prove(program, self.cleaned, same_trace=True)
        self._lock = threading.Lock()
        self._narrow: Optional[_Lowered] = None
        self._wide: Optional[Tuple[_Lowered, List[_Group]]] = None
        self._scheduled = False

    def narrow(self) -> _Lowered:
        """The program-order lowering (one op sequence per instruction)."""
        with self._lock:
            if self._narrow is None:
                cleaned = self.cleaned
                self._narrow = _lower(
                    cleaned.instructions, cleaned.num_registers
                )
            return self._narrow

    def wide(self) -> Optional[Tuple[_Lowered, List[_Group]]]:
        """The scheduled lowering and its zipped groups (``None`` when no
        two same-shaped instructions are ever independent)."""
        with self._lock:
            if not self._scheduled:
                self._wide = self._build_wide()
                self._scheduled = True
            return self._wide

    def _build_wide(self) -> Optional[Tuple[_Lowered, List[_Group]]]:
        cleaned = self.cleaned
        sched = _schedule(cleaned.instructions, cleaned.num_registers)
        if sched is None:
            return None
        if self.verify:
            _prove(cleaned, Program(
                instructions=tuple(sched.instructions),
                num_registers=sched.num_registers,
                memory_words=cleaned.memory_words,
                dtype=cleaned.dtype,
                name=f"{cleaned.name}+schedule",
            ), same_trace=False)
        lowered = _lower(sched.instructions, sched.num_registers, rebind=False)
        groups = [
            g for g in (_zip_group(lowered, spans) for spans in sched.groups)
            if g is not None
        ]
        return (lowered, groups) if groups else None


def _prove(reference: Program, candidate: Program, *, same_trace: bool) -> None:
    # Imported lazily: the linter imports this module via the engine.
    from ..analysis.lint.equiv import prove_equivalent

    prove_equivalent(reference, candidate, require_same_trace=same_trace)


#: One plan cache per verification setting.
_PLANS = {
    verify: PerProgram(lambda prog, v=verify: FusionPlan(prog, verify=v))
    for verify in (False, True)
}


def fusion_plan(
    program: Program, *, verify: Optional[bool] = None
) -> FusionPlan:
    """The :class:`FusionPlan` of ``program``, built once per program object.

    ``verify`` proves the local cleanup (same final memory, identical
    access trace) and the level schedule (same final memory) with the
    symbolic checker of :mod:`repro.analysis.lint.equiv`; a failed proof
    raises :class:`~repro.errors.EquivalenceError`.  The default
    (``None``) follows :func:`~repro.trace.optimize.verify_passes_default`
    — verification is *on* unless ``REPRO_VERIFY_PASSES=0``.
    """
    if verify is None:
        verify = verify_passes_default()
    return _PLANS[bool(verify)](program)


# -- the bind: a plan onto one executor's buffers ------------------------------

def compile_fused(
    program: Program,
    arrangement: Arrangement,
    mem: np.ndarray,
    *,
    verify: Optional[bool] = None,
) -> FusedProgram:
    """Bind ``program``'s :func:`fusion_plan` to the buffer ``mem``.

    ``mem`` is the arrangement's physical buffer; the returned program owns
    its register rows and mask scratch, and its closures capture ``mem``,
    so the caller must keep reusing the same array across runs.
    """
    plan = fusion_plan(program, verify=verify)
    return _Binder(plan, arrangement.word_view(mem)).fused


class _Binder:
    """Turns a plan's ops into closures over one executor's buffers."""

    def __init__(self, plan: FusionPlan, words: np.ndarray) -> None:
        dtype = words.dtype
        p = words.shape[1]
        # Predicated moves: ``np.putmask`` walks a branchy scalar loop, but
        # for integer-viewable dtypes the same move is a branch-free
        # bitwise blend  out ^= (src ^ out) * mask  (mask is 0/1, same int
        # width) over same-width integer views — three SIMD passes, and
        # bit-exact by construction.  The mask producers write the 0/1
        # integer row directly, so no widening pass is needed.  Below
        # ``_BLEND_MIN_P`` lanes the extra dispatches cost more than
        # putmask's scalar loop saves.
        self.blend = (
            dtype.kind in "fiu"
            and dtype.itemsize in (1, 2, 4, 8)
            and p >= _BLEND_MIN_P
        )
        self.ibits = np.dtype(f"i{dtype.itemsize}")
        row_bytes = p * dtype.itemsize
        k_max = _WIDE_BLOCK_BYTES // row_bytes
        plan_chunks: List[Tuple[_Group, List[Tuple[int, int]]]] = []
        wide = plan.wide() if row_bytes <= _WIDE_MAX_ROW_BYTES else None
        if wide is not None:
            lowered, groups = wide
            for g in groups:
                # One wide call set per row-slice run of at most k_max
                # members (a range of one member runs on its own).
                plan_chunks.append((g, [
                    (lo, min(lo + k_max, hi))
                    for lo, hi in g.runs
                    for lo in range(lo, hi, k_max)
                ]))
            if all(hi - lo < 2 for _, chunks in plan_chunks for lo, hi in chunks):
                wide = None
        if wide is None:
            lowered, plan_chunks = plan.narrow(), []
        widest = max(
            (hi - lo for _, chunks in plan_chunks for lo, hi in chunks),
            default=1,
        )
        self.words = words
        self.regs = np.zeros((lowered.num_registers, p), dtype=dtype)
        mask_dtype = self.ibits if self.blend else np.dtype(bool)
        self.mask = np.empty((widest, p), dtype=mask_dtype)
        self.mask2 = np.empty((widest, p), dtype=bool)
        self.t_int = np.empty((widest, p), dtype=self.ibits) if self.blend else None
        self.steps: List[Callable[[], None]] = []
        self.stats = replace(
            lowered.stats, instructions=len(plan.cleaned.instructions)
        )

        ops = lowered.ops
        pos = 0
        for g, chunks in plan_chunks:
            self._narrow(ops[pos:g.first])
            for lo, hi in chunks:
                if hi - lo == 1:
                    self._narrow(g.ops[lo])
                    continue
                self.stats.wide_groups += 1
                self.stats.widest = max(self.stats.widest, hi - lo)
                s = 0
                for j, head in enumerate(g.heads):
                    n_refs = len(g.ops[lo][j][1])
                    self._wide(head, [
                        [g.flat[m][s + x] for m in range(lo, hi)]
                        for x in range(n_refs)
                    ])
                    s += n_refs
            pos = g.stop
        self._narrow(ops[pos:])
        self.fused = FusedProgram(
            self.steps, self.stats,
            tuple(self.regs[r] for r in lowered.zero_rows),
        )

    def _block(self, refs: List[int]) -> np.ndarray:
        """The rows a run's ``refs`` name: a slice or a broadcast row."""
        base = self.regs if refs[0] >= 0 else self.words
        rows = [x if x >= 0 else ~x for x in refs]
        step = rows[1] - rows[0]
        if step == 0:
            return base[rows[0]][None, :]
        stop = rows[0] + step * len(rows)
        return base[rows[0]:stop if stop >= 0 else None:step]

    def _add(self, fn: Callable[[], None]) -> None:
        self.steps.append(fn)
        self.stats.emitted_ops += 1

    def _narrow(self, ops: Sequence[tuple]) -> None:
        regs, words = self.regs, self.words
        for head, refs in ops:
            self._emit(
                head, [regs[x] if x >= 0 else words[~x] for x in refs], 1
            )

    def _wide(self, head: tuple, slots: List[List[int]]) -> None:
        """Emit one op over ``len(slots[0])`` members' rows."""
        self._emit(head, [self._block(refs) for refs in slots], len(slots[0]))

    def _emit(self, head: tuple, v: List[np.ndarray], k: int) -> None:
        """Emit one op over ``k`` members, whose rows ``v`` holds."""
        kind = head[0]
        mask = self.mask[0] if k == 1 else self.mask[:k]
        if kind == _FILL:
            imm = head[1]

            def do_fill(out=v[0], imm=imm) -> None:
                out.fill(imm)

            self._add(do_fill)
        elif kind == _COPY:

            def do_copy(out=v[0], src=v[1]) -> None:
                np.copyto(out, src)

            self._add(do_copy)
        elif kind == _UFUNC:
            fn = head[1]
            if len(v) == 3:

                def do_bin(fn=fn, out=v[0], a=v[1], b=v[2]) -> None:
                    fn(a, b, out=out)

                self._add(do_bin)
            else:

                def do_un(fn=fn, out=v[0], a=v[1]) -> None:
                    fn(a, out=out)

                self._add(do_un)
        elif kind == _MASK:
            cfn = head[1]
            b = v[1] if head[2] else 0

            def do_mask(cfn=cfn, a=v[0], b=b, mask=mask) -> None:
                cfn(a, b, out=mask)

            self._add(do_mask)
        else:
            self._emit_move(v[0], v[1], head[1], v[2] if head[2] else None, k)

    def _emit_move(
        self,
        out: np.ndarray,
        src: np.ndarray,
        invert: bool,
        final: Optional[np.ndarray],
        k: int,
    ) -> None:
        """``out[lane] = src[lane]`` where the mask is set (or clear), the
        result written to ``final`` instead of ``out`` when given."""
        mask = self.mask[0] if k == 1 else self.mask[:k]
        if self.blend:
            ibits = self.ibits
            t_int = self.t_int[0] if k == 1 else self.t_int[:k]
            ov, sv = out.view(ibits), src.view(ibits)
            tgt = ov if final is None else final.view(ibits)
            if invert:
                # mask - 1 is -1 (all ones) exactly where the mask is 0.
                def do_sel_inv(ov=ov, sv=sv, tgt=tgt, m=mask, t=t_int) -> None:
                    np.subtract(m, 1, out=m)
                    np.bitwise_xor(sv, ov, out=t)
                    np.bitwise_and(t, m, out=t)
                    np.bitwise_xor(ov, t, out=tgt)

                self.steps.append(do_sel_inv)
                self.stats.emitted_ops += 4
            else:
                def do_sel_keep(ov=ov, sv=sv, tgt=tgt, m=mask, t=t_int) -> None:
                    np.bitwise_xor(sv, ov, out=t)
                    np.multiply(t, m, out=t)
                    np.bitwise_xor(ov, t, out=tgt)

                self.steps.append(do_sel_keep)
                self.stats.emitted_ops += 3
            return
        if final is not None:

            def do_keep_else(final=final, out=out) -> None:
                np.copyto(final, out)

            self._add(do_keep_else)
            out = final
        if invert:
            mask2 = self.mask2[0] if k == 1 else self.mask2[:k]

            def do_sel_inv_pm(out=out, src=src, m=mask, m2=mask2) -> None:
                np.logical_not(m, out=m2)
                np.putmask(out, m2, src)

            self.steps.append(do_sel_inv_pm)
            self.stats.emitted_ops += 2
        else:

            def do_sel_keep_pm(out=out, src=src, m=mask) -> None:
                np.putmask(out, m, src)

            self._add(do_sel_keep_pm)
