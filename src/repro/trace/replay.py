"""Straight-line Python replay of a program, generated from its IR.

The spot guard of :class:`repro.bulk.engine.BulkExecutor` re-executes a few
sampled lanes of every guarded native run and demands bit identity with
the kernel.  Replaying them on a NumPy executor pays NumPy's dispatch once
per instruction whatever the lane count — the fixed ``A`` of the paper's
``A + B·p``.  This module instead generates straight-line Python code per
program: registers are locals, memory is a list and every instruction is
one statement (split into functions of :data:`_CHUNK` instructions).  It
is compiled once per program per process, so replaying ``q`` lanes costs
``q`` passes over straight-line code.

The code is generated from the IR, never from the C the native backend
compiles, so it stays a check independent of the emitter.

Semantic table
--------------
Every entry is exactly the NumPy semantics of :mod:`repro.trace.ops` (tested
bit for bit against the ufuncs); the C prelude of
:mod:`repro.codegen.c_emitter` implements the same table.

``float64``
    ``+ - *``, the comparisons, ``Select``, ``Const``, ``Load`` and
    ``Store`` are plain Python float operations: IEEE binary64, the same
    hardware operation NumPy performs.  ``/`` is plain for a nonzero
    divisor and the ufunc for a zero one; ``MOD`` is the ufunc
    (``np.mod``: the result takes the divisor's sign, a zero result is
    signed like the divisor).  ``MIN``/``MAX`` propagate NaN like
    ``np.minimum``/``np.maximum``: ``a if a < b or a != a else b``.
``int64``
    ``ADD``, ``SUB``, ``MUL``, ``NEG`` and ``ABS`` wrap modulo 2**64.
    ``DIV`` floors and ``MOD`` takes the divisor's sign; a zero divisor
    gives 0 for both, ``MIN // -1`` wraps to ``MIN`` and ``MIN % -1`` is 0.
    ``SHL``/``SHR`` by a count outside [0, 64) give 0 (``SHR`` of a
    negative value: -1).  Comparisons give 0/1.

Only float64 and int64 programs replay — the dtypes the native backend
emits, hence the only ones the guard ever checks.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from ..errors import ExecutionError, ProgramError
from .ir import Binary, Const, Load, PerProgram, Program, Select, Store, Unary
from .ops import BINARY_UFUNCS, BinaryOp, UnaryOp

__all__ = ["emit_python", "lane_function", "replay_lanes"]

_BIAS = "0x8000000000000000"
_MASK = "0xFFFFFFFFFFFFFFFF"


def _wrapped(expr: str) -> str:
    """``expr`` (an exact Python int) reduced into int64 two's complement."""
    return f"((({expr}) + {_BIAS}) & {_MASK}) - {_BIAS}"


def _compare(op: str, one: str, zero: str) -> str:
    return f"{one} if {{a}} {op} {{b}} else {zero}"


_COMPARE_OPS = {
    BinaryOp.LT: "<",
    BinaryOp.LE: "<=",
    BinaryOp.GT: ">",
    BinaryOp.GE: ">=",
    BinaryOp.EQ: "==",
    BinaryOp.NE: "!=",
}

#: ``(opcode, dtype kind) -> statement right-hand side``: the semantic table.
#: ``{a}``/``{b}`` are register names; ``_f_div``/``_f_mod`` are the ufunc
#: helpers bound into every generated function's globals.
_TABLE: Dict[Tuple[object, str], str] = {
    (BinaryOp.ADD, "f"): "{a} + {b}",
    (BinaryOp.SUB, "f"): "{a} - {b}",
    (BinaryOp.MUL, "f"): "{a} * {b}",
    (BinaryOp.DIV, "f"): "{a} / {b} if {b} else _f_div({a}, {b})",
    (BinaryOp.MOD, "f"): "_f_mod({a}, {b})",
    (BinaryOp.MIN, "f"): "{a} if {a} < {b} or {a} != {a} else {b}",
    (BinaryOp.MAX, "f"): "{a} if {a} > {b} or {a} != {a} else {b}",
    (UnaryOp.NEG, "f"): "-{a}",
    (UnaryOp.ABS, "f"): "abs({a})",
    (UnaryOp.COPY, "f"): "{a}",
    (BinaryOp.ADD, "i"): _wrapped("{a} + {b}"),
    (BinaryOp.SUB, "i"): _wrapped("{a} - {b}"),
    (BinaryOp.MUL, "i"): _wrapped("{a} * {b}"),
    (BinaryOp.DIV, "i"): _wrapped("{a} // {b}") + " if {b} else 0",
    (BinaryOp.MOD, "i"): "{a} % {b} if {b} else 0",
    (BinaryOp.MIN, "i"): "{a} if {a} < {b} else {b}",
    (BinaryOp.MAX, "i"): "{a} if {a} > {b} else {b}",
    (BinaryOp.AND, "i"): "{a} & {b}",
    (BinaryOp.OR, "i"): "{a} | {b}",
    (BinaryOp.XOR, "i"): "{a} ^ {b}",
    (BinaryOp.SHL, "i"): _wrapped("{a} << {b}") + " if 0 <= {b} < 64 else 0",
    (BinaryOp.SHR, "i"): "{a} >> {b} if 0 <= {b} < 64 else -({a} < 0)",
    (UnaryOp.NEG, "i"): _wrapped("-{a}"),
    (UnaryOp.ABS, "i"): _wrapped("abs({a})"),
    (UnaryOp.NOT, "i"): "~{a}",
    (UnaryOp.COPY, "i"): "{a}",
}
for _op, _sym in _COMPARE_OPS.items():
    _TABLE[_op, "f"] = _compare(_sym, "1.0", "0.0")
    _TABLE[_op, "i"] = _compare(_sym, "1", "0")


def _float_ufunc(op: BinaryOp) -> Callable[[float, float], float]:
    """The ops-table ufunc of ``op`` applied to two float64 scalars."""
    fn = BINARY_UFUNCS[op]

    def helper(a: float, b: float) -> float:
        return fn(np.float64(a), np.float64(b)).item()

    return helper


_HELPERS = {
    "_f_div": _float_ufunc(BinaryOp.DIV),
    "_f_mod": _float_ufunc(BinaryOp.MOD),
}


def _kind(program: Program) -> str:
    if program.dtype == np.float64:
        return "f"
    if program.dtype == np.int64:
        return "i"
    raise ProgramError(
        f"the IR replay supports float64 and int64 programs, got "
        f"{program.dtype} ({program.name!r})"
    )


#: Instructions per generated function.  Compiling one function holds its
#: whole syntax tree in memory, about 3 KB per statement: OPT n=32 as one
#: 26,228-statement function would add ~90 MB to the process' peak RSS.
#: Chunks bound that to a few MB; each costs one call per lane.
_CHUNK = 2048


def _uses(instr, kind: str, program: Program) -> Dict[int, int]:
    """How often each register's name appears in ``instr``'s statement."""
    if isinstance(instr, Store):
        return {instr.rs: 1}
    if isinstance(instr, Select):
        operands = {"{c}": instr.rc, "{a}": instr.ra, "{b}": instr.rb}
        template = "{a} if {c} else {b}"
    elif isinstance(instr, (Binary, Unary)):
        template = _rule(instr.op, kind, program)
        operands = {"{a}": instr.ra}
        if isinstance(instr, Binary):
            operands["{b}"] = instr.rb
    else:
        return {}
    counts: Dict[int, int] = {}
    for slot, reg in operands.items():
        counts[reg] = counts.get(reg, 0) + template.count(slot)
    return counts


def _inlinable(instrs, kind: str, program: Program) -> List[bool]:
    """Which loads and comparisons can fold into their consumer:
    the value is named exactly once before its register is redefined
    later in the chunk (so the chunk-end register save never sees it)."""
    out = [False] * len(instrs)
    named: Dict[int, int] = {}  # register -> names since its next def
    redefined: set = set()
    for i in range(len(instrs) - 1, -1, -1):
        instr = instrs[i]
        if not isinstance(instr, Store):
            rd = instr.rd
            out[i] = (
                rd in redefined and named.get(rd, 0) == 1
                and (isinstance(instr, Load) or (
                    isinstance(instr, Binary) and instr.op in _COMPARE_OPS))
            )
            named[rd] = 0
            redefined.add(rd)
        for reg, count in _uses(instr, kind, program).items():
            named[reg] = named.get(reg, 0) + count
    return out


class _Pending(NamedTuple):
    """A value folded into its one consumer: its expression as an operand
    and as a ``Select`` condition, and the registers and memory words
    the expression reads (a redefinition or store flushes it first)."""

    value: str
    condition: str
    regs: frozenset
    addrs: frozenset


def emit_python(program: Program) -> Tuple[List[str], Dict[str, object]]:
    """The replay's sources, one per chunk, and the globals they need.

    Each source defines ``chunk(m, regs)``, which runs the next
    :data:`_CHUNK` instructions on the memory list ``m``; registers are
    locals, loaded from and saved back to the list ``regs`` at the chunk's
    edges.  Non-finite constants have no literal, so they are bound as
    globals ``_k0``, ``_k1``, … next to the helpers.

    A ``Load`` or comparison whose value is named once before its
    register is redefined is folded into its consumer's statement
    (``r2 = m[4] + m[7]``; a comparison feeding a ``Select`` becomes its
    condition).  A folded load is flushed to its register before a store
    to its word, and any folded value before a register it reads is
    redefined, so every expression reads what the instruction would have.
    """
    kind = _kind(program)
    scalar = program.dtype.type
    namespace: Dict[str, object] = dict(_HELPERS)
    constants = 0
    regs = "".join(f"r{r}, " for r in range(program.num_registers))
    sources: List[str] = []
    instrs = program.instructions
    for start in range(0, len(instrs), _CHUNK):
        lines = ["def chunk(m, regs):"]
        if regs:
            lines.append(f"    {regs}= regs")
        chunk = instrs[start : start + _CHUNK]
        folds = _inlinable(chunk, kind, program)
        pending: Dict[int, _Pending] = {}

        def flush(stale) -> None:
            for reg in [r for r, p in pending.items() if stale(p)]:
                lines.append(f"    r{reg} = {pending.pop(reg).value}")

        def operand(reg: int, reads, condition: bool = False) -> str:
            # A register named twice in one statement is never folded.
            folded = pending.pop(reg, None)
            if folded is None:
                reads[0].add(reg)
                return f"r{reg}"
            reads[0].update(folded.regs)
            reads[1].update(folded.addrs)
            return folded.condition if condition else folded.value

        for instr, fold in zip(chunk, folds):
            reads = (set(), set())  # registers and words the statement reads
            if isinstance(instr, Load):
                rhs = f"m[{instr.addr}]"
                reads[1].add(instr.addr)
            elif isinstance(instr, Store):
                value = operand(instr.rs, reads)
                flush(lambda p, a=instr.addr: a in p.addrs)
                lines.append(f"    m[{instr.addr}] = {value}")
                continue
            elif isinstance(instr, Binary):
                rule = _rule(instr.op, kind, program)
                a, b = operand(instr.ra, reads), operand(instr.rb, reads)
                rhs = rule.format(a=a, b=b)
            elif isinstance(instr, Unary):
                rhs = _rule(instr.op, kind, program).format(
                    a=operand(instr.ra, reads)
                )
            elif isinstance(instr, Select):
                c = operand(instr.rc, reads, condition=True)
                a, b = operand(instr.ra, reads), operand(instr.rb, reads)
                rhs = f"{a} if {c} else {b}"
            elif isinstance(instr, Const):
                value = scalar(instr.imm).item()
                if kind == "f" and not math.isfinite(value):
                    rhs = f"_k{constants}"
                    namespace[rhs] = value
                    constants += 1
                else:
                    rhs = repr(value)
            else:  # pragma: no cover - unreachable with a validated program
                raise ProgramError(f"unknown instruction {instr!r}")
            flush(lambda p, r=instr.rd: r in p.regs)
            if fold:
                condition = rhs
                if isinstance(instr, Binary):
                    condition = f"{a} {_COMPARE_OPS[instr.op]} {b}"
                    rhs = f"({rhs})"
                pending[instr.rd] = _Pending(
                    rhs, condition, frozenset(reads[0]), frozenset(reads[1])
                )
            else:
                lines.append(f"    r{instr.rd} = {rhs}")
        flush(lambda p: True)
        lines.append(f"    regs[:] = {regs}" if regs else "    return")
        sources.append("\n".join(lines) + "\n")
    return sources, namespace


def _rule(op, kind: str, program: Program) -> str:
    try:
        return _TABLE[op, kind]
    except KeyError:
        raise ProgramError(
            f"opcode {op} is invalid for dtype {program.dtype}"
        ) from None


def _compile(program: Program) -> Callable[[list], None]:
    """Compile the chunks one at a time, so one syntax tree is alive."""
    sources, namespace = emit_python(program)
    chunks = []
    for i, source in enumerate(sources):
        exec(compile(source, f"<replay of {program.name}, chunk {i}>", "exec"),
             namespace)
        chunks.append(namespace.pop("chunk"))
    zero = program.dtype.type(0).item()
    nregs = program.num_registers

    def lane(m: list) -> None:
        regs = [zero] * nregs
        for chunk in chunks:
            chunk(m, regs)

    return lane


#: The compiled replay of a program (built once per process).  The
#: returned ``lane(m)`` runs the program on the memory list ``m`` in place.
lane_function: "PerProgram[Callable[[list], None]]" = PerProgram(_compile)


def replay_lanes(program: Program, inputs: np.ndarray) -> np.ndarray:
    """Run each row of ``inputs`` through the replay; ``(q, memory_words)``.

    ``inputs`` has shape ``(q, k)`` with ``k <= memory_words``; words past
    ``k`` start at zero, as in every engine.
    """
    lane = lane_function(program)
    rows = np.asarray(inputs, dtype=program.dtype)
    words = program.memory_words
    if rows.ndim != 2 or rows.shape[1] > words:
        raise ExecutionError(
            f"expected inputs of shape (q, k <= {words}), got {rows.shape}"
        )
    pad = [program.dtype.type(0).item()] * (words - rows.shape[1])
    images = []
    with np.errstate(all="ignore"):
        for row in rows.tolist():
            memory = row + pad
            lane(memory)
            images.append(memory)
    return np.array(images, dtype=program.dtype).reshape(len(images), words)
