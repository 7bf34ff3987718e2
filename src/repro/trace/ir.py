"""The oblivious intermediate representation (IR).

An oblivious sequential algorithm's address trace is a fixed function
``a(i)`` of the step index — never of the data (paper, Section III).  The IR
makes that property *structural*: programs are straight-line instruction
sequences whose ``Load``/``Store`` addresses are compile-time integers, and
the only conditional is the data-independent :class:`Select` (predicated
move).  Loops of the source algorithm are fully unrolled by the
:class:`~repro.trace.builder.ProgramBuilder` or the tracing converter.

Instruction set
---------------
``Const rd, imm``      — load an immediate into a register (free).
``Load rd, addr``      — read memory word ``addr``           (1 time unit of trace).
``Store addr, rs``     — write register to word ``addr``     (1 time unit of trace).
``Binary op rd,ra,rb`` — register arithmetic (free).
``Unary op rd, ra``    — register arithmetic (free).
``Select rd,rc,ra,rb`` — ``rd ← ra if rc ≠ 0 else rb``       (free).

The *trace length* ``t`` of a program is its number of memory instructions —
exactly the paper's sequential running time, since local computation is
charged zero time units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import AddressError, ProgramError, RegisterError
from .ops import BinaryOp, UnaryOp

__all__ = [
    "Const",
    "Load",
    "Store",
    "Binary",
    "Unary",
    "Select",
    "Instruction",
    "Program",
]


@dataclass(frozen=True, slots=True)
class Const:
    """``rd ← imm``."""

    rd: int
    imm: float

    def __str__(self) -> str:
        return f"r{self.rd} <- {self.imm!r}"


@dataclass(frozen=True, slots=True)
class Load:
    """``rd ← m[addr]`` — one memory access (a read at static address)."""

    rd: int
    addr: int

    def __str__(self) -> str:
        return f"r{self.rd} <- m[{self.addr}]"


@dataclass(frozen=True, slots=True)
class Store:
    """``m[addr] ← rs`` — one memory access (a write at static address)."""

    addr: int
    rs: int

    def __str__(self) -> str:
        return f"m[{self.addr}] <- r{self.rs}"


@dataclass(frozen=True, slots=True)
class Binary:
    """``rd ← ra <op> rb``."""

    op: BinaryOp
    rd: int
    ra: int
    rb: int

    def __str__(self) -> str:
        return f"r{self.rd} <- r{self.ra} {self.op.value} r{self.rb}"


@dataclass(frozen=True, slots=True)
class Unary:
    """``rd ← <op> ra``."""

    op: UnaryOp
    rd: int
    ra: int

    def __str__(self) -> str:
        return f"r{self.rd} <- {self.op.value} r{self.ra}"


@dataclass(frozen=True, slots=True)
class Select:
    """``rd ← ra if rc != 0 else rb`` — the oblivious conditional."""

    rd: int
    rc: int
    ra: int
    rb: int

    def __str__(self) -> str:
        return f"r{self.rd} <- r{self.ra} if r{self.rc} else r{self.rb}"


Instruction = Union[Const, Load, Store, Binary, Unary, Select]

_MEMORY_INSTRS = (Load, Store)


def instruction_uses(instr: Instruction) -> Tuple[int, ...]:
    """Registers read by ``instr``."""
    if isinstance(instr, Store):
        return (instr.rs,)
    if isinstance(instr, Binary):
        return (instr.ra, instr.rb)
    if isinstance(instr, Unary):
        return (instr.ra,)
    if isinstance(instr, Select):
        return (instr.rc, instr.ra, instr.rb)
    return ()


def instruction_def(instr: Instruction) -> Optional[int]:
    """Register written by ``instr`` (``None`` for :class:`Store`)."""
    if isinstance(instr, Store):
        return None
    return instr.rd


@dataclass(frozen=True)
class Program:
    """A complete oblivious program.

    Attributes
    ----------
    instructions:
        The straight-line instruction sequence.
    num_registers:
        Size of the (per-thread) register file after allocation.
    memory_words:
        Number of memory words one input instance occupies; every
        ``Load``/``Store`` address lies in ``[0, memory_words)``.
    dtype:
        Word type of registers and memory.
    name:
        Human-readable identifier (shows up in harness tables).
    meta:
        Free-form metadata (e.g. the problem size ``n``).
    outputs:
        The words a run returns: sorted, disjoint, non-empty half-open
        ranges ``((lo, hi), ...)`` of ``[0, memory_words)``, or ``None``
        for the whole memory.  Consumers read :attr:`output_ranges`; an
        output image holds the declared words in range order, so word
        ``a`` of range ``(lo, hi)`` sits in column ``a - lo`` plus the
        widths of the ranges before it.

    The instructions are immutable, so derived quantities
    (:attr:`trace_length`, :meth:`address_trace`) are computed once per
    program and cached in the instance ``__dict__``.  The cache is no
    field: equality and :func:`~repro.trace.serialize.program_to_dict`
    ignore it, and :func:`dataclasses.replace` builds a program that
    counts afresh.
    """

    instructions: Tuple[Instruction, ...]
    num_registers: int
    memory_words: int
    dtype: np.dtype = np.dtype(np.float64)
    name: str = "program"
    meta: Dict[str, object] = field(default_factory=dict)
    outputs: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        if self.outputs is not None:
            try:
                ranges = tuple((int(lo), int(hi)) for lo, hi in self.outputs)
            except (TypeError, ValueError) as exc:
                raise ProgramError(
                    f"{self.name}: outputs must be (lo, hi) word ranges, got "
                    f"{self.outputs!r}"
                ) from exc
            object.__setattr__(self, "outputs", ranges)

    # -- derived quantities ---------------------------------------------------
    @property
    def trace_length(self) -> int:
        """``t`` — the number of memory accesses (the sequential time).

        Counted once per program: every batch the serving tier prices
        reads it, so it must not cost a walk of the instructions.
        """
        cached = self.__dict__.get("_trace_length")
        if cached is None:
            cached = sum(
                1 for i in self.instructions if isinstance(i, _MEMORY_INSTRS)
            )
            object.__setattr__(self, "_trace_length", cached)
        return cached

    @property
    def output_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """The declared output ranges; ``((0, memory_words),)`` when none
        are declared.  Every layer that moves output words reads this."""
        if self.outputs is None:
            return ((0, self.memory_words),)
        return self.outputs

    @property
    def output_words(self) -> int:
        """Width of one lane's output image: the declared ranges' total."""
        return sum(hi - lo for lo, hi in self.output_ranges)

    def output_index(self) -> np.ndarray:
        """The declared word addresses in output-column order (int64,
        shared and read-only, like :meth:`address_trace`)."""
        cached = self.__dict__.get("_output_index")
        if cached is None:
            cached = np.concatenate(
                [np.arange(lo, hi, dtype=np.int64) for lo, hi in self.output_ranges]
            )
            cached.setflags(write=False)
            object.__setattr__(self, "_output_index", cached)
        return cached

    @property
    def num_instructions(self) -> int:
        """Total instruction count (memory + local)."""
        return len(self.instructions)

    def address_trace(self) -> np.ndarray:
        """The access function ``a(0..t-1)`` as an int64 vector.

        Obliviousness makes this a *static* property: the addresses are read
        straight off the ``Load``/``Store`` instructions, no execution needed.
        The vector is computed once per program and cached (instructions are
        immutable); the returned array is shared and marked read-only — copy
        it before mutating.
        """
        cached = self.__dict__.get("_address_trace")
        if cached is None:
            cached = np.fromiter(
                (i.addr for i in self.instructions if isinstance(i, _MEMORY_INSTRS)),
                dtype=np.int64,
                count=self.trace_length,
            )
            cached.setflags(write=False)
            object.__setattr__(self, "_address_trace", cached)
        return cached

    def write_mask(self) -> np.ndarray:
        """Boolean vector: ``True`` where memory step ``i`` is a ``Store``."""
        return np.fromiter(
            (isinstance(i, Store) for i in self.instructions if isinstance(i, _MEMORY_INSTRS)),
            dtype=bool,
            count=self.trace_length,
        )

    def memory_instructions(self) -> Iterator[Instruction]:
        """Iterate only the ``Load``/``Store`` instructions, in order."""
        return (i for i in self.instructions if isinstance(i, _MEMORY_INSTRS))

    # -- introspection ---------------------------------------------------------
    def _opcode(self, instr: Instruction) -> str:
        op = getattr(instr, "op", None)
        kind = type(instr).__name__
        return f"{kind}.{op.value}" if op is not None else kind

    def validate(self) -> None:
        """Structural validation; raises on the first defect.

        Checks the declared output ranges, register ranges, address
        bounds, dtype compatibility of bitwise opcodes, and def-before-use
        of every register.  Every
        message names the program, the instruction index and opcode, and
        the offending register or memory cell, so a failure inside a long
        generated program is locatable without a debugger.
        """
        from .ops import require_dtype_supports  # local import avoids cycle

        self.validate_outputs()
        defined = np.zeros(self.num_registers, dtype=bool)
        for idx, instr in enumerate(self.instructions):
            where = f"{self.name}: instr {idx} [{self._opcode(instr)}] ({instr})"
            for r in instruction_uses(instr):
                if not 0 <= r < self.num_registers:
                    raise RegisterError(
                        f"{where}: register operand r{r} out of range "
                        f"[0, {self.num_registers}) — the register file has "
                        f"{self.num_registers} slots"
                    )
                if not defined[r]:
                    raise RegisterError(
                        f"{where}: register r{r} used before definition — no "
                        f"earlier instruction writes r{r}"
                    )
            if isinstance(instr, (Load, Store)):
                if not 0 <= instr.addr < self.memory_words:
                    raise AddressError(
                        f"{where}: memory cell m[{instr.addr}] out of range "
                        f"[0, {self.memory_words}) — the program declares "
                        f"{self.memory_words} words per input"
                    )
            if isinstance(instr, (Binary, Unary)):
                try:
                    require_dtype_supports(instr.op, self.dtype)
                except ProgramError as exc:
                    raise ProgramError(f"{where}: {exc}") from None
            rd = instruction_def(instr)
            if rd is not None:
                if not 0 <= rd < self.num_registers:
                    raise RegisterError(
                        f"{where}: destination r{rd} out of range "
                        f"[0, {self.num_registers}) — the register file has "
                        f"{self.num_registers} slots"
                    )
                defined[rd] = True

    def validate_outputs(self) -> None:
        """The declared output ranges alone (the cheap part of
        :meth:`validate`, which every executor runs): raises
        :class:`~repro.errors.ProgramError` for an empty declaration, an
        empty range, one outside the memory, or ranges that overlap or
        are out of order."""
        if self.outputs is None:
            return
        if not self.outputs:
            raise ProgramError(
                f"{self.name}: outputs declares no range — leave it unset to "
                f"return the whole memory"
            )
        previous = 0
        for lo, hi in self.outputs:
            if lo >= hi:
                raise ProgramError(
                    f"{self.name}: output range [{lo}, {hi}) is empty"
                )
            if lo < 0 or hi > self.memory_words:
                raise ProgramError(
                    f"{self.name}: output range [{lo}, {hi}) leaves the "
                    f"program memory [0, {self.memory_words})"
                )
            if lo < previous:
                raise ProgramError(
                    f"{self.name}: output range [{lo}, {hi}) overlaps or "
                    f"precedes the range before it — ranges must be sorted "
                    f"and disjoint"
                )
            previous = hi

    def listing(self, limit: Optional[int] = 40) -> str:
        """A readable disassembly (truncated to ``limit`` lines)."""
        lines: List[str] = [
            f"; {self.name}: {self.num_instructions} instrs, "
            f"t={self.trace_length} memory accesses, "
            f"{self.num_registers} registers, {self.memory_words} words, "
            f"dtype={self.dtype}"
        ]
        shown = self.instructions if limit is None else self.instructions[:limit]
        lines.extend(f"{i:6d}: {instr}" for i, instr in enumerate(shown))
        if limit is not None and self.num_instructions > limit:
            lines.append(f"   ... ({self.num_instructions - limit} more)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Program(name={self.name!r}, instrs={self.num_instructions}, "
            f"t={self.trace_length}, regs={self.num_registers}, "
            f"words={self.memory_words})"
        )


def concat_programs(programs: Sequence[Program], name: str = "concat") -> Program:
    """Concatenate programs over the same memory into one straight-line program.

    Useful for phase-structured algorithms (e.g. FFT stages built
    separately).  All inputs must agree on ``memory_words``, ``dtype`` and
    declared ``outputs`` (the result keeps them); the register file is the
    maximum of the parts (registers are dead across program boundaries by
    construction, so reuse is safe).
    """
    if not programs:
        raise ProgramError("cannot concatenate an empty program list")
    words = programs[0].memory_words
    dtype = programs[0].dtype
    for prog in programs[1:]:
        if prog.memory_words != words or prog.dtype != dtype:
            raise ProgramError(
                "programs disagree on memory geometry: "
                f"({prog.memory_words}, {prog.dtype}) vs ({words}, {dtype})"
            )
        if prog.outputs != programs[0].outputs:
            raise ProgramError(
                f"programs disagree on declared outputs: {prog.outputs} vs "
                f"{programs[0].outputs}"
            )
    instrs: List[Instruction] = []
    for prog in programs:
        instrs.extend(prog.instructions)
    return Program(
        instructions=tuple(instrs),
        num_registers=max(prog.num_registers for prog in programs),
        memory_words=words,
        dtype=dtype,
        name=name,
        outputs=programs[0].outputs,
    )
