"""Symbolic pass-equivalence proofs over the oblivious IR.

The optimize and fusion passes were, until now, trusted via bit-identity
*tests* on random inputs — strong evidence, not proof.  Straight-line code
admits more: every register and memory cell's final value is a closed
symbolic expression over the initial memory, so two programs are equivalent
iff those expressions match cell for cell.  This module computes the
expressions by **value numbering** — hash-consing each expression into an
integer id shared between both programs — and compares final memory maps.

The prover mirrors the library's exact execution semantics:

* registers start at (dtype) zero, memory cell ``i`` at the symbolic input
  ``m0[i]`` (the engine packs inputs / zero-fills, which the initial
  symbol stands for either way);
* constant operands fold through the *same* NumPy ufuncs in the *same*
  program dtype as :func:`repro.trace.optimize.fold_constants` and the
  interpreter, so a correct fold produces the identical value number;
* ``COPY`` is the identity; a ``Select`` with a constant condition takes
  the decided arm; a ``Select`` whose arms carry the same value number is
  that value (either way, every lane holds the same bits).

No algebraic identities beyond those are assumed — in particular no
commutativity or reassociation, which floating point does not grant — so a
proof here is sound for bit-exact equality, the contract all backends are
tested against.  The check is *incomplete* in the other direction (two
equivalent programs can value-number differently), which is the right
trade-off for a verifier: it never certifies a miscompilation, and the
library's passes are by construction within the fragment it completes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import EquivalenceError
from ...trace.ir import (
    Binary,
    Const,
    Load,
    Program,
    Select,
    Store,
    Unary,
)
from ...trace.ops import BINARY_UFUNCS, UNARY_UFUNCS, UnaryOp

__all__ = [
    "ValueNumbering",
    "SymbolicState",
    "symbolic_state",
    "EquivalenceProof",
    "prove_equivalent",
]


class ValueNumbering:
    """Hash-consed symbolic expressions in one program dtype.

    Both programs of a proof must share one instance so that equal
    expressions intern to equal ids; comparing final states is then integer
    equality.

    ``zero_from`` optionally narrows the initial-memory model: cells at or
    beyond that address start as the *constant* zero instead of the opaque
    symbol ``m0[addr]``.  This is the engines' actual contract when the
    packed inputs occupy ``[0, zero_from)`` — everything past the input
    span is zero-filled — and it is what licenses proving the autofix
    rewrite of an uninitialised-scratch load (``OBL-W503``) into a literal
    ``Const 0``.  Left at ``None`` every cell stays symbolic (the
    arrangement-agnostic default, sound for any input span).
    """

    def __init__(self, dtype: np.dtype, *, zero_from: Optional[int] = None) -> None:
        self.dtype = np.dtype(dtype)
        self.zero_from = None if zero_from is None else int(zero_from)
        self._scalar = self.dtype.type
        self._intern: Dict[tuple, int] = {}
        self._exprs: List[tuple] = []
        #: id -> concrete scalar, for ids known to be compile-time constants.
        self.const_value: Dict[int, object] = {}

    def _get(self, key: tuple) -> int:
        vn = self._intern.get(key)
        if vn is None:
            vn = len(self._exprs)
            self._intern[key] = vn
            self._exprs.append(key)
        return vn

    # -- constructors ---------------------------------------------------------
    def const(self, value) -> int:
        """Value number of a compile-time constant (in the program dtype).

        Interning keys on ``repr`` of the dtype scalar, which is bit-faithful
        where it matters (``0.0`` vs ``-0.0`` differ; equal bit patterns
        agree), matching the repr-equality guard the fusion pass uses.
        """
        val = self._scalar(value)
        vn = self._get(("const", repr(val)))
        self.const_value.setdefault(vn, val)
        return vn

    def initial(self, addr: int) -> int:
        """Value number of memory cell ``addr``'s initial contents.

        Constant zero beyond ``zero_from`` (the engine zero-fill), the
        opaque symbol ``m0[addr]`` otherwise.
        """
        if self.zero_from is not None and int(addr) >= self.zero_from:
            return self.const(0)
        return self._get(("m0", int(addr)))

    def binary(self, op, a: int, b: int) -> int:
        ca, cb = self.const_value.get(a), self.const_value.get(b)
        if ca is not None and cb is not None:
            # Mirror fold_constants exactly: same ufunc, same dtype cast.
            # Folding may overflow/divide-by-zero exactly as execution would;
            # the fold is still the executed value, so silence the warning.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with np.errstate(all="ignore"):
                    return self.const(BINARY_UFUNCS[op](ca, cb))
        return self._get(("bin", op, a, b))

    def unary(self, op, a: int) -> int:
        if op is UnaryOp.COPY:
            return a
        ca = self.const_value.get(a)
        if ca is not None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with np.errstate(all="ignore"):
                    return self.const(UNARY_UFUNCS[op](ca))
        return self._get(("un", op, a))

    def select(self, c: int, a: int, b: int) -> int:
        cc = self.const_value.get(c)
        if cc is not None:
            return a if cc != 0 else b
        if a == b:
            # Both arms hold the same bits; the condition cannot matter.
            return a
        return self._get(("sel", c, a, b))

    # -- rendering ------------------------------------------------------------
    def describe(self, vn: int, depth: int = 4) -> str:
        """A readable rendering of expression ``vn`` (depth-capped)."""
        key = self._exprs[vn]
        tag = key[0]
        if tag == "const":
            return key[1]
        if tag == "m0":
            return f"m0[{key[1]}]"
        if depth <= 0:
            return f"#{vn}"
        if tag == "bin":
            _, op, a, b = key
            return (f"({self.describe(a, depth - 1)} {op.value} "
                    f"{self.describe(b, depth - 1)})")
        if tag == "un":
            _, op, a = key
            return f"({op.value} {self.describe(a, depth - 1)})"
        _, c, a, b = key
        return (f"({self.describe(a, depth - 1)} if "
                f"{self.describe(c, depth - 1)} else "
                f"{self.describe(b, depth - 1)})")


@dataclass(frozen=True)
class SymbolicState:
    """Final symbolic machine state of one program.

    Attributes
    ----------
    memory:
        ``{addr: value number}`` for every cell the program stored to;
        untouched cells implicitly hold their initial symbol.
    trace:
        The ``("R"/"W", addr)`` access sequence (for trace-preservation
        checks).
    """

    memory: Dict[int, int]
    trace: Tuple[Tuple[str, int], ...]

    def final_cell(self, vn: ValueNumbering, addr: int) -> int:
        return self.memory.get(addr, vn.initial(addr))


def symbolic_state(
    program: Program,
    vn: ValueNumbering,
    initial: Optional[Callable[[int], int]] = None,
) -> SymbolicState:
    """Abstractly execute ``program`` to its final symbolic state.

    ``initial(addr)`` is the value number a cell holds before its first
    store (default :meth:`ValueNumbering.initial`)."""
    if initial is None:
        initial = vn.initial
    zero = vn.const(0)
    regs = [zero] * program.num_registers
    memory: Dict[int, int] = {}
    trace: List[Tuple[str, int]] = []
    for instr in program.instructions:
        if isinstance(instr, Load):
            regs[instr.rd] = memory.get(instr.addr, initial(instr.addr))
            trace.append(("R", instr.addr))
        elif isinstance(instr, Store):
            memory[instr.addr] = regs[instr.rs]
            trace.append(("W", instr.addr))
        elif isinstance(instr, Const):
            regs[instr.rd] = vn.const(instr.imm)
        elif isinstance(instr, Binary):
            regs[instr.rd] = vn.binary(instr.op, regs[instr.ra], regs[instr.rb])
        elif isinstance(instr, Unary):
            regs[instr.rd] = vn.unary(instr.op, regs[instr.ra])
        elif isinstance(instr, Select):
            regs[instr.rd] = vn.select(
                regs[instr.rc], regs[instr.ra], regs[instr.rb]
            )
        else:  # pragma: no cover - unreachable with a validated program
            raise EquivalenceError(f"unknown instruction: {instr!r}")
    return SymbolicState(memory=memory, trace=tuple(trace))


@dataclass(frozen=True)
class EquivalenceProof:
    """Outcome of one equivalence check.

    Attributes
    ----------
    equivalent:
        Final memory maps match cell for cell.
    trace_equal:
        The two access sequences are identical (kind and address).
    checked_cells:
        Number of distinct cells compared.
    mismatches:
        ``(addr, reference expr, candidate expr)`` for differing cells
        (rendered, depth-capped; empty when ``equivalent``).
    reference, candidate:
        The compared programs' names.
    """

    equivalent: bool
    trace_equal: bool
    checked_cells: int
    mismatches: Tuple[Tuple[int, str, str], ...]
    reference: str
    candidate: str

    def describe(self) -> str:
        if self.equivalent:
            trace = "trace-identical" if self.trace_equal else "trace differs"
            return (
                f"{self.candidate} ≡ {self.reference}: all "
                f"{self.checked_cells} touched cells proven equal ({trace})"
            )
        addr, want, got = self.mismatches[0]
        return (
            f"{self.candidate} ≢ {self.reference}: {len(self.mismatches)} "
            f"cell(s) differ, first at m[{addr}]: reference computes {want}, "
            f"candidate computes {got}"
        )


def prove_equivalent(
    reference: Program,
    candidate: Program,
    *,
    require_same_trace: bool = False,
    raise_on_mismatch: bool = True,
    zero_from: Optional[int] = None,
    initial_map: Optional[Sequence[int]] = None,
    output_map: Optional[Sequence[int]] = None,
) -> EquivalenceProof:
    """Prove ``candidate`` computes the same final memory as ``reference``.

    This is the static guard behind ``optimize(..., verify=True)`` and
    ``compile_fused(..., verify=True)``.  With ``require_same_trace`` the
    access sequences must also match exactly (the level-1 contract).  On a
    mismatch an :class:`~repro.errors.EquivalenceError` carrying the first
    differing cell is raised, unless ``raise_on_mismatch`` is disabled, in
    which case the failing proof object is returned for inspection.

    ``zero_from`` models the engine zero-fill: memory cells at or beyond it
    start as the constant 0 rather than an opaque symbol (see
    :class:`ValueNumbering`).  Callers that know the packed input span (the
    autofix verifier does) get strictly more proofs — e.g. a load of
    never-written scratch rewritten to ``Const 0`` — without ever admitting
    one that could differ on a real engine.

    ``initial_map`` and ``output_map`` prove a *renaming* of the memory
    (the compaction of :mod:`repro.trace.compact`).  Candidate cell
    ``s < len(initial_map)`` starts as reference cell ``initial_map[s]``
    and every other candidate cell starts as zero (the kernel's fill).
    Only the reference's declared output words are compared, the ``i``-th
    of them (:meth:`~repro.trace.ir.Program.output_index`) against
    candidate cell ``output_map[i]``; a mismatch names the reference
    word.  The memory sizes may then differ.
    """
    renamed = initial_map is not None or output_map is not None
    if reference.dtype != candidate.dtype:
        raise EquivalenceError(
            f"programs disagree on dtype: {reference.dtype} vs "
            f"{candidate.dtype}",
            kind="structure",
        )
    if not renamed and reference.memory_words != candidate.memory_words:
        raise EquivalenceError(
            f"programs disagree on memory size: {reference.memory_words} vs "
            f"{candidate.memory_words} words",
            kind="structure",
        )
    vn = ValueNumbering(reference.dtype, zero_from=zero_from)
    ref_state = symbolic_state(reference, vn)
    if initial_map is None:
        cand_initial = vn.initial
    else:
        zero = vn.const(0)
        sources = [int(a) for a in initial_map]

        def cand_initial(slot: int) -> int:
            return vn.initial(sources[slot]) if slot < len(sources) else zero

    cand_state = symbolic_state(candidate, vn, cand_initial)

    if output_map is None:
        touched = sorted(set(ref_state.memory) | set(cand_state.memory))
        pairs = [(addr, addr) for addr in touched]
    else:
        words = reference.output_index().tolist()
        if len(output_map) != len(words):
            raise EquivalenceError(
                f"the output map names {len(output_map)} cell(s) for "
                f"{reference.name!r}'s {len(words)} declared word(s)",
                kind="structure",
            )
        pairs = list(zip(words, (int(s) for s in output_map)))
    mismatches: List[Tuple[int, str, str]] = []
    for addr, cell in pairs:
        want = ref_state.final_cell(vn, addr)
        got = cand_state.memory.get(cell, cand_initial(cell))
        if want != got:
            mismatches.append((addr, vn.describe(want), vn.describe(got)))
    trace_equal = ref_state.trace == cand_state.trace

    proof = EquivalenceProof(
        equivalent=not mismatches,
        trace_equal=trace_equal,
        checked_cells=len(pairs),
        mismatches=tuple(mismatches),
        reference=reference.name,
        candidate=candidate.name,
    )
    if raise_on_mismatch:
        if mismatches:
            addr, want, got = mismatches[0]
            raise EquivalenceError(
                f"{candidate.name!r} is not equivalent to "
                f"{reference.name!r}: {len(mismatches)} final memory cell(s) "
                f"differ, first at m[{addr}]: reference computes {want}, "
                f"candidate computes {got}",
                kind="memory",
                cell=addr,
                expected=want,
                actual=got,
            )
        if require_same_trace and not trace_equal:
            step = _first_trace_divergence(ref_state.trace, cand_state.trace)
            raise EquivalenceError(
                f"{candidate.name!r} changed the access trace of "
                f"{reference.name!r} at step {step}: "
                f"{_trace_at(ref_state.trace, step)} became "
                f"{_trace_at(cand_state.trace, step)} "
                f"(lengths {len(ref_state.trace)} vs {len(cand_state.trace)})",
                kind="trace",
                step=step,
            )
    return proof


def _first_trace_divergence(a, b) -> int:
    for i, (xa, xb) in enumerate(zip(a, b)):
        if xa != xb:
            return i
    return min(len(a), len(b))


def _trace_at(trace, step: int) -> str:
    if step >= len(trace):
        return "<end of trace>"
    kind, addr = trace[step]
    return f"{kind}({addr})"
