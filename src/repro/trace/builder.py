"""Authoring DSL for oblivious programs.

:class:`ProgramBuilder` records straight-line SSA as you compute with
:class:`Value` handles — ordinary Python loops unroll naturally, and
operator overloading keeps algorithm code close to the paper's pseudo-code.
Data-dependent branching is impossible by construction: a :class:`Value`
refuses to be coerced to ``bool``, steering authors to :meth:`ProgramBuilder
.select` / :meth:`minimum` / :meth:`maximum` (the paper's
``if r < s then s ← r else s ← s`` trick, generalised).

Example — Algorithm Prefix-sums (Section III)::

    b = ProgramBuilder(memory_words=n, name="prefix-sums")
    r = b.const(0.0)
    for i in range(n):
        r = r + b.load(i)
        b.store(i, r)
    program = b.build()

``build()`` runs liveness + linear-scan register allocation
(:mod:`repro.trace.regalloc`), validates the result, and returns an
immutable :class:`~repro.trace.ir.Program`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ObliviousnessError, ProgramError
from .ir import Binary, Const, Instruction, Load, Program, Select, Store, Unary
from .ops import BinaryOp, UnaryOp, require_dtype_supports
from .regalloc import allocate_registers

__all__ = ["ProgramBuilder", "Value"]

Scalar = Union[int, float]


class Value:
    """An SSA value produced by a :class:`ProgramBuilder`.

    Supports the arithmetic/comparison operators; mixing in Python scalars
    materialises them as (deduplicated) constants.
    """

    __slots__ = ("builder", "ssa")

    def __init__(self, builder: "ProgramBuilder", ssa: int) -> None:
        self.builder = builder
        self.ssa = ssa

    # -- arithmetic ----------------------------------------------------------
    def _bin(self, op: BinaryOp, other: "Value | Scalar", swap: bool = False) -> "Value":
        b = self.builder
        rhs = b.as_value(other)
        return b.binary(op, rhs, self) if swap else b.binary(op, self, rhs)

    def __add__(self, o): return self._bin(BinaryOp.ADD, o)
    def __radd__(self, o): return self._bin(BinaryOp.ADD, o, swap=True)
    def __sub__(self, o): return self._bin(BinaryOp.SUB, o)
    def __rsub__(self, o): return self._bin(BinaryOp.SUB, o, swap=True)
    def __mul__(self, o): return self._bin(BinaryOp.MUL, o)
    def __rmul__(self, o): return self._bin(BinaryOp.MUL, o, swap=True)
    def __truediv__(self, o): return self._bin(BinaryOp.DIV, o)
    def __rtruediv__(self, o): return self._bin(BinaryOp.DIV, o, swap=True)
    def __floordiv__(self, o): return self._bin(BinaryOp.DIV, o)
    def __mod__(self, o): return self._bin(BinaryOp.MOD, o)
    def __and__(self, o): return self._bin(BinaryOp.AND, o)
    def __or__(self, o): return self._bin(BinaryOp.OR, o)
    def __xor__(self, o): return self._bin(BinaryOp.XOR, o)
    def __lshift__(self, o): return self._bin(BinaryOp.SHL, o)
    def __rshift__(self, o): return self._bin(BinaryOp.SHR, o)
    def __lt__(self, o): return self._bin(BinaryOp.LT, o)
    def __le__(self, o): return self._bin(BinaryOp.LE, o)
    def __gt__(self, o): return self._bin(BinaryOp.GT, o)
    def __ge__(self, o): return self._bin(BinaryOp.GE, o)
    def __neg__(self): return self.builder.unary(UnaryOp.NEG, self)
    def __abs__(self): return self.builder.unary(UnaryOp.ABS, self)
    def __invert__(self): return self.builder.unary(UnaryOp.NOT, self)

    def eq(self, o: "Value | Scalar") -> "Value":
        """Elementwise equality as a 0/1 :class:`Value` (``==`` is kept as
        Python identity so Values stay hashable/dict-friendly)."""
        return self._bin(BinaryOp.EQ, o)

    def ne(self, o: "Value | Scalar") -> "Value":
        """Elementwise inequality as a 0/1 :class:`Value`."""
        return self._bin(BinaryOp.NE, o)

    def __bool__(self) -> bool:
        raise ObliviousnessError(
            "cannot branch on a traced Value: data-dependent control flow is "
            "not oblivious. Use builder.select(cond, a, b), minimum(), or "
            "maximum() instead (the paper's 'if r < s then s <- r else s <- s' "
            "device)."
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"%{self.ssa}"


class ProgramBuilder:
    """Accumulates an oblivious program as SSA straight-line code."""

    def __init__(
        self,
        memory_words: int,
        *,
        dtype: np.dtype | type = np.float64,
        name: str = "program",
    ) -> None:
        if memory_words <= 0:
            raise ProgramError(f"memory_words must be positive, got {memory_words}")
        self.memory_words = int(memory_words)
        self.dtype = np.dtype(dtype)
        self.name = name
        self._instrs: List[Instruction] = []
        self._next_ssa = 0
        self._const_cache: Dict[Union[int, float], Value] = {}
        self.meta: Dict[str, object] = {}
        #: Declared output ranges of the built program (``None``: the whole
        #: memory); see :attr:`repro.trace.ir.Program.outputs`.
        self.outputs: Optional[Tuple[Tuple[int, int], ...]] = None

    # -- plumbing --------------------------------------------------------------
    def _fresh(self) -> int:
        ssa = self._next_ssa
        self._next_ssa += 1
        return ssa

    def _own(self, v: Value, role: str) -> int:
        if v.builder is not self:
            raise ProgramError(f"{role} belongs to a different ProgramBuilder")
        return v.ssa

    def as_value(self, x: "Value | Scalar") -> Value:
        """Coerce a Python scalar to a (cached) constant; pass Values through."""
        if isinstance(x, Value):
            return x
        return self.const(x)

    def _check_addr(self, addr: int) -> int:
        addr = int(addr)
        if not 0 <= addr < self.memory_words:
            raise ProgramError(
                f"address {addr} out of range [0, {self.memory_words}) "
                f"in program {self.name!r}"
            )
        return addr

    # -- instruction emitters ----------------------------------------------------
    def const(self, imm: Scalar) -> Value:
        """``rd ← imm``.  Identical immediates share one SSA value."""
        # Keep integer keys exact: floats above 2**53 cannot distinguish
        # adjacent int64 immediates.  (Numerically equal int/float keys
        # hash alike in Python, which is the deduplication we want.)
        key = int(imm) if isinstance(imm, (bool, int)) else float(imm)
        cached = self._const_cache.get(key)
        if cached is not None:
            return cached
        ssa = self._fresh()
        self._instrs.append(Const(rd=ssa, imm=imm))
        v = Value(self, ssa)
        self._const_cache[key] = v
        return v

    def load(self, addr: int) -> Value:
        """``rd ← m[addr]`` — one memory access of the trace."""
        ssa = self._fresh()
        self._instrs.append(Load(rd=ssa, addr=self._check_addr(addr)))
        return Value(self, ssa)

    def store(self, addr: int, value: "Value | Scalar") -> None:
        """``m[addr] ← value`` — one memory access of the trace."""
        v = self.as_value(value)
        self._instrs.append(Store(addr=self._check_addr(addr), rs=self._own(v, "store operand")))

    def binary(self, op: BinaryOp, a: "Value | Scalar", b: "Value | Scalar") -> Value:
        """``rd ← a <op> b``."""
        require_dtype_supports(op, self.dtype)
        va, vb = self.as_value(a), self.as_value(b)
        ssa = self._fresh()
        self._instrs.append(
            Binary(op=op, rd=ssa, ra=self._own(va, "lhs"), rb=self._own(vb, "rhs"))
        )
        return Value(self, ssa)

    def unary(self, op: UnaryOp, a: "Value | Scalar") -> Value:
        """``rd ← <op> a``."""
        require_dtype_supports(op, self.dtype)
        va = self.as_value(a)
        ssa = self._fresh()
        self._instrs.append(Unary(op=op, rd=ssa, ra=self._own(va, "operand")))
        return Value(self, ssa)

    def select(
        self,
        cond: "Value | Scalar",
        if_true: "Value | Scalar",
        if_false: "Value | Scalar",
    ) -> Value:
        """``rd ← if_true if cond ≠ 0 else if_false`` — the oblivious branch."""
        vc, va, vb = map(self.as_value, (cond, if_true, if_false))
        ssa = self._fresh()
        self._instrs.append(
            Select(
                rd=ssa,
                rc=self._own(vc, "condition"),
                ra=self._own(va, "true arm"),
                rb=self._own(vb, "false arm"),
            )
        )
        return Value(self, ssa)

    # -- convenience -------------------------------------------------------------
    def minimum(self, a: "Value | Scalar", b: "Value | Scalar") -> Value:
        """``min(a, b)`` without branching."""
        return self.binary(BinaryOp.MIN, a, b)

    def maximum(self, a: "Value | Scalar", b: "Value | Scalar") -> Value:
        """``max(a, b)`` without branching."""
        return self.binary(BinaryOp.MAX, a, b)

    def copy(self, a: "Value | Scalar") -> Value:
        """A fresh SSA copy of ``a``."""
        return self.unary(UnaryOp.COPY, a)

    # -- finalisation ---------------------------------------------------------
    @property
    def num_instructions(self) -> int:
        """Instructions emitted so far (SSA form)."""
        return len(self._instrs)

    def build(
        self,
        *,
        allocate: bool = True,
        validate: bool = True,
        opt_level: int = 0,
    ) -> Program:
        """Freeze into a :class:`Program`.

        ``allocate=False`` keeps SSA ids as the register file (used by the
        register-allocation ablation bench); ``validate=False`` skips the
        structural check for very large generated programs where the builder
        already guarantees well-formedness.

        ``opt_level`` runs the optimiser *on the SSA form*, where
        store-to-load forwarding sees every value (post-allocation register
        reuse hides most of them): 1 = trace-preserving folding/DCE, 2 =
        additionally forward stores and drop dead stores (shortens the
        priced trace ``t``; see :mod:`repro.trace.optimize`).
        """
        if not self._instrs:
            raise ProgramError(f"program {self.name!r} is empty")
        source = self._instrs
        if opt_level:
            from .ir import Const as _Const
            from .optimize import (
                eliminate_dead_code,
                eliminate_dead_stores,
                fold_constants,
                forward_stores,
            )

            if opt_level not in (1, 2):
                raise ProgramError(
                    f"unknown optimisation level {opt_level}; expected 0, 1 or 2"
                )
            source = fold_constants(list(source), self.dtype)
            if opt_level >= 2:
                source = forward_stores(source)
                source = eliminate_dead_stores(source)
                source = fold_constants(source, self.dtype)
            source = eliminate_dead_code(
                source, remove_dead_loads=opt_level >= 2
            )
            if not source:
                source = [_Const(rd=0, imm=0.0)]
        if allocate:
            instrs, num_regs = allocate_registers(source)
        else:
            instrs, num_regs = list(source), max(self._next_ssa, 1)
        program = Program(
            instructions=tuple(instrs),
            num_registers=num_regs,
            memory_words=self.memory_words,
            dtype=self.dtype,
            name=self.name,
            meta=dict(self.meta),
            outputs=self.outputs,
        )
        if validate:
            program.validate()
        return program
