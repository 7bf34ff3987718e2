"""C99 code generation from the oblivious IR.

The paper's conclusion proposes a system that "automatically converts a
sequential program written in C language into a CUDA C program for the bulk
execution".  This module is the native half of that system, in reverse
direction: from a traced :class:`Program` it emits

* ``<name>_run_one`` — the sequential algorithm (the paper's CPU code),
* ``<name>_bulk_column`` — the bulk execution over a column-wise buffer
  (``word i`` of input ``j`` at ``mem[i*p + j]``; the inner loop runs over
  ``j``, so every access is unit-stride — the coalesced pattern),
* ``<name>_bulk_row`` — the row-wise variant (``mem[j*WORDS + i]``,
  stride-``WORDS`` inner accesses — the non-coalesced pattern).

The emitted source is self-contained C99; :mod:`repro.codegen.compile`
builds it with the system compiler and cross-checks it against the Python
engine.  Integer programs use ``int64_t`` with branch-free helpers that
implement the semantic table of :mod:`repro.trace.replay` (NumPy's
wraparound, divisor and shift-count results).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ProgramError
from ..trace.ir import Binary, Const, Load, Program, Select, Store, Unary
from ..trace.ops import BinaryOp, UnaryOp

__all__ = [
    "emit_c",
    "emit_bulk_c",
    "c_symbol_names",
    "lane_independent",
    "helper_source",
    "BULK_KERNEL_SYMBOL",
]

#: Exported symbol of every :func:`emit_bulk_c` translation unit.  The unit
#: is identified by its content hash (see :mod:`repro.codegen.cache`), so a
#: fixed name keeps loading trivial and the source byte-stable.
BULK_KERNEL_SYMBOL = "repro_bulk_kernel"

_PRELUDE = """\
/* Generated by repro.codegen — bulk execution of an oblivious algorithm.
 * Program: {name} ({n_instr} instructions, t = {t} memory accesses,
 * {regs} registers, {words} words per input, dtype {dtype}). */
#include <stdint.h>
#include <math.h>
#include <stddef.h>

{helpers}"""

#: The semantic helpers the emitted bodies call (``{qualifier}`` is the
#: declaration qualifier).  One text feeds the C prelude and the CUDA
#: header (:func:`helper_source`), so every emitter defines exactly the
#: helpers :func:`_emit_body` calls.
_HELPERS = """\
/* int64 semantics of repro.trace.replay's table (NumPy's): wraparound
 * through uint64_t; a zero divisor gives 0; MIN / -1 wraps to MIN and
 * MIN % -1 is 0; shift counts outside [0, 64) give 0 (SHR of a negative
 * value: -1).  Every helper is branch-free. */
{qualifier} int64_t i64_add(int64_t a, int64_t b) {{
    return (int64_t)((uint64_t)a + (uint64_t)b);
}}
{qualifier} int64_t i64_sub(int64_t a, int64_t b) {{
    return (int64_t)((uint64_t)a - (uint64_t)b);
}}
{qualifier} int64_t i64_mul(int64_t a, int64_t b) {{
    return (int64_t)((uint64_t)a * (uint64_t)b);
}}
{qualifier} int64_t i64_neg(int64_t a) {{
    return (int64_t)(0 - (uint64_t)a);
}}
{qualifier} int64_t i64_abs(int64_t a) {{
    return (a < 0) ? i64_neg(a) : a;
}}
{qualifier} int64_t i64_divisor(int64_t a, int64_t b) {{
    return ((b == 0) | ((b == -1) & (a == INT64_MIN))) ? 1 : b;
}}
{qualifier} int64_t i64_fdiv(int64_t a, int64_t b) {{
    int64_t d = i64_divisor(a, b);
    int64_t q = a / d;
    q -= (a % d != 0) & ((a < 0) != (d < 0));
    return (b == 0) ? 0 : q;
}}
{qualifier} int64_t i64_fmod(int64_t a, int64_t b) {{
    int64_t d = i64_divisor(a, b);
    int64_t r = a % d;
    return ((r != 0) & ((r < 0) != (d < 0))) ? r + d : r;
}}
{qualifier} int64_t i64_shl(int64_t a, int64_t b) {{
    return ((uint64_t)b < 64) ? (int64_t)((uint64_t)a << (b & 63)) : 0;
}}
{qualifier} int64_t i64_shr(int64_t a, int64_t b) {{
    return a >> (((uint64_t)b < 64) ? (b & 63) : 63);
}}
/* float64: np.mod signs a zero result like the divisor; np.minimum and
 * np.maximum propagate NaN. */
{qualifier} double f64_fmod(double a, double b) {{
    double r = fmod(a, b);
    double m = ((r < 0.0) != (b < 0.0)) ? r + b : r;
    return (r == 0.0) ? copysign(0.0, b) : m;
}}
"""


def helper_source(qualifier: str = "static inline") -> str:
    """Every helper of :data:`_HELPERS`, each declared ``qualifier``."""
    return _HELPERS.format(qualifier=qualifier)


#: The output scatter's store (``{ctype}`` is the kernel's element type).
#: An 8-byte non-temporal store writes an output line without first
#: reading it (no read-for-ownership); ``memcpy`` puns the int64 or
#: float64 bits.  Streamed stores are weakly ordered, so each tile fences
#: after its scatter.  The preprocessor picks the branch: targets without
#: SSE2 on x86-64 get a plain store and an empty fence.  The schedule
#: certifier pins this text (``repro.analysis.schedule``).
_STREAM_HELPERS = """\
#if defined(__SSE2__) && defined(__x86_64__)
#include <emmintrin.h>
#include <string.h>
static inline void stream_word({ctype} *dst, {ctype} v) {{
    long long bits;
    memcpy(&bits, &v, sizeof bits);
    _mm_stream_si64((long long *)dst, bits);
}}
#define STREAM_FENCE() _mm_sfence()
#else
static inline void stream_word({ctype} *dst, {ctype} v) {{
    dst[0] = v;
}}
#define STREAM_FENCE() ((void)0)
#endif
"""

_BIN_FLOAT = {
    BinaryOp.ADD: "({a} + {b})",
    BinaryOp.SUB: "({a} - {b})",
    BinaryOp.MUL: "({a} * {b})",
    BinaryOp.DIV: "({a} / {b})",
    BinaryOp.MOD: "f64_fmod({a}, {b})",
    BinaryOp.MIN: "((({a} < {b}) | ({a} != {a})) ? {a} : {b})",
    BinaryOp.MAX: "((({a} > {b}) | ({a} != {a})) ? {a} : {b})",
    BinaryOp.LT: "(double)({a} < {b})",
    BinaryOp.LE: "(double)({a} <= {b})",
    BinaryOp.GT: "(double)({a} > {b})",
    BinaryOp.GE: "(double)({a} >= {b})",
    BinaryOp.EQ: "(double)({a} == {b})",
    BinaryOp.NE: "(double)({a} != {b})",
}

_BIN_INT = {
    BinaryOp.ADD: "i64_add({a}, {b})",
    BinaryOp.SUB: "i64_sub({a}, {b})",
    BinaryOp.MUL: "i64_mul({a}, {b})",
    BinaryOp.DIV: "i64_fdiv({a}, {b})",
    BinaryOp.MOD: "i64_fmod({a}, {b})",
    BinaryOp.MIN: "(({a} < {b}) ? {a} : {b})",
    BinaryOp.MAX: "(({a} > {b}) ? {a} : {b})",
    BinaryOp.AND: "({a} & {b})",
    BinaryOp.OR: "({a} | {b})",
    BinaryOp.XOR: "({a} ^ {b})",
    BinaryOp.SHL: "i64_shl({a}, {b})",
    BinaryOp.SHR: "i64_shr({a}, {b})",
    BinaryOp.LT: "(int64_t)({a} < {b})",
    BinaryOp.LE: "(int64_t)({a} <= {b})",
    BinaryOp.GT: "(int64_t)({a} > {b})",
    BinaryOp.GE: "(int64_t)({a} >= {b})",
    BinaryOp.EQ: "(int64_t)({a} == {b})",
    BinaryOp.NE: "(int64_t)({a} != {b})",
}


def _prelude(program: Program) -> str:
    return _PRELUDE.format(
        name=program.name,
        n_instr=program.num_instructions,
        t=program.trace_length,
        regs=program.num_registers,
        words=program.memory_words,
        dtype=program.dtype,
        helpers=helper_source(),
    )


def _ctype(program: Program) -> str:
    if program.dtype == np.int64:
        return "int64_t"
    if program.dtype == np.float64:
        return "double"
    raise ProgramError(
        f"C emission supports float64 and int64 programs, got {program.dtype}"
    )


def _imm(program: Program, value) -> str:
    if np.issubdtype(program.dtype, np.integer):
        return f"INT64_C({int(value)})"
    return repr(float(value))


def c_symbol_names(program: Program) -> dict:
    """Exported function names for a program (sanitised from its name)."""
    base = "".join(ch if ch.isalnum() else "_" for ch in program.name)
    return {
        "run_one": f"{base}_run_one",
        "bulk_column": f"{base}_bulk_column",
        "bulk_row": f"{base}_bulk_row",
    }


def _expr(program: Program, instr, ra: str, rb: str = "") -> str:
    table = _BIN_INT if np.issubdtype(program.dtype, np.integer) else _BIN_FLOAT
    if isinstance(instr, Binary):
        try:
            return table[instr.op].format(a=ra, b=rb)
        except KeyError:
            raise ProgramError(
                f"opcode {instr.op} is invalid for dtype {program.dtype}"
            ) from None
    raise ProgramError(f"not a binary instruction: {instr!r}")


def _unary_expr(program: Program, instr, ra: str) -> str:
    is_int = np.issubdtype(program.dtype, np.integer)
    if instr.op is UnaryOp.NEG:
        return f"i64_neg({ra})" if is_int else f"(-{ra})"
    if instr.op is UnaryOp.ABS:
        return f"i64_abs({ra})" if is_int else f"fabs({ra})"
    if instr.op is UnaryOp.NOT:
        if not is_int:
            raise ProgramError("NOT requires an integer program dtype")
        return f"(~{ra})"
    if instr.op is UnaryOp.COPY:
        return ra
    raise ProgramError(f"unknown unary op {instr.op}")


def _emit_instr(program: Program, instr, read: str, write: str, indent: str) -> str:
    """One instruction as a C statement with access templates applied."""
    if isinstance(instr, Const):
        return f"{indent}r{instr.rd} = {_imm(program, instr.imm)};"
    if isinstance(instr, Load):
        return f"{indent}r{instr.rd} = {read.format(addr=instr.addr)};"
    if isinstance(instr, Store):
        return f"{indent}{write.format(addr=instr.addr)} = r{instr.rs};"
    if isinstance(instr, Binary):
        return (
            f"{indent}r{instr.rd} = "
            f"{_expr(program, instr, f'r{instr.ra}', f'r{instr.rb}')};"
        )
    if isinstance(instr, Unary):
        return f"{indent}r{instr.rd} = {_unary_expr(program, instr, f'r{instr.ra}')};"
    if isinstance(instr, Select):
        return (
            f"{indent}r{instr.rd} = (r{instr.rc} != 0) ? "
            f"r{instr.ra} : r{instr.rb};"
        )
    raise ProgramError(f"unknown instruction {instr!r}")  # pragma: no cover


def _emit_body(program: Program, read: str, write: str, indent: str) -> List[str]:
    """The instruction sequence with ``read``/``write`` access templates."""
    return [
        _emit_instr(program, instr, read, write, indent)
        for instr in program.instructions
    ]


def emit_c(program: Program) -> str:
    """The complete C99 translation unit for ``program``."""
    program.validate()
    ctype = _ctype(program)
    names = c_symbol_names(program)
    regs = ", ".join(f"r{i}" for i in range(program.num_registers))
    decl = f"    {ctype} {regs};"

    out: List[str] = [
        _prelude(program)
    ]

    # 1. Sequential version (the paper's CPU program).
    out.append(f"void {names['run_one']}({ctype} *mem) {{")
    out.append(decl)
    out.extend(_emit_body(program, "mem[{addr}]", "mem[{addr}]", "    "))
    out.append("}\n")

    # 2. Bulk, column-wise: word i of input j at mem[i*p + j].  The loop
    #    over j is innermost per thread; in CUDA j is the thread id and
    #    this is the coalesced kernel.  Here the per-input loop simply
    #    calls the thread body.
    out.append(
        f"void {names['bulk_column']}({ctype} *mem, long p) {{\n"
        "    for (long j = 0; j < p; ++j) {"
    )
    out.append("    " + decl)
    out.extend(
        _emit_body(
            program,
            "mem[(size_t){addr} * (size_t)p + (size_t)j]",
            "mem[(size_t){addr} * (size_t)p + (size_t)j]",
            "        ",
        )
    )
    out.append("    }\n}\n")

    # 3. Bulk, row-wise: word i of input j at mem[j*WORDS + i].
    out.append(
        f"void {names['bulk_row']}({ctype} *mem, long p) {{\n"
        "    for (long j = 0; j < p; ++j) {"
    )
    out.append("    " + decl)
    words = program.memory_words
    out.extend(
        _emit_body(
            program,
            f"mem[(size_t)j * {words} + {{addr}}]",
            f"mem[(size_t)j * {words} + {{addr}}]",
            "        ",
        )
    )
    out.append("    }\n}")
    return "\n".join(out) + "\n"


def lane_independent(program: Program) -> bool:
    """Is the program certified free of cross-lane dependences?

    The IR is straight-line with literal addresses, so lane ``j`` only ever
    touches its own column/row of the tile slab *by construction* —
    but rather than asserting folklore, this consults the lint memory
    analysis: a program with no ``ERROR``-severity finding (in-bounds
    addressing, clean register discipline) carries the certificates that
    license ``#pragma omp simd`` / ``ivdep`` hints and the lane-parallel
    OpenMP loop in :func:`emit_bulk_c`.
    """
    from ..analysis.lint.memory import check_memory

    try:
        diagnostics, _ = check_memory(program)
    except Exception:  # pragma: no cover - analysis must never block emission
        return False
    from ..analysis.lint.diagnostics import Severity

    return not any(d.severity is Severity.ERROR for d in diagnostics)


def _chunk_liveness(chunks: List[list]) -> "tuple[List[set], List[set]]":
    """Per-chunk live-in/live-out register sets (backward dataflow).

    ``livein[ci]`` is the set of registers chunk ``ci`` may read before
    writing; ``liveout[ci]`` the set a later chunk still needs.  Only those
    registers cross the spill slab — everything else lives in C locals the
    optimiser keeps in machine registers.
    """
    defs: List[set] = []
    uses: List[set] = []
    for chunk_instrs in chunks:
        written: set = set()
        read: set = set()
        for instr in chunk_instrs:
            if isinstance(instr, Store):
                srcs = (instr.rs,)
            elif isinstance(instr, Binary):
                srcs = (instr.ra, instr.rb)
            elif isinstance(instr, Unary):
                srcs = (instr.ra,)
            elif isinstance(instr, Select):
                srcs = (instr.rc, instr.ra, instr.rb)
            else:
                srcs = ()
            for r in srcs:
                if r not in written:
                    read.add(r)
            if not isinstance(instr, Store):
                written.add(instr.rd)
        defs.append(written)
        uses.append(read)
    n = len(chunks)
    livein = [set() for _ in range(n)]
    liveout = [set() for _ in range(n)]
    live: set = set()
    for i in range(n - 1, -1, -1):
        liveout[i] = set(live)
        live = (live - defs[i]) | uses[i]
        livein[i] = set(live)
    return livein, liveout


def _forwarded_chunk_body(
    program: Program, chunk_instrs: list, access: str, livein: set
) -> List[str]:
    """One chunk's lane-loop body with load/store forwarding.

    A ``Load`` whose address was written earlier in the chunk reuses the
    forwarded expression instead of re-reading memory (the bulk traces are
    load-heavy: ~95% of OPT's loads are redundant at an infinite window).
    The availability map is killed on every write to the forwarding
    register, so aliasing through register reuse stays exact.
    """
    ctype = _ctype(program)
    table = _BIN_INT if np.issubdtype(program.dtype, np.integer) else _BIN_FLOAT
    body = [f"        {ctype} r{r} = regs[{r} * TILE + jj];" for r in sorted(livein)]
    declared = set(livein)

    def decl(r: int) -> str:
        if r not in declared:
            declared.add(r)
            return f"{ctype} r{r}"
        return f"r{r}"

    avail: dict = {}

    def kill(rd: int) -> None:
        dead = [a for a, e in avail.items() if e == f"r{rd}"]
        for a in dead:
            del avail[a]

    fresh = 0
    for instr in chunk_instrs:
        if isinstance(instr, Load):
            hit = avail.get(instr.addr)
            if hit is not None:
                kill(instr.rd)
                body.append(f"        {decl(instr.rd)} = {hit};")
            else:
                v = f"v{fresh}"
                fresh += 1
                body.append(
                    f"        {ctype} {v} = {access.format(addr=instr.addr)};"
                )
                kill(instr.rd)
                body.append(f"        {decl(instr.rd)} = {v};")
                avail[instr.addr] = v
        elif isinstance(instr, Store):
            body.append(f"        {access.format(addr=instr.addr)} = r{instr.rs};")
            avail[instr.addr] = f"r{instr.rs}"
        elif isinstance(instr, Binary):
            expr = table[instr.op].format(a=f"r{instr.ra}", b=f"r{instr.rb}")
            kill(instr.rd)
            body.append(f"        {decl(instr.rd)} = {expr};")
        elif isinstance(instr, Unary):
            expr = _unary_expr(program, instr, f"r{instr.ra}")
            kill(instr.rd)
            body.append(f"        {decl(instr.rd)} = {expr};")
        elif isinstance(instr, Select):
            kill(instr.rd)
            body.append(
                f"        {decl(instr.rd)} = (r{instr.rc} != 0) ? "
                f"r{instr.ra} : r{instr.rb};"
            )
        elif isinstance(instr, Const):
            kill(instr.rd)
            body.append(f"        {decl(instr.rd)} = {_imm(program, instr.imm)};")
        else:  # pragma: no cover - unreachable with a validated program
            raise ProgramError(f"unknown instruction {instr!r}")
    return body


#: Slab address maps of the native bulk kernel, restricted to one tile:
#: word ``a`` of tile lane ``jj`` lives at ``a*TILE + jj`` (column — the
#: arrangement's ``a*p + j`` with ``p`` narrowed to the tile) or at
#: ``jj*STRIDE + a`` (row and padded-row).  ``{a}``/``{jj}`` are filled
#: with an address literal and the lane expression.
_SLAB_MAPS = {
    "column": "{a} * TILE + {jj}",
    "row": "{jj} * STRIDE + {a}",
}


def _shifted(shift: int) -> str:
    """The output column of slot ``a`` in a scatter run shifted by
    ``shift`` (the run's first slot less its first column)."""
    if shift > 0:
        return f"a - {shift}"
    return f"a + {-shift}" if shift else "a"


def _tile_driver(ctype: str, layout: str, n_chunks: int, runs) -> List[str]:
    """The fused gather → compute → scatter loop over lane tiles.

    The kernel first counts the read-first slots its ``k`` input words
    feed, ``r = #{s : IMAP[s] < k}`` (``IMAP`` is increasing, so they are
    slots ``[0, r)``).  Each tile owns two stack arrays: the data slab
    ``slab[SLAB]`` (the tile's shared memory in the DMM sense) and the
    register slab.  The tile gathers slot ``s < r`` of each lane from
    input word ``IMAP[s]`` of the row-major ``(P, k)`` input matrix,
    zero-fills slots ``[r, WORDS)`` (and every slot of the lanes a ragged
    last tile lacks), runs the chunks, and scatters the declared output
    words of its real lanes into the row-major ``(P, OUT_WORDS)`` output
    image through ``stream_word`` (:data:`_STREAM_HELPERS`), one loop nest
    per run of consecutive output slots (``runs``, in column order), then
    fences.  The tile loop is the OpenMP work-sharing loop; without
    ``-fopenmp`` the pragma is not compiled and the identical code runs
    single-threaded.
    """
    at = _SLAB_MAPS[layout].format(a="a", jj="jj")
    lines = [
        f"void {BULK_KERNEL_SYMBOL}(const {ctype} *restrict in, long k, "
        f"{ctype} *restrict out) {{",
        "    long r = 0;  /* read-first slots [0, r) gather input words */",
        "    while (IMAP[r] < k) ++r;",
        "#if defined(_OPENMP) && (THREADS > 1)",
        "#pragma omp parallel for schedule(static) num_threads(THREADS)",
        "#endif",
        "    for (long j0 = 0; j0 < P; j0 += TILE) {",
        f"        {ctype} slab[SLAB];",
        f"        {ctype} regs[NREGS * TILE];",
        "        long len = (P - j0 < TILE) ? P - j0 : TILE;",
        "        for (long i = 0; i < NREGS * TILE; ++i) regs[i] = 0;",
        "        if (len < TILE) for (long i = 0; i < SLAB; ++i) slab[i] = 0;",
        "        for (long a = 0; a < r; ++a)",
        "            for (long jj = 0; jj < len; ++jj)",
        f"                slab[{at}] = in[(j0 + jj) * k + IMAP[a]];",
        "        for (long a = r; a < WORDS; ++a)",
        "            for (long jj = 0; jj < TILE; ++jj)",
        f"                slab[{at}] = 0;",
    ]
    lines += [f"        chunk_{ci}(slab, regs);" for ci in range(n_chunks)]
    column = 0  # output column of each run's first slot
    for lo, hi in runs:
        lines += [
            "        for (long jj = 0; jj < len; ++jj)",
            f"            for (long a = {lo}; a < {hi}; ++a)",
            f"                stream_word(&out[(j0 + jj) * OUT_WORDS + "
            f"{_shifted(lo - column)}], slab[{at}]);",
        ]
        column += hi - lo
    lines += [
        "        STREAM_FENCE();",
        "    }",
        "}",
    ]
    return lines


def emit_bulk_c(
    program: Program,
    layout: str = "column",
    *,
    p: int,
    stride: int = 0,
    chunk: int = 512,
    tile: int = 8,
    threads: int = 1,
) -> str:
    """A native *bulk* kernel: the whole program over the ``p`` axis.

    Unlike :func:`emit_c`'s reference loops, this is the performance
    emission the ``backend="native"`` engine runs.  The exported
    :data:`BULK_KERNEL_SYMBOL` has the ABI
    ``kernel(const T *in, long k, T *out)``: ``in`` is the caller's
    row-major ``(p, k)`` input matrix (``k <= memory_words``), ``out`` a
    row-major ``(p, OUT_WORDS)`` output image the kernel fills
    completely with each lane's declared output words
    (:attr:`~repro.trace.ir.Program.output_ranges`, in range order; the
    whole memory when the program declares none).  There is no arranged
    global buffer:

    * the kernel runs the program's **compaction**
      (:func:`repro.trace.compact.compact_memory`): memory words renamed
      to the slots they keep live, ``WORDS`` of them per lane.  The
      read-first slots ``[0, NREAD)`` start from the source words of the
      static input map ``IMAP`` (increasing); the kernel counts the
      prefix ``r`` of them its ``k`` input words feed, and every other
      slot starts at zero.
    * lanes are processed in tiles of ``tile`` lanes.  Each tile gathers
      its inputs through ``IMAP`` into a **tile-private stack slab** of
      ``WORDS x tile`` words (``(WORDS + stride - memory_words) x tile``
      for row layouts, which keep their padding over the compact width),
      runs the program on the slab and scatters the declared words'
      slots into ``out`` — the CPU analogue of a CUDA block staging data
      through shared memory.  ``tile`` is therefore a *slab* size: the
      slab should stay cache-resident, and the engine refuses tiles whose
      slab exceeds a fixed stack budget.
    * the slab's address map is the arrangement's map restricted to one
      tile (:data:`_SLAB_MAPS`): ``a*TILE + jj`` for ``layout="column"``,
      ``jj*STRIDE + a`` for ``layout="row"`` (row-wise and padded
      row-wise, via ``stride``).  One driver serves every layout, and the
      row layouts keep their strided, non-coalesced access pattern.
    * ``p``, ``tile``, the word counts and the input map are
      **compile-time constants**, and a ragged last tile zero-fills the
      lanes it lacks (they compute on zeros and are never scattered), so
      every lane loop has the constant trip count ``TILE`` and
      auto-vectorises.
    * the straight-line program is split into chunks of ``chunk``
      instructions, each a small ``static`` function with one loop over
      the tile's lanes.  Loads are forwarded from earlier stores/loads in
      the chunk and only the registers *live* across a chunk boundary
      cross the register slab (:func:`_chunk_liveness`).
    * lanes are independent, so any chunk/tile split — and any thread
      partition of the tile loop — is valid; results are bit-identical to
      the NumPy engine (``-std=c99`` keeps FP contraction off, and every
      expression matches :func:`emit_c`).
    * ``threads > 1`` emits an OpenMP ``parallel for`` over tiles; both
      slabs are declared inside the tile loop, so each tile's are private.
      Without ``-fopenmp`` the pragma vanishes and the same source runs
      single-threaded, bit-identically.
    * SIMD hints (``#pragma omp simd`` under OpenMP, ``GCC ivdep``
      otherwise) are only emitted when :func:`lane_independent` certifies
      the program via the lint memory analysis.

    Every parameter above is baked into the source, hence into the
    content-addressed cache key.
    """
    from ..trace.compact import compact_memory

    program.validate()
    ctype = _ctype(program)
    if p <= 0:
        raise ProgramError(f"p must be positive, got {p}")
    if chunk <= 0 or tile <= 0:
        raise ProgramError("chunk and tile must be positive")
    if threads < 1:
        raise ProgramError(f"threads must be >= 1, got {threads}")
    if layout == "row" and stride < program.memory_words:
        raise ProgramError(
            f"row stride {stride} smaller than memory ({program.memory_words})"
        )
    if layout not in _SLAB_MAPS:
        raise ProgramError(f"unknown bulk layout {layout!r}")
    compaction = compact_memory(program, verify=False)
    words = compaction.width
    if layout == "row":
        stride += words - program.memory_words  # the padding, kept
        slab_words = stride * tile
    else:
        slab_words = words * tile
    access = "mem[" + _SLAB_MAPS[layout].format(a="{addr}", jj="jj") + "]"
    imap = ", ".join(str(a) for a in (*compaction.imap, program.memory_words))

    nregs = program.num_registers
    out: List[str] = [
        _prelude(program),
        _STREAM_HELPERS.format(ctype=ctype),
        # Machine-readable schedule claim, cross-checked against the
        # #defines and the requested configuration by the schedule
        # certifier (repro.analysis.schedule) — the emitter states what
        # schedule it believes it emitted, and the certifier re-derives
        # the schedule from the code itself and compares.
        f"/* schedule: layout={layout} p={p} words={words} stride={stride} "
        f"chunk={chunk} tile={tile} threads={threads} */",
        f"#define P {p}L            /* lanes */",
        f"#define WORDS {words}L    /* words per lane (slab lane width) */",
        f"#define OUT_WORDS {program.output_words}L  /* output row width: "
        f"the declared words */",
        f"#define STRIDE {stride}L  /* slab lane stride of row layouts */",
        f"#define TILE {tile}L",
        f"#define SLAB {slab_words}L  /* words of the tile-private slab */",
        f"#define NREGS {nregs}",
        f"#define THREADS {threads}",
        f"#define NREAD {len(compaction.imap)}L  /* read-first slots: "
        f"[0, NREAD) start as input words IMAP */",
        # The sentinel memory_words (>= k) ends the kernel's prefix count.
        f"static const long IMAP[NREAD + 1] = {{{imap}}};",
    ]
    if lane_independent(program):
        # Licensed by the lane-independence certificate (lint memory
        # analysis): no lane reads another lane's slab words, so the lane
        # loop carries no dependence and may vectorise unconditionally.
        out.append("#if defined(_OPENMP)")
        out.append('#define LANE_HINT _Pragma("omp simd")')
        out.append("#else")
        out.append('#define LANE_HINT _Pragma("GCC ivdep")')
        out.append("#endif")
    else:
        out.append("#define LANE_HINT")
    out.append("")

    renamed = compaction.program
    instrs = list(renamed.instructions)
    chunks = [instrs[i : i + chunk] for i in range(0, len(instrs), chunk)] or [[]]
    livein, liveout = _chunk_liveness(chunks)
    for ci, chunk_instrs in enumerate(chunks):
        out.append(
            f"static void chunk_{ci}({ctype} *restrict mem, "
            f"{ctype} *restrict regs) {{"
        )
        out.append("    LANE_HINT")
        out.append("    for (long jj = 0; jj < TILE; ++jj) {")
        out.extend(
            _forwarded_chunk_body(renamed, chunk_instrs, access, livein[ci])
        )
        out.extend(
            f"        regs[{r} * TILE + jj] = r{r};" for r in sorted(liveout[ci])
        )
        out.append("    }\n}\n")

    out.extend(_tile_driver(ctype, layout, len(chunks), compaction.out_runs))
    return "\n".join(out) + "\n"
