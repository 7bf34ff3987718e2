"""Static schedule certification of the native tiled/threaded kernels.

The paper's correctness story rests on obliviousness: each lane's address
trace is fixed by ``(program, arrangement, lane)`` alone, so bulk execution
is *provable*, not merely testable.  The native backend complicates that
chain — the emitted kernel gathers lane tiles into private slabs, splits
the program into instruction chunks, spills registers, forwards loads,
scatters the slabs back and work-shares the tile loop over OpenMP threads.

This module is a certifier that **proves, per
``(program, arrangement, tile, threads)`` configuration**, that the
schedule commutes with the arrangement's address map.  Like the
codegen linter it works on the *emitted source text*, never on the
emitter's own bookkeeping (the thing being checked must not check itself):
the schedule is re-derived from the C and replayed symbolically with the
same value-numbering engine that backs the pass-equivalence prover.

Three proof obligations (see ``docs/SCHEDULE.md``):

**Trace preservation** (``OBL-S701``)
    One symbolic lane is replayed through the chunk bodies in the driver's
    call order: every parsed statement must align with the next IR
    instruction, every access must carry the IR's address, every store's
    symbolic value must equal — by value number — what the sequential
    reference computes, constants must match bit-for-bit, compute
    statements must wire exactly the IR's operand registers, and spilled
    registers must round-trip the per-tile register slab (zero-initialised,
    exactly as the engines zero the register file).  The bodies are
    lane-uniform (``jj`` stays symbolic), so one replay covers every lane
    of every tile.  The lockstep reference is
    :func:`~.lint.equiv.symbolic_state`'s semantics — this is the prover
    extension, not a new engine.  The tile driver's data movement carries
    its own obligations: the gather must copy input word ``a`` of lane
    ``j0 + jj`` into the slab at the layout's map, words ``[k, WORDS)``
    and a ragged tile's absent lanes must be zeroed first, and the scatter
    must write every declared output word of each real lane exactly once,
    to its own column of its own output row, after the last chunk, and no
    undeclared word (index maps and ``OUT_WORDS`` ``OBL-S703``, coverage
    and order ``OBL-S701``, undeclared or repeated words and lane bounds
    ``OBL-S702``).  The scatter writes through
    ``stream_word(&out[...], slab[...])``, a non-temporal store whose
    definition (and ``STREAM_FENCE``'s) must be the pinned text
    (``OBL-S703``); a ``STREAM_FENCE()`` must follow it inside the tile
    loop, and no other statement may write ``out`` (``OBL-S702``:
    streamed stores are weakly ordered across threads).

**Race freedom** (``OBL-S702``/``OBL-S703``)
    The tile loop's ``(init, bound, step)`` are parsed and simulated over
    the integers: the resulting tiles must partition ``[0, p)`` exactly —
    no overlap (a write-write race between OpenMP threads), no gap (lost
    lanes), no excursion past ``p``.  Each tile scatters only its own
    lanes' output rows.  The slab map must be injective: ``a·TILE + jj``
    with ``jj < TILE`` (column) or ``jj·STRIDE + a`` with ``a < WORDS ≤
    STRIDE`` (row) decomposes uniquely inside the ``SLAB``-word slab.
    Both slabs (data and registers) must be declared *inside* the tile
    loop (tile-private) and the ``#pragma omp parallel for
    schedule(static)`` must govern the tile loop itself.

**Forwarding soundness** (``OBL-S704``)
    An elided load is admitted only when the forwarded variable's value
    number equals the current symbolic content of the addressed cell —
    i.e. the load is dominated by a same-address access with no aliasing
    store in between.  This is the only forwarding proof: the codegen
    certifier (``certify_program_codegen``) routes its native bulk
    emissions through it.

What is trusted: the per-statement arithmetic (``(a + b)`` really adds) is
certified by the emitted-code rules (``OBL-E30x``) plus the bit-identity
suites; this module certifies the *dataflow between* statements — which
values flow where, in what order, under which thread partition.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ProgramError
from ..trace.ir import Binary, Const, Load, Program, Select, Store, Unary
from .lint.diagnostics import Diagnostic, Severity
from .lint.equiv import ValueNumbering
from .lint.rules import diag

__all__ = [
    "ScheduleConfig",
    "ScheduleProof",
    "schedule_config",
    "certify_bulk_schedule",
    "certify_native_schedule",
    "certify_schedule_family",
    "default_schedule_grid",
    "DEFAULT_TILE_GRID",
    "DEFAULT_THREAD_GRID",
]

#: Default certification grid — one entry per candidate tile size the
#: autotuner measures (kept in sync with ``bulk.autotune._DEFAULT_TILES``
#: by a test; slab-sized tiles: the slab is ``memory_words x tile``
#: words) crossed with a single- and a multi-thread configuration.
#: The race proof is thread-count-free (any static partition of disjoint
#: tiles is safe), so certifying one ``threads > 1`` point per tile
#: covers the whole thread axis; the grid still includes both so a
#: thread-count-dependent bound (the mutation class) cannot hide.
DEFAULT_TILE_GRID: Tuple[int, ...] = (4, 8, 16, 32)
DEFAULT_THREAD_GRID: Tuple[int, ...] = (1, 4)


def default_schedule_grid() -> Tuple[Tuple[int, int], ...]:
    """``(tile, threads)`` configurations ``--schedule`` runs."""
    return tuple(
        (tile, threads)
        for tile in DEFAULT_TILE_GRID
        for threads in DEFAULT_THREAD_GRID
    )


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleConfig:
    """The schedule a bulk emission was requested with.

    This is the certifier's ground truth: what the engine will allocate
    and price.  Everything parsed out of the source is checked against it.
    """

    layout: str  # "column" | "row"
    p: int
    words: int
    tile: int
    chunk: int
    threads: int
    stride: int  # row stride (0 for the column layout)
    outputs: Tuple[Tuple[int, int], ...]  # the program's output_ranges

    @property
    def out_words(self) -> int:
        """Width of the output image's rows: the declared words."""
        return sum(hi - lo for lo, hi in self.outputs)

    @property
    def slab_words(self) -> int:
        """Words of one tile's data slab: the layout's map over one tile."""
        lane = self.words if self.layout == "column" else self.stride
        return lane * self.tile

    def emit(self, program: Program) -> str:
        """The bulk kernel source for this schedule.

        The one emission call: :func:`~repro.codegen.compile.compile_bulk`
        compiles exactly this text and :func:`certify_native_schedule`
        proves it.
        """
        from ..codegen.c_emitter import emit_bulk_c

        return emit_bulk_c(
            program,
            self.layout,
            p=self.p,
            stride=self.stride,
            chunk=self.chunk,
            tile=self.tile,
            threads=self.threads,
        )


def schedule_config(
    program: Program,
    arrangement,
    *,
    tile: Optional[int] = None,
    threads: int = 1,
    chunk: Optional[int] = None,
) -> ScheduleConfig:
    """Derive the full schedule for a ``(program, arrangement)`` request.

    The one parameter resolution of the native backend:
    :func:`repro.codegen.compile.compile_bulk` builds its kernel from
    this config, and the certifier proves it.  It stays pure: no
    compiler probe, no thread degrade, no stack-budget check (the budget
    is a resource limit the engine enforces, not a property of the
    schedule).  A toolchain without OpenMP compiles the ``threads=1``
    config instead, which the default grid certifies too.
    """
    from ..codegen.compile import BULK_DEFAULT_CHUNK, default_tile

    if chunk is None:
        chunk = BULK_DEFAULT_CHUNK
    name = getattr(arrangement, "name", str(arrangement))
    if name == "column":
        layout, stride = "column", 0
    elif name in ("row", "padded-row"):
        layout = "row"
        stride = getattr(arrangement, "stride", program.memory_words)
    else:
        raise ProgramError(f"no native bulk kernel for arrangement {name!r}")
    if tile is None:
        tile = default_tile(program, arrangement)
    return ScheduleConfig(
        layout=layout,
        p=int(arrangement.p),
        words=program.memory_words,
        tile=int(tile),
        chunk=int(chunk),
        threads=max(1, int(threads)),
        stride=int(stride),
        outputs=program.output_ranges,
    )


# -- proof object -------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleProof:
    """What was proven about one emitted schedule.

    ``tiles`` is the parsed ``(first_lane, length)`` decomposition;
    ``span_tiled``/``span_sequential`` are the modeled stage counts of one
    coalesced bulk step under the tiled and the flat issue order (equal
    when ``w`` divides the tile; absent when no ``w`` was supplied).
    """

    program: str
    label: str
    config: ScheduleConfig
    tiles: Tuple[Tuple[int, int], ...]
    accesses_per_lane: int
    elided_loads: int
    spill_loads: int
    spill_saves: int
    span_tiled: Optional[int]
    span_sequential: Optional[int]
    certified: bool

    def describe(self) -> str:
        c = self.config
        status = "certified" if self.certified else "NOT certified"
        span = ""
        if self.span_tiled is not None:
            span = (
                f"; span {self.span_tiled} stage(s) "
                f"(sequential {self.span_sequential})"
            )
        return (
            f"{self.label}: {status} — {len(self.tiles)} tile(s) partition "
            f"{c.p} lane(s), {self.accesses_per_lane} access(es)/lane with "
            f"{self.elided_loads} load(s) forwarded, "
            f"{self.spill_loads}/{self.spill_saves} slab load/save(s) per "
            f"lane{span}"
        )


# -- source parsing -----------------------------------------------------------

_MACROS = (
    "P", "WORDS", "OUT_WORDS", "STRIDE", "TILE", "SLAB", "NREGS", "THREADS"
)
_DEFINE_RE = re.compile(
    r"^#define (P|WORDS|OUT_WORDS|STRIDE|TILE|SLAB|NREGS|THREADS) (-?\d+)L?\b"
)
_HEADER_RE = re.compile(
    r"/\* schedule: layout=(\w+) p=(\d+) words=(\d+) stride=(\d+) "
    r"chunk=(\d+) tile=(\d+) threads=(\d+) \*/"
)
_CHUNK_START = re.compile(r"^static void chunk_(\d+)\(")
_LANE_LOOP = "for (long jj = 0; jj < TILE; ++jj) {"
_SPILL_LOAD = re.compile(
    r"^(?:int64_t |double )?r(\d+) = regs\[(\d+) \* TILE \+ jj\];$"
)
_SPILL_SAVE = re.compile(r"^regs\[(\d+) \* TILE \+ jj\] = r(\d+);$")
_MEM_READ = re.compile(r"^(?:int64_t |double )?([rv]\d+) = mem\[(.+)\];$")
_MEM_WRITE = re.compile(r"^mem\[(.+)\] = r(\d+);$")
_ASSIGN = re.compile(r"^(?:int64_t |double )?r(\d+) = (.+);$")
_COL_ADDR = re.compile(r"^(\d+) \* TILE \+ jj$")
_ROW_ADDR = re.compile(r"^jj \* STRIDE \+ (\d+)$")
_IDENT = re.compile(r"\b[rv]\d+\b")
_SINGLE_IDENT = re.compile(r"^[rv]\d+$")
_INT_IMM = re.compile(r"^INT64_C\((-?\d+)\)$")
_KERNEL_START = re.compile(
    r"^void \w+\(const (int64_t|double) \*restrict in, long k, "
    r"\1 \*restrict out\) \{$"
)
_FOR_J0 = re.compile(r"^for \(long j0 = (.+); j0 < (.+); j0 \+= (.+)\) \{$")
_SLAB_DECL = re.compile(r"^(?:int64_t|double) regs\[NREGS \* TILE\];$")
_DATA_SLAB_DECL = re.compile(r"^(?:int64_t|double) slab\[SLAB\];$")
_CHUNK_CALL = re.compile(r"^chunk_(\d+)\(slab, regs\);$")
_LEN_STMT = "long len = (P - j0 < TILE) ? P - j0 : TILE;"
_ZERO_STMT = "for (long i = 0; i < NREGS * TILE; ++i) regs[i] = 0;"
_RAGGED_ZERO = re.compile(
    r"^(?:if \(len < TILE\) )?for \(long i = 0; i < SLAB; \+\+i\) slab\[i\] = 0;$"
)
_NEST_LOOP = re.compile(r"^for \(long (\w+) = (\w+); \1 < (\w+); \+\+\1\)$")
_GATHER = re.compile(r"^slab\[(.+)\] = in\[(.+)\];$")
_TAIL_ZERO = re.compile(r"^slab\[(.+)\] = 0;$")
_SCATTER = re.compile(r"^stream_word\(&out\[([^;]+)\], slab\[([^;]+)\]\);$")
_OUT_WRITE = re.compile(r"\bout\s*\[")
_FENCE_STMT = "STREAM_FENCE();"
_OMP_PRAGMA = "#pragma omp parallel for schedule(static) num_threads(THREADS)"

#: The only admitted definitions of the scatter's store and fence
#: (``{ctype}`` is the kernel's element type).  The text is pinned here,
#: not imported from the emitter, so a helper redefined to write anywhere
#: but ``dst[0]`` fails the proof (``OBL-S703``).
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


def _eval_bound(expr: str, macros: Dict[str, int]) -> Optional[int]:
    """Evaluate a tile-loop bound expression with the given macro values.

    Only integer literals, the names in ``macros`` and ``+ - * / ( )`` are
    admitted, with C's meaning (``/`` truncates toward zero); anything
    else (a register, a function call) is not a static schedule and the
    caller reports it.
    """
    s = expr.replace("(size_t)", "")
    try:
        tree = ast.parse(s, mode="eval")
    except SyntaxError:
        return None

    def value(node) -> int:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.Name) and node.id in macros:
            return macros[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        if isinstance(node, ast.BinOp):
            lhs, rhs = value(node.left), value(node.right)
            if isinstance(node.op, ast.Add):
                return lhs + rhs
            if isinstance(node.op, ast.Sub):
                return lhs - rhs
            if isinstance(node.op, ast.Mult):
                return lhs * rhs
            if isinstance(node.op, ast.Div) and rhs != 0:
                quotient = abs(lhs) // abs(rhs)
                return quotient if (lhs < 0) == (rhs < 0) else -quotient
        raise ValueError(f"not a static expression: {ast.dump(node)}")

    try:
        return value(tree.body)
    except ValueError:
        return None


@dataclass
class _ParsedChunk:
    index: int
    lane_loop_ok: bool
    lane_loop_line: str
    statements: List[Tuple]  # see _parse_chunks


@dataclass(frozen=True)
class _Nest:
    """One loop nest of the tile driver: ``kind`` is ``gather``,
    ``tail_zero``, ``scatter`` or ``opaque``; ``loops`` maps each loop
    variable to its ``(lo, hi)`` bound names; ``indices`` holds the
    body's index expressions (target first)."""

    kind: str
    loops: Dict[str, Tuple[str, str]]
    indices: Tuple[str, ...]
    text: str
    position: int  # order among the driver's tile-loop statements


@dataclass
class _ParsedDriver:
    pragma_governs_loop: bool = False
    init_expr: str = ""
    bound_expr: str = ""
    step_expr: str = ""
    slab_inside: bool = False
    slab_outside: bool = False
    data_slab_inside: bool = False
    data_slab_outside: bool = False
    len_ok: bool = False
    zero_ok: bool = False
    ragged_zero_at: Optional[int] = None
    calls: List[int] = field(default_factory=list)
    call_positions: List[int] = field(default_factory=list)
    fence_positions: List[int] = field(default_factory=list)
    nests: List[_Nest] = field(default_factory=list)
    stray: List[str] = field(default_factory=list)  # unrecognised statements
    found: bool = False


def _parse_chunks(lines: Sequence[str]) -> Dict[int, _ParsedChunk]:
    """Chunk functions → ordered statement lists.

    Statements are tagged tuples:
    ``("spill_load", reg, slab, lineno)``, ``("spill_save", slab, reg,
    lineno)``, ``("read", var, addr_expr, lineno)``, ``("write",
    addr_expr, reg, lineno)``, ``("assign", reg, rhs, lineno)``,
    ``("opaque", text, lineno)`` for anything unrecognised.
    """
    chunks: Dict[int, _ParsedChunk] = {}
    i = 0
    while i < len(lines):
        m = _CHUNK_START.match(lines[i])
        if not m:
            i += 1
            continue
        index = int(m.group(1))
        depth = lines[i].count("{") - lines[i].count("}")
        i += 1
        lane_ok = False
        lane_line = ""
        stmts: List[Tuple] = []
        in_lane_loop = False
        while i < len(lines) and depth > 0:
            raw = lines[i]
            stripped = raw.strip()
            depth += raw.count("{") - raw.count("}")
            i += 1
            if not stripped or stripped == "LANE_HINT":
                continue
            if not in_lane_loop:
                if stripped.startswith("for (long jj"):
                    lane_line = stripped
                    lane_ok = stripped == _LANE_LOOP
                    in_lane_loop = True
                continue
            if stripped == "}":
                in_lane_loop = depth > 1
                continue
            sm = _SPILL_LOAD.match(stripped)
            if sm:
                stmts.append(("spill_load", int(sm.group(1)), int(sm.group(2)), i))
                continue
            sm = _SPILL_SAVE.match(stripped)
            if sm:
                stmts.append(("spill_save", int(sm.group(1)), int(sm.group(2)), i))
                continue
            sm = _MEM_READ.match(stripped)
            if sm:
                stmts.append(("read", sm.group(1), sm.group(2), i))
                continue
            sm = _MEM_WRITE.match(stripped)
            if sm:
                stmts.append(("write", sm.group(1), int(sm.group(2)), i))
                continue
            sm = _ASSIGN.match(stripped)
            if sm:
                stmts.append(("assign", int(sm.group(1)), sm.group(2), i))
                continue
            stmts.append(("opaque", stripped, i))
        chunks[index] = _ParsedChunk(
            index=index,
            lane_loop_ok=lane_ok,
            lane_loop_line=lane_line,
            statements=stmts,
        )
    return chunks


def _classify_nest(
    loops: Dict[str, Tuple[str, str]], body: str, text: str, position: int
) -> _Nest:
    for kind, form in (
        ("gather", _GATHER), ("scatter", _SCATTER), ("tail_zero", _TAIL_ZERO)
    ):
        m = form.match(body)
        if m:
            return _Nest(kind, loops, m.groups(), text, position)
    kind = "plain_store" if _OUT_WRITE.search(body) else "opaque"
    return _Nest(kind, loops, (), text, position)


def _parse_driver(lines: Sequence[str]) -> _ParsedDriver:
    driver = _ParsedDriver()
    start = next(
        (i for i, line in enumerate(lines) if _KERNEL_START.match(line)), None
    )
    if start is None:
        return driver
    depth = 1
    i = start + 1
    pragma_pending = False
    in_loop = False
    position = 0  # statement counter inside the tile loop
    loops: Dict[str, Tuple[str, str]] = {}
    loop_text: List[str] = []
    while i < len(lines) and depth > 0:
        raw = lines[i]
        stripped = raw.strip()
        depth += raw.count("{") - raw.count("}")
        i += 1
        if not stripped:
            continue
        if stripped == _OMP_PRAGMA:
            pragma_pending = True
            continue
        if stripped.startswith("#if") or stripped.startswith("#endif"):
            continue
        m = _FOR_J0.match(stripped)
        if m and not driver.found:
            driver.init_expr, driver.bound_expr, driver.step_expr = m.groups()
            driver.pragma_governs_loop = pragma_pending
            in_loop = driver.found = True
            continue
        nm = _NEST_LOOP.match(stripped)
        if nm:
            loops[nm.group(1)] = (nm.group(2), nm.group(3))
            loop_text.append(stripped)
            continue
        if loops:
            text = " ".join(loop_text + [stripped])
            driver.nests.append(_classify_nest(loops, stripped, text, position))
            position += 1
            loops, loop_text = {}, []
            continue
        if stripped == "}":
            in_loop = in_loop and depth > 1  # depth 1: the tile loop closed
            continue
        for decl, inside, outside in (
            (_SLAB_DECL, "slab_inside", "slab_outside"),
            (_DATA_SLAB_DECL, "data_slab_inside", "data_slab_outside"),
        ):
            if decl.match(stripped):
                setattr(driver, inside if in_loop else outside, True)
                break
        else:
            if stripped == _LEN_STMT:
                driver.len_ok = True
            elif stripped == _ZERO_STMT:
                driver.zero_ok = True
            elif _RAGGED_ZERO.match(stripped):
                driver.ragged_zero_at = position
            elif stripped == _FENCE_STMT and in_loop:
                driver.fence_positions.append(position)
            else:
                cm = _CHUNK_CALL.match(stripped)
                if cm:
                    driver.calls.append(int(cm.group(1)))
                    driver.call_positions.append(position)
                else:
                    driver.stray.append(stripped)
            position += 1
    return driver


def _parse_local_addr(expr: str, layout: str) -> Optional[int]:
    form = _COL_ADDR if layout == "column" else _ROW_ADDR
    m = form.match(expr.strip())
    return int(m.group(1)) if m else None


# -- gather / scatter obligations ---------------------------------------------


#: The exact index forms of the tile driver's data movement: the slab map
#: restricted to one tile (``a*TILE + jj`` column, ``jj*STRIDE + a`` row
#: and padded-row — the same maps the chunk accesses are matched against),
#: the row-major input ``(P, k)`` and the row-major output ``(P,
#: OUT_WORDS)``, whose column for word ``a`` of a declared range is ``a``
#: less the range's shift (its start less the widths before it).
_SLAB_INDEX = {"column": "a * TILE + jj", "row": "jj * STRIDE + a"}
_IN_INDEX = "(j0 + jj) * k + a"
_OUT_INDEX = re.compile(r"^\(j0 \+ jj\) \* OUT_WORDS \+ a(?: - (\d+))?$")


def _check_nest_map(
    nest: _Nest, forms: Sequence[str], index: int = 0
) -> Optional[str]:
    """Match the nest's index expressions (target first), from ``index``
    on, against their exact forms, whitespace-normalised; returns the
    first mismatch."""
    for expr, want in zip(nest.indices[index:], forms):
        if " ".join(expr.split()) != want:
            return f"index {expr!r} is not the map's {want!r}"
    return None


def _certify_gather_scatter(
    driver: _ParsedDriver,
    config: ScheduleConfig,
    macros: Dict[str, int],
    label: str,
    name: str,
) -> List[Diagnostic]:
    """The tile driver's data movement obligations.

    * **gather** (``OBL-S703`` map, ``OBL-S701``/``OBL-S702`` bounds):
      exactly one nest over ``a ∈ [0, k)`` × ``jj ∈ [0, len)`` copying
      input word ``a`` of lane ``j0 + jj`` (``in[(j0+jj)·k + a]``) into
      the slab at the layout's map — before the first chunk runs;
    * **initial state** (``OBL-S701``): words ``[k, WORDS)`` of every slab
      lane are zeroed (one nest over ``a ∈ [k, WORDS)`` × ``jj ∈ [0,
      TILE)``), and a ragged tile zero-fills the whole slab before the
      gather, so the chunks start from the zero-extended input image the
      sequential reference starts from;
    * **scatter** (:func:`_certify_scatter`): the declared output words,
      streamed after the last chunk;
    * **fence and bypass** (``OBL-S702``): a ``STREAM_FENCE()`` follows
      the scatter inside the tile loop, and nothing else in the driver
      writes ``out``.  Any other unrecognised driver statement is
      ``OBL-S701``.

    Index expressions must be the maps' exact forms (:data:`_SLAB_INDEX`,
    :data:`_IN_INDEX`, :data:`_OUT_INDEX`), so a pass holds for every
    ``(j0, jj, a, k)``.
    """
    out: List[Diagnostic] = []

    def fail(rule: str, message: str) -> None:
        out.append(diag(rule, f"{label}: {message}", program=name))

    slab_at = _SLAB_INDEX["column" if config.layout == "column" else "row"]
    for nest in driver.nests:
        if nest.kind == "opaque":
            fail("OBL-S701", f"unrecognised tile-driver loop nest {nest.text!r}")
    bypass = [n.text for n in driver.nests if n.kind == "plain_store"]
    for text in driver.stray:
        if _OUT_WRITE.search(text):
            bypass.append(text)
        else:
            fail("OBL-S701", f"unrecognised tile-driver statement {text!r}")
    for text in bypass:
        fail("OBL-S702", f"{text!r} writes the output image outside the "
                         f"streamed scatter — every output word must be "
                         f"written once, through stream_word, before the "
                         f"tile's fence")
    first_call = min(driver.call_positions, default=None)
    specs = (
        # kind, what, lane range, word range, index forms
        ("gather", "the input gather", ("0", "len"), ("0", "k"),
         (slab_at, _IN_INDEX)),
        ("tail_zero", "the zero fill of slab words [k, WORDS)",
         ("0", "TILE"), ("k", "WORDS"), (slab_at,)),
    )
    for kind, what, lanes, word_range, maps in specs:
        nests = [n for n in driver.nests if n.kind == kind]
        if len(nests) != 1:
            fail("OBL-S701", f"expected exactly one nest for {what}, found "
                             f"{len(nests)}")
            continue
        nest = nests[0]
        if not _check_nest_loops(nest, what, lanes, fail):
            continue
        if nest.loops["a"] != word_range:
            fail("OBL-S701", f"{what} covers words a ∈ "
                             f"{list(nest.loops['a'])} but must cover "
                             f"{list(word_range)}")
        problem = _check_nest_map(nest, maps)
        if problem is not None:
            fail("OBL-S703", f"{what} diverges from the address map: {problem}")
        if first_call is not None and nest.position > first_call:
            fail("OBL-S701", f"{what} must run before every chunk")
    _certify_scatter(driver, config, macros, slab_at, fail)
    scatter = [n.position for n in driver.nests if n.kind == "scatter"]
    if scatter and not any(f > max(scatter) for f in driver.fence_positions):
        fail("OBL-S702", "no STREAM_FENCE() follows the output scatter inside "
                         "the tile loop — streamed stores are weakly ordered, "
                         "so another thread or the caller may read the image "
                         "before they land")
    gather = [n.position for n in driver.nests if n.kind == "gather"]
    if driver.ragged_zero_at is None or driver.ragged_zero_at > min(
        gather, default=driver.ragged_zero_at
    ):
        fail("OBL-S701", "a ragged tile's missing lanes are not zero-filled "
                         "before the gather — idle lanes compute on stale "
                         "stack contents")
    if driver.data_slab_outside or not driver.data_slab_inside:
        fail("OBL-S702", "the data slab must be declared inside the tile "
                         "loop (tile-private); a slab shared across OpenMP "
                         "threads is a write race")
    return out


def _check_nest_loops(nest: _Nest, what: str, lanes, fail) -> bool:
    """The nest loops over the ``(a, jj)`` pair with ``jj`` over ``lanes``;
    False when its loops are not even that pair."""
    if set(nest.loops) != {"a", "jj"}:
        fail("OBL-S701", f"{what} loops over {sorted(nest.loops)}, not "
                         f"the (a, jj) word/lane pair: {nest.text!r}")
        return False
    if nest.loops["jj"] != lanes:
        rule = "OBL-S702" if lanes[1] == "len" else "OBL-S701"
        fail(rule, f"{what} covers lanes jj ∈ {list(nest.loops['jj'])} but "
                   f"must cover {list(lanes)} (a ragged tile owns only "
                   f"its first len lanes)")
    return True


def _words(addresses: np.ndarray) -> str:
    shown = ", ".join(str(int(a)) for a in addresses[:4])
    return f"{shown}, …" if addresses.size > 4 else shown


def _certify_scatter(
    driver: _ParsedDriver,
    config: ScheduleConfig,
    macros: Dict[str, int],
    slab_at: str,
    fail,
) -> None:
    """The output scatter: one nest per declared range, in range order,
    each over ``a ∈ [lo, hi)`` × ``jj ∈ [0, len)`` streaming the slab's
    word ``a`` of lane ``jj`` to column ``a - shift`` of output row
    ``j0 + jj`` (``stream_word(&out[...], slab[...])``), after the last
    chunk.  Accounted word by word against the declared ranges: a
    declared word no nest writes is ``OBL-S701``; a word written that is
    not declared, or written twice, is ``OBL-S702``; a word streamed to
    another column, or a slab word outside ``[0, WORDS)``, is
    ``OBL-S703``; nests out of range order are ``OBL-S701``.
    """
    what = "the output scatter"
    last_call = max(driver.call_positions, default=None)
    column = np.full(config.words, -1, dtype=np.int64)
    offset = 0
    for lo, hi in config.outputs:
        column[lo:hi] = np.arange(offset, offset + hi - lo)
        offset += hi - lo
    writes = np.zeros(config.words, dtype=np.int64)
    starts: List[int] = []
    nests = [n for n in driver.nests if n.kind == "scatter"]
    if not nests:
        fail("OBL-S701", f"no nest for {what} — the kernel returns nothing")
    for nest in nests:
        if not _check_nest_loops(nest, what, ("0", "len"), fail):
            continue
        lo, hi = (_eval_bound(b, macros) for b in nest.loops["a"])
        if lo is None or hi is None or lo >= hi:
            fail("OBL-S701", f"{what} covers words a ∈ "
                             f"{list(nest.loops['a'])}, not a static "
                             f"non-empty range")
            continue
        if last_call is not None and nest.position < last_call:
            fail("OBL-S701", f"{what} must run after every chunk")
        problem = _check_nest_map(nest, (slab_at,), index=1)
        target = _OUT_INDEX.match(" ".join(nest.indices[0].split()))
        if problem is None and target is None:
            problem = (f"index {nest.indices[0]!r} is not the output map "
                       f"'(j0 + jj) * OUT_WORDS + a - shift'")
        if problem is not None:
            fail("OBL-S703", f"{what} diverges from the address map: {problem}")
            continue
        if lo < 0 or hi > config.words:
            fail("OBL-S703", f"{what} streams slab words [{lo}, {hi}), "
                             f"outside a lane's [0, {config.words})")
            continue
        shift = int(target.group(1) or 0)
        words = np.arange(lo, hi)
        cols = column[lo:hi]
        undeclared = words[cols < 0]
        if undeclared.size:
            fail("OBL-S702", f"{what} writes undeclared word(s) "
                             f"{_words(undeclared)} — only the program's "
                             f"declared outputs {list(config.outputs)} may "
                             f"reach the image")
        moved = words[(cols >= 0) & (cols != words - shift)]
        if moved.size:
            a = int(moved[0])
            fail("OBL-S703", f"{what} streams word {a} to column "
                             f"{a - shift}, but its declared column is "
                             f"{int(column[a])}")
        writes[lo:hi] += 1
        starts.append(lo)
    repeated = np.flatnonzero(writes > 1)
    if repeated.size:
        fail("OBL-S702", f"{what} streams word(s) {_words(repeated)} more "
                         f"than once — overlapping scatter ranges")
    declared = np.flatnonzero(column >= 0)
    missing = declared[writes[declared] == 0]
    if nests and missing.size:
        fail("OBL-S701", f"{what} drops declared output word(s) "
                         f"{_words(missing)} — the image's columns for them "
                         f"are never written")
    if starts != sorted(starts):
        fail("OBL-S701", f"{what} nests start at words {starts}, not in the "
                         f"declared range order {list(config.outputs)}")


def _certify_stream_helpers(
    program: Program, source: str, label: str
) -> List[Diagnostic]:
    """The scatter's store and fence are the pinned definitions
    (``OBL-S703``): :data:`_STREAM_HELPERS` appears exactly once, and
    outside it ``stream_word``/``STREAM_FENCE`` appear only in the
    driver's scatter and fence statements — no second definition, macro
    or ``#undef`` can redirect a streamed word."""
    ctype = "int64_t" if np.dtype(program.dtype) == np.int64 else "double"
    pinned = _STREAM_HELPERS.format(ctype=ctype)
    if source.count(pinned) != 1:
        problems = ["the stream_word/STREAM_FENCE definitions are not the "
                    "pinned text"]
    else:
        problems = [
            f"{text!r} redefines or bypasses the streamed store"
            for text in map(str.strip, source.replace(pinned, "").splitlines())
            if ("stream_word" in text and not _SCATTER.match(text))
            or ("STREAM_FENCE" in text and text != _FENCE_STMT)
        ]
    return [
        diag("OBL-S703", f"{label}: {problem} — a redefined helper may write "
                         f"elsewhere than out[(j0 + jj) * OUT_WORDS + a - shift]",
             program=program.name)
        for problem in problems
    ]


# -- the symbolic lane replay -------------------------------------------------


class _WalkFailure(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        self.diagnostic = diagnostic
        super().__init__(diagnostic.message)


def _replay_lane(
    program: Program,
    chunks: Dict[int, _ParsedChunk],
    call_order: Sequence[int],
    config: ScheduleConfig,
    label: str,
) -> Tuple[int, int, int]:
    """Symbolically replay one lane; returns (elided, spill_loads, spill_saves).

    Raises :class:`_WalkFailure` carrying the precise diagnostic on the
    first proof failure.  The replay maintains three symbolic states in
    lockstep: the *reference* register file (the sequential semantics of
    :func:`~.lint.equiv.symbolic_state`), the *emitted* local environment
    (C variables, per chunk scope), and the shared memory map.  Stores are
    the synchronisation points — the emitted value must equal the
    reference value by value number, which pins the memory image.
    """
    vn = ValueNumbering(program.dtype)
    zero = vn.const(0)
    name = program.name

    def fail(rule: str, message: str, *, index: Optional[int] = None):
        raise _WalkFailure(diag(rule, f"{label}: {message}", program=name, index=index))

    ref_regs = [zero] * program.num_registers
    mem: Dict[int, int] = {}
    slab: Dict[int, int] = {}
    instrs = list(program.instructions)
    cursor = 0
    elided = spill_loads = spill_saves = 0

    for ci in call_order:
        chunk = chunks[ci]
        env: Dict[str, int] = {}
        stmts = chunk.statements
        si = 0
        while si < len(stmts):
            st = stmts[si]
            kind = st[0]
            if kind == "opaque":
                fail(
                    "OBL-S701",
                    f"chunk_{ci} line {st[2]}: unrecognised statement "
                    f"{st[1]!r} — the schedule cannot be replayed",
                )
            if kind == "spill_load":
                reg, slot = st[1], st[2]
                if reg != slot:
                    fail(
                        "OBL-S701",
                        f"chunk_{ci}: spill load restores slab slot {slot} "
                        f"into r{reg} — registers must round-trip their own "
                        f"slot",
                    )
                env[f"r{reg}"] = slab.get(slot, zero)
                spill_loads += 1
                si += 1
                continue
            if kind == "spill_save":
                slot, reg = st[1], st[2]
                val = env.get(f"r{reg}")
                if val is None:
                    fail(
                        "OBL-S701",
                        f"chunk_{ci}: spills r{reg} which holds no value in "
                        f"this chunk",
                    )
                slab[slot] = val
                spill_saves += 1
                si += 1
                continue

            # Anything else must align with the next IR instruction.
            if cursor >= len(instrs):
                fail(
                    "OBL-S701",
                    f"chunk_{ci} line {st[3] if len(st) > 3 else st[2]}: "
                    f"surplus statement after all {len(instrs)} instructions "
                    f"were emitted (duplicated work at a chunk boundary?)",
                )
            instr = instrs[cursor]

            if isinstance(instr, Load):
                si = _replay_load(
                    instr, cursor, ci, stmts, si, env, mem, ref_regs,
                    vn, config, fail,
                )
                if si < 0:  # elided
                    si = -si - 1
                    elided += 1
            elif isinstance(instr, Store):
                if kind != "write":
                    fail(
                        "OBL-S701",
                        f"chunk_{ci}: instruction {cursor} is "
                        f"Store({instr.addr}) but the emission's next "
                        f"statement is not a store",
                        index=cursor,
                    )
                addr = _parse_local_addr(st[1], config.layout)
                if addr is None:
                    fail(
                        "OBL-S703",
                        f"chunk_{ci} line {st[3]}: store index {st[1]!r} is "
                        f"not the {config.layout} layout's lane-affine map",
                        index=cursor,
                    )
                if addr != instr.addr:
                    fail(
                        "OBL-S701",
                        f"chunk_{ci}: instruction {cursor} stores word "
                        f"{instr.addr} but the emission writes word {addr}",
                        index=cursor,
                    )
                if st[2] != instr.rs:
                    fail(
                        "OBL-S701",
                        f"chunk_{ci}: Store({instr.addr}) must write r"
                        f"{instr.rs}, the emission writes r{st[2]}",
                        index=cursor,
                    )
                val = env.get(f"r{instr.rs}")
                if val is None:
                    fail(
                        "OBL-S701",
                        f"chunk_{ci}: Store({instr.addr}) reads r{instr.rs} "
                        f"which holds no value in this chunk (dropped spill "
                        f"load?)",
                        index=cursor,
                    )
                want = ref_regs[instr.rs]
                if val != want:
                    fail(
                        "OBL-S701",
                        f"chunk_{ci}: Store({instr.addr})'s value diverges "
                        f"from the sequential reference: emission stores "
                        f"{vn.describe(val)}, reference stores "
                        f"{vn.describe(want)}",
                        index=cursor,
                    )
                mem[instr.addr] = want
                si += 1
            elif isinstance(instr, Const):
                si = _replay_const(
                    instr, cursor, ci, st, si, env, ref_regs, vn, program, fail
                )
            else:
                si = _replay_compute(
                    instr, cursor, ci, st, si, env, ref_regs, vn, fail
                )
            cursor += 1

    if cursor < len(instrs):
        fail(
            "OBL-S701",
            f"the emission ends after instruction {cursor - 1} but the "
            f"program has {len(instrs)} instructions — work dropped at a "
            f"chunk boundary",
            index=cursor,
        )
    return elided, spill_loads, spill_saves


def _replay_load(
    instr, cursor, ci, stmts, si, env, mem, ref_regs, vn, config, fail
) -> int:
    """Handle one Load; returns the next statement index (negative-encoded
    as ``-(next+1)`` when the load was elided)."""
    st = stmts[si]
    want = mem.get(instr.addr, vn.initial(instr.addr))
    if st[0] == "read":
        var, expr = st[1], st[2]
        addr = _parse_local_addr(expr, config.layout)
        if addr is None:
            fail(
                "OBL-S703",
                f"chunk_{ci} line {st[3]}: load index {expr!r} is not the "
                f"{config.layout} layout's lane-affine map",
                index=cursor,
            )
        if addr != instr.addr:
            fail(
                "OBL-S701",
                f"chunk_{ci}: instruction {cursor} loads word {instr.addr} "
                f"but the emission reads word {addr}",
                index=cursor,
            )
        env[var] = want
        si += 1
        if var != f"r{instr.rd}":
            nxt = stmts[si] if si < len(stmts) else None
            if (
                nxt is None
                or nxt[0] != "assign"
                or nxt[1] != instr.rd
                or nxt[2].strip() != var
            ):
                fail(
                    "OBL-S701",
                    f"chunk_{ci}: Load({instr.addr})'s value lands in "
                    f"{var} but never reaches r{instr.rd}",
                    index=cursor,
                )
            env[f"r{instr.rd}"] = want
            si += 1
        ref_regs[instr.rd] = want
        return si
    if st[0] == "assign" and st[1] == instr.rd:
        rhs = st[2].strip()
        if not _SINGLE_IDENT.match(rhs):
            fail(
                "OBL-S701",
                f"chunk_{ci}: instruction {cursor} is Load({instr.addr}) "
                f"but the emission computes {rhs!r}",
                index=cursor,
            )
        fwd = env.get(rhs)
        if fwd is None:
            fail(
                "OBL-S704",
                f"chunk_{ci}: Load({instr.addr}) elided by forwarding from "
                f"{rhs}, which holds no value in this chunk — forwarding "
                f"may not cross a chunk boundary",
                index=cursor,
            )
        if fwd != want:
            fail(
                "OBL-S704",
                f"chunk_{ci}: Load({instr.addr}) elided by forwarding from "
                f"{rhs}, but {rhs} holds {vn.describe(fwd)} while memory "
                f"word {instr.addr} holds {vn.describe(want)} — the "
                f"emission forwards past an aliasing store",
                index=cursor,
            )
        env[f"r{instr.rd}"] = want
        ref_regs[instr.rd] = want
        return -(si + 1) - 1  # elided marker
    fail(
        "OBL-S701",
        f"chunk_{ci}: instruction {cursor} is Load({instr.addr}) but the "
        f"emission's next statement does not produce r{instr.rd}",
        index=cursor,
    )


def _replay_const(
    instr, cursor, ci, st, si, env, ref_regs, vn, program, fail
) -> int:
    if st[0] != "assign" or st[1] != instr.rd:
        fail(
            "OBL-S701",
            f"chunk_{ci}: instruction {cursor} is Const(r{instr.rd}) but "
            f"the emission's next statement does not assign r{instr.rd}",
            index=cursor,
        )
    rhs = st[2].strip()
    m = _INT_IMM.match(rhs)
    if m:
        literal: object = int(m.group(1))
    else:
        try:
            literal = float(rhs)
        except ValueError:
            fail(
                "OBL-S701",
                f"chunk_{ci}: Const expected a literal, the emission "
                f"computes {rhs!r}",
                index=cursor,
            )
    got = vn.const(literal)
    want = vn.const(instr.imm)
    if got != want:
        fail(
            "OBL-S701",
            f"chunk_{ci}: Const(r{instr.rd}) carries {instr.imm!r} but the "
            f"emission encodes {rhs!r}",
            index=cursor,
        )
    env[f"r{instr.rd}"] = want
    ref_regs[instr.rd] = want
    return si + 1


def _replay_compute(instr, cursor, ci, st, si, env, ref_regs, vn, fail) -> int:
    kindname = type(instr).__name__
    if st[0] != "assign" or st[1] != instr.rd:
        fail(
            "OBL-S701",
            f"chunk_{ci}: instruction {cursor} ({kindname} -> r{instr.rd}) "
            f"does not align with the emission's next statement",
            index=cursor,
        )
    rhs = st[2]
    idents = set(_IDENT.findall(rhs))
    if isinstance(instr, Binary):
        expected = {f"r{instr.ra}", f"r{instr.rb}"}
    elif isinstance(instr, Unary):
        expected = {f"r{instr.ra}"}
    elif isinstance(instr, Select):
        expected = {f"r{instr.rc}", f"r{instr.ra}", f"r{instr.rb}"}
    else:  # pragma: no cover - validated programs only
        fail("OBL-S701", f"chunk_{ci}: unknown instruction {instr!r}")
    if idents != expected:
        fail(
            "OBL-S701",
            f"chunk_{ci}: {kindname} at instruction {cursor} must read "
            f"{sorted(expected)} but the emission reads {sorted(idents)}",
            index=cursor,
        )
    vals = {}
    for ident in expected:
        val = env.get(ident)
        if val is None:
            fail(
                "OBL-S701",
                f"chunk_{ci}: {kindname} at instruction {cursor} reads "
                f"{ident} which holds no value in this chunk (dropped "
                f"spill load?)",
                index=cursor,
            )
        vals[ident] = val

    def emitted_and_ref(a_reg, *more):
        regs = (a_reg,) + more
        emitted = tuple(vals[f"r{r}"] for r in regs)
        reference = tuple(ref_regs[r] for r in regs)
        return emitted, reference

    if isinstance(instr, Binary):
        (ea, eb), (ra, rb) = emitted_and_ref(instr.ra, instr.rb)
        env[f"r{instr.rd}"] = vn.binary(instr.op, ea, eb)
        ref_regs[instr.rd] = vn.binary(instr.op, ra, rb)
    elif isinstance(instr, Unary):
        (ea,), (ra,) = emitted_and_ref(instr.ra)
        env[f"r{instr.rd}"] = vn.unary(instr.op, ea)
        ref_regs[instr.rd] = vn.unary(instr.op, ra)
    else:
        (ec, ea, eb), (rc, ra, rb) = emitted_and_ref(
            instr.rc, instr.ra, instr.rb
        )
        env[f"r{instr.rd}"] = vn.select(ec, ea, eb)
        ref_regs[instr.rd] = vn.select(rc, ra, rb)
    return si + 1


# -- the certifier ------------------------------------------------------------


def certify_bulk_schedule(
    program: Program,
    source: str,
    config: ScheduleConfig,
    *,
    label: Optional[str] = None,
    w: Optional[int] = None,
) -> Tuple[List[Diagnostic], List[str], Optional[ScheduleProof]]:
    """Certify one emitted bulk kernel's schedule against ``config``.

    Returns ``(diagnostics, certificates, proof)``; the proof is ``None``
    when the source could not even be parsed into a schedule.  ``w``
    enables the span cross-check against
    :func:`repro.machine.analytic.tiled_stage_count`.
    """
    name = program.name
    if label is None:
        label = (
            f"schedule[{config.layout},tile={config.tile},"
            f"threads={config.threads}]"
        )
    out: List[Diagnostic] = []
    certs: List[str] = []
    lines = source.splitlines()

    # 1. The #define block — the schedule's constants as compiled.
    macros: Dict[str, int] = {}
    for line in lines:
        m = _DEFINE_RE.match(line)
        if m:
            macros[m.group(1)] = int(m.group(2))
    missing = [k for k in _MACROS if k not in macros]
    if missing:
        out.append(diag(
            "OBL-S701",
            f"{label}: schedule constants {missing} absent from the source; "
            f"nothing to certify",
            program=name,
        ))
        return out, certs, None

    # 2. The emitter's own schedule claim, when present: claim, constants
    #    and request must agree three ways.
    header = _HEADER_RE.search(source)
    if header:
        claim = {
            "layout": header.group(1),
            "p": int(header.group(2)),
            "words": int(header.group(3)),
            "stride": int(header.group(4)),
            "chunk": int(header.group(5)),
            "tile": int(header.group(6)),
            "threads": int(header.group(7)),
        }
        for key in ("layout", "p", "words", "stride"):
            if claim[key] != getattr(config, key):
                out.append(diag(
                    "OBL-S703",
                    f"{label}: emitter claims {key}={claim[key]} but the "
                    f"engine allocates for {key}={getattr(config, key)}",
                    program=name,
                ))
        for key in ("chunk", "tile", "threads"):
            if claim[key] != getattr(config, key):
                out.append(diag(
                    "OBL-S701",
                    f"{label}: emitter claims {key}={claim[key]} but the "
                    f"request was {key}={getattr(config, key)}",
                    program=name,
                ))

    # 3. Constants vs. the requested configuration.  Geometry mismatches
    #    (the address maps) are S703; shape mismatches are S701.
    geometry_ok = True
    for macro, want, rule, what in (
        ("P", config.p, "OBL-S703", "lane count"),
        ("WORDS", config.words, "OBL-S703", "slab lane width"),
        ("OUT_WORDS", config.out_words, "OBL-S703",
         "output row width (the declared words)"),
        ("STRIDE", config.stride, "OBL-S703", "row stride"),
        ("SLAB", config.slab_words, "OBL-S703", "slab size"),
        ("TILE", config.tile, "OBL-S701", "tile size"),
        ("NREGS", program.num_registers, "OBL-S701", "register count"),
        ("THREADS", config.threads, "OBL-S701", "thread count"),
    ):
        if macros[macro] != want:
            out.append(diag(
                rule,
                f"{label}: compiled {macro}={macros[macro]} but the "
                f"{what} must be {want} — the kernel indexes a different "
                f"geometry than the engine allocates",
                program=name,
            ))
            if rule == "OBL-S703":
                geometry_ok = False

    # 4. Slab-map injectivity: word a of tile lane jj lives at a·TILE + jj
    #    (column) or jj·STRIDE + a (row); with jj < TILE, resp. a < WORDS
    #    <= STRIDE, the decomposition is unique and stays inside the
    #    SLAB-word slab, so distinct lanes touch disjoint slab cells.
    injective = True
    if config.layout == "row" and macros["STRIDE"] < macros["WORDS"]:
        injective = False
        out.append(diag(
            "OBL-S703",
            f"{label}: row stride {macros['STRIDE']} is smaller than "
            f"the program's {macros['WORDS']} words — slab lanes overlap",
            program=name,
        ))
    if geometry_ok and injective:
        lane_map = (
            f"a·TILE+jj over {macros['WORDS']}×{macros['TILE']}"
            if config.layout == "column"
            else f"jj·STRIDE+a with STRIDE={macros['STRIDE']} ≥ "
                 f"WORDS={macros['WORDS']}"
        )
        certs.append(
            f"{label}: slab map {lane_map} injective inside the "
            f"{macros['SLAB']}-word tile slab — distinct lanes touch "
            f"disjoint cells"
        )

    # 5. Chunk functions.
    chunks = _parse_chunks(lines)
    n_instr = len(program.instructions)
    expected_chunks = max(1, -(-n_instr // config.chunk))
    if sorted(chunks) != list(range(expected_chunks)):
        out.append(diag(
            "OBL-S701",
            f"{label}: expected chunk functions 0..{expected_chunks - 1} "
            f"({n_instr} instructions / chunk={config.chunk}) but the "
            f"source defines {sorted(chunks)}",
            program=name,
        ))
        return out, certs, None
    for chunk in chunks.values():
        if not chunk.lane_loop_ok:
            out.append(diag(
                "OBL-S702",
                f"{label}: chunk_{chunk.index}'s lane loop "
                f"{chunk.lane_loop_line!r} is not the tile's [0, len) "
                f"range — lanes may be computed by more than one tile "
                f"(write race) or dropped",
                program=name,
            ))

    # 6. The driver: work-sharing pragma, private slabs, tail length,
    #    zeroing, gather/scatter, call order.
    driver = _parse_driver(lines)
    if not driver.found:
        out.append(diag(
            "OBL-S701",
            f"{label}: no tile loop found in the kernel driver",
            program=name,
        ))
        return out, certs, None
    if config.threads > 1 and not driver.pragma_governs_loop:
        out.append(diag(
            "OBL-S702",
            f"{label}: threads={config.threads} requested but the OpenMP "
            f"work-sharing pragma does not immediately govern the tile "
            f"loop — the thread partition is unknown and unprovable",
            program=name,
        ))
    if driver.slab_outside or not driver.slab_inside:
        out.append(diag(
            "OBL-S702",
            f"{label}: the register slab must be declared inside the tile "
            f"loop (tile-private); a shared slab is a write race between "
            f"OpenMP threads",
            program=name,
        ))
    if not driver.len_ok:
        out.append(diag(
            "OBL-S701",
            f"{label}: unrecognised tail-length computation; cannot prove "
            f"the last tile stops at lane P",
            program=name,
        ))
    if not driver.zero_ok:
        out.append(diag(
            "OBL-S701",
            f"{label}: the per-tile register slab is not zeroed — the "
            f"engines' zero-initialised register contract is broken",
            program=name,
        ))
    moves = _certify_gather_scatter(driver, config, macros, label, name)
    moves += _certify_stream_helpers(program, source, label)
    moves_ok = not moves
    out.extend(moves)
    if moves_ok:
        certs.append(
            f"{label}: gather/scatter commute with the address map — each "
            f"tile gathers input word a of lane j0+jj into its private slab "
            f"at the layout's map, zero-fills words [k, WORDS) and absent "
            f"lanes, and streams each of its own lanes' {config.out_words} "
            f"declared output word(s) once, to its column of output row "
            f"j0+jj, through the pinned stream_word, then fences"
        )

    # 7. Partition analysis: simulate the parsed (init, bound, step) over
    #    the integers and demand an exact disjoint cover of [0, p).
    tiles: List[Tuple[int, int]] = []
    partition_ok = geometry_ok and driver.len_ok
    bound_text = f"{driver.init_expr} / {driver.bound_expr} / {driver.step_expr}"
    thread_dependent = "THREADS" in bound_text
    suffix = (
        " (the tile-loop bounds reference THREADS — the computed lane set "
        "varies with the thread count)" if thread_dependent else ""
    )
    init = _eval_bound(driver.init_expr, macros)
    bound = _eval_bound(driver.bound_expr, macros)
    step = _eval_bound(driver.step_expr, macros)
    if init is None or bound is None or step is None:
        partition_ok = False
        out.append(diag(
            "OBL-S701",
            f"{label}: tile loop bounds ({driver.init_expr!r}; "
            f"{driver.bound_expr!r}; {driver.step_expr!r}) are not static "
            f"schedule expressions",
            program=name,
        ))
    elif step <= 0:
        partition_ok = False
        out.append(diag(
            "OBL-S701",
            f"{label}: tile loop step {step} does not advance — the "
            f"schedule does not terminate",
            program=name,
        ))
    else:
        plog, tdef = macros["P"], macros["TILE"]
        j0, iters = init, 0
        while j0 < bound and iters < 1_000_000:
            iters += 1
            ln = min(plog - j0, tdef)
            if ln > 0:
                tiles.append((j0, ln))
            j0 += step
        if iters >= 1_000_000:
            partition_ok = False
            out.append(diag(
                "OBL-S701",
                f"{label}: tile loop exceeds 10^6 iterations; refusing to "
                f"certify",
                program=name,
            ))
        if partition_ok:
            expect = 0
            for (start, ln) in sorted(tiles):
                end = start + ln
                if start < expect:
                    partition_ok = False
                    out.append(diag(
                        "OBL-S702",
                        f"{label}: lanes {start}..{min(expect, end) - 1} "
                        f"are computed by two tiles — two OpenMP threads "
                        f"may store to the same output rows"
                        f"{suffix}",
                        program=name,
                    ))
                    break
                if start > expect:
                    partition_ok = False
                    out.append(diag(
                        "OBL-S702",
                        f"{label}: lanes {expect}..{start - 1} are never "
                        f"computed — the tile decomposition has a gap"
                        f"{suffix}",
                        program=name,
                    ))
                    break
                expect = end
            if partition_ok and expect != config.p:
                partition_ok = False
                if expect < config.p:
                    out.append(diag(
                        "OBL-S702",
                        f"{label}: lanes {expect}..{config.p - 1} are "
                        f"never computed — the tile decomposition stops "
                        f"early{suffix}",
                        program=name,
                    ))
                else:
                    out.append(diag(
                        "OBL-S702",
                        f"{label}: the schedule computes lanes up to "
                        f"{expect - 1}, past the logical count {config.p}"
                        f"{suffix}",
                        program=name,
                    ))
    race_ok = (
        partition_ok
        and injective
        and moves_ok
        and driver.slab_inside
        and not driver.slab_outside
        and (config.threads == 1 or driver.pragma_governs_loop)
        and all(c.lane_loop_ok for c in chunks.values())
    )
    if race_ok:
        certs.append(
            f"{label}: race freedom — {len(tiles)} tile(s) partition lanes "
            f"[0, {config.p}) disjointly, each tile scatters only its own "
            f"output rows, both slabs are tile-private, and "
            f"schedule(static) ranges over whole tiles: distinct threads' "
            f"write sets are disjoint and no cross-tile read-after-write "
            f"exists"
        )

    # 8. Call order, then the symbolic lane replay (trace preservation
    #    and forwarding soundness).
    walk_ok = False
    elided = sloads = ssaves = 0
    if sorted(driver.calls) != sorted(chunks):
        out.append(diag(
            "OBL-S701",
            f"{label}: the driver calls chunks {driver.calls} but the "
            f"source defines {sorted(chunks)} — chunks dropped or "
            f"duplicated",
            program=name,
        ))
    elif driver.calls != sorted(driver.calls):
        out.append(diag(
            "OBL-S701",
            f"{label}: chunks called out of program order "
            f"({driver.calls}) — the per-lane trace is reordered",
            program=name,
        ))
    else:
        try:
            elided, sloads, ssaves = _replay_lane(
                program, chunks, driver.calls, config, label
            )
            walk_ok = True
        except _WalkFailure as failure:
            out.append(failure.diagnostic)
    if walk_ok:
        certs.append(
            f"{label}: per-lane trace preserved — the symbolic replay of "
            f"{len(chunks)} chunk(s) reproduces all "
            f"{program.trace_length} accesses with every store's value "
            f"equal to the sequential reference by value number"
        )
        certs.append(
            f"{label}: forwarding sound — {elided} elided load(s), "
            f"each proven value-equal to the addressed cell at its "
            f"program point (dominating same-address access, no "
            f"aliasing store between)"
        )

    # 9. Span cross-check: the parsed decomposition's stage count must
    #    match the analytic closed form (two independent derivations).
    span_tiled = span_seq = None
    if w is not None and w >= 1 and partition_ok:
        from ..machine.analytic import tiled_stage_count

        derived = sum(-(-ln // w) for _, ln in tiles)
        closed = tiled_stage_count(config.p, w, macros["TILE"])
        span_seq = -(-config.p // w)
        if derived != closed:
            out.append(diag(
                "OBL-S701",
                f"{label}: span cross-check failed — the parsed tile "
                f"decomposition occupies {derived} stage(s) of w={w} but "
                f"machine.analytic prices {closed}",
                program=name,
            ))
        else:
            span_tiled = derived
            certs.append(
                f"{label}: span cross-check — tiled issue occupies "
                f"{derived} stage(s) of w={w} "
                f"(sequential optimum {span_seq}"
                + (", tile-aligned)" if derived == span_seq else
                   "; ragged tile tails add partial warps)")
            )

    certified = not any(d.severity is Severity.ERROR for d in out)
    proof = ScheduleProof(
        program=name,
        label=label,
        config=config,
        tiles=tuple(tiles),
        accesses_per_lane=program.trace_length,
        elided_loads=elided,
        spill_loads=sloads,
        spill_saves=ssaves,
        span_tiled=span_tiled,
        span_sequential=span_seq,
        certified=certified,
    )
    return out, certs, proof


def certify_native_schedule(
    program: Program,
    arrangement,
    *,
    tile: Optional[int] = None,
    threads: int = 1,
    chunk: Optional[int] = None,
    w: Optional[int] = None,
) -> Tuple[List[Diagnostic], List[str], Optional[ScheduleProof]]:
    """Emit the native bulk kernel for one configuration and certify it.

    The one-call entry point behind ``repro certify-schedule``, the
    ``--schedule`` lint family and the autotuner's refuse-uncertified
    gate.  Unsupported dtypes/arrangements yield an ``OBL-N602`` note.
    """
    try:
        config = schedule_config(
            program, arrangement, tile=tile, threads=threads, chunk=chunk
        )
        source = config.emit(program)
    except ProgramError as exc:
        note = diag(
            "OBL-N602",
            f"schedule certification unavailable for this configuration: "
            f"{exc}",
            program=program.name,
        )
        return [note], [], None
    return certify_bulk_schedule(program, source, config, w=w)


def certify_schedule_family(
    program: Program,
    *,
    arrangement: Union[str, object] = "column",
    p: int,
    w: Optional[int] = None,
    grid: Optional[Sequence[Tuple[Optional[int], int]]] = None,
) -> Tuple[List[Diagnostic], List[str]]:
    """The lint analysis family: certify the default schedule grid.

    One proof per ``(tile, threads)`` grid point; the
    per-point certificates are collapsed into one family certificate when
    everything proves (verbose reports stay readable across a 55-program
    registry sweep), while failures surface individually.
    """
    from ..bulk.arrangement import Arrangement, make_arrangement

    if isinstance(arrangement, Arrangement):
        arr = arrangement
    else:
        arr = make_arrangement(str(arrangement), program.memory_words, int(p))
    out: List[Diagnostic] = []
    certs: List[str] = []
    proofs: List[ScheduleProof] = []
    notes = 0
    for tile, threads in (grid or default_schedule_grid()):
        d, c, proof = certify_native_schedule(
            program, arr, tile=tile, threads=threads, w=w
        )
        if proof is None:
            notes += 1
            out.extend(d)
            continue
        if proof.certified:
            proofs.append(proof)
        else:
            out.extend(d)
            certs.extend(c)
    if proofs:
        spans = {pr.span_tiled for pr in proofs if pr.span_tiled is not None}
        span = (
            f"; spans {sorted(spans)} stage(s)" if spans else ""
        )
        certs.append(
            f"schedule: {len(proofs)} (tile, threads) "
            f"configuration(s) certified on the "
            f"{getattr(arr, 'name', arr)} arrangement at p={arr.p} — "
            f"trace-preserving, race-free, forwarding-sound{span}"
        )
    return out, certs
