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
emitter's own bookkeeping (the thing being checked must not check itself).
It splits the proof in two (see ``docs/SCHEDULE.md``):

**The kernel frame and its lemma** (``OBL-S701``..``OBL-S703``)
    Everything outside the chunk bodies — schedule header, ``#define``
    block, chunk signatures and lane loops, and the tile driver with its
    gather, zero fills, chunk calls, one streamed scatter nest per
    declared output range and fence — is fixed text that depends only on
    the request.  The certifier renders its own copy (:func:`_render_frame`)
    and holds the source to it: from the header on, every line is a frame
    line, byte for byte and under the frame's own ``#if`` nest, or a
    parsed chunk-body statement; before the header the only preprocessor
    lines are the prelude's ``#include`` lines and the pinned
    ``stream_word``/``STREAM_FENCE`` helpers.  A missing, changed or
    conditionally compiled frame line breaks that line's obligation; a
    line the frame lacks is ``OBL-S702`` when it touches ``out``,
    ``OBL-S703`` when it redefines a geometry macro or a stream helper,
    and ``OBL-S701`` otherwise.  The scatter nests are accounted word by
    word against the declared outputs.  The frame's tile driver is proven
    once, for every ``P``, by the *driver lemma*: its tiles partition
    ``[0, P)``, the gather and zero fills build the zero-extended input
    image in an injective slab map, every declared word of every real lane
    is streamed once and fenced, and both slabs are tile-private — so
    ``schedule(static)`` threads write disjoint sets (race freedom).  No
    per-kernel code simulates the tile loop; ``P`` enters only through
    the frame's ``#define P`` line.

**Trace preservation** (``OBL-S701``)
    One symbolic lane is replayed through the chunk bodies in the frame's
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
    extension, not a new engine.

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

import difflib
import re
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ProgramError
from ..trace.compact import compact_memory
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
#: by a test; slab-sized tiles: the slab is ``WORDS x tile`` words,
#: ``WORDS`` the compaction's width) crossed with a single- and a
#: multi-thread configuration.
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
    words: int  # slab lane width: the compaction's slots
    tile: int
    chunk: int
    threads: int
    stride: int  # row stride (0 for the column layout)
    outputs: Tuple[Tuple[int, int], ...]  # runs of output slots, column order
    imap: Tuple[int, ...]  # source word of each read-first slot
    memory_words: int  # the source program's words: IMAP's sentinel

    @property
    def out_words(self) -> int:
        """Width of the output image's rows: the declared words (each run
        of :attr:`outputs` fills the columns after the runs before it)."""
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
            # the arrangement's stride: the compaction keeps its padding
            stride=self.stride and self.stride + self.memory_words - self.words,
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

    The geometry is the program's compaction
    (:func:`repro.trace.compact.compact_memory`): ``words`` is its slot
    count, a row stride keeps the arrangement's padding over it, and
    ``outputs`` are the runs of its output slots.
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
    compaction = compact_memory(program, verify=False)
    if layout == "row":
        stride = int(stride) + compaction.width - program.memory_words
    return ScheduleConfig(
        layout=layout,
        p=int(arrangement.p),
        words=compaction.width,
        tile=int(tile),
        chunk=int(chunk),
        threads=max(1, int(threads)),
        stride=int(stride),
        outputs=compaction.out_runs,
        imap=compaction.imap,
        memory_words=program.memory_words,
    )


# -- proof object -------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleProof:
    """What was proven about one emitted schedule.

    ``span_tiled``/``span_sequential`` are the modeled stage counts of one
    coalesced bulk step under the tiled and the flat issue order (equal
    when ``w`` divides the tile; absent when no ``w`` was supplied).
    """

    program: str
    label: str
    config: ScheduleConfig
    accesses_per_lane: int
    elided_loads: int
    spill_loads: int
    spill_saves: int
    span_tiled: Optional[int]
    span_sequential: Optional[int]
    certified: bool

    @property
    def tiles(self) -> Tuple[Tuple[int, int], ...]:
        """The ``(first_lane, length)`` tiles of ``[0, P)`` — the driver
        lemma's closed form: ``TILE`` lanes each, the last one ``P - j0``."""
        c = self.config
        return tuple((j0, min(c.tile, c.p - j0)) for j0 in range(0, c.p, c.tile))

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
            f"{self.label}: {status} — {-(-c.p // c.tile)} tile(s) partition "
            f"{c.p} lane(s), {self.accesses_per_lane} access(es)/lane with "
            f"{self.elided_loads} load(s) forwarded, "
            f"{self.spill_loads}/{self.spill_saves} slab load/save(s) per "
            f"lane{span}"
        )


# -- the kernel frame ---------------------------------------------------------

#: The kernel's exported symbol: the ABI ``compile_bulk`` loads.
_KERNEL = "repro_bulk_kernel"

#: Per schedule constant: the rule a wrong value breaks and what it is.
#: Geometry (the address maps) is ``OBL-S703``; shape is ``OBL-S701``.
_MACRO_RULES = {
    "P": ("OBL-S703", "lane count"),
    "WORDS": ("OBL-S703", "slab lane width"),
    "OUT_WORDS": ("OBL-S703", "output row width (the declared words)"),
    "STRIDE": ("OBL-S703", "row stride"),
    "SLAB": ("OBL-S703", "slab size"),
    "TILE": ("OBL-S701", "tile size"),
    "NREGS": ("OBL-S701", "register count"),
    "THREADS": ("OBL-S701", "thread count"),
    "NREAD": ("OBL-S703", "read-first slot count (the input map's length)"),
}
_DEFINE_RE = re.compile(r"^#define (\w+) (-?\d+)L?\b")
_HEADER_RE = re.compile(
    r"^/\* schedule: layout=(?P<layout>\w+) p=(?P<p>\d+) words=(?P<words>\d+) "
    r"stride=(?P<stride>\d+) chunk=(?P<chunk>\d+) tile=(?P<tile>\d+) "
    r"threads=(?P<threads>\d+) \*/$"
)
_HEADER_START = "/* schedule: "
_CHUNK_START = re.compile(r"^static void chunk_(\d+)\(")
_CHUNK_CALL = re.compile(r"^chunk_(\d+)\(slab, regs\);$")
_SPILL_LOAD = re.compile(
    r"^(?:int64_t |double )?r(\d+) = regs\[(\d+) \* TILE \+ jj\];$"
)
_SPILL_SAVE = re.compile(r"^regs\[(\d+) \* TILE \+ jj\] = r(\d+);$")
_MEM_READ = re.compile(r"^(?:int64_t |double )?([rv]\d+) = mem\[(.+)\];$")
_MEM_WRITE = re.compile(r"^mem\[(.+)\] = r(\d+);$")
_ASSIGN = re.compile(r"^(?:int64_t |double )?r(\d+) = (.+);$")
_COMMENT = re.compile(r"/\*|\*/|//")
#: A right-hand side may compute, never write: no assignment, increment
#: or second statement hides inside it.
_SIDE_EFFECT = re.compile(r"(?<![=!<>])=(?!=)|\+\+|--|;")
_COL_ADDR = re.compile(r"^(\d+) \* TILE \+ jj$")
_ROW_ADDR = re.compile(r"^jj \* STRIDE \+ (\d+)$")
_IDENT = re.compile(r"\b[rv]\d+\b")
_SINGLE_IDENT = re.compile(r"^[rv]\d+$")
_INT_IMM = re.compile(r"^INT64_C\((-?\d+)\)$")
_NEST_LANES = re.compile(r"^for \(long jj = 0; jj < (\w+); \+\+jj\)$")
_NEST_WORDS = re.compile(r"^for \(long a = (-?\w+); a < (-?\w+); \+\+a\)$")
_SCATTER = re.compile(r"^stream_word\(&out\[([^;]+)\], slab\[([^;]+)\]\);$")
_OUT_MENTION = re.compile(r"\bout\b")
_MACRO_LINE = re.compile(r"^#\s*(?:define|undef)\s+(\w+)")
_FENCE_STMT = "STREAM_FENCE();"
_PRELUDE_INCLUDES = frozenset(
    ("#include <stdint.h>", "#include <math.h>", "#include <stddef.h>")
)

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

#: The two admitted ``LANE_HINT`` definitions.  Either is sound for a
#: certified body: every access is at the lane's own slab cells (the slab
#: map is injective), so the lane loop carries no dependence.
_LANE_HINTS = {
    True: (
        "#if defined(_OPENMP)",
        '#define LANE_HINT _Pragma("omp simd")',
        "#else",
        '#define LANE_HINT _Pragma("GCC ivdep")',
        "#endif",
    ),
    False: ("#define LANE_HINT",),
}

#: The exact index forms of the tile driver's data movement: the slab map
#: restricted to one tile (``a*TILE + jj`` column, ``jj*STRIDE + a`` row
#: and padded-row — the same maps the chunk accesses are matched against)
#: and the row-major output ``(P, OUT_WORDS)``, whose column for word
#: ``a`` of a declared range is ``a`` less the range's shift (its start
#: less the widths before it).
_SLAB_INDEX = {"column": "a * TILE + jj", "row": "jj * STRIDE + a"}
_OUT_INDEX = re.compile(r"^\(j0 \+ jj\) \* OUT_WORDS \+ a(?: ([-+]) (\d+))?$")
_IMAP_LINE = re.compile(r"^static const long IMAP\[NREAD \+ 1\] = \{(.*)\};$")
_IMAP_WHAT = "the input map IMAP (sentinel last)"
_SCATTER_WHAT = "the output scatter"
_OUTSIDE = ("writes the output image outside the streamed scatter — every "
            "output word must be written once, through stream_word, before "
            "the tile's fence")


class _Line(NamedTuple):
    """One line of the kernel frame and the obligation it carries: the
    rule a missing, changed or conditionally compiled copy breaks, and
    what the line does.  A chunk body is one slot line (``text`` starts
    with ``\\0``)."""

    text: str
    rule: str
    what: str


def _body_slot(ci: int) -> str:
    return f"\0chunk_{ci}"


def _macro_values(config: ScheduleConfig, nregs: int) -> Dict[str, int]:
    return {
        "P": config.p, "WORDS": config.words, "OUT_WORDS": config.out_words,
        "STRIDE": config.stride, "TILE": config.tile,
        "SLAB": config.slab_words, "NREGS": nregs, "THREADS": config.threads,
        "NREAD": len(config.imap),
    }


def _shifted(shift: int) -> str:
    if shift > 0:
        return f"a - {shift}"
    return f"a + {-shift}" if shift else "a"


def _render_frame(
    config: ScheduleConfig, ctype: str, nregs: int, n_chunks: int,
    hinted: bool,
) -> List[_Line]:
    """The native kernel from its schedule header on, outside the chunk
    bodies: the certifier's own copy of what ``emit_bulk_c`` must emit
    for this request.  ``docs/SCHEDULE.md`` proves its tile driver once,
    for every ``P``; this text is the one the lemma is about."""
    c = config
    at = _SLAB_INDEX[c.layout]
    tails = {
        "P": "L            /* lanes */",
        "WORDS": "L    /* words per lane (slab lane width) */",
        "OUT_WORDS": "L  /* output row width: the declared words */",
        "STRIDE": "L  /* slab lane stride of row layouts */",
        "TILE": "L",
        "SLAB": "L  /* words of the tile-private slab */",
        "NREAD": "L  /* read-first slots: [0, NREAD) start as input words "
                 "IMAP */",
    }
    pragma = "the OpenMP work-sharing pragma governing the tile loop"
    zero_fill = "the zero fill of slab slots [r, WORDS)"
    prefix = "the count r of read-first slots the k input words feed"

    def rows(rule: str, what: str, *texts: str) -> List[_Line]:
        return [_Line(text, rule, what) for text in texts]

    frame = rows(
        "OBL-S703", "the schedule header",
        f"/* schedule: layout={c.layout} p={c.p} words={c.words} "
        f"stride={c.stride} chunk={c.chunk} tile={c.tile} "
        f"threads={c.threads} */",
    )
    frame += [
        _Line(f"#define {name} {value}{tails.get(name, '')}", *_MACRO_RULES[name])
        for name, value in _macro_values(c, nregs).items()
    ]
    entries = ", ".join(str(a) for a in (*c.imap, c.memory_words))
    frame += rows("OBL-S703", _IMAP_WHAT,
                  f"static const long IMAP[NREAD + 1] = {{{entries}}};")
    frame += rows("OBL-S701", "the LANE_HINT definition", *_LANE_HINTS[hinted], "")
    for ci in range(n_chunks):
        frame += rows(
            "OBL-S701", f"chunk_{ci}'s signature",
            f"static void chunk_{ci}({ctype} *restrict mem, "
            f"{ctype} *restrict regs) {{",
            "    LANE_HINT",
        )
        frame += rows("OBL-S702", f"chunk_{ci}'s lane loop over [0, TILE)",
                      "    for (long jj = 0; jj < TILE; ++jj) {")
        frame += rows("OBL-S701", f"chunk_{ci}'s body", _body_slot(ci))
        frame += rows("OBL-S701", f"chunk_{ci}'s end", "    }", "}", "")
    frame += [_Line(text, rule, what) for rule, what, text in (
        ("OBL-S701", "the kernel signature",
         f"void {_KERNEL}(const {ctype} *restrict in, long k, "
         f"{ctype} *restrict out) {{"),
        ("OBL-S701", prefix,
         "    long r = 0;  /* read-first slots [0, r) gather input words */"),
        ("OBL-S701", prefix, "    while (IMAP[r] < k) ++r;"),
        ("OBL-S702", pragma, "#if defined(_OPENMP) && (THREADS > 1)"),
        ("OBL-S702", pragma,
         "#pragma omp parallel for schedule(static) num_threads(THREADS)"),
        ("OBL-S702", pragma, "#endif"),
        ("OBL-S702", "the tile loop partitioning [0, P)",
         "    for (long j0 = 0; j0 < P; j0 += TILE) {"),
        ("OBL-S702", "the tile-private data slab", f"        {ctype} slab[SLAB];"),
        ("OBL-S702", "the tile-private register slab",
         f"        {ctype} regs[NREGS * TILE];"),
        ("OBL-S701", "the tail length that stops the last tile at P",
         "        long len = (P - j0 < TILE) ? P - j0 : TILE;"),
        ("OBL-S701", "the register slab zeroing",
         "        for (long i = 0; i < NREGS * TILE; ++i) regs[i] = 0;"),
        ("OBL-S701", "the ragged tile's zero fill before the gather",
         "        if (len < TILE) for (long i = 0; i < SLAB; ++i) slab[i] = 0;"),
        ("OBL-S701", "the input gather's slots [0, r)",
         "        for (long a = 0; a < r; ++a)"),
        ("OBL-S702", "the input gather's lanes [0, len)",
         "            for (long jj = 0; jj < len; ++jj)"),
        ("OBL-S703", "the input gather's address map through IMAP",
         f"                slab[{at}] = in[(j0 + jj) * k + IMAP[a]];"),
        ("OBL-S701", zero_fill, "        for (long a = r; a < WORDS; ++a)"),
        ("OBL-S701", zero_fill, "            for (long jj = 0; jj < TILE; ++jj)"),
        ("OBL-S701", zero_fill, f"                slab[{at}] = 0;"),
    )]
    frame += [
        _Line(f"        chunk_{ci}(slab, regs);", "OBL-S701",
              "the chunk calls, in program order")
        for ci in range(n_chunks)
    ]
    column = 0  # output column of each run's first slot
    for lo, hi in c.outputs:
        frame += rows(
            "OBL-S701", _SCATTER_WHAT,
            "        for (long jj = 0; jj < len; ++jj)",
            f"            for (long a = {lo}; a < {hi}; ++a)",
            f"                stream_word(&out[(j0 + jj) * OUT_WORDS + "
            f"{_shifted(lo - column)}], slab[{at}]);",
        )
        column += hi - lo
    frame += rows("OBL-S702", "the STREAM_FENCE() after the streamed scatter",
                  f"        {_FENCE_STMT}")
    frame += rows("OBL-S701", "the kernel's end", "    }", "}")
    return frame


def _stray(text: str) -> Tuple[str, str]:
    """The rule and reason for a line the frame does not have."""
    m = _MACRO_LINE.match(text)
    if m and m.group(1) in _MACRO_RULES:
        rule, what = _MACRO_RULES[m.group(1)]
        return rule, f"it redefines {m.group(1)}, the {what}"
    if "stream_word" in text or "STREAM_FENCE" in text:
        return "OBL-S703", ("it redefines or bypasses the streamed store — a "
                            "redefined helper may write elsewhere than "
                            "out[(j0 + jj) * OUT_WORDS + a - shift]")
    if _OUT_MENTION.search(text):
        return "OBL-S702", f"it {_OUTSIDE}"
    return "OBL-S701", "the schedule cannot be proven around it"


def _conditions(texts: Sequence[str]) -> List[Tuple[str, ...]]:
    """The ``#if`` nest each line is compiled under."""
    stack: List[str] = []
    out = []
    for text in texts:
        out.append(tuple(stack))
        s = text.strip()
        if not s.startswith("#"):
            continue
        directive = s[1:].lstrip()
        if directive.startswith("if"):
            stack.append(s)
        elif directive.startswith(("elif", "else")) and stack:
            stack[-1] += f" … {s}"
        elif directive.startswith("endif") and stack:
            stack.pop()
    return out


def _parse_body(body: Sequence[Tuple[str, int]]) -> List[Tuple]:
    """One chunk body → its statements, as tagged tuples:
    ``("spill_load", reg, slab, lineno)``, ``("spill_save", slab, reg,
    lineno)``, ``("read", var, addr_expr, lineno)``, ``("write",
    addr_expr, reg, lineno)``, ``("assign", reg, rhs, lineno)``, and
    ``("opaque", text, lineno)`` for anything else — a blank line, a
    comment, a directive or a right-hand side with a side effect
    included, so nothing in a body is skipped."""
    stmts: List[Tuple] = []
    for text, lineno in body:
        s = text.strip()
        if _COMMENT.search(s):
            stmts.append(("opaque", s, lineno))
            continue
        for form, tag, cast in (
            (_SPILL_LOAD, "spill_load", (int, int)),
            (_SPILL_SAVE, "spill_save", (int, int)),
            (_MEM_READ, "read", (str, str)),
            (_MEM_WRITE, "write", (str, int)),
            (_ASSIGN, "assign", (int, str)),
        ):
            m = form.match(s)
            if m and not (tag == "assign" and _SIDE_EFFECT.search(m.group(2))):
                x, y = (f(g) for f, g in zip(cast, m.groups()))
                stmts.append((tag, x, y, lineno))
                break
        else:
            stmts.append(("opaque", s, lineno))
    return stmts


def _locate(lines: Sequence[str], start: int):
    """Source line ranges of the frame's variable parts: each chunk's body
    (after its lane loop, up to the loop's closing line) and the scatter
    nests (after the last chunk call, up to the fence or the tile loop's
    end).  Returns ``({slot_text: (begin, end)}, scatter_range)``."""
    slots: Dict[str, Tuple[int, int]] = {}
    after = start
    for j in range(start, len(lines)):
        m = _CHUNK_START.match(lines[j])
        if not m or _body_slot(int(m.group(1))) in slots:
            continue
        begin = j + 3
        end = next((e for e in range(begin, len(lines)) if lines[e] == "    }"),
                   len(lines))
        slots[_body_slot(int(m.group(1)))] = (begin, end)
        after = max(after, end)
    calls = [j for j in range(after, len(lines))
             if _CHUNK_CALL.match(lines[j].strip())]
    scatter = None
    if calls:
        begin = calls[-1] + 1
        end = next((e for e in range(begin, len(lines)) if lines[e] in (
            f"        {_FENCE_STMT}", "    }")), len(lines))
        scatter = (begin, end)
    return slots, scatter


def _parse_local_addr(expr: str, layout: str) -> Optional[int]:
    form = _COL_ADDR if layout == "column" else _ROW_ADDR
    m = form.match(expr.strip())
    return int(m.group(1)) if m else None


def _words(addresses: np.ndarray) -> str:
    shown = ", ".join(str(int(a)) for a in addresses[:4])
    return f"{shown}, …" if addresses.size > 4 else shown


def _certify_scatter(
    region: Sequence[Tuple[str, int]], config: ScheduleConfig, fail
) -> None:
    """The output scatter: one nest per declared range, in range order,
    each over ``jj ∈ [0, len)`` × ``a ∈ [lo, hi)`` streaming the slab's
    slot ``a`` of lane ``jj`` to column ``a - shift`` of output row
    ``j0 + jj``.  The ranges are the runs of output slots
    (``config.outputs``, in column order).  The frame places the nests
    after the last chunk call and before the fence; here they are
    accounted slot by slot against the runs: an output slot no nest
    writes is ``OBL-S701``; a slot written that is no output's, or written
    twice, is ``OBL-S702``; a slot streamed to another column, or a slot
    outside ``[0, WORDS)``, is ``OBL-S703``; nests out of column order
    are ``OBL-S701``.
    """
    what = _SCATTER_WHAT
    slab_at = _SLAB_INDEX[config.layout]
    column = np.full(config.words, -1, dtype=np.int64)
    offset = 0
    for lo, hi in config.outputs:
        column[lo:hi] = np.arange(offset, offset + hi - lo)
        offset += hi - lo
    writes = np.zeros(config.words, dtype=np.int64)
    starts: List[int] = []
    nests = 0
    i = 0
    while i < len(region):
        text, lineno = region[i]
        s = text.strip()
        if not (s.startswith("for (") and i + 2 < len(region)
                and region[i + 1][0].strip().startswith("for (")):
            rule, reason = _stray(s)
            fail(rule, f"line {lineno}: {s!r} is not a line of the kernel "
                       f"frame — {reason}")
            i += 1
            continue
        loops = (s, region[i + 1][0].strip())
        body = region[i + 2][0].strip()
        nest = " ".join(loops + (body,))
        i += 3
        target = _SCATTER.match(body)
        if target is None:
            rule, reason = _stray(body)
            fail(rule, f"line {lineno}: unrecognised tile-driver loop nest "
                       f"{nest!r} — {reason}")
            continue
        nests += 1
        lanes, words = _NEST_LANES.match(loops[0]), _NEST_WORDS.match(loops[1])
        if lanes is None or words is None:
            fail("OBL-S701", f"{what} {nest!r} does not loop over lanes jj, "
                             f"then words a")
            continue
        if lanes.group(1) != "len":
            fail("OBL-S702", f"{what} covers lanes jj ∈ [0, {lanes.group(1)}) "
                             f"but must cover [0, len) (a ragged tile owns "
                             f"only its first len lanes)")
        try:
            lo, hi = int(words.group(1)), int(words.group(2))
        except ValueError:
            lo = hi = 0
        if lo >= hi:
            fail("OBL-S701", f"{what} covers words a ∈ {list(words.groups())}, "
                             f"not a static non-empty range")
            continue
        out_index, slab_index = (" ".join(g.split()) for g in target.groups())
        out_map = _OUT_INDEX.match(out_index)
        if slab_index != slab_at:
            fail("OBL-S703", f"{what} diverges from the address map: index "
                             f"{slab_index!r} is not the map's {slab_at!r}")
            continue
        if out_map is None:
            fail("OBL-S703", f"{what} diverges from the address map: index "
                             f"{out_index!r} is not the output map "
                             f"'(j0 + jj) * OUT_WORDS + a - shift'")
            continue
        if lo < 0 or hi > config.words:
            fail("OBL-S703", f"{what} streams slab slots [{lo}, {hi}), "
                             f"outside a lane's [0, {config.words})")
            continue
        sign, amount = out_map.groups()
        shift = -int(amount) if sign == "+" else int(amount or 0)
        span = np.arange(lo, hi)
        cols = column[lo:hi]
        undeclared = span[cols < 0]
        if undeclared.size:
            fail("OBL-S702", f"{what} writes undeclared slot(s) "
                             f"{_words(undeclared)} — only the slots of the "
                             f"program's declared outputs "
                             f"{list(config.outputs)} may reach the image")
        moved = span[(cols >= 0) & (cols != span - shift)]
        if moved.size:
            a = int(moved[0])
            fail("OBL-S703", f"{what} streams slot {a} to column "
                             f"{a - shift}, but its declared column is "
                             f"{int(column[a])}")
        writes[lo:hi] += 1
        starts.append(lo)
    if not nests:
        fail("OBL-S701", f"no nest for {what} — the kernel returns nothing")
    repeated = np.flatnonzero(writes > 1)
    if repeated.size:
        fail("OBL-S702", f"{what} streams slot(s) {_words(repeated)} more "
                         f"than once — overlapping scatter ranges")
    declared = np.flatnonzero(column >= 0)
    missing = declared[writes[declared] == 0]
    if nests and missing.size:
        fail("OBL-S701", f"{what} drops declared output slot(s) "
                         f"{_words(missing)} — the image's columns for them "
                         f"are never written")
    first_columns = [int(column[lo]) for lo in starts]
    if first_columns != sorted(first_columns):
        fail("OBL-S701", f"{what} nests start at slots {starts}, not in the "
                         f"declared range order — the runs "
                         f"{list(config.outputs)} in output-column order")


def _certify_preamble(head: Sequence[str], ctype: str, fail) -> None:
    """Before the schedule header: the scatter's store and fence are the
    pinned definitions (``OBL-S703``), :data:`_STREAM_HELPERS` appears
    exactly once, and the only other preprocessor lines are the prelude's
    ``#include`` lines — no macro, ``#undef`` or condition the frame does not
    see.  The prelude's arithmetic helpers are certified elsewhere
    (``OBL-E30x``)."""
    pinned = _STREAM_HELPERS.format(ctype=ctype)
    text = "".join(line + "\n" for line in head)
    if text.count(pinned) != 1:
        fail("OBL-S703", "the stream_word/STREAM_FENCE definitions are not "
                         "the pinned text — a redefined helper may write "
                         "elsewhere than out[(j0 + jj) * OUT_WORDS + a - shift]")
        return
    first = text[: text.index(pinned)].count("\n")
    pinned_lines = range(first, first + pinned.count("\n"))
    for j, line in enumerate(head):
        s = line.strip()
        if j in pinned_lines or not (
            (s.startswith("#") and s not in _PRELUDE_INCLUDES)
            or "stream_word" in s or "STREAM_FENCE" in s or s.endswith("\\")
        ):
            continue
        rule, reason = _stray(s)
        fail(rule, f"line {j + 1}: {s!r} may not precede the schedule "
                   f"header — {reason}")


def _imap_problems(entries: str, config: ScheduleConfig) -> List[str]:
    """Why an ``IMAP`` table's ``entries`` are not the request's input map
    and sentinel: the gather's lemma needs an increasing (hence injective)
    map into the source words, closed by ``memory_words``."""
    want = [*config.imap, config.memory_words]
    try:
        got = [int(e) for e in entries.split(",")]
    except ValueError:
        return [f"{_IMAP_WHAT} {entries!r} is not a list of word addresses"]
    problems = []
    repeats = sorted({a for a in got if got.count(a) > 1})
    if repeats:
        problems.append(
            f"{_IMAP_WHAT} is not injective — slots share source word(s) "
            f"{repeats}, so one input word would feed two slots and another "
            f"none")
    if len(got) != len(want):
        problems.append(
            f"{_IMAP_WHAT} has {len(got)} entries but the compaction gathers "
            f"{len(want) - 1} slot(s) plus the sentinel")
    else:
        moved = [(s, g, w) for s, (g, w) in enumerate(zip(got, want)) if g != w]
        if moved and not repeats:
            s, g, w = moved[0]
            problems.append(
                f"{_IMAP_WHAT} feeds slot {s} from source word {g}, but the "
                f"compaction's input map has {w} there")
    return problems or [f"{_IMAP_WHAT} is not the frame's text"]


def _frame_change(
    line: _Line, text: str, lineno: int, config: ScheduleConfig,
    values: Dict[str, int],
) -> List[Tuple[str, str]]:
    """Why source ``text`` is not frame ``line``: the header's and the
    ``#define`` lines' values are compared key by key, any other line is
    reported with its obligation."""
    if line.what == "the schedule header":
        claim = _HEADER_RE.match(text)
        if claim is not None:
            found = []
            for key, got in claim.groupdict().items():
                want = getattr(config, key)
                if got == str(want):
                    continue
                if key in ("layout", "p", "words", "stride"):
                    found.append(("OBL-S703", f"emitter claims {key}={got} but "
                                              f"the engine allocates for "
                                              f"{key}={want}"))
                else:
                    found.append(("OBL-S701", f"emitter claims {key}={got} but "
                                              f"the request was {key}={want}"))
            if found:
                return found
    imap = _IMAP_LINE.match(text)
    if line.what == _IMAP_WHAT and imap is not None:
        return [(line.rule, f"line {lineno}: {problem}")
                for problem in _imap_problems(imap.group(1), config)]
    define = _DEFINE_RE.match(text)
    if define and define.group(1) in values and line.text.startswith(
        f"#define {define.group(1)} "
    ):
        name, got = define.group(1), int(define.group(2))
        if got != values[name]:
            return [(line.rule, f"compiled {name}={got} but the {line.what} "
                                f"must be {values[name]} — the kernel indexes "
                                f"a different geometry than the engine "
                                f"allocates")]
    return [(line.rule, f"line {lineno}: {line.what} — {text.strip()!r} is "
                        f"not the frame's {line.text.strip()!r}")]


def _certify_frame(
    lines: Sequence[str], start: int, frame: List[_Line],
    config: ScheduleConfig, values: Dict[str, int], fail,
) -> Dict[int, List[Tuple[str, int]]]:
    """Hold the source, from the schedule header on, to the frame: every
    line is a frame line, byte for byte and under the frame's own
    ``#if`` nest, or lies in a chunk body or the scatter nests.  Returns
    each chunk's body lines (``(text, lineno)``) for the replay."""
    slots, scatter = _locate(lines, start)
    seen: List[Tuple[str, int]] = []  # collapsed source: (text, 0-based index)
    j = start
    begins = {begin: (slot, end) for slot, (begin, end) in slots.items()}
    if scatter is not None:
        begins[scatter[0]] = ("\0scatter", scatter[1])
    while j < len(lines):
        if j in begins:
            slot, end = begins.pop(j)
            seen.append((slot, j))
            j = end
            continue
        seen.append((lines[j], j))
        j += 1
    scatter_lines = [line for line in frame if line.what == _SCATTER_WHAT]
    expected = [line for line in frame if line.what != _SCATTER_WHAT]
    at = expected.index(next(
        line for line in expected if line.text.endswith(_FENCE_STMT)))
    expected.insert(at, _Line("\0scatter", "OBL-S701", _SCATTER_WHAT))

    src_conds = _conditions(lines[start:])
    frame_conds = _conditions([line.text for line in expected])

    def missing(line: _Line, lineno: int) -> None:
        if line.text == "\0scatter":
            return  # the accounting below reports the absent nests
        fail(line.rule, f"line {lineno}: {line.what} — the frame's "
                        f"{line.text.strip()!r} is missing")

    def stray(text: str, index: int) -> None:
        if text.startswith("\0"):
            begin, end = slots.get(text, scatter)
            for k in range(begin, end):
                stray(lines[k], k)
            return
        rule, reason = _stray(text.strip())
        fail(rule, f"line {index + 1}: {text.strip()!r} is not a line of the "
                   f"kernel frame — {reason}")

    matcher = difflib.SequenceMatcher(
        None, [t for t, _ in seen], [line.text for line in expected],
        autojunk=False,
    )
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            for (text, index), k in zip(seen[i1:i2], range(j1, j2)):
                cond = src_conds[index - start]
                if cond != frame_conds[k] and not text.startswith("\0"):
                    line = expected[k]
                    fail(line.rule, f"line {index + 1}: {line.what} — "
                                    f"{text.strip()!r} is compiled only "
                                    f"under {' / '.join(cond)!r}")
            continue
        paired = min(i2 - i1, j2 - j1)
        for (text, index), line in zip(
            seen[i1:i1 + paired], expected[j1:j1 + paired]
        ):
            if text.startswith("\0") or line.text.startswith("\0"):
                stray(text, index)
                missing(line, index + 1)
                continue
            for rule, message in _frame_change(
                line, text, index + 1, config, values
            ):
                fail(rule, message)
        for text, index in seen[i1 + paired:i2]:
            stray(text, index)
        where = seen[i2][1] + 1 if i2 < len(seen) else len(lines)
        for line in expected[j1 + paired:j2]:
            missing(line, where)

    region = [] if scatter is None else [
        (lines[k], k + 1) for k in range(*scatter)]
    problems: List[Tuple[str, str]] = []
    _certify_scatter(region, config, lambda *problem: problems.append(problem))
    for problem in problems:
        fail(*problem)
    if not problems and [t for t, _ in region] != [
        line.text for line in scatter_lines
    ]:
        fail("OBL-S701", f"{_SCATTER_WHAT} is not the frame's one nest per "
                         f"declared range {list(config.outputs)}")
    return {
        int(slot[len("\0chunk_"):]): [(lines[k], k + 1) for k in range(b, e)]
        for slot, (b, e) in slots.items()
    }


# -- the symbolic lane replay -------------------------------------------------


class _WalkFailure(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        self.diagnostic = diagnostic
        super().__init__(diagnostic.message)


def _replay_lane(
    program: Program,
    chunks: Dict[int, List[Tuple]],
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

    for ci, stmts in sorted(chunks.items()):
        env: Dict[str, int] = {}
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
    when the source has no schedule header or not the requested chunk
    functions, so no frame can be laid over it.  ``w`` enables the span
    cross-check against :func:`repro.machine.analytic.tiled_stage_count`.
    """
    name = program.name
    c = config
    if label is None:
        label = f"schedule[{c.layout},tile={c.tile},threads={c.threads}]"
    out: List[Diagnostic] = []
    certs: List[str] = []

    def fail(rule: str, message: str) -> None:
        out.append(diag(rule, f"{label}: {message}", program=name))

    lines = source.splitlines()
    start = next(
        (j for j, line in enumerate(lines) if line.startswith(_HEADER_START)),
        None,
    )
    if start is None:
        fail("OBL-S701", "no schedule header (/* schedule: … */) — the kernel "
                         "frame cannot be laid over the source; nothing to "
                         "certify")
        return out, certs, None

    # 1. The chunk functions the request implies.
    n_instr = len(program.instructions)
    n_chunks = max(1, -(-n_instr // c.chunk))
    defined = sorted(
        int(m.group(1)) for m in map(_CHUNK_START.match, lines[start:]) if m
    )
    if defined != list(range(n_chunks)):
        fail("OBL-S701", f"expected chunk functions 0..{n_chunks - 1} "
                         f"({n_instr} instructions / chunk={c.chunk}) but the "
                         f"source defines {defined}")
        return out, certs, None

    # 2. The lemma's hypotheses on the request: a positive lane count and
    #    tile, a row stride that keeps slab lanes apart, and the geometry
    #    of the program's compaction, whose input map is increasing inside
    #    [0, memory_words) and at most WORDS long by construction (its
    #    renaming is proven at build time by the equivalence prover; the
    #    bodies are replayed against it).
    if c.p < 1 or c.tile < 1:
        fail("OBL-S701", f"P={c.p} and TILE={c.tile} must both be positive")
    if c.layout == "row" and c.stride < c.words:
        fail("OBL-S703", f"row stride {c.stride} is smaller than the "
                         f"program's {c.words} words — slab lanes overlap")
    compaction = compact_memory(program, verify=False)
    geometry = dict(words=compaction.width, imap=compaction.imap,
                    outputs=compaction.out_runs,
                    memory_words=program.memory_words)
    for key, want in geometry.items():
        if getattr(c, key) != want:
            fail("OBL-S703", f"the request's {key} is not the geometry of "
                             f"the program's compaction — the kernel would "
                             f"run a different renaming than the one proven")

    # 3. The frame: the preamble's pinned helpers, then every line from the
    #    schedule header on.
    ctype = "int64_t" if np.dtype(program.dtype) == np.int64 else "double"
    values = _macro_values(c, program.num_registers)
    hinted = _LANE_HINTS[True][1] in lines[start:]
    frame = _render_frame(c, ctype, program.num_registers, n_chunks, hinted)
    _certify_preamble(lines[:start], ctype, fail)
    bodies = _certify_frame(lines, start, frame, c, values, fail)
    frame_ok = not out
    tiles = -(-c.p // c.tile)
    if frame_ok:
        lane_map = (
            f"a·TILE+jj over {c.words}×{c.tile}" if c.layout == "column"
            else f"jj·STRIDE+a with STRIDE={c.stride} ≥ WORDS={c.words}"
        )
        certs.append(
            f"{label}: kernel frame — from its schedule header on the source "
            f"is the certifier's frame for {n_chunks} chunk(s) and declared "
            f"outputs {list(c.outputs)}, line for line, around the chunk "
            f"bodies; the driver lemma (docs/SCHEDULE.md) proves that frame "
            f"for every P"
        )
        certs.append(
            f"{label}: slab map {lane_map} injective inside the "
            f"{c.slab_words}-word tile slab — distinct lanes touch "
            f"disjoint cells"
        )
        certs.append(
            f"{label}: gather/scatter commute with the address map — each "
            f"tile gathers input word IMAP[s] of lane j0+jj into slot s of "
            f"its private slab at the layout's map, for the r of "
            f"{len(c.imap)} increasing IMAP entries below k, zero-fills "
            f"slots [r, WORDS) and absent lanes, and streams each of its own "
            f"lanes' {c.out_words} declared output word(s) once, from its "
            f"slot to its column of output row j0+jj, through the pinned "
            f"stream_word, then fences"
        )
        certs.append(
            f"{label}: race freedom — {tiles} tile(s) partition lanes "
            f"[0, {c.p}) disjointly, each tile scatters only its own "
            f"output rows, both slabs are tile-private, and "
            f"schedule(static) ranges over whole tiles: distinct threads' "
            f"write sets are disjoint and no cross-tile read-after-write "
            f"exists"
        )

    # 4. The symbolic lane replay through the bodies, in the frame's call
    #    order (trace preservation and forwarding soundness).
    walk_ok = False
    elided = sloads = ssaves = 0
    chunks = {ci: _parse_body(bodies.get(ci, ())) for ci in range(n_chunks)}
    try:
        elided, sloads, ssaves = _replay_lane(
            compaction.program, chunks, c, label
        )
        walk_ok = True
    except _WalkFailure as failure:
        out.append(failure.diagnostic)
    if walk_ok:
        certs.append(
            f"{label}: per-lane trace preserved — the symbolic replay of "
            f"{n_chunks} chunk(s) reproduces all "
            f"{program.trace_length} accesses with every store's value "
            f"equal to the sequential reference by value number"
        )
        certs.append(
            f"{label}: forwarding sound — {elided} elided load(s), "
            f"each proven value-equal to the addressed cell at its "
            f"program point (dominating same-address access, no "
            f"aliasing store between)"
        )

    # 5. Span cross-check: the lemma's tiles (⌊P/TILE⌋ full ones and a
    #    tail of P mod TILE lanes) priced in stages of w must match the
    #    analytic closed form.
    span_tiled = span_seq = None
    if w is not None and w >= 1 and frame_ok:
        from ..machine.analytic import tiled_stage_count

        full, tail = divmod(c.p, c.tile)
        derived = full * -(-c.tile // w) + -(-tail // w)
        closed = tiled_stage_count(c.p, w, c.tile)
        span_seq = -(-c.p // w)
        if derived != closed:
            fail("OBL-S701", f"span cross-check failed — the lemma's tile "
                             f"decomposition occupies {derived} stage(s) of "
                             f"w={w} but machine.analytic prices {closed}")
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
        config=c,
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
