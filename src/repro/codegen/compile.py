"""Compile emitted C and run it through ctypes.

Closes the loop on the conversion system: the same oblivious program runs
through (a) the Python interpreter, (b) the vectorised bulk engine and
(c) natively compiled C — and the tests demand bit-agreement between all
three.  Compilation requires a system C compiler (``cc``); callers should
guard with :func:`have_compiler` (the tests skip without one).

All builds go through the content-addressed cache in
:mod:`repro.codegen.cache`: the second compilation of the same source with
the same flags is a disk lookup, shared across processes.  This matters
most for :func:`compile_bulk`, whose flagship kernels take the compiler
a minute while every later session loads them in milliseconds.
"""

from __future__ import annotations

import ctypes
import os
import shutil
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..errors import (
    CacheCorruptionError,
    CompileError,
    ExecutionError,
    ProgramError,
    ReproError,
    SlabBudgetError,
)
from ..reliability import faults
from ..reliability.incidents import record_incident
from ..trace.compact import compact_memory
from ..trace.ir import Program
from .c_emitter import BULK_KERNEL_SYMBOL, _ctype, c_symbol_names, emit_c
from .cache import cached_library

__all__ = [
    "have_compiler",
    "have_openmp",
    "simd_isa",
    "simd_width",
    "compile_program",
    "CompiledProgram",
    "compile_bulk",
    "CompiledBulkKernel",
    "native_supported",
    "BULK_DEFAULT_TILE",
    "BULK_DEFAULT_CHUNK",
    "SLAB_BUDGET_BYTES",
    "slab_bytes",
    "resolve_tile",
]

#: Flags for the bulk kernels: ``-O3`` pays off on the forwarded emission
#: (the forwarding pass already bounded the code size per loop),
#: ``-march=native`` unlocks the host's vector width, and ``-std=c99``
#: keeps FP contraction off, preserving bit-equality with the NumPy engine.
_BULK_FLAGS = ("-std=c99", "-O3", "-march=native", "-fPIC", "-shared")

#: Defaults of the tiled emission: 512 instructions per chunk function
#: and 8-lane tiles, whose slab (OPT n=32: 496 compact words x 8 lanes =
#: 31 KiB) stays L1-resident while every lane loop keeps a full vector's
#: trip count.
BULK_DEFAULT_CHUNK = 512
BULK_DEFAULT_TILE = 8

#: Stack budget of one tile's slabs (data + registers).  Both live on the
#: stack of whichever thread runs the tile, so a larger request raises
#: instead of risking a stack overflow; the default tile shrinks to fit.
SLAB_BUDGET_BYTES = 256 * 1024


def have_compiler() -> bool:
    """True when a usable C compiler is on PATH."""
    return shutil.which("cc") is not None or shutil.which("gcc") is not None


def _cc() -> str:
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise CompileError("no C compiler on PATH (install gcc/clang)")
    return cc


_OPENMP_PROBE: "dict[str, bool]" = {}

_OPENMP_PROBE_SOURCE = """\
#include <omp.h>
int probe_threads(void) {
    int n = 0;
#pragma omp parallel
    {
#pragma omp atomic
        n += 1;
    }
    return n;
}
"""


def have_openmp() -> bool:
    """Can the system compiler build ``-fopenmp`` translation units?

    The capability probe behind the threaded emission: a tiny OpenMP unit
    is compiled once per process (through the content-addressed cache, so
    repeat probes across processes are disk lookups).  When it fails —
    a toolchain without ``libgomp``, clang without the runtime — callers
    degrade to single-thread kernels, mirroring the guarded-degrade
    pattern: same source, no pragma, bit-identical output.

    ``REPRO_NO_OPENMP=1`` forces the probe to fail: CI's capability
    matrix uses it to exercise the single-thread degrade path on
    toolchains that *do* have OpenMP, and operators can use it to pin
    deterministic single-thread kernels regardless of requested threads.
    """
    if os.environ.get("REPRO_NO_OPENMP") == "1":
        return False
    if not have_compiler():
        return False
    cc = _cc()
    cached = _OPENMP_PROBE.get(cc)
    if cached is not None:
        return cached
    try:
        cached_library(
            _OPENMP_PROBE_SOURCE,
            ("-std=c99", "-fopenmp", "-fPIC", "-shared"),
            cc,
        )
        ok = True
    except (ReproError, OSError):
        ok = False
    _OPENMP_PROBE[cc] = ok
    return ok


def simd_isa() -> str:
    """Best SIMD instruction set the host advertises (diagnostic only).

    Read from ``/proc/cpuinfo`` flags on Linux, ``platform.machine()``
    elsewhere; used by CI logs and benchmark reports to label what
    ``-march=native`` unlocked — never to gate behaviour.
    """
    import platform

    try:
        with open("/proc/cpuinfo") as fh:
            flags: set = set()
            for line in fh:
                if line.startswith(("flags", "Features")):
                    flags.update(line.split(":", 1)[1].split())
        for isa in ("avx512f", "avx2", "avx", "sse4_2", "asimd", "neon"):
            if isa in flags:
                return isa
    except OSError:
        pass
    return platform.machine() or "unknown"


#: Vector register width, in bits, of each ISA :func:`simd_isa` can report.
_ISA_BITS = {
    "avx512f": 512,
    "avx2": 256,
    "avx": 256,
    "sse4_2": 128,
    "asimd": 128,
    "neon": 128,
}


def simd_width(bits_per_lane: int = 64) -> int:
    """Lanes per vector issue for ``bits_per_lane``-bit elements (>= 1).

    ``avx512f`` with 64-bit words → 8, ``avx2`` → 4, unknown hosts → 1.
    This feeds the analytic model's effective-lane speedup
    (:func:`repro.machine.analytic.effective_lane_speedup`), *not* code
    generation — the emitted kernels leave vector selection to
    ``-march=native``.
    """
    if bits_per_lane < 1:
        raise CompileError(f"bits_per_lane must be >= 1, got {bits_per_lane}")
    return max(1, _ISA_BITS.get(simd_isa(), 0) // bits_per_lane)


def _load(source: str, flags: Sequence[str]) -> "tuple[ctypes.CDLL, str]":
    """Compile (or fetch from cache) and load a translation unit.

    Returns ``(library, cache_key)``.  A shared object that passed the
    cache's magic-byte check but still fails to load (truncated past the
    header, wrong architecture after a toolchain change, …) is treated as
    corruption: the entry is evicted and recompiled once before giving up
    with :class:`~repro.errors.CacheCorruptionError`.
    """
    from .cache import evict_entry

    last_exc: Exception = CacheCorruptionError("unreachable")
    for attempt in range(2):
        path = cached_library(source, flags, _cc())
        key = path.stem
        try:
            faults.inject("codegen.cache.load")
            return ctypes.CDLL(str(path)), key
        except OSError as exc:
            last_exc = exc
            evict_entry(key)
            record_incident(
                "cache-corruption",
                "codegen.cache.load",
                f"shared object failed to load (attempt {attempt + 1}/2), "
                f"entry evicted: {exc}",
                key=key,
            )
    raise CacheCorruptionError(
        f"cached kernel failed to load even after recompilation: {last_exc}",
        key=key,
    )


@dataclass
class CompiledProgram:
    """A program's native functions, loaded via ctypes.

    Keep a reference alive while using the functions — the shared object is
    unloaded with the owning library handle.
    """

    program: Program
    _lib: ctypes.CDLL

    def __post_init__(self) -> None:
        names = c_symbol_names(self.program)
        ptr = (
            ctypes.POINTER(ctypes.c_int64)
            if np.issubdtype(self.program.dtype, np.integer)
            else ctypes.POINTER(ctypes.c_double)
        )
        self._run_one = getattr(self._lib, names["run_one"])
        self._run_one.argtypes = [ptr]
        self._run_one.restype = None
        self._bulk = {}
        for arrangement in ("column", "row"):
            fn = getattr(self._lib, names[f"bulk_{arrangement}"])
            fn.argtypes = [ptr, ctypes.c_long]
            fn.restype = None
            self._bulk[arrangement] = fn

    # -- execution --------------------------------------------------------
    def _buffer(self, arr: np.ndarray):
        ctype = (
            ctypes.c_int64
            if np.issubdtype(self.program.dtype, np.integer)
            else ctypes.c_double
        )
        return arr.ctypes.data_as(ctypes.POINTER(ctype))

    def run_one(self, input_memory: Optional[np.ndarray] = None) -> np.ndarray:
        """Native sequential run; mirrors :func:`repro.trace.run_sequential`."""
        mem = np.zeros(self.program.memory_words, dtype=self.program.dtype)
        if input_memory is not None:
            data = np.asarray(input_memory, dtype=self.program.dtype)
            if data.size > mem.size:
                raise ExecutionError(
                    f"input of {data.size} words exceeds program memory "
                    f"({mem.size} words)"
                )
            mem[: data.size] = data
        self._run_one(self._buffer(mem))
        return mem

    def run_bulk(
        self, inputs: np.ndarray, arrangement: str = "column"
    ) -> np.ndarray:
        """Native bulk run; mirrors :class:`repro.bulk.BulkExecutor`.

        Returns the ``(p, output_words)`` declared outputs regardless of
        the internal layout.
        """
        if arrangement not in self._bulk:
            raise ExecutionError(f"unknown arrangement {arrangement!r}")
        arr = np.asarray(inputs, dtype=self.program.dtype)
        if arr.ndim != 2:
            raise ExecutionError(f"expected (p, k) inputs, got shape {arr.shape}")
        p, k = arr.shape
        words = self.program.memory_words
        if k > words:
            raise ExecutionError(f"{k} input words exceed memory ({words})")
        if arrangement == "column":
            buf = np.zeros((words, p), dtype=self.program.dtype)
            buf[:k, :] = arr.T
        else:
            buf = np.zeros((p, words), dtype=self.program.dtype)
            buf[:, :k] = arr
        self._bulk[arrangement](self._buffer(buf), ctypes.c_long(p))
        image = buf.T if arrangement == "column" else buf
        return np.ascontiguousarray(image[:, self.program.output_index()])


def compile_program(
    program: Program, *, optimize_flag: str = "-O2"
) -> CompiledProgram:
    """Emit, compile (shared object, cached) and load ``program``'s C."""
    source = emit_c(program)
    flags = ("-std=c99", optimize_flag, "-fPIC", "-shared")
    lib, _ = _load(source, flags)
    return CompiledProgram(program=program, _lib=lib)


def native_supported(program: Program, arrangement) -> bool:
    """Can :func:`compile_bulk` handle this program/arrangement pair?"""
    try:
        _ctype(program)
    except ProgramError:
        return False
    return getattr(arrangement, "name", None) in ("column", "row", "padded-row")


def slab_bytes(program: Program, arrangement, tile: int) -> int:
    """Stack bytes one tile of the native bulk kernel occupies.

    The data slab holds ``tile`` lanes of the compact width — the slots
    the program keeps live (:func:`repro.trace.compact.compact_memory`),
    plus a padded row's padding — and the register slab ``tile`` lanes of
    every register.  ``memory_words`` does not enter: the kernel never
    stages the words the program does not keep.
    """
    padding = getattr(arrangement, "stride", program.memory_words) - (
        program.memory_words
    )
    lane_words = compact_memory(program, verify=False).width + padding
    per_lane = lane_words + program.num_registers
    return per_lane * int(tile) * np.dtype(program.dtype).itemsize


@dataclass
class CompiledBulkKernel:
    """A compiled whole-program bulk kernel bound to one layout.

    :meth:`run_bulk` reads the row-major ``(p, k)`` inputs and fills a
    row-major ``(p, OUT_WORDS)`` output image of the program's declared
    output words — gather, execute and scatter in one call, with no
    arranged buffer in between.  ``p`` is the inputs' row count: one
    kernel serves every lane count.
    """

    program: Program
    _lib: ctypes.CDLL
    cache_key: str = ""
    tile: int = BULK_DEFAULT_TILE
    threads: int = 1

    def __post_init__(self) -> None:
        self._kernel = getattr(self._lib, BULK_KERNEL_SYMBOL)
        self._kernel.argtypes = [
            ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_long,
        ]
        self._kernel.restype = None

    def close(self) -> None:
        """Release the shared-object handle (``dlclose``) — idempotent.

        A long-lived process that churns through kernels (the serving
        layer's per-batch-size executors, an interrupted session) would
        otherwise keep every ``.so`` mapped until interpreter exit.  After
        closing, :meth:`run_bulk` raises rather than calling into an
        unmapped library.

        OpenMP kernels (``threads > 1``) drop the handle but stay mapped:
        libgomp keeps its worker-thread pool alive across kernel calls and
        does not support being unloaded, so a real ``dlclose`` leaves those
        threads pointing into unmapped code and crashes the process at (or
        before) exit.  The mapping leak is bounded by the content-addressed
        cache — one ``.so`` per distinct kernel, not per executor.
        """
        lib, self._lib = self._lib, None
        self._kernel = None
        if lib is None:
            return
        if self.threads > 1:
            return
        try:
            import _ctypes

            if hasattr(_ctypes, "dlclose"):
                _ctypes.dlclose(lib._handle)
            elif hasattr(_ctypes, "FreeLibrary"):  # pragma: no cover - win32
                _ctypes.FreeLibrary(lib._handle)
        except (ImportError, AttributeError, OSError):  # pragma: no cover
            pass  # unloading is best-effort; dropping the ref still helps

    @property
    def closed(self) -> bool:
        """Has :meth:`close` released the library handle?"""
        return self._lib is None

    def run_bulk(self, inputs: np.ndarray, out: np.ndarray) -> None:
        """Run the whole program: ``(p, k)`` ``inputs`` → ``(p, OUT_WORDS)``
        ``out``, ``OUT_WORDS`` being the program's
        :attr:`~repro.trace.ir.Program.output_words`.

        Input words ``[k, memory_words)`` start at zero.  Both arrays must
        be C-contiguous in the program dtype, with the same number ``p``
        of rows; ``out`` is overwritten entirely.
        """
        if self._kernel is None:
            raise ExecutionError(
                f"bulk kernel for {self.program.name!r} has been closed"
            )
        words = self.program.memory_words
        out_words = self.program.output_words
        p = inputs.shape[0] if inputs.ndim == 2 else 0
        for what, arr in (("inputs", inputs), ("out", out)):
            if (
                arr.dtype != self.program.dtype
                or not arr.flags["C_CONTIGUOUS"]
                or arr.ndim != 2
                or arr.shape[0] != p
                or p < 1
            ):
                raise ExecutionError(
                    f"inputs and out must be C-contiguous {self.program.dtype} "
                    f"arrays of the same p >= 1 rows, got {what} "
                    f"{arr.dtype} {arr.shape}"
                )
        if inputs.shape[1] > words or out.shape[1] != out_words:
            raise ExecutionError(
                f"need at most {words} input words and {out_words}-word "
                f"output rows, got {inputs.shape[1]} and {out.shape[1]}"
            )
        self._kernel(inputs.ctypes.data, inputs.shape[1], out.ctypes.data, p)


def compile_bulk(
    program: Program,
    arrangement,
    *,
    chunk: Optional[int] = None,
    tile: Optional[int] = None,
    threads: int = 1,
) -> CompiledBulkKernel:
    """Compile the native bulk kernel for ``program`` on ``arrangement``.

    The arrangement fixes the layout (and a padded row's stride), which
    is baked into the source with the tile and thread count as constants
    (that is what lets the compiler vectorise, see
    :func:`repro.codegen.c_emitter.emit_bulk_c`).  The lane count is not:
    the kernel takes ``p`` from the inputs' row count, so one kernel
    serves one ``(program, layout, stride, tile, threads, chunk)`` tuple
    at every ``p``.  Builds are content-addressed: the first call pays the
    compiler, every later call (any process) loads the cached shared
    object, and the source is emitted once per program object and
    schedule (:meth:`~repro.analysis.schedule.ScheduleConfig.emit`), so
    a build at a second lane count pays neither the emitter nor the
    compiler.  Each call still opens its own library handle.

    The parameters resolve through
    :func:`repro.analysis.schedule.schedule_config`, and the source is
    that config's :meth:`~repro.analysis.schedule.ScheduleConfig.emit` —
    byte for byte the kernel :func:`~repro.analysis.schedule.
    certify_native_schedule` proves for the same request.

    The kernel runs the program's compaction
    (:func:`repro.trace.compact.compact_memory`), which is proven here
    against the program, once per program object, unless
    ``REPRO_VERIFY_PASSES=0``.

    ``tile`` is the lane count of one tile's stack slab.  An explicit tile
    whose slabs exceed :data:`SLAB_BUDGET_BYTES` raises
    :class:`~repro.errors.SlabBudgetError`; the default shrinks to fit.
    ``threads > 1`` requires the OpenMP capability probe to pass
    (:func:`have_openmp`); when it fails the request degrades cleanly to a
    single-thread kernel rather than a compile error.
    """
    if not native_supported(program, arrangement):
        raise ExecutionError(
            f"no native bulk kernel for dtype {program.dtype} on "
            f"arrangement {getattr(arrangement, 'name', arrangement)!r}"
        )
    from ..analysis.schedule import schedule_config

    # The kernel runs the program's compaction; prove the renaming before
    # building on it (once per program object, unless verification is off).
    compact_memory(program)
    config = schedule_config(
        program, arrangement,
        tile=resolve_tile(program, arrangement, tile),
        threads=threads,
        chunk=chunk,
    )
    if config.threads > 1 and not have_openmp():
        # Clean single-thread degrade: the threads=1 kernel.
        config = replace(config, threads=1)
    source = config.emit(program)
    flags = _BULK_FLAGS
    if config.threads > 1:
        flags = flags + ("-fopenmp",)
    try:
        lib, key = _load(source, flags)
    except CompileError:
        # Some toolchains lack -march=native; retry with portable flags.
        fallback = tuple(f for f in flags if f != "-march=native")
        lib, key = _load(source, fallback)
    return CompiledBulkKernel(
        program=program,
        _lib=lib,
        cache_key=key,
        tile=config.tile,
        threads=config.threads,
    )


def default_tile(program: Program, arrangement) -> int:
    """:data:`BULK_DEFAULT_TILE`, shrunk (never below one lane) until the
    tile's slabs fit :data:`SLAB_BUDGET_BYTES`."""
    fit = SLAB_BUDGET_BYTES // slab_bytes(program, arrangement, 1)
    return max(1, min(BULK_DEFAULT_TILE, fit))


def resolve_tile(program: Program, arrangement, tile: Optional[int]) -> int:
    """The tile a kernel is built with: ``tile``, or :func:`default_tile`.

    A tile whose slabs exceed :data:`SLAB_BUDGET_BYTES` raises
    :class:`~repro.errors.SlabBudgetError` instead of overflowing the
    stack of the thread that runs it.
    """
    per_lane = slab_bytes(program, arrangement, 1)
    if tile is None:
        tile = default_tile(program, arrangement)
    if tile * per_lane > SLAB_BUDGET_BYTES:
        raise SlabBudgetError(
            f"tile={tile} needs a {tile * per_lane // 1024} KiB stack slab "
            f"for {program.name!r}, over the {SLAB_BUDGET_BYTES // 1024} KiB "
            f"budget (at most {SLAB_BUDGET_BYTES // per_lane} lanes fit)"
        )
    return int(tile)
