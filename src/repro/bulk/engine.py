"""The bulk execution engine — the paper's GPU, in vectorised NumPy.

The paper maps input ``j`` to thread ``T(j)`` and runs the oblivious
sequential algorithm in SIMD: at each step every thread performs the *same*
instruction on its own input.  That is precisely a vector operation over the
input axis, so the engine executes each IR instruction once as a length-``p``
NumPy operation:

* registers are a ``(num_registers, p)`` array — register ``r`` of thread
  ``j`` is ``regs[r, j]``;
* memory lives in the chosen :class:`~repro.bulk.arrangement.Arrangement`'s
  physical layout, so a ``Load``/``Store`` at local address ``a`` is a
  unit-stride slice (column-wise / coalesced) or a stride-``n`` gather
  (row-wise / non-coalesced) — the CPU-cache analogue of the UMM cost the
  simulators charge.

The native backend keeps no arranged buffer at all: its compiled kernel
gathers each tile of lanes from the row-major inputs into a tile-private
slab, runs the program there and scatters straight into the row-major
output image (:func:`repro.codegen.c_emitter.emit_bulk_c`).  A native
executor allocates the NumPy arranged buffer only if it degrades.

Either backend's output image is ``(p, output_words)``: each input's
declared output words (:attr:`repro.trace.ir.Program.output_ranges`), or
its whole final memory when the program declares none.

The NumPy backend binds the program's fusion plan, built once per
program object, to each executor's buffers
(:func:`repro.bulk.fusion.compile_fused`): loads become views, compares
feed select masks directly, independent same-shaped instructions run as
one call over a ``(k, p)`` block of row slices at serving widths, and
what is left is a list of buffer-bound closures, one Python call per fused
step; all data movement stays in C.  Buffers are allocated once and reused across
:meth:`BulkExecutor.run` calls (no allocation in hot loops;
``out=``/views, not copies); so is the output image's store, once the
caller has released the last result.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..errors import BackendError, ExecutionError, ReproError, SlabBudgetError
from ..reliability import faults
from ..reliability.guard import GuardPolicy
from ..reliability.incidents import record_incident
from ..reliability.quarantine import quarantine_key
from ..trace.compact import word_liveness
from ..trace.ir import Program
from ..trace.replay import replay_lanes
from . import arena
from .arrangement import Arrangement, make_arrangement
from .fusion import FusionStats, compile_fused

__all__ = ["BulkExecutor", "BulkResult", "bulk_run", "BACKENDS", "resolve_backend"]

#: Accepted values for the ``backend=`` argument.
BACKENDS = ("numpy", "native", "auto")

#: Environment knobs of the native backend (constructor arguments win).
ENV_NATIVE_TILE = "REPRO_NATIVE_TILE"
ENV_NATIVE_THREADS = "REPRO_NATIVE_THREADS"


def _env_knob(name: str) -> Optional[int]:
    """An optional positive-integer tuning knob from the environment."""
    raw = os.environ.get(name)
    if raw in (None, ""):
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ExecutionError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ExecutionError(f"{name} must be >= 1, got {value}")
    return value


def resolve_backend(
    backend: str, program: Program, arrangement: Arrangement
) -> str:
    """Resolve ``backend`` to a concrete engine (``"numpy"`` / ``"native"``).

    ``"auto"`` picks the compiled C kernel when a C compiler is available
    and the program/arrangement pair is supported, and silently falls back
    to the NumPy engine otherwise.  An *explicit* ``"native"`` request with
    no compiler raises, so callers never get silently different machinery
    than they asked for.
    """
    if backend not in BACKENDS:
        raise ExecutionError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "numpy":
        return "numpy"
    from ..codegen.compile import have_compiler, native_supported

    if backend == "native":
        if not have_compiler():
            raise BackendError(
                "backend='native' requires a C compiler (cc/gcc/clang) on "
                "PATH; use backend='auto' to fall back to NumPy"
            )
        if not native_supported(program, arrangement):
            raise BackendError(
                f"backend='native' does not support program dtype "
                f"{program.dtype} with arrangement {arrangement.name!r}"
            )
        return "native"
    # auto
    if have_compiler() and native_supported(program, arrangement):
        return "native"
    return "numpy"


@dataclass(frozen=True)
class BulkResult:
    """Outcome of one bulk execution.

    Attributes
    ----------
    outputs:
        ``(p, output_words)`` image of every input's declared output words
        (its whole final memory when the program declares none).
    p:
        Number of inputs executed.
    trace_length:
        Sequential time ``t`` of the underlying oblivious algorithm (per
        input — the bulk run performs ``p·t`` accesses in ``t`` SIMD steps).
    """

    outputs: np.ndarray
    p: int
    trace_length: int


class BulkExecutor:
    """Executes one oblivious program for ``p`` inputs at a time.

    Parameters
    ----------
    program:
        The oblivious program (shared by all inputs).
    p:
        Number of inputs per run.
    arrangement:
        ``"column"`` (coalesced, the paper's optimal choice), ``"row"``, or
        an :class:`Arrangement` instance.
    backend:
        ``"numpy"`` (default), ``"native"`` (compiled C bulk kernel, needs a
        C compiler) or ``"auto"`` (native when possible, else NumPy).
    guard:
        ``None``/``"off"`` (trust the backend), ``"spot"`` or a
        :class:`~repro.reliability.GuardPolicy`.  When the native backend
        is guarded, every :meth:`run` re-executes a deterministic sample of
        lanes through the program's IR replay (:mod:`repro.trace.replay`)
        and demands bit identity; a mismatch —
        or a kernel that fails to load or crashes — quarantines the cache
        key, records an incident, and degrades the executor to the NumPy
        backend (when ``policy.fallback``, the default).  A ``backend="auto"``
        executor degrades on load failure even unguarded.
    tile:
        Native backend: lanes per tile of the compiled kernel, i.e. the
        width of the tile-private stack slab each tile gathers its inputs
        into (compact width x ``tile`` words: the slots the program keeps
        live, see :mod:`repro.trace.compact`).  ``None`` (default) falls
        back to ``REPRO_NATIVE_TILE``, then to the library default
        (:func:`repro.codegen.compile.default_tile`).  Any tile —
        including non-divisors of ``p`` — is bit-identical; only speed
        differs.  A tile whose slab exceeds the
        kernel's stack budget (:data:`repro.codegen.compile.
        SLAB_BUDGET_BYTES`) raises :class:`~repro.errors.SlabBudgetError`
        (an :class:`ExecutionError`), guarded or not.
    threads:
        Native backend: OpenMP lane-parallel threads.  ``None`` falls back
        to ``REPRO_NATIVE_THREADS``, then to 1.  Requests beyond the
        toolchain's capability (no ``-fopenmp``) degrade cleanly to a
        single-thread kernel.
    """

    def __init__(
        self,
        program: Program,
        p: int,
        arrangement: Union[str, Arrangement] = "column",
        backend: str = "numpy",
        guard: Union[None, str, GuardPolicy] = None,
        tile: Optional[int] = None,
        threads: Optional[int] = None,
    ) -> None:
        if isinstance(arrangement, str):
            # Autofix promotions: a proven, canaried, strictly cheaper
            # rewrite of this exact program (keyed by content fingerprint
            # and the arrangement asked for) transparently replaces it.
            # An Arrangement *instance* pins the caller's layout and is
            # never second-guessed; REPRO_AUTOFIX=0 disables resolution.
            from ..autofix.store import promotion_store

            program, arrangement = promotion_store().resolve(
                program, arrangement
            )
        program.validate_outputs()
        self.program = program
        self.arrangement = make_arrangement(arrangement, program.memory_words, p)
        self.p = int(p)
        self.requested_backend = backend
        self.guard = GuardPolicy.coerce(guard)
        self.backend = resolve_backend(backend, program, self.arrangement)
        self.tile = int(tile) if tile is not None else _env_knob(ENV_NATIVE_TILE)
        self.threads = (
            int(threads) if threads is not None else _env_knob(ENV_NATIVE_THREADS)
        )
        if self.tile is not None and self.tile < 1:
            raise ExecutionError(f"tile must be >= 1, got {self.tile}")
        if self.threads is not None and self.threads < 1:
            raise ExecutionError(f"threads must be >= 1, got {self.threads}")
        self.rounds = 0
        self._zero_ranges_cache: dict = {}
        self._native = None
        self._fused = None
        self._pad_blocks: dict = {}
        self._closed = False
        self._mem: Optional[np.ndarray] = None
        # Native state: the last loaded (p, k) inputs and the output image
        # the last execute() produced.  Both backends: the executor-owned
        # store behind output images and a weak reference to the array
        # every view of the last image goes through (see _output_image).
        self._inputs = np.zeros((self.p, 0), dtype=program.dtype)
        self._image: Optional[np.ndarray] = None
        self._store: Optional[np.ndarray] = None
        self._issued: Callable[[], Optional[np.ndarray]] = lambda: None
        if self.backend == "native":
            try:
                from ..codegen.compile import compile_bulk

                self._native = compile_bulk(
                    program,
                    self.arrangement,
                    tile=self.tile,
                    threads=self.threads or 1,
                )
                self.tile = self._native.tile
                self.threads = self._native.threads
            except SlabBudgetError:
                raise  # an over-budget tile is a caller error, never a degrade
            except (ReproError, OSError) as exc:
                if not self._may_degrade():
                    raise
                key = getattr(exc, "key", None)
                quarantine_key(key, f"failed to load: {exc}")
                record_incident(
                    "kernel-load-failure",
                    "engine.native",
                    f"native kernel unavailable for {program.name!r} "
                    f"(p={self.p}, {self.arrangement.name}); degraded to "
                    f"NumPy: {exc}",
                    key=key,
                )
                self.backend = "numpy"
        if self.backend == "numpy":
            self._init_numpy()

    def _may_degrade(self) -> bool:
        """May a native failure fall back to NumPy instead of raising?

        Yes when guarded with ``fallback=True``, or when the caller asked
        for ``"auto"`` (best effort by definition).  An *explicit*
        unguarded ``"native"`` request stays strict.
        """
        if self.guard is not None:
            return self.guard.fallback
        return self.requested_backend == "auto"

    def _init_numpy(self) -> None:
        """Build (or rebuild, on degradation) the NumPy execution state.

        The arranged buffer is allocated here.  Column-wise buffers come
        from the :mod:`~repro.bulk.arena` — 64-byte aligned and reused
        across executor lifetimes of the same geometry.
        """
        program, dtype = self.program, self.program.dtype
        self._native = None
        if self.arrangement.name == "column":
            self._mem = arena.acquire(program.memory_words, self.p, dtype)
        else:
            self._mem = self.arrangement.allocate(dtype)
        self._fused = compile_fused(program, self.arrangement, self._mem)

    @property
    def fusion_stats(self) -> Optional[FusionStats]:
        """What the fusion pass did (``None`` on the native backend)."""
        return self._fused.stats if self._fused is not None else None

    # -- execution ---------------------------------------------------------------
    def load(self, inputs: np.ndarray) -> None:
        """Validate ``inputs`` and pack them into the arranged buffer.

        All validation happens *before* the shared preallocated buffers are
        touched: a call that raises leaves the executor exactly as the last
        successful run left it.  A native executor packs nothing: it keeps
        the (C-contiguous) inputs for its kernel to gather from, so the
        caller must not modify them before :meth:`execute`.
        """
        self._check_open()
        arr = np.asarray(inputs, dtype=self.program.dtype)
        if arr.ndim != 2 or arr.shape[0] != self.p:
            raise ExecutionError(
                f"expected inputs of shape (p={self.p}, k), got {arr.shape}"
            )
        if arr.shape[1] > self.program.memory_words:
            raise ExecutionError(
                f"inputs carry {arr.shape[1]} words but the program memory "
                f"holds only {self.program.memory_words}"
            )
        if self._native is not None:
            self._inputs = np.ascontiguousarray(arr)
            return
        self.arrangement.load_inputs(
            arr, self._mem, zero_ranges=self._tail_zero_ranges(arr.shape[1])
        )

    def _tail_zero_ranges(self, k: int) -> list:
        """Half-open ranges of ``[k, memory_words)`` that must be zeroed:
        the words whose initial zero a lane observes — loaded before any
        store, or declared outputs nothing stores
        (:meth:`~repro.trace.compact.WordLiveness.zero_ranges`).  A word
        stored first is overwritten for every lane before any load sees
        it, and a word nothing touches and no output declares is never
        seen."""
        ranges = self._zero_ranges_cache.get(k)
        if ranges is None:
            ranges = word_liveness(self.program).zero_ranges(k)
            self._zero_ranges_cache[k] = ranges
        return ranges

    def execute(self) -> None:
        """Run the program over the currently loaded buffer (the engine
        phase proper — what the backends differ in; benchmarks time this)."""
        self._check_open()
        if self._native is not None:
            image = self._output_image()
            self._native.run_bulk(self._inputs, image)
            self._image = image
        else:
            self._fused.run()

    def outputs(self) -> np.ndarray:
        """Unpack the buffer's declared words into a ``(p, output_words)``
        image.

        The image is a fresh :meth:`_output_image`.  A native executor
        returns the output image its last :meth:`execute` wrote.
        """
        self._check_open()
        if self._native is not None:
            return self._native_image()
        image = self._output_image()
        self.arrangement.unpack_rows_into(
            self._mem, image, self.program.output_ranges
        )
        return image

    def _output_image(self) -> np.ndarray:
        """A ``(p, output_words)`` image for the kernel or the unpack to
        overwrite.

        Both write every word, so the store behind an earlier image is
        refilled once nothing can reach that image any more: a caller
        that releases each result before the next run skips the page
        faults of a fresh ``p x output_words`` allocation.  Every image is a
        reshape of a ``frombuffer`` array over the executor-owned store.
        NumPy never collapses a view's base past such an array (its base
        is not an array), so every view of the image, and every buffer
        exported from one, keeps it alive; a dead weak reference to it
        therefore proves nothing refers to the store.  While anything
        does, the next image gets a fresh store, so a result never changes
        under its holder.
        """
        self._image = None
        if self._store is None or self._issued() is not None:
            self._store = np.empty(
                self.p * self.program.output_words, dtype=self.program.dtype
            )
        # Through a memoryview, so root's base is never an ndarray (that
        # would let views collapse past root straight to the store).
        root = np.frombuffer(memoryview(self._store), dtype=self.program.dtype)
        self._issued = weakref.ref(root)
        return root.reshape(self.p, self.program.output_words)

    def _native_image(self) -> np.ndarray:
        if self._image is None:  # nothing executed yet: all-zero memory
            self._image = np.zeros(
                (self.p, self.program.output_words), dtype=self.program.dtype
            )
        return self._image

    def run_trimmed(self, rows: np.ndarray) -> np.ndarray:
        """Run ``q <= p`` inputs, padding idle lanes; return
        ``(q, output_words)``.

        The partial-batch path shared by :class:`~repro.bulk.session.
        BulkSession` flushes and the serving layer's micro-batches: the
        ``q`` real inputs occupy the first lanes, the remaining ``p − q``
        lanes run on zero inputs (idle threads of a partially full block),
        and only the real lanes' declared words are unpacked — through
        :meth:`run_trimmed_into`, into a fresh array that shares nothing
        with the executor.
        """
        arr = self._partial_batch(rows)
        out = np.empty(
            (arr.shape[0], self.program.output_words), dtype=self.program.dtype
        )
        self.run_trimmed_into(arr, out)
        return out

    def _partial_batch(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` as a ``(q, k)`` array of the program dtype, ``0 < q <= p``."""
        arr = np.asarray(rows, dtype=self.program.dtype)
        if arr.ndim != 2:
            raise ExecutionError(
                f"expected 2-D inputs (q, k), got shape {arr.shape}"
            )
        if not 0 < arr.shape[0] <= self.p:
            raise ExecutionError(
                f"partial batch of {arr.shape[0]} inputs does not fit "
                f"p={self.p}"
            )
        return arr

    def run_trimmed_into(self, rows: np.ndarray, out: np.ndarray) -> None:
        """:meth:`run_trimmed` into a caller-owned ``(q, output_words)`` buffer.

        The externally-owned-buffer hook for the sharded serving tier: the
        caller hands in a view of a shared-memory slot and the ``q`` real
        lanes' declared words are written there in place — no
        ``(p, output_words)`` intermediate allocation on the unguarded
        path.  Padding blocks for partial batches are cached per input
        width, so a shard serving a steady stream of same-shaped batches
        allocates nothing after the first.  Guarded/native runs take the
        checked :meth:`run` path and copy the verified images in.
        """
        arr = self._partial_batch(rows)
        q = arr.shape[0]
        if (
            out.shape != (q, self.program.output_words)
            or out.dtype != self.program.dtype
        ):
            raise ExecutionError(
                f"need a ({q}, {self.program.output_words}) "
                f"{self.program.dtype} output buffer, got {out.dtype} "
                f"{out.shape}"
            )
        if self._native is not None:
            # Native runs go through run()'s spot-check / degradation
            # machinery; the extra copy is the price of safety.
            np.copyto(out, self._pad_and_run(arr, q).outputs[:q])
            return
        self.load(self._padded(arr, q))
        self.execute()
        self.rounds += 1
        self.arrangement.unpack_rows_into(
            self._mem, out, self.program.output_ranges
        )

    def _padded(self, arr: np.ndarray, q: int) -> np.ndarray:
        """``arr`` zero-extended to ``p`` lanes via a cached scratch block."""
        if q == self.p:
            return arr
        block = self._pad_blocks.get(arr.shape[1])
        if block is None:
            block = np.zeros(
                (self.p, arr.shape[1]), dtype=self.program.dtype
            )
            self._pad_blocks[arr.shape[1]] = block
        block[:q] = arr
        block[q:] = 0
        return block

    def _pad_and_run(self, arr: np.ndarray, q: int) -> BulkResult:
        return self.run(self._padded(arr, q))

    def close(self) -> None:
        """Release the native kernel handle and poison the executor.

        Idempotent.  A closed executor raises :class:`~repro.errors.
        ExecutionError` on :meth:`run`, :meth:`load`, :meth:`execute`,
        :meth:`outputs` and :meth:`memory_view` — an interrupted session
        must never silently execute half-fed work later, its compiled-kernel
        handle must not stay mapped for the life of the process (see
        :class:`~repro.codegen.compile.CompiledBulkKernel.close`), and its
        arranged buffer, once back in the arena, belongs to whichever
        executor acquires it next.
        """
        native, self._native = self._native, None
        if native is not None:
            native.close()
        self._fused = None
        self._pad_blocks = {}
        if not self._closed and self._mem is not None and (
            self.arrangement.name == "column"
        ):
            # Hand the aligned buffer back to the arena: the next executor
            # with this geometry reuses it instead of reallocating.
            arena.release(self._mem)
        self._mem = None
        # The loaded inputs may be a view of the caller's buffer (a shared
        # memory slot): holding it would keep that buffer exported.
        self._inputs = self._image = self._store = None
        self._closed = True

    @property
    def closed(self) -> bool:
        """Has :meth:`close` been called?"""
        return getattr(self, "_closed", False)

    def _check_open(self) -> None:
        if self.closed:
            raise ExecutionError(
                f"executor for {self.program.name!r} has been closed"
            )

    def run(self, inputs: np.ndarray) -> BulkResult:
        """Execute the program for ``inputs`` of shape ``(p, k)``.

        ``k`` may be smaller than ``memory_words``; the remaining words start
        at zero (scratch space / DP tables).  Returns every input's declared
        output words (its whole final memory when none are declared).

        On the native backend with a guard installed, the run is
        spot-checked (and re-run on the NumPy engine after a degradation) —
        see the class docstring.  Guarding applies to :meth:`run` only; the
        split :meth:`load`/:meth:`execute`/:meth:`outputs` benchmark path is
        deliberately bare.
        """
        self._check_open()
        if self._native is not None:
            return self._run_native(np.asarray(inputs, dtype=self.program.dtype))
        self.load(inputs)
        self.execute()
        self.rounds += 1
        return BulkResult(
            outputs=self.outputs(),
            p=self.p,
            trace_length=self.program.trace_length,
        )

    # -- guarded native execution ----------------------------------------------
    def _run_native(self, arr: np.ndarray) -> BulkResult:
        policy = self.guard
        self.load(arr)
        try:
            faults.inject("engine.native.run")
            self.execute()
        except (ReproError, OSError) as exc:
            key = self._native.cache_key or None
            if policy is None or not policy.fallback:
                raise BackendError(
                    f"native kernel crashed: {exc}", key=key
                ) from exc
            self._degrade(
                "native-crash", f"native kernel raised {exc!r}", key=key
            )
            return self.run(arr)
        rule = faults.fire("engine.native.outputs")
        outputs = self._image
        if rule is not None and rule.kind == "corrupt":
            # Chaos hook: a miscompiled kernel shows up as silently wrong
            # lanes; flip the first word of every image.
            outputs[:, 0] += 1
        if policy is not None and policy.checking:
            lanes = policy.sample_lanes(self.p, self.rounds)
            memory = replay_lanes(self.program, arr[lanes])
            reference = memory[:, self.program.output_index()]
            if reference.tobytes() != outputs[lanes].tobytes():
                key = self._native.cache_key or None
                if not policy.fallback:
                    raise BackendError(
                        f"guard mismatch: native kernel disagrees with the "
                        f"IR replay on lanes {lanes}",
                        key=key,
                    )
                self._degrade(
                    "guard-mismatch",
                    f"sampled lanes {lanes} differ bitwise from the IR "
                    f"replay",
                    key=key,
                )
                return self.run(arr)
        self.rounds += 1
        return BulkResult(
            outputs=outputs, p=self.p, trace_length=self.program.trace_length
        )

    def _degrade(self, kind: str, detail: str, *, key: Optional[str]) -> None:
        """Quarantine the kernel and switch this executor to NumPy for good."""
        quarantine_key(key, f"{kind}: {detail}")
        record_incident(
            kind,
            "engine.native",
            f"{self.program.name!r} p={self.p} "
            f"[{self.arrangement.name}]: {detail}; degraded to NumPy",
            key=key,
        )
        self.backend = "numpy"
        self._init_numpy()

    def memory_view(self) -> np.ndarray:
        """The raw arranged buffer after the last run (read-only use).

        On the NumPy engine, words no instruction accesses and no output
        declares are never zeroed, so their contents are unspecified
        (whatever an earlier run or input left there).

        A native executor has no arranged buffer: for the column layout
        this is the transposed ``(words, p)`` view of its output image,
        for row layouts the image re-arranged into the row buffer.  When
        the program declares outputs that image holds only those words,
        so there is no buffer to show and this raises
        :class:`~repro.errors.ExecutionError`.
        """
        self._check_open()
        if self._native is None:
            return self._mem
        if self.program.outputs is not None:
            raise ExecutionError(
                f"native executor for {self.program.name!r} keeps only the "
                f"declared output words {list(self.program.outputs)}, not "
                f"the arranged memory"
            )
        image = self._native_image()
        if self.arrangement.name == "column":
            return image.T
        buf = self.arrangement.allocate(self.program.dtype)
        self.arrangement.pack(image, buf)
        return buf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BulkExecutor({self.program.name!r}, p={self.p}, "
            f"arrangement={self.arrangement.name!r}, "
            f"backend={self.backend!r})"
        )


def bulk_run(
    program: Program,
    inputs: np.ndarray,
    arrangement: Union[str, Arrangement] = "column",
    backend: str = "numpy",
    guard: Union[None, str, GuardPolicy] = None,
    tile: Optional[int] = None,
    threads: Optional[int] = None,
) -> np.ndarray:
    """One-shot convenience: build a :class:`BulkExecutor` and run it.

    Returns the ``(p, output_words)`` outputs.
    """
    arr = np.asarray(inputs)
    if arr.ndim != 2:
        raise ExecutionError(f"expected 2-D inputs (p, k), got shape {arr.shape}")
    executor = BulkExecutor(
        program, arr.shape[0], arrangement, backend=backend, guard=guard,
        tile=tile, threads=threads,
    )
    try:
        return executor.run(arr).outputs
    finally:
        executor.close()
