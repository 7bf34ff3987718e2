"""Arrangement and kernel-parameter selection — tune before paying for it.

Theorem 2 says column-wise always wins *on the UMM*; on other substrates
(a sequential per-input loop, a cache-based CPU) the ordering can invert —
see the ``abl-native-layout`` bench.  This module offers both selection
modes:

* :func:`best_arrangement_model` — argmin of the simulated UMM time
  (instant, exact; always "column" for `w > 1`, by the theorem — the
  function exists so callers state intent rather than hard-code folklore);
* :func:`best_arrangement_measured` — time a trial run of each candidate
  arrangement on the actual executor and pick the winner (the autotuning
  pattern real GPU kernels use).

It is also home to the **native kernel autotuner**: the tiled native
backend has two free parameters — the lanes per tile slab and the OpenMP
thread count — whose optimum depends on the host's cache hierarchy and core
count, not on the program's semantics (any choice is bit-identical).
:func:`autotune_native` measures the candidate grid on the real compiled
kernels and persists the winner next to the kernel cache, content-addressed
by the program/geometry fingerprint, so every later
:class:`~repro.bulk.engine.BulkExecutor` for that ``(program, p, layout)``
picks it up for free (:func:`load_tuning`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError, ReproError
from ..machine.params import MachineParams
from ..trace.ir import Program
from .engine import BulkExecutor
from .simulate import simulate_bulk

__all__ = [
    "ArrangementChoice",
    "best_arrangement_model",
    "best_arrangement_measured",
    "NativeTuning",
    "autotune_native",
    "load_tuning",
    "tuning_fingerprint",
    "tuning_path",
    "autotune_stats",
    "clear_tunings",
]

_DEFAULT_CANDIDATES = ("column", "row")


@dataclass(frozen=True)
class ArrangementChoice:
    """Outcome of an arrangement selection."""

    winner: str
    scores: Dict[str, float]  # arrangement -> time (units or seconds)
    mode: str  # "model" or "measured"

    @property
    def margin(self) -> float:
        """Runner-up time over winner time (1.0 = tie)."""
        ordered = sorted(self.scores.values())
        return ordered[1] / ordered[0] if len(ordered) > 1 and ordered[0] else 1.0


def best_arrangement_model(
    program: Program,
    params: MachineParams,
    candidates: Sequence[str] = _DEFAULT_CANDIDATES,
) -> ArrangementChoice:
    """Choose by exact UMM time units (Theorem 2 made executable)."""
    if not candidates:
        raise ExecutionError("no candidate arrangements")
    scores = {
        arrangement: float(simulate_bulk(program, params, arrangement).total_time)
        for arrangement in candidates
    }
    winner = min(scores, key=scores.__getitem__)
    return ArrangementChoice(winner=winner, scores=scores, mode="model")


def best_arrangement_measured(
    program: Program,
    inputs: np.ndarray,
    candidates: Sequence[str] = _DEFAULT_CANDIDATES,
    *,
    trials: int = 3,
) -> ArrangementChoice:
    """Choose by wall clock on the real executor (autotuning).

    Runs each candidate ``trials`` times on ``inputs`` and keeps the best
    time per candidate.  The executors are discarded afterwards; build a
    fresh :class:`BulkExecutor` with the winner for production use.
    """
    import time

    arr = np.asarray(inputs, dtype=program.dtype)
    if arr.ndim != 2:
        raise ExecutionError(f"expected (p, k) inputs, got shape {arr.shape}")
    if trials < 1:
        raise ExecutionError(f"trials must be >= 1, got {trials}")
    if not candidates:
        raise ExecutionError("no candidate arrangements")
    scores: Dict[str, float] = {}
    for arrangement in candidates:
        executor = BulkExecutor(program, arr.shape[0], arrangement)
        best = float("inf")
        executor.run(arr)  # warm-up
        for _ in range(trials):
            t0 = time.perf_counter()
            executor.run(arr)
            best = min(best, time.perf_counter() - t0)
        scores[arrangement] = best
    winner = min(scores, key=scores.__getitem__)
    return ArrangementChoice(winner=winner, scores=scores, mode="measured")


# -- native kernel autotuning (tile × threads) ------------------------------

_TUNING_FORMAT = "repro-autotune"
#: Version 2: ``tile`` sizes a per-tile stack slab (compact width x
#: ``tile`` words).  Version-1 entries sized lane blocks of an arranged buffer
#: (128-512 lanes) and would now overflow the slab budget, so they load as
#: stale.
_TUNING_VERSION = 2

#: Candidate tile sizes, bracketing the library default: small enough that
#: a tile's slab stays cache-resident, large enough that every lane loop
#: fills a vector and per-tile overhead (slab zeroing, chunk-call fan-out)
#: amortises.  Candidates whose slab exceeds the stack budget are skipped.
_DEFAULT_TILES = (4, 8, 16, 32)


@dataclass(frozen=True)
class NativeTuning:
    """A measured (tile, threads) choice for one ``(program, p, layout)``.

    ``scores`` maps ``"{tile}x{threads}"`` to the best measured execute
    seconds; ``fingerprint`` is the content address the choice is persisted
    under (program text + dtype + geometry — *not* tied to one compiled
    kernel, since the choice spans many kernels).
    """

    tile: int
    threads: int
    seconds: float
    scores: Dict[str, float]
    fingerprint: str
    host_cpus: int

    def as_dict(self) -> dict:
        return {
            "format": _TUNING_FORMAT,
            "version": _TUNING_VERSION,
            "tile": self.tile,
            "threads": self.threads,
            "seconds": self.seconds,
            "scores": dict(sorted(self.scores.items())),
            "fingerprint": self.fingerprint,
            "host_cpus": self.host_cpus,
        }


def tuning_fingerprint(program: Program, arrangement) -> str:
    """Content address of a tuning entry: program text + dtype + geometry."""
    parts = [
        program.name,
        str(program.dtype),
        str(program.memory_words),
        getattr(arrangement, "name", str(arrangement)),
        str(arrangement.p),
        str(getattr(arrangement, "stride", 0)),
    ]
    parts.extend(str(instr) for instr in program.instructions)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:32]


def _tuning_dir() -> Path:
    from ..codegen.cache import cache_dir

    return cache_dir() / "autotune"


def tuning_path(program: Program, arrangement) -> Path:
    """Where the persisted choice for this program/geometry lives."""
    return _tuning_dir() / f"{tuning_fingerprint(program, arrangement)}.json"


def load_tuning(program: Program, arrangement) -> Optional[NativeTuning]:
    """The persisted autotuner choice, or ``None`` (never raises).

    The engine consults this on every native-executor construction when no
    explicit ``tile``/``threads`` was given.  A *missing* file simply means
    "no tuning" — the library defaults apply, silently.  A file that is
    present but unusable is different: a torn/stale-format entry, a
    ``(tile, threads)`` that no longer parses as a positive shape, or a
    shape exceeding the operator's ``REPRO_NATIVE_TILE``/``THREADS`` env
    caps or the kernel's slab budget is *rejected* with a
    ``stale-autotune`` incident — applying it
    silently would override an explicit operator decision (or run a shape
    nobody chose), and the defaults are always safe.
    """
    path = tuning_path(program, arrangement)
    try:
        raw = path.read_text()
    except OSError:
        return None  # no persisted tuning — the normal cold-cache case

    def stale(reason: str) -> None:
        from ..reliability.incidents import record_incident

        record_incident(
            "stale-autotune",
            f"autotune:{program.name}",
            f"{path.name}: {reason}; ignoring the persisted entry, library "
            f"defaults apply",
            key=f"stale-autotune:{path.stem}",
        )

    try:
        doc = json.loads(raw)
        if (
            doc.get("format") != _TUNING_FORMAT
            or doc.get("version") != _TUNING_VERSION
        ):
            stale(
                f"format {doc.get('format')!r} v{doc.get('version')!r} is "
                f"not {_TUNING_FORMAT!r} v{_TUNING_VERSION}"
            )
            return None
        tuning = NativeTuning(
            tile=int(doc["tile"]),
            threads=int(doc["threads"]),
            seconds=float(doc["seconds"]),
            scores={str(k): float(v) for k, v in doc.get("scores", {}).items()},
            fingerprint=str(doc.get("fingerprint", path.stem)),
            host_cpus=int(doc.get("host_cpus", 0)),
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        stale(f"entry does not parse ({type(exc).__name__}: {exc})")
        return None
    if tuning.tile < 1 or tuning.threads < 1:
        stale(
            f"tile={tuning.tile} threads={tuning.threads} is not a "
            f"positive shape"
        )
        return None
    from ..codegen.compile import SLAB_BUDGET_BYTES, slab_bytes

    if slab_bytes(program, arrangement, tuning.tile) > SLAB_BUDGET_BYTES:
        stale(
            f"tile={tuning.tile} needs a stack slab over the "
            f"{SLAB_BUDGET_BYTES // 1024} KiB budget"
        )
        return None
    try:
        from .engine import ENV_NATIVE_THREADS, ENV_NATIVE_TILE, _env_knob

        for knob, value, what in (
            (ENV_NATIVE_TILE, tuning.tile, "tile"),
            (ENV_NATIVE_THREADS, tuning.threads, "threads"),
        ):
            cap = _env_knob(knob)
            if cap is not None and value > cap:
                stale(f"{what}={value} exceeds the operator cap {knob}={cap}")
                return None
    except ExecutionError:
        pass  # malformed env var — the engine surfaces that itself
    return tuning


def _default_thread_candidates() -> Tuple[int, ...]:
    from ..codegen.compile import have_openmp

    cpus = os.cpu_count() or 1
    if cpus <= 1 or not have_openmp():
        return (1,)
    return tuple(t for t in (1, 2, 4) if t <= cpus)


def autotune_native(
    program: Program,
    p: int,
    arrangement: str = "column",
    *,
    tiles: Sequence[int] = _DEFAULT_TILES,
    threads: Optional[Sequence[int]] = None,
    trials: int = 3,
    inputs: Optional[np.ndarray] = None,
    persist: bool = True,
    verify: bool = True,
    certify: bool = True,
) -> NativeTuning:
    """Measure the tile × threads grid on real compiled kernels; persist.

    With ``certify`` (the default), every grid point first passes the
    static schedule certifier (:mod:`repro.analysis.schedule`) through the
    autofix prove gate — the same propose → prove → canary → promote shape
    the fix pipeline uses, with measurement as the canary and persistence
    as the promotion.  An uncertified shape is never measured, let alone
    persisted: each refusal records an ``uncertified-schedule`` incident,
    and if *no* shape certifies the whole tune raises.  Tiles whose slab
    exceeds the kernel's stack budget
    (:data:`~repro.codegen.compile.SLAB_BUDGET_BYTES`) are dropped first.

    Compiles one native kernel per surviving candidate (all
    content-cached, so a re-tune after the first is pure measurement),
    times the execute phase ``trials`` times each on the same loaded
    inputs, optionally verifies the winner bit-identical to the NumPy
    engine, and (with ``persist``) writes the choice to
    :func:`tuning_path` — atomically, next to the kernel cache it belongs
    with.
    """
    from ..codegen.compile import SLAB_BUDGET_BYTES, have_compiler, slab_bytes

    if not have_compiler():
        raise ExecutionError("autotuning the native backend needs a C compiler")
    if trials < 1:
        raise ExecutionError(f"trials must be >= 1, got {trials}")
    geometry = _arrangement_of(program, p, arrangement)
    tiles = [
        int(t) for t in tiles
        if slab_bytes(program, geometry, t) <= SLAB_BUDGET_BYTES
    ]
    if not tiles:
        raise ExecutionError(
            f"no candidate tile size fits the "
            f"{SLAB_BUDGET_BYTES // 1024} KiB slab budget for {program.name}"
        )
    thread_candidates = (
        tuple(threads) if threads is not None else _default_thread_candidates()
    )
    if not thread_candidates:
        raise ExecutionError("no candidate thread counts")

    if certify:
        from ..autofix.proposer import propose_tile_shapes
        from ..autofix.verify import verify_tile_shape
        from ..reliability.incidents import record_incident

        certified: set = set()
        for proposal in propose_tile_shapes(
            program,
            arrangement=str(arrangement),
            p=p,
            tiles=tiles,
            threads=thread_candidates,
        ):
            verdict = verify_tile_shape(proposal)
            if verdict.accepted:
                certified.add((proposal.tile, proposal.threads))
            else:
                record_incident(
                    "uncertified-schedule",
                    f"autotune:{program.name}",
                    f"refusing to measure tile={proposal.tile} "
                    f"threads={proposal.threads}: {verdict.reason}",
                    key=(
                        f"uncertified-schedule:{program.name}:"
                        f"{proposal.shape_key}"
                    ),
                )
        if not certified:
            raise ExecutionError(
                f"no candidate tile shape passed schedule certification for "
                f"{program.name} on {arrangement} at p={p}; refusing to "
                f"autotune an unproven schedule (see the "
                f"uncertified-schedule incidents)"
            )
    else:
        certified = {
            (int(t), int(n)) for t in tiles for n in thread_candidates
        }
    if inputs is None:
        rng = np.random.default_rng(0)
        width = min(program.memory_words, max(1, program.memory_words // 2))
        inputs = rng.integers(0, 100, size=(p, width)).astype(program.dtype)
    arr = np.asarray(inputs, dtype=program.dtype)
    if arr.ndim != 2 or arr.shape[0] != p:
        raise ExecutionError(
            f"expected (p={p}, k) tuning inputs, got shape {arr.shape}"
        )

    import time

    reference: Optional[bytes] = None
    if verify:
        ref_ex = BulkExecutor(program, p, arrangement, backend="numpy")
        try:
            reference = ref_ex.run(arr).outputs.tobytes()
        finally:
            ref_ex.close()

    scores: Dict[str, float] = {}
    for tile in tiles:
        for nthreads in thread_candidates:
            if (int(tile), int(nthreads)) not in certified:
                continue
            executor = BulkExecutor(
                program, p, arrangement, backend="native",
                tile=int(tile), threads=int(nthreads),
            )
            try:
                result = executor.run(arr)  # warm-up (and correctness gate)
                if reference is not None and (
                    result.outputs.tobytes() != reference
                ):
                    raise ReproError(
                        f"autotune candidate tile={tile} threads={nthreads} "
                        f"disagrees bitwise with the NumPy engine"
                    )
                executor.load(arr)
                best = float("inf")
                for _ in range(trials):
                    t0 = time.perf_counter()
                    executor.execute()
                    best = min(best, time.perf_counter() - t0)
                # The kernel may have degraded its thread request (no
                # OpenMP): record what actually ran.
                scores[f"{executor.tile}x{executor.threads}"] = best
            finally:
                executor.close()

    winner = min(scores, key=scores.__getitem__)
    tile_s, _, threads_s = winner.partition("x")
    tuning = NativeTuning(
        tile=int(tile_s),
        threads=int(threads_s),
        seconds=scores[winner],
        scores=scores,
        fingerprint=tuning_fingerprint(program, geometry),
        host_cpus=os.cpu_count() or 1,
    )
    if persist:
        path = tuning_path(program, geometry)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_text(json.dumps(tuning.as_dict(), indent=2, sort_keys=True))
        os.replace(tmp, path)
    return tuning


def _arrangement_of(program: Program, p: int, arrangement):
    from .arrangement import make_arrangement

    return make_arrangement(arrangement, program.memory_words, p)


def autotune_stats() -> "dict[str, int]":
    """Persisted-tuning observability: entry count and on-disk bytes."""
    directory = _tuning_dir()
    entries = 0
    size = 0
    if directory.is_dir():
        for entry in directory.glob("*.json"):
            try:
                size += entry.stat().st_size
                entries += 1
            except OSError:  # pragma: no cover - raced deletion
                pass
    return {"autotune_entries": entries, "autotune_bytes": size}


def clear_tunings() -> int:
    """Delete all persisted tunings; returns how many were removed."""
    removed = 0
    directory = _tuning_dir()
    if directory.is_dir():
        for entry in directory.glob("*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:  # pragma: no cover - raced deletion
                pass
    return removed
