"""`ShardedServer` — a multi-process serving tier over shared-memory batches.

:class:`~repro.serve.server.BulkServer` batches requests into bulk runs on
worker *threads*; under a native backend that is one process' worth of
throughput.  This module scales the same micro-batching broker across
``N`` worker **processes** (shards) without paying the classic
multiprocess serving tax — per-request pickling.  The design rule is
strict separation of planes:

* **Data plane** — request payloads live in
  :class:`~repro.serve.shm.SlotArena` segments
  (``multiprocessing.shared_memory``), one arena per ``(shard, queue
  key)``.  The router packs a batch's rows into a free slot's input block;
  the shard executes straight out of that slot via
  :meth:`~repro.bulk.engine.BulkExecutor.run_trimmed_into` and leaves the
  output images in the slot's output block; the router reads them back.
  An ndarray is never pickled per request — a test asserts the wire can't
  even carry one.
* **Control plane** — only compact primitive-tuple descriptors
  (:mod:`repro.serve.wire`) cross the process boundary:
  ``("batch", seq, key, slot, lanes, occupancy, width)`` and friends go
  down a per-shard work queue, and each shard answers on its *own*
  one-way completion pipe, so a worker killed mid-write can only tear its
  own channel.

:class:`ShardedServer` *is* a :class:`BulkServer`: one broker core owns
the queues, admission and backpressure, the linger loop, completion
bookkeeping, shutdown and ``stats()``, and this module adds only the
fleet placement.  Scheduling is the cost model's job twice over.  *When*
to dispatch is the inherited adaptive-policy linger (per-request price
``t·(⌈b/w⌉+l−1)/b`` falls with batch size).  *Where* is new: admission
prices every live shard with
:func:`~repro.machine.analytic.placement_units` — queued backlog plus the
analytic cost of the candidate batch — and places on the argmin, which is
simultaneously load balancing and completion-time minimisation.  Because
every shard is a full replica (same programs, own guarded executors), any
placement is bit-identical, so chasing the cheapest shard is free.

Failure model: a shard that dies (seen the moment its process sentinel
fires in the reader thread's wait, or by a ``fatal`` farewell) has its
in-flight descriptors **re-dispatched at most once** to surviving shards
— request rows are retained router-side precisely so a dead shard's
memory never needs to be trusted.  A descriptor whose re-dispatch budget is spent (or with no live
shard left) fails with :class:`~repro.errors.ShardDeadError`; nothing is
silently lost and nothing is completed twice (stale completions from a
declared-dead shard are recognised by shard id and dropped).

With ``supervise=True`` the fleet is additionally *self-healing*: a
:class:`~repro.serve.supervisor.ShardSupervisor` task heartbeats every
worker over its own work queue (a wedged worker cannot pong — that *is*
the detection), respawns crashed or wedged shards with exponential
backoff, quarantines a flapping shard after too many restarts in a
window (circuit breaker, surfaced via ``reliability.incidents``), and —
when ``min_shards``/``max_shards`` open a range — autoscales the fleet
against the analytic cost model's backlog thresholds
(:func:`~repro.machine.analytic.autoscale_thresholds`).  Request
deadlines propagate into the batch descriptors so shards drop expired
work unexecuted, per-slot CRC32 checksums guard the zero-copy data plane
against silent corruption, and admission sheds load with a typed
:class:`~repro.errors.ServerOverloadedError` carrying a model-derived
``retry_after`` instead of stalling indefinitely.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Deque, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..errors import (
    RequestDeadlineError,
    ServeError,
    ServerClosedError,
    ServerOverloadedError,
    ShardDeadError,
    ShardError,
)
from ..machine.analytic import placement_units
from ..reliability.incidents import record_incident
from ..trace.ir import Program
from ..trace.serialize import program_to_dict
from . import wire
from .server import BulkServer, ServeConfig, _Queue, _Request
from .shard import FAULT_KINDS, shard_main
from .shm import SlotArena

__all__ = ["ShardedServer", "ShardConfig"]


@dataclass(frozen=True)
class ShardConfig(ServeConfig):
    """:class:`ServeConfig` plus the sharding knobs.

    Attributes
    ----------
    shards:
        Worker processes to spawn.  ``1`` is the apples-to-apples baseline
        the benchmark compares against.
    slots:
        In-flight batches each ``(shard, key)`` arena can hold.  More slots
        let the router pipeline packing against execution; each slot costs
        ``max_batch · (memory_words + output_words)`` items of shared
        memory.
    start_method:
        ``multiprocessing`` start method.  ``fork`` (default) starts
        fastest; ``spawn`` is available because everything crossing the
        process boundary is a primitive.
    fault:
        Chaos hook: ``(kind, shard, after)`` arms shard ``shard`` with one
        of the :data:`~repro.serve.shard.FAULT_KINDS` (``kill``, ``wedge``,
        ``stall``, ``deaf``, ``corrupt``, ``drop``) firing at its
        ``after``-th observation (via the FaultPlan machinery in
        :mod:`repro.serve.shard`).  The fault arms the *first* process
        spawned with that shard id only — a supervised respawn comes up
        clean, which is what lets chaos scenarios converge.  Test-only.
    supervise:
        Run a :class:`~repro.serve.supervisor.ShardSupervisor`: heartbeat
        health checks, respawn with backoff, circuit breaker, autoscaling.
        Off by default — unsupervised death handling (re-dispatch to
        survivors, no respawn) is the baseline behaviour.
    min_shards, max_shards:
        Autoscaler bounds (both require ``supervise=True``; default =
        ``shards``, i.e. a fixed fleet).  The supervisor scales up when
        p95 per-shard backlog exceeds the cost model's threshold and
        drain-retires idle shards down to ``min_shards``.
    heartbeat_interval, heartbeat_timeout:
        Ping cadence and the silence after which a live-but-unresponsive
        shard is declared wedged and recycled.
    flight_timeout:
        Age after which an unanswered batch descriptor condemns its shard
        (covers lost ``done`` messages as well as mid-batch wedges).
    max_restarts, restart_window:
        Circuit breaker: more than ``max_restarts`` respawns of one shard
        id within ``restart_window`` seconds quarantines it.
    backoff_base, backoff_max:
        Exponential respawn backoff: ``base · 2^k`` seconds after ``k``
        recent restarts, capped at ``backoff_max``.
    supervise_interval:
        Supervisor tick period (also the autoscaler sampling period).
    scale_up_factor, scale_down_factor:
        Backlog thresholds as multiples of one full batch's analytic cost
        (see :func:`~repro.machine.analytic.autoscale_thresholds`).
    autoscale_window:
        Backlog samples retained for the p95 scaling decision.
    admission_timeout:
        Longest a dispatch may wait for a free arena slot before the
        admission controller sheds the batch with
        :class:`~repro.errors.ServerOverloadedError` (``retry_after`` from
        the analytic model) instead of stalling indefinitely.

    ``guard`` must be ``None`` or a policy *name* here (it crosses a
    process boundary); ``workers`` is ignored — shard processes replace
    the thread pool.  ``native_threads`` is a *per-shard* budget: total
    native parallelism is ``shards × native_threads``, so keep the product
    within the host's core count (see docs/SERVING.md).
    """

    shards: int = 2
    slots: int = 4
    start_method: str = "fork"
    fault: Optional[Tuple[str, int, int]] = None
    supervise: bool = False
    min_shards: Optional[int] = None
    max_shards: Optional[int] = None
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 5.0
    flight_timeout: float = 30.0
    max_restarts: int = 3
    restart_window: float = 30.0
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    supervise_interval: float = 0.1
    scale_up_factor: float = 1.0
    scale_down_factor: float = 0.1
    autoscale_window: int = 20
    admission_timeout: float = 30.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shards < 1:
            raise ServeError(f"shards must be >= 1, got {self.shards}")
        if self.slots < 1:
            raise ServeError(f"slots must be >= 1, got {self.slots}")
        if self.start_method not in ("fork", "spawn", "forkserver"):
            raise ServeError(
                f"unknown start method {self.start_method!r}"
            )
        if self.guard is not None and not isinstance(self.guard, str):
            raise ServeError(
                "sharded serving needs guard as a policy name (or None); "
                "a GuardPolicy instance cannot cross the process boundary"
            )
        if self.fault is not None:
            kind, shard, after = self.fault
            if kind not in FAULT_KINDS or shard < 0 or after < 0:
                raise ServeError(f"malformed fault spec {self.fault!r}")
        if (self.min_shards is not None or self.max_shards is not None) and not self.supervise:
            raise ServeError(
                "min_shards/max_shards bound the autoscaler, which runs "
                "inside the supervisor; set supervise=True"
            )
        if self.shard_floor() < 1:
            raise ServeError(f"min_shards must be >= 1, got {self.min_shards}")
        if not self.shard_floor() <= self.shards <= self.shard_ceiling():
            raise ServeError(
                f"shards={self.shards} must lie within "
                f"[{self.shard_floor()}, {self.shard_ceiling()}]"
            )
        for name in (
            "heartbeat_interval", "heartbeat_timeout", "flight_timeout",
            "restart_window", "backoff_base", "backoff_max",
            "supervise_interval", "scale_up_factor", "admission_timeout",
        ):
            if getattr(self, name) <= 0:
                raise ServeError(f"{name} must be positive")
        if self.scale_down_factor < 0 or self.scale_down_factor >= self.scale_up_factor:
            raise ServeError(
                "scale_down_factor must sit in [0, scale_up_factor) for "
                "scaling hysteresis"
            )
        if self.max_restarts < 1:
            raise ServeError(f"max_restarts must be >= 1, got {self.max_restarts}")
        if self.autoscale_window < 1:
            raise ServeError(
                f"autoscale_window must be >= 1, got {self.autoscale_window}"
            )

    def shard_floor(self) -> int:
        """Fewest shards the autoscaler may drain down to."""
        return self.shards if self.min_shards is None else self.min_shards

    def shard_ceiling(self) -> int:
        """Most shards the autoscaler may spawn."""
        return self.shards if self.max_shards is None else self.max_shards


@dataclass
class _Shard:
    """Router-side book-keeping for one worker process.

    The supervision fields track one shard *id* across process
    incarnations: ``restarts`` is the circuit breaker's evidence (respawn
    timestamps, window-pruned), ``draining`` marks a shard the autoscaler
    is retiring (no new placements; retired once its last flight lands),
    ``quarantined`` a shard id the breaker took out of rotation for good.
    """

    id: int
    process: "multiprocessing.process.BaseProcess"
    work: "multiprocessing.queues.Queue"
    done: connection.Connection          # read end of its completion pipe
    alive: bool = True
    ready: bool = False
    backlog: float = 0.0                 # queued work, in UMM time units
    batches: int = 0
    opened: Set[str] = field(default_factory=set)
    arenas: Dict[str, SlotArena] = field(default_factory=dict)
    free: Dict[str, Deque[int]] = field(default_factory=dict)
    backends: Set[str] = field(default_factory=set)
    draining: bool = False
    retired: bool = False
    quarantined: bool = False
    respawn_pending: bool = False
    respawns: int = 0
    restarts: Deque[float] = field(default_factory=deque)
    pending_ping: Optional[Tuple[int, float]] = None   # (token, sent at)
    last_pong: float = field(default_factory=time.monotonic)


@dataclass
class _Flight:
    """One descriptor in flight: everything needed to complete *or retry* it.

    ``requests`` keeps the original rows router-side, so re-dispatch after
    a shard death never has to read the dead shard's memory.
    """

    seq: int
    key: str
    shard: int
    slot: int
    requests: List[_Request]
    lanes: int
    occupancy: int
    width: int
    units: float
    attempts: int
    first_enqueued: float
    deadline: float = -1.0         # earliest request deadline (-1 = none)
    dispatched_at: float = 0.0     # monotonic put time (flight-timeout base)


class ShardedServer(BulkServer):
    """Hash-free cost-routed front end over ``N`` shard processes.

    Drop-in for :class:`~repro.serve.server.BulkServer`, whose broker core
    it inherits (queues, admission, linger, completion, shutdown,
    ``stats()``); only the placement is new::

        async with ShardedServer(shards=4) as server:
            out = await server.submit("opt", weights, n=8)
    """

    config_class = ShardConfig

    def __init__(self, config: Optional[ShardConfig] = None, **overrides) -> None:
        super().__init__(config, **overrides)
        self._shards: List[_Shard] = []
        self._inflight: Dict[int, _Flight] = {}
        self._aux_tasks: Set["asyncio.Task"] = set()
        #: Per key, how shards rebuild its program: serialised once.
        self._shipped: Dict[str, Tuple[str, str, int]] = {}
        self._seq = 0
        self._ctx = None
        self._reader: Optional[threading.Thread] = None
        self._reader_stop = threading.Event()
        self._wake_r = self._wake_w = -1     # pipe that interrupts the reader
        self._death_reported: Set[int] = set()
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._slot_released: Optional["asyncio.Event"] = None
        self._idle: Optional["asyncio.Event"] = None
        self._supervisor = None
        self._unit_seconds: Optional[float] = None   # EWMA s per backlog unit
        self._started = False

    # -- startup -------------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._started or self._closing:
            return
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._slot_released = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        # Start the resource tracker *before* launching workers, so every
        # worker shares it (fork inherits the pipe fd; spawn is handed it
        # by the bootstrap).  A worker that lazily started its own tracker
        # — because none existed at fork time — would unlink the shared
        # segments it attached the moment that worker exits, yanking live
        # arenas out from under its siblings.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - platform without tracker
            pass
        self._ctx = multiprocessing.get_context(cfg.start_method)
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        for shard_id in range(cfg.shards):
            self._launch(shard_id)
        self._reader = threading.Thread(
            target=self._reader_main, name="repro-shard-reader", daemon=True
        )
        self._reader.start()
        if cfg.supervise:
            from .supervisor import ShardSupervisor

            self._supervisor = ShardSupervisor(self)
            self._supervisor.start(self._loop)
        self._started = True

    def _launch(self, shard_id: int, *, respawn: bool = False) -> _Shard:
        """Start a worker for ``shard_id`` and install it in the fleet."""
        cfg = self.config
        work = self._ctx.Queue()
        # Each worker owns its completion pipe: one killed mid-write can
        # tear only its own channel, never a sibling's.
        done, done_writer = self._ctx.Pipe(duplex=False)
        fault_spec = None
        if not respawn and cfg.fault is not None and cfg.fault[1] == shard_id:
            fault_spec = (cfg.fault[0], cfg.fault[2])
        process = self._ctx.Process(
            target=shard_main,
            args=(shard_id, work, done_writer),
            kwargs=dict(
                backend=cfg.backend,
                guard=cfg.guard,
                warp=cfg.warp,
                latency=cfg.latency,
                native_tile=cfg.native_tile,
                native_threads=cfg.native_threads,
                fault_spec=fault_spec,
            ),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        done_writer.close()   # the worker holds the only write end
        shard = _Shard(id=shard_id, process=process, work=work, done=done)
        if shard_id < len(self._shards):
            self._shards[shard_id] = shard
        else:
            self._shards.append(shard)
        self._wake_reader()   # so the reader watches the new worker
        return shard

    # -- reader thread (completion pipes → event loop) -----------------------
    def _reader_main(self) -> None:
        """Forward every shard's messages and death to the event loop.

        Blocks on each shard's completion pipe, each live worker's process
        sentinel (readable the moment it exits) and the wake pipe that
        :meth:`_launch` and :meth:`stop` write to.  The reader owns the
        pipes' read ends and closes each at its end-of-file.
        """
        channels: Set[connection.Connection] = set()
        try:
            while not self._reader_stop.is_set():
                sentinels: Dict[int, _Shard] = {}
                for shard in list(self._shards):
                    if not shard.done.closed:
                        channels.add(shard.done)
                    if shard.alive and shard.id not in self._death_reported:
                        sentinels[shard.process.sentinel] = shard
                try:
                    ready = connection.wait(
                        [self._wake_r, *channels, *sentinels]
                    )
                except (OSError, ValueError):  # pragma: no cover - fd torn down
                    continue
                for handle in ready:
                    if handle in channels:
                        self._drain_channel(channels, handle)
                for handle in ready:
                    shard = sentinels.get(handle)
                    if shard is not None:
                        # Everything the worker sent before exiting lands
                        # before its death does.
                        self._drain_channel(channels, shard.done)
                        self._death_reported.add(shard.id)
                        self._post(self._on_shard_death, shard.id)
                if self._wake_r in ready:
                    os.read(self._wake_r, 4096)
        finally:
            for conn in channels:
                conn.close()

    def _drain_channel(self, channels: Set[connection.Connection],
                       conn: connection.Connection) -> None:
        """Post every message waiting on ``conn``; drop it at end-of-file."""
        if conn not in channels:
            return
        while True:
            try:
                if not conn.poll():
                    return
                msg = conn.recv()
            except Exception:
                # End of file, or a frame torn by a writer that died
                # mid-send: the channel is finished either way.
                channels.discard(conn)
                conn.close()
                return
            self._post(self._on_message, msg)

    def _wake_reader(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:  # pragma: no cover - a wake is already pending
            pass

    def _post(self, callback, *args) -> None:
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    # -- message handling (event-loop thread) --------------------------------
    def _on_message(self, msg: tuple) -> None:
        kind = wire.check_wire(msg)[0]
        if kind == wire.MSG_READY:
            self._shards[msg[1]].ready = True
        elif kind == wire.MSG_DONE:
            self._on_done(*msg[1:])
        elif kind == wire.MSG_PONG:
            self._on_pong(msg[1], msg[2])
        elif kind == wire.MSG_EXPIRED:
            self._on_expired(*msg[1:])
        elif kind == wire.MSG_ERROR:
            self._on_error(*msg[1:])
        elif kind == wire.MSG_FATAL:
            shard_id, message = msg[1], msg[2]
            record_incident(
                "shard-fatal", "serve.shard",
                f"shard {shard_id} reported a fatal error: {message}",
            )
            self._on_shard_death(shard_id)
        else:
            raise ShardError(f"router received unexpected {kind!r} message")

    def _claim(self, shard_id: int, seq: int) -> Optional[_Flight]:
        """Pop the flight a completion names, or ``None`` if it is stale.

        A completion is stale when its shard was declared dead and the
        descriptor was already re-dispatched (or failed): the seq no longer
        maps to that shard.  Dropping it is what makes re-dispatch
        at-most-once *observable* — the retry's completion, not the
        zombie's, resolves the futures.
        """
        flight = self._inflight.get(seq)
        if flight is None or flight.shard != shard_id:
            self.metrics.counter("shards.stale_done").inc()
            return None
        del self._inflight[seq]
        if not self._inflight:
            self._idle.set()
        return flight

    def _on_pong(self, shard_id: int, token: int) -> None:
        shard = self._shards[shard_id]
        if shard.pending_ping is not None and shard.pending_ping[0] == token:
            shard.pending_ping = None
        shard.last_pong = time.monotonic()
        self.metrics.counter("supervisor.pongs").inc()

    def _on_expired(self, shard_id: int, seq: int, slot: int) -> None:
        """The shard refused an already-expired batch without executing it."""
        flight = self._claim(shard_id, seq)
        if flight is None:
            return
        self._release(self._shards[shard_id], flight)
        now = time.monotonic()
        for request in flight.requests:
            if request.future.done():
                continue
            self.metrics.counter("requests.deadline_exceeded").inc()
            request.future.set_exception(RequestDeadlineError(
                f"request to {flight.key} expired in flight after "
                f"{now - request.enqueued:.4f}s (dropped by shard {shard_id} "
                f"unexecuted)"
            ))

    def _on_done(
        self, shard_id: int, seq: int, slot: int, elapsed: float,
        backend: str, units: float, checksum: int,
    ) -> None:
        flight = self._claim(shard_id, seq)
        if flight is None:
            return
        shard = self._shards[shard_id]
        arena = shard.arenas[flight.key]
        if arena.output_checksum(slot, flight.occupancy) != checksum:
            # The shared bytes changed between the shard's checksum and our
            # read — never serve them.  Free the slot and retry from the
            # router-retained rows, bounded by the same re-dispatch budget
            # as a shard death.
            self._release(shard, flight)
            self.metrics.counter("slots.corrupted").inc()
            record_incident(
                "slot-corruption", wire.SITE_SLOT_OUTPUT,
                f"batch of {flight.occupancy} on {flight.key}: slot {slot} "
                f"of shard {shard_id} failed checksum verification; "
                f"re-dispatching from retained rows",
            )
            if flight.attempts >= 2:
                self._fail_flight(flight, ShardError(
                    f"slot corruption persisted across the batch's "
                    f"re-dispatch budget on shard {shard_id}",
                    shard=shard_id,
                ))
                return
            task = self._loop.create_task(self._redispatch(flight))
            self._aux_tasks.add(task)
            task.add_done_callback(self._aux_tasks.discard)
            return
        outputs = np.array(
            arena.output_view(slot, flight.occupancy),
            copy=True,
        )
        self._release(shard, flight)
        # Seconds per analytic backlog unit, smoothed: what prices the
        # admission controller's retry_after hint.
        if flight.units > 0:
            rate = elapsed / flight.units
            self._unit_seconds = (
                rate if self._unit_seconds is None
                else 0.8 * self._unit_seconds + 0.2 * rate
            )
        shard.batches += 1
        shard.backends.add(backend)
        m = self.metrics
        m.histogram(f"shard.{shard_id}.batch_seconds").observe(elapsed)
        m.histogram(f"shard.{shard_id}.occupancy").observe(
            flight.occupancy / flight.lanes
        )
        m.histogram(f"shard.{shard_id}.predicted_units_per_request").observe(units)
        now = self._complete(
            self._queues[flight.key], flight.requests, outputs, flight.lanes,
            elapsed,
        )
        latency = m.histogram(f"shard.{shard_id}.request_latency_seconds")
        for request in flight.requests:
            latency.observe(now - request.enqueued)

    def _on_error(self, shard_id: int, seq: int, slot: int, message: str) -> None:
        flight = self._claim(shard_id, seq)
        if flight is None:
            return
        self._release(self._shards[shard_id], flight)
        record_incident(
            "batch-failure", "serve.shard",
            f"batch of {flight.occupancy} on {flight.key} failed on shard "
            f"{shard_id}: {message}",
        )
        self._fail(flight.requests, ServeError(f"batch execution failed: {message}"))

    def _release(self, shard: _Shard, flight: _Flight) -> None:
        if shard.alive:
            shard.free[flight.key].append(flight.slot)
        shard.backlog = max(0.0, shard.backlog - flight.units)
        self._slot_released.set()

    # -- shard death ---------------------------------------------------------
    def _on_shard_death(self, shard_id: int) -> None:
        shard = self._shards[shard_id]
        if not shard.alive:
            return
        shard.alive = False
        self.metrics.counter("shards.deaths").inc()
        victims = sorted(
            (f for f in self._inflight.values() if f.shard == shard_id),
            key=lambda f: f.seq,
        )
        record_incident(
            "shard-death", "serve.shard",
            f"shard {shard_id} (pid {shard.process.pid}) died with "
            f"{len(victims)} descriptor(s) in flight; re-dispatching to "
            f"surviving shards",
        )
        for flight in victims:
            del self._inflight[flight.seq]
        # The dead shard's arenas are unlinked outright — nothing in them
        # can be trusted, and retries repack from router-retained rows.
        for arena in shard.arenas.values():
            arena.close()
        shard.arenas.clear()
        shard.free.clear()
        shard.opened.clear()
        shard.process.join(timeout=0.1)
        self._slot_released.set()  # waiters must re-rank candidates
        if not self._inflight and not victims:
            self._idle.set()
        for flight in victims:
            if flight.attempts >= 2:
                self._fail_flight(flight, ShardDeadError(
                    f"shard {shard_id} died and the batch had already used "
                    f"its one re-dispatch"
                ))
                continue
            task = self._loop.create_task(self._redispatch(flight))
            self._aux_tasks.add(task)
            task.add_done_callback(self._aux_tasks.discard)
        if not self._inflight and not self._aux_tasks:
            self._idle.set()

    def _fail_flight(self, flight: _Flight, exc: Exception) -> None:
        self._fail(flight.requests, exc)
        if not self._inflight:
            self._idle.set()

    async def _redispatch(self, flight: _Flight) -> None:
        now = time.monotonic()
        live: List[_Request] = []
        for request in flight.requests:
            if request.future.done():
                continue
            if request.deadline is not None and now >= request.deadline:
                # Deadlines are absolute, so a retry inherits the request's
                # *remaining* budget — and a request whose budget the first
                # attempt consumed fails here instead of riding a doomed
                # retry.
                self.metrics.counter("requests.deadline_exceeded").inc()
                request.future.set_exception(RequestDeadlineError(
                    f"request to {flight.key} expired after "
                    f"{now - request.enqueued:.4f}s (deadline passed before "
                    f"its re-dispatch)"
                ))
                continue
            live.append(request)
        if not live:
            return
        self.metrics.counter("requests.redispatched").inc(len(live))
        try:
            await self._dispatch(
                self._queues[flight.key], live, flight.first_enqueued,
                attempts=flight.attempts + 1,
            )
        except ServeError as exc:
            for request in live:
                if not request.future.done():
                    request.future.set_exception(exc)

    # -- supervisor hooks (event-loop thread) --------------------------------
    def _respawn(self, shard_id: int) -> None:
        """Replace a dead shard id with a fresh worker process.

        The old incarnation's flights were already re-dispatched by
        :meth:`_on_shard_death`; its stale completions can never resolve a
        new flight because seqs are never reused.  The replacement starts
        with no opened keys — arenas are recreated lazily on first
        placement — and never re-arms a chaos fault.
        """
        old = self._shards[shard_id]
        if old.alive or old.retired or old.quarantined or self._closing:
            return
        if old.process.is_alive():  # pragma: no cover - terminate raced
            old.process.terminate()
            old.process.join(timeout=1.0)
        try:
            old.work.close()
            old.work.cancel_join_thread()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        self._death_reported.discard(shard_id)
        shard = self._launch(shard_id, respawn=True)
        shard.restarts = old.restarts
        shard.restarts.append(time.monotonic())
        shard.respawns = old.respawns + 1
        self.metrics.counter("shards.respawns").inc()
        record_incident(
            "shard-respawn", "serve.supervisor",
            f"shard {shard_id} respawned as pid {shard.process.pid} "
            f"(restart {shard.respawns})",
        )
        self._slot_released.set()  # admission waiters re-rank candidates

    def _quarantine(self, shard_id: int, recent: int) -> None:
        """Circuit breaker: take a flapping shard id out of rotation."""
        shard = self._shards[shard_id]
        shard.quarantined = True
        self.metrics.counter("shards.quarantined").inc()
        record_incident(
            "shard-flapping", "serve.supervisor",
            f"shard {shard_id} restarted {recent} times within "
            f"{self.config.restart_window}s; quarantined (circuit breaker "
            f"open), fleet continues on remaining shards",
        )

    def _scale_up(self) -> _Shard:
        """Autoscaler: add a fresh shard at the next id."""
        shard = self._launch(len(self._shards))
        self.metrics.counter("shards.scale_ups").inc()
        self._slot_released.set()
        return shard

    def _retire(self, shard_id: int) -> None:
        """Finish a drain: stop the idle worker and release its arenas.

        Only called when the shard has no in-flight descriptors, so its
        memory holds nothing anyone is waiting for.
        """
        shard = self._shards[shard_id]
        if not shard.alive or shard.retired:
            return
        shard.draining = False
        shard.retired = True
        shard.alive = False
        self._death_reported.add(shard.id)   # its exit is not a death
        try:
            shard.work.put(wire.stop())
        except (OSError, ValueError):  # pragma: no cover - queue torn down
            pass
        for arena in shard.arenas.values():
            arena.close()
        shard.arenas.clear()
        shard.free.clear()
        shard.opened.clear()
        self.metrics.counter("shards.retired").inc()

    def _retry_after(self) -> float:
        """Model-derived backoff hint: when should a shed client retry?

        Cheapest live backlog × the observed seconds-per-unit EWMA — i.e.
        the analytic estimate of when the least-loaded shard drains —
        floored at the broker's one-linger-window hint.
        """
        floor = super()._retry_after()
        if self._unit_seconds is None:
            return floor
        backlog = min(
            (s.backlog for s in self._shards if s.alive and not s.draining),
            default=0.0,
        )
        return max(floor, backlog * self._unit_seconds)

    # -- submission ----------------------------------------------------------
    async def submit(
        self,
        workload: Union[str, Program],
        value,
        *,
        n: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> np.ndarray:
        """Submit one input; await its ``output_words`` output image (the
        program's declared outputs; its whole memory when none).

        Same contract as :meth:`BulkServer.submit` — backpressure raises
        :class:`~repro.errors.ServerOverloadedError`, expiry raises
        :class:`~repro.errors.RequestDeadlineError` — plus
        :class:`~repro.errors.ShardDeadError` when shard deaths exhaust a
        request's one re-dispatch (or leave no live shard).  The first
        submission starts the fleet on the running event loop.
        """
        self._ensure_started()
        return await self._admit(workload, value, n, deadline)

    # -- placement & dispatch ------------------------------------------------
    def _price(self, shard: _Shard, trace_length: int, lanes: int) -> float:
        cfg = self.config
        return placement_units(
            trace_length, lanes, cfg.warp, cfg.latency, backlog=shard.backlog,
            speedup=cfg.lane_speedup(),
        )

    async def _acquire(self, q: _Queue, lanes: int) -> Tuple[_Shard, int]:
        """Cheapest live shard with a free slot for this key (admission).

        Ranks live, non-draining shards by :func:`placement_units` (backlog
        + analytic batch cost) and takes the argmin's next free slot; when
        every candidate's arena for the key is fully in flight, waits for a
        slot release (or a death/respawn, which also re-ranks) and retries
        — but only up to ``admission_timeout``, after which the batch is
        shed with :class:`ServerOverloadedError` (``retry_after`` from the
        analytic model) rather than stalling its requests indefinitely.
        """
        give_up = time.monotonic() + self.config.admission_timeout
        while True:
            if self._stopped:
                raise ServerClosedError("server is stopped")
            candidates = [s for s in self._shards if s.alive and not s.draining]
            if not candidates:
                draining = [s for s in self._shards if s.alive]
                if draining:
                    # Every live shard is mid-drain: cancel one drain
                    # rather than deadlock admission against the
                    # autoscaler.
                    min(draining, key=lambda s: s.id).draining = False
                    continue
                raise ShardDeadError(
                    "no live shard remains to place the batch on"
                )
            trace_length = q.program.trace_length
            for shard in sorted(
                candidates,
                key=lambda s: (self._price(s, trace_length, lanes), s.id),
            ):
                self._open_on(shard, q)
                free = shard.free[q.key]
                if free:
                    return shard, free.popleft()
            remaining = give_up - time.monotonic()
            if remaining <= 0:
                self.metrics.counter("requests.rejected_slots").inc()
                retry_after = self._retry_after()
                record_incident(
                    "server-overload", "serve.slots",
                    f"no arena slot freed for {q.key} within "
                    f"{self.config.admission_timeout}s; batch shed with "
                    f"retry_after={retry_after:.4f}s",
                )
                raise ServerOverloadedError(
                    f"every slot for {q.key} stayed in flight for "
                    f"{self.config.admission_timeout}s; shedding the batch",
                    key=q.key,
                    depth=len(q.requests),
                    retry_after=retry_after,
                )
            self._slot_released.clear()
            try:
                await asyncio.wait_for(
                    self._slot_released.wait(), timeout=remaining
                )
            except asyncio.TimeoutError:
                pass

    def _open_on(self, shard: _Shard, q: _Queue) -> None:
        """Replicate a queue key onto a shard (arena + one ``open`` message).

        Registry programs ship as ``(name, n)``; any other program ships
        as its IR document, serialised once per key however many shards
        (or respawns) open it.
        """
        if q.key in shard.opened:
            return
        shipped = self._shipped.get(q.key)
        if shipped is None:
            if q.origin is not None:
                shipped = ("registry", q.origin[0], q.origin[1])
            else:
                shipped = ("ir", json.dumps(program_to_dict(q.program)), 0)
            self._shipped[q.key] = shipped
        cfg = self.config
        arena = SlotArena.create(
            cfg.slots, cfg.max_batch, q.program.memory_words, q.program.dtype,
            out_words=q.program.output_words,
        )
        shard.arenas[q.key] = arena
        shard.free[q.key] = deque(range(cfg.slots))
        shard.work.put(wire.check_wire(wire.open_key(
            q.key, *shipped, arena.name, cfg.slots, cfg.max_batch,
            q.program.memory_words, q.program.dtype.name,
        )))
        shard.opened.add(q.key)

    async def _dispatch(
        self, q: _Queue, batch: List[_Request], first_enqueued: float,
        attempts: int = 1,
    ) -> None:
        """Place ``batch`` on the cheapest shard; its ``done`` completes it."""
        cfg = self.config
        occupancy = len(batch)
        lanes = self._lanes(occupancy)
        width = max(request.row.size for request in batch)
        shard, slot = await self._acquire(q, lanes)
        # No awaits from here to the work-queue put: the shard chosen above
        # cannot be declared dead mid-pack (death handling runs on this
        # same event loop), so the flight is either completed or swept.
        view = shard.arenas[q.key].input_view(slot, occupancy, width)
        view[:] = 0
        for i, request in enumerate(batch):
            view[i, : request.row.size] = request.row
        units = placement_units(
            q.program.trace_length, lanes, cfg.warp, cfg.latency,
            speedup=cfg.lane_speedup(),
        )
        # The batch's deadline is its *earliest* request deadline, shipped
        # absolute (monotonic clocks are system-wide on Linux) so the shard
        # can refuse expired work and a re-dispatch inherits the remaining —
        # not a fresh — budget.
        deadlines = [r.deadline for r in batch if r.deadline is not None]
        deadline = min(deadlines) if deadlines else -1.0
        seq = self._seq
        self._seq += 1
        started = time.monotonic()
        self._inflight[seq] = _Flight(
            seq=seq, key=q.key, shard=shard.id, slot=slot,
            requests=batch, lanes=lanes, occupancy=occupancy, width=width,
            units=units, attempts=attempts, first_enqueued=first_enqueued,
            deadline=deadline, dispatched_at=started,
        )
        self._idle.clear()
        shard.backlog += units
        self._observe_dispatch(q, occupancy, first_enqueued, started)
        self.metrics.histogram("placement.backlog_units").observe(shard.backlog)
        shard.work.put(wire.check_wire(
            wire.batch(seq, q.key, slot, lanes, occupancy, width,
                       float(deadline))
        ))

    # -- lifecycle -----------------------------------------------------------
    async def _shutdown(self) -> None:
        """Wait out in-flight descriptors, then stop the workers.

        Runs after the broker has dispatched (or abandoned) every queued
        request; shard deaths along the way still re-dispatch.
        """
        if not self._started:
            return
        while self._aux_tasks:
            await asyncio.gather(*list(self._aux_tasks), return_exceptions=True)
        if self._inflight:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=30.0)
            except asyncio.TimeoutError:  # pragma: no cover - wedged shard
                for flight in list(self._inflight.values()):
                    del self._inflight[flight.seq]
                    self._fail_flight(flight, ServeError(
                        "shutdown timed out with the batch still in flight"
                    ))
        self._stopped = True  # _acquire waiters bail out from here on
        if self._supervisor is not None:
            await self._supervisor.stop()
        self._reader_stop.set()
        self._wake_reader()
        if self._reader is not None:
            self._reader.join(timeout=2.0)
        for shard in self._shards:
            if shard.alive:
                try:
                    shard.work.put(wire.stop())
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for shard in self._shards:
            shard.process.join(timeout=5.0)
            if shard.process.is_alive():  # pragma: no cover - wedged worker
                shard.process.terminate()
                shard.process.join(timeout=1.0)
            for arena in shard.arenas.values():
                arena.close()
            shard.arenas.clear()
            shard.free.clear()
            shard.work.close()
            shard.work.cancel_join_thread()
        os.close(self._wake_r)
        os.close(self._wake_w)

    # -- observability -------------------------------------------------------
    def _queue_stats(self, q: _Queue) -> dict:
        return {}

    def _placement_stats(self) -> dict:
        """The ``shards`` and ``supervisor`` sections of :meth:`stats`.

        Per shard ``alive``/``ready``/``pid``/``batches``/``backlog_units``
        and the backends its executors actually ran on.  Per-shard latency
        and occupancy percentiles live in ``histograms`` under
        ``shard.<id>.request_latency_seconds`` / ``shard.<id>.occupancy``.
        """
        return {
            "shards": {
                shard.id: {
                    "alive": shard.alive,
                    "backends": sorted(shard.backends),
                    "backlog_units": round(shard.backlog, 6),
                    "batches": shard.batches,
                    "draining": shard.draining,
                    "pid": shard.process.pid,
                    "quarantined": shard.quarantined,
                    "ready": shard.ready,
                    "respawns": shard.respawns,
                    "retired": shard.retired,
                }
                for shard in self._shards
            },
            "supervisor": {
                "draining": sum(1 for s in self._shards if s.draining),
                "enabled": self.config.supervise,
                "live": sum(
                    1 for s in self._shards if s.alive and not s.draining
                ),
                "max_shards": self.config.shard_ceiling(),
                "min_shards": self.config.shard_floor(),
                "quarantined": sum(1 for s in self._shards if s.quarantined),
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        live = sum(1 for s in self._shards if s.alive)
        return (
            f"ShardedServer(shards={live}/{self.config.shards}, "
            f"policy={self.policy.describe()}, running={self.running})"
        )
