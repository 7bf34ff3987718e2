"""`BulkServer` — an asyncio request broker over the bulk execution engine.

The paper proves that executing one oblivious algorithm for ``p``
independent inputs in the column-wise arrangement costs ``O(pt/w + lt)``
time units — each extra input rides the same ``l − 1``-stage pipeline
drain, so the *per-request* price falls monotonically with the batch size
(Theorems 2–3).  That is precisely the economics behind dynamic batching
in inference serving, and this module is that argument turned into a
subsystem: clients submit *individual* inputs, and a micro-batching
scheduler coalesces them into bulk column-wise executions.

Shape of the thing::

    async with BulkServer() as server:
        out = await server.submit("opt", weights, n=8)

* One queue per ``(workload, n)`` pair.  ``submit`` appends a request and
  wakes the queue's scheduler; the awaitable resolves to that single
  input's output image.
* The scheduler lingers until either the policy's **target batch size** is
  reached (adaptive: priced from the analytic UMM cost model — see
  :mod:`repro.serve.policy`) or the oldest request has waited
  ``max_linger`` seconds, then dispatches the whole queue (up to
  ``max_batch``) as one bulk run on a worker thread.
* Lanes are padded up to a warp multiple (the paper's ``p ≡ 0 (mod w)``
  batch shape) and executed through a cached, optionally **guarded**
  :class:`~repro.bulk.engine.BulkExecutor` — a poisoned native kernel
  degrades to the NumPy engine instead of taking the server down.
* **Backpressure**: a queue holding ``max_pending`` requests rejects new
  submissions with :class:`~repro.errors.ServerOverloadedError` (and
  records one incident per overload episode).
* **Deadlines / cancellation**: a request whose ``deadline`` expires
  before dispatch fails with :class:`~repro.errors.RequestDeadlineError`;
  a cancelled awaitable is dropped from its batch at dispatch time.
* **Shutdown**: ``await server.stop()`` drains every queue then closes the
  executors (releasing native kernel handles); ``stop(drain=False)`` —
  also the exceptional ``async with`` exit — abandons pending requests
  with :class:`~repro.errors.ServerClosedError` instead.

The broker core — queues, admission, linger, completion, shutdown and
``stats()`` — is written once, here; a placement decides only how a taken
batch runs.  This module's is a worker-thread pool;
:class:`~repro.serve.router.ShardedServer` subclasses the broker to place
batches on a fleet of shard processes instead.

Everything observable lands in :meth:`BulkServer.stats`: queue depth,
batch occupancy, pad-lane waste, time-to-first-dispatch, per-batch execute
time, overload/deadline counts, plus the process incident summary — all
deterministically ordered for diff-stable CI output.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..algorithms.registry import get_spec
from ..errors import (
    ExecutionError,
    ReproError,
    RequestDeadlineError,
    ServeError,
    ServerClosedError,
    ServerOverloadedError,
)
from ..bulk.engine import BulkExecutor
from ..reliability.guard import GuardPolicy
from ..reliability.incidents import incident_summary, record_incident
from ..trace.ir import Program
from .metrics import MetricsRegistry
from .policy import (
    AdaptivePolicy,
    BatchPolicy,
    backend_lane_speedup,
    make_policy,
    round_up_warp,
)

__all__ = ["BulkServer", "ServeConfig", "column_executor"]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving layer (see docs/SERVING.md for the full story).

    Attributes
    ----------
    max_batch:
        Hard cap on lanes per dispatch — the largest executor ``p`` the
        server will build.
    warp:
        Warp width ``w`` of the modelled machine; batch lanes are padded
        up to a multiple of it (``pad_to_warp``) and the adaptive policy
        prices candidate batches with it.
    latency:
        Modelled memory latency ``l`` for the adaptive policy's pricing.
    max_linger:
        Longest time (seconds) the scheduler lets the *oldest* pending
        request wait for co-batchers before dispatching anyway.
    max_pending:
        Per-queue backpressure bound: submissions beyond this depth are
        rejected with :class:`~repro.errors.ServerOverloadedError`.
    policy:
        ``"adaptive"`` (cost-model-driven, default), ``"single"``,
        ``"full"``, an integer target, or a
        :class:`~repro.serve.policy.BatchPolicy` instance.
    pad_to_warp:
        Round executor sizes up to warp multiples (keeps the executor pool
        small and the batch shape the paper's).  Disable for the
        single-lane baseline.
    backend / guard:
        Forwarded to every :class:`~repro.bulk.engine.BulkExecutor` the
        server builds; ``guard="spot"`` is the recommended production
        setting for native backends.
    native_tile / native_threads:
        Native-backend tuning knobs forwarded to every executor (``None``
        defers to the ``REPRO_NATIVE_TILE`` / ``REPRO_NATIVE_THREADS``
        environment, then the library default tile and one thread).
        ``native_threads`` also feeds the adaptive policy's
        effective-lane speedup (:meth:`lane_speedup`), so batch targets
        price the threaded kernels they will actually run on.
    workers:
        Worker threads draining batches (queues are independent; one batch
        per queue is in flight at a time).
    record:
        Keep ``(key, input, output)`` triples of every served request in
        :attr:`BulkServer.served` — for replay verification in tests; do
        not enable under sustained load.
    """

    max_batch: int = 256
    warp: int = 32
    latency: int = 100
    max_linger: float = 0.002
    max_pending: int = 4096
    policy: Union[str, int, BatchPolicy] = "adaptive"
    pad_to_warp: bool = True
    backend: str = "numpy"
    guard: Union[None, str, GuardPolicy] = None
    native_tile: Optional[int] = None
    native_threads: Optional[int] = None
    workers: int = 2
    record: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.warp < 1:
            raise ServeError(f"warp must be >= 1, got {self.warp}")
        if self.latency < 1:
            raise ServeError(f"latency must be >= 1, got {self.latency}")
        if self.max_linger < 0:
            raise ServeError(f"max_linger must be >= 0, got {self.max_linger}")
        if self.max_pending < 1:
            raise ServeError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")
        for name in ("native_tile", "native_threads"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ServeError(f"{name} must be >= 1, got {value}")

    def lane_speedup(self) -> float:
        """Effective-lane multiplier the policy should price batches with.

        See :func:`~repro.serve.policy.backend_lane_speedup`: 1.0 for the
        NumPy baseline, the SIMD×threads multiplier for native backends.
        """
        return backend_lane_speedup(self.backend, self.native_threads)


#: Shortest ``retry_after`` a shed client is told: a zero-linger config
#: must not invite an immediate retry storm.
RETRY_AFTER_FLOOR = 1e-3


def column_executor(
    cache: Dict[int, BulkExecutor], program: Program, lanes: int,
    config: ServeConfig,
) -> BulkExecutor:
    """``cache[lanes]``, built on first use with ``config``'s backend knobs.

    The one place a serving placement makes an executor: the in-process
    server keeps a cache per queue, every shard worker one per queue key.
    """
    executor = cache.get(lanes)
    if executor is None:
        executor = cache[lanes] = BulkExecutor(
            program, lanes, "column", backend=config.backend,
            guard=config.guard,
            tile=config.native_tile, threads=config.native_threads,
        )
    return executor


@dataclass
class _Request:
    row: np.ndarray
    future: "asyncio.Future"
    enqueued: float
    deadline: Optional[float]


@dataclass
class _Queue:
    """One ``(workload, n)`` queue and its scheduler task.

    ``origin`` is ``(registry name, n)`` for a program built from the
    algorithm registry, ``None`` for a registered or submitted
    :class:`Program`.  ``executors`` is the in-process placement's cache.
    """

    key: str
    program: Program
    origin: Optional[Tuple[str, int]] = None
    requests: Deque[_Request] = field(default_factory=deque)
    wake: "asyncio.Event" = field(default_factory=asyncio.Event)
    task: Optional["asyncio.Task"] = None
    executors: Dict[int, BulkExecutor] = field(default_factory=dict)
    overloaded: bool = False


class BulkServer:
    """Dynamic micro-batching broker over guarded bulk executors.

    Construct with a :class:`ServeConfig` (or keyword overrides), submit
    from any number of asyncio tasks, and read :meth:`stats` at will.  The
    server is a context manager::

        async with BulkServer(max_linger=0.001) as server:
            outs = await asyncio.gather(
                *(server.submit("prefix-sums", row, n=64) for row in rows)
            )

    This class is also the broker core every placement shares: queues,
    admission and backpressure, the linger loop, batch completion, shutdown
    and ``stats()``.  A placement decides only how a taken batch runs
    (:meth:`_dispatch`), what stopping releases (:meth:`_shutdown`) and
    what it adds to ``stats()``; :class:`~repro.serve.router.ShardedServer`
    is the multi-process one.
    """

    #: The config type keyword overrides build.
    config_class = ServeConfig

    def __init__(self, config: Optional[ServeConfig] = None, **overrides) -> None:
        if config is None:
            config = self.config_class(**overrides)
        elif overrides:
            raise ServeError(
                f"pass either a {self.config_class.__name__} or keyword overrides"
            )
        self.config = config
        self.policy = make_policy(
            config.policy, w=config.warp, l=config.latency,
            speedup=config.lane_speedup(),
        )
        self.metrics = MetricsRegistry()
        #: ``(queue key, input row, output row)`` triples when recording.
        self.served: List[Tuple[str, np.ndarray, np.ndarray]] = []
        self._programs: Dict[str, Program] = {}
        self._queues: Dict[str, _Queue] = {}
        self._pool: Optional["ThreadPoolExecutor"] = None
        self._closing = False
        self._stopped = False

    # -- workload registry ---------------------------------------------------
    def register(self, name: str, program: Program) -> None:
        """Serve a custom :class:`Program` under queue key ``name``."""
        if self._closing:
            raise ServerClosedError("server is stopped")
        self._programs[name] = program

    def _queue_for(self, workload: Union[str, Program],
                   n: Optional[int]) -> _Queue:
        """The queue serving ``workload``; the first use starts its scheduler."""
        if isinstance(workload, Program):
            key = f"program:{workload.name}"
        else:
            if n is None and ":" in workload:
                workload, _, suffix = workload.partition(":")
                n = int(suffix)
            key = workload if n is None else f"{workload}:{n}"
        q = self._queues.get(key)
        if q is not None:
            return q
        origin = None
        if isinstance(workload, Program):
            program = workload
        elif key in self._programs:
            program = self._programs[key]
        elif n is None:
            raise ServeError(
                f"workload {workload!r} is not registered and carries no "
                f"problem size; use submit(name, x, n=...) or register()"
            )
        else:
            program, origin = get_spec(workload).build(n), (workload, n)
        q = self._queues[key] = _Queue(key=key, program=program, origin=origin)
        q.task = asyncio.get_running_loop().create_task(
            self._drain_loop(q), name=f"repro-serve-{key}"
        )
        return q

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

        Parameters
        ----------
        workload:
            Registry name (``"opt"`` with ``n=8``, or the shorthand
            ``"opt:8"``), a previously :meth:`register`-ed key, or a
            :class:`Program`.
        value:
            One input's words (any array-like; flattened).
        deadline:
            Seconds this request may wait for dispatch before failing with
            :class:`~repro.errors.RequestDeadlineError`.

        Raises
        ------
        ServerOverloadedError
            The queue is at its bounded pending limit (backpressure).
        ServerClosedError
            The server is stopped or stopping.
        """
        return await self._admit(workload, value, n, deadline)

    def _admit(self, workload: Union[str, Program], value, n: Optional[int],
               deadline: Optional[float]) -> "asyncio.Future":
        """Validate one submission, apply backpressure, enqueue it.

        Returns the future the queue's scheduler resolves with the output.
        """
        if self._closing:
            raise ServerClosedError("server is stopped; submission refused")
        q = self._queue_for(workload, n)
        row = np.asarray(value, dtype=q.program.dtype).ravel()
        if row.size > q.program.memory_words:
            raise ExecutionError(
                f"input of {row.size} words exceeds program memory "
                f"({q.program.memory_words} words)"
            )
        if len(q.requests) >= self.config.max_pending:
            self.metrics.counter("requests.rejected_overload").inc()
            if not q.overloaded:
                q.overloaded = True
                record_incident(
                    "server-overload",
                    "serve.queue",
                    f"queue {q.key} rejected a submission at its pending "
                    f"bound ({self.config.max_pending}); shedding load "
                    f"until the next successful dispatch",
                )
            raise ServerOverloadedError(
                f"queue {q.key} is overloaded ({len(q.requests)} pending, "
                f"bound {self.config.max_pending})",
                key=q.key,
                depth=len(q.requests),
                retry_after=self._retry_after(),
            )
        now = time.monotonic()
        request = _Request(
            row=row,
            future=asyncio.get_running_loop().create_future(),
            enqueued=now,
            deadline=(now + deadline) if deadline is not None else None,
        )
        q.requests.append(request)
        self.metrics.counter("requests.submitted").inc()
        q.wake.set()
        return request.future

    def _retry_after(self) -> float:
        """When a shed client should retry.

        One linger window is when the next dispatch can drain the queue,
        floored at :data:`RETRY_AFTER_FLOOR`.
        """
        return max(self.config.max_linger, RETRY_AFTER_FLOOR)

    # -- the scheduler -------------------------------------------------------
    async def _drain_loop(self, q: _Queue) -> None:
        cfg = self.config
        while True:
            if not q.requests:
                if self._closing:
                    break
                q.wake.clear()
                await q.wake.wait()
                continue
            # Linger: wait for co-batchers until the policy target is met
            # or the oldest request has waited max_linger.
            first_enqueued = q.requests[0].enqueued
            linger_until = first_enqueued + cfg.max_linger
            target = self.policy.target_batch(
                q.program.trace_length, cfg.max_batch
            )
            while len(q.requests) < target and not self._closing:
                remaining = linger_until - time.monotonic()
                if remaining <= 0:
                    break
                q.wake.clear()
                try:
                    await asyncio.wait_for(q.wake.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
            batch = self._take_batch(q)
            if batch:
                try:
                    await self._dispatch(q, batch, first_enqueued)
                except ServeError as exc:
                    # The placement refused the whole batch (shed, stopped,
                    # or nowhere left to run it).
                    for request in batch:
                        if not request.future.done():
                            request.future.set_exception(exc)

    def _take_batch(self, q: _Queue) -> List[_Request]:
        """Pop up to ``max_batch`` live requests, failing expired ones."""
        now = time.monotonic()
        batch: List[_Request] = []
        while q.requests and len(batch) < self.config.max_batch:
            request = q.requests.popleft()
            if request.future.done():  # cancelled/abandoned by the caller
                self.metrics.counter("requests.cancelled").inc()
                continue
            if request.deadline is not None and now >= request.deadline:
                self.metrics.counter("requests.deadline_exceeded").inc()
                request.future.set_exception(RequestDeadlineError(
                    f"request to {q.key} expired after "
                    f"{now - request.enqueued:.4f}s in queue"
                ))
                continue
            batch.append(request)
        return batch

    # -- batch bookkeeping shared by every placement -------------------------
    def _lanes(self, occupancy: int) -> int:
        """Executor width for ``occupancy`` requests (warp-padded by default)."""
        cfg = self.config
        return round_up_warp(occupancy, cfg.warp) if cfg.pad_to_warp else occupancy

    def _observe_dispatch(self, q: _Queue, occupancy: int,
                          first_enqueued: float, started: float) -> None:
        self.metrics.histogram("queue.time_to_first_dispatch_seconds").observe(
            started - first_enqueued
        )
        self.metrics.histogram("queue.depth_at_dispatch").observe(
            occupancy + len(q.requests)
        )

    def _complete(self, q: _Queue, batch: List[_Request], outputs,
                  lanes: int, elapsed: float) -> float:
        """Resolve a finished batch's futures and record it; return the time."""
        m = self.metrics
        occupancy = len(batch)
        m.counter("batches.dispatched").inc()
        m.counter("requests.completed").inc(occupancy)
        m.counter("lanes.padded").inc(lanes - occupancy)
        m.histogram("batch.size").observe(occupancy)
        m.histogram("batch.occupancy").observe(occupancy / lanes)
        m.histogram("batch.execute_seconds").observe(elapsed)
        q.overloaded = False
        latency = m.histogram("request.latency_seconds")
        now = time.monotonic()
        for request, output in zip(batch, outputs):
            if self.config.record:
                self.served.append((q.key, request.row.copy(), output.copy()))
            if not request.future.done():
                request.future.set_result(output)
            latency.observe(now - request.enqueued)
        return now

    def _fail(self, batch: List[_Request], exc: Exception) -> None:
        """Fail every still-waiting request of a batch with ``exc``."""
        self.metrics.counter("requests.failed").inc(len(batch))
        for request in batch:
            if not request.future.done():
                request.future.set_exception(exc)

    # -- in-process placement ------------------------------------------------
    def _run_batch(self, q: _Queue, lanes: int, block: np.ndarray) -> np.ndarray:
        """Worker-thread body: one guarded bulk execution, outputs trimmed.

        The executor cache is safe to touch from a worker thread because
        each queue dispatches one batch at a time.
        """
        executor = column_executor(q.executors, q.program, lanes, self.config)
        return executor.run_trimmed(block)

    async def _dispatch(
        self, q: _Queue, batch: List[_Request], first_enqueued: float
    ) -> None:
        """Pack ``batch`` and run it on a worker thread."""
        occupancy = len(batch)
        lanes = self._lanes(occupancy)
        width = max(request.row.size for request in batch)
        block = np.zeros((occupancy, width), dtype=q.program.dtype)
        for i, request in enumerate(batch):
            block[i, : request.row.size] = request.row
        started = time.monotonic()
        self._observe_dispatch(q, occupancy, first_enqueued, started)
        try:
            outputs = await asyncio.get_running_loop().run_in_executor(
                self._thread_pool(), self._run_batch, q, lanes, block
            )
        except ReproError as exc:
            # The guard layer already degrades recoverable native failures
            # inside run(); whatever still escapes fails this batch only.
            record_incident(
                "batch-failure",
                "serve.dispatch",
                f"batch of {occupancy} on {q.key} failed: {exc}",
            )
            self._fail(batch, ServeError(f"batch execution failed: {exc}"))
            return
        self._complete(q, batch, outputs, lanes, time.monotonic() - started)
        if isinstance(self.policy, AdaptivePolicy):
            self.metrics.histogram("batch.predicted_units_per_request").observe(
                self.policy.predicted_units(q.program.trace_length, lanes)
            )

    def _thread_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-serve",
            )
        return self._pool

    async def _shutdown(self) -> None:
        """Release the placement once every queue has drained."""
        for q in self._queues.values():
            for executor in q.executors.values():
                executor.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- lifecycle -----------------------------------------------------------
    async def stop(self, drain: bool = True) -> None:
        """Stop accepting work; drain (default) or abandon pending requests.

        With ``drain=True`` every pending request is dispatched (linger
        windows are skipped) before the placement is released.  With
        ``drain=False`` pending requests fail with
        :class:`~repro.errors.ServerClosedError`; a batch already in
        flight still completes.  Idempotent.
        """
        if self._stopped:
            return
        self._closing = True
        if not drain:
            for q in self._queues.values():
                while q.requests:
                    request = q.requests.popleft()
                    if not request.future.done():
                        request.future.set_exception(ServerClosedError(
                            f"server stopped without draining {q.key}"
                        ))
        for q in self._queues.values():
            q.wake.set()
        tasks = [q.task for q in self._queues.values() if q.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await self._shutdown()
        self._stopped = True

    @property
    def running(self) -> bool:
        """Is the server accepting submissions?"""
        return not self._closing

    async def __aenter__(self) -> "BulkServer":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        # Clean exit drains (every accepted request is answered); an
        # exceptional exit — KeyboardInterrupt included — abandons pending
        # work, mirroring BulkSession's half-fed-work rule.
        await self.stop(drain=exc_type is None)
        return None

    # -- observability -------------------------------------------------------
    def stats(self) -> dict:
        """Deterministically ordered snapshot of the server's behaviour.

        Top-level keys (sorted): ``counters``, ``histograms``,
        ``incidents``, ``policy``, ``queues``, then any placement
        sections.  Every nested mapping is sorted too, so two snapshots of
        identical traffic render identically (diff-stable CI / docs
        output).
        """
        snapshot = self.metrics.snapshot()
        return {
            "counters": snapshot["counters"],
            "histograms": snapshot["histograms"],
            "incidents": incident_summary(),
            "policy": self.policy.describe(),
            "queues": {
                key: dict(sorted({
                    "depth": len(q.requests),
                    "target_batch": self.policy.target_batch(
                        q.program.trace_length, self.config.max_batch
                    ),
                    **self._queue_stats(q),
                }.items()))
                for key, q in sorted(self._queues.items())
            },
            **self._placement_stats(),
        }

    def _queue_stats(self, q: _Queue) -> dict:
        """Placement-specific fields of one queue's ``stats()`` entry."""
        return {
            "backends": sorted({ex.backend for ex in q.executors.values()}),
            "executors": sorted(q.executors),
        }

    def _placement_stats(self) -> dict:
        """Top-level ``stats()`` sections a placement adds (sorted after
        ``queues``)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BulkServer(queues={len(self._queues)}, "
            f"policy={self.policy.describe()}, "
            f"running={self.running})"
        )
