"""`ShardSupervisor` — keeps the shard fleet healthy and right-sized.

The sharded router's baseline failure handling is *reactive*: a dead
shard's flights are re-dispatched to survivors, and that is all.  The
supervisor (``ShardConfig(supervise=True)``) closes the loop and makes the
fleet **self-healing**:

* **Heartbeats over the work queues.**  Every ``heartbeat_interval`` the
  supervisor puts a ``ping`` descriptor on each live shard's FIFO work
  queue; a healthy worker answers ``pong`` between batches.  Because the
  probe rides *behind* any queued batches, a worker wedged mid-batch
  simply cannot answer — silence longer than ``heartbeat_timeout`` is the
  wedge detector, with no shard-side cooperation needed.  This catches the
  failure a process sentinel structurally cannot: a worker that is
  alive but will never serve again.
* **Flight timeouts.**  A descriptor older than ``flight_timeout`` with no
  completion condemns its shard too — covering lost ``done`` messages
  (control-channel drop) as well as mid-batch stalls.  Recovery is identical
  either way: the shard is recycled and the batch re-dispatched from
  router-retained rows; deterministic replicas make the retry
  bit-identical.
* **Respawn with backoff, breaker on flap.**  A crashed, wedged, or silent
  shard is terminated and respawned at the same id after an exponential
  backoff (``backoff_base · 2^k``, capped).  More than ``max_restarts``
  respawns inside ``restart_window`` seconds opens the per-shard circuit
  breaker: the id is quarantined, the event lands in
  ``reliability.incidents`` (kind ``shard-flapping``), and the fleet
  carries on without it — a poisoned host cannot consume the server in a
  restart loop.
* **Autoscaling against the cost model.**  Each tick samples fleet
  pressure (in-flight backlog plus queued work, priced in analytic UMM
  time units per live shard) into a bounded window; the p95 of that window
  is compared against :func:`~repro.machine.analytic.autoscale_thresholds`
  — scale up when pressure exceeds ``scale_up_factor`` full batches per
  shard, drain-and-retire the idlest shard when it falls below
  ``scale_down_factor`` (hysteresis keeps the two decisions apart), always
  inside ``[min_shards, max_shards]``.  The decision function
  (:func:`plan_scaling`) is pure, so tests drive it with scripted backlog
  profiles and get the same scaling trajectory every run.

Everything the supervisor does runs on the router's event loop — it calls
the same single-threaded hooks (``_on_shard_death``, ``_respawn``,
``_scale_up``, ``_retire``) the message handlers use, so there is no
locking and no new race surface.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Deque, List, Optional, Sequence

from ..machine.analytic import autoscale_thresholds, placement_units
from ..reliability.incidents import record_incident
from . import wire

__all__ = ["ShardSupervisor", "plan_scaling", "p95"]


def p95(samples: Sequence[float]) -> float:
    """The 95th-percentile sample (nearest-rank on the sorted window)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.95 * (len(ordered) - 1) + 0.5))]


def plan_scaling(
    pressure: float,
    live: int,
    min_shards: int,
    max_shards: int,
    up_threshold: float,
    down_threshold: float,
) -> int:
    """Pure scaling decision: ``+1`` (spawn), ``-1`` (drain one), or ``0``.

    ``pressure`` is the p95 per-shard backlog in analytic units;
    thresholds come from
    :func:`~repro.machine.analytic.autoscale_thresholds`.  Keeping this a
    pure function of its arguments is what makes autoscaling trajectories
    reproducible: the same scripted backlog profile yields the same
    spawn/drain sequence every run.
    """
    if live < min_shards:
        return 1
    if pressure > up_threshold and live < max_shards:
        return 1
    if pressure < down_threshold and live > min_shards:
        return -1
    return 0


class ShardSupervisor:
    """The supervision task over one :class:`~repro.serve.router.ShardedServer`.

    Constructed (and started) by the router when ``supervise=True``; its
    public surface beyond ``start``/``stop`` — :meth:`tick`,
    :meth:`evaluate_scaling`, :meth:`sample_pressure` — exists so tests can
    drive single supervision steps deterministically without waiting on
    the periodic loop.
    """

    def __init__(self, server) -> None:
        self._server = server
        self._cfg = server.config
        self._task: Optional["asyncio.Task"] = None
        self._respawn_tasks: set = set()
        self._next_token = 0
        self._samples: Deque[float] = deque(maxlen=self._cfg.autoscale_window)

    # -- lifecycle -----------------------------------------------------------
    def start(self, loop: "asyncio.AbstractEventLoop") -> None:
        self._task = loop.create_task(self._run(), name="repro-shard-supervisor")

    async def stop(self) -> None:
        for task in list(self._respawn_tasks):
            task.cancel()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self._cfg.supervise_interval)
            self.tick()

    # -- one supervision step ------------------------------------------------
    def tick(self, now: Optional[float] = None) -> None:
        """Heartbeat, condemn, respawn, autoscale, retire — one pass."""
        server = self._server
        if server._closing or server._stopped:
            return
        now = time.monotonic() if now is None else now
        self._heartbeat(now)
        self._check_flights(now)
        self._respawn_dead(now)
        self.evaluate_scaling(self.sample_pressure())
        self._retire_drained()

    # -- heartbeats & wedge detection ----------------------------------------
    def _heartbeat(self, now: float) -> None:
        for shard in self._server._shards:
            if not shard.alive or shard.draining:
                continue
            if shard.pending_ping is not None:
                token, sent = shard.pending_ping
                if now - sent >= self._cfg.heartbeat_timeout:
                    self._condemn(
                        shard,
                        f"no pong for ping {token} within "
                        f"{self._cfg.heartbeat_timeout}s",
                    )
                continue
            if now - shard.last_pong >= self._cfg.heartbeat_interval:
                token = self._next_token
                self._next_token += 1
                shard.pending_ping = (token, now)
                try:
                    shard.work.put(wire.check_wire(wire.ping(token)))
                    self._server.metrics.counter("supervisor.pings").inc()
                except (OSError, ValueError):  # pragma: no cover - torn down
                    pass

    def _check_flights(self, now: float) -> None:
        for flight in list(self._server._inflight.values()):
            if now - flight.dispatched_at < self._cfg.flight_timeout:
                continue
            shard = self._server._shards[flight.shard]
            if shard.alive:
                self._condemn(
                    shard,
                    f"batch seq {flight.seq} unanswered for "
                    f"{self._cfg.flight_timeout}s (wedged worker or lost "
                    f"completion)",
                )

    def _condemn(self, shard, reason: str) -> None:
        """Declare a live-but-unresponsive shard dead and recycle it."""
        server = self._server
        server.metrics.counter("shards.wedged").inc()
        record_incident(
            "shard-wedged", "serve.supervisor",
            f"shard {shard.id} (pid {shard.process.pid}) condemned: {reason}; "
            f"terminating and re-dispatching its flights",
        )
        try:
            shard.process.terminate()
        except Exception:  # pragma: no cover - already gone
            pass
        server._death_reported.add(shard.id)
        # Runs the normal death path on this same loop iteration: flights
        # re-dispatched to survivors, arenas of the corpse unlinked.
        server._on_shard_death(shard.id)

    # -- respawn with backoff & circuit breaker ------------------------------
    def _respawn_dead(self, now: float) -> None:
        cfg = self._cfg
        for shard in self._server._shards:
            if (
                shard.alive or shard.retired or shard.quarantined
                or shard.respawn_pending
            ):
                continue
            while shard.restarts and now - shard.restarts[0] > cfg.restart_window:
                shard.restarts.popleft()
            recent = len(shard.restarts)
            if recent >= cfg.max_restarts:
                self._server._quarantine(shard.id, recent)
                continue
            delay = min(cfg.backoff_max, cfg.backoff_base * (2 ** recent))
            shard.respawn_pending = True
            task = self._server._loop.create_task(
                self._respawn_later(shard.id, delay)
            )
            self._respawn_tasks.add(task)
            task.add_done_callback(self._respawn_tasks.discard)

    async def _respawn_later(self, shard_id: int, delay: float) -> None:
        try:
            await asyncio.sleep(delay)
            self._server._respawn(shard_id)
        finally:
            # On the old record if the respawn was skipped, on the new one
            # (which starts False) if it happened — either way the id is
            # eligible for supervision again.
            self._server._shards[shard_id].respawn_pending = False

    # -- autoscaling ---------------------------------------------------------
    def sample_pressure(self) -> float:
        """Fleet pressure now: backlog units per live, non-draining shard.

        In-flight work is each shard's analytic backlog; queued work is
        priced as the batches it will become (``placement_units`` per full
        batch, times the number of batches the queue holds).
        """
        server = self._server
        cfg = self._cfg
        live = sum(
            1 for s in server._shards if s.alive and not s.draining
        )
        inflight = sum(s.backlog for s in server._shards if s.alive)
        queued = 0.0
        for q in server._queues.values():
            depth = len(q.requests)
            if not depth:
                continue
            batches = -(-depth // cfg.max_batch)
            queued += batches * placement_units(
                q.program.trace_length, min(depth, cfg.max_batch),
                cfg.warp, cfg.latency, speedup=cfg.lane_speedup(),
            )
        return (inflight + queued) / max(1, live)

    def evaluate_scaling(self, sample: float) -> int:
        """Fold one pressure sample in and act on the p95 decision.

        Returns the :func:`plan_scaling` decision that was acted on
        (``+1`` spawned a shard, ``-1`` started a drain, ``0`` held) —
        the handle the deterministic autoscaling tests drive directly.
        """
        cfg = self._cfg
        server = self._server
        if cfg.shard_floor() == cfg.shard_ceiling():
            return 0
        if not server._queues:
            return 0   # nothing served yet: no trace length to price with
        self._samples.append(sample)
        trace_length = max(
            s.program.trace_length for s in server._queues.values()
        )
        up, down = autoscale_thresholds(
            trace_length, cfg.max_batch, cfg.warp, cfg.latency,
            speedup=cfg.lane_speedup(),
            up_factor=cfg.scale_up_factor,
            down_factor=cfg.scale_down_factor,
        )
        live = sum(1 for s in server._shards if s.alive and not s.draining)
        decision = plan_scaling(
            p95(self._samples), live,
            cfg.shard_floor(), cfg.shard_ceiling(), up, down,
        )
        if decision > 0:
            server._scale_up()
        elif decision < 0:
            self._start_drain()
        return decision

    def _start_drain(self) -> None:
        """Mark the idlest shard draining (newest id breaks ties)."""
        candidates = [
            s for s in self._server._shards if s.alive and not s.draining
        ]
        if not candidates:  # pragma: no cover - plan_scaling guards live>min
            return
        victim = min(candidates, key=lambda s: (s.backlog, -s.id))
        victim.draining = True
        self._server.metrics.counter("shards.scale_downs").inc()

    def _retire_drained(self) -> None:
        server = self._server
        inflight_by_shard: List[int] = [
            flight.shard for flight in server._inflight.values()
        ]
        for shard in server._shards:
            if not (shard.alive and shard.draining):
                continue
            if shard.id in inflight_by_shard:
                continue
            server._retire(shard.id)
