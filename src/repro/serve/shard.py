"""The shard worker process — one replicated bulk-execution engine.

:func:`shard_main` is the target of every worker ``Process`` the sharded
router spawns.  Each shard is a full replica of the execution stack: it
builds its *own* programs (from the registry or from a shipped IR
document), its own guarded :class:`~repro.bulk.engine.BulkExecutor` pool
keyed by ``(queue key, lanes)``, and its own
:class:`~repro.serve.policy.AdaptivePolicy` for pricing the batches it
runs — so a poisoned native kernel degrades *one shard* to NumPy while its
siblings keep their compiled paths, and any batch produces bit-identical
output on any shard (which is what licenses the router's free re-dispatch
on shard death).

The loop speaks only :mod:`repro.serve.wire` descriptors; payloads come and
go through the :class:`~repro.serve.shm.SlotArena` slots those descriptors
name.  Batch execution lands directly in the slot's output block via
:meth:`~repro.bulk.engine.BulkExecutor.run_trimmed_into` — the worker never
materialises a private copy of either block.

Failure containment, in increasing severity:

* an executor failure (:class:`~repro.errors.ReproError`) fails that batch
  with an ``error`` message and the worker keeps serving;
* any other exception sends a best-effort ``fatal`` and re-raises;
* a chaos ``fault_spec`` arms one of the serving layer's failure modes at a
  chosen batch index: ``kill`` hard-kills the process with ``os._exit`` (no
  message, no cleanup — the death the router's wait on the process
  sentinel must catch alone), ``wedge`` stalls it effectively forever
  (alive but deaf — the supervisor's heartbeat must catch it), ``stall``
  delays it briefly (so a deadline can expire in flight), ``deaf`` swallows heartbeat pongs while
  work continues, ``corrupt`` flips a byte of a slot's outputs *after*
  checksumming, and ``drop`` loses one ``done`` completion on the floor.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional, Tuple

import numpy as np

from ..algorithms.registry import get_spec
from ..bulk.engine import BulkExecutor
from ..errors import ReproError, ShardError
from ..reliability import faults
from ..trace.ir import Program
from ..trace.serialize import program_from_dict
from . import wire
from .policy import AdaptivePolicy
from .server import ServeConfig, column_executor
from .shm import SlotArena

__all__ = ["shard_main", "build_program", "FAULT_KINDS"]

#: Exit status of a chaos-killed worker (mirrors a SIGSEGV death).
KILL_EXIT_STATUS = 139

#: Chaos fault kinds a ``fault_spec`` may arm (see :func:`_install_fault`).
FAULT_KINDS = ("kill", "wedge", "stall", "deaf", "corrupt", "drop")

#: A ``wedge`` is a stall long enough that no sane heartbeat or flight
#: timeout outlasts it — the worker is alive (so its process sentinel
#: stays silent) but will never answer again without supervisor
#: intervention.
WEDGE_SECONDS = 3600.0

#: A ``stall`` delays one batch just long enough for a short request
#: deadline to expire while the descriptor is in flight.
STALL_SECONDS = 0.25


def build_program(source: str, payload: str, n: int) -> Program:
    """Materialise the program an ``open`` descriptor names.

    ``("registry", name, n)`` builds from the algorithm registry —
    replicating the build instead of pickling the program keeps the open
    message tiny.  ``("ir", json_doc, _)`` revives a custom program from
    its serialised IR (shipped once per (shard, key), never per request).
    """
    if source == "registry":
        return get_spec(payload).build(n)
    if source == "ir":
        return program_from_dict(json.loads(payload))
    raise ShardError(f"unknown program source {source!r} in open descriptor")


def _install_fault(fault_spec: Optional[Tuple[str, int]]) -> None:
    """Arm this worker's deterministic chaos plan (primitive-tuple spec).

    ``(kind, after)`` plants one rule, riding the same FaultPlan machinery
    as every other injected failure:

    ``kill``
        ``raise`` rule on :data:`~repro.serve.wire.SITE_SHARD_BATCH` —
        hard-kill the process at batch index ``after``.
    ``wedge`` / ``stall``
        ``slow`` rule on the same site (:data:`WEDGE_SECONDS` /
        :data:`STALL_SECONDS`) — a worker that hangs forever / lags once.
    ``deaf``
        rule on :data:`~repro.serve.wire.SITE_SHARD_PONG` for every ping
        from index ``after`` on — heartbeat loss without a wedge.
    ``corrupt``
        ``corrupt`` rule on :data:`~repro.serve.wire.SITE_SLOT_OUTPUT` —
        flip a byte of one batch's outputs after checksumming.
    ``drop``
        rule on :data:`~repro.serve.wire.SITE_WIRE_DONE` — swallow one
        ``done`` completion.
    """
    if fault_spec is None:
        return
    kind, after = fault_spec
    after = int(after)
    plan = faults.FaultPlan()
    if kind == "kill":
        plan.fail(wire.SITE_SHARD_BATCH, times=1, after=after)
    elif kind == "wedge":
        plan.slow(wire.SITE_SHARD_BATCH, WEDGE_SECONDS, times=1, after=after)
    elif kind == "stall":
        plan.slow(wire.SITE_SHARD_BATCH, STALL_SECONDS, times=1, after=after)
    elif kind == "deaf":
        plan.fail(wire.SITE_SHARD_PONG, times=None, after=after)
    elif kind == "corrupt":
        plan.corrupt(wire.SITE_SLOT_OUTPUT, times=1, after=after)
    elif kind == "drop":
        plan.fail(wire.SITE_WIRE_DONE, times=1, after=after)
    else:
        raise ShardError(f"unknown shard fault kind {kind!r}")
    faults.install_plan(plan)


def shard_main(
    shard_id: int,
    work_queue,
    done,
    *,
    backend: str = "numpy",
    guard: Optional[str] = None,
    warp: int = 32,
    latency: int = 100,
    native_tile: Optional[int] = None,
    native_threads: Optional[int] = None,
    untrack_shm: bool = False,
    fault_spec: Optional[Tuple[str, int]] = None,
) -> None:
    """Worker entry point: drain ``work_queue`` until ``stop``.

    Every message back to the router goes down ``done``, the write end of
    this worker's own completion pipe.  The other parameters are
    primitives so the entry point is start-method agnostic (``fork`` and
    ``spawn`` both work).  ``warp``/``latency`` shape this shard's
    replicated :class:`AdaptivePolicy`, whose per-batch price rides back
    to the router in every ``done`` message;
    ``native_tile``/``native_threads`` are this shard's native-kernel
    budget (every shard runs the same budget, so outputs stay replica-
    identical, and the policy prices with the matching lane speedup).
    ``untrack_shm`` is the resource-tracker workaround toggle — see
    :meth:`SlotArena.attach`; the router leaves it off and instead
    guarantees its own tracker is running before workers launch, so every
    worker shares it.

    Autofix promotions flow in through the inherited
    ``REPRO_AUTOFIX_PROMOTIONS`` environment variable (see
    ``docs/AUTOFIX.md``): the promotion store is preloaded *here*, at
    startup, so a malformed promotion file fails the worker where the
    supervisor can see it rather than inside the first batch — and every
    executor this shard builds then resolves against the same promotion
    set, keeping outputs replica-identical across the fleet.
    """
    _install_fault(fault_spec)
    from ..autofix.store import promotion_store

    promotion_store().preload()
    config = ServeConfig(
        backend=backend, guard=guard, warp=warp, latency=latency,
        native_tile=native_tile, native_threads=native_threads,
    )
    policy = AdaptivePolicy(w=warp, l=latency, speedup=config.lane_speedup())
    programs: Dict[str, Program] = {}
    arenas: Dict[str, SlotArena] = {}
    executors: Dict[str, Dict[int, BulkExecutor]] = {}
    done.send(wire.check_wire(wire.ready(shard_id, os.getpid())))
    try:
        while True:
            msg = wire.check_wire(work_queue.get())
            kind = msg[0]
            if kind == wire.MSG_STOP:
                break
            if kind == wire.MSG_OPEN:
                _, key, source, payload, n, shm_name, slots, max_batch, words, dtype = msg
                if key not in programs:
                    programs[key] = build_program(source, payload, n)
                    executors[key] = {}
                    arenas[key] = SlotArena.attach(
                        shm_name, slots, max_batch, words, np.dtype(dtype),
                        untrack=untrack_shm,
                        out_words=programs[key].output_words,
                    )
                continue
            if kind == wire.MSG_PING:
                _, token = msg
                if faults.fire(wire.SITE_SHARD_PONG) is None:
                    done.send(wire.check_wire(wire.pong(shard_id, token)))
                continue
            if kind != wire.MSG_BATCH:
                raise ShardError(f"shard received unexpected {kind!r} message")
            _, seq, key, slot, lanes, occupancy, width, deadline = msg
            rule = faults.fire(wire.SITE_SHARD_BATCH)
            if rule is not None:
                if rule.kind == "raise":
                    # Chaos: die the way real workers die — no farewell
                    # message, no cleanup; the router's wait on the
                    # process sentinel (or the supervisor's heartbeat)
                    # must notice alone.
                    os._exit(KILL_EXIT_STATUS)
                if rule.kind == "slow":
                    time.sleep(rule.seconds)
            if deadline >= 0.0 and time.monotonic() >= deadline:
                # Nobody is waiting for this work any more — answer
                # ``expired`` so the router can free the slot and fail the
                # requests, instead of burning executor time.
                done.send(wire.check_wire(wire.expired(shard_id, seq, slot)))
                continue
            try:
                program = programs[key]
                arena = arenas[key]
                executor = column_executor(executors[key], program, lanes, config)
                started = time.perf_counter()
                executor.run_trimmed_into(
                    arena.input_view(slot, occupancy, width),
                    arena.output_view(slot, occupancy),
                )
                elapsed = time.perf_counter() - started
                checksum = arena.output_checksum(slot, occupancy)
                corrupt_rule = faults.fire(wire.SITE_SLOT_OUTPUT)
                if corrupt_rule is not None and corrupt_rule.kind == "corrupt":
                    # Damage the shared bytes *after* checksumming, so the
                    # router's verification is what must catch it.
                    raw = arena.output_view(slot, occupancy).view(np.uint8)
                    raw.reshape(-1)[0] ^= 0xFF
                completion = wire.check_wire(wire.done(
                    shard_id, seq, slot, elapsed, executor.backend,
                    policy.predicted_units(program.trace_length, lanes),
                    checksum,
                ))
                if faults.fire(wire.SITE_WIRE_DONE) is None:
                    done.send(completion)
            except ReproError as exc:
                done.send(wire.check_wire(wire.error(
                    shard_id, seq, slot, f"{type(exc).__name__}: {exc}"
                )))
    except (KeyboardInterrupt, EOFError):  # pragma: no cover - teardown races
        pass
    except BaseException as exc:
        try:
            done.send(wire.fatal(shard_id, f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - pipe already torn down
            pass
        raise
    finally:
        for cache in executors.values():
            for executor in cache.values():
                executor.close()
        for arena in arenas.values():
            arena.close()
        done.close()
        faults.clear_plan()
