"""The router ↔ shard wire protocol: compact descriptors, never payloads.

Everything that crosses the process boundary is a flat tuple
of primitives — strings, ints, floats — small enough that its pickle cost
is independent of both the batch size and the problem size ``n``.  Request
data itself lives in :class:`~repro.serve.shm.SlotArena` segments; a
descriptor merely *names* the slot that holds it.  :func:`check_wire`
enforces the invariant (no ndarray, no bytes blob, no nesting beyond the
one tuple) and the test suite runs every message the tier emits through it.

Router → shard (per-shard work queue, FIFO — an ``open`` for a key always
precedes that key's first ``batch``):

``("open", key, source, payload, n, shm_name, slots, max_batch, words, dtype)``
    Adopt a queue key: build its program (``source`` is ``"registry"`` with
    ``payload`` = algorithm name, or ``"ir"`` with ``payload`` = the
    program's JSON document — custom programs ship *once*, not per
    request), then attach the named arena.
``("batch", seq, key, slot, lanes, occupancy, width, deadline)``
    Execute the ``occupancy`` rows of width ``width`` in slot ``slot`` as a
    ``lanes``-wide bulk run; write images back into the slot's output
    block.  ``deadline`` is the batch's earliest request deadline on the
    system-wide monotonic clock (``-1.0`` = none): a shard that receives
    the descriptor after it has passed must answer ``expired`` instead of
    burning executor time on work nobody is waiting for.
``("ping", token)``
    Heartbeat probe.  A healthy shard answers ``pong`` with the same token
    between batches; a wedged one cannot (the probe queues behind the stuck
    descriptor), which is exactly the detection signal the supervisor uses.
``("stop",)``
    Drain nothing further; exit the worker loop cleanly.

Shard → router (the shard's own one-way completion pipe):

``("ready", shard_id, pid)``        worker is attached and serving.
``("pong", shard_id, token)``       heartbeat answer (see ``ping``).
``("done", shard_id, seq, slot, elapsed, backend, units, checksum)``
    batch completed in ``elapsed`` seconds on ``backend``; ``units`` is the
    shard's own analytic price of the run and ``checksum`` the CRC32 of the
    slot's output block — the router recomputes it before trusting the
    shared-memory bytes, so silent slot corruption is detected, not served.
``("expired", shard_id, seq, slot)``  the batch's deadline had already
    passed when the shard picked it up; nothing was executed.
``("error", shard_id, seq, slot, message)``  batch failed (executor raised);
    the worker survives and keeps serving.
``("fatal", shard_id, message)``    worker is about to die of an unexpected
    exception (best effort — a killed process sends nothing at all; the
    router sees its process sentinel fire instead).
"""

from __future__ import annotations

from typing import Tuple

from ..errors import ShardError

__all__ = [
    "MSG_OPEN", "MSG_BATCH", "MSG_PING", "MSG_STOP",
    "MSG_READY", "MSG_PONG", "MSG_DONE", "MSG_EXPIRED", "MSG_ERROR",
    "MSG_FATAL",
    "SITE_SHARD_BATCH", "SITE_SHARD_PONG", "SITE_SLOT_OUTPUT",
    "SITE_WIRE_DONE",
    "open_key", "batch", "ping", "stop",
    "ready", "pong", "done", "expired", "error", "fatal",
    "check_wire",
]

MSG_OPEN = "open"
MSG_BATCH = "batch"
MSG_PING = "ping"
MSG_STOP = "stop"
MSG_READY = "ready"
MSG_PONG = "pong"
MSG_DONE = "done"
MSG_EXPIRED = "expired"
MSG_ERROR = "error"
MSG_FATAL = "fatal"

_KINDS = (
    MSG_OPEN, MSG_BATCH, MSG_PING, MSG_STOP,
    MSG_READY, MSG_PONG, MSG_DONE, MSG_EXPIRED, MSG_ERROR, MSG_FATAL,
)

#: Fault-injection site observed once per batch descriptor inside the shard
#: worker.  A ``raise`` rule hard-kills the worker mid-load (shard-death
#: chaos); a ``slow`` rule stalls it for its ``seconds`` — briefly for the
#: deadline-expiry scenario, effectively forever for the wedge scenario.
SITE_SHARD_BATCH = "serve.shard.batch"

#: Observed once per heartbeat ping; a firing rule makes the shard *skip*
#: the pong while continuing to serve (heartbeat loss without a wedge).
SITE_SHARD_PONG = "serve.shard.pong"

#: Observed after a batch's outputs and checksum are written; a ``corrupt``
#: rule flips a byte of the slot's output block *after* checksumming, so
#: the router's verification must catch the mismatch.
SITE_SLOT_OUTPUT = "serve.shm.output"

#: Observed before a ``done`` completion is sent; a firing rule drops the
#: message on the floor (control-channel loss) — the flight goes silent
#: and the supervisor's flight timeout must recover it.
SITE_WIRE_DONE = "serve.wire.done"

#: The only types a wire message may contain.
_PLAIN = (str, int, float, bool, type(None))


def open_key(
    key: str, source: str, payload: str, n: int, shm_name: str,
    slots: int, max_batch: int, words: int, dtype: str,
) -> Tuple:
    return (MSG_OPEN, key, source, payload, n, shm_name, slots, max_batch,
            words, dtype)


def batch(seq: int, key: str, slot: int, lanes: int, occupancy: int,
          width: int, deadline: float = -1.0) -> Tuple:
    return (MSG_BATCH, seq, key, slot, lanes, occupancy, width, deadline)


def ping(token: int) -> Tuple:
    return (MSG_PING, token)


def stop() -> Tuple:
    return (MSG_STOP,)


def ready(shard_id: int, pid: int) -> Tuple:
    return (MSG_READY, shard_id, pid)


def pong(shard_id: int, token: int) -> Tuple:
    return (MSG_PONG, shard_id, token)


def done(shard_id: int, seq: int, slot: int, elapsed: float,
         backend: str, units: float, checksum: int) -> Tuple:
    return (MSG_DONE, shard_id, seq, slot, elapsed, backend, units, checksum)


def expired(shard_id: int, seq: int, slot: int) -> Tuple:
    return (MSG_EXPIRED, shard_id, seq, slot)


def error(shard_id: int, seq: int, slot: int, message: str) -> Tuple:
    return (MSG_ERROR, shard_id, seq, slot, message)


def fatal(shard_id: int, message: str) -> Tuple:
    return (MSG_FATAL, shard_id, message)


def check_wire(msg: object) -> Tuple:
    """Assert ``msg`` is a legal wire message; return it.

    A legal message is one flat tuple whose first element is a known kind
    and whose every element is a primitive (str/int/float/bool/None).  In
    particular an ``ndarray`` — a request payload — can never pass, which
    is exactly the zero-copy property the tier promises.
    """
    if not isinstance(msg, tuple) or not msg:
        raise ShardError(f"wire message must be a non-empty tuple, got {type(msg).__name__}")
    kind = msg[0]
    if kind not in _KINDS:
        raise ShardError(f"unknown wire message kind {kind!r}")
    for index, value in enumerate(msg):
        # bool is an int subclass; the isinstance check covers both.
        if not isinstance(value, _PLAIN):
            raise ShardError(
                f"wire message field {index} of {kind!r} is a "
                f"{type(value).__name__}; only primitives may cross the "
                f"control queues (payloads ride shared memory)"
            )
    return msg
