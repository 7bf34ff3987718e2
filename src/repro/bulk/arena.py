"""Persistent, aligned buffer arena for the bulk engine.

The native hot path wants two things NumPy's default allocator does not
give it:

* **64-byte alignment** — ``np.zeros`` returns 16-byte-aligned blocks, so
  on an AVX-512 host every 64-byte vector load of the bulk buffer splits a
  cache line; aligning the buffer start to the line width removed a third
  of the flagship kernel's execute time on its own.
* **persistence across executor lifetimes** — the serving tier and the
  benchmark harness build a fresh :class:`~repro.bulk.engine.BulkExecutor`
  per ``(workload, n, p)`` stream, and the flagship buffer is 100+ MiB;
  reallocating (and page-faulting in) that arena per executor is pure
  churn.  Closed executors return their buffer here; the next executor
  with the same geometry reuses it.

Buffers are pooled by exact geometry ``(words, lanes, dtype)``, zeroed
on acquisition so a recycled
buffer is indistinguishable from a fresh one, and capped in total pooled
bytes by ``REPRO_ARENA_MAX_BYTES`` (default 512 MiB; ``0`` disables
pooling entirely while keeping the aligned allocation).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

__all__ = [
    "ALIGN",
    "ArenaStats",
    "acquire",
    "release",
    "arena_stats",
    "clear_arena",
    "aligned_zeros",
]

#: Buffer start alignment, in bytes — one x86 cache line / AVX-512 vector.
ALIGN = 64

_ENV_MAX_BYTES = "REPRO_ARENA_MAX_BYTES"
_DEFAULT_MAX_BYTES = 512 * 1024 * 1024

_lock = threading.Lock()
_pool: Dict[tuple, List[np.ndarray]] = {}
_pooled_bytes = 0
_hits = 0
_misses = 0
_returned = 0
_dropped = 0


def _max_bytes() -> int:
    raw = os.environ.get(_ENV_MAX_BYTES)
    if raw is None:
        return _DEFAULT_MAX_BYTES
    try:
        return max(0, int(raw))
    except ValueError:
        return _DEFAULT_MAX_BYTES


def aligned_zeros(words: int, lanes: int, dtype) -> np.ndarray:
    """A fresh zeroed ``(words, lanes)`` buffer aligned to :data:`ALIGN`.

    Implemented as a view into a slightly oversized allocation; the view
    keeps the backing block alive through ``.base``, and is C-contiguous —
    exactly what the native kernel's buffer check demands.
    """
    dtype = np.dtype(dtype)
    count = int(words) * int(lanes)
    slack = -(-ALIGN // dtype.itemsize)  # elements spanning one alignment unit
    raw = np.zeros(count + slack, dtype=dtype)
    offset = (-raw.ctypes.data % ALIGN) // dtype.itemsize
    return raw[offset : offset + count].reshape(int(words), int(lanes))


def _key(words: int, lanes: int, dtype) -> tuple:
    return (int(words), int(lanes), np.dtype(dtype).str)


def acquire(words: int, lanes: int, dtype) -> np.ndarray:
    """A zeroed, aligned ``(words, lanes)`` buffer — pooled when possible."""
    global _pooled_bytes, _hits, _misses
    key = _key(words, lanes, dtype)
    with _lock:
        stack = _pool.get(key)
        if stack:
            buf = stack.pop()
            _pooled_bytes -= buf.nbytes
            _hits += 1
            buf[...] = 0
            return buf
        _misses += 1
    return aligned_zeros(words, lanes, dtype)


def release(buffer: np.ndarray) -> None:
    """Return ``buffer`` to the pool (drops it when over the byte cap).

    Callers hand back ownership: after release the buffer may be zeroed
    and reused by any later :func:`acquire` of the same geometry, so no
    live view of it may escape the releasing owner.
    """
    global _pooled_bytes, _returned, _dropped
    if buffer is None or buffer.ndim != 2:
        return
    cap = _max_bytes()
    with _lock:
        if _pooled_bytes + buffer.nbytes > cap:
            _dropped += 1
            return
        key = _key(buffer.shape[0], buffer.shape[1], buffer.dtype)
        _pool.setdefault(key, []).append(buffer)
        _pooled_bytes += buffer.nbytes
        _returned += 1


@dataclass(frozen=True)
class ArenaStats:
    """Observability snapshot of the buffer arena."""

    hits: int  # acquisitions served from the pool
    misses: int  # acquisitions that allocated fresh
    returned: int  # buffers accepted back into the pool
    dropped: int  # buffers refused at release (over the byte cap)
    pooled_buffers: int  # buffers currently idle in the pool
    pooled_bytes: int  # their total size
    max_bytes: int  # configured pool cap

    def as_dict(self) -> "dict[str, int]":
        """Deterministically ordered counters (CLI / test rendering)."""
        return {
            "dropped": self.dropped,
            "hits": self.hits,
            "max_bytes": self.max_bytes,
            "misses": self.misses,
            "pooled_buffers": self.pooled_buffers,
            "pooled_bytes": self.pooled_bytes,
            "returned": self.returned,
        }


def arena_stats() -> ArenaStats:
    """Hit/miss/return counters plus the pool's current occupancy."""
    with _lock:
        return ArenaStats(
            hits=_hits,
            misses=_misses,
            returned=_returned,
            dropped=_dropped,
            pooled_buffers=sum(len(v) for v in _pool.values()),
            pooled_bytes=_pooled_bytes,
            max_bytes=_max_bytes(),
        )


def clear_arena() -> int:
    """Drop every pooled buffer; returns how many were released."""
    global _pooled_bytes
    with _lock:
        count = sum(len(v) for v in _pool.values())
        _pool.clear()
        _pooled_bytes = 0
    return count
