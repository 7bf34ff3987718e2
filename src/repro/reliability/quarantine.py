"""Quarantine registry for misbehaving compiled kernels.

When the guard catches a native kernel producing outputs that differ from
the IR replay — or the kernel fails to load or crashes — retrying the
same cache key is worse than useless: the artefact is deterministically
bad.  Quarantining the key makes every later lookup fail fast with a
:class:`~repro.errors.BackendError`, which the guarded/auto paths turn into
a clean NumPy fallback instead of a recompile-crash loop.

The registry is process-level (a dict, not a file): a quarantine is a
*runtime* judgment about this host's toolchain and should be re-evaluated
by a fresh process.  Persistent badness is handled one layer down by the
self-healing cache, which physically evicts corrupt entries.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

__all__ = [
    "quarantine_key",
    "is_quarantined",
    "quarantine_reason",
    "quarantined_keys",
    "clear_quarantine",
]

_QUARANTINED: Dict[str, str] = {}
_LOCK = threading.Lock()


def quarantine_key(key: Optional[str], reason: str) -> bool:
    """Quarantine ``key`` (no-op on ``None``); True if newly added."""
    if key is None:
        return False
    with _LOCK:
        fresh = key not in _QUARANTINED
        _QUARANTINED[key] = reason
    return fresh


def is_quarantined(key: Optional[str]) -> bool:
    """Is ``key`` currently quarantined in this process?"""
    if key is None:
        return False
    with _LOCK:
        return key in _QUARANTINED


def quarantine_reason(key: str) -> Optional[str]:
    """Why ``key`` was quarantined (``None`` when it is not)."""
    with _LOCK:
        return _QUARANTINED.get(key)


def quarantined_keys() -> Dict[str, str]:
    """Snapshot ``{key: reason}`` of the current quarantine set."""
    with _LOCK:
        return dict(_QUARANTINED)


def clear_quarantine() -> int:
    """Release every key (tests / operator reset); returns the count."""
    with _LOCK:
        n = len(_QUARANTINED)
        _QUARANTINED.clear()
    return n
