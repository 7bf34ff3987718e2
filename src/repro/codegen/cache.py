"""Content-addressed, self-healing on-disk cache for compiled kernels.

Compiling the bulk kernel of a large program (e.g. Algorithm OPT at n = 32,
~26k straight-line instructions) takes the C compiler a minute or more —
far longer than every run it will ever serve.  Since the emitted source is
a pure function of the program and the kernel shape, the build is perfectly
memoisable: the cache key is the SHA-256 of the *source text plus the exact
compiler flags*, so any change to either lands on a different key and stale
artefacts are impossible by construction.

Layout: one ``<key>.so`` per entry under :func:`cache_dir` (default
``~/.cache/repro/codegen``, override with ``REPRO_CACHE_DIR``).  Population
is concurrency-safe without locks: each producer compiles to a unique
temporary file in the cache directory and publishes it with an atomic
``os.replace`` — racing processes simply overwrite each other with an
identical artefact.

Reliability (see docs/MODEL.md, "Reliability"):

* **Corruption healing** — every hit validates the entry (non-empty +
  shared-object magic bytes); a truncated or mangled ``.so`` is evicted and
  recompiled transparently, with an incident recorded.
* **Bounded retries with exponential backoff** — transient compiler
  failures are retried up to ``REPRO_COMPILE_RETRIES`` times (default 2),
  sleeping ``REPRO_COMPILE_BACKOFF · 2^attempt`` seconds between attempts.
* **Compiler timeout** — the subprocess is killed after
  ``REPRO_COMPILE_TIMEOUT`` seconds (default 600) and raises
  :class:`~repro.errors.CompileTimeoutError` instead of hanging the host.
* **Quarantine** — keys the guard has condemned fail fast with
  :class:`~repro.errors.BackendError` rather than reloading a kernel known
  to produce wrong answers.
* **Size cap** — with ``REPRO_CACHE_MAX_BYTES`` set, the least recently
  used entries (mtime; hits refresh it) are evicted after each population
  until the directory fits the budget.

``cache_stats()`` exposes process-level hit/miss/heal/evict counters plus
the on-disk entry count and byte total; ``clear_cache()`` empties the
directory (the CLI surfaces both as ``repro codegen-cache --stats|--clear``).
"""

from __future__ import annotations

import hashlib
import os
import struct
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from ..errors import (
    BackendError,
    CompileError,
    CompileTimeoutError,
)
from ..reliability import faults
from ..reliability.incidents import record_incident
from ..reliability.quarantine import is_quarantined, quarantine_reason

__all__ = [
    "cache_dir",
    "cache_key",
    "cached_library",
    "cache_stats",
    "clear_cache",
    "evict_entry",
    "CacheStats",
]

_ENV_VAR = "REPRO_CACHE_DIR"
_ENV_TIMEOUT = "REPRO_COMPILE_TIMEOUT"
_ENV_RETRIES = "REPRO_COMPILE_RETRIES"
_ENV_BACKOFF = "REPRO_COMPILE_BACKOFF"
_ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

#: Leading magic bytes of every shared-object format a host compiler can
#: plausibly hand us (ELF, Mach-O 64/fat, PE).  Anything else in a ``.so``
#: slot is corruption.
_SO_MAGICS = (b"\x7fELF", b"\xcf\xfa\xed\xfe", b"\xca\xfe\xba\xbe", b"MZ")

# Process-level counters: how often cached_library() was served from disk
# vs had to invoke the compiler, plus reliability events.
_hits = 0
_misses = 0
_corruptions_healed = 0
_lru_evictions = 0
_compile_retries = 0


def cache_dir() -> Path:
    """The cache directory (``$REPRO_CACHE_DIR`` or ``~/.cache/repro/codegen``)."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "codegen"


def cache_key(source: str, flags: Sequence[str]) -> str:
    """SHA-256 over the compiler flags and the full source text."""
    h = hashlib.sha256()
    h.update("\x1f".join(flags).encode())
    h.update(b"\x00")
    h.update(source.encode())
    return h.hexdigest()


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def compile_timeout() -> Optional[float]:
    """Seconds before the compiler subprocess is killed (0/negative = none)."""
    t = _env_float(_ENV_TIMEOUT, 600.0)
    return t if t > 0 else None


def _valid_library(path: Path) -> bool:
    """Does ``path`` look like a loadable shared object?

    This check must run *before* ``ctypes.CDLL``: ``dlopen`` maps the file
    and a truncated ELF can take the process down with SIGBUS on first
    access — not an exception anything can catch.  Two layers, both cheap
    enough for every hit:

    * magic bytes (catches zero-length files and text in the slot);
    * for ELF, the section-header table — which the linker writes at the
      *end* of the file — must lie entirely within the file, so any
      truncation is visible from the 64-byte header alone.
    """
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            head = fh.read(64)
    except OSError:
        return False
    if len(head) < 4 or not any(head.startswith(m) for m in _SO_MAGICS):
        return False
    if head.startswith(b"\x7fELF"):
        if len(head) < 52:
            return False
        endian = "<" if head[5] == 1 else ">"
        if head[4] == 2:  # ELFCLASS64
            if len(head) < 64:
                return False
            (e_shoff,) = struct.unpack_from(endian + "Q", head, 0x28)
            e_shentsize, e_shnum = struct.unpack_from(endian + "2H", head, 0x3A)
        else:  # ELFCLASS32
            (e_shoff,) = struct.unpack_from(endian + "I", head, 0x20)
            e_shentsize, e_shnum = struct.unpack_from(endian + "2H", head, 0x2E)
        if e_shoff + e_shentsize * e_shnum > size:
            return False
    return True


def evict_entry(key: str) -> bool:
    """Remove one cache entry by key; True if a file was deleted."""
    path = cache_dir() / f"{key}.so"
    try:
        path.unlink()
        return True
    except OSError:
        return False


def _invoke_compiler(
    cmd: Sequence[str], key: str, timeout: Optional[float]
) -> None:
    """Run one compiler attempt, translating failures to typed errors."""
    rule = faults.fire("codegen.compile")
    if rule is not None:
        if rule.kind == "raise":
            exc = rule.exception()
            if isinstance(exc, BackendError) and exc.key is None:
                exc.key = key
            raise exc
        if rule.kind == "slow":
            # Make the *subprocess* slow (not this process), so the timeout
            # machinery is exercised exactly as a hung compiler would.
            cmd = ["sh", "-c", f'sleep {rule.seconds}; exec "$@"', "sh", *cmd]
    try:
        proc = subprocess.run(
            list(cmd), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise CompileTimeoutError(
            f"C compiler exceeded {timeout:.0f}s "
            f"(${_ENV_TIMEOUT} to change): {' '.join(cmd[:4])}…",
            key=key,
        )
    if proc.returncode != 0:
        raise CompileError(
            f"C compilation failed ({' '.join(cmd)}):\n{proc.stderr[-2000:]}",
            key=key,
        )


def cached_library(source: str, flags: Sequence[str], cc: str) -> Path:
    """Path to the compiled shared object for ``source``; compiles on miss.

    ``flags`` is the complete compiler invocation between ``cc`` and the
    input/output paths.  On a valid hit no compiler runs at all; an invalid
    (corrupt) hit is evicted and recompiled.  Raises
    :class:`~repro.errors.BackendError` for quarantined keys,
    :class:`~repro.errors.CompileError` /
    :class:`~repro.errors.CompileTimeoutError` when every attempt fails —
    all carrying ``.key``.
    """
    global _hits, _misses, _corruptions_healed, _compile_retries
    directory = cache_dir()
    key = cache_key(source, flags)
    path = directory / f"{key}.so"
    if is_quarantined(key):
        raise BackendError(
            f"kernel {key[:12]}… is quarantined in this process "
            f"({quarantine_reason(key)}); refusing to load it",
            key=key,
        )
    if path.is_file():
        if _valid_library(path):
            _hits += 1
            try:
                os.utime(path)  # refresh LRU recency
            except OSError:  # pragma: no cover - raced deletion
                pass
            return path
        # Self-heal: evict the corrupt artefact and fall through to compile.
        _corruptions_healed += 1
        record_incident(
            "cache-corruption",
            "codegen.cache",
            f"corrupt cache entry evicted and recompiled ({path.name})",
            key=key,
        )
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced deletion
            pass
    _misses += 1
    directory.mkdir(parents=True, exist_ok=True)
    retries = max(0, _env_int(_ENV_RETRIES, 2))
    backoff = max(0.0, _env_float(_ENV_BACKOFF, 0.1))
    timeout = compile_timeout()
    last_error: Optional[CompileError] = None
    for attempt in range(1 + retries):
        if attempt:
            _compile_retries += 1
            record_incident(
                "compile-retry",
                "codegen.compile",
                f"attempt {attempt + 1}/{1 + retries} after: {last_error}",
                key=key,
            )
            time.sleep(backoff * (2 ** (attempt - 1)))
        src_fd, src_name = tempfile.mkstemp(suffix=".c", dir=directory)
        tmp_fd, tmp_name = tempfile.mkstemp(suffix=".so.tmp", dir=directory)
        os.close(tmp_fd)
        try:
            with os.fdopen(src_fd, "w") as fh:
                fh.write(source)
            cmd = [cc, *flags, src_name, "-o", tmp_name, "-lm"]
            try:
                _invoke_compiler(cmd, key, timeout)
            except CompileError as exc:
                last_error = exc
                continue
            # Atomic publish: concurrent writers race benignly (same bytes).
            os.replace(tmp_name, path)
        finally:
            for leftover in (src_name, tmp_name):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
        rule = faults.fire("codegen.cache.publish")
        if rule is not None and rule.kind == "corrupt":
            # Chaos hook: truncate the freshly published entry, as a torn
            # write / full disk would.
            with open(path, "wb") as fh:
                fh.write(b"\x00" * 16)
        _enforce_size_cap(directory, keep=path)
        return path
    assert last_error is not None
    raise last_error


def _enforce_size_cap(directory: Path, *, keep: Path) -> None:
    """Evict least-recently-used entries until the cap is respected.

    ``keep`` (the entry just published) is never evicted — a cache smaller
    than its hottest artefact must still serve it.
    """
    global _lru_evictions
    cap = _env_int(_ENV_MAX_BYTES, 0)
    if cap <= 0:
        return
    entries = []
    total = 0
    for entry in directory.glob("*.so"):
        try:
            st = entry.stat()
        except OSError:  # pragma: no cover - raced deletion
            continue
        entries.append((st.st_mtime, st.st_size, entry))
        total += st.st_size
    entries.sort()  # oldest mtime first = least recently used
    for _, size, entry in entries:
        if total <= cap:
            break
        if entry == keep:
            continue
        try:
            entry.unlink()
        except OSError:  # pragma: no cover - raced deletion
            continue
        total -= size
        _lru_evictions += 1


@dataclass(frozen=True)
class CacheStats:
    """Observability snapshot of the compilation cache."""

    hits: int  # this process: servings that skipped the compiler
    misses: int  # this process: compiler invocations
    entries: int  # on disk, shared across processes
    size_bytes: int  # total size of the cached shared objects
    corruptions_healed: int = 0  # corrupt entries evicted + recompiled
    lru_evictions: int = 0  # entries dropped by the size cap
    compile_retries: int = 0  # extra compiler attempts after failures
    max_bytes: int = 0  # configured size cap (0 = uncapped)

    def as_dict(self) -> "dict[str, int]":
        """Counters as a deterministically ordered (sorted-key) mapping.

        The CLI renders this one ``key: value`` per line, so
        ``repro codegen-cache --stats`` is diff-stable across runs, Python
        versions and platforms — CI and docs can assert on it verbatim.
        A new counter slots into the same alphabetical order rather than
        appending, so the rendering stays sorted whatever is added.
        """
        return {
            "compile_retries": self.compile_retries,
            "corruptions_healed": self.corruptions_healed,
            "entries": self.entries,
            "hits": self.hits,
            "lru_evictions": self.lru_evictions,
            "max_bytes": self.max_bytes,
            "misses": self.misses,
            "size_bytes": self.size_bytes,
        }

    def describe(self) -> str:
        cap = f", cap {self.max_bytes:,} bytes" if self.max_bytes else ""
        healed = (
            f"; healed {self.corruptions_healed} corrupt, evicted "
            f"{self.lru_evictions} LRU, retried {self.compile_retries} builds"
            if (self.corruptions_healed or self.lru_evictions or self.compile_retries)
            else ""
        )
        return (
            f"{self.hits} hits / {self.misses} misses this process; "
            f"{self.entries} entries, {self.size_bytes:,} bytes on disk{cap} "
            f"({cache_dir()}){healed}"
        )


def cache_stats() -> CacheStats:
    """Hit/miss/heal/evict counters plus the on-disk entry count and size."""
    entries = 0
    size = 0
    directory = cache_dir()
    if directory.is_dir():
        for entry in directory.glob("*.so"):
            try:
                size += entry.stat().st_size
                entries += 1
            except OSError:  # pragma: no cover - raced deletion
                pass
    return CacheStats(
        hits=_hits,
        misses=_misses,
        entries=entries,
        size_bytes=size,
        corruptions_healed=_corruptions_healed,
        lru_evictions=_lru_evictions,
        compile_retries=_compile_retries,
        max_bytes=max(0, _env_int(_ENV_MAX_BYTES, 0)),
    )


def clear_cache() -> int:
    """Delete all cached shared objects; returns how many were removed."""
    removed = 0
    directory = cache_dir()
    if directory.is_dir():
        for entry in directory.glob("*.so"):
            try:
                entry.unlink()
                removed += 1
            except OSError:  # pragma: no cover - raced deletion
                pass
    return removed
