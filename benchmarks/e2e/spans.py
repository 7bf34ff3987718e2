"""In-memory spans around the library's public entry points.

The benchmark times each layer from the outside: :class:`Tracer` replaces a
handful of public methods with wrappers that record a span per call and
restores the originals on :meth:`Tracer.uninstall`.  Nothing under ``src/``
knows it is being traced.  A span is the tuple::

    (id, name, start_ns, end_ns, parent_id, root_id, thread_ident, nbytes)

``parent_id`` is the enclosing span on the same thread (``0`` for a root),
``root_id`` the outermost one: the run or request the span belongs to.
``nbytes`` is the array size a pack/unpack span moved (``0`` elsewhere).
A ``BulkExecutor.run`` entered while another ``run`` is open on the same
thread is the spot guard's NumPy replay, recorded as
``reliability.guard_replay``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, int, int, int, int, int, int]

#: Span names whose direct time inside a primary ``bulk.run`` is reported.
RUN_CHILDREN = (
    "bulk.pack",
    "bulk.unpack",
    "bulk.fused_execute",
    "codegen.kernel",
    "reliability.guard_replay",
)


def _nbytes_of_arg(index: int) -> Callable:
    def size(args, result) -> int:
        return int(getattr(args[index], "nbytes", 0))

    return size


def _nbytes_of_result(args, result) -> int:
    return int(getattr(result, "nbytes", 0))


class Tracer:
    """Records spans while installed; thread-safe under the GIL."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------
    def targets(self) -> List[Tuple[object, str, str, Optional[Callable]]]:
        """``(owner, attribute, span name, size function)`` per wrapped call."""
        from repro.bulk.arrangement import Arrangement, ColumnWise
        from repro.bulk.engine import BulkExecutor
        from repro.bulk.fusion import FusedProgram
        from repro.codegen import compile as codegen_compile
        from repro.serve.router import ShardedServer
        from repro.serve.server import BulkServer
        from repro.serve.shm import SlotArena

        return [
            (BulkExecutor, "__init__", "bulk.init", None),
            (BulkExecutor, "run", "bulk.run", None),
            (BulkExecutor, "run_trimmed", "bulk.run_trimmed", None),
            (Arrangement, "load_inputs", "bulk.pack", _nbytes_of_arg(1)),
            (ColumnWise, "unpack", "bulk.unpack", _nbytes_of_result),
            (Arrangement, "unpack_rows_into", "bulk.unpack", _nbytes_of_arg(2)),
            (FusedProgram, "run", "bulk.fused_execute", None),
            (codegen_compile.CompiledBulkKernel, "run_bulk", "codegen.kernel", None),
            # BulkExecutor imports compile_bulk from the module at call time.
            (codegen_compile, "compile_bulk", "codegen.compile", None),
            (BulkServer, "submit", "serve.submit", None),
            (ShardedServer, "submit", "serve.submit", None),
            (SlotArena, "output_checksum", "router.checksum", None),
        ]

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, size in self.targets():
            original = owner.__dict__[attr]
            if inspect.iscoroutinefunction(original):
                wrapper = self._wrap_async(original, name)
            else:
                wrapper = self._wrap(original, name, size)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, size: Optional[Callable]) -> Callable:
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_name = name
            if name == "bulk.run" and any(s[1] == "bulk.run" for s in stack):
                span_name = "reliability.guard_replay"
            sid = next(ids)
            parent, root = (stack[-1][0], stack[0][0]) if stack else (0, sid)
            stack.append((sid, span_name))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                nbytes = size(args, result) if size is not None else 0
                spans.append((sid, span_name, start, end, parent, root,
                              threading.get_ident(), nbytes))

        return wrapper

    def _wrap_async(self, fn: Callable, name: str) -> Callable:
        # Concurrent submissions interleave on one thread, so they never
        # join the per-thread stack: each request is its own root.
        spans, ids = self.spans, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid = next(ids)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                spans.append((sid, name, start, clock(), 0, sid,
                              threading.get_ident(), 0))

        return wrapper

    # -- analysis ----------------------------------------------------------------
    def durations_ms(self, name: str) -> List[float]:
        return [(s[3] - s[2]) / 1e6 for s in self.spans if s[1] == name]

    def primary_runs(self) -> List[Dict[str, float]]:
        """Per primary ``bulk.run``: its time and its direct children's.

        Each entry maps ``"run"``, ``"self"``, ``"bytes"`` and every name
        in :data:`RUN_CHILDREN` to milliseconds (bytes: bytes moved by the
        run's pack and unpack, read plus write).
        """
        runs: Dict[int, Dict[str, float]] = {}
        for s in self.spans:
            if s[1] == "bulk.run":
                entry = runs[s[0]] = dict.fromkeys(RUN_CHILDREN + ("bytes",), 0.0)
                entry["run"] = (s[3] - s[2]) / 1e6
        for s in self.spans:
            entry = runs.get(s[4])
            if entry is not None and s[1] in RUN_CHILDREN:
                entry[s[1]] += (s[3] - s[2]) / 1e6
                entry["bytes"] += 2 * s[7]
        for entry in runs.values():
            covered = sum(entry[name] for name in RUN_CHILDREN)
            entry["self"] = max(0.0, entry["run"] - covered)
        return list(runs.values())

    def layer_metrics(self) -> Dict[str, float]:
        """Median per-run layer times of the primary runs (0 without runs)."""
        runs = self.primary_runs()

        def median(key: str) -> float:
            return statistics.median(r[key] for r in runs) if runs else 0.0

        checksums = self.durations_ms("router.checksum")
        return {
            "bulk.pack_ms": median("bulk.pack"),
            "bulk.unpack_ms": median("bulk.unpack"),
            "bulk.bytes_moved_mb": median("bytes") / 1e6,
            "bulk.run_self_ms": median("self"),
            "bulk.fused_execute_ms": median("bulk.fused_execute"),
            "codegen.kernel_ms": median("codegen.kernel"),
            "reliability.guard_replay_ms": median("reliability.guard_replay"),
            "trace.attributed_frac": (
                statistics.median(1.0 - r["self"] / r["run"] for r in runs)
                if runs else 0.0
            ),
            "router.checksum_ms": statistics.median(checksums) if checksums else 0.0,
        }

    def as_json(self) -> dict:
        """The spans as a JSON-ready document: field names, then one row
        per span in recording order."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "root", "thread",
                "nbytes")
        return {"fields": list(keys), "spans": [list(s) for s in self.spans]}
