"""Self-driving load generation against a :class:`BulkServer`.

Either placement works: :class:`~repro.serve.router.ShardedServer` is a
``BulkServer`` with the same ``submit``/``stats`` contract.

Two canonical load shapes, both textbook serving methodology:

* **open loop** — requests arrive on a fixed schedule (``rps``) regardless
  of how fast the server answers; the honest model of independent clients.
  Under overload the arrival schedule does not slow down, so rejected and
  late requests are *counted*, not hidden (coordinated omission is the
  classic way to lie with latency numbers).
* **closed loop** — ``clients`` workers each keep exactly one request in
  flight; measures the server's sustainable capacity.

Both return a :class:`LoadReport` with completion counts, throughput and
latency percentiles, renderable as one row of the benchmark table.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ReproError
from .metrics import percentile
from .server import BulkServer

__all__ = ["LoadReport", "open_loop", "closed_loop", "input_pool", "render_reports"]


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load-generation run (latencies in seconds)."""

    label: str
    mode: str  # "open" | "closed"
    offered_rps: float  # open loop: arrival rate; closed loop: 0 (unbounded)
    duration: float
    submitted: int
    completed: int
    rejected: int  # backpressure (ServerOverloadedError)
    failed: int  # deadline expiries and execution failures
    latencies: Sequence[float]

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    def quantile(self, q: float) -> float:
        return percentile(sorted(self.latencies), q)

    def row(self) -> List[str]:
        """One table row: label, mode, offered, done, rps, p50/p95/p99 ms."""
        offered = f"{self.offered_rps:.0f}" if self.offered_rps else "max"
        return [
            self.label,
            self.mode,
            offered,
            str(self.completed),
            f"{self.throughput_rps:.0f}",
            f"{self.quantile(0.50) * 1e3:.2f}",
            f"{self.quantile(0.95) * 1e3:.2f}",
            f"{self.quantile(0.99) * 1e3:.2f}",
            str(self.rejected),
        ]


_HEADER = ["config", "mode", "offered", "completed", "rps",
           "p50 ms", "p95 ms", "p99 ms", "rejected"]


def render_reports(title: str, reports: Sequence[LoadReport]) -> str:
    """A fixed-width latency/throughput table over several runs."""
    rows = [_HEADER] + [report.row() for report in reports]
    widths = [max(len(row[i]) for row in rows) for i in range(len(_HEADER))]
    lines = [title]
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())
        if index == 0:
            lines.append("-" * len(lines[-1]))
    return "\n".join(lines)


def input_pool(workload: str, n: int, size: int = 64,
               seed: int = 0) -> List[np.ndarray]:
    """Pre-generate ``size`` distinct single inputs for ``workload``.

    Load generation must not bottleneck on input synthesis, so inputs are
    made once up front and cycled.
    """
    from ..algorithms.registry import get_spec

    spec = get_spec(workload)
    rng = np.random.default_rng(seed)
    block = spec.make_inputs(rng, n, size)
    return [np.ascontiguousarray(block[i]) for i in range(size)]


async def open_loop(
    server: BulkServer,
    workload: str,
    n: int,
    *,
    rps: float,
    duration: float,
    label: Optional[str] = None,
    inputs: Optional[Sequence[np.ndarray]] = None,
    deadline: Optional[float] = None,
) -> LoadReport:
    """Fire submissions at a fixed arrival rate for ``duration`` seconds."""
    if rps <= 0 or duration <= 0:
        raise ReproError(f"need rps > 0 and duration > 0, got {rps}, {duration}")
    pool = list(inputs) if inputs is not None else input_pool(workload, n)
    latencies: List[float] = []
    rejected = 0
    failed = 0
    submitted = 0
    tasks: List[asyncio.Task] = []

    async def one(value) -> None:
        nonlocal rejected, failed
        started = time.monotonic()
        try:
            await server.submit(workload, value, n=n, deadline=deadline)
        except ReproError as exc:
            from ..errors import ServerOverloadedError

            if isinstance(exc, ServerOverloadedError):
                rejected += 1
            else:
                failed += 1
            return
        latencies.append(time.monotonic() - started)

    interval = 1.0 / rps
    start = time.monotonic()
    index = 0
    while True:
        now = time.monotonic()
        if now - start >= duration:
            break
        # Catch up to the schedule: submit every arrival whose time has come.
        due = int((now - start) / interval) + 1
        while index < due:
            tasks.append(asyncio.ensure_future(one(pool[index % len(pool)])))
            index += 1
            submitted += 1
        await asyncio.sleep(min(interval, 0.001))
    if tasks:
        await asyncio.gather(*tasks)
    elapsed = time.monotonic() - start
    return LoadReport(
        label=label or f"{workload}:{n}",
        mode="open",
        offered_rps=rps,
        duration=elapsed,
        submitted=submitted,
        completed=len(latencies),
        rejected=rejected,
        failed=failed,
        latencies=latencies,
    )


async def closed_loop(
    server: BulkServer,
    workload: str,
    n: int,
    *,
    clients: int,
    duration: float,
    label: Optional[str] = None,
    inputs: Optional[Sequence[np.ndarray]] = None,
) -> LoadReport:
    """``clients`` workers, one request in flight each, for ``duration`` s."""
    if clients < 1 or duration <= 0:
        raise ReproError(
            f"need clients >= 1 and duration > 0, got {clients}, {duration}"
        )
    pool = list(inputs) if inputs is not None else input_pool(workload, n)
    latencies: List[float] = []
    rejected = 0
    failed = 0
    submitted = 0
    start = time.monotonic()

    async def worker(worker_index: int) -> None:
        nonlocal rejected, failed, submitted
        index = worker_index
        while time.monotonic() - start < duration:
            value = pool[index % len(pool)]
            index += clients
            submitted += 1
            begun = time.monotonic()
            try:
                await server.submit(workload, value, n=n)
            except ReproError as exc:
                from ..errors import ServerOverloadedError

                if isinstance(exc, ServerOverloadedError):
                    rejected += 1
                    await asyncio.sleep(0.001)  # back off as a client would
                else:
                    failed += 1
                continue
            latencies.append(time.monotonic() - begun)

    await asyncio.gather(*(worker(i) for i in range(clients)))
    elapsed = time.monotonic() - start
    return LoadReport(
        label=label or f"{workload}:{n}",
        mode="closed",
        offered_rps=0.0,
        duration=elapsed,
        submitted=submitted,
        completed=len(latencies),
        rejected=rejected,
        failed=failed,
        latencies=latencies,
    )
