"""Open- and closed-loop load from one asyncio task set in one thread.

Unlike ``repro.serve.loadgen.open_loop``, which starts each request's clock
when its task starts, the open loop here times every request from the
moment it was *due*: a stall in the generator or the event loop then shows
up in the latency of every request it delayed, instead of vanishing.  How
late the generator ran is reported on its own (``lags``), so a run whose
generator could not keep its schedule can be recognised.

``submit(i)`` must return an awaitable resolving to the reply for request
pool entry ``i``; ``check(i, reply)`` says whether the reply is bit-correct.
Checking happens after the request's end time is taken.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, fields
from typing import Awaitable, Callable, List

from repro.errors import ReproError, ServerOverloadedError

Submit = Callable[[int], Awaitable]
Check = Callable[[int, object], bool]


@dataclass
class LoadResult:
    """One load phase.  Times are in seconds."""

    sent: int = 0
    latencies: List[float] = field(default_factory=list)  # correct replies only
    lags: List[float] = field(default_factory=list)  # open loop: start - due
    within_limit: int = 0  # correct replies no later than the limit
    wrong: int = 0
    rejected: int = 0
    failed: int = 0
    duration: float = 0.0

    @property
    def failures(self) -> int:
        return self.wrong + self.rejected + self.failed

    @property
    def throughput(self) -> float:
        """Correct replies per second."""
        return len(self.latencies) / self.duration if self.duration else 0.0

    @classmethod
    def combined(cls, results: List["LoadResult"]) -> "LoadResult":
        """One result holding every count and sample of ``results``."""
        total = cls()
        for result in results:
            for f in fields(cls):
                setattr(total, f.name, getattr(total, f.name) + getattr(result, f.name))
        return total

    def record(self, ok: bool, latency: float, limit: float) -> None:
        if ok:
            self.latencies.append(latency)
            self.within_limit += latency <= limit
        else:
            self.wrong += 1

    def record_error(self, exc: ReproError) -> None:
        if isinstance(exc, ServerOverloadedError):
            self.rejected += 1
        else:
            self.failed += 1


async def open_loop(
    submit: Submit, pool: int, check: Check, *, rate: float, duration: float,
    limit: float,
) -> LoadResult:
    """Send ``rate`` requests per second for ``duration`` seconds."""
    result = LoadResult()
    loop = asyncio.get_running_loop()
    clock = time.perf_counter

    async def one(i: int, due: float) -> None:
        result.lags.append(clock() - due)
        try:
            reply = await submit(i % pool)
        except ReproError as exc:
            result.record_error(exc)
            return
        latency = clock() - due
        result.record(check(i % pool, reply), latency, limit)

    # Only requests in flight are kept: finished tasks would otherwise pile
    # up for the garbage collector to walk in the process being measured.
    pending: set = set()
    crashed: List[BaseException] = []

    def finished(task: asyncio.Task) -> None:
        pending.discard(task)
        if not task.cancelled() and task.exception() is not None:
            crashed.append(task.exception())

    start = clock()
    for i in range(int(rate * duration)):
        due = start + i / rate
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        task = loop.create_task(one(i, due))
        pending.add(task)
        task.add_done_callback(finished)
        result.sent += 1
    while pending:
        await asyncio.wait(set(pending))
    if crashed:
        raise crashed[0]
    result.duration = clock() - start
    return result


async def closed_loop(
    submit: Submit, pool: int, check: Check, *, clients: int, duration: float,
    limit: float,
) -> LoadResult:
    """``clients`` callers, each sending its next request on its last reply."""
    result = LoadResult()
    clock = time.perf_counter
    start = clock()
    stop = start + duration

    async def client(c: int) -> None:
        i = c
        while clock() < stop:
            result.sent += 1
            begun = clock()
            try:
                reply = await submit(i % pool)
            except ReproError as exc:
                result.record_error(exc)
                # A refusal returns without yielding; back off as a caller
                # would, or this client would starve the event loop.
                await asyncio.sleep(0.001)
            else:
                latency = clock() - begun
                result.record(check(i % pool, reply), latency, limit)
            i += clients

    await asyncio.gather(*(client(c) for c in range(clients)))
    result.duration = clock() - start
    return result
