"""Fast-path smoke test: distinct-address pricing must beat the full matrix.

A deliberately repetitive trace (t = 10⁴ steps over 256 distinct addresses,
p = 4096 threads) on an arrangement subclass — which has no closed form, so
it is priced through ``machine.trace_cost`` one distinct address at a time —
gives the pricing path a ~40× work advantage over the full ``(t, p)``
matrix oracle; asserting only >= 5x leaves a wide margin for noisy CI
machines.  Set ``REPRO_SKIP_PERF_TESTS=1`` to skip under emulation-slow
environments.
"""

import os
import time

import numpy as np
import pytest

from repro.bulk import RowWise, simulate_trace
from repro.machine import UMM, MachineParams

pytestmark = [
    pytest.mark.perf,
    pytest.mark.skipif(
        os.environ.get("REPRO_SKIP_PERF_TESTS") == "1",
        reason="REPRO_SKIP_PERF_TESTS=1: timing assertions disabled",
    ),
]


class SubclassedRow(RowWise):
    """No closed form is matched for a subclass: distinct-address path."""


def _best_of(fn, repeats=2):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _full_matrix(trace, arr, machine, chunk=512):
    """The reference: price every step of the ``(t, p)`` address matrix."""
    total_time = total_stages = 0
    for lo in range(0, trace.size, chunk):
        rep = machine.trace_cost(arr.trace_addresses(trace[lo : lo + chunk]))
        total_time += rep.total_time
        total_stages += rep.total_stages
    return total_time, total_stages


def test_memoized_beats_chunked_by_5x():
    t_steps, p, words = 10_000, 4096, 256
    params = MachineParams(p=p, w=32, l=100)
    machine = UMM(params)
    arr = SubclassedRow(words, p)
    rng = np.random.default_rng(20140519)
    trace = rng.integers(0, words, size=t_steps)

    # Warm both code paths (imports, first-touch allocations) off the clock.
    _full_matrix(trace[:64], arr, machine)
    simulate_trace(trace[:64], arr, machine)

    full_s, ref = _best_of(lambda: _full_matrix(trace, arr, machine), repeats=1)
    memo_s, fast = _best_of(lambda: simulate_trace(trace, arr, machine), repeats=3)
    assert fast.method == "memoized"
    assert (fast.total_time, fast.total_stages) == ref  # exactness first
    speedup = full_s / memo_s
    assert speedup >= 5.0, (
        f"distinct-address path only {speedup:.1f}x faster than the full "
        f"matrix ({memo_s * 1e3:.1f} ms vs {full_s * 1e3:.1f} ms)"
    )
