"""The cost engine's one pricing path against the full-matrix oracle.

The acceptance workload is the Figure 12 flagship: an OPT 32-gon trace
(t = 10,881 steps over <= 2·32² distinct addresses) priced for p = 8192
threads.  Three ways to the same totals are timed:

``full-matrix``
    The reference: a short chunked loop over ``machine.trace_cost`` that
    materialises and prices all ~89M (step, thread) addresses.
``library``
    ``simulate_trace`` on the library arrangement: each distinct address
    is priced once from the closed-form stage table.
``subclass``
    ``simulate_trace`` on an arrangement subclass, which has no closed
    form: each distinct address is priced once through ``trace_cost``.

A fourth row times ``analyze_coalescing``, which indexes the same per-step
prices.  Totals are asserted equal on every row.

Standalone run (writes ``results/bench_simulate.txt``)::

    PYTHONPATH=src python benchmarks/bench_simulate.py

pytest-benchmark mode (smaller grid)::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_simulate.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.algorithms.polygon import build_opt
from repro.analysis import analyze_coalescing
from repro.bulk import ColumnWise, RowWise, make_arrangement, simulate_trace
from repro.machine import UMM, MachineParams

try:
    from conftest import run_pedantic
except ImportError:  # standalone `python benchmarks/bench_simulate.py` run
    run_pedantic = None

PATHS = ("full-matrix", "library", "subclass")


class _SubclassedRow(RowWise):
    """No closed form is matched for a subclass: distinct-address path."""


class _SubclassedColumn(ColumnWise):
    """No closed form is matched for a subclass: distinct-address path."""


_SUBCLASS = {"row": _SubclassedRow, "column": _SubclassedColumn}


def full_matrix(trace, arr, machine, chunk: int = 256) -> tuple:
    """``(total_time, total_stages)`` from every step of the ``(t, p)``
    address matrix, priced ``chunk`` steps at a time."""
    total_time = total_stages = 0
    for lo in range(0, trace.size, chunk):
        rep = machine.trace_cost(arr.trace_addresses(trace[lo : lo + chunk]))
        total_time += rep.total_time
        total_stages += rep.total_stages
    return total_time, total_stages


def _price(path: str, program, arrangement: str, machine) -> Callable[[], tuple]:
    """A zero-argument callable pricing ``program`` one way, returning
    ``(total_time, total_stages)``."""
    p, trace = machine.params.p, program.address_trace()
    lib = make_arrangement(arrangement, program.memory_words, p)
    if path == "full-matrix":
        return lambda: full_matrix(trace, lib, machine)
    arr = lib if path == "library" else _SUBCLASS[arrangement](program.memory_words, p)

    def run():
        rep = simulate_trace(trace, arr, machine)
        return rep.total_time, rep.total_stages

    return run


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("arrangement", ["row", "column"])
def bench_price_opt16(benchmark, path, arrangement):
    """OPT 16-gon, p = 2048: the oracle and both price sources on one trace."""
    machine = UMM(MachineParams(p=2048, w=32, l=100))
    total_time, _ = run_pedantic(benchmark, _price(path, build_opt(16), arrangement, machine))
    benchmark.extra_info["total_time_units"] = total_time


# -- standalone comparison ----------------------------------------------------

def _best_of(fn, repeats: int) -> tuple:
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(out_path: Path | None = None) -> str:
    n, p = 32, 8192
    params = MachineParams(p=p, w=32, l=100)
    machine = UMM(params)
    lines = [
        f"bench_simulate: pricing an OPT {n}-gon bulk trace at p={p} "
        "(UMM, w=32, l=100)",
        "",
    ]
    program = build_opt(n)
    trace = program.address_trace()
    distinct = int(np.unique(trace).size)
    lines.append(
        f"trace: t={trace.size} steps, {distinct} distinct local addresses, "
        f"{trace.size * p:,} priced (address, thread) pairs on the full matrix"
    )
    lines.append("")
    header = f"{'arrangement':<12} {'path':<12} {'seconds':>10} {'speedup':>9}  {'time units':>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for arrangement in ("column", "row"):
        baseline = None
        totals = set()
        for path in PATHS:
            repeats = 1 if path == "full-matrix" else 3
            secs, total = _best_of(_price(path, program, arrangement, machine), repeats)
            baseline = baseline or secs
            totals.add(total)
            lines.append(
                f"{arrangement:<12} {path:<12} {secs:>10.4f} "
                f"{baseline / secs:>8.1f}x  {total[0]:>14,}"
            )
        secs, report = _best_of(
            lambda: analyze_coalescing(program, params, arrangement), 3
        )
        stages = int(report.step_stages.sum())
        total_time = stages + (params.l - 1) * report.num_steps
        totals.add((total_time, stages))
        lines.append(
            f"{arrangement:<12} {'coalescing':<12} {secs:>10.4f} "
            f"{baseline / secs:>8.1f}x  {total_time:>14,}"
        )
        assert len(totals) == 1, f"paths disagree on {arrangement}: {totals}"
        lines.append("")
    lines.append(
        "all rows bit-identical per arrangement; speedups are vs the "
        "full-matrix oracle (best-of-run timings); 'coalescing' is "
        "analyze_coalescing, which indexes the same per-step prices"
    )
    text = "\n".join(lines)
    if out_path is not None:
        out_path.write_text(text + "\n")
    return text


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "results" / "bench_simulate.txt"
    print(main(out))
    print(f"\n[wrote {out}]", file=sys.stderr)
