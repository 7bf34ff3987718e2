"""Time-unit simulation of a bulk execution on the UMM (or DMM).

The semantic engine (:mod:`repro.bulk.engine`) computes *results*; this
module computes *costs* in the paper's model.  Because the program is
oblivious, the cost depends only on its static address trace ``a(0..t-1)``
and the arrangement: bulk step ``i`` has thread ``j`` touch
``arrangement.global_address(a(i), j)``, and the machine prices each step by
warp/address-group/pipeline occupancy (Section II).

Obliviousness also makes pricing *cheap*: a bulk step's cost is a pure
function of its local address (given the arrangement and machine), and a
program touches at most ``memory_words`` distinct addresses — ``n²`` for
OPT against ``t = O(n³)`` steps.  :func:`step_stages` is the one pricing
path: it validates the trace, prices each distinct local address once and
indexes those prices per step.  A price comes from one of two sources:

``"analytic"``
    Closed-form stage tables from :mod:`repro.machine.analytic` for the
    library arrangements on the UMM/DMM — no per-thread factor at all.
``"memoized"``
    Any other (arrangement, machine) pair — a subclass may redefine the
    address map or the stage accounting — is priced through
    ``machine.trace_cost`` over the distinct addresses, in fixed chunks.

The analytic tables are cross-checked against ``machine.step_cost`` at
construction.  The full ``(t, p)`` reference is the machine's own
primitive, ``machine.trace_cost(arrangement.trace_addresses(trace))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from ..errors import MachineConfigError
from ..machine.analytic import analytic_kernel
from ..machine.cost import CostBreakdown, lower_bound
from ..machine.params import MachineParams
from ..machine.simulator import MemoryMachineSimulator
from ..machine.umm import UMM
from ..trace.ir import Program
from .arrangement import Arrangement, make_arrangement

__all__ = [
    "BulkSimulationReport",
    "step_stages",
    "simulate_bulk",
    "simulate_trace",
    "compare_arrangements",
]

#: Addresses per ``trace_cost`` call on the memoized path (8 MB of int64).
_CHUNK_WORDS = 1 << 20


@dataclass(frozen=True)
class BulkSimulationReport:
    """Simulated cost of one bulk execution.

    Attributes
    ----------
    machine:
        The priced machine's parameters.
    arrangement:
        ``"row"`` or ``"column"``.
    trace_length:
        Sequential time ``t`` of the oblivious algorithm.
    total_time:
        Simulated running time in UMM/DMM time units.
    total_stages:
        Total pipeline stage-items injected (the bandwidth term).
    theorem3_bound:
        The ``Ω(pt/w + lt)`` lower bound for this configuration.
    method:
        The price source that ran: ``"analytic"`` or ``"memoized"``.
    """

    machine: MachineParams
    arrangement: str
    trace_length: int
    total_time: int
    total_stages: int
    theorem3_bound: int
    method: str

    @property
    def optimality_ratio(self) -> float:
        """``total_time / theorem3_bound`` — close to a small constant for
        the column-wise arrangement (Theorem 3: it is time-optimal)."""
        return self.total_time / self.theorem3_bound if self.theorem3_bound else float("inf")

    @property
    def time_per_step(self) -> float:
        """Average time units per bulk step."""
        return self.total_time / self.trace_length if self.trace_length else 0.0

    def versus(self, other: "BulkSimulationReport") -> float:
        """Speedup of ``self`` over ``other`` in simulated time units."""
        return other.total_time / self.total_time if self.total_time else float("inf")


def step_stages(
    local_trace: np.ndarray,
    arrangement: Arrangement,
    machine: MemoryMachineSimulator,
) -> Tuple[np.ndarray, str]:
    """Pipeline stages of every bulk step, and the price source used.

    Returns ``(stages, source)``: ``stages[i]`` is the total stage count of
    bulk step ``i`` (all ``p/w`` warps summed), exactly
    ``machine.trace_cost(arrangement.trace_addresses(trace)).step_stages``;
    ``source`` is ``"analytic"`` when a closed form exists for the
    ``(arrangement, machine)`` types and ``"memoized"`` otherwise.  Every
    step dispatches all of its warps, so its time is ``stages[i] + l − 1``.
    """
    if machine.params.p != arrangement.p:
        raise MachineConfigError(
            f"machine has p={machine.params.p} threads but the arrangement "
            f"holds p={arrangement.p} inputs"
        )
    trace = arrangement.check_trace(local_trace)
    uniq, inverse = np.unique(trace, return_inverse=True)
    kernel = analytic_kernel(arrangement, machine)
    if kernel is not None:
        return kernel.stage_table[uniq % kernel.period][inverse], "analytic"
    prices = np.empty(uniq.size, dtype=np.int64)
    rows = max(1, _CHUNK_WORDS // arrangement.p)
    buf = np.empty((min(rows, uniq.size), arrangement.p), dtype=np.int64)
    for lo in range(0, uniq.size, rows):
        chunk = arrangement.trace_addresses_into(uniq[lo : lo + rows], buf)
        prices[lo : lo + rows] = machine.trace_cost(chunk).step_stages
    return prices[inverse], "memoized"


def simulate_trace(
    local_trace: np.ndarray,
    arrangement: Arrangement,
    machine: MemoryMachineSimulator,
) -> BulkSimulationReport:
    """Price a raw local address trace under an arrangement on a machine."""
    stages, source = step_stages(local_trace, arrangement, machine)
    t = int(stages.size)
    total_stages = int(stages.sum())
    return BulkSimulationReport(
        machine=machine.params,
        arrangement=arrangement.name,
        trace_length=t,
        total_time=total_stages + (machine.params.l - 1) * t,
        total_stages=total_stages,
        theorem3_bound=lower_bound(machine.params, t),
        method=source,
    )


def simulate_bulk(
    program: Program,
    machine: Union[MemoryMachineSimulator, MachineParams],
    arrangement: Union[str, Arrangement] = "column",
) -> BulkSimulationReport:
    """Simulated UMM running time of ``program`` bulk-executed for ``p`` inputs.

    ``machine`` may be :class:`MachineParams` (priced on the UMM, the paper's
    machine) or an explicit :class:`UMM`/:class:`DMM` simulator.  The thread
    count is the machine's ``p``; the arrangement is built to match.
    """
    sim = UMM(machine) if isinstance(machine, MachineParams) else machine
    arr = make_arrangement(arrangement, program.memory_words, sim.params.p)
    return simulate_trace(program.address_trace(), arr, sim)


def compare_arrangements(
    program: Program,
    machine: Union[MemoryMachineSimulator, MachineParams],
) -> CostBreakdown:
    """Row vs column simulated times plus the Theorem 3 bound, in one record."""
    sim = UMM(machine) if isinstance(machine, MachineParams) else machine
    row = simulate_bulk(program, sim, "row")
    col = simulate_bulk(program, sim, "column")
    return CostBreakdown(
        params=sim.params,
        t=program.trace_length,
        row_wise=row.total_time,
        column_wise=col.total_time,
        bound=row.theorem3_bound,
    )
