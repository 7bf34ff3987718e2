"""Closed-form per-step pricing of bulk traces (the analytic fast path).

For the arrangements of Section III the per-step cost of a bulk access is
not just *memoizable* — it is a closed form in the machine parameters and
(at most) the local address' residue ``a mod w``:

**column-wise, UMM or DMM**
    Step ``a`` touches the ``p`` consecutive addresses ``a·p .. a·p+p−1``.
    Because ``p`` is a multiple of ``w`` (a :class:`MachineParams`
    invariant), every warp's ``w`` addresses form exactly one aligned
    address group — one UMM stage — and hit ``w`` distinct banks — one DMM
    stage.  Every step costs ``p/w + l − 1``, independent of ``a``.

**row-wise (stride ``s``), UMM**
    Warp ``i`` touches ``b_i, b_i+s, …, b_i+(w−1)s`` with
    ``b_i = a + i·w·s ≡ a (mod w)``, so its group count
    ``|{⌊(r + k·s)/w⌋ : 0 ≤ k < w}|`` depends only on ``r = a mod w`` —
    the same for every warp.  (With ``s ≥ w`` it is always ``w``, the
    fully-serialised case of Theorem 2.)

**row-wise (stride ``s``), DMM**
    The warp's ``w`` distinct addresses map to banks ``(r + k·s) mod w``;
    each attained bank is hit exactly ``gcd(s, w)`` times, so the conflict
    degree is ``gcd(s, w)`` for *every* step — the classic reason a pad
    making ``s`` coprime to ``w`` is conflict-free.

An :class:`AnalyticKernel` captures the resulting stage table (length 1 or
``w``); pricing a trace of ``t`` steps is then one table lookup per distinct
address (:func:`repro.bulk.simulate.step_stages`) — no per-thread factor at
all.  Kernels are cross-checked at construction against
:meth:`MemoryMachineSimulator.step_cost` on one representative address per
residue class, so any drift between the closed forms and the simulator's
accounting raises immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Tuple

import numpy as np

from ..errors import MachineConfigError
from .dmm import DMM
from .params import MachineParams
from .simulator import MemoryMachineSimulator
from .umm import UMM

__all__ = [
    "AnalyticKernel",
    "analytic_kernel",
    "column_wise_stage_table",
    "row_wise_stage_table",
    "bulk_step_time",
    "tiled_stage_count",
    "bulk_batch_time",
    "placement_units",
    "autoscale_thresholds",
    "effective_lane_speedup",
]


@dataclass(frozen=True)
class AnalyticKernel:
    """Closed-form step prices for one (arrangement × machine) pair.

    Attributes
    ----------
    machine_kind:
        ``"UMM"`` or ``"DMM"``.
    arrangement:
        The arrangement's ``name`` (``"column"`` / ``"row"`` / ``"padded-row"``).
    params:
        The priced machine's parameters.
    period:
        Length of the stage table: 1 when the step cost is address-free,
        ``w`` when it depends on ``a mod w``.
    stage_table:
        ``stage_table[a % period]`` is the total pipeline stage count of the
        bulk step at local address ``a`` (all ``p/w`` warps summed).
    """

    machine_kind: str
    arrangement: str
    params: MachineParams
    period: int
    stage_table: np.ndarray

    def step_stages(self, local: int) -> int:
        """Total pipeline stages of the bulk step at local address ``local``."""
        return int(self.stage_table[local % self.period])

    def step_time(self, local: int) -> int:
        """Time units of the bulk step at local address ``local``."""
        return self.step_stages(local) + self.params.l - 1


def column_wise_stage_table(params: MachineParams) -> np.ndarray:
    """Stage table of a column-wise step on either machine: ``[p/w]``."""
    return np.array([params.num_warps], dtype=np.int64)


def bulk_step_time(lanes: int, w: int, l: int) -> int:
    """Time units of one column-wise bulk step over ``lanes`` inputs.

    The Theorem-3 accounting with the thread count decoupled from a
    :class:`MachineParams` invariant: ``⌈lanes/w⌉`` aligned address groups
    (one per warp — a partial last warp still occupies one stage) plus the
    ``l − 1`` pipeline drain.  Matches :func:`column_wise_stage_table` when
    ``lanes`` is a multiple of ``w``.
    """
    if lanes < 1:
        raise MachineConfigError(f"lanes must be >= 1, got {lanes}")
    return -(-lanes // w) + l - 1


def tiled_stage_count(lanes: int, w: int, tile: int) -> int:
    """Stages of one coalesced bulk step issued tile-by-tile.

    The native backend's tile loop processes lanes in slabs of ``tile``;
    on the modeled machine each slab issues ``⌈len/w⌉`` aligned address
    groups, so the step occupies ``Σ_tiles ⌈len/w⌉`` stages.  This equals
    the sequential optimum ``⌈lanes/w⌉`` exactly when ``w`` divides
    ``tile`` (or a single tile covers all lanes) and is strictly larger
    otherwise — every ragged tile tail issues a partial warp.  The
    schedule certifier (:mod:`repro.analysis.schedule`) cross-checks this
    closed form against the tile decomposition it parses out of the
    emitted kernel: two independent derivations of the schedule's span
    must agree, or the schedule is not the one being priced.
    """
    if lanes < 1:
        raise MachineConfigError(f"lanes must be >= 1, got {lanes}")
    if w < 1:
        raise MachineConfigError(f"w must be >= 1, got {w}")
    if tile < 1:
        raise MachineConfigError(f"tile must be >= 1, got {tile}")
    full, rem = divmod(lanes, tile)
    stages = full * (-(-tile // w))
    if rem:
        stages += -(-rem // w)
    return stages


def effective_lane_speedup(
    *,
    simd_width: int = 1,
    threads: int = 1,
    simd_efficiency: float = 0.35,
    thread_efficiency: float = 0.85,
) -> float:
    """Calibrated throughput multiplier of a tiled/threaded native kernel.

    The bulk model prices a batch by its bandwidth term ``⌈lanes/w⌉``;
    a vectorised kernel retires ``simd_width`` lanes per issue and an
    OpenMP kernel runs ``threads`` tile partitions concurrently, so the
    *effective* lane throughput grows by (ideally) their product.  Real
    kernels fall short of ideal — memory-bound chunks don't scale with
    vector width, threads contend for shared cache — so each factor is
    derated by a measured efficiency:

    ``speedup = (1 + e_simd·(simd_width − 1)) · (1 + e_thread·(threads − 1))``

    The defaults are calibrated against ``results/BENCH_backends.json`` on
    the flagship (OPT n=32, p=8192): the 8-wide AVX-512 tiled kernel
    measures ≈ 2.2× over the scalar baseline — matching
    ``1 + 0.35·(8−1) ≈ 3.45`` *relative to true scalar issue*, of which the
    baseline already realises part, hence the conservative per-lane derate —
    and thread scaling near ``0.85`` per added core is what lane-partitioned
    oblivious programs (no cross-lane traffic) sustain until memory
    bandwidth saturates.  :class:`~repro.serve.policy.AdaptivePolicy` and
    :func:`placement_units` divide the bandwidth term by this factor so
    batch targets and shard placement price tiled/threaded kernels
    correctly instead of assuming one lane per time unit.
    """
    if simd_width < 1 or threads < 1:
        raise MachineConfigError(
            f"need simd_width >= 1 and threads >= 1, got "
            f"simd_width={simd_width} threads={threads}"
        )
    if not 0.0 <= simd_efficiency <= 1.0 or not 0.0 <= thread_efficiency <= 1.0:
        raise MachineConfigError("efficiencies must lie in [0, 1]")
    return (1.0 + simd_efficiency * (simd_width - 1)) * (
        1.0 + thread_efficiency * (threads - 1)
    )


def bulk_batch_time(
    trace_length: int, lanes: int, w: int, l: int, *, speedup: float = 1.0
) -> float:
    """Closed-form cost of a whole column-wise bulk run, in time units.

    ``trace_length · (⌈lanes/w⌉/speedup + l − 1)`` — the paper's
    ``O(pt/w + lt)`` with its constants made exact.  This is the price the
    serving layer's adaptive batching policy consults before dispatch: the
    *per-request* cost ``bulk_batch_time(t, b, w, l) / b`` strictly
    improves with the batch size ``b``, flattening once the bandwidth term
    ``b/w`` dominates the latency term ``l − 1`` — which is exactly where
    waiting for more requests stops paying.

    ``speedup`` is the executing backend's effective-lane multiplier
    (:func:`effective_lane_speedup`): a tiled/threaded kernel drains the
    bandwidth term faster, while the latency term — the pipeline depth —
    is not its to shrink.  The default ``1.0`` returns the exact integer
    accounting of the unaccelerated model (as an integer-valued float).
    """
    if speedup <= 0:
        raise MachineConfigError(f"speedup must be > 0, got {speedup}")
    bandwidth = bulk_step_time(lanes, w, l) - (l - 1)
    return trace_length * (bandwidth / speedup + l - 1)


def placement_units(
    trace_length: int,
    lanes: int,
    w: int,
    l: int,
    backlog: float = 0.0,
    *,
    speedup: float = 1.0,
) -> float:
    """Predicted completion time, in UMM units, of placing one batch on a
    shard that already owes ``backlog`` units of queued work.

    The sharded serving router's pricing helper: a candidate placement of a
    ``lanes``-wide batch of a ``trace_length``-step program on shard ``s``
    completes after ``backlog(s) + bulk_batch_time(t, lanes, w, l)`` units,
    because each shard drains its descriptor queue in FIFO order.  Placing
    every batch on the argmin shard is therefore both load balancing *and*
    latency minimisation — and because any lane produces bit-identical
    output on any shard (the executors are replicas), the router is free to
    chase the cheapest placement without a correctness cost.  ``speedup``
    (see :func:`effective_lane_speedup`) prices shards running
    tiled/threaded native kernels.
    """
    if backlog < 0:
        raise MachineConfigError(f"backlog must be >= 0, got {backlog}")
    return backlog + bulk_batch_time(trace_length, lanes, w, l, speedup=speedup)


def autoscale_thresholds(
    trace_length: int,
    max_batch: int,
    w: int,
    l: int,
    *,
    speedup: float = 1.0,
    up_factor: float = 1.0,
    down_factor: float = 0.1,
) -> Tuple[float, float]:
    """``(scale_up, scale_down)`` backlog thresholds, in UMM time units.

    The sharded tier's autoscaler asks "is the per-shard backlog worth
    another replica?" — a question the cost model can answer instead of a
    hand-tuned constant.  The natural yardstick is the analytic price of
    one *full* dispatch, ``bulk_batch_time(t, max_batch, w, l)``: a shard
    whose queued backlog exceeds ``up_factor`` full batches is persistently
    behind (new work waits at least one whole dispatch before starting), so
    a new shard would immediately absorb real load; a fleet whose p95
    backlog has fallen under ``down_factor`` of a full batch is coasting —
    the marginal shard completes nothing the survivors could not, so it
    can drain and retire.  ``down_factor < up_factor`` is required: the
    hysteresis gap is what keeps the fleet from oscillating at a boundary.
    """
    if up_factor <= 0 or down_factor <= 0:
        raise MachineConfigError(
            f"autoscale factors must be > 0, got up={up_factor} "
            f"down={down_factor}"
        )
    if down_factor >= up_factor:
        raise MachineConfigError(
            f"scale-down factor ({down_factor}) must be below the scale-up "
            f"factor ({up_factor}) — no hysteresis means flapping"
        )
    full = bulk_batch_time(trace_length, max_batch, w, l, speedup=speedup)
    return up_factor * full, down_factor * full


def row_wise_stage_table(
    params: MachineParams, stride: int, machine_kind: str
) -> np.ndarray:
    """Stage table (indexed by ``a mod w``) of a stride-``s`` row-wise step."""
    if stride < 1:
        raise MachineConfigError(f"row stride must be >= 1, got {stride}")
    w, nw = params.w, params.num_warps
    if machine_kind == "DMM":
        return np.full(w, nw * gcd(stride, w), dtype=np.int64)
    k = np.arange(w, dtype=np.int64)
    groups_of = lambda r: np.unique((r + k * stride) // w).size  # noqa: E731
    return np.array([nw * groups_of(r) for r in range(w)], dtype=np.int64)


def analytic_kernel(
    arrangement,
    machine: MemoryMachineSimulator,
    *,
    verify: bool = True,
) -> Optional[AnalyticKernel]:
    """Closed-form kernel for ``(arrangement, machine)``, or ``None``.

    Only the exact library types are matched (``ColumnWise`` / ``RowWise`` /
    ``PaddedRowWise`` on ``UMM`` / ``DMM``): a subclass may redefine the
    address map or the stage accounting, in which case no closed form is
    known and the caller must fall back to memoized pricing.

    With ``verify`` (the default), the table is cross-checked against
    :meth:`~MemoryMachineSimulator.step_cost` on one representative address
    per residue class — ≤ ``w`` step evaluations — before being returned.
    """
    # Imported lazily: repro.bulk depends on repro.machine, not vice versa.
    from ..bulk.arrangement import ColumnWise, PaddedRowWise, RowWise

    if type(machine) is UMM:
        kind = "UMM"
    elif type(machine) is DMM:
        kind = "DMM"
    else:
        return None
    params = machine.params
    if type(arrangement) is ColumnWise:
        period, table = 1, column_wise_stage_table(params)
    elif type(arrangement) is RowWise:
        period = params.w
        table = row_wise_stage_table(params, arrangement.words, kind)
    elif type(arrangement) is PaddedRowWise:
        period = params.w
        table = row_wise_stage_table(params, arrangement.stride, kind)
    else:
        return None
    kernel = AnalyticKernel(
        machine_kind=kind,
        arrangement=arrangement.name,
        params=params,
        period=period,
        stage_table=table,
    )
    if verify:
        _cross_check(kernel, arrangement, machine)
    return kernel


def _cross_check(kernel: AnalyticKernel, arrangement, machine) -> None:
    """Assert the closed forms agree with the simulator on representatives."""
    for r in range(min(kernel.period, arrangement.words)):
        report = machine.step_cost(arrangement.step_addresses(r))
        if (
            report.total_stages != kernel.step_stages(r)
            or report.time_units != kernel.step_time(r)
        ):  # pragma: no cover - defensive: the closed forms are exact
            raise MachineConfigError(
                f"analytic kernel disagrees with {kernel.machine_kind}."
                f"step_cost at local address {r}: "
                f"{kernel.step_stages(r)} stages vs {report.total_stages}"
            )
