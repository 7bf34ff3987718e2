"""Bulk execution of oblivious algorithms — the paper's core contribution.

* :class:`BulkExecutor` / :func:`bulk_run` — execute one oblivious program
  for ``p`` inputs simultaneously (the vectorised "GPU").
* :class:`ColumnWise` / :class:`RowWise` — the two input arrangements of
  Section III; column-wise is the time-optimal, coalesced one.
* :func:`simulate_bulk` — price a bulk execution in UMM/DMM time units.
* :func:`convert` — trace a plain-Python sequential algorithm into the
  oblivious IR (the conclusion's "conversion system", realised).
* :mod:`repro.bulk.kernels` — hand-vectorised reference kernels.
"""

from .autotune import (
    ArrangementChoice,
    best_arrangement_measured,
    best_arrangement_model,
)
from .arrangement import (
    Arrangement,
    ColumnWise,
    PaddedRowWise,
    RowWise,
    make_arrangement,
)
from .convert import (
    SymbolicMemory,
    convert,
    convert_and_check,
    maximum,
    minimum,
    select,
)
from .engine import BACKENDS, BulkExecutor, BulkResult, bulk_run, resolve_backend
from .fusion import FusedProgram, FusionStats, compile_fused
from .grid import GridConfig, GridExecutor, grid_time_units
from .kernels import opt_bulk, opt_bulk_with_choices, prefix_sums_bulk
from .lower_bound import (
    OptimalityCheck,
    bandwidth_bound,
    check_optimality,
    latency_bound,
)
from .session import BulkSession, SessionStats
from .simulate import (
    BulkSimulationReport,
    compare_arrangements,
    simulate_bulk,
    simulate_trace,
)

__all__ = [
    "BulkExecutor",
    "BulkResult",
    "bulk_run",
    "BACKENDS",
    "resolve_backend",
    "FusionStats",
    "FusedProgram",
    "compile_fused",
    "GridConfig",
    "GridExecutor",
    "grid_time_units",
    "BulkSession",
    "SessionStats",
    "Arrangement",
    "ColumnWise",
    "RowWise",
    "PaddedRowWise",
    "ArrangementChoice",
    "best_arrangement_model",
    "best_arrangement_measured",
    "make_arrangement",
    "simulate_bulk",
    "simulate_trace",
    "compare_arrangements",
    "BulkSimulationReport",
    "convert",
    "convert_and_check",
    "SymbolicMemory",
    "select",
    "minimum",
    "maximum",
    "bandwidth_bound",
    "latency_bound",
    "check_optimality",
    "OptimalityCheck",
    "prefix_sums_bulk",
    "opt_bulk",
    "opt_bulk_with_choices",
]
