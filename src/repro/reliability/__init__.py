"""Reliability layer: guards, quarantine, incidents, faults, checkpoints.

The execution stack (fused NumPy engine, compiled native kernels, on-disk
codegen cache, sweep harness) gains a cross-cutting robustness story:

* :class:`GuardPolicy` — sampled-lane bit-identity spot-checks of native
  kernels against the program's IR replay, with graceful degradation
  (``BulkExecutor(guard="spot")``);
* :mod:`~repro.reliability.quarantine` — process-level registry of cache
  keys whose kernels misbehaved, so they are never reloaded;
* :mod:`~repro.reliability.incidents` — bounded structured log of every
  degradation event;
* :class:`FaultPlan` — deterministic, seeded fault injection at named
  sites, driving the chaos test suite;
* :class:`SweepCheckpoint` — atomic JSON checkpoints making harness sweeps
  resumable (``repro-harness ... --resume``).

See docs/MODEL.md, section "Reliability", for the operational picture.
"""

from .checkpoint import SweepCheckpoint, cell_key
from .faults import (
    FaultPlan,
    FaultRule,
    clear_plan,
    current_plan,
    fire,
    inject,
    install_plan,
)
from .guard import GUARD_MODES, GuardPolicy
from .incidents import (
    Incident,
    clear_incidents,
    incident_summary,
    incidents,
    record_incident,
    set_incident_cap,
)
from .quarantine import (
    clear_quarantine,
    is_quarantined,
    quarantine_key,
    quarantine_reason,
    quarantined_keys,
)

__all__ = [
    "GuardPolicy",
    "GUARD_MODES",
    "FaultPlan",
    "FaultRule",
    "install_plan",
    "clear_plan",
    "current_plan",
    "fire",
    "inject",
    "Incident",
    "record_incident",
    "incidents",
    "clear_incidents",
    "incident_summary",
    "set_incident_cap",
    "quarantine_key",
    "is_quarantined",
    "quarantine_reason",
    "quarantined_keys",
    "clear_quarantine",
    "SweepCheckpoint",
    "cell_key",
]
