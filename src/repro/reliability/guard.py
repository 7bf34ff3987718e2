"""Guard policy for cross-backend spot-checking of native kernels.

Oblivious programs make verification unusually cheap: the address trace is
input-independent, so *any* lane of a bulk run exercises exactly the same
instruction stream as every other lane.  Re-running a small sample of lanes
through an independent reference and demanding **bit identity** is
therefore a real end-to-end check of the compiled kernel (codegen, compiler
flags, the cache artefact, the ctypes binding).

The reference is the program's IR replay (:mod:`repro.trace.replay`):
straight-line Python generated from the IR — never from the C — and
compiled once per program per process.  Its semantic table (int64
wraparound, zero and ``MIN/-1`` divisors, shift counts outside [0, 64),
NaN-propagating float ``MIN``/``MAX``) is NumPy's, which the C prelude
follows too.  A guarded run therefore costs ``sample`` passes over
straight-line code, with no fixed per-instruction dispatch.

:class:`GuardPolicy` is pure configuration; the mechanics (sampling,
comparison, quarantine, fallback) live in
:class:`repro.bulk.engine.BulkExecutor`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Union

from ..errors import ExecutionError

__all__ = ["GuardPolicy", "GUARD_MODES"]

#: Accepted guard modes: ``off`` (trust the backend), ``spot`` (sampled-lane
#: bit-identity check after every guarded run).
GUARD_MODES = ("off", "spot")


@dataclass(frozen=True)
class GuardPolicy:
    """How a :class:`~repro.bulk.engine.BulkExecutor` guards native runs.

    Attributes
    ----------
    mode:
        ``"spot"`` re-checks ``sample`` lanes per run; ``"off"`` disables
        checking (construction-time load failures are still handled).
    sample:
        Lanes re-executed through the program's IR replay per guarded run
        (clamped to ``p``); each costs one pass over the generated
        straight-line code.
    seed:
        Seed of the lane sampler — deterministic, so a failing run is
        reproducible bit for bit.
    fallback:
        Degrade to the NumPy backend on failure (quarantining the kernel)
        instead of raising.  ``False`` turns every guard trip into a
        :class:`~repro.errors.BackendError` for callers that prefer to die.
    """

    mode: str = "spot"
    sample: int = 4
    seed: int = 0
    fallback: bool = True

    def __post_init__(self) -> None:
        if self.mode not in GUARD_MODES:
            raise ExecutionError(
                f"unknown guard mode {self.mode!r}; expected one of {GUARD_MODES}"
            )
        if self.sample < 1:
            raise ExecutionError(f"guard sample must be >= 1, got {self.sample}")

    @property
    def checking(self) -> bool:
        """Does this policy spot-check outputs (vs only guarding load)?"""
        return self.mode == "spot"

    def sample_lanes(self, p: int, round_index: int = 0) -> List[int]:
        """Deterministic sorted lane sample for run ``round_index``.

        A fresh derived seed per round walks different lanes across a
        session's batches while staying reproducible.
        """
        k = min(self.sample, p)
        rng = random.Random(f"{self.seed}:{round_index}")
        return sorted(rng.sample(range(p), k))

    @classmethod
    def coerce(
        cls, guard: Union[None, str, "GuardPolicy"]
    ) -> Optional["GuardPolicy"]:
        """Normalise the executor's ``guard=`` argument.

        ``None``/``"off"`` → ``None`` (unguarded), ``"spot"`` → defaults,
        a :class:`GuardPolicy` passes through (``mode="off"`` collapses to
        ``None``).
        """
        if guard is None:
            return None
        if isinstance(guard, str):
            if guard == "off":
                return None
            return cls(mode=guard)
        if isinstance(guard, GuardPolicy):
            return guard if guard.mode != "off" else None
        raise ExecutionError(
            f"guard must be None, a mode string {GUARD_MODES}, or a "
            f"GuardPolicy; got {guard!r}"
        )
