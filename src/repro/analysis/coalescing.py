"""Coalescing analysis of bulk address traces.

The paper's whole premise is that *coalesced* access (one address group per
warp) is the difference between `O(pt/w)` and `O(pt)`.  This module turns a
program + arrangement into the diagnostics a practitioner would want before
running on real hardware:

* per-step address-group counts and their distribution,
* the fraction of perfectly coalesced steps,
* the bandwidth efficiency (useful words per occupied pipeline stage),
* the hottest steps — where a kernel loses its time.

Everything is computed from the static trace (obliviousness!), vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np

from ..bulk.arrangement import Arrangement, make_arrangement
from ..bulk.simulate import step_stages
from ..machine.params import MachineParams
from ..machine.umm import UMM
from ..trace.ir import Program

__all__ = ["CoalescingReport", "analyze_coalescing"]


@dataclass(frozen=True)
class CoalescingReport:
    """Static coalescing diagnostics of one bulk configuration.

    Attributes
    ----------
    params:
        The machine the trace was analysed for.
    arrangement:
        ``"row"`` or ``"column"``.
    step_stages:
        Total pipeline stages occupied at each of the ``t`` steps.
    min_stages:
        The coalesced optimum per step, ``p/w``.
    """

    params: MachineParams
    arrangement: str
    step_stages: np.ndarray
    min_stages: int

    @property
    def num_steps(self) -> int:
        return int(self.step_stages.size)

    @property
    def coalesced_fraction(self) -> float:
        """Fraction of steps occupying the minimum ``p/w`` stages."""
        if self.num_steps == 0:
            return 1.0
        return float((self.step_stages == self.min_stages).mean())

    @property
    def bandwidth_efficiency(self) -> float:
        """Useful words per occupied stage, relative to the width ``w``.

        1.0 means every pipeline stage carried ``w`` useful words (perfect
        coalescing); ``1/w`` means one word per stage (fully scattered).
        """
        total = int(self.step_stages.sum())
        if total == 0:
            return 1.0
        useful = self.num_steps * self.params.p
        return useful / (total * self.params.w)

    @property
    def mean_stages_per_step(self) -> float:
        return float(self.step_stages.mean()) if self.num_steps else 0.0

    def worst_steps(self, k: int = 5) -> List[Tuple[int, int]]:
        """The ``k`` most expensive steps as ``(step index, stages)``."""
        if self.num_steps == 0:
            return []
        order = np.argsort(self.step_stages)[::-1][:k]
        return [(int(i), int(self.step_stages[i])) for i in order]

    def histogram(self) -> Dict[int, int]:
        """``{stage count: number of steps}``."""
        vals, counts = np.unique(self.step_stages, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        return (
            f"{self.arrangement}-wise trace of {self.num_steps} steps on "
            f"{self.params.describe()}: "
            f"{self.coalesced_fraction:.1%} of steps perfectly coalesced, "
            f"bandwidth efficiency {self.bandwidth_efficiency:.1%}, "
            f"mean {self.mean_stages_per_step:.1f} stages/step "
            f"(optimum {self.min_stages})"
        )


def analyze_coalescing(
    program: Program,
    params: MachineParams,
    arrangement: Union[str, Arrangement] = "column",
) -> CoalescingReport:
    """Analyse how well ``program`` coalesces under ``arrangement``.

    The per-step stage counts come from the cost simulator's own pricing
    path (:func:`~repro.bulk.simulate.step_stages` on the UMM), so
    ``report.step_stages.sum() + (l-1)·t`` equals the simulated total time.
    """
    arr = make_arrangement(arrangement, program.memory_words, params.p)
    stages, _ = step_stages(program.address_trace(), arr, UMM(params))
    return CoalescingReport(
        params=params,
        arrangement=arr.name,
        step_stages=stages,
        min_stages=params.num_warps,
    )
