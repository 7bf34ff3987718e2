"""The canary + promote stage: trust, but verify on real machinery.

The verifier's proof covers the *program*; the canary covers everything the
proof cannot — the executor, the arrangement's pack/unpack, the compiled
kernel artefact when the backend is native.  The candidate runs a full bulk
batch on the requested backend while a deterministic
:class:`~repro.reliability.guard.GuardPolicy` lane sample is re-derived on
the *sequential interpreter from the incumbent program* — the most
independent reference the library has — demanding bit identity.

Outcomes are the promotion state machine's two terminal edges:

* **promote** — the candidate is installed in the process-level
  :class:`~repro.autofix.store.PromotionStore` (atomically: one dict write
  under the store lock) and a ``"promotion"`` incident is recorded.  Every
  later :class:`~repro.bulk.engine.BulkExecutor` built for the incumbent
  ``(program, arrangement)`` — including serve shards — transparently runs
  the candidate.
* **quarantine** — a rejected verdict or a canary mismatch records a
  ``"rollback"`` incident, quarantines the candidate's compiled-kernel
  cache key (when one exists) so nothing ever loads that artefact again,
  and leaves the incumbent untouched.  A failed fix is an incident, not an
  outage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..reliability.guard import GuardPolicy
from ..reliability.incidents import record_incident
from ..reliability.quarantine import quarantine_key
from ..trace.interpreter import run_sequential
from ..trace.ir import Program
from .store import Promotion, program_fingerprint, promotion_store
from .verify import Verdict

__all__ = ["CanaryResult", "rollout_candidate"]

#: Fault-site name used in incidents this module records.
SITE = "autofix.rollout"


@dataclass(frozen=True)
class CanaryResult:
    """Terminal state of one candidate's rollout.

    Attributes
    ----------
    verdict:
        The verifier ruling that gated the canary.
    promoted:
        True only when the candidate was installed in the promotion store.
    stage:
        ``"verify"`` (rejected before any canary ran), ``"canary"``
        (bit-identity mismatch on sampled lanes) or ``"promoted"``.
    detail:
        Human-readable one-liner (mirrors the recorded incident).
    promotion:
        The installed :class:`~repro.autofix.store.Promotion` on success.
    canary_key:
        Codegen cache key of the candidate kernel compiled during the
        canary (``None`` on the NumPy backend); quarantined on mismatch.
    lanes:
        The sampled lanes the bit-identity check covered.
    """

    verdict: Verdict
    promoted: bool
    stage: str
    detail: str
    promotion: Optional[Promotion] = None
    canary_key: Optional[str] = None
    lanes: Tuple[int, ...] = ()

    def describe(self) -> str:
        return f"{self.stage}: {self.detail}"


def _canary_inputs(
    program: Program, p: int, input_words: Optional[int], seed: int
) -> np.ndarray:
    """A deterministic ``(p, span)`` random batch in the program dtype."""
    span = program.memory_words if input_words is None else int(input_words)
    span = max(1, min(span, program.memory_words))
    rng = np.random.default_rng(seed)
    dtype = np.dtype(program.dtype)
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return rng.integers(
            info.min, info.max, size=(p, span), dtype=dtype, endpoint=True
        )
    return rng.standard_normal((p, span)).astype(dtype)


def rollout_candidate(
    incumbent: Program,
    verdict: Verdict,
    *,
    p: int = 64,
    from_arrangement: str = "column",
    input_words: Optional[int] = None,
    backend: str = "numpy",
    guard: Optional[GuardPolicy] = None,
    seed: int = 0,
    original_fingerprint: Optional[str] = None,
    rule_ids: Optional[Tuple[str, ...]] = None,
) -> CanaryResult:
    """Canary ``verdict``'s candidate against ``incumbent`` and promote it.

    ``original_fingerprint`` keys the installed promotion (defaults to the
    incumbent's own fingerprint) — the pipeline passes the *original*
    program's fingerprint when chaining several rewrites so the final
    candidate replaces what executors actually ask for.  ``rule_ids``
    likewise defaults to the single rule the verdict's proposal fixes.
    """
    proposal = verdict.proposal
    fingerprint = original_fingerprint or program_fingerprint(incumbent)
    rules = rule_ids if rule_ids is not None else (proposal.rule_id,)

    if not verdict.accepted:
        detail = (
            f"candidate for {incumbent.name!r} rejected at the "
            f"{verdict.gate} gate: {verdict.reason}"
        )
        record_incident("rollback", SITE, detail)
        return CanaryResult(
            verdict=verdict, promoted=False, stage="verify", detail=detail
        )

    candidate = proposal.program
    if candidate.output_ranges != incumbent.output_ranges:
        detail = (
            f"candidate {candidate.name!r} declares outputs "
            f"{list(candidate.output_ranges)} but {incumbent.name!r} returns "
            f"{list(incumbent.output_ranges)}; incumbent retained"
        )
        record_incident("rollback", SITE, detail)
        return CanaryResult(
            verdict=verdict, promoted=False, stage="canary", detail=detail
        )

    # Build the candidate's executor with a pinned Arrangement instance so
    # the engine's own promotion resolution cannot recurse into this canary.
    from ..bulk.arrangement import make_arrangement
    from ..bulk.engine import BulkExecutor

    arrangement = make_arrangement(
        proposal.arrangement, candidate.memory_words, p
    )
    policy = GuardPolicy.coerce(guard) or GuardPolicy(seed=seed)
    inputs = _canary_inputs(incumbent, p, input_words, seed)

    executor = BulkExecutor(
        candidate, p, arrangement, backend=backend, guard=policy
    )
    try:
        canary_key = (
            executor._native.cache_key if executor._native is not None else None
        )
        outputs = executor.run(inputs).outputs
    finally:
        executor.close()

    # Bit-identity spot check against the sequential interpreter running
    # the *incumbent* — a reference independent of every bulk code path.
    lanes = tuple(policy.sample_lanes(p, 0))
    for lane in lanes:
        mem = np.zeros(incumbent.memory_words, dtype=incumbent.dtype)
        mem[: inputs.shape[1]] = inputs[lane]
        memory = run_sequential(incumbent, mem, collect_trace=False).memory
        words = incumbent.output_index()
        want = memory[words]
        if want.tobytes() != outputs[lane].tobytes():
            bad = int(words[np.nonzero(want != outputs[lane])[0][0]])
            detail = (
                f"canary mismatch for {incumbent.name!r}: lane {lane} word "
                f"{bad} disagrees with the sequential reference "
                f"(candidate {candidate.name!r}, {proposal.arrangement}-wise,"
                f" backend {backend}); incumbent retained"
            )
            quarantine_key(canary_key, detail)
            record_incident("rollback", SITE, detail, key=canary_key)
            return CanaryResult(
                verdict=verdict,
                promoted=False,
                stage="canary",
                detail=detail,
                canary_key=canary_key,
                lanes=lanes,
            )

    promotion = Promotion(
        fingerprint=fingerprint,
        from_arrangement=from_arrangement,
        program=candidate,
        arrangement=proposal.arrangement,
        rule_ids=rules,
        cost_before=verdict.cost_before,
        cost_after=verdict.cost_after,
        canary_key=canary_key,
    )
    promotion_store().install(promotion)
    detail = (
        f"promoted {candidate.name!r} over {incumbent.name!r} "
        f"[{from_arrangement} -> {proposal.arrangement}]: fixes "
        f"{','.join(rules)}, certified {verdict.cost_before:,} -> "
        f"{verdict.cost_after:,} time units, canary bit-identical on "
        f"{len(lanes)} of {p} lanes"
    )
    record_incident("promotion", SITE, detail, key=canary_key)
    return CanaryResult(
        verdict=verdict,
        promoted=True,
        stage="promoted",
        detail=detail,
        promotion=promotion,
        canary_key=canary_key,
        lanes=lanes,
    )
