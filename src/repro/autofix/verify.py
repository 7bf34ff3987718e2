"""The prove stage: no candidate reaches a canary without passing here.

Verification is three independent gates, in increasing order of cost, and
the verdict records exactly which gate a rejected candidate died at:

``structure``
    :meth:`~repro.trace.ir.Program.validate` — the proposer is untrusted,
    so a candidate that is not even a well-formed program is rejected
    before anything touches it.
``equivalence``
    :func:`~repro.analysis.lint.equiv.prove_equivalent` — the symbolic
    value-numbering proof that the candidate's final memory matches the
    incumbent's, cell for cell.  The ``input_words`` span (when known)
    models the engine zero-fill, which is what licenses the ``OBL-W503``
    ``Const 0`` rewrite; without it that proposal is *rejected*, never
    admitted unsoundly.  Backed by the obliviousness checker's dynamic
    cross-check (:func:`~repro.trace.checker.check_program_semantics`)
    running both programs on random inputs — defense in depth against a
    prover bug, not a substitute for the proof.
``cost``
    :func:`~repro.analysis.lint.cost.certify_cost` on both configurations
    under the same machine parameters.  The analytic price must *strictly*
    improve; a rewrite that merely breaks even is rejected — churning the
    kernel cache for nothing is a cost, and "no worse" is not what the
    pipeline promises operators.

A rejection is a returned :class:`Verdict`, not an exception: the rollout
stage turns it into a ``rollback`` incident and the incumbent stays
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.lint.cost import certify_cost
from ..analysis.lint.equiv import EquivalenceProof, prove_equivalent
from ..errors import EquivalenceError, ObliviousnessError, ProgramError
from ..machine.params import MachineParams
from ..trace.checker import check_program_semantics
from ..trace.interpreter import run_sequential
from ..trace.ir import Program
from .proposer import Proposal

__all__ = ["Verdict", "verify_proposal"]


@dataclass(frozen=True)
class Verdict:
    """The verifier's ruling on one proposal.

    Attributes
    ----------
    proposal:
        The candidate judged.
    accepted:
        True only when every gate passed.
    gate:
        The gate that decided: ``"structure"``, ``"equivalence"``,
        ``"semantics"``, ``"cost"`` for rejections, ``"accepted"``
        otherwise.
    reason:
        Human-readable one-liner (proof summary / certified saving).
    proof:
        The equivalence proof object, when that gate ran to completion.
    cost_before / cost_after:
        Certified analytic bulk time of incumbent and candidate (0 until
        the cost gate runs).
    """

    proposal: Proposal
    accepted: bool
    gate: str
    reason: str
    proof: Optional[EquivalenceProof] = None
    cost_before: int = 0
    cost_after: int = 0

    @property
    def improvement(self) -> int:
        return self.cost_before - self.cost_after

    def describe(self) -> str:
        status = "accept" if self.accepted else f"reject at {self.gate}"
        return f"{status}: {self.proposal.description} — {self.reason}"


def _reject(proposal: Proposal, gate: str, reason: str, **kw) -> Verdict:
    return Verdict(
        proposal=proposal, accepted=False, gate=gate, reason=reason, **kw
    )


def _random_inputs(program: Program, input_words: Optional[int]):
    """An input factory for the dynamic cross-check, dtype-appropriate."""
    words = program.memory_words if input_words is None else int(input_words)
    words = max(1, min(words, program.memory_words))
    dtype = np.dtype(program.dtype)
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)

        def factory(rng: np.random.Generator):
            return rng.integers(
                info.min, info.max, size=words, dtype=dtype, endpoint=True
            )
    else:

        def factory(rng: np.random.Generator):
            return rng.standard_normal(words).astype(dtype)

    return factory


def verify_proposal(
    incumbent: Program,
    proposal: Proposal,
    *,
    params: MachineParams,
    machine: str = "umm",
    from_arrangement: str = "column",
    input_words: Optional[int] = None,
    trials: int = 4,
    seed: int = 0,
) -> Verdict:
    """Judge ``proposal`` against ``incumbent``; never raises on rejection.

    ``from_arrangement`` names the incumbent's arrangement (the
    configuration whose cost the candidate must beat); ``input_words`` is
    the packed input span when the caller knows it — cells at or beyond it
    are engine-zero-filled, which both the equivalence proof and the
    dynamic cross-check's inputs then model.
    """
    candidate = proposal.program

    # Gate 1: structure.
    try:
        candidate.validate()
    except ProgramError as exc:
        return _reject(proposal, "structure", f"invalid candidate: {exc}")

    # Gate 2: symbolic equivalence (skipped only when the candidate *is*
    # the incumbent — a pure re-arrangement cannot change semantics).
    proof: Optional[EquivalenceProof] = None
    if candidate is not incumbent:
        try:
            proof = prove_equivalent(
                incumbent,
                candidate,
                raise_on_mismatch=False,
                zero_from=input_words,
            )
        except EquivalenceError as exc:
            return _reject(proposal, "equivalence", str(exc))
        if not proof.equivalent:
            return _reject(
                proposal, "equivalence", proof.describe(), proof=proof
            )

        # Dynamic cross-check: both programs on shared random inputs.
        span = (
            incumbent.memory_words if input_words is None else int(input_words)
        )

        def reference(inp: np.ndarray) -> np.ndarray:
            mem = np.zeros(incumbent.memory_words, dtype=incumbent.dtype)
            mem[: inp.size] = inp
            return run_sequential(incumbent, mem, collect_trace=False).memory

        def candidate_input(rng: np.random.Generator):
            inp = _random_inputs(incumbent, span)(rng)
            mem = np.zeros(candidate.memory_words, dtype=candidate.dtype)
            mem[: inp.size] = inp
            return mem

        try:
            check_program_semantics(
                candidate,
                reference,
                candidate_input,
                trials=max(2, trials),
                seed=seed,
            )
        except ObliviousnessError as exc:
            return _reject(
                proposal,
                "semantics",
                f"dynamic cross-check disagrees with the proof: {exc}",
                proof=proof,
            )

    # Gate 3: the analytic price must strictly improve.
    cert_before, diags_before, _ = certify_cost(
        incumbent, params, from_arrangement, machine
    )
    cert_after, diags_after, _ = certify_cost(
        candidate, params, proposal.arrangement, machine
    )
    errors = [
        d for d in (*diags_before, *diags_after) if d.rule_id == "OBL-E401"
    ]
    if errors:
        return _reject(
            proposal,
            "cost",
            f"cost certification failed: {errors[0].message}",
            proof=proof,
        )
    if cert_before is None or cert_after is None:
        return _reject(
            proposal,
            "cost",
            "no analytic closed form for this configuration; refusing to "
            "promote an unpriceable rewrite",
            proof=proof,
        )
    before, after = cert_before.total_time, cert_after.total_time
    if after >= before:
        return _reject(
            proposal,
            "cost",
            f"analytic price does not improve: {before:,} -> {after:,} "
            "time units",
            proof=proof,
            cost_before=before,
            cost_after=after,
        )

    return Verdict(
        proposal=proposal,
        accepted=True,
        gate="accepted",
        reason=(
            f"proven equivalent; certified {before:,} -> {after:,} time "
            f"units ({before - after:,} saved per bulk run)"
        ),
        proof=proof,
        cost_before=before,
        cost_after=after,
    )
