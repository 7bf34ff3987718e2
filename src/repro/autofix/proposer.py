"""Materialise concrete candidates from lint fix-it hints.

Each fixable rule maps to one mechanical rewrite — exactly the
transformation its hint prescribes, applied to exactly the instructions the
diagnostics name:

``OBL-W501`` (dead load)
    drop the flagged ``Load``s — the loaded values are never read, so the
    access only burns trace steps.
``OBL-W502`` (dead store)
    drop the flagged ``Store``s — each is overwritten before any load
    observes it.
``OBL-W503`` (uninitialised scratch read)
    replace the flagged ``Load`` with ``Const 0`` — the cell is never
    written, so the load can only observe the engine zero-fill; the
    constant frees the trace step.
``OBL-W401`` (uncoalesced steps)
    re-arrange rather than rewrite: column-wise on the UMM (Theorem 3's
    coalesced optimum), a coprime-stride ``padded-row`` on the DMM when
    the hint prescribes padding.  The program itself is untouched.

The proposer is deliberately *untrusted*: it emits plausible candidates and
nothing more.  Every candidate must still survive :mod:`.verify`'s
equivalence proof, obliviousness cross-check and cost certification before
the rollout stage will even canary it — a wrong proposal costs a rejection,
never a wrong promotion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.lint.diagnostics import Diagnostic
from ..trace.ir import Const, Instruction, Load, Program, Store

__all__ = [
    "FIXABLE_RULES",
    "Proposal",
    "propose_fixes",
]

#: Rules the proposer can materialise a candidate for, in the deterministic
#: order proposals are emitted (IR rewrites first, re-arrangement last).
FIXABLE_RULES = ("OBL-W502", "OBL-W501", "OBL-W503", "OBL-W401")


@dataclass(frozen=True)
class Proposal:
    """One candidate fix: a rewritten program and/or a new arrangement.

    Attributes
    ----------
    kind:
        ``"dead-store-elision"``, ``"dead-load-elision"``,
        ``"const-zero"`` or ``"rearrange"``.
    rule_id:
        The lint rule whose findings this candidate fixes.
    program:
        The candidate program (identical to the incumbent for pure
        re-arrangement proposals).
    arrangement:
        Arrangement name the candidate should run under.
    description:
        Human-readable one-liner for reports and incidents.
    indices:
        Incumbent instruction indices the rewrite touched (empty for
        re-arrangement).
    """

    kind: str
    rule_id: str
    program: Program
    arrangement: str
    description: str
    indices: Tuple[int, ...] = ()


def _rewrite(
    program: Program,
    replacements: Dict[int, Optional[Instruction]],
    suffix: str,
) -> Program:
    """A copy of ``program`` with index->instruction replacements applied
    (``None`` drops the instruction).  Not validated here — the verifier
    owns rejection."""
    instrs: List[Instruction] = []
    for idx, instr in enumerate(program.instructions):
        if idx in replacements:
            replacement = replacements[idx]
            if replacement is not None:
                instrs.append(replacement)
        else:
            instrs.append(instr)
    if not instrs:
        instrs = [Const(rd=0, imm=0)]
    return Program(
        instructions=tuple(instrs),
        num_registers=program.num_registers,
        memory_words=program.memory_words,
        dtype=program.dtype,
        name=f"{program.name}+{suffix}",
        meta=dict(program.meta),
        outputs=program.outputs,
    )


def _flagged_indices(
    diagnostics: Sequence[Diagnostic], rule_id: str
) -> List[int]:
    return sorted({
        d.index for d in diagnostics
        if d.rule_id == rule_id and d.index is not None
    })


def propose_fixes(
    program: Program,
    diagnostics: Sequence[Diagnostic],
    *,
    arrangement: str = "column",
    machine: str = "umm",
) -> List[Proposal]:
    """Candidates for every fixable finding in ``diagnostics``.

    ``arrangement``/``machine`` name the configuration the diagnostics were
    produced under — the re-arrangement proposal needs to know what it is
    moving *away from*.  Suppressed findings (already collapsed to
    ``OBL-N603`` notes by the linter) never reach this function, so an
    audited, deliberate access pattern is never "fixed" behind its author's
    back.
    """
    out: List[Proposal] = []

    stores = _flagged_indices(diagnostics, "OBL-W502")
    if stores:
        ok = [i for i in stores
              if 0 <= i < len(program.instructions)
              and isinstance(program.instructions[i], Store)]
        if ok:
            out.append(Proposal(
                kind="dead-store-elision",
                rule_id="OBL-W502",
                program=_rewrite(program, {i: None for i in ok}, "fixW502"),
                arrangement=arrangement,
                description=(
                    f"drop {len(ok)} shadowed store(s) at instr "
                    f"{', '.join(map(str, ok))}"
                ),
                indices=tuple(ok),
            ))

    loads = _flagged_indices(diagnostics, "OBL-W501")
    if loads:
        ok = [i for i in loads
              if 0 <= i < len(program.instructions)
              and isinstance(program.instructions[i], Load)]
        if ok:
            out.append(Proposal(
                kind="dead-load-elision",
                rule_id="OBL-W501",
                program=_rewrite(program, {i: None for i in ok}, "fixW501"),
                arrangement=arrangement,
                description=(
                    f"drop {len(ok)} dead load(s) at instr "
                    f"{', '.join(map(str, ok))}"
                ),
                indices=tuple(ok),
            ))

    uninit = _flagged_indices(diagnostics, "OBL-W503")
    if uninit:
        zero = np.dtype(program.dtype).type(0).item()
        replacements: Dict[int, Optional[Instruction]] = {}
        for i in uninit:
            if 0 <= i < len(program.instructions):
                instr = program.instructions[i]
                if isinstance(instr, Load):
                    replacements[i] = Const(rd=instr.rd, imm=zero)
        if replacements:
            ok = sorted(replacements)
            out.append(Proposal(
                kind="const-zero",
                rule_id="OBL-W503",
                program=_rewrite(program, replacements, "fixW503"),
                arrangement=arrangement,
                description=(
                    f"replace {len(ok)} uninitialised-scratch load(s) with "
                    f"`Const 0` at instr {', '.join(map(str, ok))}"
                ),
                indices=tuple(ok),
            ))

    uncoalesced = [d for d in diagnostics if d.rule_id == "OBL-W401"]
    if uncoalesced:
        # The hint's two prescriptions (cost.py): column-wise re-arrangement
        # for UMM address grouping; a coprime row stride (padded-row) for
        # DMM bank conflicts when the hint says padding helps, else column.
        hint = (uncoalesced[0].hint or "").lower()
        if machine.lower() == "dmm" and "padded" in hint:
            target = "padded-row"
        else:
            target = "column"
        if target != arrangement:
            out.append(Proposal(
                kind="rearrange",
                rule_id="OBL-W401",
                program=program,
                arrangement=target,
                description=(
                    f"re-arrange {arrangement}-wise inputs {target}-wise "
                    f"({len(uncoalesced)} uncoalesced-step finding(s))"
                ),
            ))

    return out
