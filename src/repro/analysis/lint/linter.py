"""The lint orchestrator — one entry point per program, one per registry.

:func:`lint_program` runs the four analysis families over one
:class:`~repro.trace.ir.Program` and returns a single
:class:`~repro.analysis.lint.diagnostics.LintReport`:

1. abstract interpretation over memory cells and registers
   (:mod:`.memory`),
2. pass-equivalence proofs for ``optimize`` levels 1 and 2 and the fusion
   preamble (:mod:`.equiv`),
3. static cost certification against the analytic stage tables
   (:mod:`.cost`) — when machine parameters are supplied,
4. emitted-code certification of every C/CUDA emission (:mod:`.codegen_lint`),
5. — opt-in — schedule certification of the native tiled/threaded kernels
   over the default tile grid (:mod:`repro.analysis.schedule`).

Structural errors short-circuit families 2–4: a program whose addresses are
out of bounds cannot be optimised, priced, or emitted (each of those paths
validates and raises), so the report carries the structural findings and a
note naming the skipped analyses.

:func:`lint_registry` sweeps the algorithm registry — every algorithm at
every registered size by default — deriving each program's input span from
its spec's input factory so the initialisation rules apply.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ...bulk.arrangement import Arrangement
from ...errors import EquivalenceError
from ...machine.params import MachineParams
from ...trace.ir import Program
from ...trace.optimize import (
    eliminate_dead_code,
    fold_constants,
    optimize,
)
from .codegen_lint import certify_program_codegen
from .cost import certify_cost
from .diagnostics import Diagnostic, LintReport, Severity
from .equiv import prove_equivalent
from .memory import check_memory
from .rules import diag

__all__ = ["lint_program", "lint_registry", "check_passes", "apply_suppressions"]


def apply_suppressions(
    program: Program, diagnostics: List[Diagnostic]
) -> List[Diagnostic]:
    """Collapse findings named by ``meta['lint_suppress']`` into notes.

    The meta value is ``{rule_id: justification}``.  Each suppressed rule's
    findings are replaced by one ``OBL-N603`` note carrying the count and
    the justification — the decision is auditable in every report, never
    silent.  ERROR findings are not suppressible (a broken certification
    must fail regardless of intent), and a malformed entry (unknown shape,
    empty justification) suppresses nothing but is itself noted.
    """
    suppress = program.meta.get("lint_suppress")
    if not isinstance(suppress, dict) or not suppress:
        return diagnostics
    out: List[Diagnostic] = []
    kept = diagnostics
    for rule_id, why in sorted(suppress.items()):
        if not isinstance(why, str) or not why.strip():
            out.append(diag(
                "OBL-N603",
                f"lint_suppress entry for {rule_id!r} ignored: the "
                f"justification must be a non-empty string",
                program=program.name,
            ))
            continue
        hits = [
            d for d in kept
            if d.rule_id == rule_id and d.severity is not Severity.ERROR
        ]
        if not hits:
            continue
        kept = [d for d in kept if d not in hits]
        out.append(diag(
            "OBL-N603",
            f"{len(hits)} {rule_id} finding(s) suppressed: {why.strip()}",
            program=program.name,
        ))
    return kept + out


def check_passes(program: Program) -> Tuple[List[Diagnostic], List[str]]:
    """Prove the optimisation pipeline preserves ``program``'s semantics.

    Runs ``optimize`` at both levels and the fusion preamble (the level-1
    cleanup :func:`~repro.bulk.fusion.compile_fused` applies before code
    emission), proving each output equivalent to the input with the
    symbolic value-numbering checker.  Level 1 and the fusion preamble must
    additionally preserve the access trace exactly.
    """
    out: List[Diagnostic] = []
    certs: List[str] = []
    name = program.name

    candidates = []
    for level in (1, 2):
        candidates.append(
            (optimize(program, level=level), level == 1, f"optimize(level={level})")
        )
    cleaned = eliminate_dead_code(
        fold_constants(list(program.instructions), program.dtype),
        remove_dead_loads=False,
    )
    candidates.append((
        Program(
            instructions=tuple(cleaned),
            num_registers=program.num_registers,
            memory_words=program.memory_words,
            dtype=program.dtype,
            name=f"{program.name}+fusion-preamble",
        ),
        True,
        "fusion preamble",
    ))

    for candidate, same_trace, label in candidates:
        try:
            proof = prove_equivalent(
                program, candidate, require_same_trace=same_trace
            )
        except EquivalenceError as exc:
            out.append(diag(
                "OBL-E202" if exc.kind == "trace" else "OBL-E201",
                f"{label}: {exc}",
                program=name,
                step=exc.step,
            ))
            continue
        certs.append(f"{label}: {proof.describe()}")
    return out, certs


def lint_program(
    program: Program,
    *,
    params: Optional[MachineParams] = None,
    machine: str = "umm",
    arrangement: Union[str, Arrangement] = "column",
    input_words: Optional[int] = None,
    passes: bool = True,
    codegen: bool = True,
    schedule: bool = False,
) -> LintReport:
    """Lint one program; returns the full report (never raises on findings).

    ``params`` enables cost certification (and sizes the native bulk
    emissions); ``input_words`` enables the initialisation rules;
    ``passes``/``codegen`` gate the corresponding analysis families.
    ``schedule`` additionally certifies the native tiled/threaded kernel
    schedule over the default tile grid (``OBL-S70x``); it needs
    ``params`` for the lane count ``p`` and warp width ``w`` — without
    them an ``OBL-N602`` note records the skip.
    """
    diagnostics, certificates = check_memory(program, input_words=input_words)
    structural = any(
        d.severity is Severity.ERROR and d.rule_id.startswith("OBL-E1")
        for d in diagnostics
    )
    if structural:
        diagnostics = list(diagnostics)
        diagnostics.append(diag(
            "OBL-N602",
            "structural errors present; pass-equivalence, cost, and "
            "codegen certification skipped",
            program=program.name,
        ))
    else:
        if passes:
            d, c = check_passes(program)
            diagnostics += d
            certificates += c
        if params is not None:
            _, d, c = certify_cost(
                program, params, arrangement=arrangement, machine=machine
            )
            diagnostics += d
            certificates += c
        if codegen:
            d, c = certify_program_codegen(
                program, p=params.p if params is not None else None
            )
            diagnostics += d
            certificates += c
        if schedule:
            if params is None:
                diagnostics.append(diag(
                    "OBL-N602",
                    "schedule certification skipped: machine parameters "
                    "(p, w) are required to size the native kernel",
                    program=program.name,
                ))
            else:
                from ..schedule import certify_schedule_family

                d, c = certify_schedule_family(
                    program,
                    arrangement=arrangement,
                    p=params.p,
                    w=params.w,
                )
                diagnostics += d
                certificates += c

    return LintReport(
        program=program.name,
        diagnostics=tuple(apply_suppressions(program, list(diagnostics))),
        certificates=tuple(certificates),
        meta={
            "instructions": program.num_instructions,
            "trace_length": program.trace_length,
            "memory_words": program.memory_words,
            "registers": program.num_registers,
            "dtype": str(program.dtype),
        },
    )


def lint_registry(
    names: Optional[Sequence[str]] = None,
    *,
    params: Optional[MachineParams] = None,
    machine: str = "umm",
    arrangement: Union[str, Arrangement] = "column",
    sizes: Optional[Sequence[int]] = None,
    passes: bool = True,
    codegen: bool = True,
    schedule: bool = False,
) -> List[LintReport]:
    """Lint registry algorithms at their registered sizes.

    ``names`` restricts the sweep (default: every algorithm); ``sizes``
    overrides each spec's size list.  The input span is derived from each
    spec's input factory (the packed width of one generated input), turning
    the initialisation rules on for every program.
    """
    from ...algorithms.registry import all_specs, get_spec

    specs = all_specs() if names is None else [get_spec(n) for n in names]
    rng = np.random.default_rng(0)
    reports: List[LintReport] = []
    for spec in specs:
        for n in (spec.sizes if sizes is None else sizes):
            program = spec.build(n)
            span = int(spec.make_inputs(rng, n, 1).shape[1])
            reports.append(lint_program(
                program,
                params=params,
                machine=machine,
                arrangement=arrangement,
                input_words=span,
                passes=passes,
                codegen=codegen,
                schedule=schedule,
            ))
    return reports
