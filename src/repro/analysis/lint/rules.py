"""The rule catalog — stable IDs, default severities, and descriptions.

Every diagnostic the linter can emit is declared here, once, with a stable
ID that tests, SARIF consumers, and the docs (``docs/LINT.md``) key on.
The numbering groups rules by analysis family:

* ``OBL-E1xx`` — structural certification (bounds, registers, dtypes),
* ``OBL-E2xx`` — pass-equivalence proofs (optimize / fusion guards),
* ``OBL-E3xx`` — emitted-code certification (C / CUDA sources),
* ``OBL-E4xx`` — cost certification against :mod:`repro.machine.analytic`,
* ``OBL-W4xx/W5xx`` — performance and dead-work warnings,
* ``OBL-N6xx`` — informational notes,
* ``OBL-S7xx`` — schedule certification of the native tiled/threaded
  kernels (:mod:`repro.analysis.schedule`).

IDs are never reused or renumbered; a retired rule keeps its ID reserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .diagnostics import Diagnostic, Severity

__all__ = ["Rule", "RULES", "all_rules", "get_rule", "diag"]


@dataclass(frozen=True)
class Rule:
    """One catalog entry.

    Attributes
    ----------
    id:
        Stable identifier (``OBL-…``); the public contract.
    name:
        Short kebab-case mnemonic, used in SARIF and the docs.
    severity:
        Default severity of findings from this rule.
    summary:
        One-line statement of what a finding means.
    description:
        Full explanation including why the property matters for the
        paper's cost theory and what a fix looks like.
    """

    id: str
    name: str
    severity: Severity
    summary: str
    description: str


_CATALOG: Tuple[Rule, ...] = (
    # -- structural certification (abstract interpretation) -------------------
    Rule(
        "OBL-E101", "oob-address", Severity.ERROR,
        "a Load/Store address lies outside the program's memory",
        "Every memory operand must satisfy 0 <= addr < memory_words; an "
        "out-of-bounds address would corrupt a neighbouring input's lane in "
        "a bulk buffer.  Obliviousness makes this statically decidable: "
        "addresses are compile-time integers, so the in-bounds property is "
        "proved (not sampled) by scanning the instruction list.",
    ),
    Rule(
        "OBL-E102", "register-range", Severity.ERROR,
        "a register operand lies outside the allocated register file",
        "Register operands must satisfy 0 <= r < num_registers; anything "
        "else indexes past the bulk engine's (num_registers, p) register "
        "file.  Usually a register-allocation bug in a generated program.",
    ),
    Rule(
        "OBL-E103", "use-before-def", Severity.ERROR,
        "a register is read before any instruction defines it",
        "Engines zero-fill the register file, so a use-before-def reads 0 — "
        "legal at run time but almost always a lowering bug, and it makes "
        "program meaning depend on an engine convention rather than the IR. "
        "Define the register (Const/Load) before its first use.",
    ),
    Rule(
        "OBL-E104", "dtype-op", Severity.ERROR,
        "a bitwise opcode is applied in a float program",
        "AND/OR/XOR/SHL/SHR/NOT require an integer program dtype; NumPy, "
        "the C emitter, and the CUDA emitter all reject them on floats, so "
        "the program cannot execute on any backend.",
    ),
    # -- pass-equivalence proofs ----------------------------------------------
    Rule(
        "OBL-E201", "pass-inequivalence", Severity.ERROR,
        "an optimisation pass changed the program's final memory",
        "The symbolic value-numbering checker proves optimize()/fusion "
        "rewrites preserve every final memory cell as an exact symbolic "
        "function of the initial memory.  A finding means the pass output "
        "computes a *different* function — a miscompilation, caught before "
        "any execution.",
    ),
    Rule(
        "OBL-E202", "trace-change", Severity.ERROR,
        "a trace-preserving pass changed the access function a(i)",
        "optimize(level=1) contracts to preserve the address trace exactly "
        "(so all UMM/DMM cost results carry over).  A finding means the "
        "trace length or some a(i) changed — the pass is pricing a "
        "different algorithm than it returned.",
    ),
    # -- emitted-code certification -------------------------------------------
    Rule(
        "OBL-E301", "codegen-address", Severity.ERROR,
        "an emitted address literal disagrees with the static trace",
        "Every mem[...] access in generated C/CUDA must carry the same "
        "compile-time address, in the same order, as the IR's Load/Store "
        "sequence.  A mismatch means the emitted kernel touches different "
        "cells than the program that was priced and verified.",
    ),
    Rule(
        "OBL-E302", "codegen-data-branch", Severity.ERROR,
        "emitted code branches (or accesses memory) under a data condition",
        "Constant-time codegen: emitted control flow may depend only on "
        "loop counters and the thread id, never on register values; and a "
        "conditional expression must not guard a memory access.  Data-"
        "dependent branches break both obliviousness and the constant-time "
        "property the trace certification rests on.",
    ),
    Rule(
        "OBL-E303", "codegen-access-count", Severity.ERROR,
        "the emitted source's memory-access count is not a whole number of traces",
        "A translation unit repeats the program body once per emitted "
        "function, so its mem[...] count must be an exact multiple of the "
        "trace length t.  Any other count means accesses were added or "
        "dropped by the emitter.",
    ),
    # -- cost certification ----------------------------------------------------
    Rule(
        "OBL-E401", "cost-table-mismatch", Severity.ERROR,
        "the span table derived from the IR disagrees with machine.analytic",
        "The linter derives each residue class's address-group/bank-conflict "
        "stage count directly from the arrangement's address map and "
        "cross-checks it against the closed-form stage tables the analytic "
        "pricer uses.  A mismatch means one of the two cost paths is "
        "mispricing bulk steps.",
    ),
    Rule(
        "OBL-W401", "uncoalesced-steps", Severity.WARNING,
        "bulk steps occupy more pipeline stages than the coalesced optimum",
        "Steps whose stage count exceeds p/w pay the paper's non-coalesced "
        "penalty (Theorem 2's O(pt) worst case).  The hint names the fix: "
        "a column-wise arrangement on the UMM, or a row stride coprime to "
        "w (padding) on the DMM.",
    ),
    # -- dead-work warnings ----------------------------------------------------
    Rule(
        "OBL-W501", "dead-load", Severity.WARNING,
        "a Load's value is never read before the register is redefined",
        "The load still costs one trace step (memory accesses are the only "
        "priced operations), so a dead load inflates t — and the bulk cost "
        "p/w + l - 1 per step — for nothing.  optimize(level=2) removes it.",
    ),
    Rule(
        "OBL-W502", "dead-store", Severity.WARNING,
        "a Store is overwritten before any load observes it",
        "The shadowed store costs a full bulk step yet no load and no final "
        "memory cell can see its value.  optimize(level=2) removes it.",
    ),
    Rule(
        "OBL-W503", "uninit-read", Severity.WARNING,
        "a Load reads a scratch cell that no Store ever writes",
        "The cell is beyond the input span and never written anywhere in "
        "the program, so the load can only ever observe the engine's "
        "zero-fill — a constant that should be a Const instruction, not a "
        "priced memory access (and a likely off-by-one in the layout).",
    ),
    Rule(
        "OBL-W504", "dead-code", Severity.WARNING,
        "a register computation's result never reaches any Store",
        "Local work is free in the paper's accounting but not in real "
        "engines (one vector op per instruction).  optimize(level=1) "
        "removes dead register code; a finding usually marks a lowering "
        "leftover.",
    ),
    # -- notes ------------------------------------------------------------------
    Rule(
        "OBL-N601", "zero-fill-read", Severity.NOTE,
        "a Load reads a scratch cell before its first Store",
        "The read observes the engine's documented zero-fill.  Legal and "
        "sometimes intentional (zero seeds), but worth knowing: the "
        "program's meaning depends on the zero-initialisation contract.",
    ),
    Rule(
        "OBL-N602", "analysis-skipped", Severity.NOTE,
        "an analysis could not run for this program/configuration",
        "E.g. cost certification on a non-library arrangement or machine, "
        "or codegen certification on an unsupported dtype.  The lint run "
        "is still valid; the named certificate is simply absent.",
    ),
    Rule(
        "OBL-N603", "findings-suppressed", Severity.NOTE,
        "warning findings were suppressed by the program's lint_suppress meta",
        "A program may declare ``meta['lint_suppress'] = {rule_id: "
        "justification}`` when a warned-about pattern is intentional — e.g. "
        "per-round write-backs that are part of the algorithm's published "
        "access trace.  Suppressed findings collapse into one note carrying "
        "the count and the justification, so the decision stays visible in "
        "every report.  ERROR findings are never suppressible.",
    ),
    # -- schedule certification (native tiled/threaded kernels) ----------------
    Rule(
        "OBL-S701", "schedule-unproven", Severity.ERROR,
        "the tiled/threaded schedule could not be proven trace-preserving",
        "The schedule certifier symbolically replays the emitted kernel's "
        "tile/chunk/spill decomposition per lane and proves it reproduces "
        "the sequential reference trace: chunks called in program order, "
        "every access at the IR's address, every store carrying the exact "
        "symbolic value the reference computes, registers round-tripping "
        "the spill slab intact.  A finding means some step of that proof "
        "failed — a dropped or duplicated instruction at a chunk boundary, "
        "a reordered chunk call, a spilled register lost across chunks, a "
        "mis-zeroed register slab, a slab whose words [k, WORDS) or absent "
        "ragged-tile lanes are not zeroed before the chunks run, a gather "
        "or scatter that misses words or runs on the wrong side of the "
        "chunks, a kernel-frame line carrying one of these obligations "
        "missing, changed or compiled only under an #if the frame does not "
        "have, a line the frame lacks, or a span cross-check disagreement "
        "— so the "
        "fast path computes something other than the program that was "
        "priced and verified.",
    ),
    Rule(
        "OBL-S702", "cross-tile-write-overlap", Severity.ERROR,
        "the tile decomposition is not an exact partition of the lanes",
        "Race freedom of the emitted `#pragma omp parallel for` rests on "
        "distinct tiles owning disjoint lane ranges whose writes cannot "
        "alias.  Overlapping tile bounds mean two OpenMP threads may store "
        "to the same physical addresses concurrently (a write-write race); "
        "a gap means lanes are silently never computed; a gather or scatter "
        "over more lanes than the tile owns touches another tile's rows; a "
        "data or register slab shared between tiles is a race through "
        "stack memory; a tile-loop, lane-loop, slab, pragma or fence line "
        "of the kernel frame missing, changed or conditionally compiled "
        "voids the partition proof.  Any of "
        "these breaks the bit-identity contract with the NumPy engine "
        "nondeterministically — the worst kind of wrong.",
    ),
    Rule(
        "OBL-S703", "address-map-divergence", Severity.ERROR,
        "an emitted index diverges from the arrangement's address map",
        "The native kernel moves data through a tile-private slab whose "
        "address map is the arrangement's map restricted to one tile: word "
        "a of tile lane jj lives at a*TILE + jj (column) or jj*STRIDE + a "
        "(row, with STRIDE at least the word count so the map is injective). "
        "Every chunk access, the gather of input word a of lane j0 + jj, "
        "and the scatter to output row j0 + jj must use exactly those maps, "
        "with P, WORDS, STRIDE and SLAB equal to the geometry the engine "
        "allocates — as the preprocessor sees them, so a redefined, "
        "#undef'd or shadowed constant counts.  A finding means lanes "
        "alias, a lane reads another "
        "input's words, or results land in a neighbouring input's row.",
    ),
    Rule(
        "OBL-S704", "forwarding-past-store", Severity.ERROR,
        "an elided load's forwarded value differs from the memory cell",
        "Load/store forwarding may elide a memory read only when the "
        "forwarded register provably holds the exact symbolic value the "
        "cell contains at that point — i.e. the elided load is dominated "
        "by a same-address access with no intervening aliasing store.  A "
        "finding means the emission forwards a stale value (forwarding "
        "past a store to the same address, or from a register that was "
        "redefined), so the fast path reads different data than the "
        "sequential reference.",
    ),
)

RULES: Dict[str, Rule] = {rule.id: rule for rule in _CATALOG}


def all_rules() -> Tuple[Rule, ...]:
    """The full catalog, in ID order."""
    return tuple(sorted(_CATALOG, key=lambda r: r.id))


def get_rule(rule_id: str) -> Rule:
    """Look up one rule; raises ``KeyError`` with the known IDs on a miss."""
    try:
        return RULES[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {sorted(RULES)}"
        ) from None


def diag(
    rule_id: str,
    message: str,
    *,
    program: str = "program",
    index: Optional[int] = None,
    step: Optional[int] = None,
    hint: Optional[str] = None,
    severity: Optional[Severity] = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic` with the rule's default severity."""
    rule = get_rule(rule_id)
    return Diagnostic(
        rule_id=rule.id,
        severity=rule.severity if severity is None else severity,
        message=message,
        program=program,
        index=index,
        step=step,
        hint=hint,
    )
