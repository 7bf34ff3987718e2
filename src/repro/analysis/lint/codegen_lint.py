"""Emitted-code certification — lint the generated C / CUDA sources.

The codegen path is the one place where the library's proofs could silently
stop applying: the IR is priced and verified, but what runs is a C string.
This module closes the gap by checking, on the *emitted source text*:

* **address fidelity** (``OBL-E301``/``OBL-E303``) — every ``mem[...]``
  access carries a compile-time address literal, and the full access
  sequence of the translation unit is exactly ``k`` copies (one per emitted
  function body) of the program's static ``(kind, address)`` trace;
* **constant-time control flow** (``OBL-E302``) — no ``if``/``while``/
  ``for`` condition references a program register or a memory cell, no
  conditional expression guards a memory access, and no ``goto`` appears.
  The only data-dependent construct the emitters may produce is the
  branch-free ternary of ``Select``/``MIN``/``MAX``, which compiles to a
  conditional move and touches registers only.

The native bulk kernels (``emit_bulk_c``) forward loads, spill registers
and stage lanes through tile slabs, so their trace and forwarding proof
is the schedule certifier's (:mod:`repro.analysis.schedule`,
``OBL-S701``–``OBL-S704``); the control-flow scan runs on them too.

The checks are purely textual — they re-derive the access sequence from the
source with a bracket-matching scanner rather than trusting the emitter's
own bookkeeping, which is the point: the emitter being checked must not be
the thing doing the checking.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ...errors import ProgramError
from ...trace.ir import Load, Program, Store
from .diagnostics import Diagnostic
from .rules import diag

__all__ = [
    "extract_accesses",
    "certify_source",
    "certify_program_codegen",
]

#: Recognised shapes of one ``mem[...]`` index expression, each capturing
#: the compile-time address literal.  These are the exact templates of
#: ``emit_c`` / ``emit_cuda`` (sequential, column-wise, row-wise);
#: anything else is an address the static trace cannot account for.
_ADDR_FORMS: Tuple[re.Pattern, ...] = (
    re.compile(r"^(\d+)$"),
    re.compile(r"^\(size_t\)(\d+) \* \(size_t\)p \+ \(size_t\)j$"),
    re.compile(r"^\(size_t\)j \* \d+ \+ (\d+)$"),
)

_REGISTER = re.compile(r"\br\d+\b")
_CONTROL = re.compile(r"\b(if|while|for)\s*\(")


def _parse_address(expr: str) -> Optional[int]:
    for form in _ADDR_FORMS:
        m = form.match(expr.strip())
        if m:
            return int(m.group(1))
    return None


def extract_accesses(source: str) -> List[Tuple[str, Optional[int], int, str]]:
    """All ``mem[...]`` accesses, in source order.

    Returns ``(kind, address, line, expr)`` tuples — ``kind`` is ``"W"``
    when the access is the target of an assignment (``mem[...] =``, not
    ``==``), else ``"R"``; ``address`` is ``None`` when the index expression
    matches no known compile-time form.
    """
    out: List[Tuple[str, Optional[int], int, str]] = []
    for lineno, line in enumerate(source.splitlines(), 1):
        pos = 0
        while True:
            start = line.find("mem[", pos)
            if start < 0:
                break
            depth, i = 1, start + 4
            while i < len(line) and depth:
                if line[i] == "[":
                    depth += 1
                elif line[i] == "]":
                    depth -= 1
                i += 1
            expr = line[start + 4 : i - 1]
            rest = line[i:].lstrip()
            kind = "W" if rest.startswith("=") and not rest.startswith("==") else "R"
            out.append((kind, _parse_address(expr), lineno, expr))
            pos = i
    return out


def certify_source(
    program: Program, source: str, label: str
) -> Tuple[List[Diagnostic], List[str]]:
    """Certify one emitted translation unit against ``program``'s trace.

    ``label`` names the emission (e.g. ``"emit_c"``, ``"emit_cuda[row]"``)
    in messages and certificates.  The access sequence must be whole
    copies of the static trace, and the control flow constant-time.
    """
    name = program.name
    out: List[Diagnostic] = []
    certs: List[str] = []

    expected = [
        ("R" if isinstance(instr, Load) else "W", instr.addr)
        for instr in program.instructions
        if isinstance(instr, (Load, Store))
    ]
    t = len(expected)
    accesses = extract_accesses(source)

    address_ok = True
    for kind, addr, lineno, expr in accesses:
        if addr is None:
            address_ok = False
            out.append(diag(
                "OBL-E301",
                f"{label} line {lineno}: mem index {expr!r} is not a "
                "recognised compile-time address form",
                program=name,
                hint="the address must be an integer literal (possibly "
                     "offset by the thread index j)",
            ))

    if t == 0:
        if accesses:
            out.append(diag(
                "OBL-E303",
                f"{label}: program has an empty trace but the source "
                f"contains {len(accesses)} mem accesses",
                program=name,
            ))
    elif len(accesses) % t != 0:
        address_ok = False
        out.append(diag(
            "OBL-E303",
            f"{label}: {len(accesses)} mem accesses is not a whole number "
            f"of traces (t = {t}); the emitter added or dropped accesses",
            program=name,
        ))
    else:
        copies = len(accesses) // t
        for i, (kind, addr, lineno, expr) in enumerate(accesses):
            want_kind, want_addr = expected[i % t]
            if addr is None:
                continue  # already reported above
            if (kind, addr) != (want_kind, want_addr):
                address_ok = False
                step = i % t
                out.append(diag(
                    "OBL-E301",
                    f"{label} line {lineno} (copy {i // t}, trace step "
                    f"{step}): emitted {kind}({addr}) but the static trace "
                    f"says {want_kind}({want_addr})",
                    program=name, step=step,
                ))
                break
        if address_ok:
            certs.append(
                f"{label}: all {len(accesses)} mem accesses "
                f"({copies} × t={t}) match the static trace exactly"
            )

    d, c = _certify_control_flow(program, source, label)
    return out + d, certs + c


def _certify_control_flow(
    program: Program, source: str, label: str
) -> Tuple[List[Diagnostic], List[str]]:
    """The ``OBL-E302`` scan: no branch, loop condition or ternary of
    ``source`` depends on a register or a memory cell, and no ``goto``."""
    name = program.name
    out: List[Diagnostic] = []
    branch_ok = True
    for lineno, line in enumerate(source.splitlines(), 1):
        for m in _CONTROL.finditer(line):
            depth, i = 1, m.end()
            while i < len(line) and depth:
                if line[i] == "(":
                    depth += 1
                elif line[i] == ")":
                    depth -= 1
                i += 1
            cond = line[m.end() : i - 1]
            if _REGISTER.search(cond) or "mem[" in cond:
                branch_ok = False
                out.append(diag(
                    "OBL-E302",
                    f"{label} line {lineno}: `{m.group(1)}` condition "
                    f"({cond.strip()}) depends on "
                    f"{'a register' if _REGISTER.search(cond) else 'memory'}",
                    program=name,
                    hint="lower the conditional to a Select; emitted "
                         "control flow may depend only on loop counters "
                         "and the thread id",
                ))
        if "?" in line and "mem[" in line and "=" in line:
            # A ternary guarding a memory access would make the access
            # pattern data-dependent even without a branch.
            q = line.index("?")
            if "mem[" in line[line.index("=") :] and "mem[" in line[q:]:
                branch_ok = False
                out.append(diag(
                    "OBL-E302",
                    f"{label} line {lineno}: conditional expression guards "
                    "a memory access",
                    program=name,
                ))
        if "goto" in line.split("/*")[0]:
            branch_ok = False
            out.append(diag(
                "OBL-E302",
                f"{label} line {lineno}: goto in emitted code",
                program=name,
            ))
    if not branch_ok:
        return out, []
    return out, [
        f"{label}: constant-time control flow — no branch condition "
        "references a register or memory cell"
    ]


def certify_program_codegen(
    program: Program, *, p: Optional[int] = None
) -> Tuple[List[Diagnostic], List[str]]:
    """Certify every emitter's output for ``program``.

    Runs :func:`certify_source` over ``emit_c`` (three function bodies per
    unit) and both ``emit_cuda`` arrangements.  When ``p`` is given, both
    native ``emit_bulk_c`` layouts — the kernels the native engine
    compiles for ``p`` lanes — get the schedule certifier's trace and
    forwarding proof plus the control-flow scan; a proven schedule
    collapses into one certificate.  Unsupported dtypes are reported as
    an ``OBL-N602`` note, not a failure.
    """
    from ...codegen.c_emitter import emit_c
    from ...codegen.cuda_emitter import emit_cuda

    out: List[Diagnostic] = []
    certs: List[str] = []

    def unavailable(label: str, exc: ProgramError) -> None:
        out.append(diag(
            "OBL-N602",
            f"{label} unavailable for this program: {exc}",
            program=program.name,
        ))

    for label, emit in (
        ("emit_c", lambda: emit_c(program)),
        ("emit_cuda[column]", lambda: emit_cuda(program, "column")),
        ("emit_cuda[row]", lambda: emit_cuda(program, "row")),
    ):
        try:
            source = emit()
        except ProgramError as exc:
            unavailable(label, exc)
            continue
        d, c = certify_source(program, source, label)
        out.extend(d)
        certs.extend(c)
    if p is None:
        return out, certs

    from ...bulk.arrangement import make_arrangement
    from ..schedule import certify_bulk_schedule, schedule_config

    for layout in ("column", "row"):
        label = f"emit_bulk_c[{layout}]"
        try:
            config = schedule_config(
                program, make_arrangement(layout, program.memory_words, p)
            )
            source = config.emit(program)
        except ProgramError as exc:
            unavailable(label, exc)
            continue
        d, c, proof = certify_bulk_schedule(
            program, source, config, label=label
        )
        if proof is not None and proof.certified:
            c = [
                f"{proof.describe()} — trace-preserving, race-free, "
                f"forwarding-sound"
            ]
        out.extend(d)
        certs.extend(c)
        d, c = _certify_control_flow(program, source, label)
        out.extend(d)
        certs.extend(c)
    return out, certs
