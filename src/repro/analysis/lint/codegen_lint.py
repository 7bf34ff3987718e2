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
#: ``emit_c`` / ``emit_cuda`` / ``emit_bulk_c`` (sequential, column-wise,
#: row-wise, native bulk column slab, native bulk row slab); anything else
#: is an address the static trace cannot account for.
_ADDR_FORMS: Tuple[re.Pattern, ...] = (
    re.compile(r"^(\d+)$"),
    re.compile(r"^\(size_t\)(\d+) \* \(size_t\)p \+ \(size_t\)j$"),
    re.compile(r"^\(size_t\)j \* \d+ \+ (\d+)$"),
    re.compile(r"^(\d+) \* TILE \+ jj$"),
    re.compile(r"^jj \* STRIDE \+ (\d+)$"),
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
    program: Program, source: str, label: str, *, forwarding: bool = False
) -> Tuple[List[Diagnostic], List[str]]:
    """Certify one emitted translation unit against ``program``'s trace.

    ``label`` names the emission (e.g. ``"emit_c"``, ``"emit_cuda[row]"``)
    in messages and certificates.  With ``forwarding=True`` the emission is
    allowed to *elide loads* (the native bulk emitter's load/store
    forwarding pass reuses in-register values): the certified property
    becomes "the store sequence matches the static trace exactly and in
    order, and every elided access is a load" — which pins the memory
    image, since only stores are memory-visible.
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
    elif forwarding:
        if address_ok:
            d, c = _certify_forwarded(name, label, expected, accesses)
            out.extend(d)
            certs.extend(c)
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
    if branch_ok:
        certs.append(
            f"{label}: constant-time control flow — no branch condition "
            "references a register or memory cell"
        )
    return out, certs


def _certify_forwarded(
    name: str,
    label: str,
    expected: List[Tuple[str, int]],
    accesses: List[Tuple[str, Optional[int], int, str]],
) -> Tuple[List[Diagnostic], List[str]]:
    """Match a load-forwarded emission against the static trace.

    Greedy ordered-subsequence walk: every emitted access must match the
    next un-elided trace step, and only *reads* may be skipped over.  A
    skipped write, an out-of-order access, or a surplus access all fail —
    so the store sequence (the memory-visible part of the trace) is pinned
    exactly, per copy of the program body.
    """
    out: List[Diagnostic] = []
    t = len(expected)
    stores = sum(1 for kind, _ in expected if kind == "W")
    emitted_w = sum(1 for kind, _, _, _ in accesses if kind == "W")
    if stores and emitted_w % stores != 0:
        out.append(diag(
            "OBL-E303",
            f"{label}: {emitted_w} emitted stores is not a whole number of "
            f"trace store sequences ({stores} per copy); the forwarding "
            f"pass added or dropped stores",
            program=name,
        ))
        return out, []

    i = 0        # position within the current trace copy
    copy = 0
    elided = 0
    for kind, addr, lineno, expr in accesses:
        while True:
            if i == t:
                copy += 1
                i = 0
            want_kind, want_addr = expected[i]
            if (want_kind, want_addr) == (kind, addr):
                i += 1
                break
            if want_kind == "W":
                out.append(diag(
                    "OBL-E301",
                    f"{label} line {lineno} (copy {copy}, trace step {i}): "
                    f"emitted {kind}({addr}) but the static trace requires "
                    f"store W({want_addr}) first — forwarding may only "
                    f"elide loads",
                    program=name, step=i,
                ))
                return out, []
            elided += 1
            i += 1
    # Whatever remains of the final copy must be elidable (reads only).
    while 0 < i < t:
        if expected[i][0] == "W":
            out.append(diag(
                "OBL-E301",
                f"{label}: emission ends before trace step {i}'s store "
                f"W({expected[i][1]}) — forwarding may only elide loads",
                program=name, step=i,
            ))
            return out, []
        elided += 1
        i += 1
    copies = copy + 1 if i == t else copy
    if stores and copies * stores != emitted_w:
        out.append(diag(
            "OBL-E303",
            f"{label}: {emitted_w} emitted stores across {copies} trace "
            f"cop(ies) of {stores}; the forwarding pass added or dropped "
            f"stores",
            program=name,
        ))
        return out, []
    return out, [
        f"{label}: {len(accesses)} mem accesses match the static trace in "
        f"order ({copies} × t={t}, {elided} load(s) forwarded; store "
        f"sequence exact)"
    ]


def certify_program_codegen(
    program: Program, *, p: Optional[int] = None
) -> Tuple[List[Diagnostic], List[str]]:
    """Certify every emitter's output for ``program``.

    Runs :func:`certify_source` over ``emit_c`` (three function bodies per
    unit), both ``emit_cuda`` arrangements, and — when ``p`` is given —
    both native ``emit_bulk_c`` layouts.  Unsupported dtypes are reported
    as an ``OBL-N602`` note, not a failure.
    """
    from ...codegen.c_emitter import emit_bulk_c, emit_c
    from ...codegen.cuda_emitter import emit_cuda

    emissions: List[Tuple[str, object]] = [
        ("emit_c", lambda: emit_c(program)),
        ("emit_cuda[column]", lambda: emit_cuda(program, "column")),
        ("emit_cuda[row]", lambda: emit_cuda(program, "row")),
    ]
    if p is not None:
        emissions += [
            ("emit_bulk_c[column]", lambda: emit_bulk_c(program, "column", p=p)),
            ("emit_bulk_c[row]", lambda: emit_bulk_c(
                program, "row", p=p, stride=program.memory_words)),
        ]

    out: List[Diagnostic] = []
    certs: List[str] = []
    for label, emit in emissions:
        try:
            source = emit()
        except ProgramError as exc:
            out.append(diag(
                "OBL-N602",
                f"{label} unavailable for this program: {exc}",
                program=program.name,
            ))
            continue
        # The native bulk emitter runs a load/store forwarding pass, so
        # its emissions are certified in forwarding mode (stores exact,
        # elisions must be loads); the others remain trace-exact.
        d, c = certify_source(
            program, source, label,
            forwarding=label.startswith("emit_bulk_c"),
        )
        out.extend(d)
        certs.extend(c)
    return out, certs
