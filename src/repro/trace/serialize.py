"""Program serialization: oblivious IR ↔ JSON.

Building a large unrolled program (an OPT 32-gon is ~20k instructions) is
pure-Python work worth caching; serialisation also lets a program built on
one machine be priced/executed on another — the workflow the paper's
conversion system implies (convert once, deploy for bulk execution).

The format is a stable, versioned JSON document; loads validate both the
schema and the resulting program, so a corrupted file fails loudly instead
of mis-executing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from ..errors import ProgramError
from .ir import Binary, Const, Instruction, Load, Program, Select, Store, Unary
from .ops import BinaryOp, UnaryOp

__all__ = ["program_to_dict", "program_from_dict", "save_program", "load_program"]

FORMAT_VERSION = 1

_ENCODERS = {
    Const: lambda i: {"op": "const", "rd": i.rd, "imm": i.imm},
    Load: lambda i: {"op": "load", "rd": i.rd, "addr": i.addr},
    Store: lambda i: {"op": "store", "addr": i.addr, "rs": i.rs},
    Binary: lambda i: {"op": "binary", "f": i.op.value, "rd": i.rd, "ra": i.ra, "rb": i.rb},
    Unary: lambda i: {"op": "unary", "f": i.op.value, "rd": i.rd, "ra": i.ra},
    Select: lambda i: {"op": "select", "rd": i.rd, "rc": i.rc, "ra": i.ra, "rb": i.rb},
}

_BINOPS = {op.value: op for op in BinaryOp}
_UNOPS = {op.value: op for op in UnaryOp}


def _decode_instruction(doc: Dict[str, Any], idx: int) -> Instruction:
    try:
        kind = doc["op"]
        if kind == "const":
            return Const(rd=int(doc["rd"]), imm=doc["imm"])
        if kind == "load":
            return Load(rd=int(doc["rd"]), addr=int(doc["addr"]))
        if kind == "store":
            return Store(addr=int(doc["addr"]), rs=int(doc["rs"]))
        if kind == "binary":
            return Binary(
                op=_BINOPS[doc["f"]],
                rd=int(doc["rd"]),
                ra=int(doc["ra"]),
                rb=int(doc["rb"]),
            )
        if kind == "unary":
            return Unary(op=_UNOPS[doc["f"]], rd=int(doc["rd"]), ra=int(doc["ra"]))
        if kind == "select":
            return Select(
                rd=int(doc["rd"]),
                rc=int(doc["rc"]),
                ra=int(doc["ra"]),
                rb=int(doc["rb"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProgramError(f"instruction {idx}: malformed entry {doc!r}") from exc
    raise ProgramError(f"instruction {idx}: unknown opcode {kind!r}")


def program_to_dict(program: Program) -> Dict[str, Any]:
    """A JSON-serialisable document describing ``program``.

    Declared outputs are the optional ``outputs`` key; a document without
    it returns the whole memory, so older documents read unchanged.
    """
    doc = {
        "format": "repro-oblivious-program",
        "version": FORMAT_VERSION,
        "name": program.name,
        "dtype": program.dtype.name,
        "memory_words": program.memory_words,
        "num_registers": program.num_registers,
        "meta": dict(program.meta),
        "instructions": [_ENCODERS[type(i)](i) for i in program.instructions],
    }
    if program.outputs is not None:
        doc["outputs"] = [[lo, hi] for lo, hi in program.outputs]
    return doc


def program_from_dict(doc: Dict[str, Any]) -> Program:
    """Rebuild and validate a :class:`Program` from its document."""
    if not isinstance(doc, dict) or doc.get("format") != "repro-oblivious-program":
        raise ProgramError("not an oblivious-program document")
    if doc.get("version") != FORMAT_VERSION:
        raise ProgramError(
            f"unsupported format version {doc.get('version')!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
    try:
        instrs = tuple(
            _decode_instruction(entry, idx)
            for idx, entry in enumerate(doc["instructions"])
        )
        program = Program(
            instructions=instrs,
            num_registers=int(doc["num_registers"]),
            memory_words=int(doc["memory_words"]),
            dtype=np.dtype(doc["dtype"]),
            name=str(doc.get("name", "program")),
            meta=dict(doc.get("meta", {})),
            outputs=doc.get("outputs"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProgramError(f"malformed program document: {exc}") from exc
    program.validate()
    return program


def save_program(program: Program, path: Union[str, Path]) -> None:
    """Write ``program`` as JSON to ``path``."""
    Path(path).write_text(json.dumps(program_to_dict(program), indent=1))


def load_program(path: Union[str, Path]) -> Program:
    """Read and validate a program saved by :func:`save_program`."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ProgramError(f"{path}: not valid JSON: {exc}") from exc
    return program_from_dict(doc)
