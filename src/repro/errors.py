"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still
distinguishing configuration problems from semantic ones.

The reliability layer extends the execution branch: :class:`BackendError`
covers failures of a concrete execution backend (native kernel load/crash,
quarantined cache entries), with :class:`CompileError`,
:class:`CompileTimeoutError` and :class:`CacheCorruptionError` narrowing it
to the codegen pipeline, and :class:`CheckpointError` covering sweep
checkpoint files.  Each family maps to a distinct process exit code via
:func:`exit_code` so shell callers can branch on *what* failed without
parsing stderr.

The static analyzer (``repro.analysis.lint``) extends the program branch
with :class:`EquivalenceError` — an optimisation pass failed its symbolic
equivalence proof (the ``verify=True`` guard of ``optimize`` and fusion).

The serving layer (``repro.serve``) adds the :class:`ServeError` branch:
:class:`ServerOverloadedError` is the backpressure signal (a queue hit its
bounded pending limit), :class:`RequestDeadlineError` marks a request whose
deadline expired before dispatch, and :class:`ServerClosedError` covers
submissions to a stopped server (or requests abandoned by a non-draining
shutdown).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "MachineConfigError",
    "ProgramError",
    "RegisterError",
    "AddressError",
    "EquivalenceError",
    "ObliviousnessError",
    "ArrangementError",
    "ExecutionError",
    "SlabBudgetError",
    "WorkloadError",
    "BackendError",
    "CompileError",
    "CompileTimeoutError",
    "CacheCorruptionError",
    "CheckpointError",
    "ServeError",
    "ServerOverloadedError",
    "ServerClosedError",
    "RequestDeadlineError",
    "ShardError",
    "ShardDeadError",
    "exit_code",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class MachineConfigError(ReproError, ValueError):
    """Invalid machine parameters (``p``, ``w``, ``l``) or memory geometry."""


class ProgramError(ReproError, ValueError):
    """A malformed oblivious program (bad opcode, operand, or structure)."""


class RegisterError(ProgramError):
    """A register operand is out of range, undefined, or used after free."""


class AddressError(ProgramError):
    """A memory operand falls outside the program's declared memory size."""


class EquivalenceError(ProgramError):
    """A transformation pass failed its static equivalence proof.

    Raised by ``optimize(..., verify=True)`` and
    ``compile_fused(..., verify=True)`` when the symbolic value-numbering
    checker (:mod:`repro.analysis.lint.equiv`) cannot prove the rewritten
    program computes the same final memory — i.e. the pass miscompiled.

    Structured fields narrow the failure: ``kind`` is ``"memory"`` (a final
    cell differs), ``"trace"`` (a trace-preserving pass changed ``a(i)``) or
    ``"structure"`` (geometry/dtype mismatch); ``cell``/``step`` locate it;
    ``expected``/``actual`` carry the rendered symbolic expressions.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "memory",
        cell: int | None = None,
        step: int | None = None,
        expected: str | None = None,
        actual: str | None = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.cell = cell
        self.step = step
        self.expected = expected
        self.actual = actual


class ObliviousnessError(ReproError):
    """An algorithm's address trace depends on its input data.

    Raised by the obliviousness checker when two inputs produce different
    address traces, and by the tracing converter when a Python algorithm
    branches on a data value (which cannot be expressed obliviously without
    a ``select``).

    When the checker pinpoints a divergence, the structured fields carry
    it: ``step`` is the first diverging trace index, ``reference_address``
    and ``observed_address`` the two addresses touched there, and ``trial``
    the random-input trial that exposed the divergence (``None`` when the
    failure is not a step divergence, e.g. a length mismatch).
    """

    def __init__(
        self,
        message: str,
        *,
        step: int | None = None,
        reference_address: int | None = None,
        observed_address: int | None = None,
        trial: int | None = None,
    ) -> None:
        super().__init__(message)
        self.step = step
        self.reference_address = reference_address
        self.observed_address = observed_address
        self.trial = trial


class ArrangementError(ReproError, ValueError):
    """An input arrangement does not match the program or machine geometry."""


class ExecutionError(ReproError, RuntimeError):
    """A bulk or sequential execution failed at run time."""


class SlabBudgetError(ExecutionError):
    """A native tile's stack slabs exceed the budget.

    A caller error: an executor raises it even where other native
    failures degrade to NumPy.
    """


class WorkloadError(ReproError, ValueError):
    """A benchmark workload was requested with inconsistent parameters."""


class BackendError(ExecutionError):
    """A concrete execution backend failed (load, crash, or quarantine).

    Carries the codegen cache ``key`` of the offending kernel when one is
    known, so callers (the guarded executor) can quarantine it.
    """

    def __init__(self, message: str, *, key: str | None = None) -> None:
        super().__init__(message)
        self.key = key


class CompileError(BackendError):
    """The C compiler failed to produce a kernel."""


class CompileTimeoutError(CompileError):
    """The C compiler exceeded ``REPRO_COMPILE_TIMEOUT`` and was killed."""


class CacheCorruptionError(BackendError):
    """A cached shared object was corrupt/truncated and could not be healed."""


class CheckpointError(ReproError):
    """A sweep checkpoint file is unreadable or belongs to a different sweep."""


class ServeError(ReproError, RuntimeError):
    """Base class for the ``repro.serve`` request-broker family."""


class ServerOverloadedError(ServeError):
    """The admission controller shed a submission (queue bound or slot
    exhaustion).

    This is the backpressure signal: the client should shed load or retry
    with a delay, exactly like an HTTP 429.  Carries the queue ``key``, the
    ``depth`` observed at rejection time, and ``retry_after`` — the
    analytic cost model's estimate (seconds) of when capacity frees up,
    the machine-readable analogue of a ``Retry-After`` header.
    """

    def __init__(self, message: str, *, key: str | None = None,
                 depth: int | None = None,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.key = key
        self.depth = depth
        self.retry_after = retry_after


class ServerClosedError(ServeError):
    """The server is stopped (or stopping) and no longer accepts requests."""


class RequestDeadlineError(ServeError):
    """A request's deadline expired before its batch was dispatched."""


class ShardError(ServeError):
    """The sharded serving tier failed (worker protocol or lifecycle).

    Carries the ``shard`` id when the failure is attributable to one
    worker process.
    """

    def __init__(self, message: str, *, shard: int | None = None) -> None:
        super().__init__(message)
        self.shard = shard


class ShardDeadError(ShardError):
    """A request could not complete because its shard died and the
    descriptor had already used its at-most-once re-dispatch budget (or no
    live shard remained)."""


#: Exit code per error family, most specific class first.  ``exit_code``
#: walks an exception's MRO, so e.g. a ``CompileTimeoutError`` maps to its
#: own code, not the generic ``CompileError`` one.  Code 2 is reserved for
#: argparse usage errors; unknown ``ReproError`` subclasses fall back to 1.
_EXIT_CODES: dict = {
    "ShardDeadError": 20,
    "ShardError": 19,
    "EquivalenceError": 18,
    "CompileTimeoutError": 11,
    "CacheCorruptionError": 12,
    "CheckpointError": 13,
    "ServerOverloadedError": 14,
    "ServerClosedError": 15,
    "RequestDeadlineError": 16,
    "ServeError": 17,
    "CompileError": 10,
    "BackendError": 9,
    "ExecutionError": 8,
    "WorkloadError": 7,
    "ArrangementError": 6,
    "ObliviousnessError": 5,
    "MachineConfigError": 4,
    "ProgramError": 3,
    "ReproError": 1,
}


def exit_code(exc: BaseException) -> int:
    """The process exit code for a library exception (1 for the base class).

    Distinct nonzero codes let shell pipelines distinguish "your program is
    malformed" from "the native backend broke" without parsing messages.
    """
    for klass in type(exc).__mro__:
        code = _EXIT_CODES.get(klass.__name__)
        if code is not None:
            return code
    return 1
