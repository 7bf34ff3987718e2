"""Deterministic fault injection for chaos testing the execution stack.

Production code is sprinkled with named *fault sites* — ``fire(site)`` /
``inject(site)`` calls at the exact points where the real world fails: the
compiler subprocess, the cache publish, the shared-object load, the native
kernel invocation, each sweep cell.  With no plan installed every site is a
counter bump and a ``None`` return (one dict lookup — negligible against
the work the sites guard).  Installing a :class:`FaultPlan` arms rules that
make chosen invocations of chosen sites raise, sleep, or request data
corruption, so the chaos suite can *prove* every degradation path fires.

Determinism is the whole point: a rule fires on explicit invocation indices
(``after``/``times``) or on a seeded pseudo-random coin (``probability``
with the plan's ``seed``), never on wall clock or true randomness — the same
plan against the same code takes the same path every run.

Usage::

    plan = FaultPlan(seed=7)
    plan.fail("codegen.compile", times=1, exc=CompileError)
    with plan.active():
        ...   # the first compile in this block raises CompileError

Sites currently instrumented (see docs/MODEL.md "Reliability"):

========================  ====================================================
``codegen.compile``       before the compiler subprocess runs (``raise``
                          forces a compile failure, ``slow`` makes the build
                          outlast ``REPRO_COMPILE_TIMEOUT``)
``codegen.cache.publish`` after a ``.so`` is published (``corrupt`` truncates
                          the entry on disk)
``codegen.cache.load``    before ``ctypes.CDLL`` (``raise`` simulates a
                          corrupt/unloadable shared object)
``engine.native.run``     before the native kernel runs (``raise`` simulates
                          a kernel crash)
``engine.native.outputs`` after the native kernel ran (``corrupt`` flips the
                          output image so the guard's spot-check must
                          catch it)
``harness.cell``          before each sweep cell is measured (``raise``
                          simulates a crash/Ctrl-C mid-sweep)
``serve.shard.batch``     per batch descriptor inside a shard worker
                          (``raise`` hard-kills the worker; ``slow`` wedges
                          or stalls it)
``serve.shard.pong``      per heartbeat ping inside a worker (a firing rule
                          swallows the pong — heartbeat loss)
``serve.shm.output``      after a batch's outputs are checksummed
                          (``corrupt`` flips a byte of the shared slot, so
                          the router's checksum verification must catch it)
``serve.wire.done``       before a ``done`` completion is enqueued (a firing
                          rule drops the message — control-queue loss)
========================  ====================================================
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Type

from ..errors import ExecutionError

__all__ = ["FaultRule", "FaultPlan", "install_plan", "clear_plan", "current_plan", "fire", "inject"]

#: Supported rule kinds.
KINDS = ("raise", "slow", "corrupt")


@dataclass
class FaultRule:
    """One armed fault: *what* happens at *which* invocations of a site.

    Attributes
    ----------
    site:
        The fault-site name the rule watches.
    kind:
        ``"raise"`` (throw ``exc``), ``"slow"`` (sleep ``seconds``), or
        ``"corrupt"`` (returned to the site, which mangles its own data —
        only sites documented as corruptible honour it).
    times:
        Fire at most this many times (``None`` = every matching invocation).
    after:
        Skip the first ``after`` invocations of the site.
    probability:
        Instead of firing unconditionally, flip the plan's seeded coin.
    exc:
        Exception type for ``"raise"`` rules.
    message, seconds:
        Payloads for ``"raise"`` / ``"slow"`` rules.
    """

    site: str
    kind: str = "raise"
    times: Optional[int] = 1
    after: int = 0
    probability: Optional[float] = None
    exc: Type[Exception] = ExecutionError
    message: str = ""
    seconds: float = 0.05
    fired: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected {KINDS}")

    def exception(self) -> Exception:
        """Build the planned exception (tagged as injected for logs)."""
        msg = self.message or f"injected fault at {self.site!r}"
        return self.exc(msg)


class FaultPlan:
    """A seeded, deterministic schedule of faults plus per-site call counts.

    The plan also counts *every* invocation of every site it observes —
    rule or no rule — which the chaos suite uses to assert e.g. "the
    resumed sweep measured only the remaining cells".
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._rules: List[FaultRule] = []
        self._calls: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- arming ------------------------------------------------------------
    def add(self, rule: FaultRule) -> "FaultPlan":
        self._rules.append(rule)
        return self

    def fail(
        self,
        site: str,
        *,
        times: Optional[int] = 1,
        after: int = 0,
        exc: Type[Exception] = ExecutionError,
        message: str = "",
        probability: Optional[float] = None,
    ) -> "FaultPlan":
        """Arm a ``raise`` rule (chainable)."""
        return self.add(FaultRule(site, "raise", times, after, probability, exc, message))

    def slow(
        self, site: str, seconds: float, *, times: Optional[int] = 1, after: int = 0
    ) -> "FaultPlan":
        """Arm a ``slow`` rule: the site sleeps ``seconds`` before working."""
        return self.add(FaultRule(site, "slow", times, after, seconds=seconds))

    def corrupt(
        self, site: str, *, times: Optional[int] = 1, after: int = 0
    ) -> "FaultPlan":
        """Arm a ``corrupt`` rule: the site mangles its own data."""
        return self.add(FaultRule(site, "corrupt", times, after))

    # -- observation -------------------------------------------------------
    def calls(self, site: str) -> int:
        """How many times ``site`` was reached while this plan was active."""
        return self._calls.get(site, 0)

    def fired(self, site: str) -> int:
        """How many faults actually fired at ``site``."""
        return sum(r.fired for r in self._rules if r.site == site)

    # -- the hot path ------------------------------------------------------
    def observe(self, site: str) -> Optional[FaultRule]:
        """Count the invocation; return the rule that fires now, if any."""
        with self._lock:
            index = self._calls.get(site, 0)
            self._calls[site] = index + 1
            for rule in self._rules:
                if rule.site != site or index < rule.after:
                    continue
                if rule.times is not None and rule.fired >= rule.times:
                    continue
                if rule.probability is not None and self._rng.random() >= rule.probability:
                    continue
                rule.fired += 1
                return rule
        return None

    # -- scoping -----------------------------------------------------------
    @contextmanager
    def active(self) -> Iterator["FaultPlan"]:
        """Install this plan for the duration of the ``with`` block."""
        install_plan(self)
        try:
            yield self
        finally:
            clear_plan()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(seed={self.seed}, rules={len(self._rules)})"


# One plan at a time, process-wide.  Chaos tests are sequential; a plan is
# installed for the span of one scenario and removed after.
_PLAN: Optional[FaultPlan] = None


def install_plan(plan: FaultPlan) -> None:
    """Make ``plan`` the process-wide active plan."""
    global _PLAN
    _PLAN = plan


def clear_plan() -> None:
    """Deactivate fault injection entirely."""
    global _PLAN
    _PLAN = None


def current_plan() -> Optional[FaultPlan]:
    """The active plan, or ``None`` when injection is off."""
    return _PLAN


def fire(site: str) -> Optional[FaultRule]:
    """Report reaching ``site``; return a firing rule for the caller to act
    on (used by corruptible sites that must mangle their own data)."""
    if _PLAN is None:
        return None
    return _PLAN.observe(site)


def inject(site: str) -> Optional[FaultRule]:
    """The standard fault hook: raises / sleeps on a firing rule.

    ``corrupt`` rules are returned for the site to honour (sites that are
    not corruptible simply ignore the return value).
    """
    rule = fire(site)
    if rule is None:
        return None
    if rule.kind == "raise":
        raise rule.exception()
    if rule.kind == "slow":
        time.sleep(rule.seconds)
    return rule
