"""The promotion store — which rewrite currently replaces which incumbent.

Promotions are keyed by a **content fingerprint** of the incumbent program
(instructions + geometry + dtype, *not* the display name or metadata), so
the same algorithm built twice — or rebuilt inside a serve shard from the
registry — resolves to the same promotion.  The store is process-level,
like the quarantine registry it mirrors: an empty store changes nothing,
and :meth:`PromotionStore.resolve` is the single hook
:class:`~repro.bulk.engine.BulkExecutor` calls at construction to swap a
promoted ``(program, arrangement)`` in for the incumbent pair.

A promotion also names the arrangement it was certified *from*: a rewrite
proven cheaper than the row-wise incumbent says nothing about the
column-wise one, so the swap applies only when the executor asked for the
arrangement the promotion replaced.

Cross-process rollout (the sharded serving tier) rides the same primitive
as every other shard knob — an environment variable:
``REPRO_AUTOFIX_PROMOTIONS=<path>`` names a JSON file written by
:func:`save_promotions`; each worker process loads it once, lazily, before
its first resolve.  ``REPRO_AUTOFIX=0`` disables resolution entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ProgramError
from ..reliability.incidents import record_incident
from ..trace.ir import PerProgram, Program
from ..trace.serialize import program_from_dict, program_to_dict

__all__ = [
    "Promotion",
    "PromotionStore",
    "program_fingerprint",
    "promotion_store",
    "save_promotions",
    "load_promotions",
]

#: Kill switch: ``REPRO_AUTOFIX=0`` makes every resolve a no-op.
ENV_AUTOFIX = "REPRO_AUTOFIX"

#: Path of a persisted promotion set each process loads once, lazily.
ENV_PROMOTIONS = "REPRO_AUTOFIX_PROMOTIONS"

FORMAT = "repro-autofix-promotions"
FORMAT_VERSION = 1


def _fingerprint(program: Program) -> str:
    doc = program_to_dict(program)
    doc.pop("name", None)
    doc.pop("meta", None)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


_fingerprints: "PerProgram[str]" = PerProgram(_fingerprint)


def program_fingerprint(program: Program) -> str:
    """Content hash of a program's semantics-bearing parts.

    Covers instructions, register/memory geometry, dtype and declared
    outputs (two programs that return different words never collide);
    excludes the display name and ``meta`` so ``opt-8`` and ``opt-8+O2``
    renamed copies of the same code collide exactly when their
    instructions do.  Computed once per program object.
    """
    return _fingerprints(program)


@dataclass(frozen=True)
class Promotion:
    """One promoted rewrite: what replaces what, and why it was allowed to.

    Attributes
    ----------
    fingerprint:
        :func:`program_fingerprint` of the *incumbent* program.
    from_arrangement:
        Arrangement name the promotion replaces (``"row"``, ``"column"``,
        ``"padded-row"``); the swap applies only to executors built with
        this arrangement.
    program:
        The proven-equivalent rewritten program.
    arrangement:
        Arrangement the rewrite runs under (may equal ``from_arrangement``
        for pure IR rewrites).
    rule_ids:
        The lint rules whose findings the rewrite fixes.
    cost_before / cost_after:
        Analytic bulk time (time units) of incumbent and rewrite under the
        machine parameters the verifier priced — ``cost_after`` is strictly
        smaller by construction.
    canary_key:
        Codegen cache key of the candidate's compiled kernel when one was
        built during the canary (``None`` on NumPy-only canaries).
    """

    fingerprint: str
    from_arrangement: str
    program: Program
    arrangement: str
    rule_ids: Tuple[str, ...] = ()
    cost_before: int = 0
    cost_after: int = 0
    canary_key: Optional[str] = None

    @property
    def improvement(self) -> int:
        """Time units saved per bulk run, under the certified parameters."""
        return self.cost_before - self.cost_after

    def describe(self) -> str:
        rules = ",".join(self.rule_ids) or "none"
        return (
            f"{self.program.name!r} [{self.from_arrangement} -> "
            f"{self.arrangement}] fixes {rules}: {self.cost_before:,} -> "
            f"{self.cost_after:,} time units"
        )


class PromotionStore:
    """Thread-safe map ``(fingerprint, from_arrangement) -> Promotion``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._promotions: Dict[Tuple[str, str], Promotion] = {}
        self._env_loaded = False

    @staticmethod
    def enabled() -> bool:
        return os.environ.get(ENV_AUTOFIX, "1") != "0"

    def install(self, promotion: Promotion) -> None:
        """Atomically (re)install a promotion — the promote step proper."""
        with self._lock:
            key = (promotion.fingerprint, promotion.from_arrangement)
            self._promotions[key] = promotion

    def withdraw(self, fingerprint: str, from_arrangement: str) -> bool:
        """Remove one promotion (rollback); True when one was installed."""
        with self._lock:
            return (
                self._promotions.pop((fingerprint, from_arrangement), None)
                is not None
            )

    def clear(self) -> int:
        """Drop every promotion (tests); returns how many were installed."""
        with self._lock:
            n = len(self._promotions)
            self._promotions.clear()
            self._env_loaded = False
            return n

    def promotions(self) -> List[Promotion]:
        """Snapshot, deterministically ordered by key."""
        with self._lock:
            return [
                self._promotions[k] for k in sorted(self._promotions)
            ]

    def preload(self) -> int:
        """Force the lazy environment load now; returns the promotion count.

        Worker entry points (serve shards) call this at startup so a
        malformed ``REPRO_AUTOFIX_PROMOTIONS`` file fails the process
        where a supervisor can see it — not inside the first batch.
        """
        if self.enabled():
            self._load_env_once()
        with self._lock:
            return len(self._promotions)

    def lookup(
        self, program: Program, arrangement: str
    ) -> Optional[Promotion]:
        """The installed promotion replacing ``(program, arrangement)``."""
        if not self.enabled():
            return None
        self._load_env_once()
        if not self._promotions:
            return None  # nothing installed: no fingerprint to compute
        key = (program_fingerprint(program), arrangement)
        with self._lock:
            return self._promotions.get(key)

    def resolve(
        self, program: Program, arrangement: Union[str, object]
    ) -> Tuple[Program, Union[str, object]]:
        """The ``(program, arrangement)`` an executor should actually run.

        The identity when nothing is promoted, the store is disabled, the
        promoted rewrite declares other outputs than ``program`` (that
        promotion is withdrawn and an incident recorded), or
        ``arrangement`` is not a plain name (an :class:`~repro.bulk.
        arrangement.Arrangement` instance pins the caller's exact layout —
        never second-guessed).
        """
        if not isinstance(arrangement, str):
            return program, arrangement
        promotion = self.lookup(program, arrangement)
        if promotion is None:
            return program, arrangement
        if promotion.program.output_ranges != program.output_ranges:
            # A rewrite that returns other words than the program it
            # replaces would silently change every caller's result shape.
            self.withdraw(promotion.fingerprint, promotion.from_arrangement)
            record_incident(
                "rollback", "autofix.store",
                f"refused promotion {promotion.describe()}: it declares "
                f"outputs {list(promotion.program.output_ranges)}, the "
                f"incumbent {list(program.output_ranges)}",
            )
            return program, arrangement
        return promotion.program, promotion.arrangement

    def _load_env_once(self) -> None:
        """Merge ``REPRO_AUTOFIX_PROMOTIONS`` into the store, once.

        A worker process (serve shard) inherits the env var from the
        router; loading lazily on first resolve keeps the entry points
        primitive-only.  A missing or malformed file is a loud error —
        silently serving unpromoted kernels when the operator asked for
        promotions would be the unobservable failure this package exists
        to avoid.
        """
        path = os.environ.get(ENV_PROMOTIONS, "")
        if not path or self._env_loaded:
            return
        with self._lock:
            if self._env_loaded:  # pragma: no cover - benign race
                return
            self._env_loaded = True
        for promotion in load_promotions(path):
            self.install(promotion)


#: The process-level store every executor consults.
_STORE = PromotionStore()


def promotion_store() -> PromotionStore:
    """The process-level :class:`PromotionStore` singleton."""
    return _STORE


def save_promotions(
    path: Union[str, Path], store: Optional[PromotionStore] = None
) -> int:
    """Write a store's promotions as JSON; returns how many were written."""
    promotions = (store or _STORE).promotions()
    doc = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "promotions": [
            {
                "fingerprint": p.fingerprint,
                "from_arrangement": p.from_arrangement,
                "arrangement": p.arrangement,
                "rule_ids": list(p.rule_ids),
                "cost_before": p.cost_before,
                "cost_after": p.cost_after,
                "canary_key": p.canary_key,
                "program": program_to_dict(p.program),
            }
            for p in promotions
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))
    return len(promotions)


def load_promotions(path: Union[str, Path]) -> List[Promotion]:
    """Read promotions saved by :func:`save_promotions` (validated)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ProgramError(f"{path}: unreadable promotion file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ProgramError(f"{path}: not a {FORMAT} document")
    if doc.get("version") != FORMAT_VERSION:
        raise ProgramError(
            f"{path}: unsupported version {doc.get('version')!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
    out: List[Promotion] = []
    for entry in doc.get("promotions", []):
        try:
            out.append(Promotion(
                fingerprint=str(entry["fingerprint"]),
                from_arrangement=str(entry["from_arrangement"]),
                program=program_from_dict(entry["program"]),
                arrangement=str(entry["arrangement"]),
                rule_ids=tuple(entry.get("rule_ids", ())),
                cost_before=int(entry.get("cost_before", 0)),
                cost_after=int(entry.get("cost_after", 0)),
                canary_key=entry.get("canary_key"),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProgramError(
                f"{path}: malformed promotion entry: {exc}"
            ) from exc
    return out
