"""Closed-loop autofix: lint → propose → prove → canary → promote.

The linter (:mod:`repro.analysis.lint`) *detects* the mechanical program
transformations the paper's speedups come from — dead load/store elision,
scratch ``Const`` zeroing, column-wise (or coprime-stride) re-arrangement
of uncoalesced accesses — and prescribes each as a fix-it hint.  This
package *applies* them, closing the loop over the existing layers:

1. **propose** (:mod:`.proposer`) — materialise each fixable diagnostic as
   a concrete candidate: a rewritten :class:`~repro.trace.ir.Program`
   and/or a cheaper arrangement.
2. **prove** (:mod:`.verify`) — gate every candidate through the symbolic
   equivalence prover, the obliviousness checker's semantic cross-check,
   and static cost certification; a rewrite whose analytic price does not
   strictly improve is rejected.
3. **canary + promote** (:mod:`.rollout`) — compile the candidate into the
   content-addressed kernel cache under its own (canary) key, run it
   against the incumbent on spot-guard-sampled lanes demanding bit
   identity, then atomically install it in the process-level
   :class:`~repro.autofix.store.PromotionStore` (a ``promotion`` incident)
   or quarantine the canary key (a ``rollback`` incident, incumbent
   untouched).
4. **orchestrate** (:mod:`.pipeline`) — ``repro autofix`` / ``repro lint
   --fix`` drive the loop over one program or the whole registry;
   :class:`~repro.bulk.engine.BulkExecutor` (and therefore every serve
   shard) consults the store, so promoted kernels transparently replace
   cached incumbents.

See ``docs/AUTOFIX.md`` for the promotion state machine and failure modes.
"""

from .pipeline import AutofixOutcome, autofix_program, autofix_registry
from .proposer import FIXABLE_RULES, Proposal, propose_fixes
from .rollout import CanaryResult, rollout_candidate
from .store import (
    Promotion,
    PromotionStore,
    load_promotions,
    program_fingerprint,
    promotion_store,
    save_promotions,
)
from .verify import Verdict, verify_proposal

__all__ = [
    "AutofixOutcome",
    "autofix_program",
    "autofix_registry",
    "FIXABLE_RULES",
    "Proposal",
    "propose_fixes",
    "CanaryResult",
    "rollout_candidate",
    "Promotion",
    "PromotionStore",
    "load_promotions",
    "program_fingerprint",
    "promotion_store",
    "save_promotions",
    "Verdict",
    "verify_proposal",
]
