"""End-to-end: the closed loop over programs, the registry, and backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import get_spec
from repro.autofix import autofix_program, autofix_registry, promotion_store
from repro.bulk.engine import BulkExecutor
from repro.machine.params import MachineParams
from repro.reliability.incidents import incident_summary
from repro.trace.interpreter import run_sequential

from .conftest import SPAN


class TestAutofixProgram:
    def test_greedy_chain_applies_every_fixable_rule(
        self, fixable_program, params
    ):
        outcome = autofix_program(
            fixable_program, params=params,
            arrangement="row", input_words=SPAN,
        )
        assert outcome.promoted
        assert set(outcome.applied) == {
            "OBL-W501", "OBL-W502", "OBL-W503", "OBL-W401",
        }
        assert outcome.final_arrangement == "column"
        assert outcome.cost_after < outcome.cost_before
        # The chained candidate is strictly smaller: two elisions plus a
        # Const rewrite of the surviving scratch load.
        assert (len(outcome.final_program.instructions)
                < len(fixable_program.instructions))
        assert incident_summary() == {"promotion": 1}

    def test_dry_run_verifies_but_touches_nothing(
        self, fixable_program, params
    ):
        outcome = autofix_program(
            fixable_program, params=params,
            arrangement="row", input_words=SPAN, dry_run=True,
        )
        assert outcome.fixable and not outcome.promoted
        assert promotion_store().promotions() == []
        assert incident_summary() == {}

    def test_promoted_program_reaches_executors_transparently(
        self, fixable_program, params
    ):
        outcome = autofix_program(
            fixable_program, params=params,
            arrangement="row", input_words=SPAN,
        )
        assert outcome.promoted
        executor = BulkExecutor(fixable_program, 32, "row")
        assert executor.program.name == outcome.final_program.name
        assert executor.arrangement.name == "column"
        # ... and the swap is invisible in the outputs: bit-identical to
        # the sequential interpreter running the *incumbent*.
        rng = np.random.default_rng(7)
        inputs = rng.integers(-1000, 1000, size=(32, SPAN), dtype=np.int64)
        outputs = executor.run(inputs).outputs
        for lane in (0, 13, 31):
            mem = np.zeros(
                fixable_program.memory_words, dtype=fixable_program.dtype
            )
            mem[:SPAN] = inputs[lane]
            want = run_sequential(
                fixable_program, mem, collect_trace=False
            ).memory
            assert want.tobytes() == outputs[lane].tobytes()

    def test_rejections_leave_the_incumbent_untouched(
        self, fixable_program, params, monkeypatch
    ):
        # Force every candidate to fail its proof: nothing may change.
        import repro.autofix.pipeline as pipeline_mod

        from repro.autofix.verify import Verdict

        real_verify = pipeline_mod.verify_proposal

        def always_reject(incumbent, proposal, **kwargs):
            verdict = real_verify(incumbent, proposal, **kwargs)
            return Verdict(
                proposal=verdict.proposal, accepted=False,
                gate="equivalence", reason="forced rejection (test)",
            )

        monkeypatch.setattr(pipeline_mod, "verify_proposal", always_reject)
        outcome = autofix_program(
            fixable_program, params=params,
            arrangement="row", input_words=SPAN,
        )
        assert not outcome.fixable and not outcome.promoted
        assert outcome.applied == ()
        assert promotion_store().promotions() == []
        # Each retired rule recorded its rollback; the loop terminated.
        assert incident_summary() == {
            "rollback": len(outcome.verdicts)
        }
        executor = BulkExecutor(fixable_program, 8, "row")
        assert executor.program is fixable_program
        assert executor.arrangement.name == "row"


class TestAutofixRegistry:
    def test_registry_is_fixpoint_clean_at_column(self):
        params = MachineParams(p=64, w=8, l=4)
        outcomes = autofix_registry(
            ["opt", "prefix-sums"], params=params,
            arrangement="column", sizes=[8], dry_run=True,
        )
        assert all(not o.fixable for o in outcomes)
        assert promotion_store().promotions() == []

    def test_row_arranged_registry_program_is_rearranged(self):
        params = MachineParams(p=64, w=8, l=4)
        [outcome] = autofix_registry(
            ["opt"], params=params, arrangement="row", sizes=[8],
        )
        assert outcome.promoted
        assert outcome.applied == ("OBL-W401",)
        assert outcome.final_arrangement == "column"
        assert outcome.cost_after < outcome.cost_before
        assert incident_summary() == {"promotion": 1}


class TestBackendBitIdentity:
    @pytest.mark.parametrize("name,n", [("opt", 8), ("prefix-sums", 4)])
    def test_autofixed_outputs_bit_identical_across_backends(self, name, n):
        """Registry programs, autofixed at row, across numpy/native/guarded.

        The promotion store swaps the same candidate in for every backend,
        so outputs must stay bit-identical to the unpromoted incumbent's —
        the transparency contract serve shards rely on for replica-
        identical re-dispatch.
        """
        params = MachineParams(p=32, w=8, l=4)
        spec = get_spec(name)
        program = spec.build(n)
        rng = np.random.default_rng(3)
        inputs = spec.make_inputs(rng, n, 32)

        # Baseline: the incumbent, promotions disabled.
        import os

        os.environ["REPRO_AUTOFIX"] = "0"
        try:
            baseline = BulkExecutor(program, 32, "row")
            want = baseline.run(inputs).outputs.copy()
            baseline.close()
        finally:
            os.environ.pop("REPRO_AUTOFIX", None)

        [outcome] = autofix_registry(
            [name], params=params, arrangement="row", sizes=[n],
        )
        assert outcome.promoted

        from repro.codegen.compile import have_compiler

        backends = ["numpy"]
        if have_compiler():
            backends.append("auto")
        for backend in backends:
            for guard in (None, "spot"):
                executor = BulkExecutor(
                    program, 32, "row", backend=backend, guard=guard
                )
                got = executor.run(inputs).outputs
                assert want.tobytes() == got.tobytes(), (
                    f"{name}: {backend}/{guard} diverged after promotion"
                )
                executor.close()


class TestVerifyPassesDefault:
    def test_env_default_toggles(self, monkeypatch):
        from repro.trace.optimize import verify_passes_default

        monkeypatch.delenv("REPRO_VERIFY_PASSES", raising=False)
        assert verify_passes_default() is True
        monkeypatch.setenv("REPRO_VERIFY_PASSES", "0")
        assert verify_passes_default() is False
        monkeypatch.setenv("REPRO_VERIFY_PASSES", "1")
        assert verify_passes_default() is True

    def test_optimize_and_fusion_honour_the_opt_out(
        self, fixable_program, monkeypatch
    ):
        from repro.bulk.arrangement import ColumnWise
        from repro.bulk.fusion import compile_fused
        from repro.trace.optimize import optimize

        monkeypatch.setenv("REPRO_VERIFY_PASSES", "0")
        optimized = optimize(fixable_program, level=2)
        assert optimized.trace_length <= fixable_program.trace_length
        p = 4
        arr = ColumnWise(fixable_program.memory_words, p)
        mem = arr.allocate(fixable_program.dtype)
        compile_fused(fixable_program, arr, mem)
