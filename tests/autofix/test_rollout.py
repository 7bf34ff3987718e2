"""Canary + promote: incidents, quarantine, atomicity, persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autofix import (
    Promotion,
    load_promotions,
    program_fingerprint,
    promotion_store,
    propose_fixes,
    rollout_candidate,
    save_promotions,
    verify_proposal,
)
from repro.errors import ProgramError
from repro.reliability.incidents import incident_summary, incidents

from .conftest import SPAN


def accepted_verdict(program, diagnostics, params, rule="OBL-W401"):
    proposal = next(
        p for p in propose_fixes(program, diagnostics, arrangement="row")
        if p.rule_id == rule
    )
    verdict = verify_proposal(
        program, proposal, params=params,
        from_arrangement="row", input_words=SPAN,
    )
    assert verdict.accepted
    return verdict


class TestRollout:
    def test_rejected_verdict_records_rollback_and_changes_nothing(
        self, fixable_program, fixable_diagnostics, params
    ):
        from repro.autofix.proposer import Proposal

        bad = Proposal(
            kind="rearrange", rule_id="OBL-W401",
            program=fixable_program, arrangement="row",
            description="regression",
        )
        verdict = verify_proposal(
            fixable_program, bad, params=params,
            from_arrangement="column", input_words=SPAN,
        )
        assert not verdict.accepted
        result = rollout_candidate(
            fixable_program, verdict, p=16,
            from_arrangement="column", input_words=SPAN,
        )
        assert not result.promoted and result.stage == "verify"
        assert promotion_store().promotions() == []
        assert incident_summary() == {"rollback": 1}

    def test_promotion_installs_and_records_incident(
        self, fixable_program, fixable_diagnostics, params
    ):
        verdict = accepted_verdict(
            fixable_program, fixable_diagnostics, params
        )
        result = rollout_candidate(
            fixable_program, verdict, p=16,
            from_arrangement="row", input_words=SPAN,
        )
        assert result.promoted and result.stage == "promoted"
        assert len(result.lanes) > 0
        [promotion] = promotion_store().promotions()
        assert promotion.fingerprint == program_fingerprint(fixable_program)
        assert promotion.from_arrangement == "row"
        assert promotion.arrangement == "column"
        assert promotion.improvement > 0
        assert incident_summary() == {"promotion": 1}

    def test_canary_mismatch_quarantines_and_rolls_back(
        self, fixable_program, fixable_diagnostics, params, monkeypatch
    ):
        # Chaos at the canary: the executor lies about one lane's output.
        from repro.bulk.engine import BulkExecutor

        real_run = BulkExecutor.run

        def corrupting_run(self, inputs):
            result = real_run(self, inputs)
            result.outputs[...] ^= 1  # every lane lies
            return result

        monkeypatch.setattr(BulkExecutor, "run", corrupting_run)
        verdict = accepted_verdict(
            fixable_program, fixable_diagnostics, params
        )
        result = rollout_candidate(
            fixable_program, verdict, p=16,
            from_arrangement="row", input_words=SPAN, seed=0,
        )
        assert not result.promoted and result.stage == "canary"
        assert promotion_store().promotions() == []
        assert incident_summary() == {"rollback": 1}
        [incident] = incidents("rollback")
        assert "canary mismatch" in incident.detail

    def test_resolve_swaps_only_the_matching_arrangement(
        self, fixable_program, fixable_diagnostics, params
    ):
        verdict = accepted_verdict(
            fixable_program, fixable_diagnostics, params
        )
        rollout_candidate(
            fixable_program, verdict, p=16,
            from_arrangement="row", input_words=SPAN,
        )
        store = promotion_store()
        swapped, arr = store.resolve(fixable_program, "row")
        assert swapped is verdict.proposal.program and arr == "column"
        # A column-wise executor asked for a different incumbent config:
        # the promotion certified nothing about it, so it stays put.
        same, arr2 = store.resolve(fixable_program, "column")
        assert same is fixable_program and arr2 == "column"

    def test_kill_switch_disables_resolution(
        self, fixable_program, fixable_diagnostics, params, monkeypatch
    ):
        verdict = accepted_verdict(
            fixable_program, fixable_diagnostics, params
        )
        rollout_candidate(
            fixable_program, verdict, p=16,
            from_arrangement="row", input_words=SPAN,
        )
        monkeypatch.setenv("REPRO_AUTOFIX", "0")
        same, arr = promotion_store().resolve(fixable_program, "row")
        assert same is fixable_program and arr == "row"


class TestResolveCost:
    def test_empty_store_never_fingerprints(
        self, fixable_program, monkeypatch
    ):
        from repro.autofix import store as store_mod
        from repro.bulk import BulkExecutor

        calls = []
        monkeypatch.setattr(
            store_mod, "program_fingerprint",
            lambda program: calls.append(program) or "never",
        )
        assert promotion_store().promotions() == []
        same, arr = promotion_store().resolve(fixable_program, "row")
        assert same is fixable_program and arr == "row"
        BulkExecutor(fixable_program, 4, "row").close()
        assert calls == []

    def test_installed_promotion_still_resolves(
        self, fixable_program, fixable_diagnostics, params
    ):
        verdict = accepted_verdict(
            fixable_program, fixable_diagnostics, params
        )
        rollout_candidate(
            fixable_program, verdict, p=16,
            from_arrangement="row", input_words=SPAN,
        )
        swapped, arr = promotion_store().resolve(fixable_program, "row")
        assert swapped is verdict.proposal.program and arr == "column"

    def test_fingerprint_memoised_per_program_object(self, fixable_program):
        first = program_fingerprint(fixable_program)
        assert program_fingerprint(fixable_program) is first
        twin = type(fixable_program)(
            instructions=fixable_program.instructions,
            num_registers=fixable_program.num_registers,
            memory_words=fixable_program.memory_words,
            dtype=fixable_program.dtype,
        )
        assert program_fingerprint(twin) == first


class TestPersistence:
    def test_save_load_roundtrip(
        self, fixable_program, fixable_diagnostics, params, tmp_path
    ):
        verdict = accepted_verdict(
            fixable_program, fixable_diagnostics, params
        )
        rollout_candidate(
            fixable_program, verdict, p=16,
            from_arrangement="row", input_words=SPAN,
        )
        path = tmp_path / "promotions.json"
        assert save_promotions(path) == 1
        [loaded] = load_promotions(path)
        [original] = promotion_store().promotions()
        assert loaded.fingerprint == original.fingerprint
        assert loaded.from_arrangement == original.from_arrangement
        assert loaded.arrangement == original.arrangement
        assert loaded.cost_before == original.cost_before
        assert loaded.cost_after == original.cost_after
        assert loaded.program.instructions == original.program.instructions

    def test_env_promotions_load_lazily(
        self, fixable_program, fixable_diagnostics, params,
        tmp_path, monkeypatch,
    ):
        verdict = accepted_verdict(
            fixable_program, fixable_diagnostics, params
        )
        rollout_candidate(
            fixable_program, verdict, p=16,
            from_arrangement="row", input_words=SPAN,
        )
        path = tmp_path / "promotions.json"
        save_promotions(path)
        # A "fresh worker": empty store + the inherited env var.
        store = promotion_store()
        store.clear()
        assert store.promotions() == []
        monkeypatch.setenv("REPRO_AUTOFIX_PROMOTIONS", str(path))
        assert store.preload() == 1
        swapped, arr = store.resolve(fixable_program, "row")
        assert arr == "column"
        assert swapped.instructions == verdict.proposal.program.instructions

    def test_malformed_promotion_file_fails_loudly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProgramError, match="unreadable"):
            load_promotions(path)
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ProgramError, match="not a repro-autofix"):
            load_promotions(path)

    def test_fingerprint_ignores_name_and_meta(self, fixable_program):
        renamed = type(fixable_program)(
            instructions=fixable_program.instructions,
            num_registers=fixable_program.num_registers,
            memory_words=fixable_program.memory_words,
            dtype=fixable_program.dtype,
            name="entirely-different",
            meta={"anything": "else"},
        )
        assert program_fingerprint(renamed) == program_fingerprint(
            fixable_program
        )
        changed = type(fixable_program)(
            instructions=fixable_program.instructions[:-1],
            num_registers=fixable_program.num_registers,
            memory_words=fixable_program.memory_words,
            dtype=fixable_program.dtype,
            name=fixable_program.name,
        )
        assert program_fingerprint(changed) != program_fingerprint(
            fixable_program
        )
