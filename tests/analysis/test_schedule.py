"""The schedule certifier's positive side: real emissions must prove.

The mutation suite (``test_schedule_mutations.py``) shows seeded bugs are
caught; this file shows the complement — every schedule the backend
actually emits, across the registry, the default tile grid, all three
arrangements, chunked programs, forwarded loads and float dtypes, is
certified trace-preserving, race-free and forwarding-sound, and the span cross-check agrees with the analytic
closed form.
"""

import numpy as np
import pytest

from repro.algorithms.registry import all_specs, get_spec
from repro.analysis.schedule import (
    DEFAULT_TILE_GRID,
    certify_bulk_schedule,
    certify_native_schedule,
    certify_schedule_family,
    default_schedule_grid,
    schedule_config,
)
from repro.bulk.arrangement import make_arrangement
from repro.codegen.c_emitter import emit_bulk_c
from repro.codegen.compile import have_compiler
from repro.errors import MachineConfigError
from repro.machine.analytic import tiled_stage_count
from repro.trace.ir import Binary, Const, Load, Program, Store
from repro.trace.ops import BinaryOp


def _program(name="sched-demo", dtype="int64"):
    """A program with a forwardable load (Load 0 after Store 0)."""
    return Program(
        name=name,
        instructions=(
            Load(0, 0),
            Const(1, 5),
            Binary(BinaryOp.ADD, 2, 0, 1),
            Store(0, 2),
            Load(3, 0),           # forwarded from r2 in the tiled emission
            Store(1, 3),
        ),
        num_registers=4,
        memory_words=4,
        dtype=np.dtype(dtype),
    )


def _errors(diags):
    return [d for d in diags if d.rule_id.startswith("OBL-S")]


class TestCertifyNative:
    def test_tiled_column_certifies_with_forwarding(self):
        prog = _program()
        arr = make_arrangement("column", prog.memory_words, 64)
        diags, certs, proof = certify_native_schedule(
            prog, arr, tile=16, threads=4, w=32
        )
        assert _errors(diags) == []
        assert proof is not None and proof.certified
        assert proof.elided_loads == 1
        assert proof.tiles == ((0, 16), (16, 16), (32, 16), (48, 16))
        assert any("race freedom" in c for c in certs)
        assert any("forwarding sound" in c for c in certs)

    def test_ragged_tail_tile_certifies(self):
        prog = _program()
        arr = make_arrangement("column", prog.memory_words, 50)
        diags, _, proof = certify_native_schedule(prog, arr, tile=16, threads=2)
        assert _errors(diags) == []
        assert proof.tiles[-1] == (48, 2)

    def test_chunked_emission_spills_and_certifies(self):
        prog = _program()
        arr = make_arrangement("column", prog.memory_words, 32)
        diags, _, proof = certify_native_schedule(
            prog, arr, tile=8, threads=1, chunk=2
        )
        assert _errors(diags) == []
        assert proof.certified
        assert proof.spill_saves > 0 and proof.spill_loads > 0

    def test_row_and_padded_row_certify(self):
        prog = _program()
        for name in ("row", "padded-row"):
            arr = make_arrangement(name, prog.memory_words, 32)
            diags, _, proof = certify_native_schedule(prog, arr, tile=8)
            assert _errors(diags) == [], name
            assert proof.certified, name

    def test_float_program_certifies(self):
        prog = Program(
            name="sched-float",
            instructions=(
                Load(0, 0), Const(1, 0.5), Binary(BinaryOp.MUL, 2, 0, 1), Store(1, 2),
            ),
            num_registers=3,
            memory_words=4,
            dtype=np.dtype("float64"),
        )
        arr = make_arrangement("column", prog.memory_words, 32)
        diags, _, proof = certify_native_schedule(prog, arr, tile=8)
        assert _errors(diags) == []
        assert proof.certified

    def test_unsupported_dtype_is_a_note_not_an_error(self):
        prog = Program(
            name="sched-f32",
            instructions=(Load(0, 0), Store(1, 0)),
            num_registers=1,
            memory_words=2,
            dtype=np.dtype("float32"),
        )
        arr = make_arrangement("column", prog.memory_words, 32)
        diags, certs, proof = certify_native_schedule(prog, arr, tile=8)
        assert proof is None
        assert [d.rule_id for d in diags] == ["OBL-N602"]


class TestSpanCrossCheck:
    def test_tiled_stage_count_closed_form(self):
        # 64 lanes, w=32, tile=16: 4 tiles x ceil(16/32)=1 stage each.
        assert tiled_stage_count(64, 32, 16) == 4
        # tile divisible by w: matches the sequential optimum.
        assert tiled_stage_count(64, 32, 32) == 2
        assert tiled_stage_count(64, 32, 64) == 2
        # ragged tail: 50 = 3 full 16-tiles + one 2-tile -> 4 stages.
        assert tiled_stage_count(50, 32, 16) == 4

    def test_tiled_stage_count_validates(self):
        with pytest.raises(MachineConfigError):
            tiled_stage_count(0, 32, 16)
        with pytest.raises(MachineConfigError):
            tiled_stage_count(64, 0, 16)
        with pytest.raises(MachineConfigError):
            tiled_stage_count(64, 32, 0)

    def test_proof_records_spans(self):
        prog = _program()
        arr = make_arrangement("column", prog.memory_words, 64)
        _, _, proof = certify_native_schedule(prog, arr, tile=16, w=32)
        assert proof.span_tiled == 4
        assert proof.span_sequential == 2
        _, _, aligned = certify_native_schedule(prog, arr, tile=32, w=32)
        assert aligned.span_tiled == aligned.span_sequential == 2


class TestFamilyAndGrid:
    def test_default_grid_crosses_tiles_and_threads(self):
        grid = default_schedule_grid()
        assert len(grid) == len(DEFAULT_TILE_GRID) * 2

    def test_family_certifies_and_collapses_certificates(self):
        prog = _program()
        diags, certs = certify_schedule_family(
            prog, arrangement="column", p=64, w=32
        )
        assert _errors(diags) == []
        assert len(certs) == 1 and "8 (tile, threads)" in certs[0]

    @pytest.mark.parametrize(
        "name", sorted({s.name for s in all_specs()})[:6]
    )
    def test_registry_programs_certify_across_arrangements(self, name):
        spec = get_spec(name)
        prog = spec.build(spec.sizes[0])
        for arrangement in ("column", "row", "padded-row"):
            diags, certs = certify_schedule_family(
                prog, arrangement=arrangement, p=64, w=32
            )
            assert _errors(diags) == [], (name, arrangement)
            assert certs, (name, arrangement)


class TestLintIntegration:
    def test_lint_program_schedule_flag(self):
        from repro.analysis.lint import lint_program
        from repro.machine.params import MachineParams

        prog = _program()
        report = lint_program(
            prog, params=MachineParams(p=64, w=32, l=4), schedule=True
        )
        assert report.errors == 0
        assert any("schedule:" in c for c in report.certificates)

    def test_lint_schedule_without_params_is_a_note(self):
        from repro.analysis.lint import lint_program

        report = lint_program(_program(), schedule=True)
        assert report.errors == 0
        assert any(
            d.rule_id == "OBL-N602" and "schedule" in d.message
            for d in report.diagnostics
        )


class TestEmitterHeader:
    def test_header_claim_is_cross_checked(self):
        # A source whose schedule header lies about the geometry must be
        # rejected even when the defines happen to be self-consistent.
        prog = _program()
        config = schedule_config(
            prog, make_arrangement("column", prog.memory_words, 32), tile=8
        )
        source = emit_bulk_c(
            prog, "column", stride=0, chunk=config.chunk,
            tile=8, threads=1,
        )
        assert "/* schedule: layout=column" in source
        diags, _, proof = certify_bulk_schedule(prog, source, config)
        assert _errors(diags) == []
        assert proof.certified
        lying = source.replace(" words=4 ", " words=5 ", 1)
        assert lying != source
        diags, _, proof = certify_bulk_schedule(prog, lying, config)
        assert [d.rule_id for d in _errors(diags)] == ["OBL-S703"]
        assert not proof.certified


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
class TestCompiledIsProven:
    @pytest.mark.parametrize("arrangement, request_", [
        ("column", {}),                             # every default
        ("column", dict(tile=16, chunk=2)),         # explicit, multi-chunk
        ("padded-row", dict(tile=4)),               # padded row stride
    ])
    def test_compiled_source_is_the_proven_source(
        self, arrangement, request_, monkeypatch, tmp_path
    ):
        # compile_bulk and certify_native_schedule resolve one request
        # through one ScheduleConfig: the compiler sees byte for byte the
        # source the certifier proves.
        import repro.analysis.schedule as schedule_mod
        import repro.codegen.compile as compile_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        compiled, proven = [], []
        real_load, real_certify = compile_mod._load, schedule_mod.certify_bulk_schedule

        def load(source, flags):
            compiled.append(source)
            return real_load(source, flags)

        def certify(program, source, config, **kwargs):
            proven.append(source)
            return real_certify(program, source, config, **kwargs)

        monkeypatch.setattr(compile_mod, "_load", load)
        monkeypatch.setattr(schedule_mod, "certify_bulk_schedule", certify)
        prog = _program()
        arr = make_arrangement(arrangement, prog.memory_words, 37)
        kernel = compile_mod.compile_bulk(prog, arr, **request_)
        kernel.close()
        diags, _, proof = certify_native_schedule(prog, arr, **request_)
        assert _errors(diags) == [] and proof.certified
        assert len(compiled) == len(proven) == 1
        assert compiled[0] == proven[0]
