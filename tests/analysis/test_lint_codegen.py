"""Emitted-code certification: access extraction and tamper detection."""

import numpy as np

from repro.analysis.lint import (
    certify_program_codegen,
    certify_source,
    extract_accesses,
)
from repro.codegen import c_emitter
from repro.codegen.c_emitter import emit_c
from repro.trace.ir import Binary, Const, Load, Program, Store
from repro.trace.ops import BinaryOp


def make_program(dtype=np.float64):
    return Program(
        instructions=(
            Load(0, 0), Load(1, 1),
            Binary(BinaryOp.ADD, 2, 0, 1), Store(2, 2),
        ),
        num_registers=4, memory_words=4, dtype=np.dtype(dtype),
        name="codegen-probe",
    )


def rules_of(diags):
    return [d.rule_id for d in diags]


class TestExtractAccesses:
    def test_reads_and_writes_classified(self):
        src = "r0 = mem[3];\nmem[1] = r0;\nif (mem[2] == 0.0) {}\n"
        acc = extract_accesses(src)
        assert [(k, a) for k, a, _, _ in acc] == \
            [("R", 3), ("W", 1), ("R", 2)]
        assert acc[0][2] == 1 and acc[1][2] == 2  # line numbers

    def test_arranged_forms_parse(self):
        src = (
            "r0 = mem[(size_t)5 * (size_t)p + (size_t)j];\n"
            "mem[(size_t)j * 16 + 7] = r0;\n"
        )
        assert [(k, a) for k, a, _, _ in extract_accesses(src)] == \
            [("R", 5), ("W", 7)]

    def test_unknown_form_yields_none(self):
        acc = extract_accesses("r0 = mem[idx];\n")
        assert acc[0][1] is None

    def test_multiple_accesses_per_line(self):
        acc = extract_accesses("mem[0] = mem[1];\n")
        assert [(k, a) for k, a, _, _ in acc] == [("W", 0), ("R", 1)]


class TestCertifySource:
    def test_emitted_c_is_clean(self):
        prog = make_program()
        diags, certs = certify_source(prog, emit_c(prog), "emit_c")
        assert diags == []
        assert any("match the static trace" in c for c in certs)
        assert any("constant-time control flow" in c for c in certs)

    def test_changed_address_is_E301(self):
        prog = make_program()
        src = emit_c(prog).replace("mem[1]", "mem[3]")
        diags, certs = certify_source(prog, src, "emit_c")
        assert "OBL-E301" in rules_of(diags)
        first = next(d for d in diags if d.rule_id == "OBL-E301")
        assert first.step == 1  # the second trace step was tampered
        assert not any("match the static trace" in c for c in certs)

    def test_dropped_store_is_E303(self):
        prog = make_program()
        lines = emit_c(prog).splitlines()
        keep = True
        out = []
        for line in lines:
            if keep and "mem[2] =" in line:
                keep = False  # drop exactly one store
                continue
            out.append(line)
        diags, _ = certify_source(prog, "\n".join(out), "emit_c")
        assert "OBL-E303" in rules_of(diags)

    def test_injected_data_branch_is_E302(self):
        prog = make_program()
        src = emit_c(prog) + "\nvoid evil(double r0) { if (r0 > 0.0) { } }\n"
        diags, certs = certify_source(prog, src, "emit_c")
        assert "OBL-E302" in rules_of(diags)
        assert not any("constant-time" in c for c in certs)

    def test_memory_dependent_loop_is_E302(self):
        prog = make_program()
        src = emit_c(prog) + "\nwhile (mem[0] > 0.0) { }\n"
        diags, _ = certify_source(prog, src, "emit_c")
        assert "OBL-E302" in rules_of(diags)

    def test_ternary_guarding_memory_is_E302(self):
        prog = make_program()
        src = emit_c(prog) + "\nr1 = (c > 0.0) ? mem[0] : mem[1];\n"
        diags, _ = certify_source(prog, src, "emit_c")
        assert "OBL-E302" in rules_of(diags)

    def test_goto_is_E302(self):
        prog = make_program()
        src = emit_c(prog) + "\ngoto done;\n"
        diags, _ = certify_source(prog, src, "emit_c")
        assert "OBL-E302" in rules_of(diags)

    def test_thread_id_guard_is_legal(self):
        # The CUDA emitter's `if (j >= p) return;` must not be flagged.
        prog = make_program()
        src = emit_c(prog) + "\nif (j >= p) return;\n"
        diags, _ = certify_source(prog, src, "emit_c")
        assert "OBL-E302" not in rules_of(diags)


class TestCertifyProgramCodegen:
    def test_float64_all_emitters_clean(self):
        diags, certs = certify_program_codegen(make_program(), p=8)
        assert diags == []
        # 5 emissions × (trace cert + control-flow cert).
        assert len(certs) == 10
        assert any("emit_bulk_c[row]" in c for c in certs)

    def test_int64_all_emitters_clean(self):
        diags, _ = certify_program_codegen(make_program(np.int64), p=8)
        assert diags == []

    def test_unsupported_dtype_is_noted_not_failed(self):
        diags, certs = certify_program_codegen(make_program(np.float32))
        assert set(rules_of(diags)) == {"OBL-N602"}
        assert certs == []

    def test_bulk_forwarding_past_a_store_is_S704(self, monkeypatch):
        # Load(2, 0) after Store(0, 1) is emitted as `r2 = r1`; forwarding
        # from r0 reads word 0's pre-store value.  The store sequence is
        # untouched, so only a value-level forwarding proof rejects it.
        prog = Program(
            instructions=(
                Load(0, 0), Const(1, 5), Store(0, 1),
                Load(2, 0), Binary(BinaryOp.ADD, 3, 2, 1), Store(1, 3),
            ),
            num_registers=4, memory_words=4, dtype=np.dtype(np.int64),
            name="forward-mutant",
        )
        real = c_emitter.emit_bulk_c

        def mutant(*args, **kwargs):
            source = real(*args, **kwargs)
            assert "r2 = r1;" in source
            return source.replace("r2 = r1;", "r2 = r0;", 1)

        monkeypatch.setattr(c_emitter, "emit_bulk_c", mutant)
        diags, certs = certify_program_codegen(prog, p=64)
        assert "OBL-S704" in rules_of(diags)
        assert not any("forwarding-sound" in c for c in certs)
