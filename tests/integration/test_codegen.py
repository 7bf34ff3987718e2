"""Code generation: emitted C cross-validated against the Python engine,
and structural checks of the emitted CUDA kernels."""

import re

import numpy as np
import pytest

from repro.algorithms.registry import all_specs, get_spec
from repro.bulk import bulk_run
from repro.codegen import (
    c_symbol_names,
    compile_program,
    emit_c,
    emit_cuda,
    have_compiler,
    launch_snippet,
)
from repro.errors import ExecutionError, ProgramError
from repro.trace import run_sequential

needs_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler")


class TestEmission:
    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_every_registry_program_emits(self, spec):
        program = spec.build(spec.sizes[0])
        src = emit_c(program)
        names = c_symbol_names(program)
        for fn in names.values():
            assert f"void {fn}(" in src

    def test_column_kernel_is_coalesced(self):
        """The emitted column-wise access has the thread index as the
        additive (fastest-varying) term — the coalescing signature."""
        program = get_spec("prefix-sums").build(4)
        src = emit_cuda(program, "column")
        assert "__global__" in src
        assert "* (size_t)p + (size_t)j]" in src
        assert "blockIdx.x * blockDim.x + threadIdx.x" in src

    def test_row_kernel_is_strided(self):
        program = get_spec("prefix-sums").build(4)
        src = emit_cuda(program, "row")
        assert "(size_t)j * 4 +" in src

    def test_unknown_arrangement(self):
        program = get_spec("prefix-sums").build(4)
        with pytest.raises(ProgramError):
            emit_cuda(program, "diagonal")

    def test_launch_snippet_uses_64_thread_blocks(self):
        # the paper: "p threads in p/64 CUDA blocks with 64 threads each"
        program = get_spec("prefix-sums").build(4)
        snippet = launch_snippet(program, block_size=64)
        assert "<<<blocks, 64>>>" in snippet
        assert "cudaMemcpy" in snippet

    def test_launch_snippet_validation(self):
        with pytest.raises(ProgramError):
            launch_snippet(get_spec("prefix-sums").build(4), block_size=0)

    def test_int_program_uses_int64(self):
        program = get_spec("xtea").build(4)
        src = emit_c(program)
        assert "int64_t *mem" in src
        assert "INT64_C(" in src

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    @pytest.mark.parametrize("arrangement", ["column", "row"])
    def test_every_registry_program_emits_cuda(self, spec, arrangement):
        """Every algorithm's CUDA kernel emits with one guarded thread
        index, a register declaration per slot, and only arrangement-
        appropriate memory expressions."""
        program = spec.build(spec.sizes[0])
        src = emit_cuda(program, arrangement)
        assert src.count("__global__") == 1
        assert "if (j >= p) return;" in src
        # every register slot declared exactly once (in the kernel, after
        # the __device__ helpers)
        kernel = src[src.index("__global__"):]
        decl = next(l for l in kernel.splitlines() if l.strip().startswith(("double", "int64_t")))
        assert decl.count("r") >= program.num_registers
        if arrangement == "column":
            assert "* (size_t)p + (size_t)j]" in src
            assert f"(size_t)j * {program.memory_words}" not in src
        else:
            assert f"(size_t)j * {program.memory_words}" in src

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_every_helper_call_is_defined(self, spec):
        """Each ``i64_*``/``f64_*`` call site of the C and CUDA emissions
        has a definition in the same source (the CUDA header defines the
        ``__device__`` helpers from the C prelude's table)."""
        program = spec.build(spec.sizes[0])
        for src in (emit_c(program), emit_cuda(program, "column"),
                    emit_cuda(program, "row")):
            defined = set(re.findall(
                r"^static (?:__device__ )?inline (?:int64_t|double) "
                r"([if]64_\w+)\(", src, re.M,
            ))
            called = set(re.findall(r"\b([if]64_\w+)\(", src)) - defined
            assert not called, f"{spec.name}: undefined helpers {called}"
        if program.dtype == np.int64:
            assert "static __device__ inline int64_t i64_fdiv(" in emit_cuda(program)

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_cuda_body_matches_c_bulk_body(self, spec):
        """The kernel body and the C column-wise loop body are the same
        instruction-for-instruction translation (the per-thread program)."""
        program = spec.build(spec.sizes[0])
        cuda = emit_cuda(program, "column")
        c = emit_c(program)

        def body(src, anchor):
            lines = src.splitlines()
            start = next(i for i, l in enumerate(lines) if anchor in l)
            out = []
            for line in lines[start + 1 :]:
                stripped = line.strip()
                if stripped.startswith("}"):
                    break
                if "=" in stripped:
                    out.append(stripped)
            return out

        names = c_symbol_names(program)
        kernel_body = body(cuda, "__global__")
        c_body = body(c, f"void {names['bulk_column']}")
        # skip per-backend preamble lines (thread index / register decls)
        kernel_ops = [l for l in kernel_body if l.startswith(("r", "mem["))]
        c_ops = [l for l in c_body if l.startswith(("r", "mem["))]
        assert kernel_ops == c_ops


@needs_cc
class TestNativeCrossValidation:
    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_native_sequential_matches_interpreter(self, spec):
        n = spec.sizes[0]
        program = spec.build(n)
        compiled = compile_program(program)
        rng = np.random.default_rng(hash((spec.name, "c1")) % 2**32)
        inputs = spec.make_inputs(rng, n, 3)
        for row in inputs:
            native = compiled.run_one(row)
            python = run_sequential(program, row, collect_trace=False).memory
            if np.issubdtype(program.dtype, np.integer):
                np.testing.assert_array_equal(native, python)
            else:
                np.testing.assert_allclose(native, python, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    @pytest.mark.parametrize("arrangement", ["column", "row"])
    def test_native_bulk_matches_engine(self, spec, arrangement):
        n = spec.sizes[min(1, len(spec.sizes) - 1)]
        program = spec.build(n)
        compiled = compile_program(program)
        rng = np.random.default_rng(hash((spec.name, arrangement)) % 2**32)
        inputs = spec.make_inputs(rng, n, 7)
        native = compiled.run_bulk(inputs, arrangement)
        python = bulk_run(program, inputs, arrangement)
        if np.issubdtype(program.dtype, np.integer):
            np.testing.assert_array_equal(native, python)
        else:
            np.testing.assert_allclose(native, python, rtol=1e-12, atol=1e-12)
        spec.check_outputs(inputs, native, n)

    def test_run_one_input_validation(self):
        compiled = compile_program(get_spec("prefix-sums").build(4))
        with pytest.raises(ExecutionError):
            compiled.run_one(np.zeros(9))

    def test_run_bulk_validation(self):
        compiled = compile_program(get_spec("prefix-sums").build(4))
        with pytest.raises(ExecutionError):
            compiled.run_bulk(np.zeros(4))
        with pytest.raises(ExecutionError):
            compiled.run_bulk(np.zeros((2, 9)))
        with pytest.raises(ExecutionError):
            compiled.run_bulk(np.zeros((2, 4)), "diagonal")

    def test_optimized_program_compiles_and_agrees(self, rng):
        from repro.algorithms.polygon import (
            build_opt,
            pack_weights,
            unpack_result,
        )
        from repro.algorithms.registry import make_chord_weights

        n = 8
        program = build_opt(n, opt_level=2)  # 49-register forwarded version
        compiled = compile_program(program)
        w = make_chord_weights(rng, n, 5)
        native = unpack_result(compiled.run_bulk(pack_weights(w)), n)
        python = unpack_result(bulk_run(program, pack_weights(w)), n)
        np.testing.assert_allclose(native, python)


class TestCompilerPlumbing:
    def test_missing_compiler_is_clean_error(self, monkeypatch):
        import shutil

        from repro.codegen import compile as compile_mod

        monkeypatch.setattr(shutil, "which", lambda name: None)
        assert not compile_mod.have_compiler()
        with pytest.raises(ExecutionError, match="compiler"):
            compile_mod._cc()

    @needs_cc
    def test_compilation_error_surfaces_stderr(self, monkeypatch):
        """A program the emitter mangles must fail with the compiler's
        message, not a silent bad library."""
        from repro.codegen import compile as compile_mod

        monkeypatch.setattr(
            compile_mod, "emit_c", lambda program: "this is not C code {"
        )
        with pytest.raises(ExecutionError, match="compilation failed"):
            compile_mod.compile_program(get_spec("prefix-sums").build(4))

    @needs_cc
    def test_o0_flag_also_works(self):
        from repro.codegen import compile_program

        program = get_spec("prefix-sums").build(8)
        compiled = compile_program(program, optimize_flag="-O0")
        out = compiled.run_one(np.ones(8))
        np.testing.assert_array_equal(out, np.arange(1.0, 9.0))
