"""The symbolic pass-equivalence prover and the verify= guards."""

import numpy as np
import pytest

from repro.algorithms.registry import all_specs
from repro.analysis.lint import (
    ValueNumbering,
    prove_equivalent,
    symbolic_state,
)
from repro.bulk.arrangement import ColumnWise
from repro.bulk.fusion import compile_fused
from repro.errors import EquivalenceError
from repro.trace.ir import Binary, Const, Load, Program, Select, Store, Unary
from repro.trace.ops import BinaryOp, UnaryOp
from repro.trace.optimize import optimize


def make(instrs, regs=4, words=8, dtype=np.float64, name="t"):
    return Program(
        instructions=tuple(instrs), num_registers=regs, memory_words=words,
        dtype=np.dtype(dtype), name=name,
    )


class TestValueNumbering:
    def test_identical_expressions_share_numbers(self):
        vn = ValueNumbering(np.dtype(np.float64))
        a = vn.binary(BinaryOp.ADD, vn.initial(0), vn.initial(1))
        b = vn.binary(BinaryOp.ADD, vn.initial(0), vn.initial(1))
        assert a == b

    def test_no_commutativity_assumed(self):
        vn = ValueNumbering(np.dtype(np.float64))
        ab = vn.binary(BinaryOp.ADD, vn.initial(0), vn.initial(1))
        ba = vn.binary(BinaryOp.ADD, vn.initial(1), vn.initial(0))
        assert ab != ba  # sound for FP: a+b and b+a may round differently... not assumed equal

    def test_constant_folding_mirrors_dtype(self):
        vn = ValueNumbering(np.dtype(np.int64))
        seven = vn.binary(BinaryOp.ADD, vn.const(3), vn.const(4))
        assert seven == vn.const(7)

    def test_signed_zero_distinguished(self):
        vn = ValueNumbering(np.dtype(np.float64))
        assert vn.const(0.0) != vn.const(-0.0)

    def test_copy_is_identity(self):
        vn = ValueNumbering(np.dtype(np.float64))
        x = vn.initial(3)
        assert vn.unary(UnaryOp.COPY, x) == x

    def test_select_constant_condition_folds(self):
        vn = ValueNumbering(np.dtype(np.float64))
        a, b = vn.initial(0), vn.initial(1)
        assert vn.select(vn.const(1.0), a, b) == a
        assert vn.select(vn.const(0.0), a, b) == b

    def test_select_equal_arms_folds(self):
        vn = ValueNumbering(np.dtype(np.float64))
        a = vn.initial(0)
        cond = vn.initial(5)
        assert vn.select(cond, a, a) == a

    def test_describe_renders(self):
        vn = ValueNumbering(np.dtype(np.float64))
        e = vn.binary(BinaryOp.MUL, vn.initial(2), vn.const(3.0))
        assert "m0[2]" in vn.describe(e) and "mul" in vn.describe(e)


class TestSymbolicState:
    def test_final_memory_of_simple_program(self):
        prog = make([Load(0, 0), Load(1, 1),
                     Binary(BinaryOp.ADD, 2, 0, 1), Store(2, 2)])
        vn = ValueNumbering(prog.dtype)
        state = symbolic_state(prog, vn)
        want = vn.binary(BinaryOp.ADD, vn.initial(0), vn.initial(1))
        assert state.memory == {2: want}
        assert state.trace == (("R", 0), ("R", 1), ("W", 2))

    def test_registers_start_at_zero(self):
        prog = make([Store(0, 3)])  # r3 never defined: engines supply 0
        vn = ValueNumbering(prog.dtype)
        state = symbolic_state(prog, vn)
        assert state.memory == {0: vn.const(0)}


class TestProveEquivalent:
    def test_program_equivalent_to_itself(self):
        prog = make([Load(0, 0), Store(1, 0)])
        proof = prove_equivalent(prog, prog, require_same_trace=True)
        assert proof.equivalent and proof.trace_equal

    def test_memory_mismatch_raises_with_cell(self):
        ref = make([Load(0, 0), Store(1, 0)])
        bad = make([Load(0, 0), Unary(UnaryOp.NEG, 0, 0), Store(1, 0)])
        with pytest.raises(EquivalenceError) as exc:
            prove_equivalent(ref, bad)
        assert exc.value.kind == "memory"
        assert exc.value.cell == 1
        assert exc.value.expected and exc.value.actual

    def test_trace_mismatch_raises_with_step(self):
        ref = make([Load(0, 0), Load(1, 1), Store(2, 0), Store(3, 1)])
        # Same final memory, different access order.
        bad = make([Load(1, 1), Load(0, 0), Store(2, 0), Store(3, 1)])
        proof = prove_equivalent(ref, bad, require_same_trace=False)
        assert proof.equivalent and not proof.trace_equal
        with pytest.raises(EquivalenceError) as exc:
            prove_equivalent(ref, bad, require_same_trace=True)
        assert exc.value.kind == "trace" and exc.value.step == 0

    def test_structure_mismatch(self):
        a = make([Const(0, 1.0), Store(0, 0)], words=8)
        b = make([Const(0, 1.0), Store(0, 0)], words=4)
        with pytest.raises(EquivalenceError) as exc:
            prove_equivalent(a, b)
        assert exc.value.kind == "structure"

    def test_no_raise_mode_returns_failing_proof(self):
        ref = make([Const(0, 1.0), Store(0, 0)])
        bad = make([Const(0, 2.0), Store(0, 0)])
        proof = prove_equivalent(ref, bad, raise_on_mismatch=False)
        assert not proof.equivalent
        assert proof.mismatches[0][0] == 0
        assert "≢" in proof.describe()

    def test_untouched_cell_counts_as_initial(self):
        ref = make([Load(0, 3), Store(3, 0)])  # store back what was read
        blank = make([Const(0, 0.0)])
        proof = prove_equivalent(ref, blank, raise_on_mismatch=False)
        # m[3] <- m0[3] is the identity, so dropping it is still equivalent.
        assert proof.equivalent


class TestRegistryWideProofs:
    """`optimize(verify=True)` statically proves both levels for the
    whole registry — the PR's acceptance criterion."""

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_optimize_verified_on_registry(self, spec):
        for n in spec.sizes:
            program = spec.build(n)
            for level in (1, 2):
                optimize(program, level=level, verify=True)  # must not raise

    @pytest.mark.parametrize("spec", all_specs()[:6], ids=lambda s: s.name)
    def test_fusion_verified(self, spec):
        n = spec.sizes[0]
        program = spec.build(n)
        p = 8
        arr = ColumnWise(program.memory_words, p)
        mem = arr.allocate(program.dtype)
        compile_fused(program, arr, mem, verify=True)


class TestVerifyGuardTrips:
    def test_broken_pass_is_caught(self, monkeypatch):
        """Sabotage fold_constants; optimize(verify=True) must refuse."""
        import importlib

        # `repro.trace` re-exports the `optimize` *function* under the same
        # name, so attribute-style import would shadow the module.
        opt_mod = importlib.import_module("repro.trace.optimize")

        prog = make([Const(0, 2.0), Const(1, 3.0),
                     Binary(BinaryOp.ADD, 2, 0, 1), Store(0, 2)])

        def bad_fold(instrs, dtype):
            out = []
            for i in instrs:
                if isinstance(i, Binary):
                    out.append(Const(rd=i.rd, imm=99.0))  # wrong constant
                else:
                    out.append(i)
            return out

        monkeypatch.setattr(opt_mod, "fold_constants", bad_fold)
        with pytest.raises(EquivalenceError, match="not equivalent"):
            opt_mod.optimize(prog, level=1, verify=True)
        # Verification now defaults ON (env REPRO_VERIFY_PASSES), so even
        # the bare call refuses the miscompilation.
        with pytest.raises(EquivalenceError, match="not equivalent"):
            opt_mod.optimize(prog, level=1)
        # Only an explicit opt-out lets the bad fold through silently.
        opt_mod.optimize(prog, level=1, verify=False)

    def test_select_same_arm_rewrite_is_provable(self):
        ref = make([Load(0, 0), Load(1, 1), Select(2, 1, 0, 0), Store(2, 2)])
        # rd <- select(c, a, a) can be rewritten to a plain copy of a.
        cand = make([Load(0, 0), Load(1, 1),
                     Unary(UnaryOp.COPY, 2, 0), Store(2, 2)])
        proof = prove_equivalent(ref, cand, require_same_trace=True)
        assert proof.equivalent
