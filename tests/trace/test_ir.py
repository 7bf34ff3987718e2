"""IR structure: trace properties, validation, listing, concatenation."""

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.errors import AddressError, ProgramError, RegisterError
from repro.trace import (
    Binary,
    BinaryOp,
    Const,
    Load,
    Program,
    Select,
    Store,
    Unary,
    UnaryOp,
    concat_programs,
    instruction_def,
    instruction_uses,
)
from repro.trace.serialize import program_to_dict


def make_program(instrs, regs=4, words=8, dtype=np.float64):
    return Program(
        instructions=tuple(instrs),
        num_registers=regs,
        memory_words=words,
        dtype=np.dtype(dtype),
    )


class TestDerivedQuantities:
    def test_trace_length_counts_memory_ops_only(self):
        prog = make_program(
            [Const(0, 1.0), Load(1, 0), Binary(BinaryOp.ADD, 2, 0, 1), Store(3, 2)]
        )
        assert prog.trace_length == 2
        assert prog.num_instructions == 4

    def test_address_trace_static(self):
        prog = make_program([Load(0, 5), Store(2, 0), Load(1, 7)])
        np.testing.assert_array_equal(prog.address_trace(), [5, 2, 7])

    def test_write_mask(self):
        prog = make_program([Load(0, 5), Store(2, 0), Load(1, 7)])
        np.testing.assert_array_equal(prog.write_mask(), [False, True, False])

    def test_empty_trace(self):
        prog = make_program([Const(0, 0.0)])
        assert prog.trace_length == 0
        assert prog.address_trace().size == 0

    def test_memory_instructions_iterator(self):
        prog = make_program([Const(0, 1.0), Load(1, 3), Store(4, 1)])
        mem_ops = list(prog.memory_instructions())
        assert len(mem_ops) == 2
        assert isinstance(mem_ops[0], Load) and isinstance(mem_ops[1], Store)

    def test_address_trace_cached_and_read_only(self):
        """The trace is computed once (same object back) and is immutable."""
        prog = make_program([Load(0, 5), Store(2, 0), Load(1, 7)])
        first = prog.address_trace()
        assert prog.address_trace() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 99
        np.testing.assert_array_equal(first, [5, 2, 7])

    def test_address_trace_cache_per_instance(self):
        """Equal programs do not share the cache (it lives per instance)."""
        a = make_program([Load(0, 1)])
        b = make_program([Load(0, 1)])
        assert a == b
        assert a.address_trace() is not b.address_trace()


class TestCachedFacts:
    """``trace_length`` is counted once; the cache is invisible otherwise."""

    def test_replace_recounts(self):
        prog = make_program([Load(0, 1), Store(2, 0)])
        assert prog.trace_length == 2
        shorter = dataclasses.replace(prog, instructions=(Load(0, 1),))
        assert shorter.trace_length == 1
        assert shorter.address_trace().tolist() == [1]
        assert prog.trace_length == 2

    def test_pickle_round_trip_keeps_value(self):
        prog = make_program([Load(0, 1), Const(1, 2.0), Store(2, 1)])
        assert prog.trace_length == 2
        clone = pickle.loads(pickle.dumps(prog))
        assert clone == prog
        assert clone.trace_length == 2
        fresh = pickle.loads(pickle.dumps(make_program([Load(0, 1)])))
        assert fresh.trace_length == 1

    def test_equality_ignores_cache(self):
        a = make_program([Load(0, 1), Store(2, 0)])
        b = make_program([Load(0, 1), Store(2, 0)])
        a.trace_length
        a.address_trace()
        assert a == b and b == a
        assert a != make_program([Load(0, 1)])

    def test_ir_document_unchanged_by_cache(self):
        instrs = [Const(0, 1.0), Load(1, 3), Store(4, 1)]
        before = json.dumps(program_to_dict(make_program(instrs)))
        prog = make_program(instrs)
        prog.trace_length
        prog.address_trace()
        assert json.dumps(program_to_dict(prog)) == before


class TestUsesDefs:
    def test_uses(self):
        assert instruction_uses(Store(0, 3)) == (3,)
        assert instruction_uses(Binary(BinaryOp.ADD, 0, 1, 2)) == (1, 2)
        assert instruction_uses(Unary(UnaryOp.NEG, 0, 1)) == (1,)
        assert instruction_uses(Select(0, 1, 2, 3)) == (1, 2, 3)
        assert instruction_uses(Const(0, 1.0)) == ()
        assert instruction_uses(Load(0, 0)) == ()

    def test_defs(self):
        assert instruction_def(Store(0, 3)) is None
        assert instruction_def(Load(2, 0)) == 2
        assert instruction_def(Const(1, 0.0)) == 1
        assert instruction_def(Select(5, 1, 2, 3)) == 5


class TestValidate:
    def test_valid_program_passes(self):
        make_program([Const(0, 1.0), Store(0, 0)]).validate()

    def test_use_before_def(self):
        with pytest.raises(RegisterError, match="before"):
            make_program([Store(0, 0)]).validate()

    def test_register_out_of_range(self):
        with pytest.raises(RegisterError, match="out of range"):
            make_program([Const(9, 1.0)], regs=4).validate()

    def test_use_register_out_of_range(self):
        with pytest.raises(RegisterError):
            make_program([Const(0, 1.0), Store(0, 7)], regs=4).validate()

    def test_address_out_of_range(self):
        with pytest.raises(AddressError):
            make_program([Load(0, 8)], words=8).validate()

    def test_negative_address(self):
        with pytest.raises(AddressError):
            make_program([Load(0, -1)]).validate()

    def test_bitwise_on_float_rejected(self):
        with pytest.raises(ProgramError, match="integer"):
            make_program(
                [Const(0, 1.0), Binary(BinaryOp.XOR, 1, 0, 0)]
            ).validate()

    def test_bitwise_on_int_accepted(self):
        make_program(
            [Const(0, 1.0), Binary(BinaryOp.XOR, 1, 0, 0)], dtype=np.int64
        ).validate()

    def test_select_requires_defined_condition(self):
        with pytest.raises(RegisterError):
            make_program([Const(1, 0.0), Const(2, 0.0), Select(0, 3, 1, 2)]).validate()


class TestListing:
    def test_listing_header(self):
        prog = make_program([Load(0, 1), Store(2, 0)])
        text = prog.listing()
        assert "t=2" in text and "m[1]" in text and "m[2]" in text

    def test_listing_truncation(self):
        prog = make_program([Const(0, float(i)) for i in range(50)], regs=1)
        text = prog.listing(limit=10)
        assert "40 more" in text

    def test_listing_no_limit(self):
        prog = make_program([Const(0, float(i)) for i in range(50)], regs=1)
        assert "more" not in prog.listing(limit=None)


class TestConcat:
    def test_concat_joins_instructions(self):
        a = make_program([Load(0, 0), Store(1, 0)], regs=1)
        b = make_program([Load(0, 2), Store(3, 0)], regs=1)
        c = concat_programs([a, b])
        assert c.num_instructions == 4
        np.testing.assert_array_equal(c.address_trace(), [0, 1, 2, 3])

    def test_concat_register_file_is_max(self):
        a = make_program([Const(0, 1.0)], regs=2)
        b = make_program([Const(0, 1.0)], regs=7)
        assert concat_programs([a, b]).num_registers == 7

    def test_concat_geometry_mismatch(self):
        a = make_program([Const(0, 1.0)], words=8)
        b = make_program([Const(0, 1.0)], words=16)
        with pytest.raises(ProgramError, match="geometry"):
            concat_programs([a, b])

    def test_concat_dtype_mismatch(self):
        a = make_program([Const(0, 1.0)], dtype=np.float64)
        b = make_program([Const(0, 1.0)], dtype=np.int64)
        with pytest.raises(ProgramError):
            concat_programs([a, b])

    def test_concat_empty_list(self):
        with pytest.raises(ProgramError):
            concat_programs([])
