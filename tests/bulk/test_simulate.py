"""Bulk cost simulation: Theorem 2 exactness, chunking, trace validation,
Theorem 3 legality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.prefix_sums import build_prefix_sums
from repro.bulk import (
    ColumnWise,
    PaddedRowWise,
    RowWise,
    compare_arrangements,
    simulate_bulk,
    simulate_trace,
)
from repro.bulk import simulate as simulate_mod
from repro.errors import ArrangementError, MachineConfigError
from repro.machine import DMM, UMM, MachineParams
from repro.machine.cost import column_wise_time, lower_bound, row_wise_time


class TestTheorem2Exactness:
    @pytest.mark.parametrize("p,w,l", [(64, 8, 5), (128, 32, 100), (32, 32, 1)])
    def test_row_wise_formula_exact(self, p, w, l):
        params = MachineParams(p=p, w=w, l=l)
        prog = build_prefix_sums(64)  # n = 64 >= w: formula's standing case
        rep = simulate_bulk(prog, params, "row")
        assert rep.total_time == row_wise_time(params, prog.trace_length)

    @pytest.mark.parametrize("p,w,l", [(64, 8, 5), (128, 32, 100), (32, 32, 1)])
    def test_column_wise_formula_exact(self, p, w, l):
        params = MachineParams(p=p, w=w, l=l)
        prog = build_prefix_sums(64)
        rep = simulate_bulk(prog, params, "column")
        assert rep.total_time == column_wise_time(params, prog.trace_length)

    def test_row_wise_cheaper_when_n_below_w(self):
        """With n < w several threads' strided addresses share an address
        group, so the row-wise run beats the n >= w formula — the formula is
        the worst case, not an identity."""
        params = MachineParams(p=64, w=32, l=5)
        prog = build_prefix_sums(4)  # n = 4 < w = 32
        rep = simulate_bulk(prog, params, "row")
        assert rep.total_time < row_wise_time(params, prog.trace_length)

    def test_column_beats_row_by_theta_w(self):
        params = MachineParams(p=256, w=32, l=1)
        prog = build_prefix_sums(64)
        row = simulate_bulk(prog, params, "row").total_time
        col = simulate_bulk(prog, params, "column").total_time
        # with l = 1 the ratio approaches w
        assert row / col > params.w / 2


class SubclassedColumn(ColumnWise):
    """No closed form is matched for a subclass: distinct-address path."""


class TestChunking:
    """The distinct-address path prices in fixed internal chunks of
    ``_CHUNK_WORDS // p`` addresses; the chunk boundary never changes a
    price."""

    @pytest.mark.parametrize("chunk", [1, 3, 7, 1000])
    def test_chunk_size_invariant(self, chunk, monkeypatch):
        params = MachineParams(p=32, w=8, l=7)
        prog = build_prefix_sums(16)
        arr = SubclassedColumn(prog.memory_words, params.p)
        machine = UMM(params)
        monkeypatch.setattr(simulate_mod, "_CHUNK_WORDS", chunk * params.p)
        rep = simulate_bulk(prog, machine, arr)
        ref = machine.trace_cost(arr.trace_addresses(prog.address_trace()))
        assert rep.method == "memoized"
        assert rep.total_time == ref.total_time
        assert rep.total_stages == ref.total_stages


class TestTraceValidation:
    """A trace the program could not have produced is refused before any
    price source is chosen — the closed forms would otherwise price
    out-of-range or fractional addresses by their residue."""

    @pytest.mark.parametrize(
        "trace",
        [[100], [-1, 5], [4], [3.7], [[0, 1]]],
        ids=["far", "negative", "words", "float", "2-D"],
    )
    @pytest.mark.parametrize("machine_cls", [UMM, DMM])
    def test_rejected_everywhere(self, trace, machine_cls):
        params = MachineParams(p=8, w=4, l=2)
        machine = machine_cls(params)
        for arr in (
            ColumnWise(words=4, p=8),
            RowWise(words=4, p=8),
            PaddedRowWise(words=4, p=8),
            SubclassedColumn(words=4, p=8),
        ):
            with pytest.raises(ArrangementError):
                simulate_trace(np.array(trace), arr, machine)

    def test_empty_float_trace_costs_nothing(self):
        params = MachineParams(p=8, w=4, l=2)
        rep = simulate_trace(np.array([]), ColumnWise(words=4, p=8), UMM(params))
        assert (rep.total_time, rep.trace_length) == (0, 0)


class TestSimulateTrace:
    def test_geometry_mismatch(self):
        params = MachineParams(p=32, w=8, l=7)
        arr = ColumnWise(words=8, p=16)  # p mismatch
        with pytest.raises(MachineConfigError, match="p="):
            simulate_trace(np.array([0, 1]), arr, UMM(params))

    def test_empty_trace(self):
        params = MachineParams(p=8, w=4, l=3)
        arr = ColumnWise(words=4, p=8)
        rep = simulate_trace(np.array([], dtype=np.int64), arr, UMM(params))
        assert rep.total_time == 0
        assert rep.trace_length == 0

    def test_report_fields(self):
        params = MachineParams(p=8, w=4, l=3)
        prog = build_prefix_sums(8)
        rep = simulate_bulk(prog, params, "column")
        assert rep.machine == params
        assert rep.arrangement == "column"
        assert rep.trace_length == 16
        assert rep.time_per_step == rep.total_time / 16
        assert rep.theorem3_bound == lower_bound(params, 16)

    def test_versus(self):
        params = MachineParams(p=64, w=8, l=2)
        prog = build_prefix_sums(16)
        row = simulate_bulk(prog, params, "row")
        col = simulate_bulk(prog, params, "column")
        assert col.versus(row) == row.total_time / col.total_time > 1.0

    def test_accepts_explicit_machine(self):
        params = MachineParams(p=32, w=8, l=2)
        prog = build_prefix_sums(16)
        assert (
            simulate_bulk(prog, UMM(params), "row").total_time
            == simulate_bulk(prog, params, "row").total_time
        )
        # DMM prices the same bulk trace no higher than the UMM.
        assert (
            simulate_bulk(prog, DMM(params), "row").total_time
            <= simulate_bulk(prog, params, "row").total_time
        )


class TestTheorem3Legality:
    @given(st.integers(2, 6), st.integers(0, 3), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_simulated_times_respect_lower_bound(self, n_exp, w_exp, l):
        """No simulated schedule beats Ω(pt/w + lt), either arrangement."""
        p = 2 ** (n_exp + 1)
        w = 2 ** min(w_exp, n_exp + 1)
        params = MachineParams(p=p, w=w, l=l)
        prog = build_prefix_sums(2**n_exp)
        bound = lower_bound(params, prog.trace_length)
        for arrangement in ("row", "column"):
            rep = simulate_bulk(prog, params, arrangement)
            assert rep.total_time >= bound

    @given(st.integers(1, 5), st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_column_wise_is_2_optimal(self, w_exp, l):
        """Column-wise measured time <= 2x the Theorem 3 bound (optimality)."""
        w = 2**w_exp
        params = MachineParams(p=4 * w, w=w, l=l)
        prog = build_prefix_sums(32)
        rep = simulate_bulk(prog, params, "column")
        assert rep.optimality_ratio <= 2.0


class TestCompareArrangements:
    def test_breakdown_consistency(self):
        params = MachineParams(p=64, w=8, l=5)
        prog = build_prefix_sums(32)
        cb = compare_arrangements(prog, params)
        assert cb.row_wise == simulate_bulk(prog, params, "row").total_time
        assert cb.column_wise == simulate_bulk(prog, params, "column").total_time
        assert cb.t == prog.trace_length
        assert cb.bound == lower_bound(params, cb.t)
