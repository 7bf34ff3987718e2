"""One pricing path, checked against the machine's own oracle.

Obliviousness makes a bulk step's cost a pure function of its local
address, so :func:`~repro.bulk.simulate.step_stages` prices each distinct
address once — from a closed-form table for the library arrangements, and
through ``machine.trace_cost`` for anything else.  Both sources must agree
*bit for bit* with the full ``(t, p)`` matrix priced by
``machine.trace_cost(arr.trace_addresses(trace))`` and with the warp-by-warp
pipeline walk (``step_cost_incremental``) — across machines, arrangements,
widths, non-power-of-two warp counts, memories not a multiple of ``w``, and
masked steps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.polygon import build_opt
from repro.algorithms.prefix_sums import build_prefix_sums
from repro.analysis import analyze_coalescing
from repro.bulk import (
    ColumnWise,
    PaddedRowWise,
    RowWise,
    make_arrangement,
    simulate_bulk,
    simulate_trace,
)
from repro.bulk.simulate import step_stages
from repro.machine import DMM, UMM, MachineParams

MACHINES = [UMM, DMM]


class SubclassedRow(RowWise):
    """Same address map as :class:`RowWise`, but no closed form is matched
    for a subclass, so it is priced on the distinct-address path."""


class SubclassedColumn(ColumnWise):
    """Same address map as :class:`ColumnWise`; distinct-address path."""


def _library(words, p):
    yield make_arrangement("row", words, p)
    yield make_arrangement("column", words, p)
    yield PaddedRowWise(words, p, pad=1)
    yield PaddedRowWise(words, p, pad=3)


def _arrangements(words, p):
    yield from _library(words, p)
    yield SubclassedRow(words, p)
    yield SubclassedColumn(words, p)


def _expected_source(arr):
    return "memoized" if isinstance(arr, (SubclassedRow, SubclassedColumn)) else "analytic"


def _oracle(trace, arr, machine):
    """The full ``(t, p)`` bulk address matrix, priced step by step."""
    return machine.trace_cost(arr.trace_addresses(trace))


@st.composite
def trace_configs(draw):
    """Machine geometry + local trace: w in 1..8, p a (non-power-of-two)
    multiple of w, words deliberately not always a multiple of w."""
    w = draw(st.sampled_from([1, 2, 3, 4, 8]))
    p = w * draw(st.sampled_from([1, 2, 3, 5, 6]))
    l = draw(st.integers(1, 20))
    words = draw(st.integers(1, 20))
    trace = draw(
        st.lists(st.integers(0, words - 1), min_size=0, max_size=50).map(
            lambda xs: np.array(xs, dtype=np.int64)
        )
    )
    return MachineParams(p=p, w=w, l=l), words, trace


class TestMethodEquivalence:
    @given(trace_configs())
    @settings(max_examples=60, deadline=None)
    def test_all_methods_bit_identical(self, cfg):
        """Both price sources equal the full-matrix oracle, step for step."""
        params, words, trace = cfg
        for machine_cls in MACHINES:
            machine = machine_cls(params)
            for arr in _arrangements(words, params.p):
                oracle = _oracle(trace, arr, machine)
                stages, source = step_stages(trace, arr, machine)
                rep = simulate_trace(trace, arr, machine)
                np.testing.assert_array_equal(stages, oracle.step_stages)
                assert (rep.total_time, rep.total_stages) == (
                    oracle.total_time,
                    oracle.total_stages,
                ), (params, arr)
                assert source == rep.method == _expected_source(arr)

    @given(trace_configs())
    @settings(max_examples=25, deadline=None)
    def test_matches_per_step_pipeline_oracle(self, cfg):
        """The warp-by-warp incremental pipeline walk (the slowest, most
        literal reading of Section II) prices each step identically."""
        params, words, trace = cfg
        for machine_cls in MACHINES:
            machine = machine_cls(params)
            for arr in (
                make_arrangement("row", words, params.p),
                SubclassedRow(words, params.p),
            ):
                walk = [
                    machine.step_cost_incremental(arr.step_addresses(int(a)))
                    for a in trace
                ]
                stages, _ = step_stages(trace, arr, machine)
                assert stages.tolist() == [s.total_stages for s in walk]
                rep = simulate_trace(trace, arr, machine)
                assert rep.total_time == sum(s.time_units for s in walk)
                assert rep.total_stages == sum(s.total_stages for s in walk)


class TestMaskedSteps:
    """Partially idle steps: the vectorised trace pricing must match the
    per-step dispatch rules (idle lanes contribute nothing, fully idle
    warps are skipped, fully idle steps cost zero)."""

    @given(trace_configs(), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_trace_cost_equals_step_cost_and_oracle(self, cfg, rnd):
        params, words, trace = cfg
        arr = make_arrangement("row", words, params.p)
        matrix = arr.trace_addresses(trace)
        mask = np.array(
            [[rnd.random() < 0.6 for _ in range(params.p)] for _ in trace],
            dtype=bool,
        ).reshape(matrix.shape)
        for machine_cls in MACHINES:
            machine = machine_cls(params)
            report = machine.trace_cost(matrix, mask)
            for i in range(len(trace)):
                batch = machine.step_cost(matrix[i], mask[i])
                oracle = machine.step_cost_incremental(matrix[i], mask[i])
                assert report.step_times[i] == batch.time_units == oracle.time_units
                assert (
                    report.step_stages[i]
                    == batch.total_stages
                    == oracle.total_stages
                )


class TestMethodSelection:
    def test_auto_falls_back_to_memoized(self):
        """A subclass may redefine the address map: no closed form is
        assumed, and the distinct-address path prices it exactly."""
        params = MachineParams(p=8, w=4, l=2)
        arr = SubclassedColumn(words=8, p=8)
        trace = np.array([0, 1, 1, 7])
        rep = simulate_trace(trace, arr, UMM(params))
        assert rep.method == "memoized"
        assert rep.total_time == _oracle(trace, arr, UMM(params)).total_time

    def test_report_records_resolved_method(self):
        params = MachineParams(p=8, w=4, l=2)
        prog = build_prefix_sums(4)
        for arrangement in ("row", "column", "padded-row"):
            assert simulate_bulk(prog, params, arrangement).method == "analytic"
            assert simulate_bulk(prog, DMM(params), arrangement).method == "analytic"


class TestCoalescingSharesThePath:
    @given(
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 3, 4]),
        st.integers(1, 12),
        st.sampled_from(["prefix-4", "prefix-9", "opt-4"]),
        st.sampled_from(["column", "row", "padded-row", "subclass"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_step_stages_match_oracle(self, w, warps, l, which, kind):
        """``analyze_coalescing`` reports the oracle's stages, step for step."""
        params = MachineParams(p=w * warps, w=w, l=l)
        name, n = which.split("-")
        prog = (build_prefix_sums if name == "prefix" else build_opt)(int(n))
        arr = (
            SubclassedRow(prog.memory_words, params.p)
            if kind == "subclass"
            else make_arrangement(kind, prog.memory_words, params.p)
        )
        rep = analyze_coalescing(prog, params, arr)
        oracle = _oracle(prog.address_trace(), arr, UMM(params))
        np.testing.assert_array_equal(rep.step_stages, oracle.step_stages)


class TestFigureConfigurations:
    """Acceptance guard: the pricing path is bit-identical to the full-matrix
    oracle on the Figure 11/12 configuration grids (results/fig11.json,
    results/fig12.json use these n × p sweeps with w=32, l=100)."""

    @staticmethod
    def _check(prog, params):
        machine = UMM(params)
        for arrangement in ("row", "column"):
            rep = simulate_bulk(prog, machine, arrangement)
            arr = make_arrangement(arrangement, prog.memory_words, params.p)
            ref = _oracle(prog.address_trace(), arr, machine)
            assert rep.total_time == ref.total_time
            assert rep.total_stages == ref.total_stages

    @pytest.mark.parametrize("n", [32, 1024])
    @pytest.mark.parametrize("p", [64, 512])
    def test_fig11_prefix_sums_grid(self, n, p):
        self._check(build_prefix_sums(n), MachineParams(p=p, w=32, l=100))

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("p", [64, 256])
    def test_fig12_opt_grid(self, n, p):
        self._check(build_opt(n), MachineParams(p=p, w=32, l=100))
