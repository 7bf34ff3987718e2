"""Closed-form stage tables: derivation checks and selection rules."""

from math import gcd

import numpy as np
import pytest

from repro.bulk import simulate_trace
from repro.bulk.arrangement import ColumnWise, PaddedRowWise, RowWise
from repro.bulk.simulate import step_stages
from repro.errors import MachineConfigError
from repro.machine import DMM, HMM, UMM, HMMParams, MachineParams
from repro.machine.analytic import (
    AnalyticKernel,
    analytic_kernel,
    column_wise_stage_table,
    row_wise_stage_table,
)


class TestColumnWise:
    @pytest.mark.parametrize("p,w,l", [(8, 4, 2), (96, 32, 100), (4, 1, 1)])
    @pytest.mark.parametrize("machine_cls", [UMM, DMM])
    def test_constant_cost_per_step(self, p, w, l, machine_cls):
        """Every column-wise step costs p/w + l - 1 on both machines:
        p % w == 0 makes each warp's addresses one aligned group / w banks."""
        params = MachineParams(p=p, w=w, l=l)
        arr = ColumnWise(words=16, p=p)
        kernel = analytic_kernel(arr, machine_cls(params))
        assert kernel is not None
        assert kernel.period == 1
        for a in range(16):
            assert kernel.step_time(a) == params.num_warps + l - 1
            assert kernel.step_stages(a) == params.num_warps

    def test_matches_step_cost_everywhere(self):
        params = MachineParams(p=32, w=8, l=7)
        arr = ColumnWise(words=9, p=32)
        machine = UMM(params)
        kernel = analytic_kernel(arr, machine)
        for a in range(arr.words):
            report = machine.step_cost(arr.step_addresses(a))
            assert kernel.step_time(a) == report.time_units
            assert kernel.step_stages(a) == report.total_stages


class TestRowWise:
    @pytest.mark.parametrize("words", [1, 3, 7, 8, 12, 32, 33])
    @pytest.mark.parametrize("machine_cls", [UMM, DMM])
    def test_matches_step_cost_everywhere(self, words, machine_cls):
        """The residue table reproduces step_cost for every local address,
        including words < w, words not a multiple of w, and words >= w."""
        params = MachineParams(p=24, w=8, l=5)
        arr = RowWise(words=words, p=24)
        machine = machine_cls(params)
        kernel = analytic_kernel(arr, machine)
        assert kernel is not None
        assert kernel.period == params.w
        for a in range(words):
            report = machine.step_cost(arr.step_addresses(a))
            assert kernel.step_time(a) == report.time_units
            assert kernel.step_stages(a) == report.total_stages

    def test_umm_fully_serialised_when_n_ge_w(self):
        """n >= w: one group per thread, the Theorem 2 row-wise worst case."""
        params = MachineParams(p=64, w=16, l=9)
        table = row_wise_stage_table(params, stride=16, machine_kind="UMM")
        np.testing.assert_array_equal(table, np.full(16, 64))

    def test_dmm_conflict_degree_is_gcd(self):
        params = MachineParams(p=64, w=16, l=9)
        for stride in (1, 2, 5, 8, 16, 17, 24):
            table = row_wise_stage_table(params, stride, machine_kind="DMM")
            expect = params.num_warps * gcd(stride, params.w)
            np.testing.assert_array_equal(table, np.full(16, expect))

    def test_invalid_stride(self):
        params = MachineParams(p=8, w=4, l=2)
        with pytest.raises(MachineConfigError):
            row_wise_stage_table(params, stride=0, machine_kind="UMM")


class TestPaddedRowWise:
    def test_padding_removes_dmm_conflicts_not_umm_groups(self):
        """The Section IV contrast, read straight off the stage tables."""
        params = MachineParams(p=64, w=32, l=1)
        plain = RowWise(words=32, p=64)
        padded = PaddedRowWise(words=32, p=64, pad=1)  # stride 33, coprime
        dmm, umm = DMM(params), UMM(params)
        assert analytic_kernel(plain, dmm).step_stages(0) == 2 * 32  # w-way
        assert analytic_kernel(padded, dmm).step_stages(0) == 2  # conflict-free
        assert analytic_kernel(plain, umm).step_stages(0) == 64
        assert analytic_kernel(padded, umm).step_stages(0) == 64  # no help

    @pytest.mark.parametrize("machine_cls", [UMM, DMM])
    def test_matches_step_cost_everywhere(self, machine_cls):
        params = MachineParams(p=16, w=4, l=3)
        arr = PaddedRowWise(words=10, p=16, pad=2)
        machine = machine_cls(params)
        kernel = analytic_kernel(arr, machine)
        for a in range(arr.words):
            report = machine.step_cost(arr.step_addresses(a))
            assert kernel.step_time(a) == report.time_units


class TestSelection:
    def test_none_for_hmm(self):
        params = MachineParams(p=8, w=4, l=2)
        hmm = HMM(HMMParams(d=2, core=params, global_width=4, global_latency=4))
        assert analytic_kernel(ColumnWise(words=8, p=8), hmm) is None

    def test_none_for_arrangement_subclass(self):
        """A subclass may change the address map: no closed form assumed."""

        class Shuffled(ColumnWise):
            def global_address(self, local, j):
                return super().global_address(local, j) ^ 1

        params = MachineParams(p=8, w=4, l=2)
        assert analytic_kernel(Shuffled(words=8, p=8), UMM(params)) is None

    def test_none_for_machine_subclass(self):
        class WeirdUMM(UMM):
            def warp_stage_counts(self, warp_addrs):
                return super().warp_stage_counts(warp_addrs) + 1

        params = MachineParams(p=8, w=4, l=2)
        assert analytic_kernel(ColumnWise(words=8, p=8), WeirdUMM(params)) is None


class TestPriceTrace:
    """The closed forms as the pricing path uses them (``step_stages``)."""

    def test_empty_trace(self):
        params = MachineParams(p=8, w=4, l=5)
        stages, source = step_stages(
            np.array([], dtype=np.int64), ColumnWise(words=4, p=8), UMM(params)
        )
        assert (stages.size, source) == (0, "analytic")

    def test_totals_are_sums_of_step_costs(self):
        params = MachineParams(p=16, w=4, l=6)
        arr = RowWise(words=11, p=16)
        machine = UMM(params)
        kernel = analytic_kernel(arr, machine)
        rng = np.random.default_rng(7)
        trace = rng.integers(0, 11, size=200)
        stages, source = step_stages(trace, arr, machine)
        assert source == "analytic"
        assert stages.tolist() == [kernel.step_stages(a) for a in trace]
        rep = simulate_trace(trace, arr, machine)
        assert rep.total_time == sum(kernel.step_time(a) for a in trace)

    def test_is_dataclass_with_table(self):
        params = MachineParams(p=8, w=4, l=2)
        kernel = analytic_kernel(ColumnWise(words=4, p=8), UMM(params))
        assert isinstance(kernel, AnalyticKernel)
        np.testing.assert_array_equal(
            kernel.stage_table, column_wise_stage_table(params)
        )
