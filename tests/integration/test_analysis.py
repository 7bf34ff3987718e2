"""Static analysis: coalescing reports and region profiling."""

import numpy as np
import pytest

from repro.algorithms.fft import build_fft
from repro.algorithms.polygon import build_opt
from repro.algorithms.prefix_sums import build_prefix_sums
from repro.analysis import (
    Region,
    access_density,
    analyze_coalescing,
    profile_regions,
)
from repro.bulk import simulate_bulk
from repro.errors import WorkloadError
from repro.machine import MachineParams

P = MachineParams(p=64, w=8, l=5)


class TestCoalescing:
    def test_column_wise_fully_coalesced(self):
        rep = analyze_coalescing(build_prefix_sums(32), P, "column")
        assert rep.coalesced_fraction == 1.0
        assert rep.bandwidth_efficiency == 1.0
        assert rep.min_stages == P.num_warps

    def test_row_wise_fully_scattered(self):
        rep = analyze_coalescing(build_prefix_sums(32), P, "row")
        assert rep.coalesced_fraction == 0.0
        assert rep.bandwidth_efficiency == pytest.approx(1 / P.w)
        assert rep.mean_stages_per_step == P.p

    def test_stage_sum_ties_to_simulator(self):
        prog = build_opt(6)
        rep = analyze_coalescing(prog, P, "column")
        sim = simulate_bulk(prog, P, "column")
        assert int(rep.step_stages.sum()) == sim.total_stages
        t = prog.trace_length
        assert int(rep.step_stages.sum()) + (P.l - 1) * t == sim.total_time

    def test_worst_steps_sorted(self):
        rep = analyze_coalescing(build_prefix_sums(16), P, "row")
        worst = rep.worst_steps(3)
        assert len(worst) == 3
        stages = [s for _, s in worst]
        assert stages == sorted(stages, reverse=True)

    def test_histogram_accounts_every_step(self):
        prog = build_prefix_sums(16)
        rep = analyze_coalescing(prog, P, "column")
        assert sum(rep.histogram().values()) == prog.trace_length

    def test_summary_mentions_arrangement(self):
        rep = analyze_coalescing(build_prefix_sums(8), P, "row")
        assert "row-wise" in rep.summary()


class TestRegionProfile:
    def test_opt_regions(self):
        n = 8
        prog = build_opt(n)
        profile = profile_regions(
            prog,
            [
                Region("weights-c", 0, n * n),
                Region("table-M", n * n, 2 * n * n),
            ],
        )
        assert profile.unassigned == 0
        # weights are read once per (i, j) pair — never written
        name, reads, writes = profile.rows[0]
        assert name == "weights-c" and writes == 0 and reads > 0
        # the DP table dominates the trace
        assert profile.total("table-M") > profile.total("weights-c")

    def test_fft_planes(self):
        n = 16
        prog = build_fft(n)
        profile = profile_regions(
            prog, [Region("re", 0, n), Region("im", n, 2 * n)]
        )
        # perfectly symmetric plane usage
        assert profile.total("re") == profile.total("im")

    def test_overlapping_regions_rejected(self):
        prog = build_prefix_sums(8)
        with pytest.raises(WorkloadError, match="overlap"):
            profile_regions(prog, [Region("a", 0, 5), Region("b", 4, 8)])

    def test_unknown_region_lookup(self):
        prog = build_prefix_sums(8)
        profile = profile_regions(prog, [Region("all", 0, 8)])
        with pytest.raises(WorkloadError):
            profile.total("nope")

    def test_invalid_region(self):
        with pytest.raises(WorkloadError):
            Region("bad", 5, 5)

    def test_render(self):
        prog = build_prefix_sums(8)
        text = profile_regions(prog, [Region("data", 0, 8)]).render()
        assert "data" in text and "100.0%" in text


class TestAccessDensity:
    def test_prefix_uniform_density(self):
        density = access_density(build_prefix_sums(16))
        np.testing.assert_array_equal(density, np.full(16, 2))

    def test_opt_triangle_hot(self):
        n = 8
        density = access_density(build_opt(n))
        m = density[n * n :].reshape(n, n)
        # strictly-lower-triangle cells of M (j < i) are never touched
        assert m[5, 2] == 0
        # near-diagonal upper cells participate in many subproblems
        assert m[1, 2] > 0

    def test_sums_to_trace_length(self):
        prog = build_opt(6)
        assert int(access_density(prog).sum()) == prog.trace_length
