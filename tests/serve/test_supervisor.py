"""Supervisor mechanics without chaos: pure scaling plans, scripted
autoscaling trajectories, and the admission controller's typed shedding.

The autoscaler's decision function (:func:`repro.serve.plan_scaling`) is
pure, and :meth:`ShardSupervisor.evaluate_scaling` is drivable with
scripted pressure samples — so the scale-up-to-max / drain-down-to-min
trajectory here is exactly reproducible run-to-run, which is the ISSUE 8
acceptance criterion for autoscaling determinism.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import ServeError
from repro.machine.analytic import autoscale_thresholds
from repro.serve import ShardConfig, ShardedServer, plan_scaling
from repro.serve.supervisor import p95


class TestPlanScaling:
    def test_high_pressure_scales_up_until_the_ceiling(self):
        assert plan_scaling(100.0, 2, 1, 4, up_threshold=10.0, down_threshold=1.0) == 1
        assert plan_scaling(100.0, 4, 1, 4, up_threshold=10.0, down_threshold=1.0) == 0

    def test_low_pressure_drains_until_the_floor(self):
        assert plan_scaling(0.1, 3, 2, 4, up_threshold=10.0, down_threshold=1.0) == -1
        assert plan_scaling(0.1, 2, 2, 4, up_threshold=10.0, down_threshold=1.0) == 0

    def test_hysteresis_band_holds_steady(self):
        # Pressure between the thresholds changes nothing in either
        # direction — the gap is what prevents spawn/drain oscillation.
        assert plan_scaling(5.0, 3, 1, 4, up_threshold=10.0, down_threshold=1.0) == 0

    def test_below_floor_always_spawns(self):
        assert plan_scaling(0.0, 0, 1, 4, up_threshold=10.0, down_threshold=1.0) == 1


class TestP95:
    def test_empty_window_is_zero(self):
        assert p95([]) == 0.0

    def test_single_sample_is_itself(self):
        assert p95([7.0]) == 7.0

    def test_nearest_rank_on_sorted_window(self):
        assert p95(list(range(100))) == 94


class TestAutoscaleThresholds:
    def test_hysteresis_is_enforced(self):
        up, down = autoscale_thresholds(64, 256, 32, 100)
        assert 0 < down < up
        with pytest.raises(Exception):
            autoscale_thresholds(64, 256, 32, 100, up_factor=0.1, down_factor=0.5)


class TestConfigValidation:
    def test_autoscale_bounds_require_supervision(self):
        with pytest.raises(ServeError):
            ShardConfig(shards=2, min_shards=1, max_shards=4)

    def test_shards_must_sit_inside_the_bounds(self):
        with pytest.raises(ServeError):
            ShardConfig(shards=1, supervise=True, min_shards=2, max_shards=4)

    def test_scale_factors_need_hysteresis(self):
        with pytest.raises(ServeError):
            ShardConfig(shards=1, scale_down_factor=1.0, scale_up_factor=1.0)


class TestScriptedAutoscaling:
    def _trajectory(self):
        """Drive the supervisor with a scripted pressure profile, twice
        reproducibly: sustained overload to the ceiling, idle to the floor."""

        async def main():
            config = ShardConfig(
                shards=1, supervise=True, min_shards=1, max_shards=3,
                max_linger=0.0, policy=4, max_batch=4,
                autoscale_window=1,          # each sample IS the p95
                supervise_interval=30.0,     # periodic loop stays out of the way
                heartbeat_interval=30.0,
            )
            async with ShardedServer(config) as server:
                # One real request establishes the queue key whose trace
                # length prices the thresholds.
                out = await server.submit("opt", np.arange(8) % 3, n=8)
                assert isinstance(out, np.ndarray)
                supervisor = server._supervisor
                cfg = server.config
                trace = max(
                    s.program.trace_length for s in server._queues.values()
                )
                up, down = autoscale_thresholds(
                    trace, cfg.max_batch, cfg.warp, cfg.latency,
                    speedup=cfg.lane_speedup(),
                    up_factor=cfg.scale_up_factor,
                    down_factor=cfg.scale_down_factor,
                )
                overload, idle = 2.0 * up, 0.5 * down
                decisions = []
                # Sustained overload: 1 -> 2 -> 3 shards, then hold at max.
                for _ in range(4):
                    decisions.append(supervisor.evaluate_scaling(overload))
                # Idle: drain 3 -> 2 -> 1, then hold at min.
                for _ in range(4):
                    decisions.append(supervisor.evaluate_scaling(idle))
                    supervisor._retire_drained()
                # Let drained shards finish retiring.
                for _ in range(20):
                    supervisor._retire_drained()
                    stats = server.stats()
                    if stats["supervisor"]["draining"] == 0:
                        break
                    await asyncio.sleep(0.02)
                return decisions, server.stats()

        return asyncio.run(main())

    def test_scripted_profile_scales_to_max_then_drains_to_min(self):
        decisions, stats = self._trajectory()
        assert decisions == [1, 1, 0, 0, -1, -1, 0, 0]
        assert stats["counters"]["shards.scale_ups"] == 2
        assert stats["counters"]["shards.scale_downs"] == 2
        assert stats["counters"]["shards.retired"] == 2
        assert stats["supervisor"]["live"] == 1
        assert stats["supervisor"]["draining"] == 0
        # Scaled-up ids exist in the shard table and ended retired.
        assert len(stats["shards"]) == 3
        assert stats["shards"][0]["alive"] is True
        retired = [s for s in stats["shards"].values() if s["retired"]]
        assert len(retired) == 2

    def test_trajectory_is_reproducible_run_to_run(self):
        first, first_stats = self._trajectory()
        second, second_stats = self._trajectory()
        assert first == second
        for counter in ("shards.scale_ups", "shards.scale_downs", "shards.retired"):
            assert (
                first_stats["counters"][counter]
                == second_stats["counters"][counter]
            )


class TestRetiredShardsAreClean:
    def test_scale_down_leaves_no_shared_memory_behind(self):
        # Retiring drains and unlinks the shard's arenas (router is the
        # owner); a second full server lifecycle right after must not trip
        # over leaked segments or a poisoned resource tracker.
        async def cycle():
            config = ShardConfig(
                shards=2, supervise=True, min_shards=1, max_shards=2,
                max_linger=0.0, policy=4, max_batch=4,
                autoscale_window=1, supervise_interval=30.0,
                heartbeat_interval=30.0,
            )
            async with ShardedServer(config) as server:
                out = await server.submit("opt", np.arange(8) % 3, n=8)
                supervisor = server._supervisor
                supervisor.evaluate_scaling(0.0)   # idle -> drain one
                for _ in range(20):
                    supervisor._retire_drained()
                    if server.stats()["supervisor"]["draining"] == 0:
                        break
                    await asyncio.sleep(0.02)
                return out, server.stats()

        out1, stats1 = asyncio.run(cycle())
        out2, stats2 = asyncio.run(cycle())
        assert np.array_equal(out1, out2)
        assert stats1["counters"]["shards.retired"] == 1
        assert stats2["counters"]["shards.retired"] == 1
