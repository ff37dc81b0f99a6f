"""Coordinator mechanics: validation, handoffs, lifecycle pipes, kill-retry."""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import time

import pytest

from repro.shard import (
    ChurnSpec,
    FaultPlanSpec,
    LinkFlapSpec,
    ShardConfigError,
    ShardPlan,
    ShardRunResult,
    ShardRuntime,
    ShardScenarioSpec,
    ShardWorkerError,
    ShardedSimulator,
    WorkloadSpec,
    run_serial,
)

_FLOOD = ShardScenarioSpec(
    seed=5,
    blocks=3,
    n_blue=20,
    bitrate_cap_bps=5e4,
    router="flooding",
    workload=WorkloadSpec(kind="beacons", rate_hz=1.0, ttl=4, sender_stride=2),
)


class TestValidation:
    def test_rejects_unknown_mode(self):
        for mode in ("threads", "spawn"):
            with pytest.raises(ShardConfigError, match="mode"):
                ShardedSimulator(_FLOOD, mode=mode)

    def test_rejects_nonpositive_horizon(self):
        engine = ShardedSimulator(_FLOOD, ShardPlan(n_shards=2), mode="inline")
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ShardConfigError, match="until"):
                engine.run(bad)

    def test_rejects_window_beyond_lookahead(self):
        plan = ShardPlan(n_shards=2, cell_size_m=60.0, window_s=10.0)
        with pytest.raises(ShardConfigError, match="lookahead"):
            ShardedSimulator(_FLOOD, plan, mode="inline").run(1.0)

    def test_rejects_chaos_in_inline_mode(self):
        spec = ShardScenarioSpec(
            seed=1, chaos_crash=(0, 1.0, "/tmp/never-used-sentinel")
        )
        with pytest.raises(ShardConfigError, match="chaos"):
            ShardedSimulator(spec, ShardPlan(n_shards=2), mode="inline")

    def test_rejects_unsafe_router(self):
        spec = ShardScenarioSpec(seed=1, router="geo")
        with pytest.raises(ShardConfigError, match="shard-safe"):
            ShardedSimulator(spec, ShardPlan(n_shards=2), mode="inline")

    def test_window_count_cap(self):
        plan = ShardPlan(n_shards=2, cell_size_m=60.0, window_s=1e-9)
        with pytest.raises(ShardConfigError, match="windows"):
            ShardedSimulator(_FLOOD, plan, mode="inline").run(10.0)


class TestResultSurface:
    def test_single_shard_plan_runs_serial(self):
        result = ShardedSimulator(_FLOOD, ShardPlan(n_shards=1)).run(1.0)
        assert result.mode == "serial"
        assert result.n_shards == 1
        assert result.records

    def test_events_per_sec_guard(self):
        result = ShardRunResult(until=1.0, n_shards=1, mode="serial")
        result.events_processed = 100
        result.wall_elapsed_s = 0.0
        assert result.events_per_sec == 0.0
        result.wall_elapsed_s = math.inf
        assert result.events_per_sec == 0.0
        result.wall_elapsed_s = 0.5
        assert result.events_per_sec == 200.0


class TestBarrierAlgebra:
    def test_every_shard_contributes_records(self):
        plan = ShardPlan(n_shards=4, cell_size_m=60.0)
        result = ShardedSimulator(_FLOOD, plan, mode="inline").run(3.0)
        assert result.n_windows > 1
        shards_seen = {r["shard"] for r in result.records}
        assert shards_seen == {0, 1, 2, 3}
        owned_counts = [p["owned"] for p in result.per_shard]
        assert sum(owned_counts) == 20
        assert all(c > 0 for c in owned_counts)

    def test_explicit_window_matches_default(self):
        default = ShardedSimulator(
            _FLOOD, ShardPlan(n_shards=2, cell_size_m=60.0), mode="inline"
        ).run(2.0)
        # A different (smaller) window is still conservative: same trace.
        small = ShardedSimulator(
            _FLOOD,
            ShardPlan(n_shards=2, cell_size_m=60.0, window_s=default.window_s / 3),
            mode="inline",
        ).run(2.0)
        assert small.n_windows > default.n_windows
        assert small.fingerprint() == default.fingerprint()


class TestLifecycleOverPipes:
    SPEC = ShardScenarioSpec(
        seed=5,
        blocks=3,
        n_blue=20,
        bitrate_cap_bps=5e4,
        router="flooding",
        workload=WorkloadSpec(kind="beacons", rate_hz=1.0, ttl=4, sender_stride=2),
        lifecycle=((1.0, 3, False), (2.2, 3, True)),
    )

    def test_lifecycle_events_reach_workers_at_the_right_window(self):
        serial = run_serial(self.SPEC, 3.0)
        sharded = ShardedSimulator(
            self.SPEC, ShardPlan(n_shards=2, cell_size_m=60.0), mode="fork"
        ).run(3.0)
        assert sharded.fingerprint() == serial.fingerprint()
        # The injected outage is visible: it changed the world vs no-lifecycle.
        baseline = run_serial(_FLOOD, 3.0)
        assert serial.fingerprint() != baseline.fingerprint()

    def test_beyond_horizon_lifecycle_is_dropped(self):
        spec = ShardScenarioSpec(
            seed=5,
            blocks=3,
            n_blue=20,
            bitrate_cap_bps=5e4,
            router="flooding",
            workload=WorkloadSpec(
                kind="beacons", rate_hz=1.0, ttl=4, sender_stride=2
            ),
            lifecycle=((50.0, 3, False),),
        )
        sharded = ShardedSimulator(
            spec, ShardPlan(n_shards=2, cell_size_m=60.0), mode="inline"
        ).run(2.0)
        assert sharded.fingerprint() == run_serial(_FLOOD, 2.0).fingerprint()


class TestModesAgree:
    SPEC = ShardScenarioSpec(
        seed=19,
        blocks=3,
        n_blue=18,
        bitrate_cap_bps=5e4,
        router="flooding",
        workload=WorkloadSpec(kind="beacons", rate_hz=1.0, ttl=4, sender_stride=2),
        faults=FaultPlanSpec(
            link_flap=LinkFlapSpec(start_s=0.5, n_links=6, mtbf_s=2.0, mean_downtime_s=1.5)
        ),
        lifecycle=((1.0, 3, False), (2.2, 3, True)),
    )

    def test_inline_equals_fork_field_by_field(self):
        """Both modes run one coordinator loop: every result field but the
        mode and the wall clock must match, not just the fingerprint."""
        plan = ShardPlan(n_shards=2, cell_size_m=60.0)
        fork = ShardedSimulator(self.SPEC, plan, mode="fork").run(3.0)
        inline = ShardedSimulator(self.SPEC, plan, mode="inline").run(3.0)
        assert (fork.mode, inline.mode) == ("fork", "inline")
        assert inline.records and inline.n_windows > 1
        assert repr(inline.counters) == repr(fork.counters)
        for f in dataclasses.fields(ShardRunResult):
            if f.name not in ("mode", "wall_elapsed_s"):
                assert getattr(inline, f.name) == getattr(fork, f.name), f.name


class TestKillRetry:
    def test_chaos_crash_kills_one_attempt_then_retry_succeeds(self, tmp_path):
        sentinel = tmp_path / "crashed.once"
        spec = ShardScenarioSpec(
            seed=5,
            blocks=3,
            n_blue=20,
            bitrate_cap_bps=5e4,
            router="flooding",
            workload=WorkloadSpec(
                kind="beacons", rate_hz=1.0, ttl=4, sender_stride=2
            ),
            chaos_crash=(1, 1.5, str(sentinel)),
        )
        engine = ShardedSimulator(
            spec,
            ShardPlan(n_shards=2, cell_size_m=60.0),
            mode="fork",
            barrier_timeout_s=60.0,
        )
        result = engine.run(3.0)
        assert result.retries == 1
        assert sentinel.exists()
        # chaos targets shard 1; the serial reference (shard 0) never arms
        # it, and the retried attempt is bit-identical to an unharmed run.
        assert result.fingerprint() == run_serial(spec, 3.0).fingerprint()

    def test_exhausted_retries_raise(self, tmp_path):
        spec = ShardScenarioSpec(
            seed=5,
            blocks=3,
            n_blue=20,
            bitrate_cap_bps=5e4,
            router="flooding",
            workload=WorkloadSpec(
                kind="beacons", rate_hz=1.0, ttl=4, sender_stride=2
            ),
            # No sentinel is ever written to a fresh path per attempt —
            # point at a directory so open() fails and the crash repeats.
            chaos_crash=(0, 1.5, str(tmp_path / "missing" / "dir" / "s")),
        )
        engine = ShardedSimulator(
            spec,
            ShardPlan(n_shards=2, cell_size_m=60.0),
            mode="fork",
            barrier_timeout_s=60.0,
            max_retries=1,
        )
        with pytest.raises(ShardWorkerError):
            engine.run(3.0)


class TestPoolFailureDrills:
    """The pool's deadline and error branches, reached by patching the
    runtime before the fork: every worker inherits the patch."""

    @staticmethod
    def _drill(monkeypatch, tmp_path, misbehave, match):
        attempts = tmp_path / "attempts"
        real_run_window = ShardRuntime.run_window

        def run_window(self, t_end):
            if self.shard_index == 1:
                with open(attempts, "a") as fh:
                    fh.write("x")
                misbehave()
            return real_run_window(self, t_end)

        monkeypatch.setattr(ShardRuntime, "run_window", run_window)
        engine = ShardedSimulator(
            _FLOOD,
            ShardPlan(n_shards=2, cell_size_m=60.0),
            mode="fork",
            barrier_timeout_s=1.0,
            max_retries=2,
        )
        t0 = time.monotonic()
        with pytest.raises(ShardWorkerError, match=match):
            engine.run(3.0)
        assert time.monotonic() - t0 < 30.0
        # One first attempt plus max_retries retries, each stopped at its
        # first window.
        assert attempts.read_text() == "xxx"
        assert multiprocessing.active_children() == []

    def test_stalled_worker_misses_the_barrier_deadline(self, monkeypatch, tmp_path):
        def stall():
            time.sleep(60.0)

        self._drill(monkeypatch, tmp_path, stall, "shard 1 missed barrier deadline")

    def test_raising_worker_reports_its_error(self, monkeypatch, tmp_path):
        def boom():
            raise RuntimeError("drill")

        self._drill(monkeypatch, tmp_path, boom, r"shard 1 errored: RuntimeError\('drill'\)")


class TestFaultReplication:
    def test_replicated_fault_counters_merge_by_max(self):
        spec = ShardScenarioSpec(
            seed=13,
            blocks=3,
            n_blue=18,
            bitrate_cap_bps=5e4,
            router="flooding",
            workload=WorkloadSpec(kind="beacons", rate_hz=1.0, sender_stride=3),
            faults=FaultPlanSpec(
                churn=ChurnSpec(start_s=0.5, mtbf_s=4.0, mean_downtime_s=1.5)
            ),
        )
        serial = run_serial(spec, 4.0)
        sharded = ShardedSimulator(
            spec, ShardPlan(n_shards=4, cell_size_m=60.0), mode="inline"
        ).run(4.0)
        fault_keys = [k for k in serial.counters if k.startswith("faults.")]
        assert fault_keys, "churn should have produced fault counters"
        for key in fault_keys:
            # Replicated in every shard: merged by max, not 4x-summed.
            assert sharded.counters[key] == serial.counters[key]
