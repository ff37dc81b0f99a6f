"""Cache correctness: warm == cold, zero re-execution, invalidation, corrupt entries."""

import json
import math
import time

from repro.campaign import CampaignRunner, ResultCache, SweepSpec

from tests.campaign.taskfns import counting_task


def _spec(marker_dir, gains=(1.0, 2.0, 3.0), replicates=2):
    return SweepSpec(
        "cache-test",
        grid={"gain": gains},
        fixed={"offset": 0.5, "marker_dir": str(marker_dir)},
        replicates=replicates,
        base_seed=11,
    )


def _executions(marker_dir):
    return len(list(marker_dir.glob("*.ran")))


class TestWarmCache:
    def test_warm_rerun_identical_and_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        marker = tmp_path / "markers"
        spec = _spec(marker)
        runner = CampaignRunner(counting_task, cache=cache)

        cold = runner.run(spec)
        executed_cold = _executions(marker)
        assert executed_cold == cold.n_tasks == 6
        assert cold.n_cached == 0

        warm = runner.run(spec)
        # Zero executions: not one marker file was added.
        assert _executions(marker) == executed_cold
        assert warm.n_cached == warm.n_tasks and warm.n_executed == 0
        # And results identical to the cold run, raw and aggregated.
        assert warm.results() == cold.results()
        assert warm.table(ci=True) == cold.table(ci=True)
        assert warm.table(ci=True).render() == cold.table(ci=True).render()

    def test_fresh_runner_instance_shares_the_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        marker = tmp_path / "markers"
        spec = _spec(marker)
        cold = CampaignRunner(counting_task, cache=ResultCache(cache_dir)).run(spec)
        warm = CampaignRunner(counting_task, cache=ResultCache(cache_dir)).run(spec)
        assert warm.n_executed == 0
        assert warm.table() == cold.table()

    def test_interrupted_campaign_resumes(self, tmp_path):
        """A partial cache (as left by an interrupt) re-runs only the gap."""
        cache = ResultCache(tmp_path / "cache")
        marker = tmp_path / "markers"
        spec = _spec(marker)
        tasks = spec.tasks()
        runner = CampaignRunner(counting_task, cache=cache)
        runner.run(spec)
        # Simulate dying before the last two tasks were stored.
        for task in tasks[-2:]:
            cache.path_for(task.key).unlink()
        before = _executions(marker)
        resumed = runner.run(spec)
        assert resumed.n_cached == len(tasks) - 2
        assert resumed.n_executed == 2
        assert _executions(marker) == before + 2


class TestInvalidation:
    def test_any_config_field_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        marker = tmp_path / "markers"
        runner = CampaignRunner(counting_task, cache=cache)
        runner.run(_spec(marker))
        before = _executions(marker)

        # A changed grid value is a different config: its cells re-execute,
        # the unchanged ones stay cached.
        shifted = _spec(marker, gains=(1.0, 2.0, 4.0))
        result = runner.run(shifted)
        assert result.n_cached == 4  # gains 1.0 and 2.0, two replicates each
        assert result.n_executed == 2
        assert _executions(marker) == before + 2

    def test_fixed_param_change_invalidates_everything(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        marker = tmp_path / "markers"
        runner = CampaignRunner(counting_task, cache=cache)
        runner.run(_spec(marker))
        before = _executions(marker)
        other_marker = tmp_path / "markers2"  # marker_dir is itself a config field
        result = runner.run(_spec(other_marker))
        assert result.n_cached == 0
        assert _executions(marker) == before
        assert _executions(other_marker) == result.n_tasks

    def test_version_keys_the_cache(self, tmp_path, monkeypatch):
        import repro.campaign.spec as spec_mod

        cache = ResultCache(tmp_path / "cache")
        marker = tmp_path / "markers"
        runner = CampaignRunner(counting_task, cache=cache)
        runner.run(_spec(marker))
        before = _executions(marker)
        monkeypatch.setattr(spec_mod, "__version__", "999.0.0")
        result = runner.run(_spec(marker))
        assert result.n_cached == 0
        assert _executions(marker) == before + result.n_tasks


class TestRobustness:
    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        marker = tmp_path / "markers"
        spec = _spec(marker)
        runner = CampaignRunner(counting_task, cache=cache)
        runner.run(spec)
        victim = cache.path_for(spec.tasks()[0].key)
        victim.write_text("{ truncated", encoding="utf-8")
        result = runner.run(spec)
        assert result.n_executed == 1  # only the corrupted entry re-ran
        assert not victim.read_text().startswith("{ truncated")

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        marker = tmp_path / "markers"
        spec = _spec(marker)
        task = spec.tasks()[0]
        CampaignRunner(counting_task, cache=cache).run(spec)
        path = cache.path_for(task.key)
        payload = json.loads(path.read_text())
        payload["key"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert cache.get(task) is None

    def test_nan_survives_the_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = _spec(tmp_path / "m").tasks()[0]
        cache.put(task, {"metric": math.nan, "other": 1.5})
        back = cache.get(task)
        assert back["other"] == 1.5
        assert math.isnan(back["metric"])

    def _assert_discarded_by_both_reads(self, tmp_path, body):
        """An entry holding ``body`` reads as a miss through ``get`` and
        ``get_stale`` alike, and each read deletes it."""
        cache = ResultCache(tmp_path / "cache")
        task = _spec(tmp_path / "m").tasks()[0]
        path = cache.put(task, {"metric": 7.0})
        for read in (lambda: cache.get(task), lambda: cache.get_stale(task.key)):
            path.write_text(body, encoding="utf-8")
            assert read() is None
            assert not path.exists()

    def test_null_entry_is_a_miss(self, tmp_path):
        self._assert_discarded_by_both_reads(tmp_path, "null")

    def test_list_entry_is_a_miss(self, tmp_path):
        self._assert_discarded_by_both_reads(tmp_path, "[]")

    def test_non_numeric_timestamp_is_a_stale_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = _spec(tmp_path / "m").tasks()[0]
        path = cache.put(task, {"metric": 7.0})
        payload = json.loads(path.read_text())
        payload["stored_at"] = "yesterday"
        path.write_text(json.dumps(payload))
        assert cache.get_stale(task.key, max_age_s=None) is None
        assert not path.exists()


class TestStaleLookup:
    """get_stale: the degraded-mode raw-key read with age reporting."""

    def _primed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = _spec(tmp_path / "m").tasks()[0]
        cache.put(task, {"metric": 7.0})
        return cache, task

    def test_fresh_entry_has_small_age(self, tmp_path):
        cache, task = self._primed(tmp_path)
        hit = cache.get_stale(task.key, max_age_s=60.0)
        assert hit is not None
        result, age = hit
        assert result == {"metric": 7.0}
        assert 0.0 <= age < 5.0

    def test_entry_older_than_budget_is_a_miss(self, tmp_path):
        cache, task = self._primed(tmp_path)
        path = cache.path_for(task.key)
        payload = json.loads(path.read_text())
        payload["stored_at"] = time.time() - 120.0
        path.write_text(json.dumps(payload))
        assert cache.get_stale(task.key, max_age_s=60.0) is None
        # But a looser budget (or none) still reads it, with honest age.
        result, age = cache.get_stale(task.key, max_age_s=None)
        assert result == {"metric": 7.0}
        assert age > 100.0

    def test_absent_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get_stale("0" * 64, max_age_s=None) is None

    def test_legacy_entry_without_timestamp(self, tmp_path):
        """Pre-timestamp entries: readable unbounded, rejected by any
        finite budget (their age is unknown, reported as inf)."""
        cache, task = self._primed(tmp_path)
        path = cache.path_for(task.key)
        payload = json.loads(path.read_text())
        del payload["stored_at"]
        path.write_text(json.dumps(payload))
        assert cache.get_stale(task.key, max_age_s=1e9) is None
        result, age = cache.get_stale(task.key, max_age_s=None)
        assert result == {"metric": 7.0}
        assert age == math.inf

    def test_corrupt_entry_is_discarded(self, tmp_path):
        cache, task = self._primed(tmp_path)
        path = cache.path_for(task.key)
        path.write_text("{ truncated")
        assert cache.get_stale(task.key, max_age_s=None) is None
        assert not path.exists()

    def test_existing_entries_remain_readable_via_get(self, tmp_path):
        """The timestamp addition must not invalidate normal reads."""
        cache, task = self._primed(tmp_path)
        assert cache.get(task) == {"metric": 7.0}
