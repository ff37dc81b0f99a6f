"""Runner resilience additions: retry backoff pacing and interrupt recovery."""

import pytest

from repro.campaign import (
    CampaignInterrupted,
    CampaignRunner,
    ResultCache,
    SweepSpec,
)
from repro.util.backoff import BackoffPolicy

from tests.campaign.taskfns import (
    affine_noise_task,
    flaky_exception_task,
    interrupt_task,
)


def _index_spec(marker_dir, n=6, name="resilience-test", **fixed):
    return SweepSpec(
        name,
        grid={"i": tuple(range(n))},
        fixed={"marker_dir": str(marker_dir), **fixed},
        base_seed=1,
    )


FAST = BackoffPolicy(base_s=0.01, factor=2.0, max_s=0.05, jitter=0.5)


class TestRetryBackoff:
    def test_delays_deterministic_under_seed(self, tmp_path):
        """Same (seed, task, attempt) -> same delay, across runner instances
        and regardless of worker count — the determinism bar."""
        spec = _index_spec(tmp_path)
        tasks = spec.tasks()
        delays = [
            [
                CampaignRunner(
                    affine_noise_task, workers=w, backoff_seed=9
                )._retry_delay_s(t, k)
                for t in tasks
                for k in (1, 2, 3)
            ]
            for w in (1, 2, 4)
        ]
        assert delays[0] == delays[1] == delays[2]

    def test_delays_decorrelate_by_task_and_seed(self, tmp_path):
        spec = _index_spec(tmp_path)
        a, b = spec.tasks()[:2]
        runner = CampaignRunner(affine_noise_task, backoff_seed=9)
        other = CampaignRunner(affine_noise_task, backoff_seed=10)
        assert runner._retry_delay_s(a, 1) != runner._retry_delay_s(b, 1)
        assert runner._retry_delay_s(a, 1) != other._retry_delay_s(a, 1)

    def test_delay_envelope_capped(self, tmp_path):
        task = _index_spec(tmp_path).tasks()[0]
        runner = CampaignRunner(
            affine_noise_task,
            backoff=BackoffPolicy(base_s=0.5, factor=10.0, max_s=2.0, jitter=0.5),
        )
        for attempt in range(1, 8):
            assert runner._retry_delay_s(task, attempt) <= 2.0

    def test_backoff_none_restores_immediate_retries(self, tmp_path):
        task = _index_spec(tmp_path).tasks()[0]
        runner = CampaignRunner(affine_noise_task, backoff=None)
        assert runner._retry_delay_s(task, 1) == 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retried_campaign_still_completes(self, tmp_path, workers):
        spec = _index_spec(tmp_path, fail_i=2)
        result = CampaignRunner(
            flaky_exception_task, workers=workers, max_retries=1, backoff=FAST
        ).run(spec)
        assert result.n_failed == 0
        assert result.outcomes[2].attempts == 2

    def test_backoff_does_not_change_results(self, tmp_path):
        spec = _index_spec(tmp_path, fail_i=1)
        paced = CampaignRunner(
            flaky_exception_task, workers=2, max_retries=1, backoff=FAST
        ).run(spec)
        (tmp_path / "raised-1").unlink()  # re-arm the transient failure
        immediate = CampaignRunner(
            flaky_exception_task, workers=2, max_retries=1, backoff=None
        ).run(spec)
        assert paced.results() == immediate.results()


class TestInterruptRecovery:
    def test_interrupt_raises_with_partial_result(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _index_spec(tmp_path, interrupt_i=3)
        runner = CampaignRunner(interrupt_task, cache=cache, workers=1)
        with pytest.raises(CampaignInterrupted) as err:
            runner.run(spec)
        partial = err.value.partial
        assert partial is not None
        # Tasks 0-2 settled before the interrupt; each was flushed to disk.
        assert partial.n_tasks == 3
        assert [o.task.config["i"] for o in partial.outcomes] == [0, 1, 2]
        assert len(list(cache.root.glob("*/*.json"))) == 3

    def test_resume_after_interrupt_runs_only_the_gap(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _index_spec(tmp_path, interrupt_i=3)
        with pytest.raises(CampaignInterrupted):
            CampaignRunner(interrupt_task, cache=cache, workers=1).run(spec)
        # The "operator" re-runs without the interrupt: cache hits cover
        # everything that settled, only the rest executes.
        clean = _index_spec(tmp_path, interrupt_i=3)
        resumed = CampaignRunner(affine_noise_task_like, cache=cache).run(clean)
        assert resumed.n_cached == 3
        assert resumed.n_executed == 3
        assert resumed.n_failed == 0

    def test_interrupt_without_cache_still_reports_partial(self, tmp_path):
        spec = _index_spec(tmp_path, interrupt_i=2)
        with pytest.raises(CampaignInterrupted) as err:
            CampaignRunner(interrupt_task, workers=1).run(spec)
        assert err.value.partial.n_tasks == 2


def affine_noise_task_like(params, seed):
    """Same metric shape as interrupt_task, minus the interrupt."""
    return {"value": float(params["i"])}
