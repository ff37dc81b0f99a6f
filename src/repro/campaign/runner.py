"""Fault-tolerant parallel execution of campaign tasks.

:class:`CampaignRunner` fans a :class:`~repro.campaign.spec.SweepSpec` out
over a :class:`concurrent.futures.ProcessPoolExecutor` (or runs it inline
when ``workers <= 1``) with:

* **per-task timeouts** — an overdue task's worker is terminated, the pool
  rebuilt, and the task retried or failed;
* **bounded retries on worker crash** — a worker that dies (segfault,
  ``os._exit``, OOM-kill) breaks the pool; the runner rebuilds it and
  re-queues the affected tasks up to ``max_retries`` extra attempts;
* **result caching** — with a :class:`~repro.campaign.cache.ResultCache`
  attached, completed tasks are looked up before execution and stored
  after, giving resume-after-interrupt and zero-cost warm re-runs;
* **determinism** — seeds are fixed at spec-expansion time and results are
  keyed by task index, so serial and parallel execution (any worker count,
  any completion order) aggregate to identical tables.

Task functions must be module-level callables of ``(params, seed) ->
dict`` — the contract :mod:`pickle` needs to reach them inside worker
processes — and should return flat JSON-able dicts of metrics.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.campaign.aggregate import aggregate
from repro.campaign.cache import ResultCache
from repro.campaign.spec import SweepSpec, TaskSpec
from repro.errors import CampaignError, CampaignInterrupted
from repro.util.backoff import BackoffPolicy
from repro.util.tables import ResultTable

__all__ = [
    "CampaignError",
    "CampaignInterrupted",
    "TaskOutcome",
    "CampaignResult",
    "CampaignRunner",
]

logger = logging.getLogger("repro.campaign")

TaskFn = Callable[[Dict[str, Any], int], Dict[str, Any]]


def _peak_rss_kb() -> float:
    """Peak resident set size of this process in KiB (NaN if unavailable).

    In a pool worker this is the worker's lifetime peak, not the single
    task's — workers are reused — so it bounds the task from above.
    """
    try:
        import resource

        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover - non-POSIX platforms
        return float("nan")


def _call_task(
    fn: TaskFn, params: Dict[str, Any], seed: int
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Worker-side entry point; module-level so it pickles by reference.

    Returns ``(result, telemetry)``: the task's metric dict plus the
    worker-side accounting (wall time inside the worker — i.e. excluding
    pool queueing — and peak RSS) the campaign report aggregates.
    """
    t0 = time.monotonic()
    result = fn(params, seed)
    if not isinstance(result, dict):
        raise TypeError(
            f"task functions must return a dict of metrics, got {type(result).__name__}"
        )
    telemetry = {
        "wall_s": time.monotonic() - t0,
        "peak_rss_kb": _peak_rss_kb(),
    }
    return result, telemetry


@dataclass
class TaskOutcome:
    """What happened to one task: its result or its failure, plus accounting."""

    task: TaskSpec
    result: Optional[Dict[str, Any]]
    cached: bool
    attempts: int
    elapsed_s: float
    error: Optional[str] = None
    #: Worker-side accounting (wall_s, peak_rss_kb); None for cache hits.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class CampaignResult:
    """All outcomes of one campaign run, in spec (task-index) order."""

    spec: SweepSpec
    outcomes: List[TaskOutcome]
    wall_s: float
    workers: int

    @property
    def n_tasks(self) -> int:
        return len(self.outcomes)

    @property
    def n_cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def n_executed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok and not o.cached)

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def n_retried(self) -> int:
        return sum(max(0, o.attempts - 1) for o in self.outcomes)

    def results(self) -> List[Dict[str, Any]]:
        """Per-task result dicts in spec order (failed tasks excluded)."""
        return [o.result for o in self.outcomes if o.ok]

    def failures(self) -> List[TaskOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def telemetry(self) -> Dict[str, Any]:
        """Per-task run telemetry plus campaign totals, JSON-able.

        Each task entry carries its wall time (runner-side ``wall_s``,
        worker-side ``worker_wall_s`` when it executed), retry count,
        cache-hit flag, and peak RSS — the accounting
        ``repro.obs``-era reports aggregate across a campaign.
        """
        tasks = []
        for o in self.outcomes:
            entry: Dict[str, Any] = {
                "task": o.task.label(),
                "seed": o.task.seed,
                "ok": o.ok,
                "cached": o.cached,
                "attempts": o.attempts,
                "retries": o.retries,
                "wall_s": o.elapsed_s,
            }
            if o.error is not None:
                entry["error"] = o.error
            if o.telemetry:
                entry["worker_wall_s"] = o.telemetry.get("wall_s")
                entry["peak_rss_kb"] = o.telemetry.get("peak_rss_kb")
            tasks.append(entry)
        return {
            "campaign": self.spec.name,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "n_tasks": self.n_tasks,
            "n_cached": self.n_cached,
            "n_executed": self.n_executed,
            "n_retried": self.n_retried,
            "n_failed": self.n_failed,
            "tasks": tasks,
        }

    def table(
        self,
        title: Optional[str] = None,
        *,
        param_cols: Optional[Sequence[str]] = None,
        metrics: Optional[Sequence[str]] = None,
        ci: bool = False,
    ) -> ResultTable:
        """Aggregate across replicates into a :class:`ResultTable`.

        See :func:`repro.campaign.aggregate.aggregate`.  The run's
        :meth:`telemetry` rides along as ``table.meta["telemetry"]``, so
        every exported aggregate JSON carries per-task wall time, retry,
        and cache-hit accounting.  (Table equality ignores ``meta``, so
        serial/parallel determinism checks are unaffected.)
        """
        table = aggregate(
            self,
            title=title if title is not None else self.spec.name,
            param_cols=param_cols,
            metrics=metrics,
            ci=ci,
        )
        table.meta["telemetry"] = self.telemetry()
        return table


class CampaignRunner:
    """Run campaign tasks serially or across a fault-tolerant process pool.

    Parameters
    ----------
    fn:
        Module-level ``(params, seed) -> dict`` task function.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely.
    workers:
        ``<= 1`` runs inline in this process (the deterministic reference
        path); ``>= 2`` fans out over a process pool.
    timeout_s:
        Per-task wall-clock budget.  Enforced in parallel mode by killing
        the overdue worker; ignored in serial mode (there is no second
        process to do the killing).
    max_retries:
        Extra attempts granted to a task after a crash, timeout, or raised
        exception.  When a worker crash breaks the pool, every task in
        flight at that moment consumes an attempt — the runner cannot tell
        the guilty task from its neighbours.
    backoff:
        Retry pacing (the same :class:`~repro.util.backoff.BackoffPolicy`
        the synthesis service uses): retry ``k`` of a task waits
        ``backoff.delay_for(k, seed=backoff_seed, key=task.key)`` first —
        exponential, capped, jittered, and deterministic per (seed, task,
        attempt) regardless of worker count or completion order.  ``None``
        restores immediate retries.
    on_error:
        ``"raise"`` (default) raises :class:`CampaignError` after the run
        if any task exhausted its budget; ``"skip"`` records the failure in
        the outcome list and carries on.

    Completed results are flushed to the cache as each task settles, so an
    interrupt (Ctrl-C) never loses finished work: :meth:`run` traps
    :class:`KeyboardInterrupt` and raises :class:`CampaignInterrupted`
    carrying the partial :class:`CampaignResult`.
    """

    def __init__(
        self,
        fn: TaskFn,
        *,
        cache: Optional[ResultCache] = None,
        workers: int = 1,
        timeout_s: Optional[float] = None,
        max_retries: int = 2,
        backoff: Optional[BackoffPolicy] = BackoffPolicy(
            base_s=0.05, factor=2.0, max_s=2.0, jitter=0.5
        ),
        backoff_seed: int = 0,
        on_error: str = "raise",
        poll_s: float = 0.1,
    ):
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self._fn = fn
        self.cache = cache
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.max_retries = max(0, int(max_retries))
        self.backoff = backoff
        self.backoff_seed = backoff_seed
        self.on_error = on_error
        self._poll_s = poll_s

    # -- public API --------------------------------------------------------

    def run(self, spec: SweepSpec) -> CampaignResult:
        """Execute every task of ``spec`` and return the ordered outcomes."""
        t_start = time.monotonic()
        tasks = spec.tasks()
        outcomes: Dict[int, TaskOutcome] = {}

        todo: List[TaskSpec] = []
        for task in tasks:
            hit = self.cache.get(task) if self.cache is not None else None
            if hit is not None:
                outcomes[task.index] = TaskOutcome(task, hit, True, 0, 0.0)
                self._log(task, "cached", 0, 0.0)
            else:
                todo.append(task)

        logger.info(
            "campaign=%s start tasks=%d cached=%d todo=%d workers=%d",
            spec.name, len(tasks), len(outcomes), len(todo), self.workers,
        )

        interrupted = False
        if todo:
            try:
                if self.workers <= 1:
                    self._run_serial(todo, outcomes)
                else:
                    self._run_parallel(todo, outcomes)
            except KeyboardInterrupt:
                # Completed results were flushed to the cache as they
                # settled; report the partial run instead of losing it.
                interrupted = True

        result = CampaignResult(
            spec=spec,
            outcomes=[outcomes[t.index] for t in tasks if t.index in outcomes],
            wall_s=time.monotonic() - t_start,
            workers=self.workers,
        )
        if interrupted:
            logger.warning(
                "campaign=%s interrupted: %d/%d tasks settled (flushed to cache)",
                spec.name, result.n_tasks, len(tasks),
            )
            raise CampaignInterrupted(
                f"campaign {spec.name!r} interrupted: {result.n_tasks}/"
                f"{len(tasks)} task(s) settled; completed results are in the "
                f"cache",
                partial=result,
            )
        logger.info(
            "campaign=%s done tasks=%d cached=%d executed=%d retried=%d "
            "failed=%d wall=%.2fs",
            spec.name, result.n_tasks, result.n_cached, result.n_executed,
            result.n_retried, result.n_failed, result.wall_s,
        )
        if result.n_failed and self.on_error == "raise":
            failed = ", ".join(
                f"{o.task.label()}: {o.error}" for o in result.failures()
            )
            raise CampaignError(
                f"campaign {spec.name!r}: {result.n_failed} task(s) failed "
                f"after retries — {failed}"
            )
        return result

    # -- shared plumbing ---------------------------------------------------

    def _retry_delay_s(self, task: TaskSpec, attempt: int) -> float:
        """Pre-retry delay for attempt number ``attempt`` (1-based retry)."""
        if self.backoff is None:
            return 0.0
        return self.backoff.delay_for(
            attempt, seed=self.backoff_seed, key=task.key
        )

    def _settle(self, outcomes: Dict[int, TaskOutcome], outcome: TaskOutcome) -> None:
        """Record an outcome and flush it to the cache immediately, so an
        interrupt a moment later cannot lose completed work."""
        outcomes[outcome.task.index] = outcome
        if self.cache is not None and outcome.ok and not outcome.cached:
            self.cache.put(
                outcome.task,
                outcome.result,
                meta={
                    "elapsed_s": outcome.elapsed_s,
                    "attempts": outcome.attempts,
                    "telemetry": outcome.telemetry,
                    # Provenance for `repro.campaign replay`: tasks that
                    # return a RunManifest get it mirrored into the entry
                    # meta, where audits can read it without re-running.
                    "manifest": (
                        outcome.result.get("run_manifest")
                        if isinstance(outcome.result, dict)
                        else None
                    ),
                },
            )

    # -- serial path -------------------------------------------------------

    def _run_serial(
        self, todo: List[TaskSpec], outcomes: Dict[int, TaskOutcome]
    ) -> None:
        for task in todo:
            attempt = 0
            while True:
                t0 = time.monotonic()
                try:
                    result, telemetry = _call_task(self._fn, task.config, task.seed)
                except Exception as exc:  # noqa: BLE001 - retry boundary
                    elapsed = time.monotonic() - t0
                    if attempt < self.max_retries:
                        self._log(task, f"retry ({exc!r})", attempt + 1, elapsed)
                        attempt += 1
                        delay = self._retry_delay_s(task, attempt)
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    self._settle(
                        outcomes,
                        TaskOutcome(task, None, False, attempt + 1, elapsed, repr(exc)),
                    )
                    self._log(task, f"failed ({exc!r})", attempt + 1, elapsed)
                    break
                elapsed = time.monotonic() - t0
                self._settle(
                    outcomes,
                    TaskOutcome(
                        task, result, False, attempt + 1, elapsed,
                        telemetry=telemetry,
                    ),
                )
                self._log(task, "done", attempt + 1, elapsed)
                break

    # -- parallel path -----------------------------------------------------

    def _run_parallel(
        self, todo: List[TaskSpec], done: Dict[int, TaskOutcome]
    ) -> None:
        # (task, attempt, ready_at): retries wait out their backoff delay
        # in the queue, so a healthy pool keeps draining other tasks.
        pending: Deque[Tuple[TaskSpec, int, float]] = deque(
            (t, 0, 0.0) for t in todo
        )
        executor = self._new_pool()
        # future -> (task, attempt, deadline, start time)
        in_flight: Dict[Any, Tuple[TaskSpec, int, float, float]] = {}
        try:
            while pending or in_flight:
                while pending and len(in_flight) < self.workers:
                    now = time.monotonic()
                    ready_idx = next(
                        (
                            i
                            for i, (_t, _a, ready_at) in enumerate(pending)
                            if ready_at <= now
                        ),
                        None,
                    )
                    if ready_idx is None:
                        break
                    task, attempt, _ = pending[ready_idx]
                    del pending[ready_idx]
                    t0 = time.monotonic()
                    try:
                        future = executor.submit(
                            _call_task, self._fn, task.config, task.seed
                        )
                    except BrokenProcessPool:
                        # Pool died between rebuilds; put the task back and heal.
                        pending.appendleft((task, attempt, 0.0))
                        executor = self._heal(executor, in_flight, pending)
                        continue
                    deadline = (
                        t0 + self.timeout_s if self.timeout_s is not None else math.inf
                    )
                    in_flight[future] = (task, attempt, deadline, t0)
                if not in_flight:
                    if pending:
                        # Everything queued is backing off; nap until the
                        # earliest becomes ready (bounded by the poll tick).
                        earliest = min(ready_at for _t, _a, ready_at in pending)
                        time.sleep(
                            min(self._poll_s, max(0.0, earliest - time.monotonic()))
                        )
                    continue

                completed, _ = wait(
                    set(in_flight), timeout=self._poll_s, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in completed:
                    task, attempt, _, t0 = in_flight.pop(future)
                    elapsed = time.monotonic() - t0
                    error = future.exception()
                    if error is None:
                        result, telemetry = future.result()
                        self._settle(
                            done,
                            TaskOutcome(
                                task, result, False, attempt + 1, elapsed,
                                telemetry=telemetry,
                            ),
                        )
                        self._log(task, "done", attempt + 1, elapsed)
                    else:
                        if isinstance(error, BrokenProcessPool):
                            broken = True
                            reason = "worker crash"
                        else:
                            reason = f"task error ({error!r})"
                        self._settle_failure(
                            pending, done, task, attempt, elapsed, reason
                        )

                now = time.monotonic()
                overdue = [
                    f for f, (_, _, deadline, _) in in_flight.items() if now > deadline
                ]
                for future in overdue:
                    task, attempt, _, t0 = in_flight.pop(future)
                    broken = True  # hung worker: only a pool kill reclaims it
                    self._settle_failure(
                        pending, done, task, attempt, now - t0,
                        f"timeout after {self.timeout_s:.1f}s",
                    )

                if broken:
                    executor = self._heal(executor, in_flight, pending)
        finally:
            self._kill_pool(executor)

    def _settle_failure(
        self,
        pending: Deque[Tuple[TaskSpec, int, float]],
        done: Dict[int, TaskOutcome],
        task: TaskSpec,
        attempt: int,
        elapsed: float,
        reason: str,
    ) -> None:
        if attempt < self.max_retries:
            delay = self._retry_delay_s(task, attempt + 1)
            pending.append((task, attempt + 1, time.monotonic() + delay))
            self._log(task, f"retry in {delay:.2f}s ({reason})", attempt + 1, elapsed)
        else:
            self._settle(
                done,
                TaskOutcome(task, None, False, attempt + 1, elapsed, reason),
            )
            self._log(task, f"failed ({reason})", attempt + 1, elapsed)

    def _heal(
        self,
        executor: ProcessPoolExecutor,
        in_flight: Dict[Any, Tuple[TaskSpec, int, float, float]],
        pending: Deque[Tuple[TaskSpec, int, float]],
    ) -> ProcessPoolExecutor:
        """Kill a broken/hung pool, re-queue in-flight tasks, start fresh.

        Tasks still in flight when the pool dies ride back to the front of
        the queue *without* consuming an attempt (or a backoff delay) —
        their futures never resolved, so they were casualties of the
        rebuild, not failures.
        """
        for task, attempt, _, _ in in_flight.values():
            pending.appendleft((task, attempt, 0.0))
            self._log(task, "requeued (pool rebuild)", attempt, 0.0)
        in_flight.clear()
        self._kill_pool(executor)
        return self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    @staticmethod
    def _kill_pool(executor: ProcessPoolExecutor) -> None:
        # Terminate workers first: a worker stuck in a task would otherwise
        # keep shutdown's queue drain (and any hung task) alive forever.
        try:
            for process in list(getattr(executor, "_processes", {}).values()):
                process.terminate()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        executor.shutdown(wait=False, cancel_futures=True)

    # -- logging -----------------------------------------------------------

    @staticmethod
    def _log(task: TaskSpec, status: str, attempt: int, elapsed: float) -> None:
        logger.info(
            "campaign=%s task=%s status=%s attempt=%d elapsed=%.2fs",
            task.campaign, task.label(), status, attempt, elapsed,
        )
