"""The synthesis service: a resilient asyncio front-end over the composers.

``SynthesisService`` answers "recruit me a composite asset for this
mission" for thousands of concurrent clients against a churning asset
inventory.  Robustness is the design axis, layered as::

    submit ──► admission ──► bulkhead ──► breaker ──► backend (composer)
                  │               │            │
                  │               │            └─ open ────┐
                  │               └─ shed (typed) ─────────┤
                  └─ fresh answer cache (per epoch) ─ OK   ▼
                                               degraded path: stale answer
                                               (flagged, with staleness) or
                                               typed rejection — never a hang

* **Deadlines** — every query carries ``deadline_s``; each live attempt,
  bulkhead wait, and backoff sleep is bounded by the remaining budget, so
  the query reaches a terminal outcome within deadline (+ a small grace
  enforced by a belt-and-braces outer timeout).
* **Retries** — bounded, paced by a shared
  :class:`~repro.util.backoff.BackoffPolicy` (exponential + seeded jitter).
* **Circuit breaker** — one :class:`~repro.service.breaker.CircuitBreaker`
  per backend; an open breaker diverts traffic to the degraded path
  instead of queueing it behind a sick composer.
* **Bulkhead + load shedding** — the live path runs on a bounded thread
  pool guarded by :class:`~repro.service.admission.Bulkhead`; overload is
  shed immediately with a typed :class:`~repro.service.admission.QueryRejected`.
* **Single flight** — concurrent misses on one ``(question, epoch)`` share
  one live attempt: the first query leads it (bulkhead slot, breaker
  outcome, retries), the rest wait for its result inside their own
  deadlines and end the way it ends.
* **Snapshot isolation** — queries compose against one immutable
  :class:`~repro.service.snapshot.InventorySnapshot` epoch captured at
  admission; churn underneath cannot tear a query's world view.
* **Graceful degradation** — when the live path is open, over deadline, or
  failing, the service answers from its stale store (in-memory, plus the
  campaign :class:`~repro.campaign.cache.ResultCache` on disk when
  configured), flagged ``degraded=True`` with staleness metadata.

Every query gets exactly one terminal outcome: ``OK``, ``DEGRADED``,
``REJECTED`` (typed reason), or ``FAILED`` (captured error).
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.campaign.cache import ResultCache
from repro.campaign.spec import TaskSpec, config_key
from repro.core.mission import MissionGoal
from repro.core.synthesis.composer import CompositeAsset, GreedyComposer
from repro.core.synthesis.optimizer import AnnealingComposer, evaluate_composite
from repro.core.synthesis.requirements import RequirementSet, compile_goal
from repro.errors import ConfigurationError, ServiceError
from repro.obs.registry import MetricsRegistry
from repro.service.admission import Bulkhead, QueryRejected, RejectReason
from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.snapshot import InventorySnapshot, SnapshotHub
from repro.util.backoff import BackoffPolicy
from repro.util.rng import derive_seed

__all__ = [
    "BackendTimeout",
    "OutcomeStatus",
    "SynthesisQuery",
    "QueryOutcome",
    "SynthesisService",
    "query_config",
]

#: Campaign namespace under which service answers are stored in a ResultCache.
SERVICE_CAMPAIGN = "synthesis-service"


class BackendTimeout(ServiceError):
    """A live backend call exceeded its per-attempt budget."""


class OutcomeStatus(Enum):
    OK = "ok"                # live or fresh-cache answer at the current epoch
    DEGRADED = "degraded"    # stale answer served because the live path failed
    REJECTED = "rejected"    # typed admission refusal, no answer
    FAILED = "failed"        # live path exhausted, no stale answer available


@dataclass(frozen=True)
class SynthesisQuery:
    """One mission-synthesis request.

    ``max_stale_s`` bounds how old a degraded answer may be; ``None``
    disables the degraded path for this query (strict consistency).
    """

    goal: MissionGoal
    composer: str = "greedy"
    deadline_s: float = 1.0
    max_stale_s: Optional[float] = 60.0
    query_id: str = ""

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ConfigurationError("deadline_s must be positive")
        if self.max_stale_s is not None and self.max_stale_s < 0:
            raise ConfigurationError("max_stale_s must be >= 0 or None")


@dataclass
class QueryOutcome:
    """The terminal outcome of one query — every submit returns exactly one."""

    query: SynthesisQuery
    status: OutcomeStatus
    answer: Optional[Dict[str, Any]] = None
    composite: Optional[CompositeAsset] = None
    cached: bool = False
    degraded: bool = False
    stale_age_s: Optional[float] = None
    epochs_behind: Optional[int] = None
    epoch: Optional[int] = None
    reason: Optional[str] = None
    attempts: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (OutcomeStatus.OK, OutcomeStatus.DEGRADED)


def _goal_config(goal: MissionGoal) -> Dict[str, Any]:
    return {
        "mission_type": goal.mission_type.value,
        "area": [goal.area.x_min, goal.area.y_min, goal.area.x_max, goal.area.y_max],
        "modalities": sorted(m.value for m in goal.modalities),
        "min_coverage": goal.min_coverage,
        "max_latency_s": goal.max_latency_s,
        "min_confidence": goal.min_confidence,
        "duration_s": goal.duration_s,
        "priority": goal.priority,
        "name": goal.name,
    }


def query_config(query: SynthesisQuery) -> Dict[str, Any]:
    """The content-addressable configuration of a query (epoch-free).

    Deliberately excludes the inventory epoch: the key identifies the
    *question*, so stale answers to the same question remain findable
    after the world has moved on — that is what the degraded path serves.
    """
    return {
        "campaign": SERVICE_CAMPAIGN,
        "composer": query.composer,
        "goal": _goal_config(query.goal),
    }


def _record_from(
    composite: CompositeAsset, epoch: int, stored_at: float
) -> Dict[str, Any]:
    """A JSON-able answer record (what caches store and clients consume)."""
    return {
        "sink": composite.sink,
        "sensors": list(composite.sensors),
        "compute": list(composite.compute),
        "relays": list(composite.relays),
        "members": composite.size,
        "coverage": composite.coverage,
        "total_flops": composite.total_flops,
        "connected_fraction": composite.connected_fraction,
        "satisfied": bool(composite.satisfies()),
        "score": evaluate_composite(composite),
        "epoch": epoch,
        "stored_at": stored_at,
    }


@dataclass
class _StaleEntry:
    record: Dict[str, Any]
    stored_at: float
    epoch: int


@dataclass
class _LiveResult:
    """How the live path ended for one ``(question, epoch)``: an answer
    record, or why there is none.  Shared by every query of the flight."""

    record: Optional[Dict[str, Any]] = None
    attempts: int = 0
    last_error: Optional[str] = None
    rejection: Optional[RejectReason] = None


class SynthesisService:
    """Resilient mission-synthesis front-end over a snapshot hub.

    Parameters
    ----------
    hub:
        The :class:`SnapshotHub` publishing inventory epochs.
    backends:
        Name → composer (anything with ``compose(requirements, candidates,
        topology)``).  Defaults to greedy + annealing.  The chaos harness
        wraps these to inject faults.
    cache:
        Optional on-disk :class:`ResultCache`; live answers are written
        through, and the degraded path falls back to it when the
        in-memory stale store misses (e.g. across service restarts).
    pool_fn:
        Maps a snapshot to the candidate pool (default: blue assets).
        Wire a :class:`~repro.core.synthesis.recruitment.Recruiter` here
        to recruit on trust/characterization instead.
    max_concurrent / max_waiting:
        Bulkhead sizing for the live path (thread pool width = slots).
    deadline_grace_s:
        Belt-and-braces outer timeout margin; the inner loop already
        bounds every await by the remaining deadline.
    """

    def __init__(
        self,
        hub: SnapshotHub,
        *,
        backends: Optional[Dict[str, Any]] = None,
        cache: Optional[ResultCache] = None,
        pool_fn: Optional[Callable[[InventorySnapshot], Sequence[Any]]] = None,
        backoff: BackoffPolicy = BackoffPolicy(base_s=0.02, factor=2.0, max_s=0.5),
        max_retries: int = 2,
        deadline_grace_s: float = 1.0,
        max_concurrent: int = 8,
        max_waiting: int = 64,
        breaker_window: int = 20,
        breaker_threshold: float = 0.5,
        breaker_min_calls: int = 5,
        breaker_open_s: float = 0.5,
        stale_capacity: int = 4096,
        fresh_capacity: int = 4096,
        metrics: Optional[MetricsRegistry] = None,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.hub = hub
        if backends is None:
            backends = {
                "greedy": GreedyComposer(),
                "annealing": AnnealingComposer(
                    np.random.default_rng(derive_seed(seed, "service", "annealing")),
                    iterations=30,
                ),
            }
        self.backends = dict(backends)
        self.cache = cache
        self.pool_fn = pool_fn if pool_fn is not None else (lambda s: s.pool())
        self.backoff = backoff
        self.max_retries = max(0, int(max_retries))
        self.deadline_grace_s = deadline_grace_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bulkhead = Bulkhead(max_concurrent, max_waiting)
        self._breaker_conf = dict(
            window=breaker_window,
            failure_threshold=breaker_threshold,
            min_calls=breaker_min_calls,
            open_s=breaker_open_s,
        )
        self._clock = clock
        self.breakers: Dict[str, CircuitBreaker] = {
            name: self._new_breaker(name) for name in self.backends
        }
        # Publish every breaker's initial (closed) state so the live
        # snapshot shows all backends from query zero, not only ones that
        # have already transitioned.
        for name in self.breakers:
            self.metrics.gauge(f"service.breaker.{name}.state").set(0.0)
        self._rng = np.random.default_rng(derive_seed(seed, "service", "backoff"))
        self._fresh: "OrderedDict[Tuple[str, int], Dict[str, Any]]" = OrderedDict()
        self._fresh_capacity = fresh_capacity
        self._stale: "OrderedDict[str, _StaleEntry]" = OrderedDict()
        self._stale_capacity = stale_capacity
        self._requirements: Dict[str, RequirementSet] = {}
        self._answer_keys: Dict[Tuple[str, MissionGoal], str] = {}
        self._pool: Tuple[int, Sequence[Any]] = (0, ())  # (epoch, candidates)
        self._flights: "Dict[Tuple[str, int], asyncio.Future[_LiveResult]]" = {}
        # Instruments every query touches, looked up once.
        m = self.metrics
        self._m_queries = m.counter("service.queries")
        self._m_ok_cached = m.counter("service.ok_cached")
        self._m_status = {
            status: m.counter(f"service.{status.value}") for status in OutcomeStatus
        }
        self._m_latency = m.histogram("service.latency_s")
        self._m_epoch = m.gauge("service.epoch")
        self._m_queue_depth = m.gauge("service.queue_depth")
        self._m_inflight = m.gauge("service.inflight")
        self._m_shed = m.gauge("service.shed")
        self._m_degraded_ratio = m.gauge("service.degraded_ratio")
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stopping = False
        self._started = False
        self._lock = threading.Lock()  # guards cache write-through from workers

    # ---------------------------------------------------------------- lifecycle

    async def start(self) -> "SynthesisService":
        if self._started:
            return self
        self._executor = ThreadPoolExecutor(
            max_workers=self.bulkhead.max_concurrent,
            thread_name_prefix="synthesis",
        )
        self._stopping = False
        self._started = True
        return self

    async def stop(self) -> None:
        """Drain: refuse new queries, let in-flight backend calls finish."""
        self._stopping = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._started = False

    async def __aenter__(self) -> "SynthesisService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ----------------------------------------------------------------- helpers

    def _new_breaker(self, name: str) -> CircuitBreaker:
        return CircuitBreaker(
            name,
            clock=self._clock,
            on_transition=self._on_breaker_transition,
            **self._breaker_conf,
        )

    #: Breaker state encoded for gauges/OpenMetrics: higher is sicker.
    _BREAKER_STATE_CODE = {
        BreakerState.CLOSED: 0.0,
        BreakerState.HALF_OPEN: 1.0,
        BreakerState.OPEN: 2.0,
    }

    def _on_breaker_transition(
        self, name: str, old: BreakerState, new: BreakerState
    ) -> None:
        self.metrics.counter("service.breaker_transitions").inc()
        self.metrics.counter(f"service.breaker.{name}.{new.value}").inc()
        self.metrics.gauge(f"service.breaker.{name}.state").set(
            self._BREAKER_STATE_CODE[new]
        )

    def breaker_for(self, backend: str) -> CircuitBreaker:
        if backend not in self.breakers:
            self.breakers[backend] = self._new_breaker(backend)
        return self.breakers[backend]

    def answer_key(self, query: SynthesisQuery) -> str:
        """Content address of the question, hashed once per distinct one."""
        question = (query.composer, query.goal)
        key = self._answer_keys.get(question)
        if key is None:
            if len(self._answer_keys) >= self._stale_capacity:
                self._answer_keys.clear()
            key = self._answer_keys[question] = config_key(query_config(query))
        return key

    def _pool_for(self, snapshot: InventorySnapshot) -> Sequence[Any]:
        """The candidate pool of ``snapshot``, built once per epoch."""
        epoch, pool = self._pool
        if epoch != snapshot.epoch:
            pool = tuple(self.pool_fn(snapshot))
            self._pool = (snapshot.epoch, pool)
        return pool

    def _requirements_for(self, key: str, query: SynthesisQuery) -> RequirementSet:
        req = self._requirements.get(key)
        if req is None:
            req = compile_goal(query.goal)
            self._requirements[key] = req
        return req

    def _cache_put(self, key: str, query: SynthesisQuery, record: Dict[str, Any]) -> None:
        """Write-through to the on-disk cache (called from worker threads)."""
        if self.cache is None:
            return
        config = query_config(query)
        task = TaskSpec(
            campaign=SERVICE_CAMPAIGN,
            index=0,
            params=tuple(sorted(config.items())),
            replicate=0,
            seed=0,
            key=key,
        )
        with self._lock:
            self.cache.put(task, record, meta={"epoch": record.get("epoch")})

    def _remember(self, key: str, epoch: int, record: Dict[str, Any]) -> None:
        self._fresh[(key, epoch)] = record
        self._fresh.move_to_end((key, epoch))
        while len(self._fresh) > self._fresh_capacity:
            self._fresh.popitem(last=False)
        self._stale[key] = _StaleEntry(record, record["stored_at"], epoch)
        self._stale.move_to_end(key)
        while len(self._stale) > self._stale_capacity:
            self._stale.popitem(last=False)

    def _stale_lookup(
        self, key: str, max_stale_s: Optional[float], now_wall: float
    ) -> Optional[Tuple[Dict[str, Any], float, int]]:
        """(record, age_s, record_epoch) from memory, then disk; None on miss."""
        if max_stale_s is None:
            return None
        entry = self._stale.get(key)
        if entry is not None:
            age = max(0.0, now_wall - entry.stored_at)
            if age <= max_stale_s:
                return entry.record, age, entry.epoch
        if self.cache is not None:
            hit = self.cache.get_stale(key, max_age_s=max_stale_s)
            if hit is not None:
                record, age = hit
                return record, age, int(record.get("epoch", 0))
        return None

    # ------------------------------------------------------------------ submit

    async def submit(self, query: SynthesisQuery) -> QueryOutcome:
        """Answer one query; always returns a terminal :class:`QueryOutcome`.

        A query that needs no live attempt — a refusal, or an answer already
        composed at the current epoch — is settled before the first ``await``:
        no task, no timer, the caller never leaves its own coroutine.
        """
        t0 = self._clock()
        self._m_queries.inc()
        try:
            outcome, key, snapshot = self._settle_now(query)
            if outcome is None:
                outcome = await asyncio.wait_for(
                    self._settle_live(query, key, snapshot, t0),
                    timeout=query.deadline_s + self.deadline_grace_s,
                )
        except asyncio.TimeoutError:
            # The inner loop bounds every await by the remaining budget, so
            # this fires only if something slipped past those bounds.
            outcome = QueryOutcome(
                query,
                OutcomeStatus.FAILED,
                reason="deadline+grace exceeded",
            )
        except Exception as exc:  # noqa: BLE001 - terminal-outcome guarantee
            outcome = QueryOutcome(query, OutcomeStatus.FAILED, reason=repr(exc))
        outcome.elapsed_s = self._clock() - t0
        self._account(outcome)
        return outcome

    def _account(self, outcome: QueryOutcome) -> None:
        self._m_status[outcome.status].inc()
        if outcome.status is OutcomeStatus.REJECTED and outcome.reason:
            self.metrics.counter(f"service.rejected.{outcome.reason}").inc()
        if outcome.degraded and outcome.stale_age_s is not None:
            # How old the answers we actually serve degraded are — the
            # SLO the stale store's capacity and max_stale_s trade against.
            self.metrics.histogram("service.stale_age_s").observe(
                outcome.stale_age_s
            )
        self._m_latency.observe(outcome.elapsed_s)
        bulkhead = self.bulkhead
        self._m_queue_depth.set(bulkhead.waiting)
        self._m_inflight.set(bulkhead.held)
        self._m_shed.set(bulkhead.shed_count)
        self._m_degraded_ratio.set(
            self._m_status[OutcomeStatus.DEGRADED].value / self._m_queries.value
        )

    def _settle_now(
        self, query: SynthesisQuery
    ) -> Tuple[Optional[QueryOutcome], str, Optional[InventorySnapshot]]:
        """Everything that needs no waiting: refusals, the inventory epoch and
        an answer already composed at it.  ``(None, key, snapshot)`` hands the
        query on to the live path."""
        if self._stopping or not self._started:
            return self._rejected(query, RejectReason.SHUTDOWN), "", None
        if query.composer not in self.backends:
            return self._rejected(query, RejectReason.NO_BACKEND), "", None
        key = self.answer_key(query)
        try:
            snapshot = self.hub.current()
        except Exception:  # the inventory path itself is a backend that can fail
            stale = self._stale_lookup(key, query.max_stale_s, time.time())
            if stale is not None:
                record, age, rec_epoch = stale
                return QueryOutcome(
                    query, OutcomeStatus.DEGRADED, answer=record, degraded=True,
                    stale_age_s=age, epochs_behind=None, epoch=rec_epoch,
                    reason="inventory unavailable",
                ), key, None
            return self._rejected(query, RejectReason.NO_SNAPSHOT), key, None
        self._m_epoch.set(snapshot.epoch)
        # Fresh answer at this very epoch — consistent and current.
        fresh = self._fresh.get((key, snapshot.epoch))
        if fresh is not None:
            return self._ok_cached(query, fresh, snapshot.epoch), key, snapshot
        return None, key, snapshot

    @staticmethod
    def _rejected(
        query: SynthesisQuery, reason: RejectReason, *, attempts: int = 0
    ) -> QueryOutcome:
        return QueryOutcome(
            query, OutcomeStatus.REJECTED, reason=reason.value, attempts=attempts
        )

    def _ok_cached(
        self, query: SynthesisQuery, record: Dict[str, Any], epoch: int
    ) -> QueryOutcome:
        self._m_ok_cached.inc()
        return QueryOutcome(
            query, OutcomeStatus.OK, answer=record, cached=True, epoch=epoch
        )

    async def _settle_live(
        self,
        query: SynthesisQuery,
        key: str,
        snapshot: InventorySnapshot,
        t0: float,
    ) -> QueryOutcome:
        """A miss: lead the live attempt for ``(key, epoch)`` or wait for the
        query that already does, then degrade or refuse if it gave no answer."""
        now_wall = time.time()
        deadline = t0 + query.deadline_s
        flight_key = (key, snapshot.epoch)
        flight = self._flights.get(flight_key)
        if flight is None:
            # Leader: holds the bulkhead slot and answers to the breaker.
            flight = asyncio.get_running_loop().create_future()
            self._flights[flight_key] = flight
            live = _LiveResult()
            try:
                await self._run_live(query, key, snapshot, deadline, live)
            except BaseException as exc:  # cancelled: the followers still get a reason
                live.last_error = live.last_error or repr(exc)
                raise
            finally:
                # _run_live has already stored a fresh answer, so a query
                # arriving after this line hits the cache, not a new flight.
                del self._flights[flight_key]
                flight.set_result(live)
            if live.record is not None:
                return QueryOutcome(
                    query, OutcomeStatus.OK, answer=live.record,
                    epoch=snapshot.epoch, attempts=live.attempts,
                )
            attempts = live.attempts
        else:
            # Follower: no slot, no breaker outcome, no attempt of its own.
            attempts = 0
            try:
                live = await asyncio.wait_for(
                    asyncio.shield(flight), timeout=max(0.0, deadline - self._clock())
                )
            except asyncio.TimeoutError:
                live = _LiveResult(rejection=RejectReason.DEADLINE)
            if self._stopping:
                return self._rejected(query, RejectReason.SHUTDOWN)
            if live.record is not None:
                return self._ok_cached(query, live.record, snapshot.epoch)

        # Degraded path: a stale answer beats no answer — flagged as such.
        rejection, last_error = live.rejection, live.last_error
        stale = self._stale_lookup(key, query.max_stale_s, now_wall)
        if stale is not None:
            record, age, rec_epoch = stale
            if rejection is RejectReason.BREAKER_OPEN:
                reason = "breaker_open"
            else:
                reason = last_error or (
                    rejection.value if rejection else "live path unavailable"
                )
            return QueryOutcome(
                query, OutcomeStatus.DEGRADED, answer=record, degraded=True,
                stale_age_s=age, epochs_behind=max(0, snapshot.epoch - rec_epoch),
                epoch=rec_epoch, reason=reason, attempts=attempts,
            )

        # Typed terminal refusal.
        if last_error is not None:
            return QueryOutcome(
                query, OutcomeStatus.FAILED, reason=last_error, attempts=attempts,
            )
        return self._rejected(
            query, rejection or RejectReason.DEADLINE, attempts=attempts
        )

    async def _run_live(
        self,
        query: SynthesisQuery,
        key: str,
        snapshot: InventorySnapshot,
        deadline: float,
        live: _LiveResult,
    ) -> None:
        """Bulkhead → breaker → backend, with deadline + retries; how it went
        is written into ``live`` as it goes, so a cancelled leader still
        leaves its followers an account."""
        breaker = self.breaker_for(query.composer)
        while live.attempts <= self.max_retries:
            remaining = deadline - self._clock()
            if remaining <= 1e-3:
                live.rejection = live.rejection or RejectReason.DEADLINE
                return
            if not breaker.allow():
                live.rejection = RejectReason.BREAKER_OPEN
                return
            # breaker.allow() may have consumed a half-open probe slot; from
            # here every exit path must record exactly one outcome on it.
            recorded = False
            try:
                try:
                    await self.bulkhead.acquire(timeout_s=remaining)
                except QueryRejected as rej:
                    breaker.record_success()  # admission refusal, not backend sickness
                    recorded = True
                    live.rejection = rej.reason
                    return
                live.attempts += 1
                try:
                    record = await self._call_backend(
                        query, key, snapshot, timeout_s=deadline - self._clock()
                    )
                except Exception as exc:  # noqa: BLE001 - retry boundary
                    breaker.record_failure()
                    recorded = True
                    self.metrics.counter("service.live_failure").inc()
                    live.last_error = repr(exc)
                else:
                    breaker.record_success()
                    recorded = True
                    self.metrics.counter("service.live_success").inc()
                    self._remember(key, snapshot.epoch, record)
                    live.record = record
                    return
            finally:
                if not recorded:
                    # Cancelled mid-attempt: count it against the backend so
                    # half-open probe slots can never leak.
                    breaker.record_failure()
            if live.attempts > self.max_retries:
                return
            delay = min(
                self.backoff.delay_s(live.attempts, self._rng),
                max(0.0, deadline - self._clock()),
            )
            if delay > 0:
                self.metrics.counter("service.retries").inc()
                await asyncio.sleep(delay)

    async def _call_backend(
        self,
        query: SynthesisQuery,
        key: str,
        snapshot: InventorySnapshot,
        *,
        timeout_s: float,
    ) -> Dict[str, Any]:
        """One live attempt on the executor; the bulkhead slot is released
        when the backend thread actually finishes (timeouts abandon the
        thread but keep its slot held until it returns — honest bounds)."""
        if timeout_s <= 0:
            self.bulkhead.release()
            raise BackendTimeout("no budget left for a live attempt")
        if self._executor is None:
            self.bulkhead.release()
            raise QueryRejected(RejectReason.SHUTDOWN)
        loop = asyncio.get_running_loop()
        backend = self.backends[query.composer]
        requirements = self._requirements_for(key, query)
        future = self._executor.submit(
            self._invoke, backend, query, key, requirements,
            self._pool_for(snapshot), snapshot,
        )
        future.add_done_callback(
            lambda _f: loop.call_soon_threadsafe(self.bulkhead.release)
        )
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(future, loop=loop), timeout=timeout_s
            )
        except asyncio.TimeoutError:
            future.cancel()
            raise BackendTimeout(
                f"backend {query.composer!r} exceeded {timeout_s:.3f}s"
            ) from None

    def _invoke(
        self,
        backend: Any,
        query: SynthesisQuery,
        key: str,
        requirements: RequirementSet,
        pool: Sequence[Any],
        snapshot: InventorySnapshot,
    ) -> Dict[str, Any]:
        """Worker-thread body: compose, build the record, write through."""
        compose = backend.compose if hasattr(backend, "compose") else backend
        composite = compose(requirements, pool, snapshot.topology)
        record = _record_from(composite, snapshot.epoch, time.time())
        self._cache_put(key, query, record)
        return record

    # ------------------------------------------------------------------- stats

    def stats(self) -> Dict[str, Any]:
        """A JSON-able health snapshot (metrics, breakers, bulkhead)."""
        return {
            "bulkhead": self.bulkhead.snapshot(),
            "breakers": {n: b.snapshot() for n, b in self.breakers.items()},
            "epoch": self.hub.epoch,
            "counters": {
                name: d["value"]
                for name, d in self.metrics.snapshot().items()
                if d["kind"] == "counter" and name.startswith("service.")
            },
        }
