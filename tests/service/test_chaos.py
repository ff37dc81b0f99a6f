"""Chaos suite: the resilience stack under injected faults and live churn.

These are the ISSUE's SLO assertions: under slow/failing backends, worker
stalls, and inventory churn mid-query, every query still reaches a typed
terminal outcome within its budget, nothing hangs, degraded answers are
flagged with staleness metadata, and the breaker provably opens *and*
re-closes once the backend heals.
"""

import asyncio

from repro.core.synthesis.composer import GreedyComposer
from repro.service import OutcomeStatus, SynthesisService
from repro.service.chaos import (
    ChaosBackend,
    ChaosConfig,
    ChaosError,
    InventoryChurner,
    check_slos,
    run_query_load,
)
from repro.util.backoff import BackoffPolicy


def run(coro):
    return asyncio.run(coro)


def chaos_service(world, chaos: ChaosBackend, **kwargs) -> SynthesisService:
    kwargs.setdefault("backoff", BackoffPolicy(base_s=0.001, max_s=0.01))
    kwargs.setdefault("max_retries", 1)
    kwargs.setdefault("breaker_min_calls", 4)
    kwargs.setdefault("breaker_window", 8)
    kwargs.setdefault("breaker_open_s", 0.1)
    return SynthesisService(world.hub, backends={"greedy": chaos}, **kwargs)


class TestChaosBackend:
    def test_seeded_fault_schedule_is_replayable(self, small_world):
        cfg = ChaosConfig(error_prob=0.5, seed=3)

        def fault_pattern():
            backend = ChaosBackend(GreedyComposer(), cfg)
            pattern = []
            for _ in range(20):
                try:
                    backend.compose(None, [], None)  # error path never composes
                except ChaosError:
                    pattern.append("error")
                except Exception:
                    pattern.append("through")  # reached the real composer
            return pattern

        assert fault_pattern() == fault_pattern()

    def test_fault_counters_track_injections(self, small_world):
        backend = ChaosBackend(
            GreedyComposer(), ChaosConfig(error_prob=1.0, seed=1)
        )
        for _ in range(5):
            try:
                backend.compose(None, [], None)
            except ChaosError:
                pass
        assert backend.calls == 5
        assert backend.faults["error"] == 5


class TestErrorChaos:
    def test_flaky_backend_all_terminal(self, small_world):
        backend = ChaosBackend(
            GreedyComposer(),
            ChaosConfig(error_prob=0.3, slow_prob=0.2, slow_s=0.01, seed=11),
        )

        async def scenario():
            svc = chaos_service(small_world, backend)
            async with svc:
                queries = [
                    small_world.query(
                        goal=small_world.goal(index=i % 6), deadline_s=1.0
                    )
                    for i in range(60)
                ]
                outcomes = await run_query_load(
                    svc, queries, concurrency=16, hang_timeout_s=20.0
                )
                return outcomes, check_slos(outcomes, svc)

        outcomes, report = run(scenario())
        assert report.ok, report.describe()
        assert len(outcomes) == 60
        answered = [o for o in outcomes if o.ok]
        assert answered, "chaos run produced no answers at all"

    def test_stalled_workers_do_not_hang_queries(self, small_world):
        backend = ChaosBackend(
            GreedyComposer(),
            ChaosConfig(stall_prob=0.4, stall_s=1.0, seed=5),
        )

        async def scenario():
            svc = chaos_service(
                small_world, backend, max_concurrent=4, deadline_grace_s=0.5
            )
            async with svc:
                queries = [
                    small_world.query(
                        goal=small_world.goal(index=i % 4), deadline_s=0.4
                    )
                    for i in range(24)
                ]
                outcomes = await run_query_load(
                    svc, queries, concurrency=8, hang_timeout_s=20.0
                )
                return check_slos(outcomes, svc)

        report = run(scenario())
        assert report.ok, report.describe()


class TestChurnChaos:
    def test_inventory_churn_mid_query(self, small_world):
        # Every live compose outlasts a churn tick (30 ms against 20 ms): the
        # first wave holds all twelve client slots across an epoch change, so
        # later queries are admitted under a newer epoch however fast the
        # composer itself is.
        backend = ChaosBackend(
            GreedyComposer(),
            ChaosConfig(slow_prob=1.0, slow_s=0.03, seed=9),
        )

        async def scenario():
            svc = chaos_service(small_world, backend)
            churner = InventoryChurner(
                small_world.hub,
                kill_fraction=0.1,
                downtime_ticks=2,
                interval_s=0.02,
                seed=4,
            )
            async with svc:
                churn_task = churner.start(duration_s=5.0)
                queries = [
                    small_world.query(
                        goal=small_world.goal(index=i % 6), deadline_s=1.0
                    )
                    for i in range(48)
                ]
                outcomes = await run_query_load(
                    svc, queries, concurrency=12, hang_timeout_s=25.0
                )
                await churner.stop()
                await asyncio.gather(churn_task, return_exceptions=True)
                return outcomes, churner, check_slos(outcomes, svc)

        outcomes, churner, report = run(scenario())
        assert report.ok, report.describe()
        assert churner.kills > 0, "churner never killed a node"
        # Churn healed at the end: the final epoch has the full population.
        assert small_world.hub.current().size == len(small_world.inventory.all())
        # Epochs advanced underneath the queries while they ran.
        epochs = {o.epoch for o in outcomes if o.epoch is not None}
        assert len(epochs) > 1, "no query ever saw a different epoch"


class TestBreakerCycleUnderChaos:
    def test_sick_then_healed_backend_cycles_breaker(self, small_world):
        backend = ChaosBackend(
            GreedyComposer(), ChaosConfig(error_prob=1.0, seed=2)
        )

        async def scenario():
            svc = chaos_service(small_world, backend, max_retries=0)
            async with svc:
                # Phase 1: the backend is fully sick — drive the breaker open.
                sick = [
                    small_world.query(
                        goal=small_world.goal(index=i % 6),
                        deadline_s=0.5,
                        max_stale_s=None,
                    )
                    for i in range(12)
                ]
                outcomes = list(
                    await run_query_load(svc, sick, concurrency=4)
                )
                assert svc.breaker_for("greedy").snapshot()["state"] == "open"
                # Phase 2: heal the backend, wait out the cooldown, and let
                # probe traffic re-close the breaker.
                backend.config = ChaosConfig()
                await asyncio.sleep(0.12)
                healed = [
                    small_world.query(
                        goal=small_world.goal(index=6 + i), deadline_s=1.0
                    )
                    for i in range(6)
                ]
                outcomes += await run_query_load(svc, healed, concurrency=2)
                return outcomes, check_slos(
                    outcomes, svc, require_breaker_cycle=True
                )

        outcomes, report = run(scenario())
        assert report.ok, report.describe()
        assert report.breaker_opened and report.breaker_reclosed
        assert any(o.status is OutcomeStatus.OK for o in outcomes[-6:])
