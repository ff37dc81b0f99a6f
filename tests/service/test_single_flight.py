"""Single flight: concurrent misses on one (question, epoch) share one compose.

The first query to miss leads the live attempt — it alone takes a bulkhead
slot and reports to the breaker; the rest wait for its result inside their
own deadlines and end the way it ends.
"""

import asyncio
import threading
import time

from repro.core.synthesis.composer import GreedyComposer
from repro.service import OutcomeStatus, SynthesisService
from repro.service.breaker import BreakerState
from repro.util.backoff import BackoffPolicy

N = 12


def run(coro):
    return asyncio.run(coro)


def make_service(world, backend, **kwargs):
    kwargs.setdefault("backoff", BackoffPolicy(base_s=0.001, max_s=0.01))
    kwargs.setdefault("max_retries", 0)
    return SynthesisService(world.hub, backends={"greedy": backend}, **kwargs)


class GatedBackend:
    """Counts calls; each one sleeps ``delay_s``, then composes or raises."""

    def __init__(self, delay_s: float = 0.05, error: Exception = None):
        self.delay_s = delay_s
        self.error = error
        self.calls = 0
        self._lock = threading.Lock()
        self.inner = GreedyComposer()

    def compose(self, requirements, candidates, topology):
        with self._lock:
            self.calls += 1
        time.sleep(self.delay_s)
        if self.error is not None:
            raise self.error
        return self.inner.compose(requirements, candidates, topology)


def assert_nothing_held(svc):
    assert svc.bulkhead.held == 0
    assert svc.bulkhead.waiting == 0
    assert svc.breaker_for("greedy")._probes_in_flight == 0
    assert not svc._flights


def test_identical_cold_queries_share_one_backend_call(small_world):
    backend = GatedBackend()

    async def scenario():
        # One slot: without coalescing the twelve would queue behind it.
        svc = make_service(small_world, backend, max_concurrent=1, max_waiting=0)
        async with svc:
            outcomes = await asyncio.gather(
                *(svc.submit(small_world.query()) for _ in range(N))
            )
            assert_nothing_held(svc)
        return outcomes, svc

    outcomes, svc = run(scenario())
    assert backend.calls == 1
    assert [o.status for o in outcomes] == [OutcomeStatus.OK] * N
    assert sum(not o.cached for o in outcomes) == 1
    assert not outcomes[0].cached and outcomes[0].attempts == 1
    assert all(o.answer == outcomes[0].answer for o in outcomes)
    assert all(o.epoch == outcomes[0].epoch for o in outcomes)
    counters = svc.stats()["counters"]
    assert counters["service.live_success"] == 1
    assert counters["service.ok_cached"] == N - 1
    # One success on the breaker's window, not twelve.
    assert svc.breaker_for("greedy").snapshot()["window_fill"] == 1


def test_distinct_questions_and_epochs_do_not_share(small_world):
    backend = GatedBackend(delay_s=0.02)

    async def scenario():
        svc = make_service(small_world, backend)
        async with svc:
            first = [
                asyncio.ensure_future(svc.submit(small_world.query(goal=small_world.goal(index=i))))
                for i in (0, 0, 1, 1)
            ]
            await asyncio.sleep(0.005)  # both flights are in the air
            small_world.hub.publish()
            # Same questions, next epoch: answers of the old one do not do.
            second = [
                asyncio.ensure_future(svc.submit(small_world.query(goal=small_world.goal(index=i))))
                for i in (0, 0)
            ]
            return await asyncio.gather(*first), await asyncio.gather(*second)

    first, second = run(scenario())
    assert backend.calls == 3
    assert {o.epoch for o in first} == {first[0].epoch}
    assert {o.epoch for o in second} == {first[0].epoch + 1}
    assert all(o.status is OutcomeStatus.OK for o in first + second)


def test_leader_failure_fails_every_follower_the_same_way(small_world):
    backend = GatedBackend(error=RuntimeError("backend down"))

    async def scenario():
        svc = make_service(small_world, backend)
        async with svc:
            outcomes = await asyncio.gather(
                *(svc.submit(small_world.query(max_stale_s=None)) for _ in range(N))
            )
            assert_nothing_held(svc)
        return outcomes, svc

    outcomes, svc = run(scenario())
    assert backend.calls == 1
    assert [o.status for o in outcomes] == [OutcomeStatus.FAILED] * N
    assert all("backend down" in o.reason for o in outcomes)
    assert [o.attempts for o in outcomes] == [1] + [0] * (N - 1)
    assert all(o.elapsed_s < o.query.deadline_s for o in outcomes)
    assert svc.breaker_for("greedy").snapshot()["window_fill"] == 1  # one failure recorded


def test_leader_failure_degrades_every_follower_to_the_stale_answer(small_world):
    backend = GatedBackend(delay_s=0.02)

    async def scenario():
        svc = make_service(small_world, backend)
        async with svc:
            primed = await svc.submit(small_world.query())
            backend.error = RuntimeError("backend down")
            small_world.hub.publish()
            outcomes = await asyncio.gather(
                *(svc.submit(small_world.query()) for _ in range(N))
            )
            assert_nothing_held(svc)
        return primed, outcomes

    primed, outcomes = run(scenario())
    assert backend.calls == 2
    assert [o.status for o in outcomes] == [OutcomeStatus.DEGRADED] * N
    assert all(o.degraded and o.answer == primed.answer for o in outcomes)
    assert all(o.epochs_behind == 1 and "backend down" in o.reason for o in outcomes)


def test_leader_timeout_reaches_followers_inside_their_own_deadlines(small_world):
    backend = GatedBackend(delay_s=0.4)

    async def scenario():
        svc = make_service(small_world, backend, deadline_grace_s=0.5)
        async with svc:
            t0 = time.monotonic()
            leader = asyncio.ensure_future(
                svc.submit(small_world.query(deadline_s=0.1, max_stale_s=None))
            )
            await asyncio.sleep(0)  # the short-deadline query leads
            followers = [
                asyncio.ensure_future(
                    svc.submit(small_world.query(deadline_s=5.0, max_stale_s=None))
                )
                for _ in range(N - 1)
            ]
            outcomes = await asyncio.gather(leader, *followers)
            elapsed = time.monotonic() - t0
            # The abandoned backend thread keeps its slot until it returns.
            assert svc.bulkhead.held == 1
            await asyncio.sleep(0.45)
            assert_nothing_held(svc)
        return outcomes, elapsed

    outcomes, elapsed = run(scenario())
    assert backend.calls == 1
    assert [o.status for o in outcomes] == [OutcomeStatus.FAILED] * N
    assert all("exceeded" in o.reason for o in outcomes)
    assert elapsed < 0.35  # the leader's 0.1 s, not the followers' 5 s or the 0.4 s compose


def test_follower_with_a_shorter_deadline_gives_up_alone(small_world):
    backend = GatedBackend(delay_s=0.3)

    async def scenario():
        svc = make_service(small_world, backend)
        async with svc:
            leader = asyncio.ensure_future(svc.submit(small_world.query(deadline_s=5.0)))
            await asyncio.sleep(0)
            hasty = await svc.submit(small_world.query(deadline_s=0.05, max_stale_s=None))
            return await leader, hasty

    leader, hasty = run(scenario())
    assert leader.status is OutcomeStatus.OK and not leader.cached
    assert hasty.status is OutcomeStatus.REJECTED and hasty.reason == "deadline"
    assert hasty.elapsed_s < 0.25
    assert backend.calls == 1


def test_half_open_probe_is_taken_once_and_given_back(small_world):
    backend = GatedBackend(delay_s=0.0, error=RuntimeError("backend down"))

    async def scenario():
        svc = make_service(
            small_world, backend,
            breaker_min_calls=2, breaker_window=4, breaker_open_s=0.05,
        )
        async with svc:
            for i in range(2):
                await svc.submit(
                    small_world.query(goal=small_world.goal(index=i), max_stale_s=None)
                )
            breaker = svc.breaker_for("greedy")
            assert breaker.state is BreakerState.OPEN
            backend.error, backend.delay_s = None, 0.05
            await asyncio.sleep(0.06)
            assert breaker.state is BreakerState.HALF_OPEN
            # Twelve queries, one question: one probe, not twelve (the breaker
            # admits two at most, the other ten would have been refused).
            outcomes = await asyncio.gather(
                *(svc.submit(small_world.query(goal=small_world.goal(index=5))) for _ in range(N))
            )
            assert breaker._probe_successes == 1
            assert_nothing_held(svc)
        return outcomes

    outcomes = run(scenario())
    assert [o.status for o in outcomes] == [OutcomeStatus.OK] * N
    assert backend.calls == 3


def test_stop_mid_flight_rejects_followers_with_shutdown(small_world):
    backend = GatedBackend(delay_s=0.15)

    async def scenario():
        svc = make_service(small_world, backend)
        await svc.start()
        pending = [
            asyncio.ensure_future(svc.submit(small_world.query())) for _ in range(N)
        ]
        await asyncio.sleep(0.03)  # the leader's compose is on its thread
        await svc.stop()  # drains: the in-flight backend call finishes
        outcomes = await asyncio.wait_for(asyncio.gather(*pending), timeout=5.0)
        assert_nothing_held(svc)
        return outcomes

    leader, *followers = run(scenario())
    assert backend.calls == 1
    assert leader.status is OutcomeStatus.OK and not leader.cached
    assert [o.status for o in followers] == [OutcomeStatus.REJECTED] * (N - 1)
    assert {o.reason for o in followers} == {"shutdown"}


def test_cancelled_leader_leaves_followers_a_typed_outcome(small_world):
    backend = GatedBackend(delay_s=0.2)

    async def scenario():
        svc = make_service(small_world, backend)
        async with svc:
            leader = asyncio.ensure_future(svc.submit(small_world.query(max_stale_s=None)))
            await asyncio.sleep(0.02)
            followers = [
                asyncio.ensure_future(svc.submit(small_world.query(max_stale_s=None)))
                for _ in range(3)
            ]
            await asyncio.sleep(0.02)
            leader.cancel()
            outcomes = await asyncio.wait_for(asyncio.gather(*followers), timeout=2.0)
            await asyncio.sleep(0.25)
            assert_nothing_held(svc)
            # The question is not poisoned: the next query leads a new flight.
            again = await svc.submit(small_world.query())
        return outcomes, again

    outcomes, again = run(scenario())
    assert [o.status for o in outcomes] == [OutcomeStatus.FAILED] * 3
    assert all("Cancelled" in o.reason for o in outcomes)
    assert again.status is OutcomeStatus.OK
